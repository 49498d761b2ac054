"""The SLSQP QP solver with its trust-constr fallback, kept as the reference
for `learn.solve_qp`: on the QPs the tests compare, the active-set solver
must reach an objective no worse than this one's. The library never imports
it.
"""

import numpy as np


def solve_qp(working_sets, imputed_psis, w0_full, C, alpha):
    """Solve the margin-rescaled SSVM QP over the stored constraints.

    minimize 0.5||w||^2 + alpha||w - w0||^2 + (C/N) sum_i xi_i
    s.t.     w'psi_hat_i <= w'psi_bar - loss + xi_i   for stored (psi_bar, loss)
             xi_i >= 0, w_p >= 0

    Returns:
        (w, xi, converged): slacks are recomputed from the constraints at
        the returned w, so every stored inequality holds exactly.
    """
    from scipy.optimize import LinearConstraint, minimize   # only training needs scipy.optimize

    w0_full = np.asarray(w0_full, dtype=np.float64)
    nw = len(w0_full)
    N = len(working_sets)
    rows = []       # (sample index, a = psi_bar - psi_hat, b = loss)
    for i, ws in enumerate(working_sets):
        for (_, psi_bar, loss) in ws:
            rows.append((i, np.asarray(psi_bar) - np.asarray(imputed_psis[i]), float(loss)))

    if not rows:
        w = (2.0 * alpha / (1.0 + 2.0 * alpha)) * w0_full if alpha > 0 else np.zeros(nw)
        w[-1] = max(w[-1], 0.0)
        return w, np.zeros(N), True

    A = np.stack([r[1] for r in rows])
    b = np.array([r[2] for r in rows])
    sidx = np.array([r[0] for r in rows])

    def objective(z):
        return _outer_objective(z[:nw], z[nw:], w0_full, C, alpha)

    def grad(z):
        w = z[:nw]
        g = np.empty_like(z)
        g[:nw] = w + 2.0 * alpha * (w - w0_full)
        g[nw:] = C / N
        return g

    A_full = np.concatenate(
        [A, (sidx[:, None] == np.arange(N)[None, :]).astype(float)], axis=1
    )
    cons = {
        "type": "ineq",
        "fun": lambda z: A_full @ z - b,
        "jac": lambda z: A_full,
    }
    bounds = [(None, None)] * (nw - 1) + [(0.0, None)] * (N + 1)

    def slacks_for(w):
        out = np.zeros(N)
        margins = b - A @ w
        for i in range(N):
            m = sidx == i
            if m.any():
                out[i] = max(0.0, float(margins[m].max()))
        return out

    x0 = np.concatenate([w0_full, slacks_for(w0_full)])

    def feasible_objective(z):
        w = z[:nw].copy()
        w[-1] = max(w[-1], 0.0)
        return _outer_objective(w, slacks_for(w), w0_full, C, alpha), w

    res = minimize(
        objective, x0, jac=grad, bounds=bounds, constraints=[cons],
        method="SLSQP", options={"ftol": 1e-12, "maxiter": 500},
    )
    best_obj, best_w = feasible_objective(res.x)
    converged = bool(res.success)
    if not converged:
        # SLSQP occasionally stalls in its line search; the interior-point
        # solver is slower but dependable on these tiny problems
        res2 = minimize(
            objective, x0, jac=grad, bounds=bounds,
            constraints=[LinearConstraint(A_full, b, np.inf)],
            method="trust-constr", options={"gtol": 1e-10, "xtol": 1e-13, "maxiter": 3000},
        )
        obj2, w2 = feasible_objective(res2.x)
        if obj2 < best_obj:
            best_obj, best_w = obj2, w2
        converged = bool(res.success or res2.success)
    return best_w, slacks_for(best_w), converged


def _outer_objective(w, xi, w0_full, C, alpha):
    dw = w - w0_full
    return float(0.5 * w @ w + alpha * (dw @ dw) + (C / len(xi)) * np.sum(xi))
