"""Weakly-supervised learning of per-class metric aggregation weights.

Ground-truth deformations are unknown, so they are treated as latent
labelings and imputed by segmentation-consistent registration. The trainer
alternates latent imputation with a cutting-plane structured SVM whose
separation oracle is loss-augmented registration inference: all three steps
are the same MRF solve with different unary potentials.

The Dice loss enters inference through a node-decomposable surrogate: tile
overlap counts accumulate per node with the denominator frozen at its
zero-displacement value. Exact warped-mask losses are recomputed whenever a
constraint is stored, so the QP always sees true loss values.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import metrics as me
from .evaluation import exact_dice
from .graphreg import (
    MrfInstance,
    PyramidConfig,
    initialize_label_space,
    pairwise_l1_table,
    solve,
)
from .volume import (
    SegmentationMask,
    check_fields,
    interpolate_dense,
    make_control_grid,
    tile_edges,
    warp_mask,
)


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of the CCCP / cutting-plane trainer."""
    C: float = 10.0
    alpha: float = 0.1
    eta: float = 50.0
    w0: tuple[float, ...] = (0.1, 10.0, 10.0, 10.0)
    wp0: float = 1.0
    epsilon: float = 1e-3        # relative outer-objective tolerance
    slack_tol: float = 1e-4      # margin for "sufficiently violated"
    max_cccp: int = 20
    spacing_mm: float = 25.0     # single-level training grid spacing
    labels: int = 125
    bound_factor: float = 0.4

    def __post_init__(self):
        check_fields(self, {
            "C > 0": self.C > 0,
            "alpha >= 0": self.alpha >= 0,
            "eta > 0": self.eta > 0,
            f"{me.N_METRICS} w0 entries": len(self.w0) == me.N_METRICS,
            "wp0 >= 0": self.wp0 >= 0,
            "epsilon > 0": self.epsilon > 0,
            "slack_tol > 0": self.slack_tol > 0,
            "max_cccp >= 1": self.max_cccp >= 1,
        })
        self.label_schedule()     # checks spacing_mm, labels and bound_factor

    def w0_full(self):
        return np.concatenate([np.asarray(self.w0, dtype=np.float64), [self.wp0]])

    def label_schedule(self):
        return PyramidConfig(
            levels=1, steps_per_level=1, labels_per_level=self.labels,
            finest_spacing_mm=self.spacing_mm, bound_factor=self.bound_factor,
        )


# ---------------------------------------------------------------------------
# node-decomposable Dice loss surrogate
# ---------------------------------------------------------------------------

def loss_node_terms(src_mask, tgt_mask, grid, label_space):
    """Per-(node, label) contributions of the decomposable Dice loss.

    Displacing node i's tile of the source mask by d_l is approximated by an
    integer voxel shift; the denominator is held at its zero-displacement
    value so any labeling's surrogate loss is the plain sum of these terms.

    Only target-foreground voxels x can add to an overlap count, so the
    source indicator, zero-padded, is gathered at x + s for every such x and
    every unique shift s, and the hits are summed per tile owning x. The
    counts are integers, hence equal to those of shifting the whole source
    mask and summing its overlap with the target per tile.

    Returns:
        (|V|, |L|) terms that sum over a labeling to the surrogate loss in
        [0, 1]; all zero when both masks are empty.
    """
    a = src_mask.labels > 0
    b = tgt_mask.labels > 0
    V = grid.n_nodes
    d0 = int(a.sum()) + int(b.sum())
    if d0 == 0:
        return np.zeros((V, label_space.n_labels))

    spacing = np.asarray(src_mask.spacing, dtype=np.float64)
    shifts = np.rint(label_space.displacements / spacing).astype(np.int64)
    uniq, inverse = np.unique(shifts, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    K = len(uniq)
    # a shift of n or more voxels along an axis of n voxels reads only padding
    dims = np.asarray(a.shape)
    uniq = np.clip(uniq, -dims, dims)
    pad = np.abs(uniq).max(axis=0)
    padded = np.pad(a, [(int(p), int(p)) for p in pad])
    offsets = uniq @ (np.asarray(padded.strides) // padded.itemsize)
    x = np.nonzero(b)
    base = np.ravel_multi_index(tuple(x[i] + pad[i] for i in range(3)), padded.shape)
    bounds = tile_edges(grid, src_mask)
    gx, gy, _ = grid.grid_dims
    owner = [np.searchsorted(bounds[i], x[i], side="right") - 1 for i in range(3)]
    tile = (owner[0] + gx * (owner[1] + gy * owner[2])) * K
    flat = padded.reshape(-1)
    num = np.zeros(V * K, dtype=np.int64)
    chunk = max(1, (1 << 19) // K)        # bounds each gather to ~4 MB of indices
    for s in range(0, len(base), chunk):
        rows, k = np.nonzero(flat[base[s:s + chunk, None] + offsets])
        num += np.bincount(tile[s + rows] + k, minlength=V * K)
    return 1.0 / V - 2.0 * num.reshape(V, K)[:, inverse] / d0


# ---------------------------------------------------------------------------
# sample preparation and joint features
# ---------------------------------------------------------------------------

class PairTables(NamedTuple):
    """The tables of one training pair that depend on neither w nor the
    class under training; every class's sample of the pair shares them."""
    grid: object
    label_space: object
    features: np.ndarray           # (|V|, |L|, n)
    pairwise_table: np.ndarray
    edges: np.ndarray


def pair_tables(source, target, config, scales):
    """Control grid, label space, metric features (divided by `scales`,
    none when None), pairwise distance table and grid edges of one pair,
    with the arrays made read-only so samples of several classes can share
    them."""
    grid = make_control_grid(source, config.spacing_mm)
    ls = initialize_label_space(config.label_schedule(), (config.spacing_mm,) * 3)
    tables = PairTables(grid, ls, me.feature_table(source, target, grid, ls, scales),
                        pairwise_l1_table(ls), grid.edges)
    for arr in (tables.features, tables.pairwise_table, tables.edges):
        arr.setflags(write=False)
    return tables


@dataclass
class TrainingSample:
    """One (volume pair, class) example: the pair's shared tables plus the
    class's foreground masks and loss contributions."""
    tables: PairTables
    class_id: int
    src_fg: SegmentationMask
    tgt_fg: SegmentationMask
    loss_terms: np.ndarray            # (|V|, |L|) decomposable loss contributions
    loss_cache: dict = field(default_factory=dict)   # warped_loss by labeling bytes


def prepare_sample(tables, source_mask, target_mask, class_id):
    """The sample of class `class_id` on a pair with tables `tables` (from
    pair_tables): the class's foreground masks and per-(node, label) loss
    contributions."""
    src_fg, tgt_fg = (SegmentationMask((m.labels == class_id).astype(np.uint8),
                                       m.spacing, m.origin)
                      for m in (source_mask, target_mask))
    return TrainingSample(tables, class_id, src_fg, tgt_fg,
                          loss_node_terms(src_fg, tgt_fg, tables.grid, tables.label_space))


def joint_feature(sample, labeling):
    """Psi(labeling): per-metric unary sums plus the unweighted pairwise sum."""
    labeling = np.asarray(labeling)
    t = sample.tables
    unary = t.features[np.arange(t.features.shape[0]), labeling, :].sum(axis=0)
    pair = 0.0
    if len(t.edges):
        pair = float(t.pairwise_table[labeling[t.edges[:, 0]], labeling[t.edges[:, 1]]].sum())
    return np.concatenate([unary, [pair]])


def loss_augmented_instance(sample, w, sign, scale):
    """Registration MRF with the surrogate loss folded into the unaries.

    Imputation, prediction and the separation oracle differ only here.
    """
    w = np.asarray(w, dtype=np.float64)
    t = sample.tables
    n = t.features.shape[2]
    unaries = t.features @ w[:n]
    if scale != 0.0:
        unaries = unaries + float(sign) * float(scale) * sample.loss_terms
    return MrfInstance(unaries, float(w[n]), t.pairwise_table, t.edges)


def warped_loss(sample, labeling):
    """Exact Dice loss of the class mask deformed by the labeling's FFD field.

    The loss depends only on the labeling and the sample's read-only tables,
    and the oracle often returns a labeling it returned before, so each
    labeling's loss is computed once per sample.
    """
    labeling = np.asarray(labeling, dtype=np.int64)
    key = labeling.tobytes()
    if key not in sample.loss_cache:
        sparse = sample.tables.label_space.displacements[labeling]
        fld = interpolate_dense(sample.tables.grid, sparse, sample.src_fg)
        warped = warp_mask(sample.src_fg, fld)
        sample.loss_cache[key] = 1.0 - exact_dice(warped.labels, sample.tgt_fg.labels)
    return sample.loss_cache[key]


def impute_latent(sample, w, config):
    """Segmentation-consistent registration: argmin w'Psi + eta * loss."""
    inst = loss_augmented_instance(sample, w, +1.0, config.eta)
    return solve(inst)


def most_violated(sample, w):
    """Separation oracle: argmin w'Psi - loss.

    Returns:
        (labeling, psi, loss) where loss is the exact warped-mask Dice loss
        stored with the constraint.
    """
    inst = loss_augmented_instance(sample, w, -1.0, 1.0)
    labeling = solve(inst)
    return labeling, joint_feature(sample, labeling), warped_loss(sample, labeling)


# ---------------------------------------------------------------------------
# quadratic program
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# CCCP trainer
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    class_id: int
    w_c: np.ndarray
    w_p: float
    manifest_rows: list            # one dict per CCCP iteration
    converged: bool = True
    warning: str = ""


def train_class(samples, config=None):
    """CCCP with latent imputation and cutting planes for one class.

    Outer loop: impute latent labelings at the current w and reset the
    working sets. Inner loop: add each sample's most violated constraint
    while the violation exceeds the current slack by slack_tol, re-solving
    the QP after each round (at most 50 rounds). Stops when the outer objective decreases by
    less than epsilon (relative); an iteration cap returns best-so-far with
    a warning.
    """
    config = config or TrainConfig()
    if not samples:
        raise ValueError("train_class needs at least one sample")
    if any(s.class_id != samples[0].class_id for s in samples):
        raise ValueError("all samples must target the same class")

    w0_full = config.w0_full()
    N = len(samples)
    w = w0_full.copy()
    manifest = []
    prev = None            # (w, objective) of the best iterate so far
    stall = 0
    warning = ""
    converged = False

    for t in range(config.max_cccp):
        psis_hat = []
        for s in samples:
            lab = impute_latent(s, w, config)
            psis_hat.append(joint_feature(s, lab))

        wsets = [[] for _ in range(N)]
        xi = np.zeros(N)
        for _ in range(50):
            grew = False
            for i, s in enumerate(samples):
                lab, psi_bar, loss = most_violated(s, w)
                slack_new = max(0.0, loss - float(w @ psi_bar) + float(w @ psis_hat[i]))
                duplicate = any(np.array_equal(lab, st[0]) for st in wsets[i])
                if not duplicate and slack_new > xi[i] + config.slack_tol:
                    wsets[i].append((lab, psi_bar, loss))
                    grew = True
            if not grew:
                break
            w, xi, qp_ok = solve_qp(wsets, psis_hat, w0_full, config.C, config.alpha)
            if not qp_ok:
                warning = "QP did not converge"
        else:
            warning = warning or "cutting-plane iteration cap reached"

        obj = _outer_objective(w, xi, w0_full, config.C, config.alpha)
        # the eta-relaxed imputation is not an exact bound minimizer, so a
        # re-imputation can raise the objective; such iterates are kept as
        # exploration (the violator search at the new w exposes its own bad
        # basins) but the retained model is always the best so far, and the
        # manifest marks the iterates it retained
        improved = prev is None or obj < prev[1]
        manifest.append({
            "cccp_iter": t,
            "outer_objective": obj,
            "retained": bool(improved),
            "slacks": [float(v) for v in xi],
            "working_set_sizes": [len(ws) for ws in wsets],
        })
        if improved:
            small = prev is not None and prev[1] - obj < config.epsilon * max(1.0, abs(prev[1]))
            prev = (w.copy(), obj)
            stall = 0
            if small:
                converged = True
                break
        else:
            stall += 1
            if stall >= 2:
                converged = True
                break
    w = prev[0]
    if not converged:
        warning = warning or "CCCP iteration cap reached"

    n = len(config.w0)
    return TrainResult(
        class_id=samples[0].class_id,
        w_c=w[:n].copy(), w_p=float(w[n]),
        manifest_rows=manifest,
        converged=converged, warning=warning,
    )


def assemble_model(results, config, scales):
    """Combine per-class results into a weight matrix, columns in class-id
    order. With several classes a background column (class 0) handles
    all-background patches; it is set to the trainer's no-constraint
    solution.

    Classes are trained independently, so their absolute column magnitudes
    are not calibrated against each other; at prediction a node could buy a
    cheaper-column class by displacing its patch. Columns (with their
    pairwise weights) are therefore rescaled to a common aggregate
    magnitude, which preserves each class's learned metric proportions and
    its unary/pairwise balance. `scales` are the normalization divisors
    the features were divided by (None for none), recorded with the model.
    """
    by_class = {r.class_id: r for r in results}
    if len(by_class) != len(results):
        raise ValueError("duplicate class ids in training results")
    if 0 in by_class:
        raise ValueError("class 0 is reserved for background")
    ids = sorted(by_class)
    if len(ids) == 1:
        res = by_class[ids[0]]
        return me.WeightMatrix(
            res.w_c.reshape(-1, 1), np.asarray([res.w_p]),
            tuple(ids), me.METRIC_NAMES, scales,
        )
    target = float(np.abs(np.asarray(config.w0)).sum())
    cols = []
    pws = []
    for c in ids:
        res = by_class[c]
        mag = float(np.abs(res.w_c).sum())
        gamma = target / mag if mag > 0 else 1.0
        cols.append(gamma * res.w_c)
        pws.append(gamma * res.w_p)
    # untrained background: hand-tuned proportions at the common magnitude,
    # stiffness typical of the trained classes
    ids = [0] + ids
    cols.insert(0, np.asarray(config.w0, dtype=np.float64))
    pws.insert(0, float(np.mean(pws)))
    return me.WeightMatrix(
        np.stack(cols, axis=1), np.asarray(pws), tuple(ids),
        me.METRIC_NAMES, scales,
    )


def write_model(path, wmat, config, extra_meta=None):
    """Model file: the weight-matrix format plus a config echo."""
    meta = {
        "C": repr(config.C), "alpha": repr(config.alpha), "eta": repr(config.eta),
        "epsilon": repr(config.epsilon), "spacing_mm": repr(config.spacing_mm),
        "labels": str(config.labels), "mi_bins": str(me.MI_BINS),
    }
    meta.update(extra_meta or {})
    me.write_weights(path, wmat, meta)


def write_training_manifest(path, results):
    """Plain-text log: one line per (class, cccp_iter)."""
    lines = ["class cccp_iter outer_objective slacks working_set_sizes"]
    for r in results:
        for row in r.manifest_rows:
            slacks = ",".join(f"{v:.6g}" for v in row["slacks"])
            sizes = ",".join(str(v) for v in row["working_set_sizes"])
            tag = "" if row.get("retained", True) else " explored"
            lines.append(
                f"{r.class_id} {row['cccp_iter']} {row['outer_objective']:.9g} {slacks} {sizes}{tag}"
            )
        if r.warning:
            lines.append(f"# class {r.class_id}: {r.warning}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
