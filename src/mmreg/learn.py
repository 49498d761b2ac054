"""Weakly-supervised learning of per-class metric aggregation weights.

Ground-truth deformations are unknown, so they are treated as latent
labelings and imputed by segmentation-consistent registration. The trainer
alternates latent imputation with a cutting-plane structured SVM whose
separation oracle is loss-augmented registration inference: all three steps
are the same MRF solve with different unary potentials.

The Dice loss enters inference through a node-decomposable surrogate: tile
overlap counts accumulate per node with the denominator frozen at its
zero-displacement value. The exact warped-mask loss of each labeling the
oracle returns is computed once per sample and cached (`warped_loss`), and
constraints store it, so the QP always sees true loss values.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import metrics as me
from .evaluation import exact_dice
from .graphreg import MrfInstance, level_grid, pairwise_l1_table, solve
from .volume import (
    SegmentationMask,
    check_fields,
    interpolate_dense,
    tile_owners,
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

    def w0_full(self):
        return np.concatenate([np.asarray(self.w0, dtype=np.float64), [self.wp0]])


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
    owners = tile_owners(grid, src_mask)
    tile = grid.node_index(*(owners[a][x[a]] for a in range(3))) * K
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


def pair_tables(source, target, schedule, scales):
    """Control grid and label space of the finest level of the registration
    schedule (a PyramidConfig; level_grid at level 0), metric features
    (divided by `scales`, none when None), pairwise distance table and grid
    edges of one pair, with the arrays made read-only so samples of several
    classes can share them."""
    grid, ls = level_grid(source, schedule, 0)
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


def loss_augmented_instance(sample, w, loss_weight):
    """Registration MRF with the surrogate loss, times `loss_weight`, folded
    into the unaries: +eta for imputation, -1 for the separation oracle.

    Imputation, prediction and the separation oracle differ only here.
    """
    w = np.asarray(w, dtype=np.float64)
    t = sample.tables
    n = t.features.shape[2]
    unaries = t.features @ w[:n]
    if loss_weight != 0.0:
        unaries = unaries + float(loss_weight) * sample.loss_terms
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
    inst = loss_augmented_instance(sample, w, config.eta)
    return solve(inst)


def most_violated(sample, w):
    """Separation oracle: argmin w'Psi - loss.

    Returns:
        (labeling, psi, loss) where loss is the exact warped-mask Dice loss
        stored with the constraint.
    """
    inst = loss_augmented_instance(sample, w, -1.0)
    labeling = solve(inst)
    return labeling, joint_feature(sample, labeling), warped_loss(sample, labeling)


# ---------------------------------------------------------------------------
# quadratic program
# ---------------------------------------------------------------------------

QP_GAP_TOL = 1e-8       # relative duality gap above which a QP counts as unsolved
_QP_MAX_ITER = 500


def solve_qp(working_sets, imputed_psis, w0_full, C, alpha):
    """Solve the margin-rescaled SSVM QP over the stored constraints.

    minimize 0.5||w||^2 + alpha||w - w0||^2 + (C/N) sum_i xi_i
    s.t.     w'psi_hat_i <= w'psi_bar - loss + xi_i   for stored (psi_bar, loss)
             xi_i >= 0, w_p >= 0

    Primal active-set method (Nocedal & Wright, Alg. 16.3) on z = (w, xi),
    from the unconstrained minimiser of the w terms (w_p clipped at 0, xi at
    its slacks), on weight columns scaled to unit largest entry. A sample's
    working multipliers sum to C/N > 0, so it keeps a working row and the
    reduced Hessian stays positive definite.

    Returns:
        (w, xi, gap): xi is recomputed at w, so every stored inequality holds
        exactly. gap is the primal-dual gap relative to max(1, objective); the
        dual point is the final multipliers clipped at 0, each sample's scaled
        down to its C/N cap, with the best multiplier of w_p >= 0 for them.
    """
    w0_full = np.asarray(w0_full, dtype=np.float64)
    nw, N = len(w0_full), len(working_sets)
    n, k = nw + N, 1.0 + 2.0 * alpha
    sidx = np.array([i for i, ws in enumerate(working_sets) for _ in ws], dtype=np.int64)
    A = np.array([np.asarray(psi_bar) - np.asarray(imputed_psis[i])
                  for i, ws in enumerate(working_sets) for (_, psi_bar, _) in ws]).reshape(-1, nw)
    b = np.array([float(loss) for ws in working_sets for (_, _, loss) in ws])
    R = len(b)
    d = 1.0 / np.where(np.any(A, axis=0), np.abs(A).max(axis=0, initial=0.0), 1.0)
    # constraints M z >= rhs on z = (w / d, xi): stored rows, xi >= 0, w_p >= 0
    M = np.block([[A * d, np.eye(N)[sidx]], [np.zeros((N, nw)), np.eye(N)],
                  [np.eye(1, nw, nw - 1), np.zeros((1, N))]])
    rhs = np.concatenate([b, np.zeros(N + 1)])
    hess = np.concatenate([k * d * d, np.zeros(N)])
    lin = np.concatenate([-2.0 * alpha * d * w0_full, np.full(N, C / N)])

    def slacks(w):
        xi = np.zeros(N)
        np.maximum.at(xi, sidx, b - A @ w)
        return xi

    w = (2.0 * alpha / k) * w0_full
    w[-1] = max(w[-1], 0.0)
    xi = slacks(w)
    work = [R + i if xi[i] == 0.0 else int(np.flatnonzero((sidx == i) & (b - A @ w == xi[i]))[0])
            for i in range(N)] + ([R + N] if w[-1] == 0.0 else [])
    z = np.concatenate([w / d, xi])
    for _ in range(_QP_MAX_ITER):
        Mw = M[work]
        kkt = np.block([[np.diag(hess), Mw.T], [Mw, np.zeros((len(work), len(work)))]])
        sol = np.linalg.solve(kkt, np.concatenate([-(hess * z + lin), np.zeros(len(work))]))
        p = sol[:n]
        lam = np.zeros(len(M))
        lam[work] = -sol[n:]
        # rows at 0 along p up to rounding (copies of working rows) do not block
        mp = M @ p
        blocking = mp < -1e-12 * (np.abs(M) @ np.abs(p))
        blocking[work] = False
        cand = np.flatnonzero(blocking)
        ratios = np.maximum(M[cand] @ z - rhs[cand], 0.0) / -mp[cand]
        if len(cand) and ratios.min() < 1.0:
            z += ratios.min() * p
            work.append(int(cand[np.argmin(ratios)]))
            continue
        # a full step ends at the working set's minimiser; lam holds its multipliers
        z += p
        j = int(np.argmin(lam[work]))
        if lam[work[j]] >= 0.0:
            break
        del work[j]

    w = d * z[:nw]
    w[-1] = max(w[-1], 0.0)
    xi = slacks(w)
    primal = _outer_objective(w, xi, w0_full, C, alpha)
    lam_rows = np.maximum(lam[:R], 0.0)
    lam_rows *= ((C / N) / np.maximum(np.bincount(sidx, lam_rows, minlength=N), C / N))[sidx]
    q = 2.0 * alpha * w0_full + A.T @ lam_rows
    q[-1] = max(q[-1], 0.0)       # adds the best multiplier of w_p >= 0, max(0, -q_p)
    dual = b @ lam_rows + alpha * (w0_full @ w0_full) - (q @ q) / (2.0 * k)
    return w, xi, (primal - dual) / max(1.0, primal)


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
            w, xi, gap = solve_qp(wsets, psis_hat, w0_full, config.C, config.alpha)
            if gap > QP_GAP_TOL:
                warning = f"QP did not converge (relative duality gap {gap:.3g} > {QP_GAP_TOL:g})"
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


def write_model(path, wmat, config, schedule):
    """Model file: the weight-matrix format plus an echo of the trainer's
    config and of the finest level of the schedule it trained on."""
    meta = {
        "C": repr(config.C), "alpha": repr(config.alpha), "eta": repr(config.eta),
        "epsilon": repr(config.epsilon), "spacing_mm": repr(schedule.finest_spacing_mm),
        "labels": str(schedule.labels_per_level), "mi_bins": str(me.MI_BINS),
    }
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
