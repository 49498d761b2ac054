"""Discrete MRF energy construction and minimization over the control grid.

The registration energy couples per-node data costs (class-weighted metric
aggregations) with an L1 smoothness term between neighbouring control-point
displacements. Minimization uses move-making expansion steps, each solved
exactly as a min-cut; the L1 pairwise term is a metric, so every expansion
move is submodular.

Most expansion moves change nothing, so a move is skipped without a cut
when its outcome is already known: when the labeling has not changed since
the label's last move (the same inputs give the same rejected cut), or when
a dual lower bound certifies that no move to the label can lower the energy
(each edge's energy change is split between its endpoints, and every node's
share plus its unary change is non-negative). The cuts that remain run on
one flow network per instance whose capacities are rewritten per move.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow, breadth_first_order

from . import metrics as me
from .volume import (
    DeformationField,
    LabelSpace,
    build_pyramid,
    check_fields,
    ffd_evaluate,
    make_control_grid,
    sample_field,
    warp,
    warp_mask,
)


@dataclass(frozen=True)
class PyramidConfig:
    """Pyramidal schedule parameters.

    Displacement labels are bounded by bound_factor x control spacing, which
    keeps the composed field diffeomorphic; after every step the label
    catalog shrinks by refine_factor. labels_per_level is k^3 for an odd k,
    so the k x k x k catalog holds the zero vector.
    """
    levels: int = 2
    steps_per_level: int = 5
    labels_per_level: int = 125
    finest_spacing_mm: float = 25.0
    bound_factor: float = 0.4
    refine_factor: float = 0.7

    def __post_init__(self):
        k = round(max(self.labels_per_level, 0) ** (1.0 / 3.0))
        check_fields(self, {
            "levels >= 1": self.levels >= 1,
            "steps_per_level >= 1": self.steps_per_level >= 1,
            "labels_per_level = k^3 for an odd k": k ** 3 == self.labels_per_level and k % 2 == 1,
            "finest_spacing_mm > 0": self.finest_spacing_mm > 0,
            "0 < bound_factor <= 0.4": 0.0 < self.bound_factor <= 0.4,
            "0 < refine_factor < 1": 0.0 < self.refine_factor < 1.0,
        })


@dataclass(frozen=True)
class MrfInstance:
    """Pairwise MRF over the control grid.

    unaries: (|V|, |L|) node costs.
    edge_weights: pairwise weight w_p, one value for every edge or one per
        edge (w_p varies by dominant class); stored as an (|E|,) array.
    pairwise_table: (|L|, |L|) L1 distances (mm) between displacement labels.
    """
    unaries: np.ndarray
    edge_weights: np.ndarray
    pairwise_table: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(self.unaries, dtype=np.float64)
        t = np.ascontiguousarray(self.pairwise_table, dtype=np.float64)
        e = np.ascontiguousarray(self.edges, dtype=np.int64)
        w = np.asarray(self.edge_weights, dtype=np.float64)
        w = np.full(len(e), w) if w.ndim == 0 else np.ascontiguousarray(w)
        if w.shape != (len(e),):
            raise ValueError(f"edge_weights must be one value or one per edge, got shape "
                             f"{w.shape} for {len(e)} edges")
        object.__setattr__(self, "unaries", u)
        object.__setattr__(self, "edge_weights", w)
        object.__setattr__(self, "pairwise_table", t)
        object.__setattr__(self, "edges", e)

    @property
    def n_nodes(self):
        return self.unaries.shape[0]

    @property
    def n_labels(self):
        return self.unaries.shape[1]

    def energy(self, labeling):
        labeling = np.asarray(labeling)
        e = float(self.unaries[np.arange(self.n_nodes), labeling].sum())
        if len(self.edges):
            li = labeling[self.edges[:, 0]]
            lj = labeling[self.edges[:, 1]]
            e += float((self.edge_weights * self.pairwise_table[li, lj]).sum())
        return e


def pairwise_l1_table(label_space):
    """(|L|, |L|) matrix of L1 distances between displacement vectors, in mm."""
    d = label_space.displacements
    return np.abs(d[:, None, :] - d[None, :, :]).sum(axis=2)


# ---------------------------------------------------------------------------
# label spaces
# ---------------------------------------------------------------------------

def initialize_label_space(config, spacing_at_level_mm):
    """Dense cubic displacement catalog for one pyramid level.

    k^3 = labels_per_level displacements with per-axis values uniformly
    spaced in [-bound*spacing, +bound*spacing]; k is odd, so the zero
    vector is included (and listed first). `spacing_at_level_mm` holds
    the three per-axis control spacings.
    """
    k = round(config.labels_per_level ** (1.0 / 3.0))
    axes = [np.linspace(-config.bound_factor * s, config.bound_factor * s, k)
            for s in spacing_at_level_mm]
    dz, dy, dx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    disp = np.stack([dx.ravel(), dy.ravel(), dz.ravel()], axis=1)
    zero = np.nonzero(np.all(disp == 0.0, axis=1))[0][0]
    order = np.concatenate([[zero], np.delete(np.arange(len(disp)), zero)])
    disp = disp[order]
    return LabelSpace(disp)


def refine_label_space(label_space, factor):
    """Shrink every displacement by `factor`."""
    return LabelSpace(label_space.displacements * factor)


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

def build_instance(src, tgt, src_mask, wmat, grid, label_space):
    """Assemble the registration MRF.

    Unary (i, l): the metric feature vector for the displaced source patch
    vs the undisplaced target patch, weighted by the column of the dominant
    class of the displaced source-mask patch. The per-node pairwise weight
    comes from the zero-label dominant class; each edge uses the mean of its
    endpoint weights so the pairwise term stays label-pair-separable.

    Features are divided by the weight matrix's normalization scales. With
    a single-column weight matrix the mask is optional and the lone column
    applies everywhere.
    """
    feats = me.feature_table(src, tgt, grid, label_space, wmat.scales)
    V, L, n = feats.shape
    edges = grid.edges
    table = pairwise_l1_table(label_space)

    if wmat.n_classes == 1:
        unaries = feats @ wmat.weights[:, 0]
        return MrfInstance(unaries, float(wmat.pairwise[0]), table, edges)

    if src_mask is None:
        raise ValueError("multi-class weight matrix requires a source mask")
    if src_mask.geometry() != src.geometry():
        raise ValueError("source mask is not aligned with the source volume")
    max_class = max(wmat.class_ids)
    cls = me.dominant_class_table(src_mask, grid, label_space, max_class)   # (V, L)
    # a label whose patches are empty gets the sentinel feature vector; pin
    # such labels to the node's zero-label class so the constant sentinel
    # cannot be discounted by switching to a lighter weight column
    empty = me.empty_feature_rows(feats)
    cls = np.where(empty, cls[:, :1], cls)
    col_of = np.zeros(max_class + 1, dtype=np.int64)
    for c in range(max_class + 1):
        col_of[c] = wmat.column_index(c) if c in wmat.class_ids else wmat.column_index(0)
    cols = col_of[cls]                                    # (V, L) column indices
    unaries = np.einsum("vln,nvl->vl", feats, wmat.weights[:, cols])
    node_wp = wmat.pairwise[cols[:, 0]]                   # zero-label dominant class
    edge_w = 0.5 * (node_wp[edges[:, 0]] + node_wp[edges[:, 1]])
    return MrfInstance(unaries, edge_w, table, edges)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

# scipy's maximum_flow mishandles single capacities above int32 range even
# for int64 graphs, so float costs are quantized to stay below 2^31
_FLOW_CAP_MAX = (1 << 31) - 64

# transfer rounds of the skip certificate; past four, further rounds
# certified almost no more moves on the registration and training MRFs
_TRANSFER_ROUNDS = 4

# share of a node's surplus it may hand on in a transfer round; the rest
# absorbs rounding, so a donor never ends below zero
_TRANSFER_KEEP = 1.0 - 1e-6


class _ExpansionNetwork:
    """The flow network of one MRF instance, built once per solve.

    Arcs are the edges i->j, the terminal arcs s->i and i->t of every node,
    and an explicit reverse arc of each, in one fixed CSR structure; each
    expansion move only writes capacities into it. The network also checks
    the dual bound that lets a move be skipped without a cut.
    """

    def __init__(self, instance):
        V = instance.n_nodes
        self.unaries = instance.unaries
        self.table = instance.pairwise_table
        self.i = instance.edges[:, 0]
        self.j = instance.edges[:, 1]
        self.w = instance.edge_weights

        s, t = V, V + 1
        n = V + 2
        nodes = np.arange(V)
        tails = np.concatenate([self.i, np.full(V, s), nodes, self.j, nodes, np.full(V, t)])
        heads = np.concatenate([self.j, nodes, np.full(V, t), self.i, np.full(V, s), nodes])
        keys, slot = np.unique(tails * n + heads, return_inverse=True)
        self.slot = slot[: len(self.i) + 2 * V]   # the arcs that carry capacity
        self.tail = keys // n
        self.graph = csr_matrix(
            (np.zeros(len(keys), dtype=np.int64), keys % n,
             np.searchsorted(self.tail, np.arange(n + 1))),
            shape=(n, n),
        )

    def relabel(self, labeling):
        """Set the labeling that the following moves start from."""
        self.li = labeling[self.i]
        self.lj = labeling[self.j]
        self.t0 = self.table[self.li, self.lj]
        self.u0 = self.unaries[np.arange(len(labeling)), labeling]

    def cut(self, alpha):
        """Optimal alpha-expansion move via min-cut; returns the move mask."""
        V = len(self.u0)
        theta = self.unaries[:, alpha] - self.u0
        A = self.w * self.t0
        B = self.w * self.table[self.li, alpha]
        C = self.w * self.table[alpha, self.lj]
        # submodular pairwise split: delta_i = C - A, delta_j = -C, arc = B + C - A
        np.add.at(theta, self.i, C - A)
        np.add.at(theta, self.j, -C)
        beta = B + C - A
        vals = np.concatenate([
            np.where(beta > 0, beta, 0.0),
            np.where(theta > 0, theta, 0.0),
            np.where(theta < 0, -theta, 0.0),
        ])
        top = vals.max()
        if not top > 0:
            return np.zeros(V, dtype=bool)
        ivals = np.floor(vals * (float(_FLOW_CAP_MAX) / max(top, 1e-300)))
        if not ivals.any():
            return np.zeros(V, dtype=bool)

        graph = self.graph
        graph.data = np.bincount(self.slot, ivals, len(graph.data)).astype(np.int64)
        res = maximum_flow(graph, V, V + 1)
        # with every reverse arc present, the flow comes back on the graph's
        # own structure. The moved nodes are those not reachable from s
        # through arcs with residual capacity: the source side of the
        # minimal min-cut, which is the same for every maximum flow
        open_arc = graph.data - res.flow.data > 0
        heads = graph.indices[open_arc]
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self.tail[open_arc], minlength=V + 2))])
        residual = csr_matrix((np.ones(len(heads), dtype=np.int8), heads, indptr),
                              shape=graph.shape)
        reach = breadth_first_order(residual, V, directed=True, return_predecessors=False)
        moved = np.ones(V + 2, dtype=bool)
        moved[reach] = False
        return moved[:V]

    def certify(self, alpha):
        """True when no alpha-expansion move can lower the energy, shown by
        a dual lower bound without a cut.

        Each edge's energy change is split between its endpoints so that,
        for every move set S, the change is at least the sum over S of the
        node margins m_i; when all m_i >= 0 no move improves. Transfer
        rounds let a node with m_i < 0 draw on its neighbours' surplus,
        along each edge as far as that edge's split allows.
        """
        V = len(self.u0)
        i, j, w, t, t0 = self.i, self.j, self.w, self.table, self.t0
        d10 = w * (t[alpha][self.lj] - t0)        # only i moves
        d01 = w * (t[:, alpha][self.li] - t0)     # only j moves
        d11 = w * (t[alpha, alpha] - t0)          # both move
        half = 0.5 * d11
        ai = np.minimum(d10, np.maximum(half, d11 - d01))
        aj = np.minimum(d01, np.maximum(half, d11 - d10))
        d = self.unaries[:, alpha] - self.u0
        for _ in range(_TRANSFER_ROUNDS):
            m = d + np.bincount(i, ai, V) + np.bincount(j, aj, V)
            if m.min() >= 0:
                return True
            surplus = np.maximum(m, 0.0)
            need = m < 0
            to_i = np.minimum(d10 - ai, surplus[j]) * need[i]
            to_j = np.minimum(d01 - aj, surplus[i]) * need[j]
            asked = np.bincount(j, to_i, V) + np.bincount(i, to_j, V)
            share = np.minimum(1.0, _TRANSFER_KEEP * surplus / np.where(asked > 0, asked, 1.0))
            to_i *= share[j]
            to_j *= share[i]
            ai = ai + to_i - to_j
            aj = aj + to_j - to_i
        m = d + np.bincount(i, ai, V) + np.bincount(j, aj, V)
        return m.min() >= 0


def _neighbor_table(instance):
    """Each node's neighbours and edge weights in edge order, as padded
    (n_nodes, max degree) tables, and the mask of their real entries."""
    V = instance.n_nodes
    ends = instance.edges.ravel()             # edge k: i at 2k, j at 2k + 1
    order = np.argsort(ends, kind="stable")
    deg = np.bincount(ends, minlength=V)
    rank = np.arange(len(ends)) - np.repeat(np.cumsum(deg) - deg, deg)
    pos = np.full((V, max(int(deg.max()), 1)), len(ends))
    pos[ends[order], rank] = order
    nbrs = np.append(instance.edges[:, ::-1].ravel(), 0)[pos]
    weights = np.append(np.repeat(instance.edge_weights, 2), 0.0)[pos]
    return nbrs, weights, pos < len(ends)


def _icm_costs(instance, nodes, labeling, neighbors):
    """(len(nodes), |L|) cost of every label at `nodes`, the others fixed;
    neighbour terms are added in edge order."""
    nbrs, weights, real = neighbors
    costs = instance.unaries[nodes]
    for k in range(nbrs.shape[1]):
        sel = real[nodes, k]
        at = nodes[sel]
        costs[sel] += weights[at, k, None] * instance.pairwise_table[:, labeling[nbrs[at, k]]].T
    return costs


def _icm_pass(instance, labeling, neighbors):
    """One exact single-node sweep in node order; returns the number of
    changed nodes.

    Each node's best label is evaluated for all nodes at once; after a node
    changes, only its later neighbours are evaluated again, which is what a
    node-by-node sweep would see when it reaches them.
    """
    nbrs, _, real = neighbors
    best = np.argmin(_icm_costs(instance, np.arange(instance.n_nodes), labeling, neighbors),
                     axis=1)
    changed = 0
    node = 0
    while True:
        diff = np.flatnonzero(best[node:] != labeling[node:])
        if not len(diff):
            return changed
        node += int(diff[0])
        labeling[node] = best[node]
        changed += 1
        later = nbrs[node][real[node] & (nbrs[node] > node)]
        best[later] = np.argmin(_icm_costs(instance, later, labeling, neighbors), axis=1)
        node += 1


def solve(instance):
    """Approximately minimize the MRF energy by expansion moves.

    Starts from the all-zero labeling, sweeps the label catalog until no
    expansion move improves the energy (at most 20 sweeps), then polishes
    with exact single-node descent. The result never exceeds the
    zero-labeling energy and is locally optimal under single-node changes;
    with zero pairwise weight it equals the per-node argmin exactly.

    A move is skipped without a cut when its outcome is already known: when
    the labeling has not changed since the label's last move (the same cut
    would be rejected again), or when a dual bound certifies that no move to
    the label can lower the energy (see `_ExpansionNetwork.certify`). Both
    skip only moves that would be rejected, so the result is the labeling
    a cut for every label would give.
    """
    V = instance.n_nodes
    L = instance.n_labels
    labeling = np.zeros(V, dtype=np.int64)
    if L == 1:
        return labeling
    if len(instance.edges) == 0 or np.all(instance.edge_weights == 0.0):
        return np.argmin(instance.unaries, axis=1).astype(np.int64)

    net = _ExpansionNetwork(instance)
    net.relabel(labeling)
    energy = instance.energy(labeling)
    version = 0                           # bumped on every accepted move
    tried = np.full(L, -1)                # labeling version at alpha's last move
    for _ in range(20):
        improved = False
        for alpha in range(L):
            if tried[alpha] == version:
                continue
            tried[alpha] = version
            if net.certify(alpha):
                continue
            move = net.cut(alpha)
            if not move.any():
                continue
            candidate = np.where(move, alpha, labeling)
            cand_energy = instance.energy(candidate)
            if cand_energy < energy:
                labeling = candidate
                energy = cand_energy
                improved = True
                version += 1
                net.relabel(labeling)
        if not improved:
            break

    neighbors = _neighbor_table(instance)
    for _ in range(50):
        if _icm_pass(instance, labeling, neighbors) == 0:
            break
    return labeling


# ---------------------------------------------------------------------------
# pyramidal registration
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    level: int
    step: int
    label_max_norm_mm: float
    energy_zero: float
    energy_accepted: float
    max_sparse_component_mm: float
    bound_mm: float
    runtime_s: float
    moved_nodes: int          # nodes with a nonzero label; not in to_text


@dataclass
class Diagnostics:
    steps: list = field(default_factory=list)

    def to_text(self):
        lines = ["level step max_label_norm_mm energy_before energy_after"]
        for r in self.steps:
            lines.append(
                f"{r.level} {r.step} {r.label_max_norm_mm:.6g} "
                f"{r.energy_zero:.9g} {r.energy_accepted:.9g}"
            )
        return "\n".join(lines) + "\n"


def register(src, tgt, src_mask, wmat, config=None):
    """Pyramidal multi-metric registration (coarse to fine).

    Per level: build the label catalog, then repeatedly (a) warp the source
    by the accumulated field, (b) build and solve the MRF, (c) compose the
    step field into the accumulated dense field, (d) shrink the labels.

    A step whose labeling is all zero moves no control point, so its step
    field is +0.0 everywhere. Composing it changes at most the sign of a
    zero in the accumulated field, which sampling and warping cannot see
    (a coordinate plus +-0.0 is the coordinate), so the next step of the
    level reuses the warped source and mask instead of computing them
    again. Every level warps at its first step.

    Returns:
        (DeformationField with the dense composed field, Diagnostics).
    """
    config = config or PyramidConfig()
    vol_pyr = {"src": build_pyramid(src, config.levels), "tgt": build_pyramid(tgt, config.levels)}
    mask_pyr = build_pyramid(src_mask, config.levels) if src_mask is not None else None

    dims = src.dims
    centers = np.stack(
        np.meshgrid(*src.voxel_centers_mm(), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    acc = np.zeros((len(centers), 3), dtype=np.float64)
    diag = Diagnostics()

    for level in range(config.levels - 1, -1, -1):
        s_lvl = vol_pyr["src"][level]
        t_lvl = vol_pyr["tgt"][level]
        m_lvl = mask_pyr[level] if mask_pyr is not None else None
        spacing = tuple(config.finest_spacing_mm * (2 ** level) for _ in range(3))
        grid = make_control_grid(s_lvl, spacing)
        ls = initialize_label_space(config, spacing)
        warped = None

        for step in range(config.steps_per_level):
            t0 = time.perf_counter()
            if warped is None:
                if level == 0:
                    lvl_disp = acc.reshape(dims + (3,))
                else:
                    acc_field = DeformationField(
                        dense=acc.reshape(dims + (3,)), spacing=src.spacing, origin=src.origin
                    )
                    lvl_pts = np.stack(
                        np.meshgrid(*s_lvl.voxel_centers_mm(), indexing="ij"), axis=-1
                    ).reshape(-1, 3)
                    lvl_disp = sample_field(acc_field, lvl_pts).reshape(s_lvl.dims + (3,))
                lvl_field = DeformationField(dense=lvl_disp, spacing=s_lvl.spacing,
                                             origin=s_lvl.origin)
                warped = warp(s_lvl, lvl_field)
                warped_mask = warp_mask(m_lvl, lvl_field) if m_lvl is not None else None

            inst = build_instance(warped, t_lvl, warped_mask, wmat, grid, ls)
            labeling = solve(inst)
            e_zero = inst.energy(np.zeros(inst.n_nodes, dtype=np.int64))
            e_acc = inst.energy(labeling)

            sparse = ls.displacements[labeling]
            bound = config.bound_factor * max(spacing)
            max_comp = float(np.abs(sparse).max()) if len(sparse) else 0.0

            step_disp = ffd_evaluate(grid, sparse, centers + acc)
            acc = acc + step_disp

            record = StepRecord(
                level=level, step=step,
                label_max_norm_mm=float(np.abs(ls.displacements).max()),
                energy_zero=e_zero, energy_accepted=e_acc,
                max_sparse_component_mm=max_comp, bound_mm=bound,
                runtime_s=time.perf_counter() - t0,
                moved_nodes=int(np.count_nonzero(labeling)),
            )
            diag.steps.append(record)
            if record.moved_nodes:
                warped = None
            ls = refine_label_space(ls, config.refine_factor)

    final = DeformationField(
        dense=acc.reshape(dims + (3,)), spacing=src.spacing, origin=src.origin
    )
    return final, diag
