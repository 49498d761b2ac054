"""Discrete MRF energy construction and minimization over the control grid.

The registration energy couples per-node data costs (class-weighted metric
aggregations) with an L1 smoothness term between neighbouring control-point
displacements. Minimization uses move-making expansion steps, each solved
exactly as a min-cut; the L1 pairwise term is a metric, so every expansion
move is submodular.

Most expansion moves change nothing, so a move is skipped without a cut
when its outcome is known: each label has one status per labeling, safe
once its cut is rejected (the same inputs give the same cut) or once a dual
lower bound certifies that no move to it can lower the energy (each edge's
energy change is split between its endpoints, and every node's share plus
its unary change is non-negative). The split starts from halving each
edge's change. `MrfInstance` admits only tables with a zero diagonal and no
negative entry, like the L1 table, so an edge whose ends carry the same label
adds nothing: shares come only from the labeling's boundary edges. For the
labels where that leaves some node short, max-flows over batches of labels
look for a better split, on a small network per label: the short nodes and
their neighbours, read from the neighbour lists, and the edges between
them, read from the edge list. Each cut that remains builds its flow
network from the instance's arc lists, with that move's capacities.
"""

import math
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
    compose_ffd,
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

    unaries: finite (|V|, |L|) node costs.
    edge_weights: pairwise weight w_p >= 0, one value for every edge or one
        per edge (w_p varies by dominant class); stored as an (|E|,) array.
    pairwise_table: finite (|L|, |L|) L1 distances (mm) between displacement
        labels, with a zero diagonal and no negative entry.
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
        if u.ndim != 2:
            raise ValueError(f"unaries must be a (|V|, |L|) array, got shape {u.shape}")
        if not np.isfinite(u).all():
            raise ValueError("unaries must be finite: the weights scale the data costs, and "
                             "a weight too large overflows them")
        if w.shape != (len(e),):
            raise ValueError(f"edge_weights must be one value or one per edge, got shape "
                             f"{w.shape} for {len(e)} edges")
        # a negative weight would make expansion moves non-submodular
        if not (np.isfinite(w).all() and (w >= 0).all()):
            raise ValueError("edge_weights must be finite and >= 0")
        if (t.shape != (u.shape[1],) * 2 or not np.isfinite(t).all()
                or np.diag(t).any() or (t < 0).any()):
            raise ValueError(f"pairwise_table must be a finite ({u.shape[1]}, {u.shape[1]}) array "
                             f"with a zero diagonal and no negative entry, got shape {t.shape}")
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


def level_grid(vol, config, level):
    """Control grid over `vol` and first-step label catalog of pyramid level
    `level` (0 is the finest) of the schedule `config`."""
    spacing = (config.finest_spacing_mm * 2 ** level,) * 3
    return make_control_grid(vol, spacing), initialize_label_space(config, spacing)


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

    Features are divided by the weight matrix's normalization scales, and
    only the metrics with a nonzero weight in some column are computed: a
    skipped metric's feature is 0.0, which its zero weights turn into the
    same sums. With a single-column weight matrix the mask is optional and
    the lone column applies everywhere.
    """
    edges = grid.edges
    table = pairwise_l1_table(label_space)
    used = np.any(wmat.weights != 0, axis=1)

    if wmat.n_classes == 1:
        feats = me.feature_table(src, tgt, grid, label_space, wmat.scales, used)
        return MrfInstance(feats @ wmat.weights[:, 0], float(wmat.pairwise[0]), table, edges)

    if src_mask is None:
        raise ValueError("multi-class weight matrix requires a source mask")
    if src_mask.geometry() != src.geometry():
        raise ValueError("source mask is not aligned with the source volume")
    max_class = max(wmat.class_ids)
    # the class table first, so its temporaries and the feature table's
    # never coexist
    cls = me.dominant_class_table(src_mask, grid, label_space, max_class)   # (V, L)
    feats = me.feature_table(src, tgt, grid, label_space, wmat.scales, used)
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

# bound on the sum of all capacities of one batched regional network, so that
# no capacity, node total or flow that scipy forms in int32 can overflow
_FLOW_SUM_MAX = (1 << 31) - 2

# region nodes of one batched regional network, give or take one label's
# region: each node costs about 0.5 kB of certificate working memory
_FLOW_BATCH_NODES = 1 << 14


class _ExpansionNetwork:
    """The flow network of one MRF instance, built once per solve.

    Its arcs are listed once, as tails and heads: the edges i->j, then the
    terminal arcs s->i and i->t of every node. Each expansion move builds a
    CSR network from these lists and its own capacities, as `_certify_flow`
    does. The network also checks the dual bound that lets a move be skipped
    without a cut, and holds the neighbour lists that the ICM polish reads
    and that bound takes its regions' nodes from; a region's edges come
    from the edge list.
    """

    def __init__(self, instance):
        V = instance.n_nodes
        self.unaries = instance.unaries
        self.table = instance.pairwise_table
        self.i = instance.edges[:, 0]
        self.j = instance.edges[:, 1]
        self.w = instance.edge_weights
        self.neighbors = _neighbor_table(instance)
        nodes = np.arange(V)
        self.tails = np.concatenate([self.i, np.full(V, V), nodes])
        self.heads = np.concatenate([self.j, nodes, np.full(V, V + 1)])

    def relabel(self, labeling):
        """Set the labeling that the following moves start from."""
        self.li = labeling[self.i]
        self.lj = labeling[self.j]
        self.t0 = self.table[self.li, self.lj]
        self.u0 = self.unaries[np.arange(len(labeling)), labeling]
        # the edges whose shares can be nonzero (see the module docstring)
        self.boundary = np.flatnonzero(self.li != self.lj)

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

        graph = csr_matrix((ivals.astype(np.int32), (self.tails, self.heads)),
                           shape=(V + 2, V + 2))
        # the flow is antisymmetric, so graph - flow holds the residual
        # capacity of every arc and of its reverse; breadth_first_order
        # follows stored zeros too, so none may stay. The moved nodes are
        # those not reachable from s through arcs with residual capacity:
        # the source side of the minimal min-cut, which is the same for
        # every maximum flow
        residual = graph - maximum_flow(graph, V, V + 1).flow
        residual.eliminate_zeros()
        reach = breadth_first_order(residual, V, directed=True, return_predecessors=False)
        moved = np.ones(V + 2, dtype=bool)
        moved[reach] = False
        return moved[:V]

    def certify(self, alphas):
        """True for each label of `alphas` (distinct labels) for which no
        expansion move to it can lower the energy, shown without a cut.

        Each edge's energy change is split between its endpoints, a_i to i
        and a_j to j, within the edge's bounds: a_i <= d10 (only i moves),
        a_j <= d01 (only j moves) and a_i + a_j = d11 (both move). Then, for
        every move set S, the change is at least the sum over S of the node
        margins m_i (unary change plus edge shares); when all m_i >= 0 no
        move improves. `_margins` gives each label its margins from the
        half split of the boundary edges alone, the only edges with nonzero
        shares, so at the all-zero labeling a margin is the unary change.
        One `_inside` call builds the regions of all labels with a negative
        margin; they share `_certify_flow` calls, in order and in batches of
        about _FLOW_BATCH_NODES region nodes, and a label's answer does not
        depend on its batch.
        """
        alphas = np.asarray(alphas, dtype=np.int64)
        m = self._margins(alphas)
        safe = m.min(axis=1) >= 0
        if not safe.all():
            open_ = np.flatnonzero(~safe)
            inside = self._inside(m[open_])
            # a batch's regions hold fewer than _FLOW_BATCH_NODES nodes plus
            # its first label's
            nodes = np.cumsum(inside.sum(axis=1))
            cuts = np.flatnonzero(np.diff(nodes // _FLOW_BATCH_NODES)) + 1
            for batch, regions in zip(np.split(open_, cuts), np.split(inside, cuts)):
                safe[batch] = self._certify_flow(m[batch], alphas[batch], regions)
        return safe

    def _shares(self, alphas, e):
        """The split of `certify` that halves d11 and keeps each share within
        its bound, on the edges `e` for the labels `alphas` (broadcast
        together). Returns the shares a_i, a_j and the bounds d10, d01."""
        w, t0 = self.w[e], self.t0[e]
        d10 = w * (self.table[alphas, self.lj[e]] - t0)          # only i moves
        d01 = w * (self.table[self.li[e], alphas] - t0)          # only j moves
        d11 = w * (self.table[alphas, alphas] - t0)              # both move
        half = 0.5 * d11
        return (np.minimum(d10, np.maximum(half, d11 - d01)),
                np.minimum(d01, np.maximum(half, d11 - d10)), d10, d01)

    def _margins(self, alphas):
        """(len(alphas), |V|) margins: each node's unary change plus its
        shares of the boundary edges, summed in edge order (the i ends, then
        the j ends)."""
        n, V = len(alphas), len(self.u0)
        b = self.boundary
        ai, aj, _, _ = self._shares(alphas[:, None], b)
        # row r's nodes are bins r*V .. r*V + V-1 of one flat bincount
        row = V * np.arange(n)[:, None]
        return (self.unaries[:, alphas].T - self.u0
                + np.bincount((self.i[b] + row).ravel(), ai.ravel(), n * V).reshape(n, V)
                + np.bincount((self.j[b] + row).ravel(), aj.ravel(), n * V).reshape(n, V))

    def _inside(self, m):
        """(n, |V|) mask of the region of each row of the margins m: its
        deficit nodes (m_i < 0) and their neighbours, read from the
        neighbour lists."""
        n, V = m.shape
        nbrs, _, real = self.neighbors
        inside = (m < 0).ravel()
        dc, dv = np.divmod(np.flatnonzero(inside), V)
        inside[(dc[:, None] * V + nbrs[dv])[real[dv]]] = True
        return inside.reshape(n, V)

    def _region(self, alphas, inside):
        """The edges with both ends in the region of each row r of `inside`
        (from `_inside`) of the labels `alphas`, as rows and edge indices in
        row-major order, and their slacks d10 - a_i and d01 - a_j: how much
        more of each edge's change its i or j end can still take."""
        ec, ee = np.nonzero(inside[:, self.i] & inside[:, self.j])
        ai, aj, d10, d01 = self._shares(alphas[ec], ee)
        return ec, ee, d10 - ai, d01 - aj

    def _certify_flow(self, m, alphas, inside):
        """(n,) booleans for the (n, |V|) margins of n distinct labels
        `alphas`, whose regions are the rows of `inside`: True where one
        maximum_flow call finds another split with all margins >= 0.

        Each label gets its own copy of its region, with arcs j->i of
        capacity d10 - a_i and i->j of capacity d01 - a_j on the edges
        inside that region, s->i of capacity m_i where m_i > 0 and i->t of
        capacity -m_i where m_i < 0; all copies share s and t. A flow that
        fills a copy's t-arcs, added to the split, is such a split.
        Capacities are rounded so the rounded network never allows more than
        the real one (s- and edge arcs down, t-arcs up), and each copy is
        scaled on its own so its capacities sum to at most
        _FLOW_SUM_MAX // |L|: a label's answer does not depend on the batch.
        """
        n, V = m.shape
        ec, ee, up_i, up_j = self._region(alphas, inside)
        rc, rv = np.divmod(np.flatnonzero(inside), V)
        deficit = m < 0
        total = -np.where(deficit, m, 0.0).sum(axis=1)

        # arcs j->i and i->j of the edges inside each region, s->i, i->t.
        # An acyclic maximum flow carries at most the total deficit on any
        # arc, so capping every arc at twice that (an arc that must carry
        # all of it still can after rounding down) keeps large surpluses and
        # slacks from taking the resolution
        surplus = np.flatnonzero(m[rc, rv] > 0)
        sc, sv = rc[surplus], rv[surplus]
        dc, dv = np.nonzero(deficit)
        copy = np.concatenate([ec, ec, sc, dc])
        caps = np.concatenate([up_i, up_j, m[sc, sv], -m[dc, dv]])
        caps = np.minimum(np.maximum(caps, 0.0), 2.0 * total[copy])
        # t-arcs round up, by less than one unit each
        room = _FLOW_SUM_MAX // self.unaries.shape[1] - np.bincount(dc, minlength=n)
        scale = room / np.maximum(np.bincount(copy, caps, n), 1e-300 * room)
        caps *= scale[copy]
        n_up = len(caps) - len(dc)
        caps[:n_up] = np.floor(caps[:n_up])
        caps[n_up:] = np.ceil(caps[n_up:])
        t_caps = caps[n_up:]

        # nodes: the region of copy 0, of copy 1, ..., then s and t
        s = len(rc)
        t = s + 1
        node = np.cumsum(inside) - 1
        at_i = node[ec * V + self.i[ee]]
        at_j = node[ec * V + self.j[ee]]
        at_d = node[dc * V + dv]
        tails = np.concatenate([at_j, at_i, np.full(len(sc), s), at_d])
        heads = np.concatenate([at_i, at_j, surplus, np.full(len(dc), t)])
        graph = csr_matrix((caps.astype(np.int32), (tails, heads)), shape=(t + 1, t + 1))
        flow = maximum_flow(graph, s, t).flow
        # the flow is antisymmetric: row t holds minus each node's flow into t
        into_t = slice(flow.indptr[t], flow.indptr[t + 1])
        got = np.bincount(rc[flow.indices[into_t]], -flow.data[into_t].astype(np.float64), n)
        # a deficit rounded to nothing would go unchecked
        return (got == np.bincount(dc, t_caps, n)) & (np.bincount(dc, t_caps < 1, n) == 0)


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


def _icm_costs(instance, nodes, labeling, neighbors, table_t):
    """(len(nodes), |L|) cost of every label at `nodes`, the others fixed;
    neighbour terms are added in edge order. `table_t` is the pairwise table
    transposed and contiguous, so a neighbour's term is one row of it. A
    padding slot adds its zero weight times a finite entry, +-0.0, which
    leaves every sum and the argmin as they are."""
    nbrs, weights, _ = neighbors
    costs = instance.unaries[nodes]
    rows = np.empty_like(costs)
    for k in range(nbrs.shape[1]):
        np.take(table_t, labeling[nbrs[nodes, k]], axis=0, out=rows)
        rows *= weights[nodes, k, None]
        costs += rows
    return costs


def _icm_pass(instance, labeling, neighbors):
    """One exact single-node sweep in node order; returns the number of
    changed nodes.

    Each node's best label is evaluated for all nodes at once; after a node
    changes, only its later neighbours are evaluated again, which is what a
    node-by-node sweep would see when it reaches them.
    """
    nbrs, _, real = neighbors
    table_t = np.ascontiguousarray(instance.pairwise_table.T)
    best = np.argmin(_icm_costs(instance, np.arange(instance.n_nodes), labeling, neighbors,
                                table_t), axis=1)
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
        best[later] = np.argmin(_icm_costs(instance, later, labeling, neighbors, table_t),
                                axis=1)
        node += 1


def solve(instance):
    """Approximately minimize the MRF energy by expansion moves.

    Starts from the all-zero labeling, sweeps the label catalog until no
    expansion move improves the energy (at most 20 sweeps), then polishes
    with exact single-node descent. The result never exceeds the
    zero-labeling energy and is locally optimal under single-node changes;
    with zero pairwise weight it equals the per-node argmin exactly.

    A move is skipped without a cut when its outcome is known. Each label
    has at most one status per labeling, and two checks read it: a label
    without a status certifies itself and every later label without one
    in one batch (`_ExpansionNetwork.certify`: the half split of the
    boundary edges per label, then regional max-flows, in batches, for
    those it leaves open); a safe label is skipped. Any other label gets
    the full cut and is then safe, since the same cut would be rejected
    again. An accepted move clears every status, and the sweeps stop once
    every label has one, which is a sweep that accepted no move. Every
    skip is of a move that would be rejected, so the result is the
    labeling a cut for every label would give.
    """
    V = instance.n_nodes
    L = instance.n_labels
    labeling = np.zeros(V, dtype=np.int64)
    if np.all(instance.edge_weights == 0.0):
        return np.argmin(instance.unaries, axis=1).astype(np.int64)

    net = _ExpansionNetwork(instance)
    net.relabel(labeling)
    energy = instance.energy(labeling)
    known = np.zeros(L, dtype=bool)       # alpha has a status at this labeling
    safe = np.zeros(L, dtype=bool)        # no move to alpha can lower the energy
    for _ in range(20):
        for alpha in range(L):
            if not known[alpha]:
                batch = alpha + np.flatnonzero(~known[alpha:])
                safe[batch] = net.certify(batch)
                known[batch] = True
            if safe[alpha]:
                continue
            safe[alpha] = True
            move = net.cut(alpha)
            if not move.any():
                continue
            candidate = np.where(move, alpha, labeling)
            cand_energy = instance.energy(candidate)
            if cand_energy < energy:
                labeling = candidate
                energy = cand_energy
                known[:] = False
                net.relabel(labeling)
        if known.all():
            break

    for _ in range(50):
        if _icm_pass(instance, labeling, net.neighbors) == 0:
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

    Per level: build the grid and label catalog (level_grid), then repeatedly
    (a) warp the source by the accumulated field, (b) build and solve the
    MRF, (c) compose the step field into the accumulated dense field, in
    place and one chunk of voxels at a time, (d) shrink the labels.

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
    # only a matrix of several columns reads the mask (build_instance)
    mask_pyr = (build_pyramid(src_mask, config.levels)
                if src_mask is not None and wmat.n_classes > 1 else None)

    acc = np.zeros((math.prod(src.dims), 3), dtype=np.float64)
    diag = Diagnostics()

    for level in range(config.levels - 1, -1, -1):
        s_lvl = vol_pyr["src"][level]
        t_lvl = vol_pyr["tgt"][level]
        m_lvl = mask_pyr[level] if mask_pyr is not None else None
        grid, ls = level_grid(s_lvl, config, level)
        warped = None

        for step in range(config.steps_per_level):
            if warped is None:
                # acc_field, and lvl_field at the finest level, view acc, which
                # composition updates in place: each goes once it has been read
                lvl_field = acc_field = DeformationField(
                    acc.reshape(src.dims + (3,)), src.spacing, src.origin)
                if level > 0:
                    lvl_field = DeformationField(
                        sample_field(acc_field, s_lvl.voxel_points_mm()).reshape(
                            s_lvl.dims + (3,)), s_lvl.spacing, s_lvl.origin)
                del acc_field
                warped = warp(s_lvl, lvl_field)
                warped_mask = warp_mask(m_lvl, lvl_field) if m_lvl is not None else None
                del lvl_field

            inst = build_instance(warped, t_lvl, warped_mask, wmat, grid, ls)
            labeling = solve(inst)
            e_zero = inst.energy(np.zeros(inst.n_nodes, dtype=np.int64))
            e_acc = inst.energy(labeling)
            del inst                      # not alive while the next one is built

            sparse = ls.displacements[labeling]
            bound = config.bound_factor * max(grid.spacing_mm)
            max_comp = float(np.abs(sparse).max()) if len(sparse) else 0.0

            compose_ffd(acc, grid, sparse, src)

            record = StepRecord(
                level=level, step=step,
                label_max_norm_mm=float(np.abs(ls.displacements).max()),
                energy_zero=e_zero, energy_accepted=e_acc,
                max_sparse_component_mm=max_comp, bound_mm=bound,
                moved_nodes=int(np.count_nonzero(labeling)),
            )
            diag.steps.append(record)
            if record.moved_nodes:
                warped = None
            ls = refine_label_space(ls, config.refine_factor)

    return DeformationField(acc.reshape(src.dims + (3,)), src.spacing, src.origin), diag
