"""Reference expansion-move solver: a min-cut for every label of every sweep.

This is the solver `mmreg.graphreg.solve` replaced. It builds a fresh sparse
graph per cut and reads the cut from `graph - flow`; the library's solver
skips moves it can prove useless and reuses one flow network per instance.
Both must return the same labeling bit for bit, and the same move mask for
every cut the library does make.
"""

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from mmreg import graphreg as gr

_FLOW_CAP_MAX = gr._FLOW_CAP_MAX


def _expansion_cut(instance, labeling, alpha, edge_w):
    """Optimal alpha-expansion move via min-cut; returns the move mask."""
    V = instance.n_nodes
    table = instance.pairwise_table
    theta = instance.unaries[:, alpha] - instance.unaries[np.arange(V), labeling]

    cap_rows = []
    cap_cols = []
    cap_vals = []
    if len(instance.edges):
        i = instance.edges[:, 0]
        j = instance.edges[:, 1]
        li = labeling[i]
        lj = labeling[j]
        A = edge_w * table[li, lj]
        B = edge_w * table[li, alpha]
        C = edge_w * table[alpha, lj]
        # submodular pairwise split: delta_i = C - A, delta_j = -C, arc = B + C - A
        np.add.at(theta, i, C - A)
        np.add.at(theta, j, -C)
        beta = B + C - A
        keep = beta > 0
        cap_rows.append(i[keep])
        cap_cols.append(j[keep])
        cap_vals.append(beta[keep])

    s = V
    t = V + 1
    pos = theta > 0
    neg = theta < 0
    cap_rows.append(np.full(pos.sum(), s, dtype=np.int64))
    cap_cols.append(np.nonzero(pos)[0])
    cap_vals.append(theta[pos])
    cap_rows.append(np.nonzero(neg)[0])
    cap_cols.append(np.full(neg.sum(), t, dtype=np.int64))
    cap_vals.append(-theta[neg])

    rows = np.concatenate(cap_rows)
    cols = np.concatenate(cap_cols)
    vals = np.concatenate(cap_vals)
    if len(vals) == 0:
        return np.zeros(V, dtype=bool)

    scale = float(_FLOW_CAP_MAX) / max(vals.max(), 1e-300)
    ivals = np.floor(vals * scale).astype(np.int64)
    keep = ivals > 0
    rows, cols, ivals = rows[keep], cols[keep], ivals[keep]
    if len(ivals) == 0:
        return np.zeros(V, dtype=bool)

    n = V + 2
    graph = csr_matrix(
        coo_matrix((ivals, (rows, cols)), shape=(n, n), dtype=np.int64)
    )
    res = maximum_flow(graph, s, t)
    residual = graph - res.flow
    residual = residual.tocoo()
    mask = residual.data > 0
    adj = csr_matrix(
        (np.ones(mask.sum(), dtype=np.int8), (residual.row[mask], residual.col[mask])),
        shape=(n, n),
    )
    reach = breadth_first_order(adj, s, directed=True, return_predecessors=False)
    reachable = np.zeros(n, dtype=bool)
    reachable[reach] = True
    return ~reachable[:V]


def _icm_pass(instance, labeling, neighbor_lists):
    """One exact single-node sweep; returns number of changed nodes."""
    changed = 0
    for i in range(instance.n_nodes):
        nbrs, ws = neighbor_lists[i]
        costs = instance.unaries[i].copy()
        for j, w in zip(nbrs, ws):
            costs += w * instance.pairwise_table[:, labeling[j]]
        best = int(np.argmin(costs))
        if best != labeling[i]:
            labeling[i] = best
            changed += 1
    return changed


def _neighbor_lists(instance):
    out = [([], []) for _ in range(instance.n_nodes)]
    ew = instance.edge_weight_array()
    for k, (i, j) in enumerate(instance.edges):
        out[i][0].append(j)
        out[i][1].append(ew[k])
        out[j][0].append(i)
        out[j][1].append(ew[k])
    return out


def solve_oracle(instance, max_sweeps=20):
    """Approximately minimize the MRF energy by expansion moves.

    Starts from the all-zero labeling, sweeps the label catalog until no
    expansion move improves the energy, then polishes with exact
    single-node descent. The result never exceeds the zero-labeling energy
    and is locally optimal under single-node changes; with zero pairwise
    weight it equals the per-node argmin exactly.
    """
    V = instance.n_nodes
    L = instance.n_labels
    labeling = np.zeros(V, dtype=np.int64)
    if L == 1:
        return labeling
    edge_w = instance.edge_weight_array()
    if len(instance.edges) == 0 or np.all(edge_w == 0.0):
        return np.argmin(instance.unaries, axis=1).astype(np.int64)

    energy = instance.energy(labeling)
    for _ in range(max_sweeps):
        improved = False
        for alpha in range(L):
            move = _expansion_cut(instance, labeling, alpha, edge_w)
            if not move.any():
                continue
            candidate = np.where(move, alpha, labeling)
            cand_energy = instance.energy(candidate)
            if cand_energy < energy:
                labeling = candidate
                energy = cand_energy
                improved = True
        if not improved:
            break

    nbrs = _neighbor_lists(instance)
    for _ in range(50):
        if _icm_pass(instance, labeling, nbrs) == 0:
            break
    return labeling

