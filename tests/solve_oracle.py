"""Reference MRF solvers: exact enumeration, and a min-cut for every label of
every sweep.

`solve_bruteforce` enumerates every labeling of a small instance, so tests
can bound the energy `mmreg.graphreg.solve` reaches. `solve_oracle` is the
solver `mmreg.graphreg.solve` replaced. It builds a fresh sparse graph per
cut and reads the cut from `graph - flow`; the library's solver skips moves
it can prove useless and reuses one flow network per instance. Both must
return the same labeling bit for bit, and the same move mask for every cut
the library does make.

`half_split` and `region` are the skip certificate's dense first stage over
every (label, edge) and (label, node) entry. The library replaced the
margins by sums over the labeling's boundary edges and the region nodes by
reads of neighbour lists; it reads region edges from the edge list as
`region` does. Both must agree bit for bit.
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


def half_split(net, alphas):
    """The split of `certify` that halves d11 and keeps each share within
    its bound, on every edge, for the labels `alphas` of the network `net`
    at its current labeling, one row per label. Returns the margins m
    (k, |V|) and the edge slacks d10 - a_i and d01 - a_j (k, |E|)."""
    alphas = np.asarray(alphas)
    n, V = len(alphas), len(net.u0)
    i, j, w, t0 = net.i, net.j, net.w, net.t0
    d10 = w * (net.table[alphas][:, net.lj] - t0)            # only i moves
    d01 = w * (net.table.T[alphas][:, net.li] - t0)          # only j moves
    d11 = w * (net.table[alphas, alphas][:, None] - t0)      # both move
    half = 0.5 * d11
    ai = np.minimum(d10, np.maximum(half, d11 - d01))
    aj = np.minimum(d01, np.maximum(half, d11 - d10))
    # row r's nodes are bins r*V .. r*V + V-1 of one flat bincount
    row = V * np.arange(n)[:, None]
    m = (net.unaries[:, alphas].T - net.u0
         + np.bincount((i + row).ravel(), ai.ravel(), n * V).reshape(n, V)
         + np.bincount((j + row).ravel(), aj.ravel(), n * V).reshape(n, V))
    return m, d10 - ai, d01 - aj


def region(net, m):
    """(k, |V|) mask of each row's deficit nodes (m < 0) and their
    neighbours, and the (rows, edges) with both ends in a row's region."""
    i, j = net.i, net.j
    deficit = m < 0
    mask = deficit.copy()
    near, e = np.nonzero(deficit[:, i] | deficit[:, j])
    mask[near, i[e]] = True
    mask[near, j[e]] = True
    return mask, np.nonzero(mask[:, i] & mask[:, j])


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
    ew = instance.edge_weights
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
    edge_w = instance.edge_weights
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


def solve_bruteforce(instance, limit=10_000_000):
    """Exact minimum by enumeration; ties break to the lexicographically
    smallest labeling (node 0 most significant)."""
    V = instance.n_nodes
    L = instance.n_labels
    total = L ** V
    if total > limit:
        raise ValueError(f"{L}^{V} labelings exceed the enumeration limit {limit}")
    ew = instance.edge_weights
    edges = instance.edges
    best_energy = np.inf
    best_index = -1
    chunk = 1 << 18
    powers = L ** (V - 1 - np.arange(V, dtype=np.int64))
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % L       # (chunk, V)
        e = instance.unaries[np.arange(V)[None, :], digits].sum(axis=1)
        if len(edges):
            li = digits[:, edges[:, 0]]
            lj = digits[:, edges[:, 1]]
            e += (ew[None, :] * instance.pairwise_table[li, lj]).sum(axis=1)
        k = int(np.argmin(e))
        if e[k] < best_energy:
            best_energy = float(e[k])
            best_index = int(idx[k])
    digits = (best_index // powers) % L
    return digits.astype(np.int64)
