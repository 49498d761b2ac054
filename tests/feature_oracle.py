"""Reference feature table: whole shape groups gathered at once, DWT per row.

This is the `feature_table` that `mmreg.metrics.feature_table` replaced. It
copies every source patch of one crop shape in a single gather, sums each
row's 2x2x2 blocks for its Haar band, and bins and takes logs on fresh
temporaries. The library gathers per node run, reads Haar bands from one
box-summed volume and shares per-row statistics; both must return the same
table bit for bit on float32 volumes.
"""

import numpy as np

from mmreg import metrics as me

from count_oracle import gather_blocks

_INV_SQRT8 = me._INV_SQRT8
N_METRICS = me.N_METRICS


def _metric_rows(A, b_flat, bins):
    rows = A.shape[0]
    shape = A.shape[1:]
    n_vox = int(np.prod(shape))
    a = A.reshape(rows, n_vox)
    out = np.empty((rows, N_METRICS), dtype=np.float64)

    # SAD
    d = a - b_flat
    np.abs(d, out=d)
    out[:, 0] = d.mean(axis=1)
    del d

    # MI from per-row joint histograms against the shared target binning
    ai = _bin_rows(a, bins)
    bi = _bin_rows(b_flat[None, :], bins)[0]
    ai *= bins
    ai += bi
    offsets = (np.arange(rows, dtype=np.int32) * (bins * bins))[:, None]
    ai += offsets
    joint = np.bincount(ai.ravel(), minlength=rows * bins * bins)
    joint = joint.reshape(rows, bins, bins).astype(np.float64)
    del ai
    joint /= n_vox
    pa = joint.sum(axis=2)
    pb = joint.sum(axis=1)
    out[:, 1] = np.log(bins) - (
        _entropy_rows(pa) + _entropy_rows(pb) - _entropy_rows(joint.reshape(rows, -1))
    )

    # NCC: cov(a, b) = E[a * (b - b_mean)] since the b-side is zero-mean
    b_mean = b_flat.mean()
    bm = b_flat - b_mean
    vb = float(np.mean(bm * bm))
    a_mean = a.mean(axis=1)
    va = np.einsum("ij,ij->i", a, a) / n_vox - a_mean * a_mean
    cov = np.einsum("ij,j->i", a, bm) / n_vox
    a_const = a.max(axis=1) == a.min(axis=1)
    # the shifted-moment form cancels badly for near-constant rows; redo those
    shaky = ~a_const & (va < 1e-12 * (a_mean * a_mean + 1.0))
    if np.any(shaky):
        am = a[shaky] - a_mean[shaky, None]
        va[shaky] = np.mean(am * am, axis=1)
        cov[shaky] = np.mean(am * bm, axis=1)
    degenerate = a_const | (vb == 0.0) | (va == 0.0)
    denom = np.sqrt(np.where(degenerate, 1.0, va * vb))
    r = np.where(degenerate, 0.0, cov / denom)
    out[:, 2] = 1.0 - r

    # DWT
    if min(shape) < 2:
        out[:, 3] = out[:, 0]
    else:
        ha = _haar_rows(A)
        hb = _haar_rows(b_flat.reshape(shape)[None])[0]
        out[:, 3] = np.mean(np.abs(ha - hb), axis=1)
    return out


def _bin_rows(x, bins):
    lo = x.min(axis=1, keepdims=True)
    hi = x.max(axis=1, keepdims=True)
    rng = hi - lo
    safe = np.where(rng == 0.0, 1.0, rng)
    idx = ((x - lo) / safe * bins).astype(np.int32)
    idx[rng[:, 0] == 0.0, :] = 0
    return np.minimum(idx, bins - 1, out=idx)


def _entropy_rows(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(p > 0, p * np.log(p), 0.0)
    return -term.sum(axis=1)


def _haar_rows(A):
    rows = A.shape[0]
    sx, sy, sz = (2 * (s // 2) for s in A.shape[1:])
    c = A[:, :sx, :sy, :sz].reshape(rows, sx // 2, 2, sy // 2, 2, sz // 2, 2)
    return (c.sum(axis=(2, 4, 6)) * _INV_SQRT8).reshape(rows, -1)


def feature_table_oracle(src, tgt, grid, label_space, scales=None):
    """The replaced `feature_table`, line for line."""
    radius = np.asarray(me.patch_radius(grid.spacing_mm, src.spacing), dtype=np.int64)
    dims = np.asarray(src.dims)
    V = grid.n_nodes
    L = label_space.n_labels
    c_src, in_src, c_tgt, in_tgt = me._center_table(src, grid, label_space)

    out = np.full((V, L, N_METRICS), me.EMPTY_COST, dtype=np.float64)
    valid = in_src & in_tgt[:, None]
    if not np.any(valid):
        return out

    vi, li = np.nonzero(valid)
    cs = c_src[vi, li]
    ct = c_tgt[vi]

    left = np.minimum(np.minimum(cs, ct), radius)
    right = np.minimum(np.minimum(dims - 1 - cs, dims - 1 - ct), radius)

    key = np.stack([vi, cs[:, 0], cs[:, 1], cs[:, 2]], axis=1)
    uniq, first_idx, inverse = np.unique(
        key, axis=0, return_index=True, return_inverse=True
    )
    u_cs = cs[first_idx]
    u_ct = ct[first_idx]
    u_left = left[first_idx]
    u_right = right[first_idx]
    u_vals = np.empty((len(first_idx), N_METRICS), dtype=np.float64)

    u_node = vi[first_idx]
    sig = np.concatenate([u_left, u_right], axis=1)
    order = np.lexsort([u_node] + list(sig.T[::-1]))
    sig_sorted = sig[order]
    boundaries = np.nonzero(np.any(np.diff(sig_sorted, axis=0) != 0, axis=1))[0] + 1
    groups = np.split(order, boundaries)

    src_data = src.data.astype(np.float64)
    tgt_data = tgt.data.astype(np.float64)
    for g in groups:
        gl = u_left[g[0]]
        gr = u_right[g[0]]
        shape = tuple(int(x) for x in (gl + gr + 1))
        A = gather_blocks(src_data, u_cs[g] - gl, shape)
        nodes_g = u_node[g]
        runs = np.nonzero(np.diff(nodes_g) != 0)[0] + 1
        starts = np.concatenate([[0], runs, [len(g)]])
        for k in range(len(starts) - 1):
            lo, hi = starts[k], starts[k + 1]
            corner = u_ct[g[lo]] - gl
            b = tgt_data[
                corner[0]:corner[0] + shape[0],
                corner[1]:corner[1] + shape[1],
                corner[2]:corner[2] + shape[2],
            ]
            u_vals[g[lo:hi]] = _metric_rows(A[lo:hi], b.reshape(-1), me.MI_BINS)

    out[vi, li] = u_vals[inverse] / np.asarray((1.0,) * N_METRICS if scales is None else scales)
    return out
