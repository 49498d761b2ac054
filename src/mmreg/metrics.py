"""Similarity-metric feature tables, dominant classes and per-class weights.

All metrics follow a dissimilarity convention: lower is a better match.
Similarities (correlation, mutual information) are converted accordingly.
The registry order SAD, MI, NCC, DWT fixes the coordinate layout of every
feature and weight vector in the package.
"""

from dataclasses import dataclass

import numpy as np

from .volume import FormatError, LabelSpace, header_settings, make_control_grid, split_setting

METRIC_NAMES = ("SAD", "MI", "NCC", "DWT")
N_METRICS = len(METRIC_NAMES)

_INV_SQRT8 = 1.0 / (2.0 * np.sqrt(2.0))

# joint-histogram bins per axis for mutual information
MI_BINS = 16
# a power of two, so dividing a row's range by it is exact and _bin_rows
# divides once: t / (range / bins) == (t / range) * bins bit for bit
assert MI_BINS & (MI_BINS - 1) == 0, "MI_BINS must be a power of two"
# dissimilarity of every metric when either patch is empty; a sentinel that
# normalization scales leave as it is
EMPTY_COST = 1e3


def patch_radius(grid_spacing_mm, voxel_spacing_mm):
    """Per-axis patch half-width in voxels: half the control spacing,
    so patches of adjacent control points tile the volume."""
    g = np.asarray(grid_spacing_mm, dtype=np.float64)
    v = np.asarray(voxel_spacing_mm, dtype=np.float64)
    return tuple(int(r) for r in np.rint(0.5 * g / v))


# ---------------------------------------------------------------------------
# weight matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightMatrix:
    """Per-class metric weights: column w_c per class plus pairwise weight w_p.

    class_ids lists the classes covered by the columns, in strictly
    ascending order; id 0 is the designated background column, which a
    matrix of more than one column must have. metric_names must be
    METRIC_NAMES: every consumer reads the weight rows in that order.
    """
    weights: np.ndarray            # (n_metrics, n_classes)
    pairwise: np.ndarray           # (n_classes,)
    class_ids: tuple
    metric_names: tuple = METRIC_NAMES
    scales: tuple = None           # normalization divisors recorded with the model

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        p = np.ascontiguousarray(self.pairwise, dtype=np.float64)
        ids = tuple(int(c) for c in self.class_ids)
        if tuple(self.metric_names) != METRIC_NAMES:
            raise ValueError(f"metric_names must be {METRIC_NAMES}, "
                             f"got {tuple(self.metric_names)}")
        if w.ndim != 2 or w.shape[0] != N_METRICS:
            raise ValueError(f"weights must be (n_metrics, n_classes), got {w.shape}")
        if w.shape[1] != len(ids) or p.shape != (len(ids),):
            raise ValueError("class count mismatch between weights, pairwise and class_ids")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError(f"class_ids must be strictly ascending, got {ids}")
        if len(ids) > 1 and 0 not in ids:
            # classes without a column of their own fall back to column 0
            raise ValueError(f"a multi-class weight matrix must cover class 0, got {ids}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(p))) or np.any(p < 0):
            raise ValueError(f"weights must be finite and pairwise weights >= 0, "
                             f"got {w.tolist()} and {p.tolist()}")
        w.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "pairwise", p)
        object.__setattr__(self, "class_ids", ids)
        object.__setattr__(self, "metric_names", tuple(self.metric_names))
        if self.scales is not None:
            scales = tuple(float(s) for s in self.scales)
            if len(scales) != w.shape[0] or not all(np.isfinite(s) and s > 0 for s in scales):
                raise ValueError(f"scales must be {w.shape[0]} finite values > 0, got {scales}")
            object.__setattr__(self, "scales", scales)

    @property
    def n_classes(self):
        return self.weights.shape[1]

    def column_index(self, class_id):
        try:
            return self.class_ids.index(int(class_id))
        except ValueError:
            raise ValueError(f"class {class_id} not covered by this weight matrix") from None


def single_metric_weights(name, magnitude, pairwise, scales=None):
    """One-hot weight matrix for a single-metric baseline (one class column)."""
    w = np.zeros((N_METRICS, 1))
    w[METRIC_NAMES.index(name), 0] = magnitude
    return WeightMatrix(w, np.array([pairwise]), (0,), METRIC_NAMES, scales)


def write_weights(path, wmat, meta=None):
    """Write a weight matrix: header line, one line per class, then optional
    '#'-prefixed metadata lines. Floats use repr for bit-exact round-trips."""
    parts = [
        "metrics=" + ",".join(wmat.metric_names),
        "classes=" + ",".join(str(c) for c in wmat.class_ids),
    ]
    if wmat.scales is not None:
        parts.append("scales=" + ",".join(repr(s) for s in wmat.scales))
    lines = [" ".join(parts)]
    for j in range(wmat.n_classes):
        row = [repr(float(v)) for v in wmat.weights[:, j]]
        row.append(repr(float(wmat.pairwise[j])))
        lines.append(" ".join(row))
    for k, v in (meta or {}).items():
        lines.append(f"# {k}={v}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_weights(path):
    """Read a weight matrix file; returns (WeightMatrix, meta dict).

    The header holds metrics=, classes= and an optional scales=, once each.
    Its metrics= may list SAD, MI, NCC and DWT in any order; weight rows and
    scales are permuted into METRIC_NAMES order.
    """
    try:
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read weights {path}: {e}") from e
    if not lines:
        raise FormatError(f"{path}: empty weights file")
    items = [(path, *split_setting(t, "=", path, FormatError)) for t in lines[0].split()]
    header = header_settings(path, items, ("metrics", "classes"), ("scales",))
    names = header["metrics"].split(",")
    if sorted(names) != sorted(METRIC_NAMES):
        raise FormatError(f"{path}: metrics= must name each of {','.join(METRIC_NAMES)} "
                          f"once, got {header['metrics']}")
    perm = [names.index(m) for m in METRIC_NAMES]
    rows = []
    meta = {}
    try:
        class_ids = tuple(int(c) for c in header["classes"].split(","))
        scales = None
        if "scales" in header:
            scales = [float(s) for s in header["scales"].split(",")]
            if len(scales) != N_METRICS:
                raise FormatError(f"{path}: expected {N_METRICS} scales, got {len(scales)}")
            scales = tuple(scales[i] for i in perm)
        for ln in lines[1:]:
            if ln.lstrip().startswith("#"):
                body = ln.lstrip()[1:]
                if "=" in body:
                    k, v = split_setting(body, "=", path, FormatError)
                    meta[k] = v
                continue
            vals = [float(t) for t in ln.split()]
            if len(vals) != N_METRICS + 1:
                raise FormatError(f"{path}: expected {N_METRICS + 1} values per class line, "
                                  f"got {len(vals)}")
            rows.append(vals)
        if len(rows) != len(class_ids):
            raise FormatError(f"{path}: {len(class_ids)} classes declared but "
                              f"{len(rows)} lines found")
        arr = np.asarray(rows, dtype=np.float64)
        wmat = WeightMatrix(arr[:, perm].T, arr[:, N_METRICS], class_ids, METRIC_NAMES, scales)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e
    return wmat, meta


# ---------------------------------------------------------------------------
# batch feature construction
# ---------------------------------------------------------------------------

def _center_table(vol_like, grid, label_space):
    """Nearest-voxel centers for every (node, label) source patch and every
    node target patch, plus inside-extent flags."""
    dims = np.asarray(vol_like.dims)
    spacing = np.asarray(vol_like.spacing, dtype=np.float64)
    origin = np.asarray(vol_like.origin, dtype=np.float64)
    pts = grid.points                                     # (V, 3)
    disp = label_space.displacements                      # (L, 3)
    # (V, L, 3) continuous voxel coordinates, ((p + d) - origin) / spacing in place
    t_src = pts[:, None, :] + disp[None, :, :]
    t_src -= origin
    t_src /= spacing
    t_tgt = (pts - origin) / spacing                      # (V, 3)
    in_src = np.all((t_src >= 0.0) & (t_src <= dims - 1), axis=2)
    in_tgt = np.all((t_tgt >= 0.0) & (t_tgt <= dims - 1), axis=1)
    c_src = np.rint(t_src, out=t_src).astype(np.int64)
    c_tgt = np.rint(t_tgt).astype(np.int64)
    return c_src, in_src, c_tgt, in_tgt


def _metric_rows(a, b, ha, hb, used):
    """The metrics in `used` of many source patches against one target patch.

    a: (rows, n_vox) float64 source patches; b: (n_vox,) float64 target patch.
    ha: (rows, n_h) Haar approximation bands of the source patches and hb:
    (n_h,) the target's, both read from box-summed volumes (see feature_table);
    None when a patch side is < 2, and DWT then equals SAD.
    used: (n_metrics,) bool mask of the metrics to compute; a skipped
    metric's column holds 0.0. `a` and `b` may be None when DWT is the only
    metric used and the Haar bands are given.
    Uses algebraically fused forms of the scalar kernels in
    tests/metric_oracle.py (identical math, reduction order may differ at
    the last few ulps).
    """
    use_sad, use_mi, use_ncc, use_dwt = (bool(u) for u in used)
    rows = len(ha if a is None else a)
    out = np.zeros((rows, N_METRICS), dtype=np.float64)

    if use_sad or (use_dwt and ha is None):
        d = a - b
        np.abs(d, out=d)
        sad = d.mean(axis=1)
        del d
        if use_sad:
            out[:, 0] = sad

    a_const = None
    if use_mi:
        # per-row joint histograms against the shared target binning
        n_vox = a.shape[1]
        ai, a_const = _bin_rows(a)
        bi, _ = _bin_rows(b[None, :])
        ai *= MI_BINS
        ai += bi
        ai += (np.arange(rows, dtype=np.int32) * (MI_BINS * MI_BINS))[:, None]
        joint = np.bincount(ai.ravel(), minlength=rows * MI_BINS * MI_BINS)
        joint = joint.reshape(rows, MI_BINS, MI_BINS).astype(np.float64)
        del ai
        joint /= n_vox
        pa = joint.sum(axis=2)
        pb = joint.sum(axis=1)
        out[:, 1] = np.log(MI_BINS) - (
            _entropy_rows(pa) + _entropy_rows(pb) - _entropy_rows(joint.reshape(rows, -1))
        )

    if use_ncc:
        # cov(a, b) = E[a * (b - b_mean)] since the b-side is zero-mean
        n_vox = a.shape[1]
        if a_const is None:
            # the constant-row test of _bin_rows: a row's range is 0
            a_const = a.max(axis=1) == a.min(axis=1)
        b_mean = b.mean()
        bm = b - b_mean
        vb = float(np.mean(bm * bm))
        a_mean = a.mean(axis=1)
        va = np.einsum("ij,ij->i", a, a) / n_vox - a_mean * a_mean
        cov = np.einsum("ij,j->i", a, bm) / n_vox
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

    if use_dwt:
        out[:, 3] = sad if ha is None else np.mean(np.abs(ha - hb), axis=1)
    return out


def _bin_rows(x):
    """MI_BINS histogram bin of every value against its row's [min, max],
    and the rows whose range is 0 (all their values land in bin 0)."""
    lo = x.min(axis=1, keepdims=True)
    rng = x.max(axis=1, keepdims=True) - lo
    const = rng[:, 0] == 0.0
    t = x - lo
    t /= np.where(const[:, None], 1.0, rng) / MI_BINS
    idx = t.astype(np.int32)
    return np.minimum(idx, MI_BINS - 1, out=idx), const


def _entropy_rows(p):
    term = np.zeros_like(p)
    np.log(p, out=term, where=p > 0)
    term *= p
    return -term.sum(axis=1)


def _box_sums(v):
    """Sums of every 2x2x2 voxel block, indexed by the block's low corner.

    The Haar approximation band of a patch with low corner c is this
    array's stride-2 slice at c, times 1/sqrt(8).
    """
    p = v[:, :, :-1] + v[:, :, 1:]
    return ((p[:-1, :-1] + p[:-1, 1:]) + p[1:, :-1]) + p[1:, 1:]


def _windows(v, shape, step=1):
    """Read-only strided view of the windows of `shape` in the C-contiguous
    3-D array `v` whose elements lie `step` apart, indexed by the window's
    low corner."""
    counts = tuple(n - (k - 1) * step for n, k in zip(v.shape, shape))
    return np.ndarray(counts + tuple(shape), v.dtype, memoryview(v).toreadonly(), 0,
                      v.strides + tuple(step * b for b in v.strides))


def _region(data, lo_corners, hi_corners, box):
    """The float64 copy of the part of the float32 volume `data` that spans
    every box [lo_corners[k], hi_corners[k]), its low corner, and its 2x2x2
    box sums when `box`."""
    lo = lo_corners.min(axis=0)
    hi = hi_corners.max(axis=0)
    v = data[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]].astype(np.float64)
    return lo, v, _box_sums(v) if box else None


def feature_table(src, tgt, grid, label_space, scales=None, metrics=None):
    """All unary feature vectors: (|V|, |L|, n_metrics).

    Entry (i, l) compares the source patch at the displaced control point
    p_i + d_l with the target patch at p_i, both cropped to their common
    shape, and divides each metric by its normalization scale (none when
    `scales` is None). The straight per-patch kernels in
    tests/metric_oracle.py define every value. Pairs whose source or target
    patch is empty get EMPTY_COST in every metric slot, unscaled.

    `metrics` is an (n_metrics,) bool mask of the metrics to compute, all
    of them when None. A skipped metric's column holds 0.0 in every
    non-empty pair; the computed columns equal those of the full table bit
    for bit. A registration passes the metrics its weight matrix weighs, so
    a zero weight costs no kernel.

    Rows are evaluated per node and crop shape, each run of source patches
    gathered against the node's one target patch. No full-volume float64
    copy exists: the runs of one z-slab of nodes read a float64 copy of
    only the region their patches cover, on each side, and DWT reads every
    patch's Haar band from the 2x2x2 box sums of that region. Volume data
    is float32, so the copy is exact and each 8-term block sum is exact in
    float64 (unless a block's nonzero magnitudes span more than about
    2^26); the band equals the per-patch block sum bit for bit. Working
    memory is one run's patches and one slab's regions on top of the
    (|V|, |L|) table, whatever the volume.
    """
    used = np.ones(N_METRICS, dtype=bool) if metrics is None else np.asarray(metrics, dtype=bool)
    radius = np.asarray(patch_radius(grid.spacing_mm, src.spacing), dtype=np.int64)
    dims = np.asarray(src.dims)
    V = grid.n_nodes
    L = label_space.n_labels
    c_src, in_src, c_tgt, in_tgt = _center_table(src, grid, label_space)
    vi, li = np.nonzero(in_src & in_tgt[:, None])
    if len(vi) == 0:
        return np.full((V, L, N_METRICS), EMPTY_COST, dtype=np.float64)

    # deduplicate identical evaluations (same node, same rounded source
    # center) on one flat key, ordered as the (node, x, y, z) rows it encodes
    key = vi * int(np.prod(dims)) + np.ravel_multi_index(c_src[vi, li].T, src.dims)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    u_node = vi[first]
    cs = c_src[u_node, li[first]]        # (U, 3) source centers
    ct = c_tgt[u_node]                   # (U, 3) target centers
    del key, first, c_src

    # common crop: patches intersected to equal shape around their centers
    left = np.minimum(np.minimum(cs, ct), radius)
    right = np.minimum(np.minimum(dims - 1 - cs, dims - 1 - ct), radius)
    sig = np.concatenate([left, right], axis=1)
    cs -= left                           # crop low corners
    del ct, left, right

    # rows by z-slab of nodes (node order is x-fastest), then by patch
    # shape, then by node: each slab's float64 regions are built once, and
    # each target patch is processed once per run of rows that share it
    slab = u_node // (grid.grid_dims[0] * grid.grid_dims[1])
    order = np.lexsort([u_node] + list(sig.T[::-1]) + [slab])

    u_vals = np.zeros((len(u_node), N_METRICS), dtype=np.float64)
    for rows in np.split(order, np.flatnonzero(np.diff(slab[order])) + 1):
        ext = sig[rows, :3] + sig[rows, 3:] + 1          # patch shapes
        t_low = c_tgt[u_node[rows]] - sig[rows, :3]     # target crop low corners
        s_lo, s_v, s_box = _region(src.data, cs[rows], cs[rows] + ext, used[3])
        t_lo, t_v, t_box = _region(tgt.data, t_low, t_low + ext, used[3])
        shapes = np.flatnonzero(np.any(np.diff(sig[rows], axis=0) != 0, axis=1)) + 1
        for g in np.split(np.arange(len(rows)), shapes):
            shape = tuple(int(x) for x in ext[g[0]])
            haar = used[3] and min(shape) >= 2
            # SAD, MI and NCC read the full-resolution patches, and so does
            # DWT where a side < 2 makes it fall back to SAD
            gather = used[:3].any() or (used[3] and not haar)
            if not (gather or haar):
                continue
            if gather:
                s_patch, t_patch = _windows(s_v, shape), _windows(t_v, shape)
            if haar:
                half = [n // 2 for n in shape]
                s_band, t_band = _windows(s_box, half, 2), _windows(t_box, half, 2)
            for run in np.split(g, np.flatnonzero(np.diff(u_node[rows[g]])) + 1):
                r = rows[run]
                c = tuple((cs[r] - s_lo).T)
                t = tuple(t_low[run[0]] - t_lo)
                a = s_patch[c].reshape(len(r), -1) if gather else None
                b = t_patch[t].reshape(-1) if gather else None
                ha = hb = None
                if haar:
                    ha = s_band[c].reshape(len(r), -1) * _INV_SQRT8
                    hb = t_band[t].reshape(-1) * _INV_SQRT8
                u_vals[r] = _metric_rows(a, b, ha, hb, used)

    if scales is not None:
        u_vals /= np.asarray(scales, dtype=np.float64)
    out = np.full((V, L, N_METRICS), EMPTY_COST, dtype=np.float64)
    out[vi, li] = u_vals[inverse]
    return out


def empty_feature_rows(features):
    """(|V|, |L|) mask of (node, label) pairs whose patches were empty."""
    return np.all(features == EMPTY_COST, axis=2)


def dominant_class_table(src_mask, grid, label_space, n_classes):
    """Dominant class for every (node, label): (|V|, |L|) int array.

    Background (0) marks empty or all-background patches; labels above
    n_classes count toward the top class, and ties go to the smaller id.

    Each class's voxel count in a patch window is read from the 8 corners
    of one integer summed-area table of the class indicator, with the
    window clipped to the volume (voxels outside it are background and add
    nothing). The counts are exact integers, so they equal counts over the
    gathered windows.
    """
    radius = np.asarray(patch_radius(grid.spacing_mm, src_mask.spacing), dtype=np.int64)
    c_src, in_src, _, _ = _center_table(src_mask, grid, label_space)
    vi, li = np.nonzero(in_src)
    dims = np.asarray(src_mask.dims)
    # dedupe centers by flat voxel index: a 1-D unique is much cheaper than axis=0
    flat, inverse = np.unique(np.ravel_multi_index(c_src[vi, li].T, src_mask.dims),
                              return_inverse=True)
    del c_src
    centers = np.unravel_index(flat, src_mask.dims)
    # window [lo, hi) per axis; the summed-area table has a zero plane at index 0
    # of each axis, so a count is the signed sum of the table at the 8 corners
    ends = ([np.minimum(centers[a] + radius[a] + 1, dims[a]) for a in range(3)],
            [np.maximum(centers[a] - radius[a], 0) for a in range(3)])
    sat_shape = tuple(int(n) + 1 for n in dims)
    corners = [(np.ravel_multi_index([ends[b][a] for a, b in enumerate(bits)], sat_shape),
                (-1) ** sum(bits)) for bits in np.ndindex(2, 2, 2)]
    sat = np.zeros(sat_shape, dtype=np.int64)
    inner = sat[1:, 1:, 1:]
    table = sat.reshape(-1)
    labels = src_mask.labels
    n_cols = max(n_classes, 1)
    fg = np.empty((len(flat), n_cols), dtype=np.int64)
    for j in range(n_cols):
        c = j + 1
        np.cumsum(labels == c if c < n_classes else labels >= n_classes, axis=0, out=inner)
        np.cumsum(inner, axis=1, out=inner)
        np.cumsum(inner, axis=2, out=inner)
        fg[:, j] = sum(sign * table[idx] for idx, sign in corners)
    u_cls = np.where(fg.sum(axis=1) > 0, np.argmax(fg, axis=1) + 1, 0)
    out = np.zeros((grid.n_nodes, label_space.n_labels), dtype=np.int64)
    out[vi, li] = u_cls[inverse]
    return out


def calibrate_scales(pairs, grid_spacing_mm):
    """Per-metric normalization divisors from zero-displacement features.

    For each (source, target) volume pair, features are computed for the
    zero label at every node of a grid at `grid_spacing_mm`; the divisor is
    the 95th percentile per metric over all pooled nodes. Metrics whose
    percentile is zero keep scale 1.
    """
    zero_ls = LabelSpace(np.zeros((1, 3)))
    pooled = []
    for src, tgt in pairs:
        grid = make_control_grid(src, grid_spacing_mm)
        feats = feature_table(src, tgt, grid, zero_ls)
        pooled.append(feats[~empty_feature_rows(feats)])
    allf = np.concatenate(pooled, axis=0)
    scales = np.percentile(allf, 95.0, axis=0)
    scales = np.where(scales > 0, scales, 1.0)
    return tuple(float(s) for s in scales)
