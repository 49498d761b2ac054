"""Reference metric path: one patch pair, one metric, one (node, label) at a time.

These are the straight scalar kernels that `mmreg.metrics.feature_table` and
`mmreg.metrics.dominant_class_table` evaluate in batch. A patch is the block
of voxels around the voxel nearest to a physical point, cropped at the
volume bounds; two patches are compared on their common shape around their
centers. The tests pin the batch tables to these functions, and the
functions to plain voxel loops.
"""

from dataclasses import dataclass

import numpy as np

from mmreg.metrics import (
    EMPTY_COST, METRIC_NAMES, MI_BINS, N_METRICS, _INV_SQRT8, patch_radius,
)
from mmreg.volume import Volume


@dataclass(frozen=True)
class Patch:
    """Axis-aligned block of voxels around a center voxel.

    `left`/`right` record how many voxels the block extends from the center
    along each axis (after cropping at the volume bounds), so two patches
    can be intersected to a common shape. An empty patch has data=None.
    """
    data: np.ndarray = None
    left: tuple = (0, 0, 0)
    right: tuple = (0, 0, 0)
    center_idx: tuple = None

    @property
    def is_empty(self):
        return self.data is None

    @property
    def n_voxels(self):
        return 0 if self.data is None else int(self.data.size)


def extract_patch(vol_or_mask, center_mm, extent):
    """Extract the block of `extent` voxels per side around the voxel nearest
    to `center_mm`, cropped at the volume bounds.

    A center outside the physical voxel-center extent yields an empty patch.
    """
    arr = vol_or_mask.data if isinstance(vol_or_mask, Volume) else vol_or_mask.labels
    dims = vol_or_mask.dims
    ext = np.asarray(extent, dtype=np.int64) if np.iterable(extent) else np.full(3, int(extent))
    if np.any(ext < 0):
        raise ValueError(f"patch extent must be >= 0, got {extent}")
    t = [
        (float(center_mm[a]) - vol_or_mask.origin[a]) / vol_or_mask.spacing[a]
        for a in range(3)
    ]
    if any(t[a] < 0.0 or t[a] > dims[a] - 1 for a in range(3)):
        return Patch()
    c = [int(np.rint(t[a])) for a in range(3)]
    lo = [max(c[a] - int(ext[a]), 0) for a in range(3)]
    hi = [min(c[a] + int(ext[a]), dims[a] - 1) for a in range(3)]
    block = arr[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1]
    left = tuple(c[a] - lo[a] for a in range(3))
    right = tuple(hi[a] - c[a] for a in range(3))
    return Patch(np.ascontiguousarray(block), left, right, tuple(c))


# ---------------------------------------------------------------------------
# scalar metric kernels
# ---------------------------------------------------------------------------

def _sad(a, b):
    return float(np.mean(np.abs(a - b)))


def _ncc(a, b):
    am = a - a.mean()
    bm = b - b.mean()
    va = float(np.mean(am * am))
    vb = float(np.mean(bm * bm))
    if va == 0.0 or vb == 0.0:
        return 1.0
    r = float(np.mean(am * bm)) / np.sqrt(va * vb)
    return 1.0 - r


def _entropy(p):
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def _mi(a, b, bins):
    ai = _bin_indices(a, bins)
    bi = _bin_indices(b, bins)
    joint = np.bincount(ai * bins + bi, minlength=bins * bins).astype(np.float64)
    joint /= joint.sum()
    pa = joint.reshape(bins, bins).sum(axis=1)
    pb = joint.reshape(bins, bins).sum(axis=0)
    mi = _entropy(pa) + _entropy(pb) - _entropy(joint)
    return float(np.log(bins) - mi)


def _bin_indices(x, bins):
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.zeros(x.size, dtype=np.int64)
    idx = ((x.ravel() - lo) / (hi - lo) * bins).astype(np.int64)
    return np.minimum(idx, bins - 1)


def _haar_approx(a):
    """Single-level 3D Haar approximation band (even-cropped block sums)."""
    sx, sy, sz = (2 * (s // 2) for s in a.shape)
    c = a[:sx, :sy, :sz].reshape(sx // 2, 2, sy // 2, 2, sz // 2, 2)
    return c.sum(axis=(1, 3, 5)) * _INV_SQRT8


def _dwt(a, b):
    if min(a.shape) < 2:
        # too small for one wavelet level: compare raw intensities
        return float(np.mean(np.abs(a - b)))
    return float(np.mean(np.abs(_haar_approx(a) - _haar_approx(b))))


def compute_metric(name, patch_src, patch_tgt):
    """Evaluate one dissimilarity metric on a patch pair.

    Patches are intersected to their common cropped shape around their
    centers. An empty patch on either side yields EMPTY_COST.

    Raises:
        ValueError: unknown metric name, or non-finite patch data.
    """
    if name not in METRIC_NAMES:
        raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
    if patch_src.is_empty or patch_tgt.is_empty:
        return EMPTY_COST
    a, b = _common_crop(patch_src, patch_tgt)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("patch data contains NaN or inf")
    if name == "SAD":
        return _sad(a, b)
    if name == "MI":
        return _mi(a, b, MI_BINS)
    if name == "NCC":
        return _ncc(a, b)
    return _dwt(a, b)


def _common_crop(pa, pb):
    left = [min(pa.left[i], pb.left[i]) for i in range(3)]
    right = [min(pa.right[i], pb.right[i]) for i in range(3)]

    def crop(p):
        sl = tuple(
            slice(p.left[i] - left[i], p.left[i] + right[i] + 1) for i in range(3)
        )
        return np.asarray(p.data[sl], dtype=np.float64)

    return crop(pa), crop(pb)


# ---------------------------------------------------------------------------
# per-node operations
# ---------------------------------------------------------------------------

def unary_features(src, tgt, grid, label_space, node, label, scales=None):
    """Feature vector of all metrics for one (node, label) pair.

    The source patch is taken at the displaced control point p_i + d_l,
    the target patch at the undisplaced p_i. Values are divided by the
    normalization scales; the empty-patch cost is a sentinel and stays
    unscaled.
    """
    radius = patch_radius(grid.spacing_mm, src.spacing)
    p = grid.points[node]
    d = label_space.displacements[label]
    pa = extract_patch(src, p + d, radius)
    pb = extract_patch(tgt, p, radius)
    if pa.is_empty or pb.is_empty:
        return np.full(N_METRICS, EMPTY_COST)
    vals = np.array([compute_metric(m, pa, pb) for m in METRIC_NAMES])
    return vals / np.asarray((1.0,) * N_METRICS if scales is None else scales)


def dominant_class(src_mask, grid, label_space, node, label, n_classes):
    """Most frequent nonzero class in the displaced source-mask patch.

    Labels above n_classes count as n_classes, and ties break to the smaller
    class id. A patch that is empty or contains only background returns 0
    (the background column is used downstream).
    """
    radius = patch_radius(grid.spacing_mm, src_mask.spacing)
    p = grid.points[node]
    d = label_space.displacements[label]
    patch = extract_patch(src_mask, p + d, radius)
    if patch.is_empty:
        return 0
    counts = np.bincount(np.minimum(patch.data.ravel(), n_classes, dtype=np.int64),
                         minlength=n_classes + 1)
    if counts[1:n_classes + 1].sum() == 0:
        return 0
    return int(np.argmax(counts[1:n_classes + 1])) + 1


def aggregated_unary(features, wmat, class_id):
    """Class-conditioned linear aggregation: w(class)^T features."""
    return float(np.dot(wmat.weights[:, wmat.column_index(class_id)], np.asarray(features, dtype=np.float64)))
