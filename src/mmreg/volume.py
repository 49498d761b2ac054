"""Volumes, masks, control grids, deformation fields and warping.

Conventions used throughout the package:

* A volume is a dense 3D scalar grid indexed ``data[x, y, z]`` with shape
  ``(nx, ny, nz)``. Physical position of voxel (i, j, k) is
  ``origin + (i*sx, j*sy, k*sz)`` in millimetres.
* On disk the payload is little-endian raw binary in x-fastest order
  (x varies fastest, then y, then z), described by a plain-text header.
* Deformation fields map a point x to x + d(x); warping samples the input
  at the displaced location ("backward" warping).
"""

import os
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter


class FormatError(Exception):
    """Raised when a volume/mask/field file cannot be parsed."""


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def _as_triple(v, cast=float):
    t = tuple(cast(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"expected 3 components, got {v!r}")
    return t


@dataclass(frozen=True)
class Volume:
    """Dense scalar volume with physical spacing.

    Attributes:
        data: float32 array of shape (nx, ny, nz), indexed [x, y, z].
        spacing: mm per voxel along each axis, all > 0.
        origin: physical position (mm) of voxel (0, 0, 0).
    """
    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"volume data must be 3D with dims >= 1, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _as_triple(self.spacing))
        object.__setattr__(self, "origin", _as_triple(self.origin))
        if min(self.spacing) <= 0:
            raise ValueError(f"spacing components must be > 0, got {self.spacing}")

    @property
    def dims(self):
        return self.data.shape

    def extent_mm(self):
        """Physical range of voxel centers: (low, high) corners in mm."""
        lo = np.asarray(self.origin, dtype=np.float64)
        hi = lo + (np.asarray(self.dims) - 1) * np.asarray(self.spacing)
        return lo, hi

    def voxel_centers_mm(self):
        """Per-axis arrays of voxel-center coordinates in mm."""
        return tuple(
            self.origin[a] + np.arange(self.dims[a], dtype=np.float64) * self.spacing[a]
            for a in range(3)
        )

    def geometry(self):
        return self.dims, self.spacing, self.origin


@dataclass(frozen=True)
class SegmentationMask:
    """Dense grid of class labels aligned with a Volume.

    Label 0 is background; classes are positive integers.
    """
    labels: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"mask labels must be 3D with dims >= 1, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)
        object.__setattr__(self, "spacing", _as_triple(self.spacing))
        object.__setattr__(self, "origin", _as_triple(self.origin))

    @property
    def dims(self):
        return self.labels.shape

    def class_ids(self):
        """Sorted nonzero class ids present in the mask."""
        ids = np.unique(self.labels)
        return [int(c) for c in ids if c != 0]

    def binary(self, class_id):
        """Boolean foreground array for one class."""
        return self.labels == class_id

    def aligned_with(self, vol):
        return self.dims == vol.dims and self.spacing == vol.spacing and self.origin == vol.origin

    def geometry(self):
        return self.dims, self.spacing, self.origin


@dataclass(frozen=True)
class ControlGrid:
    """Regular free-form-deformation control lattice with 6-neighbourhood edges.

    Node i corresponds to lattice indices (ix, iy, iz) with
    i = ix + gx * (iy + gy * iz) (x-fastest, matching volume order).
    """
    grid_dims: tuple
    spacing_mm: tuple
    origin_mm: tuple

    @property
    def n_nodes(self):
        gx, gy, gz = self.grid_dims
        return gx * gy * gz

    def node_index(self, ix, iy, iz):
        gx, gy, _ = self.grid_dims
        return ix + gx * (iy + gy * iz)

    @property
    def points(self):
        """(|V|, 3) physical coordinates of all control points, node order."""
        gx, gy, gz = self.grid_dims
        ix, iy, iz = np.meshgrid(np.arange(gx), np.arange(gy), np.arange(gz), indexing="ij")
        idx = np.stack([ix, iy, iz], axis=-1).reshape(-1, 3, order="F")
        # reshape in F-order over the (gx,gy,gz) block gives x-fastest node order
        pts = np.asarray(self.origin_mm) + idx * np.asarray(self.spacing_mm)
        return pts

    @property
    def edges(self):
        """(|E|, 2) axis-adjacent node pairs of the lattice."""
        gx, gy, gz = self.grid_dims
        pairs = []
        for axis, g in enumerate((gx, gy, gz)):
            if g < 2:
                continue
            shape = [gx, gy, gz]
            shape[axis] -= 1
            ix, iy, iz = np.meshgrid(
                np.arange(shape[0]), np.arange(shape[1]), np.arange(shape[2]), indexing="ij"
            )
            a = self.node_index(ix, iy, iz)
            off = [0, 0, 0]
            off[axis] = 1
            b = self.node_index(ix + off[0], iy + off[1], iz + off[2])
            pairs.append(np.stack([a.ravel(), b.ravel()], axis=1))
        if not pairs:
            return np.zeros((0, 2), dtype=np.int64)
        return np.concatenate(pairs, axis=0).astype(np.int64)


def make_control_grid(vol, spacing_mm):
    """Build a control grid covering `vol` with one padding point past each face.

    The padding guarantees a full 4x4x4 cubic B-spline support for every
    voxel center of the volume.
    """
    spacing_mm = _as_triple(spacing_mm) if np.iterable(spacing_mm) else (float(spacing_mm),) * 3
    lo, hi = vol.extent_mm()
    dims = []
    origin = []
    for a in range(3):
        extent = hi[a] - lo[a]
        n = int(np.floor(extent / spacing_mm[a])) + 4
        dims.append(n)
        origin.append(lo[a] - spacing_mm[a])
    return ControlGrid(tuple(dims), spacing_mm, tuple(origin))


@dataclass(frozen=True)
class LabelSpace:
    """Discrete catalog of candidate control-point displacements (mm).

    displacements[0] is always the zero vector.
    """
    displacements: np.ndarray
    max_norm_mm: float

    def __post_init__(self):
        d = np.ascontiguousarray(self.displacements, dtype=np.float64)
        if d.ndim != 2 or d.shape[1] != 3:
            raise ValueError("displacements must have shape (|L|, 3)")
        if np.any(d[0] != 0.0):
            raise ValueError("displacement 0 must be the zero vector")
        d.setflags(write=False)
        object.__setattr__(self, "displacements", d)

    @property
    def n_labels(self):
        return self.displacements.shape[0]


@dataclass(frozen=True)
class DeformationField:
    """Sparse (per-control-point) and/or dense (per-voxel) displacements in mm.

    The dense representation carries the geometry of the volume it is
    sampled on: dense has shape (nx, ny, nz, 3).
    """
    sparse: np.ndarray = None
    dense: np.ndarray = None
    spacing: tuple = None
    origin: tuple = None

    def __post_init__(self):
        if self.sparse is not None:
            s = np.ascontiguousarray(self.sparse, dtype=np.float64)
            if s.ndim != 2 or s.shape[1] != 3:
                raise ValueError("sparse field must have shape (|V|, 3)")
            s.setflags(write=False)
            object.__setattr__(self, "sparse", s)
        if self.dense is not None:
            d = np.ascontiguousarray(self.dense, dtype=np.float64)
            if d.ndim != 4 or d.shape[3] != 3:
                raise ValueError("dense field must have shape (nx, ny, nz, 3)")
            d.setflags(write=False)
            object.__setattr__(self, "dense", d)
            if self.spacing is None or self.origin is None:
                raise ValueError("dense field requires spacing and origin")
            object.__setattr__(self, "spacing", _as_triple(self.spacing))
            object.__setattr__(self, "origin", _as_triple(self.origin))

    @property
    def dims(self):
        return None if self.dense is None else self.dense.shape[:3]


# ---------------------------------------------------------------------------
# cubic B-spline FFD interpolation
# ---------------------------------------------------------------------------

def _bspline_weights(u):
    """Cubic B-spline basis values (B0..B3) for fractional offsets u in [0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    u2 = u * u
    u3 = u2 * u
    b0 = (1.0 - u) ** 3 / 6.0
    b1 = (3.0 * u3 - 6.0 * u2 + 4.0) / 6.0
    b2 = (-3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0) / 6.0
    b3 = u3 / 6.0
    return np.stack([b0, b1, b2, b3], axis=-1)


def _spline_coords(grid, coords, axis):
    """Cell index and basis weights along one axis for physical coordinates."""
    g = grid.grid_dims[axis]
    if g < 4:
        raise ValueError(f"control grid needs >= 4 points per axis, got {grid.grid_dims}")
    t = (np.asarray(coords, dtype=np.float64) - grid.origin_mm[axis]) / grid.spacing_mm[axis]
    # valid support requires cell in [1, g-3]; queries outside are clamped
    t = np.clip(t, 1.0, np.nextafter(float(g - 2), 0.0))
    cell = np.floor(t).astype(np.int64)
    cell = np.minimum(cell, g - 3)
    u = t - cell
    return cell, _bspline_weights(u)


def ffd_evaluate(grid, sparse_disp, points_mm):
    """Evaluate the FFD displacement at arbitrary physical points.

    Args:
        grid: ControlGrid.
        sparse_disp: (|V|, 3) control-point displacements in mm.
        points_mm: (N, 3) query points in mm. Points outside the spline
            support are clamped to the nearest supported location.

    Returns:
        (N, 3) interpolated displacements in mm.
    """
    sparse_disp = np.asarray(sparse_disp, dtype=np.float64)
    if sparse_disp.shape != (grid.n_nodes, 3):
        raise ValueError(
            f"sparse field length {sparse_disp.shape[0]} does not match grid with "
            f"{grid.n_nodes} nodes"
        )
    pts = np.asarray(points_mm, dtype=np.float64).reshape(-1, 3)
    # one contiguous table per component in node order: each of the 64 taps
    # is then a 1-D gather at the constant node offset of (a, b, c)
    comp = np.ascontiguousarray(sparse_disp.T)

    out = np.zeros((pts.shape[0], 3), dtype=np.float64)
    chunk = 1 << 16
    for s in range(0, pts.shape[0], chunk):
        p = pts[s:s + chunk]
        (cx, wx), (cy, wy), (cz, wz) = (_spline_coords(grid, p[:, a], a) for a in range(3))
        wx, wy, wz = (np.ascontiguousarray(w.T) for w in (wx, wy, wz))
        base = grid.node_index(cx - 1, cy - 1, cz - 1)
        acc = np.zeros((3, p.shape[0]), dtype=np.float64)
        for a in range(4):
            for b in range(4):
                wab = wx[a] * wy[b]
                for c in range(4):
                    w = wab * wz[c]
                    i = base + grid.node_index(a, b, c)
                    for d in range(3):
                        # clip never applies: _spline_coords keeps taps in the grid
                        acc[d] += w * comp[d].take(i, mode="clip")
        out[s:s + chunk] = acc.T
    return out


def interpolate_dense(grid, sparse_field, like):
    """Densify a sparse control-point field onto the voxel grid of `like`.

    Uses separable cubic B-spline interpolation; at every voxel the result
    is a convex combination of the surrounding 4x4x4 control displacements.

    Args:
        grid: ControlGrid.
        sparse_field: DeformationField with sparse set, or an (|V|, 3) array.
        like: Volume or SegmentationMask supplying dims/spacing/origin.

    Returns:
        DeformationField with both sparse and dense representations.
    """
    sparse = sparse_field.sparse if isinstance(sparse_field, DeformationField) else sparse_field
    sparse = np.asarray(sparse, dtype=np.float64)
    if sparse.shape != (grid.n_nodes, 3):
        raise ValueError(
            f"sparse field length {sparse.shape[0] if sparse.ndim else 0} does not match "
            f"grid with {grid.n_nodes} nodes"
        )
    dims, spacing, origin = like.geometry()
    gx, gy, gz = grid.grid_dims
    ctrl = sparse.reshape(gx, gy, gz, 3, order="F")

    cells = []
    weights = []
    for a in range(3):
        coords = origin[a] + np.arange(dims[a], dtype=np.float64) * spacing[a]
        cell, w = _spline_coords(grid, coords, a)
        cells.append(cell)
        weights.append(w)

    # separable tensor-product evaluation: contract one lattice axis at a time
    idx_x = cells[0][:, None] - 1 + np.arange(4)[None, :]          # (nx, 4)
    tmp = np.einsum("na,najkc->njkc", weights[0], ctrl[idx_x])      # (nx, gy, gz, 3)
    idx_y = cells[1][:, None] - 1 + np.arange(4)[None, :]
    tmp = np.einsum("ma,nmakc->nmkc", weights[1], tmp[:, idx_y])    # (nx, ny, gz, 3)
    idx_z = cells[2][:, None] - 1 + np.arange(4)[None, :]
    dense = np.einsum("pa,nmpac->nmpc", weights[2], tmp[:, :, idx_z])
    return DeformationField(sparse=sparse, dense=dense, spacing=spacing, origin=origin)


def sample_field(fld, points_mm):
    """Trilinearly sample a dense deformation field at physical points.

    Out-of-grid queries are clamped to the field boundary.
    """
    if fld.dense is None:
        raise ValueError("field has no dense representation")
    pts = np.asarray(points_mm, dtype=np.float64).reshape(-1, 3)
    dims = fld.dims
    out = np.zeros((pts.shape[0], 3), dtype=np.float64)
    cs = []
    for a in range(3):
        c = (pts[:, a] - fld.origin[a]) / fld.spacing[a]
        cs.append(np.clip(c, 0.0, dims[a] - 1))
    lo = [np.minimum(np.floor(c).astype(np.int64), dims[a] - 2) if dims[a] > 1
          else np.zeros(len(c), dtype=np.int64) for a, c in enumerate(cs)]
    fr = [cs[a] - lo[a] for a in range(3)]
    for dx in (0, 1):
        wx = (1.0 - fr[0]) if dx == 0 else fr[0]
        ix = np.minimum(lo[0] + dx, dims[0] - 1)
        for dy in (0, 1):
            wy = (1.0 - fr[1]) if dy == 0 else fr[1]
            iy = np.minimum(lo[1] + dy, dims[1] - 1)
            for dz in (0, 1):
                wz = (1.0 - fr[2]) if dz == 0 else fr[2]
                iz = np.minimum(lo[2] + dz, dims[2] - 1)
                w = wx * wy * wz
                out += w[:, None] * fld.dense[ix, iy, iz]
    return out


# ---------------------------------------------------------------------------
# warping
# ---------------------------------------------------------------------------

def _sample_coords(vol_like, fld):
    """Continuous voxel coordinates of x + d(x) for every voxel x."""
    dims = vol_like.dims
    if fld.dense is None:
        raise ValueError("warping requires a dense deformation field")
    if fld.dims != dims:
        raise ValueError(f"field dims {fld.dims} do not match volume dims {dims}")
    coords = []
    for a in range(3):
        x = np.arange(dims[a], dtype=np.float64) * vol_like.spacing[a] + vol_like.origin[a]
        shape = [1, 1, 1]
        shape[a] = dims[a]
        coords.append(x.reshape(shape))
    cx = (coords[0] + fld.dense[..., 0] - vol_like.origin[0]) / vol_like.spacing[0]
    cy = (coords[1] + fld.dense[..., 1] - vol_like.origin[1]) / vol_like.spacing[1]
    cz = (coords[2] + fld.dense[..., 2] - vol_like.origin[2]) / vol_like.spacing[2]
    return cx, cy, cz


def warp(vol, fld, fill_value=0.0):
    """Warp a volume: output(x) = vol(x + d(x)) via trilinear interpolation.

    Sample points falling outside the voxel-center box take `fill_value`.
    """
    cx, cy, cz = _sample_coords(vol, fld)
    dims = vol.dims
    inside = (
        (cx >= 0) & (cx <= dims[0] - 1)
        & (cy >= 0) & (cy <= dims[1] - 1)
        & (cz >= 0) & (cz <= dims[2] - 1)
    )
    x0 = np.clip(np.floor(cx).astype(np.int64), 0, dims[0] - 2) if dims[0] > 1 else np.zeros_like(cx, dtype=np.int64)
    y0 = np.clip(np.floor(cy).astype(np.int64), 0, dims[1] - 2) if dims[1] > 1 else np.zeros_like(cy, dtype=np.int64)
    z0 = np.clip(np.floor(cz).astype(np.int64), 0, dims[2] - 2) if dims[2] > 1 else np.zeros_like(cz, dtype=np.int64)
    fx = np.clip(cx - x0, 0.0, 1.0)
    fy = np.clip(cy - y0, 0.0, 1.0)
    fz = np.clip(cz - z0, 0.0, 1.0)
    data = vol.data.astype(np.float64)
    out = np.zeros(dims, dtype=np.float64)
    for dx in (0, 1):
        wx = (1.0 - fx) if dx == 0 else fx
        ix = np.minimum(x0 + dx, dims[0] - 1)
        for dy in (0, 1):
            wy = (1.0 - fy) if dy == 0 else fy
            iy = np.minimum(y0 + dy, dims[1] - 1)
            for dz in (0, 1):
                wz = (1.0 - fz) if dz == 0 else fz
                iz = np.minimum(z0 + dz, dims[2] - 1)
                out += wx * wy * wz * data[ix, iy, iz]
    out = np.where(inside, out, float(fill_value))
    return Volume(out.astype(np.float32), vol.spacing, vol.origin)


def warp_mask(mask, fld, fill_value=0):
    """Warp a segmentation mask with nearest-neighbour sampling.

    Labels stay in the input label set; out-of-bounds samples take
    `fill_value` (background by default).
    """
    cx, cy, cz = _sample_coords(mask, fld)
    dims = mask.dims
    ix = np.rint(cx).astype(np.int64)
    iy = np.rint(cy).astype(np.int64)
    iz = np.rint(cz).astype(np.int64)
    inside = (
        (ix >= 0) & (ix <= dims[0] - 1)
        & (iy >= 0) & (iy <= dims[1] - 1)
        & (iz >= 0) & (iz <= dims[2] - 1)
    )
    ix = np.clip(ix, 0, dims[0] - 1)
    iy = np.clip(iy, 0, dims[1] - 1)
    iz = np.clip(iz, 0, dims[2] - 1)
    out = mask.labels[ix, iy, iz]
    out = np.where(inside, out, np.uint8(fill_value))
    return SegmentationMask(out, mask.spacing, mask.origin)


# ---------------------------------------------------------------------------
# patches and tiles
# ---------------------------------------------------------------------------

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


def tile_edges(grid, like):
    """Per-axis voxel-index boundaries assigning every voxel to its nearest
    control point, so node tiles partition the volume.

    Returns per-axis integer arrays `bounds[a]` of length grid_dims[a] + 1;
    node (ix, iy, iz) owns voxels [bounds[0][ix], bounds[0][ix+1]) x ... .
    Tiles of padding nodes outside the volume are empty.
    """
    dims, spacing, origin = like.geometry()
    bounds = []
    for a in range(3):
        g = grid.grid_dims[a]
        # voxel v belongs to node argmin |pos(v) - node|; boundary between
        # nodes n and n+1 sits at the midpoint
        pos = origin[a] + np.arange(dims[a], dtype=np.float64) * spacing[a]
        t = (pos - grid.origin_mm[a]) / grid.spacing_mm[a]
        owner = np.clip(np.floor(t + 0.5).astype(np.int64), 0, g - 1)
        b = np.searchsorted(owner, np.arange(g + 1), side="left")
        bounds.append(b)
    return bounds


def tile_slices(grid, like):
    """List of per-node (slice, slice, slice) tiles partitioning the volume."""
    bounds = tile_edges(grid, like)
    gx, gy, gz = grid.grid_dims
    out = [None] * grid.n_nodes
    for iz in range(gz):
        sz = slice(bounds[2][iz], bounds[2][iz + 1])
        for iy in range(gy):
            sy = slice(bounds[1][iy], bounds[1][iy + 1])
            for ix in range(gx):
                sx = slice(bounds[0][ix], bounds[0][ix + 1])
                out[grid.node_index(ix, iy, iz)] = (sx, sy, sz)
    return out


# ---------------------------------------------------------------------------
# multi-resolution pyramid
# ---------------------------------------------------------------------------

def downsample_volume(vol):
    """One factor-2 Gaussian pyramid step: smooth then take every other voxel."""
    sm = gaussian_filter(vol.data.astype(np.float64), sigma=1.0, mode="nearest")
    data = sm[::2, ::2, ::2]
    spacing = tuple(s * 2.0 for s in vol.spacing)
    return Volume(data.astype(np.float32), spacing, vol.origin)


def downsample_mask(mask):
    """Factor-2 mask subsampling (nearest voxel, no smoothing)."""
    data = mask.labels[::2, ::2, ::2]
    spacing = tuple(s * 2.0 for s in mask.spacing)
    return SegmentationMask(data, spacing, mask.origin)


def build_pyramid(vol_or_mask, levels):
    """Pyramid list [finest, ..., coarsest] of `levels` entries."""
    down = downsample_mask if isinstance(vol_or_mask, SegmentationMask) else downsample_volume
    pyr = [vol_or_mask]
    for _ in range(levels - 1):
        pyr.append(down(pyr[-1]))
    return pyr


# ---------------------------------------------------------------------------
# raw file format
# ---------------------------------------------------------------------------

_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


def _write_raw(path, header, payload):
    base = os.path.basename(path)
    raw_name = os.path.splitext(base)[0] + ".raw"
    raw_path = os.path.join(os.path.dirname(path), raw_name)
    lines = [f"{k}: {v}" for k, v in header.items()]
    lines.append(f"data: {raw_name}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    payload.tofile(raw_path)


def _read_header(path):
    header = {}
    try:
        with open(path) as f:
            for ln, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if ":" not in line:
                    raise FormatError(f"{path}:{ln}: expected 'key: value', got {line!r}")
                k, v = line.split(":", 1)
                header[k.strip()] = v.strip()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    for key in ("dims", "spacing", "origin", "dtype", "data"):
        if key not in header:
            raise FormatError(f"{path}: missing header key '{key}'")
    return header


def _parse_header(path, header):
    try:
        dims = tuple(int(x) for x in header["dims"].split())
        spacing = tuple(float(x) for x in header["spacing"].split())
        origin = tuple(float(x) for x in header["origin"].split())
        components = int(header.get("components", "1"))
    except ValueError as e:
        raise FormatError(f"{path}: bad header value: {e}") from e
    if len(dims) != 3 or len(spacing) != 3 or len(origin) != 3:
        raise FormatError(f"{path}: dims/spacing/origin must each have 3 entries")
    if header["dtype"] not in _DTYPES:
        raise FormatError(f"{path}: dtype must be one of {sorted(_DTYPES)}")
    return dims, spacing, origin, _DTYPES[header["dtype"]], components


def _read_payload(path, header, expected):
    name = header["data"]
    # write_raw names the payload by a plain file name next to the header;
    # anything else could point outside the header's directory
    if os.path.basename(name) != name or name in ("", ".", ".."):
        raise FormatError(f"{path}: data must be a file name in the header's directory, "
                          f"got {name!r}")
    raw_path = os.path.join(os.path.dirname(path), name)
    try:
        payload = np.fromfile(raw_path, dtype=expected["dtype"])
    except OSError as e:
        raise FormatError(f"cannot read payload {raw_path}: {e}") from e
    n = int(np.prod(expected["shape"]))
    if payload.size != n:
        raise FormatError(
            f"{raw_path}: payload has {payload.size} elements, expected {n}"
        )
    return payload


def write_volume(path, vol):
    """Write a Volume as header + little-endian f32 raw, x-fastest order."""
    header = {
        "dims": " ".join(str(d) for d in vol.dims),
        "spacing": " ".join(repr(s) for s in vol.spacing),
        "origin": " ".join(repr(o) for o in vol.origin),
        "dtype": "f32",
    }
    _write_raw(path, header, vol.data.astype("<f4").ravel(order="F"))


def write_mask(path, mask):
    header = {
        "dims": " ".join(str(d) for d in mask.dims),
        "spacing": " ".join(repr(s) for s in mask.spacing),
        "origin": " ".join(repr(o) for o in mask.origin),
        "dtype": "u8",
    }
    _write_raw(path, header, mask.labels.astype("u1").ravel(order="F"))


def write_field(path, fld):
    """Write a dense deformation field: f32 raw with 3 components per voxel."""
    if fld.dense is None:
        raise ValueError("field has no dense representation to write")
    header = {
        "dims": " ".join(str(d) for d in fld.dims),
        "spacing": " ".join(repr(s) for s in fld.spacing),
        "origin": " ".join(repr(o) for o in fld.origin),
        "dtype": "f32",
        "components": "3",
    }
    # component-fastest within each voxel, then x-fastest over voxels
    payload = np.moveaxis(fld.dense.astype("<f4"), 3, 0).ravel(order="F")
    _write_raw(path, header, payload)


def read_volume(path):
    header = _read_header(path)
    dims, spacing, origin, dtype, components = _parse_header(path, header)
    if components != 1:
        raise FormatError(f"{path}: expected scalar volume, got components={components}")
    payload = _read_payload(path, header, {"dtype": dtype, "shape": dims})
    data = payload.reshape(dims, order="F")
    if header["dtype"] == "u8":
        data = data.astype(np.float32)
    return Volume(data, spacing, origin)


def read_mask(path):
    header = _read_header(path)
    dims, spacing, origin, dtype, components = _parse_header(path, header)
    if header["dtype"] != "u8" or components != 1:
        raise FormatError(f"{path}: mask files must be scalar u8")
    payload = _read_payload(path, header, {"dtype": dtype, "shape": dims})
    return SegmentationMask(payload.reshape(dims, order="F"), spacing, origin)


def read_field(path):
    header = _read_header(path)
    dims, spacing, origin, dtype, components = _parse_header(path, header)
    if components != 3 or header["dtype"] != "f32":
        raise FormatError(f"{path}: field files must be f32 with components=3")
    payload = _read_payload(path, header, {"dtype": dtype, "shape": (3,) + dims})
    dense = np.moveaxis(payload.reshape((3,) + dims, order="F"), 0, 3)
    return DeformationField(dense=dense.astype(np.float64), spacing=spacing, origin=origin)
