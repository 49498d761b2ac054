"""Volumes, masks, control grids, deformation fields and warping.

Conventions used throughout the package:

* A volume is a dense 3D scalar grid indexed ``data[x, y, z]`` with shape
  ``(nx, ny, nz)``. Physical position of voxel (i, j, k) is
  ``origin + (i*sx, j*sy, k*sz)`` in millimetres.
* On disk the payload is little-endian raw binary in x-fastest order
  (x varies fastest, then y, then z), described by a plain-text header.
* Deformation fields map a point x to x + d(x); warping samples the input
  at the displaced location ("backward" warping).
* Settings (config files, generator specs, file headers) are text lines of
  ``key=value`` or ``key: value``; the package's config dataclasses hold
  every default and range check.
"""

import math
import os
import typing
from dataclasses import dataclass, fields

import numpy as np


class FormatError(Exception):
    """Raised when a volume/mask/field file cannot be parsed."""


def read_settings(path, sep, error):
    """(location, key, value) for every `key<sep>value` line of a text file.

    Blank lines and lines starting with '#' are skipped; location is
    "path:line". A file that cannot be read or decoded as UTF-8 raises
    FormatError, a line without `sep` raises `error`.
    """
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    out = []
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append((f"{path}:{ln}", *split_setting(line, sep, f"{path}:{ln}", error)))
    return out


def split_setting(text, sep, where, error):
    """The stripped (key, value) of one `key<sep>value` item; an item
    without `sep` raises `error` naming `where`."""
    key, found, value = text.partition(sep)
    if not found:
        raise error(f"{where}: expected 'key{sep}value', got {text!r}")
    return key.strip(), value.strip()


def header_settings(path, items, required, optional):
    """{key: value} of the (location, key, value) items of the header of the
    file `path`. A key outside `required` and `optional`, a key given twice
    or a missing required key raises FormatError naming the key."""
    out = {}
    for where, key, value in items:
        if key in out or key not in required + optional:
            raise FormatError(f"{where}: {'repeated' if key in out else 'unknown'} "
                              f"header key {key!r}")
        out[key] = value
    for key in required:
        if key not in out:
            raise FormatError(f"{path}: missing header key {key!r}")
    return out


def parse_value(text, kind):
    """Parse a setting for a dataclass field annotated `kind`: int, float, str,
    bool (1/0, true/false, yes/no, on/off) or tuple[T, ...], whose items are
    comma-separated, or ';'-separated when T is itself a tuple."""
    if kind is bool:
        flag = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}.get(text.lower())
        if flag is None:
            raise ValueError(f"expected a boolean, got {text!r}")
        return flag
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        sep = ";" if typing.get_origin(item) is tuple else ","
        return tuple(parse_value(t, item) for t in text.split(sep))
    return kind(text)


def check_fields(obj, rules):
    """ValueError unless every float of the dataclass `obj` (a field, or an
    item of a tuple field or of its tuples) is finite and every rule holds;
    `rules` maps the text of each rule to whether it holds."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        items = [y for x in (value if isinstance(value, tuple) else (value,))
                 for y in (x if isinstance(x, tuple) else (x,))]
        if not all(math.isfinite(x) for x in items if isinstance(x, float)):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
    for rule, holds in rules.items():
        if not holds:
            raise ValueError(f"{type(obj).__name__} needs {rule}")


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def _as_triple(v):
    t = tuple(float(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"expected 3 components, got {v!r}")
    return t


class _Grid:
    """An array on a voxel grid: `spacing` (mm per voxel along each axis,
    finite and > 0) and `origin` (the finite position in mm of voxel
    (0, 0, 0)). Every invariant is checked once, at construction; each
    record names its array field, dtype and per-voxel trailing shape.
    A float array must hold finite values only."""
    _array = _dtype = None
    _trailing = ()

    def __post_init__(self):
        arr = np.ascontiguousarray(getattr(self, self._array), dtype=self._dtype)
        if (arr.ndim != 3 + len(self._trailing) or arr.shape[3:] != self._trailing
                or min(arr.shape[:3]) < 1):
            raise ValueError(f"{self._array} must have shape (nx, ny, nz) + {self._trailing} "
                             f"with dims >= 1, got {arr.shape}")
        spacing, origin = _as_triple(self.spacing), _as_triple(self.origin)
        if not (all(math.isfinite(s) and s > 0 for s in spacing)
                and all(math.isfinite(o) for o in origin)):
            raise ValueError(f"spacing must be finite and > 0 and origin finite, "
                             f"got {spacing} and {origin}")
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ValueError(f"{self._array} contains NaN or inf")
        arr.setflags(write=False)
        object.__setattr__(self, self._array, arr)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def dims(self):
        return getattr(self, self._array).shape[:3]

    def geometry(self):
        return self.dims, self.spacing, self.origin

    def voxel_centers_mm(self):
        """Per-axis arrays of voxel-center coordinates in mm."""
        return tuple(
            self.origin[a] + np.arange(self.dims[a], dtype=np.float64) * self.spacing[a]
            for a in range(3)
        )

    def voxel_points_mm(self, start=0, stop=None):
        """(n, 3) voxel centres in mm of the voxels start .. stop - 1 in flat
        (C, z-fastest) order; all voxels by default."""
        nx, ny, nz = self.dims
        stop = nx * ny * nz if stop is None else min(stop, nx * ny * nz)
        # the whole z rows that hold the voxels, then the voxels' part of them
        first, last = start // nz, -(-stop // nz)
        ix, iy = np.divmod(np.arange(first, last), ny)
        cx, cy, cz = self.voxel_centers_mm()
        out = np.empty((last - first, nz, 3), dtype=np.float64)
        out[..., 0] = cx[ix, None]
        out[..., 1] = cy[iy, None]
        out[..., 2] = cz
        return out.reshape(-1, 3)[start - first * nz:stop - first * nz]


@dataclass(frozen=True)
class Volume(_Grid):
    """Dense scalar volume: float32 `data` of shape (nx, ny, nz), indexed
    [x, y, z]."""
    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    origin: tuple = (0.0, 0.0, 0.0)
    _array, _dtype = "data", np.float32


@dataclass(frozen=True)
class SegmentationMask(_Grid):
    """Dense grid of class `labels` (uint8) aligned with a Volume.

    Label 0 is background; classes are positive integers.
    """
    labels: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    origin: tuple = (0.0, 0.0, 0.0)
    _array, _dtype = "labels", np.uint8

    def class_ids(self):
        """Sorted nonzero class ids present in the mask."""
        ids = np.unique(self.labels)
        return [int(c) for c in ids if c != 0]


@dataclass(frozen=True)
class ControlGrid:
    """Regular free-form-deformation control lattice with 6-neighbourhood edges.

    Node i corresponds to lattice indices (ix, iy, iz) with
    i = ix + gx * (iy + gy * iz): the F (x-fastest) order of a (gx, gy, gz) array.
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
        idx = np.stack(np.unravel_index(np.arange(self.n_nodes), self.grid_dims, order="F"),
                       axis=1)
        return np.asarray(self.origin_mm) + idx * np.asarray(self.spacing_mm)

    @property
    def edges(self):
        """(|E|, 2) axis-adjacent node pairs of the lattice: the x edges, then
        the y and the z edges, each in C order of their lower node."""
        ids = np.arange(self.n_nodes, dtype=np.int64).reshape(self.grid_dims, order="F")
        return np.concatenate([
            np.stack([np.delete(ids, -1, axis).ravel(), np.delete(ids, 0, axis).ravel()], axis=1)
            for axis in range(3)])


def make_control_grid(vol, spacing_mm):
    """Build a control grid covering `vol` with one padding point past each face.

    The padding guarantees a full 4x4x4 cubic B-spline support for every
    voxel center of the volume.
    """
    spacing_mm = _as_triple(spacing_mm) if np.iterable(spacing_mm) else (float(spacing_mm),) * 3
    dims = []
    origin = []
    for a, c in enumerate(vol.voxel_centers_mm()):
        n = int(np.floor((c[-1] - c[0]) / spacing_mm[a])) + 4
        dims.append(n)
        origin.append(c[0] - spacing_mm[a])
    return ControlGrid(tuple(dims), spacing_mm, tuple(origin))


@dataclass(frozen=True)
class LabelSpace:
    """Discrete catalog of candidate control-point displacements (mm).

    displacements[0] is always the zero vector.
    """
    displacements: np.ndarray

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
class DeformationField(_Grid):
    """Per-voxel displacements in mm on the grid of the volume they were
    sampled on: `dense` has shape (nx, ny, nz, 3)."""
    dense: np.ndarray
    spacing: tuple
    origin: tuple
    _array, _dtype, _trailing = "dense", np.float64, (3,)


# ---------------------------------------------------------------------------
# cubic B-spline FFD interpolation
# ---------------------------------------------------------------------------

def _bspline_weights(u, axis=-1):
    """Cubic B-spline basis values (B0..B3) for fractional offsets u in [0, 1),
    stacked along `axis`."""
    u = np.asarray(u, dtype=np.float64)
    u2 = u * u
    u3 = u2 * u
    b0 = (1.0 - u) ** 3 / 6.0
    b1 = (3.0 * u3 - 6.0 * u2 + 4.0) / 6.0
    b2 = (-3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0) / 6.0
    b3 = u3 / 6.0
    return np.stack([b0, b1, b2, b3], axis=axis)


def _spline_cells(grid, coords, axis):
    """Cell index and fractional offset in the cell along one axis for
    physical coordinates."""
    g = grid.grid_dims[axis]
    if g < 4:
        raise ValueError(f"control grid needs >= 4 points per axis, got {grid.grid_dims}")
    t = (np.asarray(coords, dtype=np.float64) - grid.origin_mm[axis]) / grid.spacing_mm[axis]
    # valid support requires cell in [1, g-3]; queries outside are clamped
    t = np.clip(t, 1.0, np.nextafter(float(g - 2), 0.0))
    cell = np.floor(t).astype(np.int64)
    cell = np.minimum(cell, g - 3)
    return cell, t - cell


# voxels or points per chunk of ffd_evaluate, compose_ffd and the trilinear
# samplers, whose working memory is then a few arrays of this length, whatever the volume
_CHUNK = 1 << 15

# a tap whose moved node reaches more than this share of a chunk's points is
# accumulated over all of them, as one pass costs less than gathering the
# share; the points whose tap node did not move add +-0.0
_DENSE_TAP_SHARE = 0.2


def ffd_evaluate(grid, sparse_disp, points_mm):
    """Evaluate the FFD displacement at arbitrary physical points.

    Only control points with a nonzero displacement ("moved" nodes) are
    read. A point whose 4x4x4 support holds no moved node gets +0.0, and
    every other point accumulates only its taps on moved nodes, in the tap
    order and rounding of the full sum, acc += ((wx*wy)*wz)*v. The result is
    the full 64-tap sum bit for bit, signed zeros included: the B-spline
    weights are finite and >= 0, so a tap on an unmoved node adds +-0.0; the
    accumulator starts at +0.0 and a round-to-nearest sum never turns it
    into -0.0, so adding +-0.0 leaves it unchanged.

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
    out = np.zeros((pts.shape[0], 3), dtype=np.float64)
    V = grid.n_nodes
    moved = np.any(sparse_disp != 0.0, axis=1)
    if not moved.any():
        return out
    # the support starting at node n holds a moved node: node n + offset of
    # one of its taps moved (such n are the bases _spline_cells yields)
    reached = np.zeros(V, dtype=bool)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                o = grid.node_index(a, b, c)
                reached[:V - o] |= moved[o:]
    # one contiguous table per component in node order: each tap is then a
    # 1-D gather at the constant node offset of (a, b, c)
    comp = np.ascontiguousarray(sparse_disp.T)

    for s in range(0, pts.shape[0], _CHUNK):
        p = pts[s:s + _CHUNK]
        (cx, ux), (cy, uy), (cz, uz) = (_spline_cells(grid, p[:, a], a) for a in range(3))
        base = grid.node_index(cx - 1, cy - 1, cz - 1)
        keep = np.flatnonzero(reached[base])
        if not len(keep):
            continue
        # kept points grouped by support: the points that one tap reaches
        # are then the runs of the supports whose tap node moved
        keep = keep[np.argsort(base[keep], kind="stable")]
        base = base[keep]
        count = np.bincount(base, minlength=V)
        end = np.cumsum(count)
        wx, wy, wz = (_bspline_weights(u[keep], axis=0) for u in (ux, uy, uz))
        acc = np.zeros((3, len(keep)), dtype=np.float64)
        for a in range(4):
            for b in range(4):
                wab = wx[a] * wy[b]
                for c in range(4):
                    o = grid.node_index(a, b, c)
                    hit = np.flatnonzero(moved[o:])     # supports whose (a, b, c) moved
                    n = count[hit]
                    m = int(n.sum())
                    if m == 0:
                        continue
                    node = comp[:, o:]          # node[d][base] = comp[d][base + o]
                    if m > _DENSE_TAP_SHARE * len(keep):
                        w = wab * wz[c]
                        for d in range(3):
                            acc[d] += w * node[d].take(base)
                    else:
                        # positions end - n .. end - 1 of each hit support's points
                        i = np.repeat(end[hit] - np.cumsum(n), n) + np.arange(m)
                        w = wab[i] * wz[c][i]
                        for d in range(3):
                            acc[d, i] += w * node[d].take(base[i])
        out[s + keep] = acc.T
    return out


def compose_ffd(acc, grid, sparse_disp, like):
    """Compose an FFD step into the dense field `acc` ((N, 3), one row per
    voxel of `like` in voxel_points_mm order), in place and one chunk of
    voxels at a time: acc(x) += FFD(x + acc(x))."""
    for s in range(0, len(acc), _CHUNK):
        part = acc[s:s + _CHUNK]
        part += ffd_evaluate(grid, sparse_disp, like.voxel_points_mm(s, s + _CHUNK) + part)


def interpolate_dense(grid, sparse, like):
    """Densify control-point displacements onto the voxel grid of `like`.

    Uses separable cubic B-spline interpolation; at every voxel the result
    is a convex combination of the surrounding 4x4x4 control displacements.

    This is the evaluator for whole voxel grids, ffd_evaluate the one for
    arbitrary points. Contracting one lattice axis at a time shares work
    along voxel rows that the point kernel repeats as 64 taps per voxel:
    on a 48x48x40 grid at 25 mm spacing this takes 0.006 s against the
    point kernel's 0.061 s, on 64^3 0.023 s against 0.174 s (2 vCPU x86_64,
    numpy 2.4). The two summation orders also differ in the last bits (up
    to 4e-15 mm, on most voxels), so training and synth would change too.

    Args:
        grid: ControlGrid.
        sparse: (|V|, 3) control-point displacements in mm.
        like: Volume or SegmentationMask supplying dims/spacing/origin.

    Returns:
        DeformationField on the grid of `like`.
    """
    sparse = np.asarray(sparse, dtype=np.float64)
    if sparse.shape != (grid.n_nodes, 3):
        raise ValueError(
            f"sparse field length {sparse.shape[0] if sparse.ndim else 0} does not match "
            f"grid with {grid.n_nodes} nodes"
        )
    gx, gy, gz = grid.grid_dims
    ctrl = sparse.reshape(gx, gy, gz, 3, order="F")

    cells = []
    weights = []
    for a, coords in enumerate(like.voxel_centers_mm()):
        cell, u = _spline_cells(grid, coords, a)
        cells.append(cell)
        weights.append(_bspline_weights(u))

    # separable tensor-product evaluation: contract one lattice axis at a time
    idx_x = cells[0][:, None] - 1 + np.arange(4)[None, :]          # (nx, 4)
    tmp = np.einsum("na,najkc->njkc", weights[0], ctrl[idx_x])      # (nx, gy, gz, 3)
    idx_y = cells[1][:, None] - 1 + np.arange(4)[None, :]
    tmp = np.einsum("ma,nmakc->nmkc", weights[1], tmp[:, idx_y])    # (nx, ny, gz, 3)
    idx_z = cells[2][:, None] - 1 + np.arange(4)[None, :]
    # the last axis over slabs of x rows: its gathered operand holds 4 taps
    # per voxel, 96 B per voxel of the slab, not of the volume
    dense = np.empty(tuple(like.dims) + (3,))
    step = max(1, _CHUNK // (dense.shape[1] * dense.shape[2]))
    for s in range(0, dense.shape[0], step):
        dense[s:s + step] = np.einsum("pa,nmpac->nmpc", weights[2], tmp[s:s + step][:, :, idx_z])
    return DeformationField(dense, like.spacing, like.origin)


def _trilinear(values, coords):
    """Trilinear interpolation of values[x, y, z, ...] at continuous voxel
    coordinates (cx, cy, cz); coordinates are clamped to the grid first.

    Each of the 8 corners is one flat `take`: the base index plus the
    corner's constant offset, which is 0 along an axis of length 1. Every
    output accumulates ((wx*wy)*wz)*value over the corners from +0.0, in
    x, y, z corner order."""
    dims = values.shape[:3]
    strides = (dims[1] * dims[2], dims[2], 1)
    flat = values.reshape((-1,) + values.shape[3:])
    base = 0
    fr = []
    for c, d, st in zip(coords, dims, strides):
        c = np.clip(c, 0.0, d - 1)
        i = (np.minimum(np.floor(c).astype(np.int64), d - 2) if d > 1
             else np.zeros(c.shape, dtype=np.int64))
        base = base + i * st
        f = c - i
        fr.append((1.0 - f, f))
    step = [st if d > 1 else 0 for d, st in zip(dims, strides)]
    trail = (1,) * (values.ndim - 3)
    out = np.zeros(np.shape(base) + values.shape[3:], dtype=np.float64)
    for dx in (0, 1):
        for dy in (0, 1):
            wxy = fr[0][dx] * fr[1][dy]
            for dz in (0, 1):
                w = wxy * fr[2][dz]
                corner = flat.take(base + (dx * step[0] + dy * step[1] + dz * step[2]), axis=0)
                out += w.reshape(w.shape + trail) * corner
    return out


def sample_field(fld, points_mm):
    """Trilinearly sample a dense deformation field at physical points.

    Out-of-grid queries are clamped to the field boundary. Points are
    sampled in chunks of at most _CHUNK.
    """
    pts = np.asarray(points_mm, dtype=np.float64).reshape(-1, 3)
    out = np.empty((len(pts), 3), dtype=np.float64)
    for s in range(0, len(pts), _CHUNK):
        p = pts[s:s + _CHUNK]
        coords = [(p[:, a] - fld.origin[a]) / fld.spacing[a] for a in range(3)]
        out[s:s + _CHUNK] = _trilinear(fld.dense, coords)
    return out


# ---------------------------------------------------------------------------
# warping
# ---------------------------------------------------------------------------

def _sample_chunks(vol_like, fld):
    """Yield (slice, (cx, cy, cz)) for chunks of at most _CHUNK voxels in
    flat order: the slice of the chunk's voxels and the continuous voxel
    coordinates of x + d(x) at each of them."""
    dims = vol_like.dims
    if fld.dims != dims:
        raise ValueError(f"field dims {fld.dims} do not match volume dims {dims}")
    disp = fld.dense.reshape(-1, 3)
    for s in range(0, len(disp), _CHUNK):
        x = vol_like.voxel_points_mm(s, s + _CHUNK)
        x += disp[s:s + _CHUNK]
        x -= vol_like.origin
        x /= vol_like.spacing
        yield slice(s, s + _CHUNK), x.T


def _inside(coords, dims):
    """Which coordinates lie within [0, d - 1] on all three axes."""
    cx, cy, cz = coords
    return ((cx >= 0) & (cx <= dims[0] - 1)
            & (cy >= 0) & (cy <= dims[1] - 1)
            & (cz >= 0) & (cz <= dims[2] - 1))


def warp(vol, fld, fill_value=0.0):
    """Warp a volume: output(x) = vol(x + d(x)) via trilinear interpolation.

    Sample points falling outside the voxel-center box take `fill_value`.
    Voxels are warped in chunks of at most _CHUNK.
    """
    out = np.empty(math.prod(vol.dims), dtype=np.float32)
    for c, coords in _sample_chunks(vol, fld):
        # a float32 voxel times a float64 weight is the product of its
        # exact float64 value, so the data is never copied to float64
        out[c] = np.where(_inside(coords, vol.dims), _trilinear(vol.data, coords),
                          float(fill_value))
    return Volume(out.reshape(vol.dims), vol.spacing, vol.origin)


def warp_mask(mask, fld):
    """Warp a segmentation mask with nearest-neighbour sampling.

    Labels stay in the input label set; out-of-bounds samples take
    background (0). Voxels are warped in chunks of at most _CHUNK.
    """
    dims = mask.dims
    labels = mask.labels.reshape(-1)
    out = np.empty(len(labels), dtype=np.uint8)
    for c, coords in _sample_chunks(mask, fld):
        idx = [np.rint(x).astype(np.int64) for x in coords]
        inside = _inside(idx, dims)
        ix, iy, iz = (np.clip(i, 0, d - 1) for i, d in zip(idx, dims))
        flat = (ix * dims[1] + iy) * dims[2] + iz
        out[c] = np.where(inside, labels.take(flat), np.uint8(0))
    return SegmentationMask(out.reshape(dims), mask.spacing, mask.origin)


# ---------------------------------------------------------------------------
# tiles
# ---------------------------------------------------------------------------

def tile_owners(grid, like):
    """Per-axis index of the control point nearest each voxel centre of
    `like`, a midpoint going to the upper node: voxel (i, j, k) lies in the
    tile of node (owners[0][i], owners[1][j], owners[2][k]), so node tiles
    partition the volume, and padding nodes outside it own no voxel."""
    return [np.clip(np.floor((pos - o) / s + 0.5).astype(np.int64), 0, g - 1)
            for pos, o, s, g in zip(like.voxel_centers_mm(), grid.origin_mm,
                                    grid.spacing_mm, grid.grid_dims)]


# ---------------------------------------------------------------------------
# multi-resolution pyramid
# ---------------------------------------------------------------------------

_PAD_MODES = {"nearest": "edge", "reflect": "symmetric"}


def gaussian_smooth(data, sigma, mode):
    """Separable Gaussian smoothing of an array, axis 0 first, in float64.

    The values are those of scipy.ndimage.gaussian_filter(data, sigma,
    mode=mode) bit for bit: the kernel exp(-x^2 / 2 sigma^2) divided by its
    sum, radius int(4 sigma + 0.5), and on each axis the centre tap first,
    then (left + right) pairs from the outermost inward, as scipy's
    correlation of a symmetric kernel sums them. Beyond the edge, "nearest"
    repeats the edge voxel and "reflect" mirrors the data, edge included.
    A sigma of 1e-15 or less leaves the data as it is.
    """
    out = np.array(data, dtype=np.float64)
    if sigma <= 1e-15:
        return out
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = w / w.sum()
    for axis in range(out.ndim):
        n = out.shape[axis]
        widths = [(0, 0)] * out.ndim
        widths[axis] = (r, r)
        p = np.moveaxis(np.pad(out, widths, mode=_PAD_MODES[mode]), axis, 0)
        acc = p[r:r + n] * w[r]
        for j in range(r, 0, -1):
            acc += (p[r - j:r - j + n] + p[r + j:r + j + n]) * w[r - j]
        out = np.moveaxis(acc, 0, axis)
    return np.ascontiguousarray(out)


def downsample_volume(vol):
    """One factor-2 Gaussian pyramid step: smooth then take every other voxel."""
    sm = gaussian_smooth(vol.data, 1.0, "nearest")
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


def _write_raw(path, like, dtype, payload, components=1):
    """Write a header of `like`'s geometry and the raw payload beside it."""
    # the payload keeps the header's full name, so s.vol and s.msk never share one
    raw_name = os.path.basename(path) + ".raw"
    lines = [
        "dims: " + " ".join(str(d) for d in like.dims),
        "spacing: " + " ".join(repr(s) for s in like.spacing),
        "origin: " + " ".join(repr(o) for o in like.origin),
        f"dtype: {dtype}",
    ]
    if components != 1:
        lines.append(f"components: {components}")
    lines.append(f"data: {raw_name}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    payload.tofile(os.path.join(os.path.dirname(path), raw_name))


def _read_raw(path, record, dtypes):
    """Check a header file, load its payload and build `record` from both.

    A malformed header, a payload that does not match it, or a value the
    record refuses (spacing, origin, non-finite data) raises FormatError
    naming the file.
    """
    header = header_settings(path, read_settings(path, ":", FormatError),
                             ("dims", "spacing", "origin", "dtype", "data"), ("components",))
    components = math.prod(record._trailing)
    try:
        dims = tuple(int(x) for x in header["dims"].split())
        spacing = tuple(float(x) for x in header["spacing"].split())
        origin = tuple(float(x) for x in header["origin"].split())
        n_comp = int(header.get("components", "1"))
    except ValueError as e:
        raise FormatError(f"{path}: bad header value: {e}") from e
    if len(dims) != 3 or min(dims) < 1:
        raise FormatError(f"{path}: dims must be 3 entries >= 1, got {dims}")
    if header["dtype"] not in dtypes or n_comp != components:
        raise FormatError(f"{path}: {record.__name__} files must have dtype "
                          f"{' or '.join(dtypes)} and components={components}, "
                          f"got {header['dtype']} and {n_comp}")
    name = header["data"]
    # _write_raw names the payload by a plain file name next to the header;
    # anything else could point outside the header's directory
    if os.path.basename(name) != name or name in ("", ".", ".."):
        raise FormatError(f"{path}: data must be a file name in the header's directory, "
                          f"got {name!r}")
    raw_path = os.path.join(os.path.dirname(path), name)
    try:
        payload = np.fromfile(raw_path, dtype=_DTYPES[header["dtype"]])
    except OSError as e:
        raise FormatError(f"cannot read payload {raw_path}: {e}") from e
    shape = (components,) + dims
    if payload.size != math.prod(shape):
        raise FormatError(
            f"{raw_path}: payload has {payload.size} elements, expected {math.prod(shape)}"
        )
    # components vary fastest within a voxel, then x over voxels
    data = np.moveaxis(payload.reshape(shape, order="F"), 0, 3).reshape(dims + record._trailing)
    try:
        return record(data, spacing, origin)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e


def write_volume(path, vol):
    """Write a Volume as header + little-endian f32 raw, x-fastest order."""
    _write_raw(path, vol, "f32", vol.data.astype("<f4").ravel(order="F"))


def write_mask(path, mask):
    _write_raw(path, mask, "u8", mask.labels.astype("u1").ravel(order="F"))


def write_field(path, fld):
    """Write a deformation field: f32 raw with 3 components per voxel."""
    # component-fastest within each voxel, then x-fastest over voxels
    payload = np.moveaxis(fld.dense.astype("<f4"), 3, 0).ravel(order="F")
    _write_raw(path, fld, "f32", payload, components=3)


def read_volume(path):
    return _read_raw(path, Volume, ("f32", "u8"))


def read_mask(path):
    return _read_raw(path, SegmentationMask, ("u8",))


def read_field(path):
    return _read_raw(path, DeformationField, ("f32",))
