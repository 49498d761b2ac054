"""Reference samplers: the former whole-volume `warp`, `warp_mask` and
`sample_field` bodies.

`mmreg.volume.warp` and `mmreg.volume.sample_field` once ran their own
clamped 8-tap loops: `warp` clipped the cell index and the fraction,
`sample_field` clipped the coordinate. Both now call one kernel that clips
the coordinate, and all three samplers work through chunks of voxels or
points; they must return these values bit for bit.
"""

import numpy as np

from mmreg.volume import SegmentationMask, Volume


def _sample_coords(vol_like, fld):
    """Continuous voxel coordinates of x + d(x) for every voxel x."""
    dims = vol_like.dims
    if fld.dims != dims:
        raise ValueError(f"field dims {fld.dims} do not match volume dims {dims}")
    coords = []
    for a, x in enumerate(vol_like.voxel_centers_mm()):
        shape = [1, 1, 1]
        shape[a] = dims[a]
        coords.append((x.reshape(shape) + fld.dense[..., a] - vol_like.origin[a])
                      / vol_like.spacing[a])
    return coords


def sample_field_oracle(fld, points_mm):
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


def warp_oracle(vol, fld):
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
    out = np.where(inside, out, 0.0)
    return Volume(out.astype(np.float32), vol.spacing, vol.origin)


def warp_mask_oracle(mask, fld):
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
    out = np.where(inside, out, np.uint8(0))
    return SegmentationMask(out, mask.spacing, mask.origin)
