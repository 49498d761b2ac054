"""Reference count kernels: whole-volume shifts and gathered windows.

`mmreg.learn.loss_node_terms` counts overlaps only at target-foreground
voxels, each in the tile of its owner from `mmreg.volume.tile_owners`, and
`mmreg.metrics.dominant_class_table` reads window counts from summed-area
tables. The functions here take the long way: per-axis tile boundaries, one
shifted copy of the source mask per unique voxel shift with per-tile
cumulative sums, and one gathered label block per patch window. Both sides
count integers, so the tests pin the library tables to these bit for bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mmreg.metrics import _center_table, patch_radius


def tile_edges(grid, like):
    """Per-axis voxel-index boundaries assigning every voxel to its nearest
    control point, so node tiles partition the volume.

    Returns per-axis integer arrays `bounds[a]` of length grid_dims[a] + 1;
    node (ix, iy, iz) owns voxels [bounds[0][ix], bounds[0][ix+1]) x ... .
    Tiles of padding nodes outside the volume are empty.
    """
    bounds = []
    for a, pos in enumerate(like.voxel_centers_mm()):
        g = grid.grid_dims[a]
        # voxel v belongs to node argmin |pos(v) - node|; boundary between
        # nodes n and n+1 sits at the midpoint
        t = (pos - grid.origin_mm[a]) / grid.spacing_mm[a]
        owner = np.clip(np.floor(t + 0.5).astype(np.int64), 0, g - 1)
        b = np.searchsorted(owner, np.arange(g + 1), side="left")
        bounds.append(b)
    return bounds


def tile_sums(values, bounds):
    """Per-tile sums of a 3D array for the tile partition given by per-axis
    boundary index arrays; returns sums in node order (x-fastest)."""
    s = np.zeros(tuple(d + 1 for d in values.shape), dtype=np.int64)
    s[1:, 1:, 1:] = np.cumsum(np.cumsum(np.cumsum(values, axis=0), axis=1), axis=2)
    corner = s[np.ix_(bounds[0], bounds[1], bounds[2])]
    tiles = np.diff(np.diff(np.diff(corner, axis=0), axis=1), axis=2)
    return tiles.reshape(-1, order="F")


def shift_sample(arr, shift):
    """out[v] = arr[v + shift] with zero fill outside the array."""
    out = np.zeros_like(arr)
    src = []
    dst = []
    for a in range(3):
        s = int(shift[a])
        n = arr.shape[a]
        if abs(s) >= n:
            return out
        if s >= 0:
            dst.append(slice(0, n - s))
            src.append(slice(s, n))
        else:
            dst.append(slice(-s, n))
            src.append(slice(0, n + s))
    out[tuple(dst)] = arr[tuple(src)]
    return out


def loss_node_terms(src_mask, tgt_mask, grid, label_space):
    """(terms, d0) of the decomposable Dice loss from one whole-volume
    shift, AND and per-tile sum per unique voxel shift."""
    a = src_mask.labels > 0
    b = tgt_mask.labels > 0
    bounds = tile_edges(grid, src_mask)
    V = grid.n_nodes
    L = label_space.n_labels
    d0 = int(a.sum()) + int(b.sum())
    terms = np.zeros((V, L), dtype=np.float64)
    if d0 == 0:
        return terms, 0

    spacing = np.asarray(src_mask.spacing, dtype=np.float64)
    shifts = np.rint(label_space.displacements / spacing).astype(np.int64)
    uniq, inverse = np.unique(shifts, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    num = np.zeros((V, len(uniq)), dtype=np.int64)
    for k, sh in enumerate(uniq):
        shifted = shift_sample(a, sh)
        num[:, k] = tile_sums(shifted & b, bounds)
    terms = 1.0 / V - 2.0 * num[:, inverse] / d0
    return terms, d0


def gather_blocks(arr, corners, shape):
    """Copy same-shaped blocks out of a 3D array given their low corners."""
    view = sliding_window_view(arr, shape)
    return view[corners[:, 0], corners[:, 1], corners[:, 2]]


def dominant_class_table(src_mask, grid, label_space, n_classes):
    """(|V|, |L|) dominant classes from one gathered, background-padded
    label window per unique patch center."""
    radius = np.asarray(patch_radius(grid.spacing_mm, src_mask.spacing), dtype=np.int64)
    c_src, in_src, _, _ = _center_table(src_mask, grid, label_space)

    out = np.zeros((grid.n_nodes, label_space.n_labels), dtype=np.int64)
    vi, li = np.nonzero(in_src)
    if len(vi) == 0:
        return out
    flat, inverse = np.unique(np.ravel_multi_index(c_src[vi, li].T, src_mask.dims),
                              return_inverse=True)
    centers = np.stack(np.unravel_index(flat, src_mask.dims), axis=1)
    u_cls = np.zeros(len(centers), dtype=np.int64)
    # background padding gives every patch the full window: like cropping, it
    # adds nothing to the foreground counts, and one window shape needs one gather
    labels = np.pad(src_mask.labels, [(r, r) for r in radius])
    shape = tuple(int(x) for x in 2 * radius + 1)
    size = int(np.prod(shape))
    chunk = max(1, (1 << 22) // size)      # bounds each gather to ~4 MB of labels
    for s in range(0, len(centers), chunk):
        blocks = gather_blocks(labels, centers[s:s + chunk], shape).reshape(-1, size)
        # labels above n_classes count toward the top class
        fg = np.stack([np.count_nonzero(blocks == c, axis=1) for c in range(1, n_classes)]
                      + [np.count_nonzero(blocks >= n_classes, axis=1)], axis=1)
        u_cls[s:s + chunk] = np.where(fg.sum(axis=1) > 0, np.argmax(fg, axis=1) + 1, 0)

    out[vi, li] = u_cls[inverse]
    return out
