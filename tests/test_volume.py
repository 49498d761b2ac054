import os

import numpy as np
import pytest

from mmreg.volume import (
    ControlGrid,
    DeformationField,
    FormatError,
    LabelSpace,
    SegmentationMask,
    Volume,
    build_pyramid,
    ffd_evaluate,
    gaussian_smooth,
    interpolate_dense,
    make_control_grid,
    read_field,
    read_mask,
    read_volume,
    sample_field,
    tile_edges,
    warp,
    warp_mask,
    write_field,
    write_mask,
    write_volume,
)
from mmreg.volume import _spline_coords

from metric_oracle import extract_patch

import sampler_oracle


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def vol(rng):
    return Volume(rng.random((10, 9, 8)).astype(np.float32), (2.0, 2.0, 2.0))


def zero_field(vol):
    return DeformationField(
        dense=np.zeros(vol.dims + (3,)), spacing=vol.spacing, origin=vol.origin
    )


def corners(vol):
    """First and last voxel centre of `vol` in mm."""
    c = vol.voxel_centers_mm()
    return np.array([x[0] for x in c]), np.array([x[-1] for x in c])


def constant_field(vol, d):
    dense = np.broadcast_to(np.asarray(d, dtype=np.float64), vol.dims + (3,)).copy()
    return DeformationField(dense=dense, spacing=vol.spacing, origin=vol.origin)


class TestContainers:
    def test_volume_validation(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            Volume(np.zeros((4, 4, 4), dtype=np.float32), spacing=(1, 0, 1))

    RECORDS = {
        "volume": lambda spacing, origin: Volume(np.zeros((4, 3, 2)), spacing, origin),
        "mask": lambda spacing, origin: SegmentationMask(
            np.zeros((4, 3, 2), np.uint8), spacing, origin),
        "field": lambda spacing, origin: DeformationField(
            np.zeros((4, 3, 2, 3)), spacing, origin),
    }

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    @pytest.mark.parametrize("spacing, origin", [
        ((0.0, 1.0, 1.0), (0.0, 0.0, 0.0)), ((1.0, -1.0, 1.0), (0.0, 0.0, 0.0)),
        ((1.0, 1.0, np.nan), (0.0, 0.0, 0.0)), ((np.inf, 1.0, 1.0), (0.0, 0.0, 0.0)),
        ((1.0, 1.0, 1.0), (0.0, np.inf, 0.0)), ((1.0, 1.0, 1.0), (np.nan, 0.0, 0.0)),
    ], ids=["spacing_0", "spacing_negative", "spacing_nan", "spacing_inf", "origin_inf",
            "origin_nan"])
    def test_records_reject_bad_geometry(self, kind, spacing, origin):
        with pytest.raises(ValueError):
            self.RECORDS[kind](spacing, origin)
        assert self.RECORDS[kind]((1.0, 2.0, 3.0), (-1.0, 0.0, 1.0)).dims == (4, 3, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_float_records_reject_non_finite_data(self, value):
        data = np.zeros((4, 3, 2))
        data[1, 2, 1] = value
        with pytest.raises(ValueError, match="data contains NaN or inf"):
            Volume(data)
        dense = np.zeros((4, 3, 2, 3))
        dense[3, 0, 1, 2] = value
        with pytest.raises(ValueError, match="dense contains NaN or inf"):
            DeformationField(dense, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))

    def test_records_are_read_only(self, vol):
        mask = SegmentationMask(np.zeros(vol.dims, np.uint8), vol.spacing)
        for arr in (vol.data, mask.labels, zero_field(vol).dense):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1

    def test_mask_classes(self):
        m = SegmentationMask(np.array([[[0, 1], [2, 2]]], dtype=np.uint8))
        assert m.class_ids() == [1, 2]

    def test_grid_edge_count(self, vol):
        grid = make_control_grid(vol, 6.0)
        gx, gy, gz = grid.grid_dims
        expected = (gx - 1) * gy * gz + gx * (gy - 1) * gz + gx * gy * (gz - 1)
        assert len(grid.edges) == expected

    def test_grid_covers_volume(self, vol):
        grid = make_control_grid(vol, 6.0)
        lo, hi = corners(vol)
        pts = grid.points
        assert np.all(pts.min(axis=0) <= lo)
        assert np.all(pts.max(axis=0) >= hi)

    def test_label_space_zero_first(self):
        with pytest.raises(ValueError):
            LabelSpace(np.array([[1.0, 0, 0], [0, 0, 0]]))


class TestFfdInterpolation:
    def test_zero_field(self, vol):
        grid = make_control_grid(vol, 8.0)
        fld = interpolate_dense(grid, np.zeros((grid.n_nodes, 3)), vol)
        assert np.all(fld.dense == 0.0)

    def test_partition_of_unity(self, vol):
        grid = make_control_grid(vol, 8.0)
        sparse = np.tile([5.0, -3.0, 2.0], (grid.n_nodes, 1))
        fld = interpolate_dense(grid, sparse, vol)
        assert np.abs(fld.dense - [5.0, -3.0, 2.0]).max() < 1e-6

    def test_single_point_central_weight(self):
        # geometry chosen so one control point coincides with voxel (8,8,8)
        vol = Volume(np.zeros((17, 17, 17), dtype=np.float32), (1.0, 1.0, 1.0))
        grid = make_control_grid(vol, 4.0)
        pts = grid.points
        node = int(np.nonzero(np.all(pts == [8.0, 8.0, 8.0], axis=1))[0][0])
        sparse = np.zeros((grid.n_nodes, 3))
        sparse[node] = [3.0, 0.0, 0.0]
        fld = interpolate_dense(grid, sparse, vol)
        expected = _bspline_tensor_oracle(grid, sparse, np.array([8.0, 8.0, 8.0]))
        assert fld.dense[8, 8, 8, 0] == pytest.approx(expected[0], abs=1e-12)
        assert expected[0] == pytest.approx((2.0 / 3.0) ** 3 * 3.0, abs=1e-12)

    def test_matches_pointwise_oracle(self, vol, rng):
        grid = make_control_grid(vol, 8.0)
        sparse = rng.uniform(-3, 3, (grid.n_nodes, 3))
        fld = interpolate_dense(grid, sparse, vol)
        for _ in range(20):
            idx = tuple(rng.integers(0, d) for d in vol.dims)
            p = np.array([vol.origin[a] + idx[a] * vol.spacing[a] for a in range(3)])
            expected = _bspline_tensor_oracle(grid, sparse, p)
            assert np.allclose(fld.dense[idx], expected, atol=1e-10)

    def test_ffd_evaluate_matches_dense(self, vol, rng):
        grid = make_control_grid(vol, 8.0)
        sparse = rng.uniform(-3, 3, (grid.n_nodes, 3))
        fld = interpolate_dense(grid, sparse, vol)
        pts = np.stack(np.meshgrid(*vol.voxel_centers_mm(), indexing="ij"), axis=-1).reshape(-1, 3)
        out = ffd_evaluate(grid, sparse, pts).reshape(vol.dims + (3,))
        assert np.allclose(out, fld.dense, atol=1e-10)

    def test_length_mismatch(self, vol):
        grid = make_control_grid(vol, 8.0)
        with pytest.raises(ValueError):
            interpolate_dense(grid, np.zeros((grid.n_nodes - 1, 3)), vol)


def _ffd_gather_oracle(grid, sparse_disp, points_mm):
    """ffd_evaluate with one (ix, iy, iz) fancy gather per tap: the same
    arithmetic in the same order, so it must agree bit for bit."""
    pts = np.asarray(points_mm, dtype=np.float64).reshape(-1, 3)
    gx, gy, gz = grid.grid_dims
    ctrl = np.asarray(sparse_disp, dtype=np.float64).reshape(gx, gy, gz, 3, order="F")
    out = np.zeros((pts.shape[0], 3), dtype=np.float64)
    chunk = 1 << 16
    for s in range(0, pts.shape[0], chunk):
        p = pts[s:s + chunk]
        cx, wx = _spline_coords(grid, p[:, 0], 0)
        cy, wy = _spline_coords(grid, p[:, 1], 1)
        cz, wz = _spline_coords(grid, p[:, 2], 2)
        acc = np.zeros((p.shape[0], 3), dtype=np.float64)
        for a in range(4):
            ix = cx - 1 + a
            for b in range(4):
                iy = cy - 1 + b
                wab = wx[:, a] * wy[:, b]
                for c in range(4):
                    iz = cz - 1 + c
                    w = wab * wz[:, c]
                    acc += w[:, None] * ctrl[ix, iy, iz]
        out[s:s + chunk] = acc
    return out


class TestFfdEvaluateBitExact:
    @pytest.fixture
    def grid(self, vol):
        return make_control_grid(vol, 8.0)

    def check(self, grid, pts, rng):
        sparse = rng.uniform(-3, 3, (grid.n_nodes, 3))
        out = ffd_evaluate(grid, sparse, pts)
        assert out.shape == (len(pts), 3)
        assert out.tobytes() == _ffd_gather_oracle(grid, sparse, pts).tobytes()

    def test_random_off_grid_points(self, vol, grid, rng):
        lo, hi = corners(vol)
        self.check(grid, rng.uniform(lo, hi, (500, 3)), rng)

    def test_points_outside_support_are_clamped(self, grid, rng):
        lo = np.asarray(grid.origin_mm)
        hi = lo + (np.asarray(grid.grid_dims) - 1) * np.asarray(grid.spacing_mm)
        pts = rng.uniform(lo - 50.0, hi + 50.0, (500, 3))
        pts[:6] = [lo - 1e6, hi + 1e6, lo, hi, lo - 1.0, hi + 1.0]
        assert np.any(pts < lo) and np.any(pts > hi)
        self.check(grid, pts, rng)

    def test_crosses_chunk_boundary(self, vol, grid, rng):
        lo, hi = corners(vol)
        self.check(grid, rng.uniform(lo, hi, ((1 << 16) + 1000, 3)), rng)

    def test_non_cubic_grid(self, rng):
        grid = ControlGrid((5, 7, 9), (3.0, 2.0, 1.5), (-3.0, 1.0, -2.0))
        lo = np.asarray(grid.origin_mm)
        hi = lo + (np.asarray(grid.grid_dims) - 1) * np.asarray(grid.spacing_mm)
        self.check(grid, rng.uniform(lo - 2.0, hi + 2.0, (2000, 3)), rng)


class TestFfdEvaluateMovedSupport:
    """ffd_evaluate reads only moved control points (nonzero displacement);
    it must still equal the full 64-tap sum byte for byte, signed zeros
    included. TestFfdEvaluateBitExact covers fields where every node moved."""

    GRID = ControlGrid((10, 10, 10), (4.0, 4.0, 4.0), (0.0, 0.0, 0.0))

    def points(self, grid, rng, n, margin=0.0):
        lo = np.asarray(grid.origin_mm)
        hi = lo + (np.asarray(grid.grid_dims) - 1) * np.asarray(grid.spacing_mm)
        return rng.uniform(lo - margin, hi + margin, (n, 3))

    def check(self, grid, sparse, pts):
        out = ffd_evaluate(grid, sparse, pts)
        assert out.tobytes() == _ffd_gather_oracle(grid, sparse, pts).tobytes()
        return out

    def one_node(self, grid, ix, iy, iz, d=(1.5, -0.75, 2.25)):
        sparse = np.zeros((grid.n_nodes, 3))
        sparse[grid.node_index(ix, iy, iz)] = d
        return sparse

    def test_all_zero_field(self, rng):
        pts = self.points(self.GRID, rng, 3000)
        out = self.check(self.GRID, np.zeros((self.GRID.n_nodes, 3)), pts)
        assert not np.signbit(out).any() and not out.any()

    @pytest.mark.parametrize("node", [(4, 5, 3), (0, 0, 0), (9, 9, 9), (0, 4, 6), (5, 9, 2)])
    def test_one_moved_node(self, rng, node):
        # interior, both grid corners, and padding nodes on two faces
        out = self.check(self.GRID, self.one_node(self.GRID, *node),
                         self.points(self.GRID, rng, 5000, margin=2.0))
        assert out.any()

    def test_zero_rows_and_negative_zeros(self, rng):
        # nodes with ix < 5 are unmoved: rows of +0.0, of -0.0, or mixed;
        # the moved nodes carry some -0.0 components
        V = self.GRID.n_nodes
        sparse = rng.uniform(-3, 3, (V, 3))
        sparse[rng.random((V, 3)) < 0.3] = -0.0
        unmoved = np.arange(V) % 10 < 5
        sparse[unmoved & (rng.random(V) < 0.5)] = 0.0
        sparse[unmoved & (rng.random(V) < 0.3)] = -0.0
        sparse[unmoved] *= np.where(rng.random((V, 3)) < 0.5, 0.0, -0.0)[unmoved]
        assert np.signbit(sparse[unmoved]).any() and not sparse[unmoved].any()
        out = self.check(self.GRID, sparse, self.points(self.GRID, rng, 5000))
        # points whose support holds only unmoved nodes get +0.0
        assert (out == 0.0).any() and not np.signbit(out[out == 0.0]).any()

    def test_moved_support_only_in_last_chunk(self, rng):
        # node (8, 8, 8) moves; its supports start at nodes 5..6 per axis,
        # i.e. at coordinates >= 24 mm, which only the tail points reach
        n = (1 << 16) + 300
        pts = rng.uniform(4.0, 20.0, (n, 3))
        pts[-300:] = rng.uniform(24.5, 31.5, (300, 3))
        out = self.check(self.GRID, self.one_node(self.GRID, 8, 8, 8), pts)
        assert not out[:1 << 16].any() and np.all(out[-300:] != 0.0)

    def test_clamped_points_outside_support(self, rng):
        sparse = self.one_node(self.GRID, 2, 1, 8) + self.one_node(self.GRID, 7, 8, 1)
        pts = self.points(self.GRID, rng, 3000, margin=40.0)
        pts[:4] = [[-1e6, -1e6, 1e6], [1e6, 1e6, -1e6], [-5.0, 50.0, 17.0], [50.0, -5.0, 17.0]]
        out = self.check(self.GRID, sparse, pts)
        assert out[:2].any()

    def test_non_cubic_grid(self, rng):
        grid = ControlGrid((5, 7, 9), (3.0, 2.0, 1.5), (-3.0, 1.0, -2.0))
        sparse = np.zeros((grid.n_nodes, 3))
        moved = rng.choice(grid.n_nodes, 12, replace=False)
        sparse[moved] = rng.uniform(-2, 2, (12, 3))
        self.check(grid, sparse, self.points(grid, rng, 4000, margin=2.0))


class TestSampleField:
    # a field linear in x, y and z, which trilinear sampling reproduces exactly
    A = np.array([[0.5, -1.25, 2.0], [1.5, 0.75, -0.5], [-2.0, 0.25, 1.0]])
    C = np.array([3.0, -1.0, 0.5])

    @pytest.fixture
    def fld(self):
        spacing, origin = (1.5, 2.0, 2.5), (-3.0, 1.0, 2.0)
        axes = [origin[a] + np.arange(n) * spacing[a] for a, n in enumerate((6, 5, 4))]
        pos = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return DeformationField(dense=pos @ self.A.T + self.C, spacing=spacing, origin=origin)

    def extent(self, fld):
        lo = np.asarray(fld.origin)
        return lo, lo + (np.asarray(fld.dims) - 1) * np.asarray(fld.spacing)

    def test_linear_field_exact_inside(self, fld, rng):
        lo, hi = self.extent(fld)
        pts = rng.uniform(lo, hi, (200, 3))
        assert np.abs(sample_field(fld, pts) - (pts @ self.A.T + self.C)).max() < 1e-12

    def test_outside_takes_boundary_value(self, fld, rng):
        lo, hi = self.extent(fld)
        pts = rng.uniform(lo - 10.0, hi + 10.0, (200, 3))
        assert np.any(pts < lo) and np.any(pts > hi)
        clamped = np.clip(pts, lo, hi)
        assert np.abs(sample_field(fld, pts) - (clamped @ self.A.T + self.C)).max() < 1e-12


def _bspline_tensor_oracle(grid, sparse, point_mm):
    """Independent scalar evaluation: explicit basis polynomials, full sum."""

    def basis(u):
        return [
            (1 - u) ** 3 / 6.0,
            (3 * u ** 3 - 6 * u ** 2 + 4) / 6.0,
            (-3 * u ** 3 + 3 * u ** 2 + 3 * u + 1) / 6.0,
            u ** 3 / 6.0,
        ]

    gx, gy, gz = grid.grid_dims
    out = np.zeros(3)
    cells = []
    ws = []
    for a in range(3):
        t = (point_mm[a] - grid.origin_mm[a]) / grid.spacing_mm[a]
        c = int(np.floor(t))
        cells.append(c)
        ws.append(basis(t - c))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                node = (
                    (cells[0] - 1 + i)
                    + gx * ((cells[1] - 1 + j) + gy * (cells[2] - 1 + k))
                )
                out += ws[0][i] * ws[1][j] * ws[2][k] * sparse[node]
    return out


class TestWarp:
    def test_zero_field_identity(self, vol):
        assert np.array_equal(warp(vol, zero_field(vol)).data, vol.data)

    def test_integral_shift(self, vol):
        fld = constant_field(vol, (2.0, 0.0, 0.0))   # exactly one voxel
        out = warp(vol, fld)
        assert np.allclose(out.data[:-1], vol.data[1:], atol=1e-6)
        assert np.all(out.data[-1] == 0.0)

    def test_fill_value(self, vol):
        fld = constant_field(vol, (2.0, 0.0, 0.0))
        out = warp(vol, fld, fill_value=-7.0)
        assert np.all(out.data[-1] == -7.0)

    def test_half_voxel_against_oracle(self, vol):
        fld = constant_field(vol, (1.0, 0.0, 0.0))   # half a voxel
        out = warp(vol, fld)
        data = vol.data.astype(np.float64)
        expected = 0.5 * (data[:-1] + data[1:])
        assert np.allclose(out.data[:-1], expected, atol=1e-6)

    def test_random_field_against_pointwise_oracle(self, vol, rng):
        dense = rng.uniform(-3, 3, vol.dims + (3,))
        fld = DeformationField(dense=dense, spacing=vol.spacing, origin=vol.origin)
        out = warp(vol, fld)
        data = vol.data.astype(np.float64)
        for _ in range(30):
            idx = tuple(rng.integers(0, d) for d in vol.dims)
            c = [idx[a] + dense[idx][a] / vol.spacing[a] for a in range(3)]
            if any(c[a] < 0 or c[a] > vol.dims[a] - 1 for a in range(3)):
                assert out.data[idx] == 0.0
                continue
            lo = [min(int(np.floor(c[a])), vol.dims[a] - 2) for a in range(3)]
            f = [c[a] - lo[a] for a in range(3)]
            acc = 0.0
            for dx in (0, 1):
                for dy in (0, 1):
                    for dz in (0, 1):
                        wgt = (
                            (f[0] if dx else 1 - f[0])
                            * (f[1] if dy else 1 - f[1])
                            * (f[2] if dz else 1 - f[2])
                        )
                        acc += wgt * data[lo[0] + dx, lo[1] + dy, lo[2] + dz]
            assert out.data[idx] == pytest.approx(acc, abs=1e-5)

    def test_missing_dense_field(self, vol):
        # control-point displacements are not a field until interpolate_dense
        with pytest.raises(ValueError):
            DeformationField(np.zeros((8, 3)), vol.spacing, vol.origin)

    def test_dim_mismatch(self, vol):
        small = Volume(np.zeros((4, 4, 4), dtype=np.float32), vol.spacing)
        with pytest.raises(ValueError):
            warp(vol, zero_field(small))



class TestTrilinearBitExact:
    """warp and sample_field share one kernel; both must equal their former
    separate bodies (tests/sampler_oracle.py) bit for bit."""

    @staticmethod
    def geometry(rng, i):
        dims = tuple(int(d) for d in rng.integers(1, 7, 3))
        if i % 3 == 0:
            dims = dims[:i % 2] + (1,) + dims[i % 2 + 1:]      # an axis of length 1
        spacing = tuple(rng.uniform(0.5, 3.0, 3))
        origin = tuple(rng.uniform(-5.0, 5.0, 3))
        return dims, spacing, origin

    @pytest.mark.parametrize("i", range(30))
    def test_matches_former_bodies(self, i):
        rng = np.random.default_rng(100 + i)
        dims, spacing, origin = self.geometry(rng, i)
        extent = (np.asarray(dims) - 1) * np.asarray(spacing)
        vol = Volume(rng.random(dims).astype(np.float32), spacing, origin)
        scale = 0.5 * max(float(extent.max()), 1.0)
        dense = rng.uniform(-scale, scale, dims + (3,))
        if i % 5 == 0:
            dense[..., 0] = 0.0             # samples on the voxel grid along x
        fld = DeformationField(dense=dense, spacing=spacing, origin=origin)
        fill = float(rng.uniform(-2.0, 2.0))
        assert np.array_equal(warp(vol, fld, fill).data,
                              sampler_oracle.warp_oracle(vol, fld, fill).data)
        pts = rng.uniform(np.asarray(origin) - 3.0, np.asarray(origin) + extent + 3.0, (300, 3))
        assert np.array_equal(sample_field(fld, pts), sampler_oracle.sample_field_oracle(fld, pts))

class TestWarpMask:
    def test_zero_field_identity(self, rng):
        mask = SegmentationMask((rng.random((6, 7, 8)) > 0.5).astype(np.uint8) * 3, (1, 1, 1))
        out = warp_mask(mask, zero_field(mask))
        assert np.array_equal(out.labels, mask.labels)

    def test_integral_shift(self, rng):
        mask = SegmentationMask(rng.integers(0, 3, (6, 7, 8)).astype(np.uint8), (2, 2, 2))
        out = warp_mask(mask, constant_field(mask, (2.0, 0.0, 0.0)))
        assert np.array_equal(out.labels[:-1], mask.labels[1:])
        assert np.all(out.labels[-1] == 0)

    def test_label_closure(self, rng):
        mask = SegmentationMask((rng.random((6, 7, 8)) > 0.6).astype(np.uint8) * 2, (2, 2, 2))
        dense = rng.uniform(-4, 4, mask.dims + (3,))
        fld = DeformationField(dense=dense, spacing=mask.spacing, origin=mask.origin)
        out = warp_mask(mask, fld)
        assert set(np.unique(out.labels)) <= {0, 2}


class TestExtractPatch:
    def test_center_extent_zero(self, vol):
        center = [vol.origin[a] + 4 * vol.spacing[a] for a in range(3)]
        p = extract_patch(vol, center, 0)
        assert p.n_voxels == 1
        assert p.data[0, 0, 0] == vol.data[4, 4, 4]

    def test_corner_crop(self, vol):
        p = extract_patch(vol, vol.origin, 3)
        assert p.data.shape == (4, 4, 4)
        assert p.left == (0, 0, 0) and p.right == (3, 3, 3)

    def test_near_face_crop(self, vol):
        nx = vol.dims[0]
        center = [vol.origin[0] + (nx - 3) * vol.spacing[0], vol.origin[1] + 8.0, vol.origin[2] + 8.0]
        p = extract_patch(vol, center, 3)
        assert p.data.shape[0] == 6       # 3 left + center + 2 right

    def test_outside_is_empty(self, vol):
        p = extract_patch(vol, (-5.0, 0.0, 0.0), 2)
        assert p.is_empty

    def test_exhaustive_crop_arithmetic(self):
        vol = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1.0, 1.0, 1.0))
        for ext in (0, 1, 2, 3):
            for cx in range(8):
                for cy in range(8):
                    p = extract_patch(vol, (cx, cy, 4.0), ext)
                    wx = min(cx + ext, 7) - max(cx - ext, 0) + 1
                    wy = min(cy + ext, 7) - max(cy - ext, 0) + 1
                    wz = min(4 + ext, 7) - max(4 - ext, 0) + 1
                    assert p.n_voxels == wx * wy * wz


class TestTiles:
    def test_tiles_partition_volume(self, vol):
        grid = make_control_grid(vol, 7.0)
        bounds = tile_edges(grid, vol)
        cover = np.zeros(vol.dims, dtype=int)
        for cell in np.ndindex(*grid.grid_dims):
            cover[tuple(slice(b[i], b[i + 1]) for b, i in zip(bounds, cell))] += 1
        assert np.all(cover == 1)


class TestPyramid:
    def test_downsample_dims_spacing(self, vol):
        pyr = build_pyramid(vol, 2)
        assert pyr[1].dims == tuple(-(-d // 2) for d in vol.dims)
        assert pyr[1].spacing == tuple(2 * s for s in vol.spacing)

    def test_mask_pyramid_labels(self, rng):
        mask = SegmentationMask(rng.integers(0, 4, (9, 8, 7)).astype(np.uint8), (1, 1, 1))
        pyr = build_pyramid(mask, 2)
        assert set(np.unique(pyr[1].labels)) <= set(np.unique(mask.labels))


    @pytest.mark.parametrize("dims, sigma, mode", [
        ((64, 64, 64), 1.0, "nearest"), ((48, 48, 40), 1.5, "reflect"),
        ((48, 48, 40), 1.0, "nearest"), ((7, 5, 3), 1.0, "nearest"),
        ((7, 5, 3), 1.5, "reflect"), ((3, 2, 9), 1.0, "nearest"),
        ((3, 2, 9), 2.2, "reflect"), ((1, 2, 3), 3.3, "reflect"),
        ((1, 2, 3), 3.3, "nearest"), ((12, 1, 10), 0.4, "reflect"),
        ((6, 5, 4), 1e-16, "reflect"), ((6, 5, 4), -1.0, "nearest"),
    ])
    def test_gaussian_smooth_equals_scipy(self, dims, sigma, mode):
        from scipy.ndimage import gaussian_filter

        data = np.random.default_rng(len(dims) + dims[0]).standard_normal(dims)
        for x in (data, data.astype(np.float32)):
            want = gaussian_filter(x.astype(np.float64), sigma, mode=mode)
            got = gaussian_smooth(x, sigma, mode)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        assert gaussian_smooth(data, sigma, mode) is not data


class TestRawFileFormat:
    def test_volume_roundtrip(self, tmp_path, vol):
        path = os.path.join(tmp_path, "vol.vol")
        write_volume(path, vol)
        back = read_volume(path)
        assert np.array_equal(back.data, vol.data)
        assert back.spacing == vol.spacing and back.origin == vol.origin

    def test_payload_is_x_fastest(self, tmp_path, vol):
        path = os.path.join(tmp_path, "vol.vol")
        write_volume(path, vol)
        with open(path) as f:
            name = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("data:")][0]
        raw = np.fromfile(os.path.join(tmp_path, name), dtype="<f4")
        # first nx entries run along x at y=z=0
        assert np.array_equal(raw[: vol.dims[0]], vol.data[:, 0, 0])

    def test_mask_roundtrip(self, tmp_path, rng):
        mask = SegmentationMask(rng.integers(0, 5, (5, 6, 7)).astype(np.uint8), (1, 2, 3), (0, -4, 2))
        path = os.path.join(tmp_path, "m.msk")
        write_mask(path, mask)
        back = read_mask(path)
        assert np.array_equal(back.labels, mask.labels)
        assert back.spacing == mask.spacing and back.origin == mask.origin

    def test_field_roundtrip(self, tmp_path, vol, rng):
        dense = rng.uniform(-5, 5, vol.dims + (3,)).astype(np.float32).astype(np.float64)
        fld = DeformationField(dense=dense, spacing=vol.spacing, origin=vol.origin)
        path = os.path.join(tmp_path, "f.fld")
        write_field(path, fld)
        back = read_field(path)
        assert np.array_equal(back.dense, dense)

    def test_field_and_volume_with_one_stem(self, tmp_path, vol, rng):
        dense = rng.uniform(-5, 5, vol.dims + (3,)).astype(np.float32).astype(np.float64)
        fld = DeformationField(dense=dense, spacing=vol.spacing, origin=vol.origin)
        write_field(os.path.join(tmp_path, "r.fld"), fld)
        write_volume(os.path.join(tmp_path, "r.vol"), vol)
        assert np.array_equal(read_field(os.path.join(tmp_path, "r.fld")).dense, dense)
        assert np.array_equal(read_volume(os.path.join(tmp_path, "r.vol")).data, vol.data)

    def test_volume_and_mask_with_one_stem(self, tmp_path, vol, rng):
        mask = SegmentationMask(rng.integers(0, 5, vol.dims).astype(np.uint8), vol.spacing)
        write_volume(os.path.join(tmp_path, "s.vol"), vol)
        write_mask(os.path.join(tmp_path, "s.msk"), mask)
        assert np.array_equal(read_volume(os.path.join(tmp_path, "s.vol")).data, vol.data)
        assert np.array_equal(read_mask(os.path.join(tmp_path, "s.msk")).labels, mask.labels)

    def test_missing_header_key(self, tmp_path):
        path = os.path.join(tmp_path, "bad.vol")
        with open(path, "w") as f:
            f.write("dims: 2 2 2\nspacing: 1 1 1\ndtype: f32\ndata: bad.raw\n")
        with pytest.raises(FormatError):
            read_volume(path)

    def test_wrong_payload_size(self, tmp_path):
        path = os.path.join(tmp_path, "bad.vol")
        with open(path, "w") as f:
            f.write("dims: 2 2 2\nspacing: 1 1 1\norigin: 0 0 0\ndtype: f32\ndata: bad.raw\n")
        np.zeros(5, dtype="<f4").tofile(os.path.join(tmp_path, "bad.raw"))
        with pytest.raises(FormatError):
            read_volume(path)

    @pytest.mark.parametrize("kind", ["volume", "mask", "field"])
    @pytest.mark.parametrize("key, value", [
        ("dims", "0 4 4"), ("spacing", "0.0 4.0 4.0"), ("spacing", "-1.0 4.0 4.0"),
        ("spacing", "nan 4.0 4.0"), ("spacing", "4.0 inf 4.0"), ("origin", "inf 0.0 0.0"),
        ("origin", "0.0 nan 0.0"),
    ])
    def test_bad_header_value_is_format_error(self, tmp_path, rng, kind, key, value):
        labels = rng.integers(0, 3, (4, 4, 4)).astype(np.uint8)
        write, read, obj = {
            "volume": (write_volume, read_volume, Volume(labels, (4.0, 4.0, 4.0))),
            "mask": (write_mask, read_mask, SegmentationMask(labels, (4.0, 4.0, 4.0))),
            "field": (write_field, read_field, DeformationField(
                dense=rng.random((4, 4, 4, 3)), spacing=(4.0, 4.0, 4.0), origin=(0.0, 0.0, 0.0))),
        }[kind]
        path = os.path.join(tmp_path, "x.hdr")
        write(path, obj)
        with open(path) as f:
            lines = [f"{key}: {value}" if ln.startswith(key + ":") else ln
                     for ln in f.read().splitlines()]
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        if key == "dims":
            open(path + ".raw", "w").close()    # a payload that matches the dims
        with pytest.raises(FormatError):
            read(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["volume", "field"])
    def test_non_finite_payload_is_format_error(self, tmp_path, vol, kind, value):
        path = os.path.join(tmp_path, "x.hdr")
        if kind == "volume":
            write_volume(path, vol)
        else:
            write_field(path, zero_field(vol))
        payload = np.fromfile(path + ".raw", dtype="<f4")
        payload[7] = value
        payload.tofile(path + ".raw")
        with pytest.raises(FormatError, match="contains NaN or inf"):
            {"volume": read_volume, "field": read_field}[kind](path)

    @pytest.mark.parametrize("data", ["{abs}", "../vol.raw", "inner/vol.raw", "..", ""])
    def test_payload_outside_header_directory_rejected(self, tmp_path, data):
        # every name resolves to a readable payload of the right size, so
        # only the name itself can be refused
        hdr_dir = tmp_path / "hdr"
        (hdr_dir / "inner").mkdir(parents=True)
        for raw in (tmp_path / "vol.raw", hdr_dir / "inner" / "vol.raw"):
            np.zeros(8, dtype="<f4").tofile(str(raw))
        data = data.format(abs=tmp_path / "vol.raw")
        path = os.path.join(hdr_dir, "bad.vol")
        with open(path, "w") as f:
            f.write(f"dims: 2 2 2\nspacing: 1 1 1\norigin: 0 0 0\ndtype: f32\ndata: {data}\n")
        with pytest.raises(FormatError):
            read_volume(path)
