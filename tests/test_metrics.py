import numpy as np
import pytest

from mmreg import graphreg as gr
from mmreg import metrics as me
from mmreg.synth import SynthSpec, synth_dataset
from mmreg.volume import FormatError, LabelSpace, SegmentationMask, Volume, make_control_grid

import count_oracle
import feature_oracle
import metric_oracle as mo
from metric_oracle import Patch, extract_patch


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def patch_from(arr):
    arr = np.asarray(arr, dtype=np.float64)
    r = tuple((s - 1) // 2 for s in arr.shape)
    return Patch(arr, r, tuple(arr.shape[a] - 1 - r[a] for a in range(3)), None)


class TestComputeMetric:
    def test_identical_patches(self, rng):
        a = patch_from(rng.random((6, 6, 6)))
        assert mo.compute_metric("SAD", a, a) == 0.0
        assert mo.compute_metric("NCC", a, a) == 0.0
        assert mo.compute_metric("DWT", a, a) == 0.0

    def test_ncc_affine_invariance(self, rng):
        a = rng.random((6, 6, 6))
        pa = patch_from(a)
        pb = patch_from(2.0 * a + 3.0)
        assert mo.compute_metric("NCC", pa, pb) == pytest.approx(0.0, abs=1e-12)
        assert mo.compute_metric("SAD", pa, pb) > 0.0

    def test_ncc_degenerate_variance(self, rng):
        const = patch_from(np.full((4, 4, 4), 2.5))
        other = patch_from(rng.random((4, 4, 4)))
        assert mo.compute_metric("NCC", const, other) == 1.0

    def test_random_patches_against_straight_loops(self, rng):
        for _ in range(10):
            a = rng.random((8, 8, 8))
            b = rng.random((8, 8, 8))
            pa, pb = patch_from(a), patch_from(b)

            assert mo.compute_metric("SAD", pa, pb) == pytest.approx(
                _sad_loop(a, b), abs=1e-12
            )
            assert mo.compute_metric("NCC", pa, pb) == pytest.approx(
                _ncc_loop(a, b), abs=1e-12
            )
            assert mo.compute_metric("MI", pa, pb) == pytest.approx(
                _mi_loop(a, b, me.MI_BINS), abs=1e-12
            )
            assert mo.compute_metric("DWT", pa, pb) == pytest.approx(
                _dwt_loop(a, b), abs=1e-12
            )
            # independent random patches barely correlate
            assert abs(1.0 - mo.compute_metric("NCC", pa, pb)) < 0.3

    def test_common_crop_intersection(self, rng):
        a = rng.random((5, 5, 5))
        b = rng.random((3, 5, 5))
        pa = Patch(a, (2, 2, 2), (2, 2, 2), None)
        pb = Patch(b, (0, 2, 2), (2, 2, 2), None)   # cropped on the left in x
        expected = _sad_loop(a[2:, :, :], b)
        assert mo.compute_metric("SAD", pa, pb) == pytest.approx(expected, abs=1e-12)

    def test_empty_patch_cost(self, rng):
        a = patch_from(rng.random((3, 3, 3)))
        assert mo.compute_metric("SAD", a, Patch()) == me.EMPTY_COST

    def test_nonfinite_rejected(self):
        bad = np.full((3, 3, 3), np.nan)
        with pytest.raises(ValueError):
            mo.compute_metric("SAD", patch_from(bad), patch_from(np.zeros((3, 3, 3))))

    def test_unknown_metric(self, rng):
        a = patch_from(rng.random((3, 3, 3)))
        with pytest.raises(ValueError):
            mo.compute_metric("SSIM", a, a)

    def test_dissimilarity_ordering_under_permutation(self, rng):
        # a perfectly corresponding pair scores no worse than a permuted one
        for trial in range(50):
            a = rng.random((6, 6, 6))
            b = a + rng.normal(0, 0.01, a.shape)
            perm = rng.permutation(b.ravel()).reshape(b.shape)
            pa, pb, pp = patch_from(a), patch_from(b), patch_from(perm)
            for name in me.METRIC_NAMES:
                good = mo.compute_metric(name, pa, pb)
                bad = mo.compute_metric(name, pa, pp)
                assert good <= bad + 1e-9, (name, trial)


def _sad_loop(a, b):
    total = 0.0
    for x, y in zip(a.ravel(), b.ravel()):
        total += abs(x - y)
    return total / a.size


def _ncc_loop(a, b):
    am = a.ravel() - a.mean()
    bm = b.ravel() - b.mean()
    va = (am * am).mean()
    vb = (bm * bm).mean()
    if va == 0 or vb == 0:
        return 1.0
    return 1.0 - (am * bm).mean() / np.sqrt(va * vb)


def _mi_loop(a, b, bins):
    def bin_of(x, lo, hi):
        if hi == lo:
            return 0
        return min(int((x - lo) / (hi - lo) * bins), bins - 1)

    joint = np.zeros((bins, bins))
    alo, ahi = a.min(), a.max()
    blo, bhi = b.min(), b.max()
    for x, y in zip(a.ravel(), b.ravel()):
        joint[bin_of(x, alo, ahi), bin_of(y, blo, bhi)] += 1
    joint /= joint.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)

    def H(p):
        p = p[p > 0]
        return -(p * np.log(p)).sum()

    mi = H(pa) + H(pb) - H(joint.ravel())
    return np.log(bins) - mi


def _dwt_loop(a, b):
    def approx(v):
        sx, sy, sz = (2 * (s // 2) for s in v.shape)
        out = np.zeros((sx // 2, sy // 2, sz // 2))
        for i in range(sx // 2):
            for j in range(sy // 2):
                for k in range(sz // 2):
                    out[i, j, k] = v[2 * i:2 * i + 2, 2 * j:2 * j + 2, 2 * k:2 * k + 2].sum()
        return out / (2.0 * np.sqrt(2.0))

    ha, hb = approx(a), approx(b)
    return np.abs(ha - hb).mean()


@pytest.fixture
def small_setup(rng):
    src = Volume(rng.random((14, 12, 10)).astype(np.float32), (2.0, 2.0, 2.0))
    tgt = Volume(rng.random((14, 12, 10)).astype(np.float32), (2.0, 2.0, 2.0))
    grid = make_control_grid(src, 8.0)
    cfgp = gr.PyramidConfig(levels=1, steps_per_level=1, labels_per_level=27,
                            finest_spacing_mm=8.0)
    ls = gr.initialize_label_space(cfgp, (8.0, 8.0, 8.0))
    return src, tgt, grid, ls


class TestUnaryFeatures:
    def test_self_match_zero_sad(self, small_setup):
        src, _, grid, ls = small_setup
        node = grid.node_index(2, 2, 2)
        u = mo.unary_features(src, src, grid, ls, node, 0)
        assert u[me.METRIC_NAMES.index("SAD")] == 0.0
        assert u[me.METRIC_NAMES.index("NCC")] == 0.0

    def test_shifted_correspondence(self, rng):
        data = rng.random((16, 10, 10)).astype(np.float32)
        src = Volume(data, (2.0, 2.0, 2.0))
        tgt = Volume(np.roll(data, -1, axis=0), (2.0, 2.0, 2.0))
        grid = make_control_grid(src, 8.0)
        ls = LabelSpace(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
        node = grid.node_index(2, 2, 2)
        u = mo.unary_features(src, tgt, grid, ls, node, 1)
        assert u[me.METRIC_NAMES.index("SAD")] == 0.0

    def test_batch_equals_scalar_calls(self, small_setup):
        src, tgt, grid, ls = small_setup
        table = me.feature_table(src, tgt, grid, ls)
        assert table.shape == (grid.n_nodes, ls.n_labels, me.N_METRICS)
        for node in range(0, grid.n_nodes, 7):
            for lab in range(0, ls.n_labels, 4):
                u = mo.unary_features(src, tgt, grid, ls, node, lab)
                assert np.allclose(table[node, lab], u, atol=1e-9)

    def test_scales_divide_features(self, small_setup):
        src, tgt, grid, ls = small_setup
        node = grid.node_index(2, 2, 2)
        u0 = mo.unary_features(src, tgt, grid, ls, node, 0)
        u1 = mo.unary_features(src, tgt, grid, ls, node, 0, (2.0, 4.0, 0.5, 1.0))
        assert np.allclose(u1, u0 / np.array([2.0, 4.0, 0.5, 1.0]), atol=1e-12)


def _shift_labels(xs, ys, zs):
    """Integer voxel shifts (spacing 1 mm) with the zero shift first."""
    d = np.array([[x, y, z] for x in xs for y in ys for z in zs], dtype=np.float64)
    d = d[np.argsort(np.abs(d).sum(axis=1), kind="stable")]
    return LabelSpace(d)


def _random_pair(rng, dims, spacing=(1.0, 1.0, 1.0)):
    return (Volume(rng.random(dims).astype(np.float32), spacing),
            Volume(rng.random(dims).astype(np.float32), spacing))


def _registration_like(rng):
    spec = SynthSpec(dims=(32, 30, 28), spacing_mm=(2.0, 2.0, 2.0), organ_radii_mm=(8.0, 7.0))
    p = synth_dataset(spec, 5)[0]
    grid = make_control_grid(p.source, 25.0)          # 13^3 patches, cropped at the border
    cfgp = gr.PyramidConfig(levels=1, steps_per_level=1)
    return p.source, p.target, grid, gr.initialize_label_space(cfgp, grid.spacing_mm)


def _half_size_one(rng):
    src, tgt = _random_pair(rng, (9, 8, 7))
    # radius 1: full crops of side 3, border crops of side 2 (Haar half-size 1)
    return src, tgt, make_control_grid(src, 2.0), _shift_labels((-3, 0, 2), (-1, 0, 1), (0, 3))


def _side_below_two(rng):
    src, tgt = _random_pair(rng, (12, 3, 10))
    # the one interior y node sits at y=0; a +2 shift leaves a crop of side 1
    return src, tgt, make_control_grid(src, 4.0), _shift_labels((-2, 0, 1), (0, 1, 2), (0, 2))


def _single_row_runs(rng):
    src, tgt = _random_pair(rng, (14, 12, 10))
    # one label, and a sub-voxel one that rounds onto the same center
    ls = LabelSpace(np.array([[0.0, 0, 0], [0.2, 0, 0]]))
    return src, tgt, make_control_grid(src, 4.0), ls


def _constant_and_shaky(rng):
    src = np.zeros((14, 12, 10), dtype=np.float32)
    src[7:] = 5.0
    # near-constant rows: values a few float32 ulps apart around 1000
    src[:, 6:] = np.float32(1000.0) + np.float32(6.103515625e-05) * rng.integers(0, 4, (14, 6, 10))
    tgt = np.where(rng.random((14, 12, 10)) < 0.5, 1000.0, src).astype(np.float32)
    tgt[:4] = 3.0
    src_v = Volume(src, (1.0, 1.0, 1.0))
    return (src_v, Volume(tgt, (1.0, 1.0, 1.0)), make_control_grid(src_v, 4.0),
            _shift_labels((-1, 0, 1), (-2, 0, 2), (0, 1)))


def _one_dim_of_one(rng):
    src, tgt = _random_pair(rng, (10, 9, 1))
    return src, tgt, make_control_grid(src, 4.0), _shift_labels((-1, 0, 2), (-1, 0), (0, 1))


class TestFeatureTableOracle:
    """The library's feature table equals the replaced whole-group,
    per-row-Haar implementation bit for bit."""

    @pytest.mark.parametrize("build", [
        _registration_like, _half_size_one, _side_below_two, _single_row_runs,
        _constant_and_shaky, _one_dim_of_one,
    ])
    @pytest.mark.parametrize("scales", [None, (2.0, 0.5, 3.0, 0.25)])
    def test_bit_exact(self, build, scales):
        src, tgt, grid, ls = build(np.random.default_rng(17))
        got = me.feature_table(src, tgt, grid, ls, scales)
        want = feature_oracle.feature_table_oracle(src, tgt, grid, ls, scales)
        assert not np.all(me.empty_feature_rows(got))
        assert np.array_equal(got, want)

    def test_calibration_zero_label_table(self):
        pairs = [_registration_like(None)[:2], _random_pair(np.random.default_rng(3), (20, 18, 16))]
        zero_ls = LabelSpace(np.zeros((1, 3)))
        pooled = []
        for src, tgt in pairs:
            grid = make_control_grid(src, 10.0)
            got = me.feature_table(src, tgt, grid, zero_ls)
            want = feature_oracle.feature_table_oracle(src, tgt, grid, zero_ls)
            assert np.array_equal(got, want)
            feats = want[:, 0, :]
            pooled.append(feats[~np.all(feats == me.EMPTY_COST, axis=1)])
        scales = np.percentile(np.concatenate(pooled), 95.0, axis=0)
        assert me.calibrate_scales(pairs, 10.0) == tuple(float(s) for s in scales)

    def test_peak_memory_stays_per_node(self):
        # 48^3 pair, 13^3 patches, 125 labels: the replaced whole-group gather
        # peaked at 56.8 MiB under tracemalloc and the per-node gather at 13.5 MiB
        import tracemalloc

        src, tgt = _random_pair(np.random.default_rng(0), (48, 48, 48), (2.0, 2.0, 2.0))
        grid = make_control_grid(src, 25.0)
        ls = gr.initialize_label_space(gr.PyramidConfig(), grid.spacing_mm)
        tracemalloc.start()
        try:
            me.feature_table(src, tgt, grid, ls)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2 ** 20


class TestDominantClass:
    def make_mask(self, labels, spacing=(2.0, 2.0, 2.0)):
        return SegmentationMask(np.asarray(labels, dtype=np.uint8), spacing)

    def test_uniform_patch(self, small_setup):
        src, _, grid, ls = small_setup
        mask = self.make_mask(np.full(src.dims, 2))
        node = grid.node_index(2, 2, 2)
        assert mo.dominant_class(mask, grid, ls, node, 0, 3) == 2

    def test_majority(self, small_setup, rng):
        src, _, grid, ls = small_setup
        labels = np.where(rng.random(src.dims) < 0.6, 1, 3).astype(np.uint8)
        mask = self.make_mask(labels)
        node = grid.node_index(2, 2, 2)
        assert mo.dominant_class(mask, grid, ls, node, 0, 3) == 1

    def test_tie_breaks_to_smaller_id(self):
        vol = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1.0, 1.0, 1.0))
        grid = make_control_grid(vol, 3.0)
        ls = LabelSpace(np.zeros((1, 3)))
        labels = np.zeros((8, 8, 8), dtype=np.uint8)
        labels[:, :, :4] = 3
        labels[:, :, 4:] = 1      # exact tie inside any full patch
        mask = SegmentationMask(labels, (1.0, 1.0, 1.0))
        node = int(np.argmin(np.abs(grid.points - [3.5, 3.5, 3.5]).sum(axis=1)))
        ext = me.patch_radius(grid.spacing_mm, (1.0, 1.0, 1.0))
        patch = extract_patch(mask, grid.points[node], ext)
        counts = np.bincount(patch.data.ravel(), minlength=4)
        assume_tie = counts[1] == counts[3]
        if assume_tie:
            assert mo.dominant_class(mask, grid, ls, node, 0, 3) == 1

    def test_background_only(self, small_setup):
        src, _, grid, ls = small_setup
        mask = self.make_mask(np.zeros(src.dims))
        assert mo.dominant_class(mask, grid, ls, grid.node_index(2, 2, 2), 0, 3) == 0

    def test_batch_equals_scalar(self, small_setup, rng):
        src, _, grid, ls = small_setup
        x, y, z = np.indices(src.dims)
        cases = [
            (rng.integers(0, 3, src.dims), 2),
            # labels 3..5 lie above n_classes and count toward class 2
            (rng.integers(0, 6, src.dims), 2),
            # checkerboard of 1 and 3: a patch with an even voxel count ties
            # exactly, and the lower class must win
            (np.where((x + y + z) % 2 == 0, 3, 1), 3),
            (rng.integers(0, 4, src.dims), 1),
            # classes only where x < 4 and y < 4: most patches are all background
            (np.where((x < 4) & (y < 4), rng.integers(1, 3, src.dims), 0), 2),
        ]
        ties = background = 0
        for labels, n_classes in cases:
            mask = self.make_mask(labels)
            table = me.dominant_class_table(mask, grid, ls, n_classes)
            for node in range(0, grid.n_nodes, 5):
                for lab in range(0, ls.n_labels, 4):
                    assert table[node, lab] == mo.dominant_class(
                        mask, grid, ls, node, lab, n_classes)
                    patch = extract_patch(mask, grid.points[node] + ls.displacements[lab],
                                          me.patch_radius(grid.spacing_mm, mask.spacing))
                    if patch.is_empty:
                        continue
                    counts = np.bincount(patch.data.ravel(), minlength=4)
                    if n_classes == 3 and counts[1] == counts[3] > 0:
                        ties += 1
                    if counts[0] == patch.data.size:
                        background += 1
        # the tie and all-background cases must actually occur
        assert ties > 0 and background > 0

    def test_voxel_order_invariance(self, rng):
        # dominant class depends on counts only
        counts = {1: 30, 2: 20}
        flat = np.array([1] * counts[1] + [2] * counts[2], dtype=np.uint8)
        for _ in range(5):
            rng.shuffle(flat)
            arr = flat.reshape(5, 5, 2)
            mask = SegmentationMask(arr, (1.0, 1.0, 1.0))
            vol = Volume(np.zeros((5, 5, 2), dtype=np.float32), (1.0, 1.0, 1.0))
            grid = make_control_grid(vol, 4.0)
            ls = LabelSpace(np.zeros((1, 3)))
            node = int(np.argmin(np.abs(grid.points - [2, 2, 0.5]).sum(axis=1)))
            assert mo.dominant_class(mask, grid, ls, node, 0, 2) == 1


def _class_labels(rng, dims, top, p_fg=0.5):
    return np.where(rng.random(dims) < p_fg, rng.integers(1, top + 1, dims), 0)


def _classes_above_n(rng):
    # ids 1..5 against n_classes 3: 3, 4 and 5 all count toward class 3
    src, _, grid, ls = _registration_like(rng)
    return _class_labels(rng, src.dims, 5), src.spacing, grid, ls, 3


def _single_class(rng):
    src, _, grid, ls = _registration_like(rng)
    return _class_labels(rng, src.dims, 4, 0.05), src.spacing, grid, ls, 1


def _mostly_background(rng):
    # foreground only in one corner block: most windows are all background
    labels = np.zeros((32, 30, 28), dtype=np.int64)
    labels[:6, :5, :4] = _class_labels(rng, (6, 5, 4), 2)
    src, _, grid, ls = _registration_like(rng)
    return labels, src.spacing, grid, ls, 2


def _all_background(rng):
    src, _, grid, ls = _registration_like(rng)
    return np.zeros(src.dims, dtype=np.int64), src.spacing, grid, ls, 2


def _checkerboard_ties(rng):
    x, y, z = np.indices((14, 12, 10))
    labels = np.where((x + y + z) % 2 == 0, 3, 1)
    return (labels, (1.0, 1.0, 1.0), make_control_grid(Volume(np.zeros((14, 12, 10)),
            (1.0, 1.0, 1.0)), 4.0), _shift_labels((-2, 0, 1), (-1, 0, 1), (0, 3)), 3)


def _thin_non_cubic(rng):
    # one voxel thick in y, windows wider than the volume along y and z
    vol = Volume(np.zeros((17, 1, 6), dtype=np.float32), (1.0, 2.0, 1.5))
    return (_class_labels(rng, vol.dims, 3), vol.spacing, make_control_grid(vol, 9.0),
            _shift_labels((-4, 0, 3), (-2, 0, 2), (0, 5)), 3)


class TestDominantClassTableOracle:
    """dominant_class_table equals the gathered-window oracle bit for bit."""

    @pytest.mark.parametrize("build", [
        _classes_above_n, _single_class, _mostly_background, _all_background,
        _checkerboard_ties, _thin_non_cubic,
    ])
    def test_bit_exact(self, build):
        labels, spacing, grid, ls, n_classes = build(np.random.default_rng(23))
        mask = SegmentationMask(np.asarray(labels, dtype=np.uint8), spacing)
        got = me.dominant_class_table(mask, grid, ls, n_classes)
        want = count_oracle.dominant_class_table(mask, grid, ls, n_classes)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_cases_cover_their_edge(self):
        rng = np.random.default_rng(23)
        labels, spacing, grid, ls, n = _classes_above_n(rng)
        mask = SegmentationMask(labels.astype(np.uint8), spacing)
        assert labels.max() > n and n in me.dominant_class_table(mask, grid, ls, n)
        labels, spacing, grid, ls, n = _mostly_background(rng)
        table = me.dominant_class_table(SegmentationMask(labels.astype(np.uint8), spacing),
                                        grid, ls, n)
        assert np.any(table == 0) and np.any(table > 0)
        labels, spacing, grid, ls, n = _thin_non_cubic(rng)
        radius = me.patch_radius(grid.spacing_mm, spacing)
        assert any(2 * r + 1 > d for r, d in zip(radius, labels.shape))


class TestAggregatedUnary:
    def test_one_hot_projection(self):
        w = me.single_metric_weights("SAD", 1.0, 0.0)
        feats = np.array([0.7, 1.0, 2.0, 3.0])
        assert mo.aggregated_unary(feats, w, 0) == 0.7

    def test_zero_features(self):
        w = me.WeightMatrix(np.ones((4, 2)), np.zeros(2), (0, 1))
        assert mo.aggregated_unary(np.zeros(4), w, 1) == 0.0

    def test_hand_tuned_weights(self):
        w = me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.zeros(1), (0,)
        )
        val = mo.aggregated_unary(np.array([2.0, 0.1, 0.3, 0.5]), w, 0)
        assert val == pytest.approx(9.2, abs=1e-12)

    def test_linearity_in_column(self, rng):
        feats = rng.random(4)
        w1 = me.WeightMatrix(rng.random((4, 1)), np.zeros(1), (0,))
        w2 = me.WeightMatrix(2.0 * w1.weights, np.zeros(1), (0,))
        assert mo.aggregated_unary(feats, w2, 0) == pytest.approx(
            2.0 * mo.aggregated_unary(feats, w1, 0), rel=1e-15
        )


class TestWeightMatrix:
    def test_pairwise_nonnegative(self):
        with pytest.raises(ValueError):
            me.WeightMatrix(np.ones((4, 1)), np.array([-0.1]), (0,))

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        w = me.WeightMatrix(
            rng.standard_normal((4, 3)) * np.pi,
            np.abs(rng.standard_normal(3)),
            (0, 1, 2),
            scales=tuple(np.abs(rng.standard_normal(4)) + 0.1),
        )
        path = str(tmp_path / "w.txt")
        me.write_weights(path, w, {"C": "10.0"})
        back, meta = me.read_weights(path)
        assert np.array_equal(back.weights, w.weights)
        assert np.array_equal(back.pairwise, w.pairwise)
        assert back.class_ids == w.class_ids
        assert back.scales == w.scales
        assert meta["C"] == "10.0"

    def test_permuted_header_reordered(self, tmp_path, rng):
        w = me.WeightMatrix(rng.random((4, 2)), np.array([0.3, 0.7]), (0, 1),
                            scales=(1.5, 2.5, 3.5, 4.5))
        canonical = str(tmp_path / "canonical.txt")
        me.write_weights(canonical, w)
        order = ("NCC", "MI", "SAD", "DWT")
        perm = [me.METRIC_NAMES.index(m) for m in order]
        lines = [f"metrics={','.join(order)} classes=0,1 "
                 f"scales={','.join(repr(w.scales[i]) for i in perm)}"]
        for j in range(2):
            lines.append(" ".join(repr(float(v)) for v in w.weights[perm, j])
                         + f" {float(w.pairwise[j])!r}")
        permuted = str(tmp_path / "permuted.txt")
        with open(permuted, "w") as f:
            f.write("\n".join(lines) + "\n")
        a, _ = me.read_weights(canonical)
        b, _ = me.read_weights(permuted)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(b.weights, w.weights)
        assert np.array_equal(a.pairwise, b.pairwise)
        assert (a.class_ids, a.metric_names, a.scales) == (b.class_ids, b.metric_names, b.scales)
        assert b.scales == w.scales

    @pytest.mark.parametrize("text", [
        "metrics=SAD,MI,NCC,XYZ classes=0\n1 1 1 1 0.3\n",          # unknown name
        "metrics=SAD,MI,NCC classes=0\n1 1 1 0.3\n",                # missing name
        "metrics=SAD,MI,NCC,NCC classes=0\n1 1 1 1 0.3\n",          # duplicate name
        "metrics=SAD,MI,NCC,DWT classes=0\nabc 1 1 1 0.3\n",        # bad number
        "metrics=SAD,MI,NCC,DWT classes=0,x\n1 1 1 1 0.3\n1 1 1 1 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=0 scales=1,2,3\n1 1 1 1 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=1,0\n1 1 1 1 0.3\n1 1 1 1 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=1,1\n1 1 1 1 0.3\n2 2 2 2 0.5\n",   # repeated id
        "metrics=SAD,MI,NCC,DWT classes=0\n1 1 1 1 nan\n",          # non-finite pairwise
        "metrics=SAD,MI,NCC,DWT classes=0\nnan 1 1 1 0.3\n",        # non-finite weights
        "metrics=SAD,MI,NCC,DWT classes=0\n1 1 -inf 1 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=0 scales=1,nan,1,1\n1 1 1 1 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=0 scales=0,1,1,1\n1 1 1 1 0.3\n",   # scales <= 0
        "metrics=SAD,MI,NCC,DWT classes=0 scales=-1,1,1,1\n1 1 1 1 0.3\n",
    ])
    def test_malformed_file_is_format_error(self, tmp_path, text):
        path = tmp_path / "w.txt"
        path.write_text(text)
        with pytest.raises(FormatError):
            me.read_weights(str(path))

    @pytest.mark.parametrize("ids", [(1, 1), (0, 2, 2), (0, 1, 1)])
    def test_repeated_class_id_rejected(self, ids):
        # a repeated id would leave every column after its first unreachable
        with pytest.raises(ValueError, match="strictly ascending"):
            me.WeightMatrix(np.ones((4, len(ids))), np.ones(len(ids)), ids)

    def test_column_lookup(self):
        w = me.WeightMatrix(np.arange(8).reshape(4, 2), np.array([0.5, 1.5]), (0, 2))
        assert (w.column_index(0), w.column_index(2)) == (0, 1)
        with pytest.raises(ValueError):
            w.column_index(1)


class TestCalibration:
    def test_scales_positive_and_recorded(self, small_setup):
        src, tgt, grid, ls = small_setup
        scales = me.calibrate_scales([(src, tgt)], 8.0)
        assert len(scales) == me.N_METRICS
        assert all(s > 0 for s in scales)
