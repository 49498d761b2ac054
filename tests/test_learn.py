import numpy as np
import pytest

from mmreg import graphreg as gr
from mmreg import learn
from mmreg import metrics as me
from mmreg.evaluation import exact_dice
from mmreg.volume import (
    ControlGrid,
    LabelSpace,
    SegmentationMask,
    Volume,
    interpolate_dense,
    make_control_grid,
    tile_edges,
    warp_mask,
)
from mmreg.synth import SynthSpec, synth_dataset

import count_oracle
from solve_oracle import solve_bruteforce


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def small_grid():
    vol = Volume(np.zeros((16, 14, 12), dtype=np.float32), (2.0, 2.0, 2.0))
    return vol, make_control_grid(vol, 10.0)


def box_mask(dims, lo, hi, spacing=(2.0, 2.0, 2.0)):
    arr = np.zeros(dims, dtype=np.uint8)
    arr[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1
    return SegmentationMask(arr, spacing)


def dice_loss(mask_a, mask_b):
    """The exact loss the trainer stores with a constraint (see warped_loss)."""
    return 1.0 - exact_dice(mask_a.labels, mask_b.labels)


class TestDiceLoss:
    def test_identical_nonempty(self, small_grid):
        vol, grid = small_grid
        m = box_mask(vol.dims, (3, 3, 3), (8, 8, 8))
        assert dice_loss(m, m) == 0.0

    def test_disjoint(self, small_grid):
        vol, grid = small_grid
        a = box_mask(vol.dims, (0, 0, 0), (4, 4, 4))
        b = box_mask(vol.dims, (8, 8, 8), (12, 12, 12))
        assert dice_loss(a, b) == 1.0

    def test_known_overlap(self, small_grid):
        vol, grid = small_grid
        a = box_mask(vol.dims, (3, 4, 3), (8, 9, 7))      # 5*5*4 = 100 voxels
        b = box_mask(vol.dims, (5, 4, 3), (10, 9, 7))     # overlap 3*5*4 = 60
        got = dice_loss(a, b)
        assert got == pytest.approx(1.0 - 2 * 60 / 200, abs=1e-15)

    def test_voxel_loop_oracle(self, small_grid, rng):
        vol, grid = small_grid
        for _ in range(10):
            a = (rng.random(vol.dims) > 0.7).astype(np.uint8)
            b = (rng.random(vol.dims) > 0.7).astype(np.uint8)
            ma = SegmentationMask(a, vol.spacing)
            mb = SegmentationMask(b, vol.spacing)
            inter = sum(
                1 for x in range(vol.dims[0]) for y in range(vol.dims[1])
                for z in range(vol.dims[2]) if a[x, y, z] and b[x, y, z]
            )
            expected = 1.0 - 2.0 * inter / (a.sum() + b.sum())
            assert dice_loss(ma, mb) == expected

    def test_bounds_and_symmetry(self, small_grid, rng):
        vol, grid = small_grid
        for _ in range(10):
            a = SegmentationMask((rng.random(vol.dims) > 0.6).astype(np.uint8), vol.spacing)
            b = SegmentationMask((rng.random(vol.dims) > 0.6).astype(np.uint8), vol.spacing)
            l1 = dice_loss(a, b)
            assert 0.0 <= l1 <= 1.0
            assert l1 == dice_loss(b, a)

    def test_both_empty(self, small_grid):
        vol, grid = small_grid
        e = box_mask(vol.dims, (0, 0, 0), (0, 0, 0))
        assert dice_loss(e, e) == 0.0


class TestLossIncrements:
    def test_zero_shift_matches_overlap(self, small_grid):
        vol, grid = small_grid
        a = box_mask(vol.dims, (3, 3, 3), (9, 9, 9))
        ls = LabelSpace(np.zeros((1, 3)))
        terms = learn.loss_node_terms(a, a, grid, ls)
        # summed over nodes the zero-label surrogate equals the exact loss (0)
        assert terms[:, 0].sum() == pytest.approx(0.0, abs=1e-12)

    def test_scale_zero(self, rng):
        # a zero loss scale leaves the plain registration unaries
        s = toy_sample(rng)
        w = np.array([0.5, 1.0, 2.0, 0.1, 0.3])
        inst = learn.loss_augmented_instance(s, w, +1.0, 0.0)
        assert np.array_equal(inst.unaries, s.tables.features @ w[:4])

    def test_surrogate_equals_exact_at_zero_labeling(self, small_grid, rng):
        vol, grid = small_grid
        for _ in range(5):
            a = SegmentationMask((rng.random(vol.dims) > 0.7).astype(np.uint8), vol.spacing)
            b = SegmentationMask((rng.random(vol.dims) > 0.7).astype(np.uint8), vol.spacing)
            ls = LabelSpace(np.array([[0.0, 0, 0], [2.0, 0, 0], [0, -2.0, 0]]))
            terms = learn.loss_node_terms(a, b, grid, ls)
            assert terms[:, 0].sum() == pytest.approx(dice_loss(a, b), abs=1e-12)

    def test_hand_enumerated_tile_overlaps(self):
        # two tiles along x; masks chosen so every (node, label) count is
        # easy to enumerate by hand
        vol = Volume(np.zeros((8, 4, 4), dtype=np.float32), (1.0, 1.0, 1.0))
        grid = make_control_grid(vol, 4.0)
        src = np.zeros((8, 4, 4), dtype=np.uint8)
        src[2:4, :2, :2] = 1                        # 2*2*2 = 8 voxels
        tgt = np.zeros((8, 4, 4), dtype=np.uint8)
        tgt[3:5, :2, :2] = 1
        ms = SegmentationMask(src, (1.0, 1.0, 1.0))
        mt = SegmentationMask(tgt, (1.0, 1.0, 1.0))
        ls = LabelSpace(np.array([[0.0, 0, 0], [1.0, 0.0, 0.0]]))
        terms = learn.loss_node_terms(ms, mt, grid, ls)
        d0 = 16                                     # source plus target voxels
        bounds = tile_edges(grid, ms)
        V = grid.n_nodes
        for cell in np.ndindex(*grid.grid_dims):
            node = grid.node_index(*cell)
            sl = tuple(slice(b[i], b[i + 1]) for b, i in zip(bounds, cell))
            # label 0: plain overlap in the tile
            num0 = int(np.logical_and(src[sl], tgt[sl]).sum())
            assert terms[node, 0] == pytest.approx(1.0 / V - 2.0 * num0 / d0)
            # label 1: source sampled one voxel ahead in x
            shifted = np.zeros_like(src)
            shifted[:-1] = src[1:]
            num1 = int(np.logical_and(shifted[sl], tgt[sl]).sum())
            assert terms[node, 1] == pytest.approx(1.0 / V - 2.0 * num1 / d0)


def _labels(rng, dims, p_fg, max_label=1):
    """Random mask labels: foreground with probability p_fg, ids 1..max_label."""
    fg = rng.random(dims) < p_fg
    return np.where(fg, rng.integers(1, max_label + 1, dims), 0).astype(np.uint8)


def _count_case(rng, dims, spacing, grid_mm, disp, p_src=0.5, p_tgt=0.5, max_label=1,
                grid=None):
    vol = Volume(np.zeros(dims, dtype=np.float32), spacing)
    src = SegmentationMask(_labels(rng, dims, p_src, max_label), spacing)
    tgt = SegmentationMask(_labels(rng, dims, p_tgt, max_label), spacing)
    disp = np.asarray(disp, dtype=np.float64)
    ls = LabelSpace(disp)
    return src, tgt, grid or make_control_grid(vol, grid_mm), ls


def _registration_like(rng):
    # 125 distinct voxel shifts over 11,520 voxels: several gather chunks
    ls = gr.initialize_label_space(gr.PyramidConfig(), (25.0,) * 3)
    return _count_case(rng, (24, 24, 20), (2.0, 2.0, 2.0), 25.0, ls.displacements,
                       max_label=3)


def _shifts_past_the_volume(rng):
    # |shift| equal to, just below and far beyond the volume size per axis
    disp = [[0, 0, 0], [6, 0, 0], [-6, 0, 0], [5, 0, 0], [40, 0, 0], [0, -9, 0],
            [0, 8, 0], [0, 0, 100], [-7, 9, -7], [5.6, -8.6, 6.4]]
    return _count_case(rng, (6, 9, 7), (1.0, 1.0, 1.0), 3.0, disp)


def _both_empty(rng):
    src, tgt, grid, ls = _shifts_past_the_volume(rng)
    empty = SegmentationMask(np.zeros(src.dims, dtype=np.uint8), src.spacing)
    return empty, empty, grid, ls


def _background_target(rng):
    src, tgt, grid, ls = _registration_like(rng)
    return src, SegmentationMask(np.zeros(tgt.dims, dtype=np.uint8), tgt.spacing), grid, ls


def _background_source(rng):
    src, tgt, grid, ls = _registration_like(rng)
    return SegmentationMask(np.zeros(src.dims, dtype=np.uint8), src.spacing), tgt, grid, ls


def _one_voxel_thick(rng):
    disp = [[0, 0, 0], [2, 0, 0], [0, -2, 0], [0, 0, 2], [-2, 2, -2]]
    return _count_case(rng, (11, 1, 9), (2.0, 2.0, 2.0), 6.0, disp)


def _non_cubic_anisotropic(rng):
    ls = gr.initialize_label_space(gr.PyramidConfig(labels_per_level=27), (9.0, 12.0, 7.5))
    return _count_case(rng, (23, 7, 15), (1.0, 2.5, 1.5), (9.0, 12.0, 7.5), ls.displacements,
                       p_src=0.3, p_tgt=0.7)


def _shared_voxel_shifts(rng):
    # at 2 mm voxels these round to shifts 0, 0, 0, 1, 1, 2, -2, -1 (0.5 and 1.5
    # voxels round half to even)
    disp = [[0, 0, 0], [0.9, 0, 0], [1.0, 0, 0], [1.2, 0, 0], [2.9, 0, 0],
            [3.0, 0, 0], [-3.0, 0, 0], [-2.9, 0, 0]]
    return _count_case(rng, (10, 8, 6), (2.0, 2.0, 2.0), 8.0, disp)


def _clipped_tiles(rng):
    # a lattice that starts past the volume: every voxel clips into the last
    # node along x, and most tiles are empty
    grid = ControlGrid((3, 4, 3), (4.0, 4.0, 4.0), (-20.0, -4.0, -4.0))
    return _count_case(rng, (6, 8, 5), (1.0, 1.0, 1.0), None, [[0, 0, 0], [1, -1, 2]],
                       grid=grid)


class TestLossNodeTermsOracle:
    """loss_node_terms equals the whole-volume shift-and-tile-sum oracle bit
    for bit."""

    @pytest.mark.parametrize("build", [
        _registration_like, _shifts_past_the_volume, _both_empty, _background_target,
        _background_source, _one_voxel_thick, _non_cubic_anisotropic, _shared_voxel_shifts,
        _clipped_tiles,
    ])
    def test_bit_exact(self, build):
        src, tgt, grid, ls = build(np.random.default_rng(5))
        terms = learn.loss_node_terms(src, tgt, grid, ls)
        want_terms = count_oracle.loss_node_terms(src, tgt, grid, ls)[0]
        assert terms.dtype == want_terms.dtype
        assert np.array_equal(terms, want_terms)

    def test_cases_cover_their_edge(self):
        rng = np.random.default_rng(5)
        src, _, _, ls = _shifts_past_the_volume(rng)
        shifts = np.rint(ls.displacements / src.spacing)
        assert np.any(np.abs(shifts) >= src.dims) and np.any(np.abs(shifts) == src.dims)
        src, tgt, grid, ls = _both_empty(rng)
        assert not src.labels.any() and not tgt.labels.any()
        assert not learn.loss_node_terms(src, tgt, grid, ls).any()
        src, _, _, ls = _shared_voxel_shifts(rng)
        shifts = np.rint(ls.displacements / src.spacing)
        assert len(np.unique(shifts, axis=0)) < ls.n_labels
        for build in (_registration_like, _clipped_tiles):
            src, _, grid, _ = build(rng)
            sizes = [np.diff(b) for b in tile_edges(grid, src)]
            assert any(np.any(n == 0) for n in sizes)     # padding-node tiles are empty
        src, tgt, grid, ls = _registration_like(rng)
        # more target-foreground voxels than one gather chunk holds
        assert np.count_nonzero(tgt.labels) > (1 << 19) // ls.n_labels
        assert src.labels.max() > 1


def toy_sample(rng, V=6, L=4):
    """Hand-built prepared sample on a 2x3 grid; no real volumes behind it.

    Features mimic metric unaries: each grows with the distance between the
    label displacement and a smooth per-node preferred displacement.
    """
    edges = np.array([[0, 1], [2, 3], [4, 5], [0, 2], [2, 4], [1, 3], [3, 5]])
    disp = np.vstack([[0.0, 0.0, 0.0], rng.uniform(-5, 5, (L - 1, 3))])
    ls = LabelSpace(disp)
    base = rng.uniform(-5, 5, 3)
    feats = np.zeros((V, L, me.N_METRICS))
    for i in range(V):
        target = base + rng.normal(0, 1.5, 3)
        dist = np.abs(disp - target).sum(axis=1)
        for j in range(me.N_METRICS):
            feats[i, :, j] = rng.uniform(0.1, 0.5) * dist + rng.normal(0, 0.2, L)
    tables = learn.PairTables(None, ls, feats - feats.min() + 0.1, gr.pairwise_l1_table(ls),
                              edges)
    return learn.TrainingSample(tables, 1, None, None, 1.0 / V - rng.uniform(0, 2.0 / V, (V, L)))


def enumerate_loss_augmented(sample, w, sign, scale):
    V, L, _ = sample.tables.features.shape
    best = None
    for idx in range(L ** V):
        lab = np.array([(idx // L ** (V - 1 - k)) % L for k in range(V)])
        val = float(w @ learn.joint_feature(sample, lab))
        val += sign * scale * float(sample.loss_terms[np.arange(V), lab].sum())
        if best is None or val < best[0] - 1e-12:
            best = (val, lab)
    return best


class TestLossAugmentedInference:
    def test_impute_matches_enumeration(self, rng):
        cfg = learn.TrainConfig(labels=27, spacing_mm=10.0)
        for trial in range(5):
            s = toy_sample(rng)
            w = np.concatenate([rng.uniform(0, 2, me.N_METRICS), [rng.uniform(0, 0.5)]])
            lab = learn.impute_latent(s, w, cfg)
            got = float(w @ learn.joint_feature(s, lab)) + cfg.eta * float(
                s.loss_terms[np.arange(6), lab].sum()
            )
            best_val, best_lab = enumerate_loss_augmented(s, w, +1, cfg.eta)
            assert got == pytest.approx(best_val, abs=1e-9), trial

    def test_most_violated_matches_enumeration(self, rng):
        cfg = learn.TrainConfig(labels=27, spacing_mm=10.0)
        for trial in range(5):
            s = toy_sample(rng)
            w = np.concatenate([rng.uniform(0, 2, me.N_METRICS), [rng.uniform(0, 0.5)]])
            inst = learn.loss_augmented_instance(s, w, -1.0, 1.0)
            lab = gr.solve(inst)
            got = float(w @ learn.joint_feature(s, lab)) - float(
                s.loss_terms[np.arange(6), lab].sum()
            )
            best_val, best_lab = enumerate_loss_augmented(s, w, -1, 1.0)
            assert got == pytest.approx(best_val, abs=1e-9), trial

    def test_w_zero_maximizes_loss(self, rng):
        s = toy_sample(rng)
        inst = learn.loss_augmented_instance(s, np.zeros(5), -1.0, 1.0)
        lab = gr.solve(inst)
        got = float(s.loss_terms[np.arange(6), lab].sum())
        _, best_lab = enumerate_loss_augmented(s, np.zeros(5), -1, 1.0)
        best = float(s.loss_terms[np.arange(6), best_lab].sum())
        assert got == pytest.approx(best, abs=1e-12)

    def test_instances_differ_only_in_unaries(self, rng):
        s = toy_sample(rng)
        w = np.array([1.0, 1.0, 1.0, 1.0, 0.3])
        a = learn.loss_augmented_instance(s, w, +1.0, 50.0)
        b = learn.loss_augmented_instance(s, w, -1.0, 1.0)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.pairwise_table, b.pairwise_table)
        assert np.array_equal(a.edge_weights, b.edge_weights)
        assert not np.allclose(a.unaries, b.unaries)

    def test_zero_scale_reduces_to_plain_inference(self, rng):
        s = toy_sample(rng)
        w = np.array([1.0, 0.5, 0.7, 0.2, 0.1])
        inst = learn.loss_augmented_instance(s, w, +1.0, 0.0)
        assert np.allclose(inst.unaries, s.tables.features @ w[:4], atol=1e-15)


class TestEnergyLinearity:
    def test_energy_equals_w_dot_psi(self, rng):
        for trial in range(50):
            s = toy_sample(rng)
            w = np.concatenate([rng.uniform(-1, 2, 4), [rng.uniform(0, 1)]])
            lab = rng.integers(0, 4, 6)
            inst = learn.loss_augmented_instance(s, w, +1.0, 0.0)
            e = inst.energy(lab)
            psi = learn.joint_feature(s, lab)
            assert abs(e - float(w @ psi)) / max(1.0, abs(e)) < 1e-9

    def test_scaling_w_preserves_argmin(self, rng):
        for trial in range(10):
            s = toy_sample(rng)
            w = np.concatenate([rng.uniform(0.1, 2, 4), [rng.uniform(0.01, 1)]])
            inst1 = learn.loss_augmented_instance(s, w, +1.0, 0.0)
            inst2 = learn.loss_augmented_instance(s, 3.0 * w, +1.0, 0.0)
            lab1 = solve_bruteforce(inst1)
            lab2 = solve_bruteforce(inst2)
            assert np.array_equal(lab1, lab2)
            assert inst2.energy(lab2) == pytest.approx(3.0 * inst1.energy(lab1), rel=1e-12)


class TestSolveQp:
    def test_empty_sets_alpha_zero(self):
        w, xi, ok = learn.solve_qp([[]], [None], np.array([0.1, 10, 10, 10, 1.0]), 10.0, 0.0)
        assert ok and np.all(w == 0.0) and np.all(xi == 0.0)

    def test_empty_sets_alpha_positive(self):
        w0 = np.array([0.1, 10, 10, 10, 1.0])
        w, xi, ok = learn.solve_qp([[]], [None], w0, 10.0, 0.5)
        assert np.allclose(w, (1.0 / 2.0) * w0, atol=1e-12)

    def test_two_variable_kkt_hard_margin_regime(self):
        psi_hat = np.array([1.0, 1.0])
        wsets = [[(np.array([1]), np.array([3.0, 2.0]), 1.0)]]
        w, xi, ok = learn.solve_qp(wsets, [psi_hat], np.zeros(2), C=1.0, alpha=0.0)
        assert np.allclose(w, [0.4, 0.2], atol=1e-6)
        assert xi[0] == pytest.approx(0.0, abs=1e-6)

    def test_two_variable_kkt_slack_regime(self):
        psi_hat = np.array([1.0, 1.0])
        wsets = [[(np.array([1]), np.array([3.0, 2.0]), 1.0)]]
        w, xi, ok = learn.solve_qp(wsets, [psi_hat], np.zeros(2), C=0.05, alpha=0.0)
        assert np.allclose(w, [0.1, 0.05], atol=1e-6)
        assert xi[0] == pytest.approx(0.75, abs=1e-6)

    def test_constraints_hold_at_solution(self, rng):
        for trial in range(10):
            nw = 5
            w0 = np.array([0.1, 10, 10, 10, 1.0])
            psis_hat = [rng.normal(0, 10, nw) for _ in range(2)]
            wsets = []
            for i in range(2):
                ws = []
                for _ in range(rng.integers(1, 5)):
                    psi_bar = psis_hat[i] + rng.normal(0, 5, nw)
                    ws.append((None, psi_bar, float(rng.uniform(0, 1))))
                wsets.append(ws)
            w, xi, ok = learn.solve_qp(wsets, psis_hat, w0, 10.0, 0.1)
            assert w[-1] >= 0.0
            for i, ws in enumerate(wsets):
                for (_, psi_bar, loss) in ws:
                    lhs = float(w @ psis_hat[i])
                    rhs = float(w @ psi_bar) - loss + xi[i]
                    assert lhs <= rhs + 1e-6


@pytest.fixture(scope="module")
def mini_samples():
    spec = SynthSpec(
        dims=(24, 24, 20), spacing_mm=(2.0, 2.0, 2.0), n_pairs=2,
        organ_radii_mm=(8.0,), organ_centers_frac=((0.5, 0.5, 0.5),),
        center_jitter_mm=1.0, radius_jitter_mm=0.5,
        base_levels=(0.25, 0.7), texture_amp=(0.05, 0.08),
        remap_region_x_frac=1.0, noise_sigma=0.01,
        gt_mode="random_ffd", gt_grid_spacing_mm=30.0, max_gt_disp_mm=4.0,
    )
    return synth_dataset(spec, 21)


def prepare(p, cfg, class_id=1, scales=None):
    """The class's sample on synthetic pair `p`, with the pair's own tables."""
    return learn.prepare_sample(learn.pair_tables(p.source, p.target, cfg, scales),
                                p.source_mask, p.target_mask, class_id)


class TestTrainClass:
    def test_identity_pair_converges_quickly(self):
        spec = SynthSpec(
            dims=(24, 24, 20), spacing_mm=(2.0, 2.0, 2.0), n_pairs=1,
            organ_radii_mm=(8.0,), organ_centers_frac=((0.5, 0.5, 0.5),),
            center_jitter_mm=0.0, radius_jitter_mm=0.0,
            base_levels=(0.25, 0.7), texture_amp=(0.05, 0.08),
            remap_region_x_frac=1.0, noise_sigma=0.0,
            gt_mode="identity",
        )
        p = synth_dataset(spec, 3)[0]
        # identity pair: source and target volumes and masks coincide
        cfg = learn.TrainConfig(spacing_mm=14.0, labels=27, C=10.0, alpha=0.1, max_cccp=3)
        s = learn.prepare_sample(learn.pair_tables(p.source, p.source, cfg, None),
                                 p.source_mask, p.source_mask, 1)
        res = learn.train_class([s], cfg)
        assert res.converged
        assert max(res.manifest_rows[0]["slacks"]) < 0.05

    def test_objective_history_non_increasing(self, mini_samples):
        cfg = learn.TrainConfig(spacing_mm=14.0, labels=27, C=20.0, alpha=0.1, max_cccp=4)
        res = learn.train_class([prepare(p, cfg) for p in mini_samples], cfg)
        retained = [r["outer_objective"] for r in res.manifest_rows if r["retained"]]
        assert retained
        for prev, cur in zip(retained, retained[1:]):
            assert cur <= prev + cfg.epsilon * max(1.0, abs(prev))

    def test_constraints_satisfied_in_manifest(self, mini_samples):
        cfg = learn.TrainConfig(spacing_mm=14.0, labels=27, C=20.0, alpha=0.1, max_cccp=3)
        res = learn.train_class([prepare(p, cfg) for p in mini_samples], cfg)
        assert all(v >= -1e-9 for row in res.manifest_rows for v in row["slacks"])

    def test_exact_loss_stored_in_constraints(self, mini_samples):
        cfg = learn.TrainConfig(spacing_mm=14.0, labels=27, C=20.0, alpha=0.1)
        s = prepare(mini_samples[0], cfg)
        lab, psi, loss = learn.most_violated(s, cfg.w0_full())
        sparse = s.tables.label_space.displacements[lab]
        fld = interpolate_dense(s.tables.grid, sparse, s.src_fg)
        warped = warp_mask(s.src_fg, fld)
        assert loss == dice_loss(warped, s.tgt_fg)


@pytest.fixture(scope="module")
def two_organ_pairs():
    spec = SynthSpec(dims=(28, 24, 20), spacing_mm=(2.0, 2.0, 2.0), n_pairs=2,
                     organ_radii_mm=(7.0, 6.0), center_jitter_mm=1.0)
    return synth_dataset(spec, 4)


# wp0=0.1 keeps training from returning w0 untouched
TWO_ORGAN_CONFIG = learn.TrainConfig(spacing_mm=14.0, labels=27, C=20.0, alpha=1.0,
                                     max_cccp=2, wp0=0.1)
TWO_ORGAN_SCALES = (0.1, 0.2, 0.3, 0.4)


def train_and_write(pairs, cfg, scales, path, shared):
    """Train classes 1 and 2 on `pairs`, with one set of pair tables shared by
    both classes or each sample building its own; write model and log."""
    results = []
    tables = [learn.pair_tables(p.source, p.target, cfg, scales) for p in pairs]
    for c in (1, 2):
        samples = [learn.prepare_sample(tables[i], p.source_mask, p.target_mask, c) if shared
                   else prepare(p, cfg, c, scales) for i, p in enumerate(pairs)]
        results.append(learn.train_class(samples, cfg))
    learn.write_model(str(path), learn.assemble_model(results, cfg, scales), cfg)
    learn.write_training_manifest(str(path) + ".log", results)


def same_model_and_log(a, b):
    return all(a.with_name(a.name + suffix).read_bytes()
               == b.with_name(b.name + suffix).read_bytes() for suffix in ("", ".log"))


class TestWarpedLossCache:
    """The oracle's exact loss is computed once per labeling and sample."""

    def test_model_and_log_unchanged_with_fewer_losses(self, two_organ_pairs, tmp_path,
                                                       monkeypatch):
        calls = {"interpolate_dense": 0}
        inner = learn.interpolate_dense

        def counted(*args):
            calls["interpolate_dense"] += 1
            return inner(*args)

        monkeypatch.setattr(learn, "interpolate_dense", counted)
        train_and_write(two_organ_pairs, TWO_ORGAN_CONFIG, TWO_ORGAN_SCALES,
                        tmp_path / "cached.txt", True)
        cached = calls["interpolate_dense"]

        warped_loss = learn.warped_loss

        def uncached(sample, labeling):
            sample.loss_cache = {}
            return warped_loss(sample, labeling)

        monkeypatch.setattr(learn, "warped_loss", uncached)
        calls["interpolate_dense"] = 0
        train_and_write(two_organ_pairs, TWO_ORGAN_CONFIG, TWO_ORGAN_SCALES,
                        tmp_path / "uncached.txt", True)
        assert same_model_and_log(tmp_path / "cached.txt", tmp_path / "uncached.txt")
        assert 0 < cached < calls["interpolate_dense"]

    def test_new_preparation_starts_empty(self, two_organ_pairs):
        p = two_organ_pairs[0]
        s = prepare(p, TWO_ORGAN_CONFIG, 1, TWO_ORGAN_SCALES)
        lab = np.zeros(s.tables.grid.n_nodes, dtype=np.int64)
        loss = learn.warped_loss(s, lab)
        assert list(s.loss_cache.values()) == [loss]
        # labelings that differ in one node are cached apart
        lab[-1] = 1
        learn.warped_loss(s, lab)
        learn.warped_loss(s, lab.astype(np.int32))
        assert len(s.loss_cache) == 2
        again = learn.prepare_sample(s.tables, p.source_mask, p.target_mask, 1)
        assert again.loss_cache == {} and len(s.loss_cache) == 2


class TestSharedPairTables:
    """Samples of every class share one pair's tables, read-only, and train
    to the same model as samples that each build their own."""

    def test_model_and_log_byte_identical(self, two_organ_pairs, tmp_path):
        train_and_write(two_organ_pairs, TWO_ORGAN_CONFIG, TWO_ORGAN_SCALES,
                        tmp_path / "shared.txt", True)
        train_and_write(two_organ_pairs, TWO_ORGAN_CONFIG, TWO_ORGAN_SCALES,
                        tmp_path / "own.txt", False)
        assert same_model_and_log(tmp_path / "shared.txt", tmp_path / "own.txt")

    def test_tables_shared_and_read_only(self, two_organ_pairs):
        cfg = learn.TrainConfig(spacing_mm=14.0, labels=27)
        p = two_organ_pairs[0]
        tables = learn.pair_tables(p.source, p.target, cfg, None)
        one, two = (learn.prepare_sample(tables, p.source_mask, p.target_mask, c)
                    for c in (1, 2))
        assert one.tables is two.tables is tables
        for arr in (tables.features, tables.pairwise_table, tables.edges,
                    tables.label_space.displacements):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1
        # the class-specific parts differ per sample
        assert not np.array_equal(one.src_fg.labels, two.src_fg.labels)
        assert not np.array_equal(one.loss_terms, two.loss_terms)


class TestAssembleModel:
    def make_result(self, cls, rng):
        return learn.TrainResult(cls, rng.random(4), float(rng.random()), [])

    def test_single_class_single_column(self, rng):
        res = self.make_result(2, rng)
        cfg = learn.TrainConfig()
        m = learn.assemble_model([res], cfg, None)
        assert m.class_ids == (2,)
        assert np.array_equal(m.weights[:, 0], res.w_c)

    def test_multi_class_ordering_and_background(self, rng):
        r3 = self.make_result(3, rng)
        r1 = self.make_result(1, rng)
        cfg = learn.TrainConfig(alpha=0.25)
        m = learn.assemble_model([r3, r1], cfg, None)  # permuted input order
        assert m.class_ids == (0, 1, 3)
        # columns keep the learned proportions and share a common magnitude
        target = np.abs(np.asarray(cfg.w0)).sum()
        for col, res in ((1, r1), (2, r3)):
            assert np.allclose(
                m.weights[:, col] / np.abs(m.weights[:, col]).sum(),
                res.w_c / np.abs(res.w_c).sum(), atol=1e-12,
            )
            assert np.abs(m.weights[:, col]).sum() == pytest.approx(target)
        bg = (2 * 0.25 / 1.5) * np.asarray(cfg.w0)
        assert np.allclose(
            m.weights[:, 0] / np.abs(m.weights[:, 0]).sum(), bg / np.abs(bg).sum(), atol=1e-12
        )

    def test_duplicate_class_rejected(self, rng):
        with pytest.raises(ValueError):
            learn.assemble_model([self.make_result(1, rng), self.make_result(1, rng)],
                                 learn.TrainConfig(), None)

    @pytest.mark.parametrize("scales", [(0.0, 1.0, 1.0, 1.0), (-1.0, 1.0, 1.0, 1.0),
                                        (1.0, 1.0, 1.0)])
    def test_bad_scales_rejected_where_they_enter(self, scales, rng):
        with pytest.raises(ValueError):
            learn.assemble_model([self.make_result(1, rng)], learn.TrainConfig(), scales)
        with pytest.raises(ValueError):
            me.WeightMatrix(np.ones((4, 1)), np.ones(1), (0,), me.METRIC_NAMES, scales)

    def test_model_file_roundtrip(self, tmp_path, rng):
        res = [self.make_result(1, rng), self.make_result(2, rng)]
        cfg = learn.TrainConfig()
        m = learn.assemble_model(res, cfg, (1.0, 2.0, 3.0, 4.0))
        path = str(tmp_path / "model.txt")
        learn.write_model(path, m, cfg)
        back, meta = me.read_weights(path)
        assert np.array_equal(back.weights, m.weights)
        assert np.array_equal(back.pairwise, m.pairwise)
        assert back.class_ids == m.class_ids
        assert back.scales == (1.0, 2.0, 3.0, 4.0)
        assert meta["eta"] == repr(cfg.eta)
