from dataclasses import dataclass

import numpy as np
import pytest

from mmreg import evaluation as ev
from mmreg import graphreg as gr
from mmreg import metrics as me
from mmreg import volume as vo
from mmreg.volume import LabelSpace, SegmentationMask, Volume, make_control_grid, warp_mask
from mmreg.synth import SynthSpec, synth_dataset

import metric_oracle as mo
import solve_oracle
from helpers import traced_peak


def grid_edges_2d(nx, ny):
    e = []
    for y in range(ny):
        for x in range(nx):
            i = x + nx * y
            if x + 1 < nx:
                e.append([i, i + 1])
            if y + 1 < ny:
                e.append([i, i + nx])
    return np.array(e)


def registration_like_instance(seed, n_nodes=6, n_labels=4, edges=None,
                               wp_range=(0.0, 1.0)):
    """Random instance with the structure the registration produces: labels
    are displacement candidates, unaries grow with the distance to a smooth
    per-node preferred displacement, pairwise is the L1 label metric."""
    rng = np.random.default_rng(seed)
    disp = np.vstack([[0.0, 0.0, 0.0], rng.uniform(-8, 8, (n_labels - 1, 3))])
    ls = LabelSpace(disp)
    table = gr.pairwise_l1_table(ls)
    base = rng.uniform(-8, 8, 3)
    unaries = np.zeros((n_nodes, n_labels))
    for i in range(n_nodes):
        target = base + rng.normal(0, 2.0, 3)
        unaries[i] = 0.8 * np.abs(disp - target).sum(axis=1) + rng.normal(0, 1.0, n_labels)
    unaries -= unaries.min()
    wp = rng.uniform(*wp_range)
    if edges is None:
        edges = grid_edges_2d(2, 3)
    return gr.MrfInstance(unaries, wp, table, edges)


def lattice_edges_3d(nx, ny, nz):
    idx = np.arange(nx * ny * nz).reshape(nz, ny, nx)
    pairs = [(idx[:, :, :-1], idx[:, :, 1:]), (idx[:, :-1, :], idx[:, 1:, :]),
             (idx[:-1, :, :], idx[1:, :, :])]
    return np.concatenate([np.stack([a.ravel(), b.ravel()], axis=1) for a, b in pairs])


def move_energy_changes(inst, labeling, alpha):
    """Energy change of every alpha-expansion move set, by enumeration."""
    V = inst.n_nodes
    sets = (np.arange(1 << V)[:, None] >> np.arange(V)) & 1 == 1
    cands = np.where(sets, alpha, labeling)
    rows = np.arange(V)
    e = inst.unaries[rows, cands].sum(axis=1)
    if len(inst.edges):
        i, j = inst.edges[:, 0], inst.edges[:, 1]
        e += (inst.edge_weights * inst.pairwise_table[cands[:, i], cands[:, j]]).sum(axis=1)
    return e - inst.energy(labeling)


class TestLabelSpaces:
    def test_paper_defaults_125_at_25mm(self):
        cfg = gr.PyramidConfig()
        ls = gr.initialize_label_space(cfg, (25.0, 25.0, 25.0))
        assert ls.n_labels == 125
        vals = np.unique(ls.displacements[:, 0])
        assert np.allclose(vals, [-10.0, -5.0, 0.0, 5.0, 10.0])

    def test_27_labels_at_10mm(self):
        cfg = gr.PyramidConfig(labels_per_level=27)
        ls = gr.initialize_label_space(cfg, (10.0, 10.0, 10.0))
        assert np.allclose(np.unique(ls.displacements[:, 1]), [-4.0, 0.0, 4.0])

    def test_zero_vector_exactly_once_and_first(self):
        cfg = gr.PyramidConfig()
        ls = gr.initialize_label_space(cfg, (25.0, 25.0, 25.0))
        zero_rows = np.all(ls.displacements == 0.0, axis=1)
        assert zero_rows.sum() == 1 and zero_rows[0]

    def test_non_cube_count_rejected(self):
        # the catalog is k^3 labels for an odd k; other counts fail at construction
        for n in (100, 64, 8, -27):
            with pytest.raises(ValueError):
                gr.PyramidConfig(labels_per_level=n)
        assert gr.PyramidConfig(labels_per_level=1).labels_per_level == 1

    def test_refine_scales_by_factor(self):
        cfg = gr.PyramidConfig()
        ls = gr.initialize_label_space(cfg, (25.0,) * 3)
        ref = gr.refine_label_space(ls, 0.7)
        assert np.allclose(np.unique(ref.displacements[:, 0]), [-7.0, -3.5, 0.0, 3.5, 7.0])
        five = ls
        for _ in range(5):
            five = gr.refine_label_space(five, 0.7)
        assert np.abs(five.displacements).max() == pytest.approx(10.0 * 0.7 ** 5)

    def test_pairwise_table_is_a_metric(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            disp = np.vstack([[0, 0, 0], rng.uniform(-10, 10, (7, 3))])
            table = gr.pairwise_l1_table(LabelSpace(disp))
            assert np.allclose(table, table.T)
            assert np.all(np.diag(table) == 0.0)
            n = len(table)
            tri = table[:, :, None] + table[None, :, :]   # d(i,k) + d(k,j)
            assert np.all(table[:, None, :] <= tri.transpose(0, 2, 1) + 1e-12)

    def test_bound_factor_validation(self):
        with pytest.raises(ValueError):
            gr.PyramidConfig(bound_factor=0.5)
        with pytest.raises(ValueError):
            gr.PyramidConfig(refine_factor=1.0)


class TestSolve:
    def test_two_node_chain_hand_case(self):
        inst = gr.MrfInstance(
            np.array([[0.0, 5.0], [5.0, 0.0]]), 1.0,
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0, 1]]),
        )
        lab = gr.solve(inst)
        assert inst.energy(lab) == pytest.approx(1.0)
        assert np.array_equal(lab, [0, 1])
        assert np.array_equal(solve_oracle.solve_bruteforce(inst), [0, 1])

    def test_zero_pairwise_equals_argmin(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            un = rng.uniform(0, 10, (6, 4))
            inst = gr.MrfInstance(un, 0.0, np.zeros((4, 4)), grid_edges_2d(2, 3))
            assert np.array_equal(gr.solve(inst), np.argmin(un, axis=1))

    def test_single_label(self):
        inst = gr.MrfInstance(np.zeros((4, 1)), 1.0, np.zeros((1, 1)), grid_edges_2d(2, 2))
        assert np.array_equal(gr.solve(inst), np.zeros(4))

    def test_never_worse_than_zero_labeling(self):
        for seed in range(30):
            inst = registration_like_instance(seed, wp_range=(0.0, 2.0))
            lab = gr.solve(inst)
            assert inst.energy(lab) <= inst.energy(np.zeros(6, dtype=int)) + 1e-12

    def test_single_node_local_optimality(self):
        for seed in range(20):
            inst = registration_like_instance(seed)
            lab = gr.solve(inst)
            e = inst.energy(lab)
            for i in range(inst.n_nodes):
                for l in range(inst.n_labels):
                    cand = lab.copy()
                    cand[i] = l
                    assert inst.energy(cand) >= e - 1e-9

    def test_matches_bruteforce_on_seeded_instances(self):
        worst = 1.0
        for seed in range(100):
            inst = registration_like_instance(seed)
            e1 = inst.energy(gr.solve(inst))
            e2 = inst.energy(solve_oracle.solve_bruteforce(inst))
            assert e1 <= 1.05 * e2 + 1e-12
            worst = max(worst, e1 / max(e2, 1e-12))
        assert worst <= 1.05

    def test_bruteforce_lexicographic_ties(self):
        # all-equal unaries, zero pairwise: every labeling optimal
        inst = gr.MrfInstance(np.zeros((3, 3)), 0.0, np.zeros((3, 3)), np.zeros((0, 2), dtype=int))
        assert np.array_equal(solve_oracle.solve_bruteforce(inst), [0, 0, 0])

    def test_bruteforce_limit(self):
        inst = gr.MrfInstance(np.zeros((30, 10)), 0.0, np.zeros((10, 10)), np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError):
            solve_oracle.solve_bruteforce(inst)

    def test_edge_weights_one_value_or_one_per_edge(self):
        inst = registration_like_instance(3)
        E = len(inst.edges)
        one = gr.MrfInstance(inst.unaries, 0.37, inst.pairwise_table, inst.edges)
        full = gr.MrfInstance(inst.unaries, np.full(E, 0.37), inst.pairwise_table, inst.edges)
        assert one.edge_weights.shape == (E,)
        assert one.edge_weights.tobytes() == full.edge_weights.tobytes()
        for lab in np.random.default_rng(3).integers(0, inst.n_labels, (20, inst.n_nodes)):
            assert one.energy(lab) == full.energy(lab)
        for bad in (np.ones(E - 1), np.ones(E + 1), np.ones((E, 1)), np.ones((1, E))):
            with pytest.raises(ValueError, match="one per edge"):
                gr.MrfInstance(inst.unaries, bad, inst.pairwise_table, inst.edges)
        per_edge = gr.MrfInstance(inst.unaries, np.linspace(0, 1, E), inst.pairwise_table,
                                  inst.edges)
        lab = gr.solve(per_edge)
        assert per_edge.energy(lab) <= per_edge.energy(np.zeros(6, dtype=int)) + 1e-12


@pytest.fixture(scope="module")
def small_pair():
    spec = SynthSpec(
        dims=(20, 18, 16), spacing_mm=(2.0, 2.0, 2.0), n_pairs=1,
        organ_radii_mm=(7.0,), organ_centers_frac=((0.5, 0.5, 0.5),),
        center_jitter_mm=0.0, radius_jitter_mm=0.0,
        base_levels=(0.25, 0.7), texture_amp=(0.05, 0.08),
        remap_region_x_frac=1.0, noise_sigma=0.01,
        gt_mode="identity", max_gt_disp_mm=8.0,
    )
    return synth_dataset(spec, 0)[0]


class TestBuildInstance:
    def test_unaries_match_straight_loop(self, small_pair):
        p = small_pair
        grid = make_control_grid(p.source, 12.0)
        cfgp = gr.PyramidConfig(levels=1, steps_per_level=1, labels_per_level=27,
                                finest_spacing_mm=12.0)
        ls = gr.initialize_label_space(cfgp, (12.0,) * 3)
        rng = np.random.default_rng(0)
        wmat = me.WeightMatrix(rng.uniform(0.1, 2.0, (4, 2)), np.array([0.3, 0.6]), (0, 1))
        inst = gr.build_instance(p.source, p.target, p.source_mask, wmat, grid, ls)

        empties = me.empty_feature_rows(me.feature_table(p.source, p.target, grid, ls))
        checked = 0
        for node in range(0, grid.n_nodes, 17):
            for lab in range(0, ls.n_labels, 5):
                if empties[node, lab]:
                    continue
                u = mo.unary_features(p.source, p.target, grid, ls, node, lab)
                c = mo.dominant_class(p.source_mask, grid, ls, node, lab, 1)
                expected = mo.aggregated_unary(u, wmat, c)
                assert inst.unaries[node, lab] == pytest.approx(expected, rel=1e-9)
                checked += 1
        assert checked > 10

    def test_self_match_zero_label_dominates(self, small_pair):
        p = small_pair
        grid = make_control_grid(p.source, 12.0)
        cfgp = gr.PyramidConfig(levels=1, steps_per_level=1, labels_per_level=27,
                                finest_spacing_mm=12.0)
        ls = gr.initialize_label_space(cfgp, (12.0,) * 3)
        w = me.single_metric_weights("SAD", 1.0, 0.0)
        inst = gr.build_instance(p.source, p.source, None, w, grid, ls)
        wins = 0
        total = 0
        for node in range(grid.n_nodes):
            row = inst.unaries[node]
            if np.all(row == row[0]):
                continue                      # empty patches, uninformative
            total += 1
            if row[0] <= row.min() + 1e-12:
                wins += 1
        assert total > 0 and wins / total >= 0.9

    def test_single_label_energy_is_unary_sum(self, small_pair):
        p = small_pair
        grid = make_control_grid(p.source, 12.0)
        ls = LabelSpace(np.zeros((1, 3)))
        w = me.single_metric_weights("SAD", 1.0, 0.5)
        inst = gr.build_instance(p.source, p.target, None, w, grid, ls)
        lab = np.zeros(grid.n_nodes, dtype=int)
        assert inst.energy(lab) == pytest.approx(inst.unaries[:, 0].sum())

    def test_multiclass_requires_mask(self, small_pair):
        p = small_pair
        grid = make_control_grid(p.source, 12.0)
        ls = LabelSpace(np.zeros((1, 3)))
        wmat = me.WeightMatrix(np.ones((4, 2)), np.zeros(2), (0, 1))
        with pytest.raises(ValueError):
            gr.build_instance(p.source, p.target, None, wmat, grid, ls)


@pytest.fixture(scope="module")
def two_organ_pair():
    spec = SynthSpec(dims=(32, 30, 28), spacing_mm=(2.0, 2.0, 2.0), organ_radii_mm=(8.0, 7.0))
    return synth_dataset(spec, 5)[0]


class TestWeighedMetricsOnly:
    """A registration computes only the metrics its weight matrix weighs,
    and its MRF equals the one built from the full four-metric table."""

    SCALES = (0.5, 2.0, 0.25, 3.0)
    MATRICES = {
        "3-column": np.array([[0.1, 0.2, 0.05], [10.0, 5.0, 10.0],
                              [10.0, 10.0, 15.0], [10.0, 10.0, 5.0]]),
        "3-column-no-MI": np.array([[0.1, 0.2, 0.05], [0.0, 0.0, 0.0],
                                    [10.0, 10.0, 15.0], [0.0, 10.0, 5.0]]),
    }

    def weights(self, method):
        if method in ev.SINGLE_METHODS:
            return ev.baseline_weights(method, self.SCALES, ev.BASELINE_WP_SCALE)
        return me.WeightMatrix(self.MATRICES[method], np.array([0.4, 0.3, 0.5]), (0, 1, 2),
                               scales=self.SCALES)

    @pytest.mark.parametrize("method", ev.SINGLE_METHODS + tuple(MATRICES))
    def test_instance_equals_full_table_instance(self, two_organ_pair, monkeypatch, method):
        p = two_organ_pair
        grid = make_control_grid(p.source, 12.0)
        ls = gr.initialize_label_space(
            gr.PyramidConfig(levels=1, steps_per_level=1, labels_per_level=27), grid.spacing_mm)
        wmat = self.weights(method)
        got = gr.build_instance(p.source, p.target, p.source_mask, wmat, grid, ls)
        feature_table = me.feature_table
        monkeypatch.setattr(me, "feature_table", lambda src, tgt, grid, ls, scales, metrics:
                            feature_table(src, tgt, grid, ls, scales))
        want = gr.build_instance(p.source, p.target, p.source_mask, wmat, grid, ls)
        assert got.unaries.tobytes() == want.unaries.tobytes()
        assert got.edge_weights.tobytes() == want.edge_weights.tobytes()

    def test_sad_only_registration_never_bins_for_mi(self, small_pair, monkeypatch):
        calls = []
        bin_rows = me._bin_rows

        def counted(x):
            calls.append(len(x))
            return bin_rows(x)

        monkeypatch.setattr(me, "_bin_rows", counted)
        cfg = gr.PyramidConfig(levels=2, steps_per_level=2, labels_per_level=27,
                               finest_spacing_mm=12.0)
        p = small_pair
        for method in ("SAD", "NCC", "DWT"):
            gr.register(p.source, p.target, None, ev.baseline_weights(method, None, 0.02), cfg)
        assert calls == []
        # the counter sees the binning of a registration that weighs MI
        gr.register(p.source, p.target, None, ev.baseline_weights("MI", None, 0.02), cfg)
        assert calls


TRANSLATION_MM = (4.0, 0.0, 0.0)        # the ground-truth field of translated_pair


@pytest.fixture(scope="module")
def translated_pair():
    spec = SynthSpec(
        dims=(24, 20, 18), spacing_mm=(2.0, 2.0, 2.0), n_pairs=1,
        organ_radii_mm=(7.0,), organ_centers_frac=((0.45, 0.5, 0.5),),
        center_jitter_mm=0.0, radius_jitter_mm=0.0,
        base_levels=(0.25, 0.7), texture_amp=(0.05, 0.08),
        remap_region_x_frac=1.0, noise_sigma=0.01,
        gt_mode="translate", gt_translate_mm=TRANSLATION_MM, max_gt_disp_mm=8.0,
    )
    return synth_dataset(spec, 1)[0]


class TestRegister:
    def test_self_registration(self, small_pair):
        p = small_pair
        w = me.WeightMatrix(np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.4]), (0,))
        cfg = gr.PyramidConfig(levels=2, steps_per_level=3, labels_per_level=27,
                               finest_spacing_mm=12.0)
        fld, diag = gr.register(p.source, p.source, p.source_mask, w, cfg)
        assert np.abs(fld.dense).mean() < 0.5
        for rec in diag.steps:
            assert rec.energy_accepted <= rec.energy_zero + 1e-9

    def test_translation_recovery_small(self, translated_pair):
        p = translated_pair
        w = me.WeightMatrix(np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.4]), (0,))
        cfg = gr.PyramidConfig(levels=1, steps_per_level=4, labels_per_level=27,
                               finest_spacing_mm=12.0)
        fld, _ = gr.register(p.source, p.target, p.source_mask, w, cfg)
        fg = p.target_mask.labels > 0
        err = np.linalg.norm(fld.dense - TRANSLATION_MM, axis=3)[fg]
        assert err.mean() <= 2.4      # half of one initial label step

    def test_diffeomorphism_bound_per_step(self, small_pair):
        p = small_pair
        w = me.WeightMatrix(np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.2]), (0,))
        cfg = gr.PyramidConfig(levels=2, steps_per_level=3, labels_per_level=27,
                               finest_spacing_mm=12.0)
        _, diag = gr.register(p.source, p.target, p.source_mask, w, cfg)
        assert len(diag.steps) == cfg.levels * cfg.steps_per_level
        for rec in diag.steps:
            assert rec.max_sparse_component_mm <= rec.bound_mm + 1e-9

    def test_field_does_not_depend_on_chunk(self, translated_pair, monkeypatch):
        p = translated_pair
        w = me.WeightMatrix(np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.4]), (0,))
        cfg = gr.PyramidConfig(levels=2, steps_per_level=1, labels_per_level=27,
                               finest_spacing_mm=12.0)
        fld, diag = gr.register(p.source, p.target, p.source_mask, w, cfg)
        assert all(r.moved_nodes for r in diag.steps)
        monkeypatch.setattr(vo, "_CHUNK", 7)
        ref, ref_diag = gr.register(p.source, p.target, p.source_mask, w, cfg)
        assert fld.dense.tobytes() == ref.dense.tobytes()
        assert diag.to_text() == ref_diag.to_text()

    def test_peak_memory_stays_per_chunk(self):
        # 48^3 pair, default pyramid: with whole-volume warping and
        # composition the peak under tracemalloc was 37.1 MiB; chunked, it
        # was 20.2 MiB, inside feature_table's whole-volume float64 copies;
        # with per-slab regions and a certificate batch budget it is 11.9 MiB
        p = synth_dataset(SynthSpec(dims=(48, 48, 48), spacing_mm=(2.0, 2.0, 2.0)), 0)[0]
        w = me.WeightMatrix(np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.4]), (0,))
        (_, diag), peak = traced_peak(gr.register, p.source, p.target, p.source_mask, w)
        assert any(r.level == 0 and r.moved_nodes for r in diag.steps)
        assert peak < 16 * 2 ** 20

    def test_diagnostics_text(self, small_pair):
        p = small_pair
        w = me.single_metric_weights("SAD", 0.1, 0.01)
        cfg = gr.PyramidConfig(levels=1, steps_per_level=2, labels_per_level=27,
                               finest_spacing_mm=12.0)
        _, diag = gr.register(p.source, p.target, None, w, cfg)
        text = diag.to_text()
        assert text.startswith("level step")
        assert len(text.strip().splitlines()) == 3
        # moved_nodes stays out of the log, which keeps five columns
        assert all(len(line.split()) == 5 for line in text.splitlines())


class TestWarpReuse:
    """register warps the source again only after a step that moved a
    control point, and reusing the warp changes no output bit."""

    # two equal columns: only a matrix of several columns warps the mask
    W = me.WeightMatrix(np.array([[0.1, 0.1], [10.0, 10.0], [10.0, 10.0], [10.0, 10.0]]),
                        np.array([0.4, 0.4]), (0, 1))
    CFG = gr.PyramidConfig(levels=2, steps_per_level=4, labels_per_level=27,
                           finest_spacing_mm=12.0)

    def count_calls(self, monkeypatch):
        calls = dict.fromkeys(("warp", "warp_mask", "sample_field", "solve"), 0)
        labelings = []

        def counted(name):
            inner = getattr(gr, name)

            def wrapper(*args):
                calls[name] += 1
                out = inner(*args)
                if name == "solve":
                    labelings.append(out)
                return out
            return wrapper

        for name in calls:
            monkeypatch.setattr(gr, name, counted(name))
        return calls, labelings

    def test_moved_nodes_counts_nonzero_labels(self, translated_pair, monkeypatch):
        p = translated_pair
        solve = gr.solve

        def diagonal_moves(instance):
            # every other moved node takes the last label, (+b, +b, +b), so
            # nodes and nonzero displacement components count differently
            lab = solve(instance)
            lab[np.flatnonzero(lab)[::2]] = instance.n_labels - 1
            return lab

        monkeypatch.setattr(gr, "solve", diagonal_moves)
        _, labelings = self.count_calls(monkeypatch)
        _, diag = gr.register(p.source, p.target, p.source_mask, self.W, self.CFG)
        moved = [r.moved_nodes for r in diag.steps]
        assert moved == [int(np.count_nonzero(lab)) for lab in labelings]
        assert 0 in moved and max(moved) > 0

    def test_warps_once_per_level_and_after_moved_steps(self, translated_pair, monkeypatch):
        p = translated_pair
        calls, _ = self.count_calls(monkeypatch)
        _, diag = gr.register(p.source, p.target, p.source_mask, self.W, self.CFG)
        last = self.CFG.steps_per_level - 1
        rewarps = [r for r in diag.steps if r.moved_nodes and r.step < last]
        assert any(r.moved_nodes == 0 and r.step < last for r in diag.steps)
        warps = self.CFG.levels + len(rewarps)
        assert calls["warp"] == calls["warp_mask"] == warps
        # only the finest level reads the accumulated field without sampling
        finest = 1 + sum(r.level == 0 for r in rewarps)
        assert calls["sample_field"] == warps - finest

    def test_reuse_matches_warping_every_step(self, translated_pair, monkeypatch):
        p = translated_pair
        fld, diag = gr.register(p.source, p.target, p.source_mask, self.W, self.CFG)

        @dataclass
        class EveryStepMoved(gr.StepRecord):
            def __post_init__(self):
                self.moved_nodes = max(self.moved_nodes, 1)

        monkeypatch.setattr(gr, "StepRecord", EveryStepMoved)
        calls, _ = self.count_calls(monkeypatch)
        ref, ref_diag = gr.register(p.source, p.target, p.source_mask, self.W, self.CFG)
        assert calls["warp"] == self.CFG.levels * self.CFG.steps_per_level
        assert fld.dense.tobytes() == ref.dense.tobytes()
        assert diag.to_text() == ref_diag.to_text()

    def test_all_zero_steps_warp_once_per_level(self, small_pair, monkeypatch):
        # source = target under SAD: the zero labeling is optimal at every step
        p = small_pair
        w = me.WeightMatrix(np.array([[1.0, 1.0], [0, 0], [0, 0], [0, 0]]), np.array([0.1, 0.1]),
                            (0, 1))
        calls, _ = self.count_calls(monkeypatch)
        fld, diag = gr.register(p.source, p.source, p.source_mask, w, self.CFG)
        assert all(r.moved_nodes == 0 for r in diag.steps)
        assert calls["warp"] == calls["warp_mask"] == self.CFG.levels
        assert calls["solve"] == self.CFG.levels * self.CFG.steps_per_level
        assert fld.dense.tobytes() == np.zeros_like(fld.dense).tobytes()

    def test_one_column_never_reads_the_mask(self, translated_pair, monkeypatch):
        p = translated_pair
        w = me.WeightMatrix(self.W.weights[:, :1], self.W.pairwise[:1], (0,))
        ref, ref_diag = gr.register(p.source, p.target, None, w, self.CFG)
        calls, _ = self.count_calls(monkeypatch)
        fld, diag = gr.register(p.source, p.target, p.source_mask, w, self.CFG)
        assert calls["warp"] > 0 and calls["warp_mask"] == 0
        assert fld.dense.tobytes() == ref.dense.tobytes()
        assert diag.to_text() == ref_diag.to_text()


class TestSkipCertificate:
    """Whenever the dual bound skips a move, no move set may lower the energy."""

    def _check(self, inst, rng):
        """Certify every label from the solved labeling, from it with two
        nodes changed, from all-zero and from a random labeling."""
        net = gr._ExpansionNetwork(inst)
        solved = gr.solve(inst)
        perturbed = solved.copy()
        perturbed[rng.integers(0, inst.n_nodes, 2)] = rng.integers(0, inst.n_labels, 2)
        skipped = 0
        for x in (solved, perturbed, np.zeros_like(solved),
                  rng.integers(0, inst.n_labels, inst.n_nodes)):
            net.relabel(x)
            for alpha in np.flatnonzero(net.certify(np.arange(inst.n_labels))):
                skipped += 1
                assert move_energy_changes(inst, x, alpha).min() >= -1e-9
        return skipped

    def test_uniform_weights(self):
        skipped = 0
        for seed in range(30):
            inst = registration_like_instance(seed, n_nodes=10, n_labels=5,
                                              edges=grid_edges_2d(2, 5), wp_range=(0.0, 3.0))
            skipped += self._check(inst, np.random.default_rng(seed))
        assert skipped > 100

    def test_per_edge_and_zero_weights(self):
        skipped = 0
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            base = registration_like_instance(seed, n_nodes=9, n_labels=4,
                                              edges=grid_edges_2d(3, 3))
            w = rng.uniform(0.0, 3.0, len(base.edges))
            w[rng.random(len(w)) < 0.3] = 0.0
            if seed % 5 == 0:
                w[:] = 0.0
            inst = gr.MrfInstance(base.unaries, w, base.pairwise_table, base.edges)
            skipped += self._check(inst, rng)
        assert skipped > 100

    def test_non_l1_table(self):
        # a nonzero diagonal, which the certificate would have to read on
        # every edge, is rejected by the instance
        with pytest.raises(ValueError, match="zero diagonal"):
            gr.MrfInstance(np.array([[0.0, -0.8], [0.0, -0.8]]), 1.0,
                           np.array([[0.0, 5.0], [5.0, 1.0]]), np.array([[0, 1]]))
        skipped = 0
        for seed in range(30):
            rng = np.random.default_rng(200 + seed)
            L = 4
            table = rng.uniform(0.0, 4.0, (L, L))
            table[np.diag_indices(L)] = 0.0          # asymmetric, non-metric
            edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [1, 5], [5, 6], [6, 2]])
            unaries = rng.uniform(0.0, 6.0, (7, L))
            inst = gr.MrfInstance(unaries, rng.uniform(0.2, 2.0), table, edges)
            skipped += self._check(inst, rng)
        assert skipped > 50


class TestFlowCertificate:
    """The labels the half split leaves open share one max-flow over
    regional networks (each label's deficit nodes and their neighbours),
    which certifies a label only when no move to it lowers the energy."""

    LIMIT = (1 << 31) - 1

    @staticmethod
    def chain(margins, weights=1.0):
        """Chain 0-1-2-... at label 0; moving node k to label 1 changes its
        unary by margins[k]. The labels are at L1 distance 1, so every edge
        may take up to its weight more of its change at either end."""
        margins = np.asarray(margins, dtype=np.float64)
        n = len(margins)
        inst = gr.MrfInstance(np.stack([np.zeros(n), margins], axis=1), weights,
                              np.array([[0.0, 1.0], [1.0, 0.0]]),
                              np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))
        net = gr._ExpansionNetwork(inst)
        net.relabel(np.zeros(n, dtype=np.int64))
        return inst, net

    @staticmethod
    def half_split_holds(net, alphas):
        """The labels the half split alone certifies."""
        return solve_oracle.half_split(net, alphas)[0].min(axis=1) >= 0

    def test_deficit_two_edges_away(self, monkeypatch):
        # one edge away, either end of it: the half split leaves the deficit
        # and the edge's slack, and the flow covers it
        for margins in ([-0.5, 1.0], [1.0, -0.5]):
            _, net = self.chain(margins)
            m, up_i, up_j = solve_oracle.half_split(net, np.array([1]))
            assert m.tolist() == [margins] and up_i.tolist() == up_j.tolist() == [[1.0]]
            assert net.certify([1]).tolist() == [True]
        # two edges away, node 2's surplus lies outside the region of node
        # 0, so the label is left to the full cut, which rejects the move
        inst, net = self.chain([-0.5, 0.0, 1.0])
        assert net.certify([1]).tolist() == [False]
        assert move_energy_changes(inst, np.zeros(3, dtype=np.int64), 1).min() >= 0
        cuts = []
        real_cut = gr._ExpansionNetwork.cut

        def counting(self, alpha):
            move = real_cut(self, alpha)
            cuts.append(move.any())
            return move

        monkeypatch.setattr(gr._ExpansionNetwork, "cut", counting)
        assert gr.solve(inst).tolist() == solve_oracle.solve_oracle(inst).tolist()
        assert cuts == [False]

    def test_improving_move_never_certified(self):
        # moving the whole chain lowers the energy whenever the last node's
        # loss is below node 0's gain; one edge away, the flow decides
        for far in (0.0, 0.1, 0.3, 0.49, 0.4999999, np.nextafter(0.5, 0.0)):
            for margins in ([-0.5, far], [-0.5, 0.0, far]):
                inst, net = self.chain(margins)
                n = len(margins)
                assert move_energy_changes(inst, np.zeros(n, dtype=np.int64), 1).min() < 0
                assert not net.certify([1])[0], margins
        # node 3's deficit is too small to survive scaling next to node 0's,
        # and no edge can bring it anything
        inst, net = self.chain([-1e10, 0.0, 2e10, -5e-324], [2e10, 2e10, 0.0])
        assert move_energy_changes(inst, np.zeros(4, dtype=np.int64), 1).min() < 0
        assert not net.certify([1])[0]
        # random chains: a certified label never has an improving move
        rng = np.random.default_rng(7)
        by_flow = improving = 0
        for _ in range(300):
            n = int(rng.integers(3, 10))
            margins = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.7)
            inst, net = self.chain(margins, rng.uniform(0.0, 1.5, n - 1))
            best = move_energy_changes(inst, np.zeros(n, dtype=np.int64), 1).min()
            certified = net.certify([1])[0]
            assert not (certified and best < -1e-12), margins
            improving += best < 0
            by_flow += certified and not self.half_split_holds(net, [1])[0]
        assert by_flow > 10 and improving > 50

    def test_batch_equals_one_label_at_a_time(self, monkeypatch):
        """Same answers, and the batched network is the disjoint union of
        the networks of the labels alone, capacity for capacity."""
        caps = []
        real_max_flow = gr.maximum_flow

        def recording(graph, s, t):
            caps.append(np.sort(graph.data))
            return real_max_flow(graph, s, t)

        monkeypatch.setattr(gr, "maximum_flow", recording)
        edges = lattice_edges_3d(4, 3, 2)
        by_flow = 0
        for seed in range(12):
            rng = np.random.default_rng(600 + seed)
            inst = registration_like_instance(seed, n_nodes=24, n_labels=27, edges=edges,
                                              wp_range=(0.02, 0.5))
            net = gr._ExpansionNetwork(inst)
            L = inst.n_labels
            for x in (np.zeros(inst.n_nodes, dtype=np.int64), gr.solve(inst),
                      rng.integers(0, L, inst.n_nodes)):
                net.relabel(x)
                caps.clear()
                batch = net.certify(np.arange(L))
                assert batch.tolist() == [net.certify([a])[0] for a in range(L)]
                if caps:
                    assert np.array_equal(caps[0], np.sort(np.concatenate(caps[1:])))
                some = rng.permutation(L)[: L // 2]
                assert net.certify(some).tolist() == batch[some].tolist()
                # in chunks of three labels
                chunks = [net.certify(np.arange(L)[lo:lo + 3]) for lo in range(0, L, 3)]
                assert np.concatenate(chunks).tolist() == batch.tolist()
                by_flow += np.count_nonzero(batch & ~self.half_split_holds(net, np.arange(L)))
        assert by_flow > 15

    def test_batch_budget_changes_no_answer(self, monkeypatch):
        """The open labels share one flow per batch of about
        _FLOW_BATCH_NODES region nodes. One label per flow (a budget of one
        node), or batches of a few labels, give the same answers, and solve
        the same labelings; these small networks take one flow each."""
        calls = []
        real_max_flow = gr.maximum_flow

        def recording(graph, s, t):
            calls.append(graph.shape[0] - 2)           # region nodes of the batch
            return real_max_flow(graph, s, t)

        monkeypatch.setattr(gr, "maximum_flow", recording)
        default = gr._FLOW_BATCH_NODES
        edges = lattice_edges_3d(4, 3, 2)
        instances = [registration_like_instance(seed, n_nodes=24, n_labels=27, edges=edges,
                                                wp_range=(0.02, 0.5)) for seed in range(12)]
        instances += [self.chain(m)[0] for m in ([-0.5, 1.0], [1.0, -0.5], [-0.5, 0.0, 0.3])]
        split = 0
        for k, inst in enumerate(instances):
            rng = np.random.default_rng(800 + k)
            net = gr._ExpansionNetwork(inst)
            L = inst.n_labels
            alphas = np.arange(1, L)
            x0 = np.zeros(inst.n_nodes, dtype=np.int64)
            for x in (x0, gr.solve(inst), rng.integers(0, L, inst.n_nodes)):
                net.relabel(x)
                answers = {}
                for budget in (default, 1, 40):
                    monkeypatch.setattr(gr, "_FLOW_BATCH_NODES", budget)
                    calls.clear()
                    answers[budget] = net.certify(alphas).tolist()
                    n_open = np.count_nonzero(~self.half_split_holds(net, alphas))
                    if budget == default:
                        assert len(calls) == min(n_open, 1)
                    elif budget == 1:
                        assert len(calls) == n_open
                    else:
                        # a batch holds fewer than the budget plus one label's region
                        assert all(c < budget + inst.n_nodes for c in calls)
                        split += len(calls) > 1
                assert answers[1] == answers[default] == answers[40]
            labelings = []
            for budget in (default, 1):
                monkeypatch.setattr(gr, "_FLOW_BATCH_NODES", budget)
                labelings.append(gr.solve(inst).tolist())
            assert labelings[0] == labelings[1]
        assert split > 5

    def test_regions_built_once_per_call(self, monkeypatch):
        """One certify call builds the regions of all its open labels with
        one `_inside` call, whatever the batch budget; its batches read
        their rows of that mask."""
        calls, flows = [], []
        real_inside = gr._ExpansionNetwork._inside
        real_max_flow = gr.maximum_flow

        def counting(self, m):
            calls.append(len(m))
            return real_inside(self, m)

        def recording(graph, s, t):
            flows.append(graph.shape[0])
            return real_max_flow(graph, s, t)

        monkeypatch.setattr(gr._ExpansionNetwork, "_inside", counting)
        monkeypatch.setattr(gr, "maximum_flow", recording)
        default = gr._FLOW_BATCH_NODES
        edges = lattice_edges_3d(4, 3, 2)
        split = 0
        for seed in range(6):
            rng = np.random.default_rng(950 + seed)
            inst = registration_like_instance(seed, n_nodes=24, n_labels=27, edges=edges,
                                              wp_range=(0.02, 0.5))
            net = gr._ExpansionNetwork(inst)
            alphas = np.arange(inst.n_labels)
            for x in (np.zeros(inst.n_nodes, dtype=np.int64),
                      rng.integers(0, inst.n_labels, inst.n_nodes)):
                net.relabel(x)
                n_open = np.count_nonzero(~self.half_split_holds(net, alphas))
                for budget in (default, 1, 64):
                    monkeypatch.setattr(gr, "_FLOW_BATCH_NODES", budget)
                    calls.clear()
                    flows.clear()
                    net.certify(alphas)
                    assert calls == ([n_open] if n_open else [])
                    split += len(flows) > 1
        assert split > 5

    def test_capacities_stay_in_int32_over_wide_margins(self, monkeypatch):
        """125 labels whose margins span 1e-9 to 1e9: no capacity, node total
        or flow through the network reaches 2^31 - 1, and every certified
        label passes the brute-force check."""
        networks = []
        real_max_flow = gr.maximum_flow

        def recording(graph, s, t):
            networks.append(graph.copy())
            return real_max_flow(graph, s, t)

        monkeypatch.setattr(gr, "maximum_flow", recording)
        edges = grid_edges_2d(2, 4)
        V, L = 8, 125
        by_flow = 0
        for seed in range(6):
            rng = np.random.default_rng(700 + seed)

            def magnitude(*shape):
                return 10.0 ** rng.uniform(-9.0, 9.0, shape)

            disp = np.vstack([np.zeros(3), rng.uniform(-1.0, 1.0, (L - 1, 3))])
            unaries = np.zeros((V, L))
            for a in range(1, L):
                # one deficit node, drawn against the surplus of one of its
                # neighbours; the half split leaves it short at label 0
                u = magnitude(V)
                k = int(rng.integers(V))
                near = np.concatenate([edges[edges[:, 0] == k, 1], edges[edges[:, 1] == k, 0]])
                u[k] = -u[rng.choice(near)] * rng.uniform(0.3, 1.5)
                unaries[:, a] = u
            inst = gr.MrfInstance(unaries, magnitude(len(edges)),
                                  gr.pairwise_l1_table(LabelSpace(disp)), edges)
            net = gr._ExpansionNetwork(inst)
            x = np.zeros(V, dtype=np.int64)
            net.relabel(x)
            networks.clear()
            safe = net.certify(np.arange(L))
            assert len(networks) == 1
            graph = networks[0]
            assert graph.dtype == np.int32
            caps = graph.data.astype(np.int64)
            assert caps.min() >= 0 and caps.max() < self.LIMIT
            tails = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
            totals = np.bincount(tails, caps, graph.shape[0]) + np.bincount(
                graph.indices, caps, graph.shape[0])
            assert totals.max() < self.LIMIT              # s's total bounds the flow
            for a in np.flatnonzero(safe):
                scale = (np.abs(unaries[:, a]).max()
                         + (inst.edge_weights * inst.pairwise_table[a].max()).max())
                assert move_energy_changes(inst, x, a).min() >= -1e-12 * scale, (seed, a)
            by_flow += np.count_nonzero(safe & ~self.half_split_holds(net, np.arange(L)))
        # capping arcs at twice the deficit keeps small deficits resolvable
        # next to large surpluses and slacks
        assert by_flow > 300

    def test_cut_network_is_int32(self, monkeypatch):
        # int32 throughout, the type maximum_flow works in, so it does not
        # convert the network on every cut
        networks = []
        real_max_flow = gr.maximum_flow

        def recording(graph, s, t):
            networks.append(graph)
            return real_max_flow(graph, s, t)

        monkeypatch.setattr(gr, "maximum_flow", recording)
        inst = registration_like_instance(0, n_nodes=24, n_labels=9,
                                          edges=lattice_edges_3d(4, 3, 2))
        net = gr._ExpansionNetwork(inst)
        net.relabel(np.zeros(inst.n_nodes, dtype=np.int64))
        net.cut(3)
        assert len(networks) == 1
        for a in (networks[0].data, networks[0].indices, networks[0].indptr):
            assert a.dtype == np.int32


class TestBoundaryShares:
    """The certificate sums each margin over the labeling's boundary edges
    alone (the instance admits only tables with a zero diagonal and no
    negative entry), and computes slacks on the region edges alone, with
    region nodes read from neighbour lists and region edges from the edge
    list. Both equal the dense half split bit for bit."""

    @staticmethod
    def labelings(inst, rng):
        solved = gr.solve(inst)
        perturbed = solved.copy()
        perturbed[rng.integers(0, inst.n_nodes, 2)] = rng.integers(0, inst.n_labels, 2)
        return (np.zeros_like(solved), solved, perturbed,
                rng.integers(0, inst.n_labels, inst.n_nodes))

    def _check(self, inst, rng):
        """Returns the number of open labels whose region was checked."""
        net = gr._ExpansionNetwork(inst)
        alphas = np.arange(inst.n_labels)
        checked = 0
        for x in self.labelings(inst, rng):
            net.relabel(x)
            m_ref, up_i_ref, up_j_ref = solve_oracle.half_split(net, alphas)
            m = net._margins(alphas)
            assert m.tobytes() == m_ref.tobytes()
            short = m.min(axis=1) < 0                # left to the flow
            if not short.any():
                continue
            inside = net._inside(m[short])
            ec, ee, up_i, up_j = net._region(alphas[short], inside)
            mask, (rc, re) = solve_oracle.region(net, m_ref[short])
            assert inside.tolist() == mask.tolist()
            assert ec.tolist() == rc.tolist() and ee.tolist() == re.tolist()
            assert up_i.tobytes() == up_i_ref[short][rc, re].tobytes()
            assert up_j.tobytes() == up_j_ref[short][rc, re].tobytes()
            checked += np.count_nonzero(short)
        return checked

    def test_l1_tables(self):
        edges = lattice_edges_3d(4, 3, 2)
        checked = 0
        for seed in range(12):
            inst = registration_like_instance(seed, n_nodes=24, n_labels=27, edges=edges,
                                              wp_range=(0.02, 1.0))
            checked += self._check(inst, np.random.default_rng(800 + seed))
        assert checked > 500

    def test_per_edge_and_zero_weights(self):
        checked = 0
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            base = registration_like_instance(seed, n_nodes=9, n_labels=5,
                                              edges=grid_edges_2d(3, 3))
            w = rng.uniform(0.0, 3.0, len(base.edges))
            w[rng.random(len(w)) < 0.3] = 0.0
            if seed % 5 == 0:
                w[:] = 0.0
            inst = gr.MrfInstance(base.unaries, w, base.pairwise_table, base.edges)
            checked += self._check(inst, rng)
        assert checked > 150

    def test_non_l1_tables(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            gr.MrfInstance(np.array([[0.0, -0.8], [0.0, -0.8]]), 1.0,
                           np.array([[0.0, 5.0], [5.0, 1.0]]), np.array([[0, 1]]))
        checked = 0
        for seed in range(30):
            rng = np.random.default_rng(200 + seed)
            L = 4
            table = rng.uniform(0.0, 4.0, (L, L))
            table[np.diag_indices(L)] = 0.0              # asymmetric, non-metric
            edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [1, 5], [5, 6], [6, 2]])
            unaries = rng.uniform(0.0, 6.0, (7, L))
            inst = gr.MrfInstance(unaries, rng.uniform(0.2, 2.0), table, edges)
            checked += self._check(inst, rng)
        assert checked > 200

    def test_margins_read_boundary_edges_only(self, monkeypatch):
        """n labels' margins read n*b edge shares at a labeling with b
        boundary edges, so none at the all-zero labeling."""
        reads = []
        real_shares = gr._ExpansionNetwork._shares

        def counting(self, alphas, e):
            reads.append(np.broadcast(alphas, e).size)
            return real_shares(self, alphas, e)

        monkeypatch.setattr(gr._ExpansionNetwork, "_shares", counting)
        edges = lattice_edges_3d(4, 4, 3)
        inst = registration_like_instance(3, n_nodes=48, n_labels=27, edges=edges,
                                          wp_range=(0.02, 0.3))
        rng = np.random.default_rng(11)
        net = gr._ExpansionNetwork(inst)
        alphas = np.arange(inst.n_labels)
        partial = 0
        for x in self.labelings(inst, rng):
            net.relabel(x)
            reads.clear()
            net._margins(alphas)
            b = np.count_nonzero(x[edges[:, 0]] != x[edges[:, 1]])
            assert sum(reads) == len(alphas) * b
            partial += 0 < b < len(edges)
            if not x.any():
                assert b == 0
                # every label the margins alone certify costs no share at all
                safe = net._margins(alphas).min(axis=1) >= 0
                reads.clear()
                assert net.certify(alphas[safe]).all() and sum(reads) == 0
        assert partial >= 2


class TestMrfInstanceChecks:
    U = np.zeros((3, 2))
    T = np.array([[0.0, 1.0], [1.0, 0.0]])
    E = np.array([[0, 1], [1, 2]])

    @pytest.mark.parametrize("w", [-1.0, np.nan, np.inf, -np.inf, [0.5, -1e-300],
                                   [0.5, np.nan], [np.inf, 0.5]])
    def test_negative_or_non_finite_weights_rejected(self, w):
        # a negative weight would be clipped out of the cut silently
        with pytest.raises(ValueError, match="edge_weights must be finite and >= 0"):
            gr.MrfInstance(self.U, w, self.T, self.E)

    # the last three: a nonzero diagonal or a negative entry, which would
    # give the certificate nonzero shares on edges whose ends share a label
    @pytest.mark.parametrize("t", [np.zeros((3, 3)), np.zeros((2, 3)), np.zeros(2),
                                   [[0.0, np.inf], [1.0, 0.0]], [[0.0, 1.0], [np.nan, 0.0]],
                                   [[0.0, 1.0], [1.0, 1e-300]], [[-0.0, 1.0], [-1e-300, 0.0]],
                                   [[0.0, -1.0], [1.0, 0.0]]])
    def test_bad_pairwise_table_rejected(self, t):
        with pytest.raises(ValueError, match=r"pairwise_table must be a finite \(2, 2\)"):
            gr.MrfInstance(self.U, 1.0, t, self.E)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_unaries_rejected(self, bad):
        u = self.U.copy()
        u[1, 1] = bad
        with pytest.raises(ValueError, match="unaries must be finite: the weights scale"):
            gr.MrfInstance(u, 1.0, self.T, self.E)

    def test_zero_weights_of_either_sign_accepted(self):
        inst = gr.MrfInstance(self.U, [0.0, -0.0], self.T, self.E)
        assert inst.energy(np.array([0, 1, 0])) == 0.0

    def test_built_instances_pass(self, small_pair):
        p = small_pair
        wmat = me.WeightMatrix(np.array([[0.1, 0.2], [10.0, 9.0], [10.0, 11.0], [10.0, 10.0]]),
                               np.array([0.3, 0.0]), (0, 1))
        ls = gr.initialize_label_space(gr.PyramidConfig(labels_per_level=27), (10.0,) * 3)
        grid = make_control_grid(p.source, (10.0,) * 3)
        inst = gr.build_instance(p.source, p.target, p.source_mask, wmat, grid, ls)
        assert (inst.edge_weights >= 0).all() and np.isfinite(inst.pairwise_table).all()


class TestSolverOracle:
    """The solver returns the labeling a cut for every label of every sweep
    gives, bit for bit; every cut it makes equals the reference cut."""

    def test_registration_like_instances(self):
        moved = 0
        for seed in range(60):
            inst = registration_like_instance(seed, wp_range=(0.0, 2.0))
            lab = gr.solve(inst)
            assert np.array_equal(lab, solve_oracle.solve_oracle(inst)), f"seed {seed}"
            moved += bool(lab.any())
        assert moved > 30

    def test_lattice_27_labels(self):
        edges = lattice_edges_3d(4, 4, 3)
        moved = 0
        for seed in range(12):
            inst = registration_like_instance(seed, n_nodes=48, n_labels=27, edges=edges,
                                              wp_range=(0.02, 0.3))
            lab = gr.solve(inst)
            assert np.array_equal(lab, solve_oracle.solve_oracle(inst)), f"seed {seed}"
            moved += len(np.unique(lab)) > 2
        assert moved >= 6

    def test_per_edge_weights(self):
        edges = lattice_edges_3d(3, 3, 2)
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            base = registration_like_instance(seed, n_nodes=18, n_labels=8, edges=edges)
            w = rng.uniform(0.0, 0.8, len(edges))
            w[rng.random(len(w)) < 0.2] = 0.0
            inst = gr.MrfInstance(base.unaries, w, base.pairwise_table, edges)
            assert np.array_equal(gr.solve(inst), solve_oracle.solve_oracle(inst)), f"seed {seed}"

    def test_cut_masks_match(self):
        edges = lattice_edges_3d(4, 3, 2)
        partial = 0
        for seed in range(10):
            rng = np.random.default_rng(400 + seed)
            inst = registration_like_instance(seed, n_nodes=24, n_labels=9, edges=edges,
                                              wp_range=(0.01, 0.3))
            if seed % 2:
                inst = gr.MrfInstance(inst.unaries, rng.uniform(0.0, 0.3, len(edges)),
                                      inst.pairwise_table, edges)
            net = gr._ExpansionNetwork(inst)
            labelings = [rng.integers(0, inst.n_labels, inst.n_nodes) for _ in range(4)]
            for x in labelings + [gr.solve(inst)]:
                net.relabel(x)
                for alpha in range(inst.n_labels):
                    mask = net.cut(alpha)
                    ref = solve_oracle._expansion_cut(inst, x, alpha, inst.edge_weights)
                    assert np.array_equal(mask, ref), f"seed {seed} alpha {alpha}"
                    partial += bool(mask.any()) and not mask.all()
        assert partial > 100

    def test_icm_pass_matches_node_by_node(self):
        edges = lattice_edges_3d(4, 3, 2)
        changes = 0
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            inst = registration_like_instance(seed, n_nodes=24, n_labels=9, edges=edges,
                                              wp_range=(0.05, 1.0))
            x = rng.integers(0, inst.n_labels, inst.n_nodes)
            ref = x.copy()
            n = gr._icm_pass(inst, x, gr._neighbor_table(inst))
            n_ref = solve_oracle._icm_pass(inst, ref, solve_oracle._neighbor_lists(inst))
            assert n == n_ref and np.array_equal(x, ref), f"seed {seed}"
            changes += n
        assert changes > 20


class TestSkipWork:
    """Between two relabels the solver certifies each label at most once and
    cuts each at most once, and only a label it certified open; after the
    last relabel every label has been certified or cut."""

    @pytest.fixture
    def log(self, monkeypatch):
        """The network's certify, cut and relabel calls, in order."""
        net = gr._ExpansionNetwork
        certify, cut, relabel = net.certify, net.cut, net.relabel
        log = []

        def logged_certify(self, alphas):
            safe = certify(self, alphas)
            log.append(("certify", [int(a) for a in alphas], safe.copy()))
            return safe

        def logged_cut(self, alpha):
            log.append(("cut", int(alpha)))
            return cut(self, alpha)

        def logged_relabel(self, labeling):
            log.append(("relabel",))
            return relabel(self, labeling)

        monkeypatch.setattr(net, "certify", logged_certify)
        monkeypatch.setattr(net, "cut", logged_cut)
        monkeypatch.setattr(net, "relabel", logged_relabel)
        return log

    @staticmethod
    def check(inst, log):
        """Returns the numbers of accepted moves and cuts."""
        log.clear()
        gr.solve(inst)
        assert log[0] == ("relabel",)
        relabels = cuts = 0
        for entry in log:
            if entry[0] == "relabel":
                relabels += 1
                certified, opened, cut = set(), set(), set()
            elif entry[0] == "certify":
                _, alphas, safe = entry
                assert certified.isdisjoint(alphas) and len(set(alphas)) == len(alphas)
                certified.update(alphas)
                opened.update(a for a, s in zip(alphas, safe) if not s)
            else:
                alpha = entry[1]
                assert alpha not in cut and alpha in opened
                cut.add(alpha)
                cuts += 1
        assert certified | cut == set(range(inst.n_labels))
        return relabels - 1, cuts

    def test_registration_like_instances(self, log):
        moves = cuts = 0
        for seed in range(60):
            m, c = self.check(registration_like_instance(seed, wp_range=(0.0, 2.0)), log)
            moves += m
            cuts += c
        assert moves > 30 and cuts > 30

    def test_lattice_27_labels(self, log):
        edges = lattice_edges_3d(4, 4, 3)
        moves = cuts = 0
        for seed in range(12):
            inst = registration_like_instance(seed, n_nodes=48, n_labels=27, edges=edges,
                                              wp_range=(0.02, 0.3))
            m, c = self.check(inst, log)
            moves += m
            cuts += c
        assert moves > 60 and cuts > 60
