from dataclasses import dataclass

import numpy as np
import pytest

from mmreg import graphreg as gr
from mmreg import metrics as me
from mmreg.volume import LabelSpace, SegmentationMask, Volume, make_control_grid, warp_mask
from mmreg.synth import SynthSpec, synth_dataset

import metric_oracle as mo
import solve_oracle


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

    W = me.WeightMatrix(np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.4]), (0,))
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
        w = me.single_metric_weights("SAD", 1.0, 0.1)
        calls, _ = self.count_calls(monkeypatch)
        fld, diag = gr.register(p.source, p.source, p.source_mask, w, self.CFG)
        assert all(r.moved_nodes == 0 for r in diag.steps)
        assert calls["warp"] == calls["warp_mask"] == self.CFG.levels
        assert calls["solve"] == self.CFG.levels * self.CFG.steps_per_level
        assert fld.dense.tobytes() == np.zeros_like(fld.dense).tobytes()


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
            for alpha in range(inst.n_labels):
                if net.certify(alpha):
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
        # asymmetric, non-metric, nonzero diagonal: t[a, a] != 0 must be used
        hand = gr.MrfInstance(np.array([[0.0, -0.8], [0.0, -0.8]]), 1.0,
                              np.array([[0.0, 5.0], [5.0, 1.0]]), np.array([[0, 1]]))
        net = gr._ExpansionNetwork(hand)
        net.relabel(np.zeros(2, dtype=np.int64))
        # moving both nodes costs 1 - 1.6 < 0 though each alone costs 4.2
        assert not net.certify(1)
        skipped = 0
        for seed in range(30):
            rng = np.random.default_rng(200 + seed)
            L = 4
            table = rng.uniform(0.0, 4.0, (L, L))
            edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [1, 5], [5, 6], [6, 2]])
            unaries = rng.uniform(0.0, 6.0, (7, L))
            inst = gr.MrfInstance(unaries, rng.uniform(0.2, 2.0), table, edges)
            skipped += self._check(inst, rng)
        assert skipped > 50


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
