"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`. The benchmark-style
criteria build small synthetic datasets; everything runs on a desktop CPU.
"""

import time

import numpy as np
import pytest

from mmreg import evaluation as ev
from mmreg import graphreg as gr
from mmreg import learn
from mmreg import metrics as me
from mmreg.volume import LabelSpace, warp_mask
from mmreg.synth import SynthSpec, synth_dataset


def verdict(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


from count_oracle import tile_edges, tile_sums
from helpers import build_toy_sample, seeded_instance
from solve_oracle import solve_bruteforce


class TestCriterion1SolverOracle:
    def test_solver_within_5pct_of_bruteforce(self):
        t0 = time.perf_counter()
        worst = 1.0
        exact_wp0 = True
        for seed in range(100):
            inst, rng = seeded_instance(seed)
            e_solve = inst.energy(gr.solve(inst))
            e_brute = inst.energy(solve_bruteforce(inst))
            assert e_solve <= 1.05 * e_brute + 1e-12, f"seed {seed}"
            worst = max(worst, e_solve / max(e_brute, 1e-12))
            inst0 = gr.MrfInstance(inst.unaries, 0.0, inst.pairwise_table, inst.edges)
            if not np.array_equal(gr.solve(inst0), np.argmin(inst.unaries, axis=1)):
                exact_wp0 = False
        elapsed = time.perf_counter() - t0
        verdict(
            "criterion 1 (solver-oracle equivalence)",
            worst <= 1.05 and exact_wp0 and elapsed < 10.0,
            f"worst ratio {worst:.6f}, wp=0 exact: {exact_wp0}, {elapsed:.1f}s",
        )


class TestCriterion2EnergyLinearity:
    def test_energy_equals_w_dot_psi(self):
        worst = 0.0
        argmin_stable = True
        for seed in range(50):
            inst, rng = seeded_instance(seed, n_labels=3)
            feats = rng.uniform(0.0, 2.0, (6, 3, me.N_METRICS))
            tables = learn.PairTables(None, None, feats, inst.pairwise_table, inst.edges)
            s = learn.TrainingSample(tables, 1, None, None, np.zeros((6, 3)))
            w = np.concatenate([rng.uniform(-1, 2, me.N_METRICS), [rng.uniform(0.0, 1.0)]])
            lab = rng.integers(0, 3, 6)
            e = learn.loss_augmented_instance(s, w, 0.0).energy(lab)
            psi = learn.joint_feature(s, lab)
            rel = abs(e - float(w @ psi)) / max(1.0, abs(e))
            worst = max(worst, rel)

            wpos = np.abs(w) + 0.05
            inst1 = learn.loss_augmented_instance(s, wpos, 0.0)
            k = float(rng.uniform(0.5, 4.0))
            inst2 = learn.loss_augmented_instance(s, k * wpos, 0.0)
            lab1 = solve_bruteforce(inst1)
            e1 = inst1.energy(lab1)
            # only check argmin stability when the optimum is unique
            second = _second_best_energy(inst1, lab1)
            if second - e1 > 1e-9:
                if not np.array_equal(lab1, solve_bruteforce(inst2)):
                    argmin_stable = False
        verdict(
            "criterion 2 (energy linearity)",
            worst < 1e-9 and argmin_stable,
            f"max relative deviation {worst:.2e}, scale-invariant argmin: {argmin_stable}",
        )


def _second_best_energy(inst, best_lab):
    V, L = inst.unaries.shape
    best = np.inf
    for idx in range(L ** V):
        lab = np.array([(idx // L ** (V - 1 - k)) % L for k in range(V)])
        if np.array_equal(lab, best_lab):
            continue
        best = min(best, inst.energy(lab))
    return best


@pytest.fixture(scope="module")
def synthetic_64(scope="module"):
    spec = SynthSpec(
        dims=(64, 64, 64), spacing_mm=(2.0, 2.0, 2.0), n_pairs=1,
        organ_radii_mm=(14.0, 12.0),
        organ_centers_frac=((0.35, 0.4, 0.5), (0.68, 0.62, 0.5)),
        center_jitter_mm=2.0, radius_jitter_mm=1.0,
        base_levels=(0.25, 0.55, 0.8), texture_amp=(0.05, 0.03, 0.1),
        remap_region_x_frac=1.0, noise_sigma=0.01,
        gt_mode="random_ffd", gt_grid_spacing_mm=60.0, max_gt_disp_mm=8.0,
    )
    return synth_dataset(spec, 17)[0]


class TestCriterion3DiffeomorphismBound:
    def test_bound_and_refinement(self, synthetic_64):
        p = synthetic_64
        w = me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.4]), (0,),
            scales=me.calibrate_scales([(p.source, p.target)], 25.0),
        )
        cfg = gr.PyramidConfig()           # 2 levels, 5 steps, 125 labels, 25 mm
        _, diag = gr.register(p.source, p.target, p.source_mask, w, cfg)
        ok_bound = all(
            r.max_sparse_component_mm <= 0.4 * (cfg.finest_spacing_mm * 2 ** r.level) + 1e-9
            for r in diag.steps
        )
        ok_shrink = True
        by_level = {}
        for r in diag.steps:
            by_level.setdefault(r.level, []).append(r.label_max_norm_mm)
        for level, norms in by_level.items():
            for a, b in zip(norms, norms[1:]):
                if abs(b - 0.7 * a) > 1e-9:
                    ok_shrink = False
        verdict(
            "criterion 3 (diffeomorphism bound)",
            ok_bound and ok_shrink,
            f"max |component| within 0.4 x spacing: {ok_bound}, labels shrink by 0.7: {ok_shrink}",
        )


class TestCriterion4SelfRegistration:
    def test_self_registration(self, synthetic_64):
        p = synthetic_64
        w = me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.4]), (0,),
            scales=me.calibrate_scales([(p.source, p.source)], 25.0),
        )
        t0 = time.perf_counter()
        fld, _ = gr.register(p.source, p.source, p.source_mask, w, gr.PyramidConfig())
        elapsed = time.perf_counter() - t0
        mean_disp = float(np.linalg.norm(fld.dense, axis=3).mean())
        warped = warp_mask(p.source_mask, fld)
        organs = p.source_mask.class_ids()
        dice_ok = all(
            ev.exact_dice(warped.labels == c, p.source_mask.labels == c)
            >= ev.exact_dice(p.source_mask.labels == c, p.source_mask.labels == c)
            for c in organs
        )
        verdict(
            "criterion 4 (self-registration)",
            mean_disp < 0.5 and dice_ok and elapsed < 30.0,
            f"mean displacement {mean_disp:.3f} mm, dice preserved: {dice_ok}, {elapsed:.1f}s",
        )


class TestCriterion5TranslationRecovery:
    def test_six_mm_translation(self):
        spec = SynthSpec(
            dims=(48, 48, 40), spacing_mm=(2.0, 2.0, 2.0), n_pairs=1,
            organ_radii_mm=(10.0,), organ_centers_frac=((0.45, 0.5, 0.5),),
            center_jitter_mm=0.0, radius_jitter_mm=0.0,
            base_levels=(0.25, 0.7), texture_amp=(0.05, 0.1),
            remap_region_x_frac=1.0, noise_sigma=0.01,
            gt_mode="translate", gt_translate_mm=(6.0, 0.0, 0.0), max_gt_disp_mm=8.0,
        )
        p = synth_dataset(spec, 42)[0]
        before = ev.exact_dice(p.source_mask.labels == 1, p.target_mask.labels == 1)
        w = me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.4]), (0,),
            scales=me.calibrate_scales([(p.source, p.target)], 25.0),
        )
        fld, _ = gr.register(p.source, p.target, p.source_mask, w, gr.PyramidConfig())
        fg = p.target_mask.labels > 0
        err = float(np.linalg.norm(fld.dense - spec.gt_translate_mm, axis=3)[fg].mean())
        warped = warp_mask(p.source_mask, fld)
        after = ev.exact_dice(warped.labels == 1, p.target_mask.labels == 1)
        verdict(
            "criterion 5 (translation recovery)",
            before <= 0.6 and err <= 2.5 and after >= 0.90,
            f"dice {before:.3f} -> {after:.3f}, foreground error {err:.2f} mm",
        )


class TestCriterion6LossDiceConsistency:
    def test_tiling_decomposition_exact(self):
        from mmreg.volume import Volume, make_control_grid

        rng = np.random.default_rng(0)
        vol = Volume(np.zeros((14, 13, 11), dtype=np.float32), (2.0, 2.0, 2.0))
        grid = make_control_grid(vol, 9.0)
        bounds = tile_edges(grid, vol)
        all_equal = True
        for _ in range(50):
            a = rng.random(vol.dims) > rng.uniform(0.3, 0.8)
            b = rng.random(vol.dims) > rng.uniform(0.3, 0.8)
            # the per-node tile counts the loss surrogate accumulates
            num = int(tile_sums(a & b, bounds).sum())
            den = int(tile_sums(a, bounds).sum()) + int(tile_sums(b, bounds).sum())
            if 1.0 - 2.0 * num / den != 1.0 - ev.exact_dice(a, b):
                all_equal = False
        verdict(
            "criterion 6 (loss/Dice consistency)",
            all_equal,
            "tiling decomposition equals 1 - exact dice on 50 seeded pairs",
        )


class TestCriterion8LossAugmentedOracle:
    def test_impute_and_separation_match_enumeration(self):
        ok = True
        detail = []
        for seed in range(8):
            s, rng = build_toy_sample(seed)
            w = np.concatenate([rng.uniform(0.0, 2.0, me.N_METRICS), [rng.uniform(0.0, 0.5)]])
            cfg = learn.TrainConfig()

            lab = learn.impute_latent(s, w, cfg)
            got = _augmented_value(s, w, lab, +1, cfg.eta)
            best, _ = _enumerate(s, w, +1, cfg.eta)
            if abs(got - best) > 1e-9:
                ok = False
                detail.append(f"impute seed {seed}")

            inst = learn.loss_augmented_instance(s, w, -1.0)
            lab = gr.solve(inst)
            got = _augmented_value(s, w, lab, -1, 1.0)
            best, _ = _enumerate(s, w, -1, 1.0)
            if abs(got - best) > 1e-9:
                ok = False
                detail.append(f"separation seed {seed}")
        verdict(
            "criterion 8 (loss-augmented inference oracle)",
            ok,
            "exact enumeration match on 8 seeded toys" if ok else "; ".join(detail),
        )


def _augmented_value(s, w, lab, sign, scale):
    V = s.tables.features.shape[0]
    return float(w @ learn.joint_feature(s, lab)) + sign * scale * float(
        s.loss_terms[np.arange(V), lab].sum()
    )


def _enumerate(s, w, sign, scale):
    V, L, _ = s.tables.features.shape
    best = None
    for idx in range(L ** V):
        lab = np.array([(idx // L ** (V - 1 - k)) % L for k in range(V)])
        val = _augmented_value(s, w, lab, sign, scale)
        if best is None or val < best[0] - 1e-12:
            best = (val, lab)
    return best
