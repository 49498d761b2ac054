import os

import numpy as np
import pytest

from mmreg import evaluation as ev
from mmreg import graphreg as gr
from mmreg import metrics as me
from mmreg.volume import Volume, make_control_grid, tile_edges
from mmreg.synth import SynthSpec, synth_dataset

from count_oracle import tile_sums


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestExactDice:
    def test_identical(self, rng):
        a = rng.random((6, 6, 6)) > 0.5
        assert ev.exact_dice(a, a) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4), bool)
        b = np.zeros((4, 4, 4), bool)
        a[:2] = True
        b[2:] = True
        assert ev.exact_dice(a, b) == 0.0

    def test_known_overlap(self):
        a = np.zeros((10, 10, 4), bool)
        b = np.zeros((10, 10, 4), bool)
        a[0:5, 0:5, :] = True          # 100 voxels
        b[2:7, 0:5, :] = True          # overlap 3*5*4 = 60
        assert ev.exact_dice(a, b) == pytest.approx(0.6)

    def test_both_empty(self):
        z = np.zeros((3, 3, 3), bool)
        assert ev.exact_dice(z, z) == 1.0

    def test_symmetry(self, rng):
        a = rng.random((5, 5, 5)) > 0.5
        b = rng.random((5, 5, 5)) > 0.5
        assert ev.exact_dice(a, b) == ev.exact_dice(b, a)

    def test_matches_tile_decomposition(self, rng):
        # control-point tiles partition the volume, so the counts the loss
        # surrogate accumulates per node give exact_dice bit for bit
        vol = Volume(np.zeros((12, 12, 10), dtype=np.float32), (2.0, 2.0, 2.0))
        bounds = tile_edges(make_control_grid(vol, 8.0), vol)
        for _ in range(50):
            a = rng.random(vol.dims) > 0.6
            b = rng.random(vol.dims) > 0.6
            num = int(tile_sums(a & b, bounds).sum())
            den = int(tile_sums(a, bounds).sum()) + int(tile_sums(b, bounds).sum())
            assert 2.0 * num / den == ev.exact_dice(a, b)


@pytest.fixture(scope="module")
def tiny_dataset():
    spec = SynthSpec(
        dims=(20, 18, 16), spacing_mm=(2.0, 2.0, 2.0), n_pairs=2,
        organ_radii_mm=(6.0,), organ_centers_frac=((0.5, 0.5, 0.5),),
        center_jitter_mm=1.0, radius_jitter_mm=0.5,
        base_levels=(0.25, 0.7), texture_amp=(0.05, 0.08),
        remap_region_x_frac=1.0, noise_sigma=0.01,
        gt_mode="identity",
    )
    pairs = synth_dataset(spec, 9)
    return [(p.pair_id, p.source, p.target, p.source_mask, p.target_mask) for p in pairs]


@pytest.fixture(scope="module")
def tiny_config():
    return gr.PyramidConfig(levels=1, steps_per_level=2, labels_per_level=27,
                            finest_spacing_mm=12.0)


@pytest.fixture(scope="module")
def tiny_model():
    return me.WeightMatrix(
        np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.4]), (0,)
    )


class TestRunBenchmark:
    def test_identity_pairs_all_methods_perfect(self, tiny_dataset, tiny_config, tiny_model):
        report = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config)
        # identity gt: source masks equal target masks, nothing should move
        for r in report.rows:
            assert r.dice_before == 1.0
            assert r.dice_after == 1.0

    def test_row_counts(self, tiny_dataset, tiny_config, tiny_model):
        report = ev.run_benchmark(tiny_dataset, tiny_config and tiny_model, tiny_config)
        organs = 1
        assert len(report.rows) == len(tiny_dataset) * organs * len(ev.ALL_METHODS)

    def test_aggregates_match_rows(self, tiny_dataset, tiny_config, tiny_model):
        report = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config)
        summary = report.summary()
        for (organ, method), s in summary.items():
            rows = [r.dice_after for r in report.rows
                    if r.organ == organ and r.method == method]
            assert abs(s["mean_after"] - np.mean(rows)) < 1e-12
            assert s["n"] == len(rows)

    def test_threaded_equals_serial(self, tiny_dataset, tiny_config, tiny_model):
        r1 = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config, threads=1)
        r2 = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config, threads=3)
        assert [(r.pair, r.organ, r.method, r.dice_after) for r in r1.rows] == [
            (r.pair, r.organ, r.method, r.dice_after) for r in r2.rows
        ]


class TestReports:
    def test_csv_schema_and_determinism(self, tmp_path, tiny_dataset, tiny_config, tiny_model):
        report = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config)
        p1 = os.path.join(tmp_path, "r1.csv")
        p2 = os.path.join(tmp_path, "r2.csv")
        ev.write_report_csv(p1, report)
        ev.write_report_csv(p2, report)
        b1 = open(p1, "rb").read()
        assert b1 == open(p2, "rb").read()
        lines = b1.decode().strip().splitlines()
        assert lines[0] == "pair,organ,method,dice_before,dice_after,runtime_s"
        assert len(lines) == 1 + len(report.rows)
        # runtime cells stay empty unless timings are requested
        assert all(ln.endswith(",") for ln in lines[1:])

    def test_timings_flag_populates_runtime(self, tmp_path, tiny_dataset, tiny_config, tiny_model):
        report = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config)
        p = os.path.join(tmp_path, "rt.csv")
        ev.write_report_csv(p, report, timings=True)
        lines = open(p).read().strip().splitlines()
        assert all(float(ln.split(",")[-1]) >= 0 for ln in lines[1:])

    def test_summary_csv(self, tmp_path, tiny_dataset, tiny_config, tiny_model):
        report = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config)
        p = os.path.join(tmp_path, "s.csv")
        ev.write_summary_csv(p, report)
        lines = open(p).read().strip().splitlines()
        assert lines[0] == "organ,method,n,mean_before,mean_after,median_after"
        assert len(lines) == 1 + len(report.summary())


class TestOverlays:
    def test_identity_overlay_all_yellow_and_zero_diff(self, tmp_path, tiny_dataset):
        pid, src, tgt, smask, tmask = tiny_dataset[0]
        files = ev.emit_overlays(pid, tgt, tmask, {"ID": (tgt, tmask)}, str(tmp_path))
        assert len(files) == 6        # 3 views x (overlay + diff)
        overlay = [f for f in files if f.endswith("axial_overlay.ppm")][0]
        raw = open(overlay, "rb").read()
        header, body = raw.split(b"\n255\n", 1)
        img = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        fg = img[:, 0] > 0
        assert np.array_equal(img[fg, 0], img[fg, 1])     # red == green: yellow
        diff = [f for f in files if f.endswith("axial_diff.pgm")][0]
        raw = open(diff, "rb").read()
        body = raw.split(b"\n255\n", 1)[1]
        assert np.all(np.frombuffer(body, dtype=np.uint8) == 0)

    def test_determinism(self, tmp_path, tiny_dataset):
        pid, src, tgt, smask, tmask = tiny_dataset[0]
        d1 = os.path.join(tmp_path, "a")
        d2 = os.path.join(tmp_path, "b")
        f1 = ev.emit_overlays(pid, tgt, tmask, {"M": (src, smask)}, d1)
        f2 = ev.emit_overlays(pid, tgt, tmask, {"M": (src, smask)}, d2)
        for a, b in zip(f1, f2):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_file_count_scales_with_methods(self, tmp_path, tiny_dataset):
        pid, src, tgt, smask, tmask = tiny_dataset[0]
        files = ev.emit_overlays(
            pid, tgt, tmask,
            {"A": (src, smask), "B": (src, smask), "C": (src, smask)},
            str(tmp_path),
        )
        assert len(files) == 3 * 3 * 2
