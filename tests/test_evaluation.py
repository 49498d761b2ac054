import itertools
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mmreg import evaluation as ev
from mmreg import graphreg as gr
from mmreg import metrics as me
from mmreg.volume import Volume, make_control_grid
from mmreg.synth import SynthSpec, synth_dataset

from count_oracle import tile_edges, tile_sums


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


@pytest.fixture(scope="module")
def moving_dataset():
    """Two pairs under a random FFD, two organs: the methods reach different Dice."""
    spec = SynthSpec(
        dims=(24, 22, 20), spacing_mm=(2.0, 2.0, 2.0), n_pairs=2,
        organ_radii_mm=(7.0, 5.0), organ_centers_frac=((0.4, 0.5, 0.5), (0.7, 0.5, 0.5)),
    )
    pairs = synth_dataset(spec, 5)
    return [(p.pair_id, p.source, p.target, p.source_mask, p.target_mask) for p in pairs]


class JobFailed(Exception):
    """Raised inside a job by the failure tests."""


class RecordingContext:
    """Stands in for the context multiprocessing.get_context returns:
    records the start method and each process created, and delegates
    everything to the real context."""

    created = []                  # [start method, processes created] per context
    get_context = multiprocessing.get_context

    def __init__(self, method):
        self._ctx = RecordingContext.get_context(method)
        self.record = [method, 0]
        self.created.append(self.record)

    def Process(self, *args, **kwargs):
        self.record[1] += 1
        return self._ctx.Process(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ctx, name)


def wait_for_files(directory, pattern, n, timeout_s=30.0):
    """How many files in `directory` match `pattern`, once n do or the
    timeout has passed."""
    deadline = time.monotonic() + timeout_s
    while len(list(directory.glob(pattern))) < n and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(list(directory.glob(pattern)))


def report_bytes(report, tmp_path):
    ev.write_report_csv(tmp_path / "r.csv", report)
    ev.write_summary_csv(tmp_path / "s.csv", report)
    return (tmp_path / "r.csv").read_bytes(), (tmp_path / "s.csv").read_bytes()


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

    def test_threaded_equals_serial(self, tmp_path, moving_dataset, tiny_config, tiny_model):
        outputs = []
        for threads in (1, 2, 3):
            report = ev.run_benchmark(moving_dataset, tiny_model, tiny_config, threads=threads)
            outputs.append(report_bytes(report, tmp_path))
            assert multiprocessing.active_children() == []
        # the registrations move the masks, and differently per method
        assert len({r.dice_after for r in report.rows}) > 2
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_jobs_run_longest_first(self, monkeypatch, tiny_dataset, tiny_config, tiny_model):
        started = []
        monkeypatch.setattr(ev, "_run_job", lambda job: started.append((job[5], job[0])) or [])
        ev.run_benchmark(tiny_dataset, tiny_model, tiny_config)
        pairs = [entry[0] for entry in tiny_dataset]
        assert started == [(m, p) for m in ("MW", "MI", "NCC", "SAD", "DWT") for p in pairs]

    def test_worker_count_capped_at_jobs_minus_one(
            self, tmp_path, monkeypatch, tiny_dataset, tiny_config, tiny_model):
        monkeypatch.setattr(RecordingContext, "created", [])
        monkeypatch.setattr(multiprocessing, "get_context", RecordingContext)
        n_jobs = len(tiny_dataset) * len(ev.ALL_METHODS)
        serial = report_bytes(ev.run_benchmark(tiny_dataset, tiny_model, tiny_config), tmp_path)
        for threads in (2, n_jobs, 10 * n_jobs):
            report = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config, threads=threads)
            assert report_bytes(report, tmp_path) == serial
            assert multiprocessing.active_children() == []
        assert RecordingContext.created == [
            ["fork", 1], ["fork", n_jobs - 1], ["fork", n_jobs - 1]]
        # no jobs, no processes
        assert ev.run_benchmark([], tiny_model, tiny_config, threads=8).rows == []
        assert len(RecordingContext.created) == 3

    def test_caller_takes_every_job_no_worker_started(
            self, tmp_path, monkeypatch, tiny_dataset, tiny_config, tiny_model):
        caller = os.getpid()
        register = ev.register
        n_jobs = len(tiny_dataset) * len(ev.ALL_METHODS)
        count = itertools.count()

        def register_marked(*args):
            if os.getpid() == caller:
                # the caller's first job lasts until the worker has one
                wait_for_files(tmp_path, "worker-*", 1)
                out = register(*args)
                (tmp_path / f"caller-{next(count)}").touch()
                return out
            (tmp_path / f"worker-{next(count)}").touch()
            # the worker's first job lasts until the caller has run every
            # other job, so no job may be assigned to the worker meanwhile
            wait_for_files(tmp_path, "caller-*", n_jobs - 1)
            return register(*args)

        monkeypatch.setattr(ev, "register", register_marked)
        ev.run_benchmark(tiny_dataset, tiny_model, tiny_config, threads=2)
        assert len(list(tmp_path.glob("caller-*"))) == n_jobs - 1
        assert len(list(tmp_path.glob("worker-*"))) == 1
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises(self, monkeypatch, tiny_dataset, tiny_config, tiny_model):
        caller = os.getpid()
        register = ev.register

        def register_or_exit(*args):
            if os.getpid() != caller:
                os._exit(3)
            return register(*args)

        monkeypatch.setattr(ev, "register", register_or_exit)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 3"):
            ev.run_benchmark(tiny_dataset, tiny_model, tiny_config, threads=3)
        assert time.monotonic() - t0 < 60.0
        assert multiprocessing.active_children() == []

    def test_large_result_does_not_hold_worker(
            self, tmp_path, monkeypatch, tiny_dataset, tiny_config, tiny_model):
        caller = os.getpid()
        count = itertools.count()
        waited = []

        def run_job(job):
            if os.getpid() == caller:
                # the caller's first job lasts until a worker has started its
                # second, which it can only do once its first result is off
                # its hands
                if not waited:
                    waited.append(wait_for_files(tmp_path, "worker-*", 2))
                return []
            (tmp_path / f"worker-{next(count)}").touch()
            # far more than a 64 KiB pipe buffer
            return [ev.EvalRow(job[0], k, job[5], 0.5, 0.5, 0.0) for k in range(20000)]

        monkeypatch.setattr(ev, "_run_job", run_job)
        report = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config, threads=2)
        assert waited[0] >= 2
        assert len(report.rows) == 20000 * len(list(tmp_path.iterdir()))
        assert multiprocessing.active_children() == []

    def test_worker_failure_stops_caller_within_one_job(
            self, tmp_path, monkeypatch, tiny_dataset, tiny_config, tiny_model):
        caller = os.getpid()
        register = ev.register
        caller_jobs = []

        def register_or_fail(*args):
            if os.getpid() != caller:
                (tmp_path / "worker-failed").touch()
                raise JobFailed("worker")
            if not caller_jobs:
                # the caller's first job lasts until the worker has failed
                wait_for_files(tmp_path, "worker-*", 1)
            caller_jobs.append(args[3])
            return register(*args)

        monkeypatch.setattr(ev, "register", register_or_fail)
        with pytest.raises(JobFailed, match="^worker$"):
            ev.run_benchmark(tiny_dataset, tiny_model, tiny_config, threads=2)
        # the first job, and at most one more while the failure is in transit
        assert 1 <= len(caller_jobs) <= 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_job_error_reaches_caller(
            self, tmp_path, monkeypatch, where, tiny_dataset, tiny_config, tiny_model):
        caller = os.getpid()
        register = ev.register
        count = itertools.count()

        def register_or_fail(*args):
            if os.getpid() == caller:
                if where == "caller":
                    raise JobFailed("caller")
                # leave a job to the worker before finishing the caller's own
                deadline = time.monotonic() + 30.0
                while not any(tmp_path.iterdir()) and time.monotonic() < deadline:
                    time.sleep(0.01)
                return register(*args)
            (tmp_path / f"worker-{os.getpid()}-{next(count)}").touch()
            if where == "worker":
                raise JobFailed("worker")
            return register(*args)

        monkeypatch.setattr(ev, "register", register_or_fail)
        with pytest.raises(JobFailed, match=f"^{where}$"):
            ev.run_benchmark(tiny_dataset, tiny_model, tiny_config, threads=2)
        assert multiprocessing.active_children() == []
        if where == "caller":
            # the jobs no worker had started were cancelled
            started = len(list(tmp_path.iterdir()))
            assert started < len(tiny_dataset) * len(ev.ALL_METHODS) - 1

    def test_worker_exiting_without_its_rows_raises(
            self, tmp_path, monkeypatch, tiny_dataset, tiny_config, tiny_model):
        caller = os.getpid()

        def run_job(job):
            if os.getpid() == caller:
                # the caller's first job lasts until the worker has one
                wait_for_files(tmp_path, "worker-*", 1)
                return []
            (tmp_path / "worker-exit").touch()
            # no Exception: the worker sends nothing and exits with code 0
            raise SystemExit(0)

        monkeypatch.setattr(ev, "_run_job", run_job)
        with pytest.raises(RuntimeError, match="jobs unreported"):
            ev.run_benchmark(tiny_dataset, tiny_model, tiny_config, threads=2)
        assert multiprocessing.active_children() == []


class TestReports:
    def test_csv_schema_and_determinism(self, tmp_path, tiny_dataset, tiny_config, tiny_model):
        report = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config)
        p1 = os.path.join(tmp_path, "r1.csv")
        p2 = os.path.join(tmp_path, "r2.csv")
        ev.write_report_csv(p1, report)
        ev.write_report_csv(p2, report)
        b1 = Path(p1).read_bytes()
        assert b1 == Path(p2).read_bytes()
        lines = b1.decode().strip().splitlines()
        assert lines[0] == "pair,organ,method,dice_before,dice_after,runtime_s"
        assert len(lines) == 1 + len(report.rows)
        # runtime cells stay empty unless timings are requested
        assert all(ln.endswith(",") for ln in lines[1:])

    def test_timings_flag_populates_runtime(self, tmp_path, tiny_dataset, tiny_config, tiny_model):
        report = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config)
        p = os.path.join(tmp_path, "rt.csv")
        ev.write_report_csv(p, report, timings=True)
        lines = Path(p).read_text().strip().splitlines()
        assert all(float(ln.split(",")[-1]) >= 0 for ln in lines[1:])

    def test_summary_csv(self, tmp_path, tiny_dataset, tiny_config, tiny_model):
        report = ev.run_benchmark(tiny_dataset, tiny_model, tiny_config)
        p = os.path.join(tmp_path, "s.csv")
        ev.write_summary_csv(p, report)
        lines = Path(p).read_text().strip().splitlines()
        assert lines[0] == "organ,method,n,mean_before,mean_after,median_after"
        assert len(lines) == 1 + len(report.summary())

