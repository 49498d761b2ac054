"""mmreg benchmark: one seeded workload per invocation, run from the repo root.

    python3 bench/run.py --workload register_mw64 --seed 1 --seconds 42 --trace 0

Steps, each outside the timed body unless noted:
  1. generate the workload's inputs from --seed with `mmreg synth`;
  2. time `import mmreg.cli` in SETUP_PROBES fresh processes (setup_s);
  3. timed: run the workload's command through `mmreg.cli.main(argv)`, one
     fresh worker process per operation, as many whole operations as fit in
     --seconds (at least one);
  4. check every operation's outputs, require byte-identical outputs across
     operations, and read the quality figures from the first one.

With --trace 1, operations alternate between untraced and traced (outside-in
tracer, see tracer.py) and the per-layer metrics are reported instead of the
end-to-end ones. Human-readable lines go first; the last line of stdout is
one JSON object with correct, attempted, failed and metrics.

Workers run with one BLAS thread, so a workload uses at most the threads it
asks for. The benchmark reads and writes only inside the checkout: the
library from src/, scratch files under .bench_work/, removed at exit.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 3
WORKER_TIMEOUT_S = 160.0

# Every end-to-end figure, as (name, unit, how it is read). The JSON result
# carries the ones BENCHMARK.json lists; the others exist only on some
# workloads, or are 0 whenever nothing fails, so they are printed only.
PRINTED = (
    ("wall_s", "s", "median wall time of the command"),
    ("setup_s", "s", "median time to import mmreg.cli in a fresh process"),
    ("peak_rss_mb", "MB", "median peak resident memory of the worker process"),
    ("error_rate", "ratio", "failed / attempted operations"),
    ("dice_after_mean", "ratio", "mean per-organ Dice after registration"),
    ("energy_gain", "energy", "sum over steps of energy_before - energy_after"),
    ("train_objective", "objective", "sum over classes of the final retained outer objective"),
)

IO_FUNCS = ("volume.read_volume", "volume.read_mask", "volume.read_field",
            "volume.write_volume", "volume.write_mask", "volume.write_field")
# per-layer metric -> functions whose self time it sums
SELF_TIME = {
    "volume.ffd_evaluate_s": ("volume.ffd_evaluate",),
    "volume.warp_s": ("volume.warp", "volume.warp_mask", "volume.sample_field"),
    "volume.interpolate_dense_s": ("volume.interpolate_dense",),
    "volume.io_s": IO_FUNCS,
    "metrics.feature_table_s": ("metrics.feature_table",),
    "metrics.dominant_class_table_s": ("metrics.dominant_class_table",),
    "metrics.calibrate_scales_s": ("metrics.calibrate_scales",),
    "graphreg.solve_s": ("graphreg.solve",),
    "graphreg.build_instance_s": ("graphreg.build_instance",),
    "graphreg.register_s": ("graphreg.register",),
    "learn.prepare_sample_s": ("learn.prepare_sample",),
    "learn.warped_loss_s": ("learn.warped_loss",),
    "learn.loss_node_terms_s": ("learn.loss_node_terms",),
    "learn.solve_qp_s": ("learn.solve_qp",),
}
CALLS = {
    "volume.ffd_evaluate_calls": "volume.ffd_evaluate",
    "graphreg.solve_calls": "graphreg.solve",
    "learn.impute_latent_calls": "learn.impute_latent",
    "learn.most_violated_calls": "learn.most_violated",
    "learn.solve_qp_calls": "learn.solve_qp",
}
COUNTS = {
    "volume.ffd_evaluate_points": ("volume.ffd_evaluate.points",),
    "volume.io_bytes": tuple(f"{f}.bytes" for f in IO_FUNCS),
    "metrics.feature_table_pairs": ("metrics.feature_table.pairs",),
    "graphreg.solve_node_labels": ("graphreg.solve.node_labels",),
    "learn.cccp_iters": ("learn.train_class.cccp_iters",),
    "learn.constraints_added": ("learn.train_class.constraints_added",),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def spawn(argv, trace):
    """Run worker.py in a fresh process; returns its JSON result or, when the
    worker itself dies, a result that counts as a failed operation."""
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    request = json.dumps({"argv": argv, "trace": trace})
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), request],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"worker exceeded {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": None, "error": f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def digest(out_dir):
    """sha256 over every output file, by relative path and content."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(out_dir)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def layer_metrics(summary, wall_s):
    funcs, sites, counts = summary["functions"], summary["sites"], summary["counts"]

    def func(name, key):
        return funcs.get(name, {}).get(key, 0)

    m = {k: sum(func(f, "self_s") for f in fs) for k, fs in SELF_TIME.items()}
    m["cli.main_s"] = sum(v["self_s"] for k, v in funcs.items() if k.startswith("cli."))
    m["trace.coverage"] = sum(m.values()) / wall_s
    m.update({k: func(f, "calls") for k, f in CALLS.items()})
    m.update({k: sum(counts.get(c, 0) for c in cs) for k, cs in COUNTS.items()})
    m["learn.oracle_yield"] = (m["learn.constraints_added"] / m["learn.most_violated_calls"]
                               if m["learn.most_violated_calls"] else 0.0)
    busy = sites.get("evaluation.register", {"calls": 0, "total_s": 0.0})
    pool_wall = func("evaluation.run_benchmark", "total_s")
    m["evaluation.jobs"] = busy["calls"]
    m["evaluation.register_busy_s"] = busy["total_s"]
    m["evaluation.concurrency"] = busy["total_s"] / pool_wall if pool_wall else 0.0
    return m


def src_lines():
    pkg = os.path.join(SRC, "mmreg")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                total += f.read().count(b"\n")
    return total


def machine():
    import numpy
    import scipy
    return (f"nproc={os.cpu_count()} arch={platform.machine()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}")


def run(args, spec, work):
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    in_dir = os.path.join(work, "in")
    t = time.perf_counter()
    wl = wl_cls(args.seed, in_dir)
    print(f"inputs: seed {args.seed}, {time.perf_counter() - t:.2f} s")

    setups = [spawn(None, False) for _ in range(SETUP_PROBES)]
    ops = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        out_dir = os.path.join(work, f"op{len(ops)}")
        res = spawn(wl.argv(out_dir), traced)
        res.update(out_dir=out_dir, traced=traced)
        ops.append(res)
        if res["rc"] is None and "wall_s" not in res:
            break          # the worker died; later operations would too
        # whole operations only: stop before one that would overrun --seconds
        elapsed = time.perf_counter() - t0
        if len(ops) >= 1 + args.trace and elapsed * (len(ops) + 1) / len(ops) > args.seconds:
            break

    failures = []
    first_digest = None
    for i, op in enumerate(ops):
        try:
            if op["rc"] != 0:
                raise workloads.CheckError(f"exit code {op['rc']}: {op.get('error') or ''}")
            wl.check(op["out_dir"])
            d = digest(op["out_dir"])
            first_digest = first_digest or d
            if d != first_digest:
                raise workloads.CheckError("outputs differ from the first operation's")
            if op["traced"]:
                calls = op["trace"]["functions"]
                missing = [s for s in wl.expected_spans if s not in calls]
                present = [s for s in wl.absent_spans if s in calls]
                if missing or present:
                    raise workloads.CheckError(
                        f"spans with 0 calls: {missing}; spans that should have none: {present}")
                coverage = layer_metrics(op["trace"], op["wall_s"])["trace.coverage"]
                if coverage < wl.min_coverage:
                    raise workloads.CheckError(
                        f"named layer spans cover {coverage:.3f} of wall_s, "
                        f"below {wl.min_coverage}")
        except Exception as e:  # any error reading the outputs fails the operation
            failures.append((i, f"{type(e).__name__}: {e}"))

    quality = {}
    if ops[0]["rc"] == 0 and not any(i == 0 for i, _ in failures):
        try:
            quality = wl.quality(ops[0]["out_dir"])
        except Exception as e:  # as above, for the quality figures
            failures.append((0, f"quality: {type(e).__name__}: {e}"))

    for i, msg in failures:
        print(f"FAILED op{i}: {msg}", file=sys.stderr)
    failed = len({i for i, _ in failures})
    plain = [op for op in ops if not op["traced"] and "wall_s" in op]
    setup_s = [s["setup_s"] for s in setups if "setup_s" in s] + [op["setup_s"] for op in plain]
    measured = {
        "wall_s": [op["wall_s"] for op in plain],
        "setup_s": setup_s,
        "peak_rss_mb": [op["peak_rss_mb"] for op in plain],
    }
    values = {k: statistics.median(v) for k, v in measured.items() if v}
    values["error_rate"] = failed / len(ops)
    values.update(quality)

    print(f"machine: {machine()}")
    print(f"src/mmreg lines: {src_lines()}")
    print(f"workload {args.workload}: {len(ops)} operations, {failed} failed, outputs "
          f"{'byte-identical' if len(ops) > 1 and not failed else 'not compared'} across them")
    print("  wall_s per operation: " + " ".join(
        f"{op['wall_s']:.3f}{'(traced)' if op['traced'] else ''}" for op in ops if "wall_s" in op))
    for name, unit, how in PRINTED:
        n = len(measured[name]) if name in measured else len(ops) if name == "error_rate" else 1
        shown = f"{values[name]:.9g} {unit} (n={n})" if name in values else "n/a on this workload"
        print(f"  {name} = {shown}; {how}")

    if args.trace:
        traced = [op for op in ops if op["traced"] and "trace" in op]
        if traced and plain:
            per_op = [layer_metrics(op["trace"], op["wall_s"]) for op in traced]
            values = {key: statistics.median(p[key] for p in per_op) for key in per_op[0]}
            values["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                          - statistics.median(measured["wall_s"]))
            values["src.mmreg_lines"] = src_lines()
            print("  traced self time by function (first traced operation):")
            funcs = traced[0]["trace"]["functions"]
            for name, f in sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"    {name:32s} calls={f['calls']:6d} self={f['self_s']:9.4f} s "
                      f"total={f['total_s']:9.4f} s")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"FAILED: no value for {', '.join(missing)}", file=sys.stderr)
    return {
        "correct": failed == 0 and not missing,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mmreg", "cli.py")):
        print(f"error: no mmreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as e:
        print(f"error: cannot import the benchmark or mmreg: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        result = run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
