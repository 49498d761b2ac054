"""Per-organ Dice evaluation of registration methods.

run_benchmark registers every test pair once per method tag (the four
single-metric baselines plus the learned multi-weight model), warps the
source masks and reports exact voxel-wise Dice per organ before and after.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics as me
from .graphreg import PyramidConfig, register
from .volume import warp_mask

SINGLE_METHODS = ("SAD", "MI", "NCC", "DWT")
MW_METHOD = "MW"
ALL_METHODS = SINGLE_METHODS + (MW_METHOD,)
# the order jobs run in, longest first: MW computes every metric kernel, and
# the baselines' serial seed-3 times of one evaluate run were MI 0.97-1.10 s,
# NCC 0.72-0.84, SAD 0.54-0.55 and DWT 0.37-0.43 (MW 1.52-1.67)
JOB_ORDER = (MW_METHOD, "MI", "NCC", "SAD", "DWT")

# hand-tuned one-hot magnitudes for the single-metric baselines, and their
# pairwise weight per unit of magnitude
BASELINE_MAGNITUDES = {"SAD": 0.1, "MI": 10.0, "NCC": 10.0, "DWT": 10.0}
BASELINE_WP_SCALE = 0.02


def exact_dice(mask_a, mask_b):
    """2|A n B| / (|A| + |B|) on boolean arrays; both empty counts as 1."""
    a = np.asarray(mask_a) > 0
    b = np.asarray(mask_b) > 0
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    den = int(a.sum()) + int(b.sum())
    if den == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / den


@dataclass
class EvalRow:
    pair: str
    organ: int
    method: str
    dice_before: float
    dice_after: float
    runtime_s: float


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)

    def summary(self):
        """Aggregate rows: {(organ, method): dict of statistics}."""
        out = {}
        keys = sorted({(r.organ, r.method) for r in self.rows})
        for organ, method in keys:
            before = [r.dice_before for r in self.rows if r.organ == organ and r.method == method]
            after = [r.dice_after for r in self.rows if r.organ == organ and r.method == method]
            out[(organ, method)] = {
                "n": len(after),
                "mean_before": float(np.mean(before)),
                "mean_after": float(np.mean(after)),
                "median_after": float(np.median(after)),
            }
        return out


def baseline_weights(method, scales, wp_scale):
    """Single-metric weight matrix; the pairwise weight scales with the
    one-hot magnitude so every baseline gets the same relative stiffness."""
    mag = BASELINE_MAGNITUDES[method]
    return me.single_metric_weights(method, mag, wp_scale * mag, scales)


def _run_job(job):
    """Register one (pair, method) job and return its per-organ Dice rows.

    `job` is (pair_id, src, tgt, src_mask, tgt_mask, method, weights,
    config)."""
    pair_id, src, tgt, smask, tmask, method, wmat, config = job
    t0 = time.perf_counter()
    fld, _ = register(src, tgt, smask, wmat, config)
    runtime = time.perf_counter() - t0
    warped_mask = warp_mask(smask, fld)
    organs = sorted(set(smask.class_ids()) | set(tmask.class_ids()))
    return [
        EvalRow(
            pair=pair_id, organ=organ, method=method,
            dice_before=exact_dice(smask.labels == organ, tmask.labels == organ),
            dice_after=exact_dice(warped_mask.labels == organ, tmask.labels == organ),
            runtime_s=runtime,
        )
        for organ in organs
    ]


def _claim(counter):
    """Index of the next unclaimed job; the job count or more once none is left."""
    with counter.get_lock():
        counter.value += 1
        return counter.value - 1


def _work(jobs, counter, results):
    """Worker process: claim a job only when idle, run it and send
    (index, rows); on an error, leave no job to claim and send
    (index, exception)."""
    while (i := _claim(counter)) < len(jobs):
        try:
            rows = _run_job(jobs[i])
        except Exception as e:
            counter.value = len(jobs)     # the setter takes the lock
            results.put((i, e))
            return
        # the queue's feeder thread writes to the pipe, so a result larger
        # than the pipe buffer does not hold this process while the caller
        # is busy
        results.put((i, rows))


def _run_pooled(jobs, workers):
    """Results of `jobs`, in order, from `workers` forked processes plus
    this one. Every process claims the next job from one shared counter
    only when it is idle, so no job waits behind a busy process. A job
    that raises leaves no job to claim, and the caller stops after its
    current job once a worker has died; it then waits for the workers'
    rows and exits, raises the first failure, and kills any worker still
    running."""
    import multiprocessing
    from multiprocessing.connection import wait

    # fork: workers start with mmreg imported and the inputs in memory.
    # The caller holds job 0 before any worker exists.
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 1)
    results = ctx.Queue()
    procs = []
    out = {}
    try:
        for _ in range(workers):
            p = ctx.Process(target=_work, args=(jobs, counter, results), daemon=True)
            p.start()
            procs.append(p)
        i = 0
        while i < len(jobs) and not any(p.exitcode for p in procs):
            out[i] = _run_job(jobs[i])
            i = _claim(counter)
        # a worker's messages are in the pipe before it exits, and waiting
        # messages are read first, so an exit comes after all its messages
        reader = results._reader          # what ProcessPoolExecutor waits on, too
        alive = {p.sentinel: p for p in procs}
        while alive:
            ready = wait([reader, *alive])
            if reader in ready:
                i, outcome = results.get()
                if isinstance(outcome, Exception):
                    raise outcome
                out[i] = outcome
                continue
            for s in ready:
                p = alive.pop(s)
                p.join()
                if p.exitcode:
                    raise RuntimeError(
                        f"evaluate worker {p.pid} exited with code {p.exitcode}")
        if len(out) < len(jobs):
            raise RuntimeError(f"evaluate workers exited with {len(jobs) - len(out)} "
                               "jobs unreported")
        return [out[i] for i in range(len(jobs))]
    finally:
        # SIGKILL: a SIGTERM handler inherited through fork could catch SIGTERM
        for p in procs:
            p.kill()
            p.join()


def run_benchmark(dataset, model, config=None, wp_scale=BASELINE_WP_SCALE, threads=1):
    """Register every (source, target, source mask, target mask) pair with
    each method of ALL_METHODS and evaluate per-organ Dice.

    Args:
        dataset: list of (pair_id, src_vol, tgt_vol, src_mask, tgt_mask).
        model: learned WeightMatrix used for the MW method (its recorded
            normalization scales also feed the single-metric baselines).
        config: PyramidConfig.
        threads: number of processes running the (pair, method) jobs, this
            one included. With threads > 1, min(threads, jobs) - 1 worker
            processes are forked (the fork start method: Linux or another
            POSIX system, and a caller running no other threads). Jobs go
            longest first, in JOB_ORDER, and each process claims the next one
            from a shared counter only when it is idle; this process
            claims the first before forking. A job that raises leaves no
            job to claim, this process stops after its current job once a
            worker has died, the first failure is raised, and any worker
            still running is killed. The report does not depend on the
            count.

    Returns:
        EvalReport with one row per (pair, organ, method).
    """
    config = config or PyramidConfig()
    weights = {m: baseline_weights(m, model.scales, wp_scale) for m in SINGLE_METHODS}
    weights[MW_METHOD] = model
    jobs = [(*entry, method, weights[method], config)
            for method in JOB_ORDER for entry in dataset]
    workers = min(threads, len(jobs)) - 1
    results = _run_pooled(jobs, workers) if workers > 0 else [_run_job(j) for j in jobs]
    report = EvalReport(rows=[row for rows in results for row in rows])
    report.rows.sort(key=lambda r: (r.pair, r.organ, ALL_METHODS.index(r.method)))
    return report


def write_report_csv(path, report, timings=False):
    """Fixed-header CSV; runtime cells stay empty unless `timings` is set,
    keeping the file byte-reproducible across runs."""
    lines = ["pair,organ,method,dice_before,dice_after,runtime_s"]
    for r in report.rows:
        rt = repr(r.runtime_s) if timings else ""
        lines.append(f"{r.pair},{r.organ},{r.method},{repr(r.dice_before)},{repr(r.dice_after)},{rt}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_summary_csv(path, report):
    lines = ["organ,method,n,mean_before,mean_after,median_after"]
    for (organ, method), s in report.summary().items():
        lines.append(
            f"{organ},{method},{s['n']},{repr(s['mean_before'])},"
            f"{repr(s['mean_after'])},{repr(s['median_after'])}"
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")

