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


def run_benchmark(dataset, model, config=None, wp_scale=BASELINE_WP_SCALE, threads=1):
    """Register every (source, target, source mask, target mask) pair with
    each method of ALL_METHODS and evaluate per-organ Dice.

    Args:
        dataset: list of (pair_id, src_vol, tgt_vol, src_mask, tgt_mask).
        model: learned WeightMatrix used for the MW method (its recorded
            normalization scales also feed the single-metric baselines).
        config: PyramidConfig.
        threads: worker threads across (pair, method) jobs; results are
            deterministic and independent of the thread count.

    Returns:
        EvalReport with one row per (pair, organ, method).
    """
    config = config or PyramidConfig()
    report = EvalReport()
    jobs = [(*entry, method) for entry in dataset for method in ALL_METHODS]

    def run_one(job):
        pair_id, src, tgt, smask, tmask, method = job
        wmat = model if method == MW_METHOD else baseline_weights(method, model.scales, wp_scale)
        t0 = time.perf_counter()
        fld, _ = register(src, tgt, smask, wmat, config)
        runtime = time.perf_counter() - t0
        warped_mask = warp_mask(smask, fld)
        organs = sorted(set(smask.class_ids()) | set(tmask.class_ids()))
        rows = []
        for organ in organs:
            rows.append(EvalRow(
                pair=pair_id, organ=organ, method=method,
                dice_before=exact_dice(smask.labels == organ, tmask.labels == organ),
                dice_after=exact_dice(warped_mask.labels == organ, tmask.labels == organ),
                runtime_s=runtime,
            ))
        return rows

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(run_one, jobs))
    else:
        results = [run_one(j) for j in jobs]
    for rows in results:
        report.rows.extend(rows)
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

