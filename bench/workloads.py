"""The benchmark's workloads: the inputs each makes from a seed, the mmreg
command it times, and the checks and quality figures read from its outputs.

Inputs come from `mmreg synth` with the generator specs in `inputs/`. Output
checks test invariants (exit code, finite values, monotone step energies,
report shape, Dice in [0, 1]), never reference numbers, so legitimate numeric
drift is not a failure. Quality figures are read after the timed command.
"""

import csv
import os

import numpy as np

from mmreg import cli
from mmreg import metrics as me
from mmreg.evaluation import ALL_METHODS, exact_dice
from mmreg.volume import read_field, read_mask, read_volume, warp_mask

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")
SCALE_SPACING_MM = 25.0


class CheckError(Exception):
    """An output violates an invariant; the operation counts as failed."""


def _synth(spec_file, seed, out_dir):
    rc = cli.main(["synth", "--spec", os.path.join(INPUTS, spec_file),
                   "--seed", str(seed), "--out-dir", out_dir])
    if rc != 0:
        raise RuntimeError(f"mmreg synth exited with {rc}")
    return cli.read_manifest(os.path.join(out_dir, "manifest.csv"))


def _hand_set_weights(rows, path):
    """The hand-set 3-column matrix with scales calibrated on the pairs."""
    wmat, _ = me.read_weights(os.path.join(INPUTS, "weights_3col.txt"))
    scales = me.calibrate_scales(
        [(read_volume(r[0]), read_volume(r[1])) for r in rows], SCALE_SPACING_MM)
    me.write_weights(path, me.WeightMatrix(
        wmat.weights, wmat.pairwise, wmat.class_ids, wmat.metric_names, scales))
    return path


def _require_finite(name, values):
    if not np.all(np.isfinite(values)):
        raise CheckError(f"{name} holds non-finite values")


def _organ_dice(smask, tmask, fld):
    """Per-organ Dice of the source mask warped by `fld` against the target."""
    warped = warp_mask(smask, fld).labels
    organs = sorted((set(smask.class_ids()) | set(tmask.class_ids())) - {0})
    return [exact_dice(warped == o, tmask.labels == o) for o in organs]


def _check_registration(field_path, warped_path, log_path):
    """Invariants of one `mmreg register` output; returns the step energies."""
    _require_finite("field", read_field(field_path).dense)
    _require_finite("warped volume", read_volume(warped_path).data)
    with open(log_path) as f:
        rows = [ln.split() for ln in f.read().splitlines()[1:] if ln.strip()]
    if not rows:
        raise CheckError(f"{log_path} lists no steps")
    energies = np.array([[float(r[3]), float(r[4])] for r in rows])
    _require_finite("step energies", energies)
    # the log keeps 9 significant digits; rounding is monotone, so the
    # printed values keep the order of the computed ones
    if np.any(energies[:, 1] > energies[:, 0]):
        raise CheckError("a step raised the energy (energy_after > energy_before)")
    return energies


class RegisterMw64:
    """`mmreg register` on the 64^3 / 2 mm acceptance pair with the hand-set
    3-column weights and the default pyramid (2 levels x 5 steps, 125 labels)."""

    name = "register_mw64"
    expected_spans = (
        "cli.cmd_register", "graphreg.register", "graphreg.build_instance",
        "graphreg.solve", "volume.ffd_evaluate", "volume.warp", "volume.warp_mask",
        "volume.sample_field", "metrics.feature_table", "metrics.dominant_class_table",
        "volume.read_volume", "volume.write_field",
    )
    absent_spans = ("learn.train_class", "evaluation.run_benchmark")
    min_coverage = 0.9

    def __init__(self, seed, in_dir):
        (self.src, self.tgt, self.smask, self.tmask), = _synth("synthetic_64.txt", seed, in_dir)
        self.weights = _hand_set_weights([(self.src, self.tgt)], os.path.join(in_dir, "w3.txt"))

    def argv(self, out_dir):
        return ["register", "--source", self.src, "--target", self.tgt,
                "--source-mask", self.smask, "--weights", self.weights,
                "--out-field", os.path.join(out_dir, "field.fld"),
                "--out-warped", os.path.join(out_dir, "warped.vol")]

    def check(self, out_dir):
        return _check_registration(os.path.join(out_dir, "field.fld"),
                                   os.path.join(out_dir, "warped.vol"),
                                   os.path.join(out_dir, "field.fld.log"))

    def quality(self, out_dir):
        energies = self.check(out_dir)
        dice = _organ_dice(read_mask(self.smask), read_mask(self.tmask),
                           read_field(os.path.join(out_dir, "field.fld")))
        return {"dice_after_mean": float(np.mean(dice)),
                "energy_gain": float(np.sum(energies[:, 0] - energies[:, 1]))}


class Train2Pair:
    """`mmreg train` on two default-SynthSpec pairs (48x48x40 at 2.5 mm, two
    organs, so train_class runs twice).

    train_alpha is raised from 0.1 to 1.0: at 0.1 the number of cutting planes,
    and with it the run time, changes up to 4x from one seed to the next,
    which no run-to-run bound absorbs; at 1.0 the seeds tried make 30 to 36
    solves.
    """

    name = "train_2pair"
    expected_spans = (
        "cli.cmd_train", "metrics.calibrate_scales", "learn.train_class",
        "learn.prepare_sample", "metrics.feature_table", "learn.loss_node_terms",
        "learn.impute_latent", "learn.most_violated", "learn.warped_loss",
        "volume.interpolate_dense", "graphreg.solve",
    )
    absent_spans = ("volume.ffd_evaluate", "graphreg.register", "evaluation.run_benchmark")
    min_coverage = 0.9

    def __init__(self, seed, in_dir):
        self.manifest = os.path.join(in_dir, "manifest.csv")
        self.rows = _synth("default_2pair.txt", seed, in_dir)

    def argv(self, out_dir):
        return ["train", "--dataset", self.manifest,
                "--out-model", os.path.join(out_dir, "model.txt"),
                "--set", "train_alpha=1.0"]

    def check(self, out_dir):
        wmat, _ = me.read_weights(os.path.join(out_dir, "model.txt"))
        _require_finite("model weights", wmat.weights)
        _require_finite("model pairwise weights", wmat.pairwise)
        final = {}
        with open(os.path.join(out_dir, "model.txt.log")) as f:
            for ln in f.read().splitlines()[1:]:
                parts = ln.split()
                if ln.startswith("#") or not parts or parts[-1] == "explored":
                    continue
                final[parts[0]] = float(parts[2])
        if not final:
            raise CheckError("the training log has no retained iterate")
        _require_finite("outer objectives", list(final.values()))
        return sum(final.values())

    def quality(self, out_dir):
        """train_objective from the model log; dice_after_mean from registering
        each training pair with the learned model at the training schedule
        (one level, one step), outside the timed command."""
        objective = self.check(out_dir)
        dice = []
        for i, (src, tgt, smask, tmask) in enumerate(self.rows):
            d = os.path.join(out_dir, f"check{i}")
            rc = cli.main(["register", "--source", src, "--target", tgt,
                           "--source-mask", smask,
                           "--weights", os.path.join(out_dir, "model.txt"),
                           "--out-field", os.path.join(d, "field.fld"),
                           "--out-warped", os.path.join(d, "warped.vol"),
                           "--set", "levels=1", "--set", "steps_per_level=1"])
            if rc != 0:
                raise CheckError(f"check registration exited with {rc}")
            _check_registration(os.path.join(d, "field.fld"), os.path.join(d, "warped.vol"),
                                os.path.join(d, "field.fld.log"))
            dice += _organ_dice(read_mask(smask), read_mask(tmask),
                                read_field(os.path.join(d, "field.fld")))
        return {"dice_after_mean": float(np.mean(dice)), "train_objective": objective}


class EvaluateT2:
    """`mmreg evaluate --set threads=2` on one default-SynthSpec pair with the
    hand-set 3-column model: the four single-metric baselines plus MW."""

    name = "evaluate_t2"
    expected_spans = (
        "cli.cmd_evaluate", "evaluation.run_benchmark", "evaluation.baseline_weights",
        "graphreg.register", "graphreg.solve", "volume.ffd_evaluate",
        "metrics.feature_table", "metrics.dominant_class_table",
        "evaluation.exact_dice", "evaluation.write_report_csv",
    )
    absent_spans = ("learn.train_class",)
    # pool threads run concurrently, so self times may sum past wall_s
    min_coverage = 0.0

    def __init__(self, seed, in_dir):
        self.manifest = os.path.join(in_dir, "manifest.csv")
        self.rows = _synth("default_1pair.txt", seed, in_dir)
        self.model = _hand_set_weights(
            [(r[0], r[1]) for r in self.rows], os.path.join(in_dir, "w3.txt"))

    def argv(self, out_dir):
        return ["evaluate", "--dataset", self.manifest, "--model", self.model,
                "--out-report", os.path.join(out_dir, "report.csv"),
                "--set", "threads=2"]

    def check(self, out_dir):
        with open(os.path.join(out_dir, "report.csv"), newline="") as f:
            rows = [r for r in csv.DictReader(f) if not r["pair"].startswith("#")]
        organs = set()
        for _, _, smask, tmask in self.rows:
            organs |= (set(read_mask(smask).class_ids()) | set(read_mask(tmask).class_ids())) - {0}
        expected = len(self.rows) * len(organs) * len(ALL_METHODS)
        if len(rows) != expected:
            raise CheckError(f"report has {len(rows)} rows, expected {expected}")
        dice = np.array([[float(r["dice_before"]), float(r["dice_after"])] for r in rows])
        _require_finite("report Dice", dice)
        if np.any(dice < 0.0) or np.any(dice > 1.0):
            raise CheckError("report Dice outside [0, 1]")
        if not os.path.isfile(os.path.join(out_dir, "report.csv.summary.csv")):
            raise CheckError("summary report missing")
        return dice

    def quality(self, out_dir):
        return {"dice_after_mean": float(np.mean(self.check(out_dir)[:, 1]))}


WORKLOADS = {w.name: w for w in (RegisterMw64, Train2Pair, EvaluateT2)}
