"""Command-line entry point: synth, train, register and evaluate workflows.

Exit codes: 0 success, 2 I/O or file-format error, 3 configuration or
validation error, 4 numeric non-convergence warning (outputs still written).
"""

import argparse
import csv
import os
import sys

import numpy as np

from . import evaluation as ev
from . import learn
from . import metrics as me
from .graphreg import PyramidConfig, register
from .synth import read_synth_spec, synth_dataset
from .volume import (
    FormatError,
    read_mask,
    read_volume,
    warp,
    warp_mask,
    write_field,
    write_mask,
    write_volume,
)


class ConfigError(Exception):
    """Raised for schema violations and invalid option combinations."""


def _parse_bool(v):
    if v.lower() in ("1", "true", "yes", "on"):
        return True
    if v.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _parse_floats(v):
    return tuple(float(x) for x in v.split(","))


# key: (parser, default, validator)
CONFIG_SCHEMA = {
    "levels": (int, 2, lambda x: x >= 1),
    "steps_per_level": (int, 5, lambda x: x >= 1),
    "labels_per_level": (int, 125, lambda x: x >= 1),
    "finest_spacing_mm": (float, 25.0, lambda x: x > 0),
    "bound_factor": (float, 0.4, lambda x: 0 < x <= 0.4),
    "refine_factor": (float, 0.7, lambda x: 0 < x < 1),
    "mi_bins": (int, 16, lambda x: x >= 2),
    "normalize_metrics": (_parse_bool, True, None),
    "train_C": (float, 10.0, lambda x: x > 0),
    "train_alpha": (float, 0.1, lambda x: x >= 0),
    "eta": (float, 50.0, lambda x: x > 0),
    "epsilon": (float, 1e-3, lambda x: x > 0),
    "slack_tol": (float, 1e-4, lambda x: x > 0),
    "max_cccp": (int, 20, lambda x: x >= 1),
    "w0": (_parse_floats, (0.1, 10.0, 10.0, 10.0), lambda x: len(x) == me.N_METRICS),
    "wp0": (float, 1.0, lambda x: x >= 0),
    "train_spacing_mm": (float, 25.0, lambda x: x > 0),
    "train_labels": (int, 125, lambda x: x >= 1),
    "baseline_wp_scale": (float, 0.02, lambda x: x >= 0),
    "seed": (int, 0, None),
    "threads": (int, 1, lambda x: x >= 1),
    "timings": (_parse_bool, False, None),
}


def load_config(path=None, overrides=()):
    """Resolve configuration: defaults, then file, then --set overrides.

    Every key is validated against the schema; unknown keys are rejected.
    """
    cfg = {k: spec[1] for k, spec in CONFIG_SCHEMA.items()}

    def apply(key, raw, where):
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        parser, _, validator = CONFIG_SCHEMA[key]
        try:
            val = parser(raw)
        except ValueError as e:
            raise ConfigError(f"{where}: bad value for {key}: {e}") from e
        if validator is not None and not validator(val):
            raise ConfigError(f"{where}: value {raw!r} out of range for {key}")
        cfg[key] = val

    if path is not None:
        try:
            with open(path) as f:
                lines = f.readlines()
        except OSError as e:
            raise FormatError(f"cannot read config {path}: {e}") from e
        for ln, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
            k, v = (t.strip() for t in line.split("=", 1))
            apply(k, v, f"{path}:{ln}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        k, v = (t.strip() for t in item.split("=", 1))
        apply(k, v, "--set")
    return cfg


def dump_config(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for k in sorted(cfg):
        v = cfg[k]
        if isinstance(v, tuple):
            v = ",".join(repr(x) for x in v)
        lines.append(f"{k}={v}")
    with open(os.path.join(out_dir, "config.resolved.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


def pyramid_config(cfg):
    return PyramidConfig(
        levels=cfg["levels"], steps_per_level=cfg["steps_per_level"],
        labels_per_level=cfg["labels_per_level"],
        finest_spacing_mm=cfg["finest_spacing_mm"],
        bound_factor=cfg["bound_factor"], refine_factor=cfg["refine_factor"],
    )


def train_config(cfg, scales=None):
    return learn.TrainConfig(
        C=cfg["train_C"], alpha=cfg["train_alpha"], eta=cfg["eta"],
        w0=cfg["w0"], wp0=cfg["wp0"], epsilon=cfg["epsilon"],
        slack_tol=cfg["slack_tol"], max_cccp=cfg["max_cccp"],
        spacing_mm=cfg["train_spacing_mm"], labels=cfg["train_labels"],
        bound_factor=cfg["bound_factor"], mi_bins=cfg["mi_bins"], scales=scales,
    )


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------

MANIFEST_HEADER = ["source", "target", "source_mask", "target_mask"]


def read_manifest(path):
    """Rows of (source, target, source_mask, target_mask) absolute paths."""
    base = os.path.dirname(os.path.abspath(path))
    rows = []
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != MANIFEST_HEADER:
                raise FormatError(f"{path}: manifest header must be {','.join(MANIFEST_HEADER)}")
            for ln, row in enumerate(reader, 2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 4:
                    raise FormatError(f"{path}: row {ln} has {len(row)} fields, expected 4")
                rows.append(tuple(os.path.join(base, p.strip()) for p in row))
    except OSError as e:
        raise FormatError(f"cannot read manifest {path}: {e}") from e
    return rows


def _load_pairs(manifest_rows, with_masks=True):
    pairs = []
    for i, (src_p, tgt_p, smask_p, tmask_p) in enumerate(manifest_rows):
        src = read_volume(src_p)
        tgt = read_volume(tgt_p)
        smask = read_mask(smask_p) if with_masks else None
        tmask = read_mask(tmask_p) if with_masks else None
        pairs.append((f"pair{i:03d}", src, tgt, smask, tmask))
    return pairs


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_register(args):
    cfg = load_config(args.config, args.set or ())
    try:
        wmat, _ = me.read_weights(args.weights)
    except OSError as e:
        raise FormatError(f"cannot read weights {args.weights}: {e}") from e
    if wmat.n_classes > 1 and args.source_mask is None:
        raise ConfigError(
            "weights file has multiple class columns; --source-mask is required "
            "to resolve the dominant class"
        )
    src = read_volume(args.source)
    tgt = read_volume(args.target)
    if src.geometry() != tgt.geometry():
        raise FormatError(
            f"source and target differ in geometry (dims, spacing, origin): "
            f"{src.geometry()} vs {tgt.geometry()}"
        )
    smask = read_mask(args.source_mask) if args.source_mask else None

    fld, diag = register(src, tgt, smask, wmat, pyramid_config(cfg))
    warped = warp(src, fld)

    out_dir = os.path.dirname(os.path.abspath(args.out_field)) or "."
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out_warped)) or ".", exist_ok=True)
    write_field(args.out_field, fld)
    write_volume(args.out_warped, warped)
    diag_path = args.out_diagnostics or (args.out_field + ".log")
    with open(diag_path, "w") as f:
        f.write(diag.to_text())
    if args.out_overlays:
        warped_mask = warp_mask(smask, fld) if smask is not None else None
        if smask is not None:
            ev.emit_overlays("registered", tgt, warped_mask,
                             {"OUT": (warped, warped_mask)}, args.out_overlays)
    if args.dump_config:
        dump_config(cfg, out_dir)
    return 0


def cmd_train(args):
    cfg = load_config(args.config, args.set or ())
    rows = read_manifest(args.dataset)
    pairs = _load_pairs(rows)

    scales = None
    if cfg["normalize_metrics"]:
        scales = me.calibrate_scales(
            [(src, tgt) for (_, src, tgt, _, _) in pairs],
            cfg["train_spacing_mm"],
            me.MetricConfig(mi_bins=cfg["mi_bins"]),
        )
    tcfg = train_config(cfg, scales)

    class_ids = sorted({c for (_, _, _, sm, tm) in pairs
                        for c in set(sm.class_ids()) & set(tm.class_ids())})
    if not class_ids:
        raise ConfigError("no class present in both masks of any training pair")

    results = []
    exit_code = 0
    for c in class_ids:
        samples = []
        for pid, src, tgt, smask, tmask in pairs:
            if c in smask.class_ids() and c in tmask.class_ids():
                samples.append(learn.TrainingSample(src, tgt, smask, tmask, c))
            else:
                print(f"note: {pid} lacks class {c} in both masks; excluded", file=sys.stderr)
        res = learn.train_class(samples, tcfg)
        if res.warning:
            print(f"warning: class {c}: {res.warning}", file=sys.stderr)
            exit_code = 4
        results.append(res)

    wmat = learn.assemble_model(results, tcfg)
    out_dir = os.path.dirname(os.path.abspath(args.out_model)) or "."
    os.makedirs(out_dir, exist_ok=True)
    learn.write_model(args.out_model, wmat, tcfg, {"seed": str(cfg["seed"])})
    learn.write_training_manifest(args.out_model + ".log", results)
    if args.dump_config:
        dump_config(cfg, out_dir)
    return exit_code


def cmd_evaluate(args):
    cfg = load_config(args.config, args.set or ())
    wmat, _ = learn.read_model(args.model)
    rows = read_manifest(args.dataset)
    pairs = _load_pairs(rows)
    report = ev.run_benchmark(
        pairs, wmat, pyramid_config(cfg),
        wp_scale=cfg["baseline_wp_scale"], threads=cfg["threads"],
    )
    out_dir = os.path.dirname(os.path.abspath(args.out_report)) or "."
    os.makedirs(out_dir, exist_ok=True)
    ev.write_report_csv(args.out_report, report, timings=cfg["timings"])
    ev.write_summary_csv(args.out_report + ".summary.csv", report)
    if args.dump_config:
        dump_config(cfg, out_dir)
    return 0


def cmd_synth(args):
    try:
        spec = read_synth_spec(args.spec)
    except OSError as e:
        raise FormatError(f"cannot read generator spec {args.spec}: {e}") from e
    except ValueError as e:
        raise ConfigError(str(e)) from e
    pairs = synth_dataset(spec, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = [MANIFEST_HEADER]
    for p in pairs:
        names = {
            "source": f"{p.pair_id}_src.vol",
            "target": f"{p.pair_id}_tgt.vol",
            "source_mask": f"{p.pair_id}_srcmask.msk",
            "target_mask": f"{p.pair_id}_tgtmask.msk",
        }
        write_volume(os.path.join(args.out_dir, names["source"]), p.source)
        write_volume(os.path.join(args.out_dir, names["target"]), p.target)
        write_mask(os.path.join(args.out_dir, names["source_mask"]), p.source_mask)
        write_mask(os.path.join(args.out_dir, names["target_mask"]), p.target_mask)
        manifest.append([names[k] for k in MANIFEST_HEADER])
    with open(os.path.join(args.out_dir, "manifest.csv"), "w", newline="") as f:
        csv.writer(f).writerows(manifest)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="mmreg",
        description="Multi-metric MRF deformable registration and weight learning",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--dump-config", action="store_true",
                       help="write the resolved config into the output directory")

    p = sub.add_parser("register", help="register one volume pair")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--source-mask")
    p.add_argument("--weights", required=True)
    p.add_argument("--out-field", required=True)
    p.add_argument("--out-warped", required=True)
    p.add_argument("--out-overlays")
    p.add_argument("--out-diagnostics")
    common(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("train", help="learn per-class metric weights")
    p.add_argument("--dataset", required=True, help="manifest CSV")
    p.add_argument("--out-model", required=True)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="benchmark methods on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-report", required=True)
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="generator config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
