"""Command-line entry point: synth, train, register and evaluate workflows.

Exit codes: 0 success, 2 I/O or file-format error, 3 configuration or
validation error, 4 numeric non-convergence warning (outputs still written).
"""

import argparse
import csv
import os
import sys
from dataclasses import dataclass, fields, replace

from . import evaluation as ev
from . import learn
from . import metrics as me
from .graphreg import PyramidConfig, register
from .synth import read_synth_spec, synth_dataset
from .volume import (
    FormatError,
    check_fields,
    parse_value,
    read_mask,
    read_settings,
    read_volume,
    split_setting,
    warp,
    write_field,
    write_mask,
    write_volume,
)


class ConfigError(Exception):
    """Raised for schema violations and invalid option combinations."""


@dataclass(frozen=True)
class RunConfig:
    """Settings read by the commands themselves rather than the library."""
    normalize_metrics: bool = True      # train: calibrate metric scales first
    baseline_wp_scale: float = ev.BASELINE_WP_SCALE
    threads: int = 1                    # evaluate: processes, the caller included
    timings: bool = False               # evaluate: report runtimes

    def __post_init__(self):
        check_fields(self, {
            "baseline_wp_scale >= 0": self.baseline_wp_scale >= 0,
            "threads >= 1": self.threads >= 1,
        })


@dataclass(frozen=True)
class Config:
    """Resolved configuration, one dataclass per consumer; `cfg[key]` reads
    a config key."""
    pyramid: PyramidConfig = PyramidConfig()
    train: learn.TrainConfig = learn.TrainConfig()
    run: RunConfig = RunConfig()

    def __getitem__(self, key):
        part, f = CONFIG_KEYS[key]
        return getattr(getattr(self, part), f.name)


# TrainConfig fields whose config key differs from the field name
_TRAIN_KEYS = {"C": "train_C", "alpha": "train_alpha"}

# config key -> (Config field name, dataclass field); one field per key
CONFIG_KEYS = {
    (_TRAIN_KEYS.get(f.name, f.name) if part.name == "train" else f.name): (part.name, f)
    for part in fields(Config) for f in fields(part.type)
}


def load_config(path=None, overrides=()):
    """Resolve configuration: dataclass defaults, then the file's key=value
    lines, then --set overrides.

    Each value is parsed by its field's type and checked by its dataclass;
    unknown keys and bad or out-of-range values raise ConfigError.
    """
    items = read_settings(path, "=", ConfigError) if path is not None else []
    items += [("--set", *split_setting(item, "=", "--set", ConfigError)) for item in overrides]
    cfg = Config()
    for where, key, raw in items:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        part, f = CONFIG_KEYS[key]
        try:
            value = replace(getattr(cfg, part), **{f.name: parse_value(raw, f.type)})
        except ValueError as e:
            raise ConfigError(f"{where}: bad value {raw!r} for {key}: {e}") from e
        cfg = replace(cfg, **{part: value})
    return cfg


def dump_config(cfg, out_dir):
    lines = []
    for k in sorted(CONFIG_KEYS):
        v = cfg[k]
        if isinstance(v, tuple):
            v = ",".join(repr(x) for x in v)
        lines.append(f"{k}={v}")
    with open(os.path.join(out_dir, "config.resolved.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


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
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"cannot read manifest {path}: {e}") from e
    if not rows:
        raise FormatError(f"{path}: manifest lists no pairs")
    return rows


def _check_geometry(what, src, tgt, smask=None, tmask=None):
    """FormatError unless source and target share dims, spacing and origin
    and each given mask is aligned with its volume."""
    if src.geometry() != tgt.geometry():
        raise FormatError(
            f"{what}: source and target differ in geometry (dims, spacing, origin): "
            f"{src.geometry()} vs {tgt.geometry()}"
        )
    for side, mask, vol in (("source", smask, src), ("target", tmask, tgt)):
        if mask is not None and mask.geometry() != vol.geometry():
            raise FormatError(f"{what}: {side} mask geometry {mask.geometry()} differs "
                              f"from its volume's {vol.geometry()}")


def _load_pairs(manifest_rows):
    pairs = []
    for i, (src_p, tgt_p, smask_p, tmask_p) in enumerate(manifest_rows):
        src = read_volume(src_p)
        tgt = read_volume(tgt_p)
        smask = read_mask(smask_p)
        tmask = read_mask(tmask_p)
        _check_geometry(f"pair{i:03d}", src, tgt, smask, tmask)
        pairs.append((f"pair{i:03d}", src, tgt, smask, tmask))
    return pairs


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _output_dir(path):
    """Create the directory of the output file `path` and return it."""
    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _check_paths(args):
    """ConfigError unless every file the command writes resolves to its own
    path, which is none of the files its options name (the files a
    manifest lists are not checked)."""
    def given(opt):
        return getattr(args, opt[2:].replace("-", "_"), None)

    seen = {os.path.realpath(given(opt)): opt for opt in (
        "--source", "--target", "--source-mask", "--weights", "--model", "--dataset",
        "--config") if given(opt) is not None}
    for opt, suffix, note in (
            ("--out-field", "", ""), ("--out-field", ".raw", " (its .raw payload)"),
            ("--out-field", ".log", " (its .log)"), ("--out-warped", "", ""),
            ("--out-warped", ".raw", " (its .raw payload)"), ("--out-model", "", ""),
            ("--out-model", ".log", " (its .log)"), ("--out-report", "", ""),
            ("--out-report", ".summary.csv", " (its .summary.csv)")):
        if given(opt) is None:
            continue
        real = os.path.realpath(given(opt) + suffix)
        if real in seen:
            raise ConfigError(f"{seen[real]} and {opt}{note} name the same file {real}")
        seen[real] = opt + note


def cmd_register(args):
    cfg = load_config(args.config, args.set or ())
    wmat, _ = me.read_weights(args.weights)
    if wmat.n_classes > 1 and args.source_mask is None:
        raise ConfigError(
            "weights file has multiple class columns; --source-mask is required "
            "to resolve the dominant class"
        )
    src = read_volume(args.source)
    tgt = read_volume(args.target)
    smask = read_mask(args.source_mask) if args.source_mask else None
    _check_geometry("register", src, tgt, smask)

    fld, diag = register(src, tgt, smask, wmat, cfg.pyramid)
    warped = warp(src, fld)

    out_dir = _output_dir(args.out_field)
    _output_dir(args.out_warped)
    write_field(args.out_field, fld)
    write_volume(args.out_warped, warped)
    with open(args.out_field + ".log", "w") as f:
        f.write(diag.to_text())
    if args.dump_config:
        dump_config(cfg, out_dir)
    return 0


def cmd_train(args):
    cfg = load_config(args.config, args.set or ())
    rows = read_manifest(args.dataset)
    pairs = _load_pairs(rows)

    tcfg = cfg.train
    scales = (me.calibrate_scales([(src, tgt) for (_, src, tgt, _, _) in pairs],
                                  cfg.pyramid.finest_spacing_mm)
              if cfg.run.normalize_metrics else None)

    class_ids = sorted({c for (_, _, _, sm, tm) in pairs
                        for c in set(sm.class_ids()) & set(tm.class_ids())})
    if not class_ids:
        raise ConfigError("no class present in both masks of any training pair")

    results = []
    exit_code = 0
    tables = {}             # pair id -> its pair tables, built for the first class using it
    for c in class_ids:
        samples = []
        for pid, src, tgt, smask, tmask in pairs:
            if c in smask.class_ids() and c in tmask.class_ids():
                if pid not in tables:
                    tables[pid] = learn.pair_tables(src, tgt, cfg.pyramid, scales)
                samples.append(learn.prepare_sample(tables[pid], smask, tmask, c))
            else:
                print(f"note: {pid} lacks class {c} in both masks; excluded", file=sys.stderr)
        res = learn.train_class(samples, tcfg)
        if res.warning:
            print(f"warning: class {c}: {res.warning}", file=sys.stderr)
            exit_code = 4
        results.append(res)

    wmat = learn.assemble_model(results, tcfg, scales)
    out_dir = _output_dir(args.out_model)
    learn.write_model(args.out_model, wmat, tcfg, cfg.pyramid)
    learn.write_training_manifest(args.out_model + ".log", results)
    if args.dump_config:
        dump_config(cfg, out_dir)
    return exit_code


def cmd_evaluate(args):
    cfg = load_config(args.config, args.set or ())
    wmat, _ = me.read_weights(args.model)
    rows = read_manifest(args.dataset)
    pairs = _load_pairs(rows)
    report = ev.run_benchmark(
        pairs, wmat, cfg.pyramid,
        wp_scale=cfg.run.baseline_wp_scale, threads=cfg.run.threads,
    )
    out_dir = _output_dir(args.out_report)
    ev.write_report_csv(args.out_report, report, timings=cfg.run.timings)
    ev.write_summary_csv(args.out_report + ".summary.csv", report)
    if args.dump_config:
        dump_config(cfg, out_dir)
    return 0


def cmd_synth(args):
    pairs = synth_dataset(read_synth_spec(args.spec), args.seed)
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
        _check_paths(args)
        return args.func(args)
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
