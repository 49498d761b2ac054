import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mmreg import cli
from mmreg import graphreg as gr
from mmreg.graphreg import PyramidConfig
from mmreg import learn
from mmreg import metrics as me
from mmreg.volume import (
    SegmentationMask, Volume, read_field, read_volume, write_mask, write_volume,
)
from mmreg.synth import SynthSpec, read_synth_spec, synth_dataset


SYNTH_SPEC = """
dims=20,18,16
spacing_mm=2.0,2.0,2.0
n_pairs=2
organ_radii_mm=6.0
organ_centers_frac=0.5,0.5,0.5
base_levels=0.25,0.7
texture_amp=0.05,0.08
center_jitter_mm=1.0
radius_jitter_mm=0.5
remap_region_x_frac=1.0
noise_sigma=0.01
gt_mode=translate
gt_translate_mm=4.0,0.0,0.0
max_gt_disp_mm=6.0
"""

FAST_CONFIG = """
levels=1
steps_per_level=2
labels_per_level=27
finest_spacing_mm=12.0
max_cccp=2
"""


RESOLVED_DEFAULTS = """\
baseline_wp_scale=0.02
bound_factor=0.4
epsilon=0.001
eta=50.0
finest_spacing_mm=25.0
labels_per_level=125
levels=2
max_cccp=20
normalize_metrics=True
refine_factor=0.7
slack_tol=0.0001
steps_per_level=5
threads=1
timings=False
train_C=10.0
train_alpha=0.1
w0=0.1,10.0,10.0,10.0
wp0=1.0
"""

FLOAT_KEYS = ["finest_spacing_mm", "bound_factor", "refine_factor", "train_C", "train_alpha",
              "eta", "epsilon", "slack_tol", "w0", "wp0", "baseline_wp_scale"]

# one out-of-range (or, where every parsed value is in range, unparsable)
# value per config key
OUT_OF_RANGE = {
    "levels": "0", "steps_per_level": "0", "labels_per_level": "0",
    "finest_spacing_mm": "0", "bound_factor": "0.5", "refine_factor": "1.0",
    "normalize_metrics": "maybe", "train_C": "0", "train_alpha": "-0.1",
    "eta": "0", "epsilon": "0", "slack_tol": "-1e-4", "max_cccp": "0", "w0": "1,2,3",
    "wp0": "-1", "baseline_wp_scale": "-0.02", "threads": "0", "timings": "2",
}


def write_text(path, text):
    with open(path, "w") as f:
        f.write(text)
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    spec = write_text(tmp_path / "synth.txt", SYNTH_SPEC)
    cfg = write_text(tmp_path / "config.txt", FAST_CONFIG)
    data = str(tmp_path / "data")
    rc = cli.main(["synth", "--spec", spec, "--seed", "3", "--out-dir", data])
    assert rc == 0
    return tmp_path, cfg, data


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = cli.load_config(None, ["levels=3", "eta=25.0"])
        assert cfg["levels"] == 3 and cfg["eta"] == 25.0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_text(tmp_path / "c.txt", "not_a_key=1\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)
        with pytest.raises(cli.ConfigError):
            cli.load_config(None, ["nope=2"])
        # MI always uses metrics.MI_BINS, so training and registration agree
        with pytest.raises(cli.ConfigError):
            cli.load_config(None, ["mi_bins=8"])

    def test_out_of_range_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config(None, ["bound_factor=0.5"])

    def test_bad_value_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config(None, ["levels=two"])

    def test_w0_vector(self):
        cfg = cli.load_config(None, ["w0=1,2,3,4"])
        assert cfg["w0"] == (1.0, 2.0, 3.0, 4.0)

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = cli.load_config(None, [])
        for got, want in ((cfg.pyramid, PyramidConfig()), (cfg.train, learn.TrainConfig()),
                          (cfg.run, cli.RunConfig())):
            for f in fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), f.name

    def test_keys_and_defaults_unchanged(self, tmp_path):
        cli.dump_config(cli.load_config(None, []), str(tmp_path))
        assert (tmp_path / "config.resolved.txt").read_text() == RESOLVED_DEFAULTS
        assert sorted(OUT_OF_RANGE) == sorted(cli.CONFIG_KEYS)

    def test_each_key_sets_one_field(self):
        consumers = [(part.name, f.name) for part in fields(cli.Config)
                     for f in fields(part.type)]
        assert sorted((part, f.name) for part, f in cli.CONFIG_KEYS.values()) == sorted(consumers)
        assert cli.CONFIG_KEYS["bound_factor"][0] == "pyramid"

    @pytest.mark.parametrize("item", ["train_spacing_mm=25", "train_labels=125", "seed=0"])
    @pytest.mark.parametrize("where", ["config", "--set"])
    def test_former_training_grid_keys_exit_3(self, tmp_path, capsys, item, where):
        # training uses the pyramid's finest level: finest_spacing_mm and
        # labels_per_level set its grid and labels; it draws no random
        # number, so it has no seed either
        argv = ["train", "--dataset", str(tmp_path / "absent.csv"),
                "--out-model", str(tmp_path / "out" / "model.txt")]
        argv += (["--config", write_text(tmp_path / "c.txt", item + "\n")] if where == "config"
                 else ["--set", item])
        assert cli.main(argv) == 3
        assert f"unknown config key {item.split('=')[0]!r}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_file_and_override_reach_every_consumer(self, tmp_path):
        path = write_text(tmp_path / "c.txt", "# comment\n\ntrain_C = 2.5\nbound_factor=0.3\n")
        cfg = cli.load_config(path, ["threads=2", "normalize_metrics=off"])
        assert cfg.train.C == 2.5 and cfg["train_C"] == 2.5
        assert cfg.pyramid.bound_factor == 0.3
        assert cfg.run.threads == 2 and cfg.run.normalize_metrics is False

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    def test_non_finite_float_rejected(self, key, bad):
        value = "1,2,3," + bad if key == "w0" else bad
        with pytest.raises(cli.ConfigError):
            cli.load_config(None, [f"{key}={value}"])

    @pytest.mark.parametrize("key, value", sorted(OUT_OF_RANGE.items()))
    def test_every_key_rejects_a_bad_value(self, tmp_path, key, value):
        with pytest.raises(cli.ConfigError):
            cli.load_config(None, [f"{key}={value}"])
        path = write_text(tmp_path / "c.txt", f"{key}={value}\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_malformed_lines_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(write_text(tmp_path / "c.txt", "levels 3\n"))
        with pytest.raises(cli.ConfigError):
            cli.load_config(None, ["levels"])

    @pytest.mark.parametrize("where, rc, error", [
        ("config", 3, "c.txt:2: expected 'key=value', got 'levels 3'"),
        ("--set", 3, "--set: expected 'key=value', got 'levels'"),
        ("weights", 2, "w.txt: expected 'key=value', got 'classes'"),
    ])
    def test_item_without_separator_exits(self, tmp_path, capsys, where, rc, error):
        # config lines, --set items and weights header tokens share one
        # splitter, and each reader keeps its exit code; no volume is read
        cfg = write_text(tmp_path / "c.txt", "threads=1\nlevels 3\n" if where == "config" else "")
        header = "metrics=SAD,MI,NCC,DWT " + ("classes" if where == "weights" else "classes=0")
        weights = write_text(tmp_path / "w.txt", header + "\n1 1 1 1 0.3\n")
        sets = ["--set", "levels"] if where == "--set" else []
        assert cli.main([
            "register", "--source", str(tmp_path / "s.vol"), "--target", str(tmp_path / "t.vol"),
            "--weights", weights, "--config", cfg,
            "--out-field", str(tmp_path / "f.fld"), "--out-warped", str(tmp_path / "w.vol"),
        ] + sets) == rc
        assert error in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["--help"], ["register", "--help"], ["train", "--help"],
        ["evaluate", "--help"], ["synth", "--help"],
    ])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()


class TestSynthCommand:
    def test_outputs_parse_back(self, workspace):
        tmp, cfg, data = workspace
        rows = cli.read_manifest(os.path.join(data, "manifest.csv"))
        assert len(rows) == 2
        for row in rows:
            for p in row:
                assert os.path.exists(p)
        v = read_volume(rows[0][0])
        assert v.dims == (20, 18, 16)

    def test_determinism(self, tmp_path):
        spec = write_text(tmp_path / "s.txt", SYNTH_SPEC)
        rc = cli.main(["synth", "--spec", spec, "--seed", "7", "--out-dir", str(tmp_path / "a")])
        assert rc == 0
        rc = cli.main(["synth", "--spec", spec, "--seed", "7", "--out-dir", str(tmp_path / "b")])
        assert rc == 0
        for name in sorted(os.listdir(tmp_path / "a")):
            b1 = (tmp_path / "a" / name).read_bytes()
            b2 = (tmp_path / "b" / name).read_bytes()
            assert b1 == b2, name

    def test_spec_reads_every_field(self, tmp_path):
        """Each key parses by its SynthSpec annotation, nested tuples included."""
        want = SynthSpec(dims=(12, 10, 8), spacing_mm=(2.0, 2.5, 3.0), n_pairs=2,
                         organ_radii_mm=(5.0, 4.0),
                         organ_centers_frac=((0.3, 0.5, 0.5), (0.7, 0.4, 0.6)),
                         center_jitter_mm=0.5, radius_jitter_mm=0.25,
                         base_levels=(0.2, 0.6, 0.9), texture_amp=(0.01, 0.02, 0.03),
                         texture_sigma_vox=1.25, noise_sigma=0.0,
                         decoy_centers_frac=((0.5, 0.2, 0.5),), decoy_radii_mm=(2.0,),
                         decoy_levels=(0.4,), remap_region_x_frac=0.75, remap_gamma=0.5,
                         remap_offset=0.1, remap_scale=0.7, gt_mode="translate",
                         gt_translate_mm=(1.0, 2.0, 3.0), gt_grid_spacing_mm=30.0,
                         max_gt_disp_mm=4.0)
        lines = []
        for f in fields(SynthSpec):
            v = getattr(want, f.name)
            if isinstance(v, tuple) and isinstance(v[0], tuple):
                v = ";".join(",".join(map(str, c)) for c in v)
            elif isinstance(v, tuple):
                v = ",".join(map(str, v))
            lines.append(f"{f.name} = {v}")
        assert read_synth_spec(write_text(tmp_path / "s.txt", "\n".join(lines))) == want

    @pytest.mark.parametrize("line, error", [
        ("noise_sigma=nan", "noise_sigma must be finite"),
        ("noise_sigma=-0.01", "needs noise_sigma >= 0"),
        ("dims=0,4,4", "needs 3 dims >= 1"), ("dims=4,4", "needs 3 dims >= 1"),
        ("spacing_mm=2.0,0.0,2.0", "needs 3 spacing_mm > 0"),
        ("spacing_mm=2.0,inf,2.0", "spacing_mm must be finite"),
        ("organ_centers_frac=0.5,nan,0.5", "organ_centers_frac must be finite"),
        ("texture_sigma_vox=-1.0", "needs texture_sigma_vox >= 0"),
        ("organ_centers_frac=0.5,0.5", "needs 3 fractions in each organ and decoy center"),
        ("decoy_centers_frac=0.5,0.5\ndecoy_radii_mm=2.0\ndecoy_levels=0.4",
         "needs 3 fractions in each organ and decoy center"),
        ("decoy_centers_frac=0.5,0.2,0.5;0.5,0.8,0.5\ndecoy_radii_mm=2.0\n"
         "decoy_levels=0.4,0.5", "needs one decoy radius and level per decoy center"),
        ("gt_translate_mm=1,2", "needs 3 gt_translate_mm"),
        ("gt_grid_spacing_mm=0", "needs gt_grid_spacing_mm > 0"),
        ("remap_gamma=-1", "needs remap_gamma >= 0"),
        ("max_gt_disp_mm=-1", "needs max_gt_disp_mm >= 0"),
        ("center_jitter_mm=-1", "needs center_jitter_mm >= 0"),
        ("radius_jitter_mm=-1", "needs radius_jitter_mm >= 0"),
    ])
    def test_bad_spec_value_exits_3_and_writes_nothing(self, tmp_path, capsys, line, error):
        spec = write_text(tmp_path / "s.txt", SYNTH_SPEC + line + "\n")
        out = tmp_path / "o"
        rc = cli.main(["synth", "--spec", spec, "--seed", "0", "--out-dir", str(out)])
        assert rc == 3
        assert not out.exists()
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("empty", ["base_levels", "texture_amp"])
    def test_empty_intensity_tuple_rejected(self, empty):
        # a spec file cannot spell an empty tuple, since '' is no float
        with pytest.raises(ValueError, match="needs base_levels and texture_amp non-empty"):
            SynthSpec(**{empty: ()})

    def test_unparsable_spec_value_names_file_line_and_key(self, tmp_path, capsys):
        spec = write_text(tmp_path / "s.txt", SYNTH_SPEC + "n_pairs=two\n")
        rc = cli.main(["synth", "--spec", spec, "--seed", "0", "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        line = len(SYNTH_SPEC.splitlines()) + 1
        assert f"s.txt:{line}: bad value 'two' for n_pairs: " in capsys.readouterr().err

    def test_bad_spec_key(self, tmp_path):
        spec = write_text(tmp_path / "s.txt", "volume=huge\n")
        rc = cli.main(["synth", "--spec", spec, "--seed", "0", "--out-dir", str(tmp_path / "o")])
        assert rc == 3

    def test_missing_spec_file(self, tmp_path):
        rc = cli.main(["synth", "--spec", str(tmp_path / "absent.txt"),
                       "--seed", "0", "--out-dir", str(tmp_path / "o")])
        assert rc == 2


class TestRegisterCommand:
    def test_single_column_weights_mask_optional(self, workspace):
        tmp, cfg, data = workspace
        wpath = str(tmp / "w.txt")
        me.write_weights(wpath, me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.3]), (0,)
        ))
        out_field = str(tmp / "out" / "field.fld")
        out_warped = str(tmp / "out" / "warped.vol")
        rc = cli.main([
            "register",
            "--source", os.path.join(data, "pair000_src.vol"),
            "--target", os.path.join(data, "pair000_tgt.vol"),
            "--weights", wpath, "--config", cfg,
            "--out-field", out_field, "--out-warped", out_warped,
        ])
        assert rc == 0
        assert os.path.exists(out_field)
        assert os.path.exists(out_warped)
        assert os.path.exists(out_field + ".log")
        fld = read_field(out_field)
        assert fld.dims == (20, 18, 16)

    def test_multiclass_weights_require_mask(self, workspace):
        tmp, cfg, data = workspace
        wpath = str(tmp / "w2.txt")
        me.write_weights(wpath, me.WeightMatrix(
            np.ones((4, 2)), np.array([0.3, 0.3]), (0, 1)
        ))
        rc = cli.main([
            "register",
            "--source", os.path.join(data, "pair000_src.vol"),
            "--target", os.path.join(data, "pair000_tgt.vol"),
            "--weights", wpath, "--config", cfg,
            "--out-field", str(tmp / "f.fld"), "--out-warped", str(tmp / "w.vol"),
        ])
        assert rc == 3

    def test_bad_path_exits_2(self, workspace):
        tmp, cfg, data = workspace
        wpath = str(tmp / "w.txt")
        me.write_weights(wpath, me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.3]), (0,)
        ))
        rc = cli.main([
            "register", "--source", str(tmp / "missing.vol"),
            "--target", os.path.join(data, "pair000_tgt.vol"),
            "--weights", wpath, "--config", cfg,
            "--out-field", str(tmp / "f.fld"), "--out-warped", str(tmp / "wv.vol"),
        ])
        assert rc == 2


    @pytest.mark.parametrize("field, warped, names", [
        ("out/x", "out/x", ("--out-field", "--out-warped")),
        ("out/x", "out/sub/../x", ("--out-field", "--out-warped")),
        ("out/x", "out/x.raw", ("--out-field (its .raw payload)", "--out-warped")),
        ("out/x.raw", "out/x", ("--out-field", "--out-warped (its .raw payload)")),
        ("out/x", "out/x.log", ("--out-field (its .log)", "--out-warped")),
        ("SOURCE", "out/w.vol", ("--source", "--out-field")),
        ("out/f.fld", "TARGET", ("--target", "--out-warped")),
        ("out/f.fld", "MASK", ("--source-mask", "--out-warped")),
        ("WEIGHTS", "out/w.vol", ("--weights", "--out-field")),
        ("out/f.fld", "CONFIG", ("--config", "--out-warped")),
        ("out/f.fld", "w", ("--weights", "--out-warped (its .raw payload)")),
    ])
    def test_shared_output_path_exits_3_and_writes_nothing(self, workspace, monkeypatch,
                                                           capsys, field, warped, names):
        """Two files register writes (field, its payload and log, warped
        volume, its payload) on one path, or one of them on an input, would
        silently destroy a file: rejected before any volume is read."""
        tmp, cfg, data = workspace
        wpath = str(tmp / "w.raw")
        me.write_weights(wpath, me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.3]), (0,)
        ))
        inputs = {"SOURCE": os.path.join(data, "pair000_src.vol"),
                  "TARGET": os.path.join(data, "pair000_tgt.vol"),
                  "MASK": os.path.join(data, "pair000_srcmask.msk"),
                  "WEIGHTS": wpath, "CONFIG": cfg}

        def path(p):
            return inputs.get(p, str(tmp / p))

        before = {p: Path(p).read_bytes() for p in inputs.values()}
        listing = sorted(os.listdir(tmp)) + sorted(os.listdir(data))

        def no_read(p):
            raise AssertionError(f"volume {p} read before the output paths were checked")

        monkeypatch.setattr(cli, "read_volume", no_read)
        rc = cli.main([
            "register", "--source", inputs["SOURCE"], "--target", inputs["TARGET"],
            "--source-mask", inputs["MASK"], "--weights", wpath, "--config", cfg,
            "--out-field", path(field), "--out-warped", path(warped),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert sorted(os.listdir(tmp)) + sorted(os.listdir(data)) == listing
        assert {p: Path(p).read_bytes() for p in before} == before

    @pytest.mark.parametrize("text", [
        "metrics=SAD,MI,NCC,DWT classes=0\nabc 10 10 10 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=0,x\n0.1 10 10 10 0.3\n0.1 10 10 10 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=0\n0.1 10 10 10 nan\n",
        "metrics=SAD,MI,NCC,DWT classes=0\nnan 10 10 10 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=0\n0.1 inf 10 10 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=0 scales=nan,1,1,1\n0.1 10 10 10 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=0 scales=0,1,1,1\n0.1 10 10 10 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=0 scales=-1,1,1,1\n0.1 10 10 10 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=1,1\n0.1 10 10 10 0.3\n0.2 5 5 5 0.6\n",
    ])
    def test_malformed_weights_exits_2(self, workspace, monkeypatch, text):
        tmp, cfg, data = workspace
        wpath = write_text(tmp / "bad.txt", text)

        def no_read(path):
            raise AssertionError(f"volume {path} read before the weights were checked")

        monkeypatch.setattr(cli, "read_volume", no_read)
        rc = cli.main([
            "register",
            "--source", os.path.join(data, "pair000_src.vol"),
            "--target", os.path.join(data, "pair000_tgt.vol"),
            "--weights", wpath, "--config", cfg,
            "--out-field", str(tmp / "f.fld"), "--out-warped", str(tmp / "wv.vol"),
        ])
        assert rc == 2


    @pytest.mark.parametrize("setting", ["labels_per_level=100", "train_labels=64"])
    @pytest.mark.parametrize("command", ["register", "train"])
    def test_non_odd_cube_label_count_exits_3_at_config_load(self, workspace, monkeypatch,
                                                             command, setting):
        tmp, cfg, data = workspace

        def no_read(path):
            raise AssertionError(f"volume {path} read before the config was checked")

        monkeypatch.setattr(cli, "read_volume", no_read)
        argv = {"register": ["register", "--source", os.path.join(data, "pair000_src.vol"),
                             "--target", os.path.join(data, "pair000_tgt.vol"),
                             "--weights", str(tmp / "absent.txt"),
                             "--out-field", str(tmp / "out" / "f.fld"),
                             "--out-warped", str(tmp / "out" / "wv.vol")],
                "train": ["train", "--dataset", os.path.join(data, "manifest.csv"),
                          "--out-model", str(tmp / "out" / "model.txt")]}[command]
        assert cli.main(argv + ["--set", setting]) == 3
        assert not os.path.exists(tmp / "out")

    @pytest.mark.parametrize("setting", ["finest_spacing_mm=inf", "eta=nan", "w0=1,2,3,inf"])
    def test_non_finite_setting_exits_3(self, workspace, setting):
        tmp, cfg, data = workspace
        wpath = str(tmp / "w.txt")
        me.write_weights(wpath, me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.3]), (0,)
        ))
        out_field = str(tmp / "out" / "f.fld")
        rc = cli.main([
            "register",
            "--source", os.path.join(data, "pair000_src.vol"),
            "--target", os.path.join(data, "pair000_tgt.vol"),
            "--weights", wpath, "--config", cfg, "--set", setting,
            "--out-field", out_field, "--out-warped", str(tmp / "out" / "wv.vol"),
        ])
        assert rc == 3
        assert not os.path.exists(out_field)

    def test_bad_header_value_exits_2(self, workspace):
        tmp, cfg, data = workspace
        src = os.path.join(data, "pair000_src.vol")
        with open(src) as f:
            text = f.read()
        with open(src, "w") as f:
            f.write(text.replace("spacing: 2.0", "spacing: 0.0"))
        wpath = str(tmp / "w.txt")
        me.write_weights(wpath, me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.3]), (0,)
        ))
        rc = cli.main([
            "register", "--source", src, "--target", os.path.join(data, "pair000_tgt.vol"),
            "--weights", wpath, "--config", cfg,
            "--out-field", str(tmp / "f.fld"), "--out-warped", str(tmp / "wv.vol"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("command", ["register", "evaluate"])
    def test_multiclass_weights_without_class_zero_exit_2(self, workspace, monkeypatch, command):
        # a class without a column falls back to column 0, so the file is
        # refused when it is read, before any volume
        tmp, cfg, data = workspace
        wpath = write_text(tmp / "w12.txt", "metrics=SAD,MI,NCC,DWT classes=1,2\n"
                                            "0.2 5 10 10 0.4\n0.05 10 15 5 0.4\n")

        def no_read(path):
            raise AssertionError(f"volume {path} read before the weights were checked")

        monkeypatch.setattr(cli, "read_volume", no_read)
        argv = {"register": ["register", "--source", os.path.join(data, "pair000_src.vol"),
                             "--target", os.path.join(data, "pair000_tgt.vol"),
                             "--source-mask", os.path.join(data, "pair000_srcmask.msk"),
                             "--weights", wpath,
                             "--out-field", str(tmp / "out" / "f.fld"),
                             "--out-warped", str(tmp / "out" / "wv.vol")],
                "evaluate": ["evaluate", "--dataset", os.path.join(data, "manifest.csv"),
                             "--model", wpath, "--out-report", str(tmp / "out" / "r.csv")]}
        assert cli.main(argv[command] + ["--config", cfg]) == 2
        assert not os.path.exists(tmp / "out")

    @pytest.mark.parametrize("dims, spacing, origin", [
        ((20, 22, 20), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0)),
        ((20, 20, 20), (2.5, 2.0, 2.0), (0.0, 0.0, 0.0)),
        ((20, 20, 20), (2.0, 2.0, 2.0), (0.0, 0.0, 4.0)),
    ])
    def test_geometry_mismatch_exits_2(self, tmp_path, dims, spacing, origin):
        src = str(tmp_path / "src.vol")
        tgt = str(tmp_path / "tgt.vol")
        write_volume(src, Volume(np.zeros((20, 20, 20)), (2.0, 2.0, 2.0)))
        write_volume(tgt, Volume(np.zeros(dims), spacing, origin))
        wpath = str(tmp_path / "w.txt")
        me.write_weights(wpath, me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.3]), (0,)
        ))
        out_field = str(tmp_path / "out" / "f.fld")
        rc = cli.main([
            "register", "--source", src, "--target", tgt, "--weights", wpath,
            "--out-field", out_field, "--out-warped", str(tmp_path / "out" / "w.vol"),
        ])
        assert rc == 2
        assert not os.path.exists(out_field)


    def test_misaligned_mask_exits_2(self, tmp_path):
        src = str(tmp_path / "src.vol")
        tgt = str(tmp_path / "tgt.vol")
        smask = str(tmp_path / "srcmask.msk")
        write_volume(src, Volume(np.zeros((20, 20, 20)), (2.0, 2.0, 2.0)))
        write_volume(tgt, Volume(np.zeros((20, 20, 20)), (2.0, 2.0, 2.0)))
        write_mask(smask, SegmentationMask(np.ones((20, 20, 20), np.uint8), (2.0, 2.0, 2.5)))
        wpath = str(tmp_path / "w.txt")
        me.write_weights(wpath, me.WeightMatrix(np.ones((4, 2)), np.array([0.3, 0.3]), (0, 1)))
        out_field = str(tmp_path / "out" / "f.fld")
        rc = cli.main([
            "register", "--source", src, "--target", tgt, "--source-mask", smask,
            "--weights", wpath, "--out-field", out_field,
            "--out-warped", str(tmp_path / "out" / "w.vol"),
        ])
        assert rc == 2
        assert not os.path.exists(out_field)


def _mismatched_dataset(tmp_path, case):
    """One-pair manifest whose target volume or source mask is off-geometry."""
    rng = np.random.default_rng(4)
    shape = {"src": (16, 16, 16), "tgt": (16, 16, 16), "smask": (16, 16, 16), "tmask": (16, 16, 16)}
    if case == "target":
        shape["tgt"] = shape["tmask"] = (16, 18, 16)
    else:
        shape["smask"] = (16, 16, 18)
    d = tmp_path / "data"
    d.mkdir()
    write_volume(str(d / "s.vol"), Volume(rng.random(shape["src"]), (2.0, 2.0, 2.0)))
    write_volume(str(d / "t.vol"), Volume(rng.random(shape["tgt"]), (2.0, 2.0, 2.0)))
    for name in ("smask", "tmask"):
        labels = np.zeros(shape[name], np.uint8)
        labels[4:12, 4:12, 4:12] = 1
        write_mask(str(d / f"{name}.msk"), SegmentationMask(labels, (2.0, 2.0, 2.0)))
    manifest = write_text(d / "manifest.csv", "source,target,source_mask,target_mask\n"
                                              "s.vol,t.vol,smask.msk,tmask.msk\n")
    wpath = str(tmp_path / "model.txt")
    me.write_weights(wpath, me.WeightMatrix(np.ones((4, 2)), np.array([0.3, 0.3]), (0, 1)))
    return manifest, wpath


class TestNonFiniteVoxels:
    """A NaN or inf voxel is a format error of its file (exit 2), found when
    the file is read: no pyramid, feature table or scale calibration runs
    and nothing is written."""

    @pytest.fixture
    def no_compute(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compute started on a non-finite volume")

        for module, name in ((gr, "build_pyramid"), (me, "feature_table"),
                             (me, "calibrate_scales")):
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["src", "tgt"])
    @pytest.mark.parametrize("command", ["register", "train", "evaluate"])
    def test_exits_2_before_compute(self, workspace, no_compute, capsys, command, side, value):
        tmp, cfg, data = workspace
        header = os.path.join(data, f"pair000_{side}.vol")
        payload = np.fromfile(header + ".raw", dtype="<f4")
        payload[len(payload) // 2] = value
        payload.tofile(header + ".raw")
        wpath = str(tmp / "w.txt")
        me.write_weights(wpath, me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.3]), (0,)
        ))
        out = tmp / "out"
        manifest = os.path.join(data, "manifest.csv")
        argv = {"register": ["register", "--source", os.path.join(data, "pair000_src.vol"),
                             "--target", os.path.join(data, "pair000_tgt.vol"),
                             "--weights", wpath, "--out-field", str(out / "f.fld"),
                             "--out-warped", str(out / "w.vol")],
                "train": ["train", "--dataset", manifest, "--out-model", str(out / "m.txt")],
                "evaluate": ["evaluate", "--dataset", manifest, "--model", wpath,
                             "--out-report", str(out / "r.csv")]}[command]
        assert cli.main(argv + ["--config", cfg]) == 2
        assert f"{header}: data contains NaN or inf" in capsys.readouterr().err
        assert not out.exists()


class TestUndecodableFiles:
    """A text input that is not UTF-8, or a manifest that csv cannot parse,
    is a format error naming its file (exit 2), not a configuration error
    or a crash."""

    @staticmethod
    def spoil(path):
        Path(path).write_bytes(b"# \xff\n" + Path(path).read_bytes())
        return str(path)

    @staticmethod
    def register_argv(tmp, data, wpath):
        return ["register", "--source", os.path.join(data, "pair000_src.vol"),
                "--target", os.path.join(data, "pair000_tgt.vol"), "--weights", wpath,
                "--out-field", str(tmp / "out" / "f.fld"),
                "--out-warped", str(tmp / "out" / "w.vol")]

    @staticmethod
    def weights(tmp):
        wpath = str(tmp / "w.txt")
        me.write_weights(wpath, me.WeightMatrix(
            np.array([[0.1], [10.0], [10.0], [10.0]]), np.array([0.3]), (0,)
        ))
        return wpath

    @pytest.mark.parametrize("which", ["header", "config"])
    def test_settings_file(self, workspace, capsys, which):
        tmp, cfg, data = workspace
        bad = self.spoil(os.path.join(data, "pair000_src.vol") if which == "header" else cfg)
        argv = self.register_argv(tmp, data, self.weights(tmp)) + ["--config", cfg]
        assert cli.main(argv) == 2
        assert f"cannot read {bad}" in capsys.readouterr().err
        assert not (tmp / "out").exists()

    def test_weights_file(self, workspace, capsys):
        tmp, cfg, data = workspace
        wpath = self.spoil(self.weights(tmp))
        assert cli.main(self.register_argv(tmp, data, wpath) + ["--config", cfg]) == 2
        assert f"cannot read weights {wpath}" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [b"a,b,c,\xff\n", b"a,b,c," + b"d" * 131_073 + b"\n"],
                             ids=["not_utf8", "field_over_csv_limit"])
    def test_manifest(self, workspace, capsys, row):
        tmp, cfg, data = workspace
        bad = tmp / "bad.csv"
        bad.write_bytes(b"source,target,source_mask,target_mask\n" + row)
        rc = cli.main(["train", "--dataset", str(bad), "--config", cfg,
                       "--out-model", str(tmp / "out" / "m.txt")])
        assert rc == 2
        assert f"cannot read manifest {bad}" in capsys.readouterr().err


class TestTrainEvaluateCommands:
    @pytest.mark.parametrize("case", ["target", "source_mask"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_geometry_mismatch_exits_2(self, tmp_path, command, case):
        manifest, model = _mismatched_dataset(tmp_path, case)
        out = str(tmp_path / "out" / "result")
        argv = {"train": ["train", "--dataset", manifest, "--out-model", out],
                "evaluate": ["evaluate", "--dataset", manifest, "--model", model,
                             "--out-report", out]}[command]
        assert cli.main(argv) == 2
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command, out, names", [
        ("evaluate", "MODEL", ("--model", "--out-report")),
        ("evaluate", "DATASET", ("--dataset", "--out-report")),
        ("evaluate", "CONFIG", ("--config", "--out-report")),
        ("evaluate", "r", ("--model", "--out-report (its .summary.csv)")),
        ("evaluate", "out/sub/../../c.log", ("--config", "--out-report")),
        ("train", "DATASET", ("--dataset", "--out-model")),
        ("train", "CONFIG", ("--config", "--out-model")),
        ("train", "c", ("--config", "--out-model (its .log)")),
    ])
    def test_shared_path_exits_3_and_writes_nothing(self, workspace, monkeypatch, capsys,
                                                    command, out, names):
        """A file train or evaluate writes (the model and its log, the
        report and its summary) on one of its inputs would silently destroy
        that input: rejected before any input is read."""
        tmp, _, data = workspace
        model = str(tmp / "r.summary.csv")
        me.write_weights(model, me.WeightMatrix(np.ones((4, 1)), np.array([0.3]), (0,)))
        inputs = {"DATASET": os.path.join(data, "manifest.csv"), "MODEL": model,
                  "CONFIG": write_text(tmp / "c.log", FAST_CONFIG)}
        (tmp / "out").mkdir()
        before = {p: Path(p).read_bytes() for p in inputs.values()}
        listing = sorted(os.listdir(tmp)) + sorted(os.listdir(data))

        def no_read(*args):
            raise AssertionError(f"{args} read before the output paths were checked")

        for name in ("load_config", "read_manifest", "read_volume"):
            monkeypatch.setattr(cli, name, no_read)
        monkeypatch.setattr(me, "read_weights", no_read)
        target = inputs.get(out, str(tmp / out))
        argv = {"train": ["train", "--dataset", inputs["DATASET"], "--config", inputs["CONFIG"],
                          "--out-model", target],
                "evaluate": ["evaluate", "--dataset", inputs["DATASET"], "--model", model,
                             "--config", inputs["CONFIG"], "--out-report", target]}[command]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert sorted(os.listdir(tmp)) + sorted(os.listdir(data)) == listing
        assert {p: Path(p).read_bytes() for p in before} == before

    def test_train_then_evaluate(self, workspace):
        tmp, cfg, data = workspace
        model = str(tmp / "model.txt")
        rc = cli.main(["train", "--dataset", os.path.join(data, "manifest.csv"),
                       "--config", cfg, "--out-model", model])
        assert rc in (0, 4)
        assert os.path.exists(model)
        assert os.path.exists(model + ".log")
        wmat, meta = me.read_weights(model)
        assert "eta" in meta and "scales" not in meta   # scales live in the header
        assert meta["mi_bins"] == str(me.MI_BINS)
        log = Path(model + ".log").read_text()
        assert log.startswith("class cccp_iter outer_objective")

        report = str(tmp / "report.csv")
        rc = cli.main(["evaluate", "--dataset", os.path.join(data, "manifest.csv"),
                       "--model", model, "--config", cfg, "--out-report", report])
        assert rc == 0
        lines = Path(report).read_text().strip().splitlines()
        assert lines[0] == "pair,organ,method,dice_before,dice_after,runtime_s"
        assert len(lines) == 1 + 2 * 1 * 5      # pairs x organs x methods
        assert os.path.exists(report + ".summary.csv")

    @pytest.mark.parametrize("normalize", [True, False])
    def test_train_shares_pair_tables_across_classes(self, tmp_path, monkeypatch, normalize):
        spec = write_text(tmp_path / "synth.txt", SYNTH_SPEC.replace(
            "organ_radii_mm=6.0\norgan_centers_frac=0.5,0.5,0.5\n",
            "organ_radii_mm=6.0,5.0\norgan_centers_frac=0.35,0.5,0.5;0.65,0.5,0.5\n"))
        data = str(tmp_path / "data")
        assert cli.main(["synth", "--spec", spec, "--seed", "3", "--out-dir", data]) == 0
        built, trained = [], {}
        pair_tables, train_class = learn.pair_tables, learn.train_class

        def recorded_tables(*args):
            built.append(pair_tables(*args))
            return built[-1]

        def recorded_training(samples, config):
            trained[samples[0].class_id] = samples
            return train_class(samples, config)

        monkeypatch.setattr(learn, "pair_tables", recorded_tables)
        monkeypatch.setattr(learn, "train_class", recorded_training)
        model = str(tmp_path / "model.txt")
        rc = cli.main(["train", "--dataset", os.path.join(data, "manifest.csv"),
                       "--config", write_text(tmp_path / "c.txt", FAST_CONFIG),
                       "--set", f"normalize_metrics={normalize}", "--out-model", model])
        assert rc in (0, 4)
        # one set of tables per pair, held by the sample of every class
        assert sorted(trained) == [1, 2] and len(built) == 2
        for i, tables in enumerate(built):
            assert trained[1][i].tables is trained[2][i].tables is tables
        pairs = [(read_volume(r[0]), read_volume(r[1]))
                 for r in cli.read_manifest(os.path.join(data, "manifest.csv"))]
        want = me.calibrate_scales(pairs, 12.0) if normalize else None
        assert me.read_weights(model)[0].scales == want

    def test_cccp_cap_exits_4_and_writes_outputs(self, workspace, capsys):
        tmp, cfg, data = workspace
        model = str(tmp / "out" / "model.txt")
        rc = cli.main(["train", "--dataset", os.path.join(data, "manifest.csv"),
                       "--config", cfg, "--set", "max_cccp=1", "--out-model", model])
        assert rc == 4
        assert "warning: class 1: CCCP iteration cap reached" in capsys.readouterr().err
        me.read_weights(model)
        log = Path(model + ".log").read_text().splitlines()
        assert log[0] == "class cccp_iter outer_objective slacks working_set_sizes"
        assert log[-1] == "# class 1: CCCP iteration cap reached"

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_manifest_without_pairs_exits_2(self, tmp_path, capsys, command):
        manifest = write_text(tmp_path / "manifest.csv",
                              "source,target,source_mask,target_mask\n\n")
        model = str(tmp_path / "w.txt")
        me.write_weights(model, me.WeightMatrix(np.ones((4, 1)), np.array([0.3]), (0,)))
        out = str(tmp_path / "out" / "result")
        argv = {"train": ["train", "--dataset", manifest, "--out-model", out],
                "evaluate": ["evaluate", "--dataset", manifest, "--model", model,
                             "--out-report", out]}[command]
        assert cli.main(argv) == 2
        assert f"{manifest}: manifest lists no pairs" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_malformed_manifest_row(self, workspace):
        tmp, cfg, data = workspace
        bad = write_text(tmp / "bad.csv", "source,target,source_mask,target_mask\na,b,c\n")
        rc = cli.main(["train", "--dataset", bad, "--config", cfg,
                       "--out-model", str(tmp / "m.txt")])
        assert rc == 2

    def test_dump_config(self, workspace):
        tmp, cfg, data = workspace
        model = str(tmp / "dump" / "model.txt")
        rc = cli.main(["train", "--dataset", os.path.join(data, "manifest.csv"),
                       "--config", cfg, "--out-model", model, "--dump-config"])
        assert rc in (0, 4)
        resolved = os.path.join(os.path.dirname(model), "config.resolved.txt")
        assert os.path.exists(resolved)
        text = Path(resolved).read_text()
        assert "levels=1" in text and "labels_per_level=27" in text

    def test_train_determinism(self, workspace):
        tmp, cfg, data = workspace
        m1 = str(tmp / "m1.txt")
        m2 = str(tmp / "m2.txt")
        for m in (m1, m2):
            rc = cli.main(["train", "--dataset", os.path.join(data, "manifest.csv"),
                           "--config", cfg, "--out-model", m])
            assert rc in (0, 4)
        assert Path(m1).read_bytes() == Path(m2).read_bytes()
