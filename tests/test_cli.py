import os

import numpy as np
import pytest

from mmreg import cli
from mmreg import learn
from mmreg import metrics as me
from mmreg.volume import Volume, read_field, read_volume, write_mask, write_volume
from mmreg.synth import SynthSpec, synth_dataset


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
train_spacing_mm=12.0
train_labels=27
max_cccp=2
"""


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

    def test_out_of_range_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config(None, ["bound_factor=0.5"])

    def test_bad_value_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config(None, ["levels=two"])

    def test_w0_vector(self):
        cfg = cli.load_config(None, ["w0=1,2,3,4"])
        assert cfg["w0"] == (1.0, 2.0, 3.0, 4.0)


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
            b1 = open(tmp_path / "a" / name, "rb").read()
            b2 = open(tmp_path / "b" / name, "rb").read()
            assert b1 == b2, name

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


    @pytest.mark.parametrize("text", [
        "metrics=SAD,MI,NCC,DWT classes=0\nabc 10 10 10 0.3\n",
        "metrics=SAD,MI,NCC,DWT classes=0,x\n0.1 10 10 10 0.3\n0.1 10 10 10 0.3\n",
    ])
    def test_malformed_weights_exits_2(self, workspace, text):
        tmp, cfg, data = workspace
        wpath = write_text(tmp / "bad.txt", text)
        rc = cli.main([
            "register",
            "--source", os.path.join(data, "pair000_src.vol"),
            "--target", os.path.join(data, "pair000_tgt.vol"),
            "--weights", wpath, "--config", cfg,
            "--out-field", str(tmp / "f.fld"), "--out-warped", str(tmp / "wv.vol"),
        ])
        assert rc == 2


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


class TestTrainEvaluateCommands:
    def test_train_then_evaluate(self, workspace):
        tmp, cfg, data = workspace
        model = str(tmp / "model.txt")
        rc = cli.main(["train", "--dataset", os.path.join(data, "manifest.csv"),
                       "--config", cfg, "--out-model", model])
        assert rc in (0, 4)
        assert os.path.exists(model)
        assert os.path.exists(model + ".log")
        wmat, meta = learn.read_model(model)
        assert "eta" in meta and "scales" not in meta   # scales live in the header
        log = open(model + ".log").read()
        assert log.startswith("class cccp_iter outer_objective")

        report = str(tmp / "report.csv")
        rc = cli.main(["evaluate", "--dataset", os.path.join(data, "manifest.csv"),
                       "--model", model, "--config", cfg, "--out-report", report])
        assert rc == 0
        lines = open(report).read().strip().splitlines()
        assert lines[0] == "pair,organ,method,dice_before,dice_after,runtime_s"
        assert len(lines) == 1 + 2 * 1 * 5      # pairs x organs x methods
        assert os.path.exists(report + ".summary.csv")

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
        text = open(resolved).read()
        assert "levels=1" in text and "train_labels=27" in text

    def test_train_determinism(self, workspace):
        tmp, cfg, data = workspace
        m1 = str(tmp / "m1.txt")
        m2 = str(tmp / "m2.txt")
        for m in (m1, m2):
            rc = cli.main(["train", "--dataset", os.path.join(data, "manifest.csv"),
                           "--config", cfg, "--out-model", m])
            assert rc in (0, 4)
        assert open(m1, "rb").read() == open(m2, "rb").read()
