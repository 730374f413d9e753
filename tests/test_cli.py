"""End-to-end command-line pipelines, config precedence, and exit codes."""
import json
import re
import struct
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mqmotion.cli as cli
import mqmotion.train as tr
from mqmotion.dataio import parse_mqs, read_mqs_file
from mqmotion.errors import FormatError, MotionError
from mqmotion.train import TrainConfig, load_checkpoint

SMALL_MODEL = """
d_model = 8
rank = 2
heads = 2
layers = 1
obs_frames = 4
future_frames = 4
batch_size = 4
critic_width = 8
epochs = 1
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def synth_file(tmp_path, name="clip.mqs", joints=3, frames=20, seed=0,
               kind="sinusoid"):
    out = tmp_path / name
    rc = cli.main(["synth", "--kind", kind, "--joints", str(joints),
                   "--frames", str(frames), "--seed", str(seed),
                   "--out", str(out)])
    assert rc == 0
    return str(out)


class TestConfigFile:
    def test_types_and_comments(self, tmp_path):
        path = write_config(tmp_path, """
# a comment
lr = 0.5          # trailing comment
epochs = 3
use_quotient = off
kind = constant
fps = 50
horizons = 80,160
""")
        cfg = cli.load_config(path)
        assert cfg["lr"] == 0.5 and isinstance(cfg["epochs"], int)
        assert cfg["use_quotient"] is False
        assert cfg["kind"] == "constant"
        assert cfg["fps"] == 50.0
        assert cfg["horizons"] == "80,160"

    def test_missing_equals_reports_line(self, tmp_path):
        path = write_config(tmp_path, "lr = 0.1\njust words\n")
        with pytest.raises(FormatError, match="line 2"):
            cli.load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "warp_speed = 9\n")
        with pytest.raises(FormatError):
            cli.load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "epochs = soon\n")
        with pytest.raises(FormatError):
            cli.load_config(path)


FLAG_OF = {
    "lr": "--lr", "epochs": "--epochs", "batch_size": "--batch",
    "alpha1": "--alpha1", "alpha2": "--alpha2", "beta1": "--beta1",
    "beta2": "--beta2", "gp_lambda": "--lambda", "p_m": "--pm",
    "p_n": "--pn", "sigma": "--sigma", "seed": "--seed",
    "max_steps": "--max-steps",
}
PRECEDENCE_CASES = {
    "lr": ("0.25", "0.75"), "epochs": ("3", "7"), "batch_size": ("2", "8"),
    "alpha1": ("0.3", "0.6"), "alpha2": ("0.4", "0.8"),
    "beta1": ("0.5", "0.7"), "beta2": ("0.2", "0.3"),
    "gp_lambda": ("5", "20"), "p_m": ("0.05", "0.2"),
    "p_n": ("0.15", "0.25"), "sigma": ("0.5", "1.5"), "seed": ("3", "9"),
    "max_steps": ("10", "40"),
}


def config_for(args):
    return cli.build_train_config(cli.parse_args(args))


class TestPrecedence:
    @pytest.mark.parametrize("field", sorted(PRECEDENCE_CASES))
    def test_flag_beats_config_beats_default(self, field, tmp_path):
        cfg_raw, flag_raw = PRECEDENCE_CASES[field]
        path = write_config(tmp_path, f"{field} = {cfg_raw}\n",
                            name=f"{field}.cfg")
        base = ["train", "dummy.mqs"]
        parse = TrainConfig.parse_value

        plain = config_for(base)
        assert getattr(plain, field) == getattr(TrainConfig(), field)

        from_cfg = config_for(base + ["--config", path])
        assert getattr(from_cfg, field) == parse(field, cfg_raw)

        both = config_for(base + ["--config", path,
                                  FLAG_OF[field], flag_raw])
        assert getattr(both, field) == parse(field, flag_raw)

    def test_ablation_flags_beat_config(self, tmp_path):
        path = write_config(tmp_path, "use_quotient = true\n"
                            "use_perturbation = true\nuse_lowrank = true\n")
        cfg = config_for(["train", "dummy.mqs", "--config", path,
                          "--ablate-d", "--ablate-e", "--ablate-l"])
        assert not cfg.use_quotient
        assert not cfg.use_perturbation
        assert not cfg.use_lowrank

    def test_config_can_flip_booleans(self, tmp_path):
        path = write_config(tmp_path, "use_lowrank = false\n")
        cfg = config_for(["train", "dummy.mqs", "--config", path])
        assert not cfg.use_lowrank


CONFIG_KEYS = sorted(tr.CONFIG_TYPES) + ["kind", "fps", "joints", "frames", "count",
                                        "stride", "horizons", "warp_speed", "out", ""]
CONFIG_VALUES = st.one_of(
    st.sampled_from(["none", "", "nan", "inf", "-inf", "1e400", "-1", "0", "1", "2", "0.5",
                     "yes", "off", "maybe", "constant", "80,160", "9" * 5000]),
    st.integers().map(str), st.floats().map(repr), st.text(max_size=12))
CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS) | st.text(max_size=8), CONFIG_VALUES)
    .map(" = ".join),
    st.text(max_size=20))  # junk: no "=", stray "#", control characters


class TestConfigProperties:
    @settings(max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(CONFIG_LINES, max_size=6))
    def test_only_motion_errors_escape(self, tmp_path, lines):
        path = tmp_path / "gen.cfg"
        path.write_text("\n".join(lines))
        try:
            cli.build_train_config(cli.parse_args(["train", "clip.mqs", "--config", str(path)]))
        except MotionError:
            pass


class TestOptionValidation:
    """A bad option value exits 3 with one line naming it, before any file is read."""

    CASES = {
        "synth_seed": (["synth", "--seed", "-1", "--out", "x.mqs"], None, "seed"),
        "synth_fps": (["synth", "--fps", "0", "--out", "x.mqs"], None, "fps"),
        "synth_fps_angle_overflow": (["synth", "--fps", "1e-320", "--out", "x.mqs"], None,
                                     "fps"),
        "synth_base_period_angle_overflow": (
            ["synth", "--base-period", "1e-320", "--out", "x.mqs"], None, "base_period"),
        "synth_period_underflow": (
            ["synth", "--fps", "1e-200", "--base-period", "1e-170", "--out", "x.mqs"], None,
            "fps"),
        "synth_kind_in_file": (["synth", "--out", "x.mqs"], "kind = bogus\n", "kind"),
        "perturb_seed": (["perturb", "a.mqs", "--seed", "-1", "--out", "o"], None, "seed"),
        "train_stride": (["train", "a.mqs", "--stride", "0"], None, "stride"),
        "train_max_steps": (["train", "a.mqs", "--max-steps", "-1"], None, "max_steps"),
        "train_input_gain_in_file": (["train", "a.mqs"], "input_gain = nan\n", "input_gain"),
        "train_pm": (["train", "a.mqs", "--pm", "2"], None, "p_m"),
        "eval_stride": (["eval", "a.mqs", "--checkpoint", "c.mqck", "--stride", "0"], None,
                        "stride"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_value_is_one_line(self, case, tmp_path, monkeypatch, capsys):
        argv, config, option = self.CASES[case]
        monkeypatch.chdir(tmp_path)

        def touched(*args, **kwargs):
            raise AssertionError("an option value is checked before any file is touched")

        for name in ("read_mqs_file", "load_checkpoint", "write_mqs_file"):
            monkeypatch.setattr(cli, name, touched)
        monkeypatch.setattr(tr.Trainer, "_auto_sigma", touched)
        if config is not None:
            argv = argv + ["--config", write_config(tmp_path, config)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(argv)
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=FormatError msg=")
        assert f"{option!r}" in err[0] or f" {option} " in err[0]


class TestSynth:
    def test_overflowing_period_is_accepted(self, tmp_path):
        # fps * base_period = inf makes every angle 0: a static sinusoid pose
        out = tmp_path / "still.mqs"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["synth", "--fps", "1e300", "--base-period", "1e300",
                           "--frames", "4", "--out", str(out)])
        assert rc == 0
        data = parse_mqs(out.read_text()).sequence.frames
        assert np.isfinite(data).all()
        assert np.array_equal(data[0], data[-1])

    def test_single_file(self, tmp_path, capsys):
        out = tmp_path / "one.mqs"
        rc = cli.main(["synth", "--joints", "4", "--frames", "12",
                       "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == str(out)
        mqs = parse_mqs(out.read_text())
        assert mqs.sequence.n_joints == 4
        assert mqs.sequence.n_frames == 12
        assert mqs.sequence.action == "sinusoid"

    def test_count_makes_distinct_files(self, tmp_path):
        out = tmp_path / "corpus"
        rc = cli.main(["synth", "--count", "3", "--frames", "10",
                       "--out", str(out)])
        assert rc == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["sinusoid_000.mqs", "sinusoid_001.mqs",
                         "sinusoid_002.mqs"]
        bodies = [(out / f).read_text() for f in files]
        assert len(set(bodies)) == 3

    def test_identical_invocations_identical_bytes(self, tmp_path):
        a = synth_file(tmp_path, "a.mqs", seed=4)
        b = synth_file(tmp_path, "b.mqs", seed=4)
        c = synth_file(tmp_path, "c.mqs", seed=5)
        assert open(a).read() == open(b).read()
        assert open(a).read() != open(c).read()

    def test_constant_kind_is_still(self, tmp_path):
        path = synth_file(tmp_path, kind="constant", frames=6)
        frames = read_mqs_file(path).sequence.frames
        assert np.array_equal(frames, np.broadcast_to(frames[0], frames.shape))

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "frames = 30\njoints = 2\n")
        out = tmp_path / "o.mqs"
        rc = cli.main(["synth", "--config", cfg, "--frames", "8",
                       "--out", str(out)])
        assert rc == 0
        seq = read_mqs_file(out).sequence
        assert seq.n_frames == 8
        assert seq.n_joints == 2

    def test_bad_count_is_data_error(self, tmp_path, capsys):
        rc = cli.main(["synth", "--count", "0", "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "code=3 type=FormatError" in capsys.readouterr().err


class TestTransform:
    def test_constant_motion_encodes_to_zeros(self, tmp_path, capsys):
        src = synth_file(tmp_path, kind="constant", joints=2, frames=4)
        out = tmp_path / "q.mqq"
        rc = cli.main(["transform", src, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "MQQ v1 J=2 T=3"
        assert all(line == "0.0 0.0 0.0 0.0 0" for line in lines[1:])

    def test_many_inputs_fill_directory(self, tmp_path):
        srcs = [synth_file(tmp_path, f"s{i}.mqs", seed=i) for i in range(2)]
        out = tmp_path / "qs"
        rc = cli.main(["transform", *srcs, "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["s0.mqq", "s1.mqq"]

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        rc = cli.main(["transform", str(tmp_path / "ghost.mqs"),
                       "--out", str(tmp_path / "q.mqq")])
        assert rc == 3
        err = capsys.readouterr().err
        assert re.match(r"mqmotion: code=3 type=\w+ msg=", err)


class TestPerturb:
    def test_outputs_and_sidecars(self, tmp_path):
        src = synth_file(tmp_path, "clip.mqs", joints=2, frames=10)
        out = tmp_path / "per"
        rc = cli.main(["perturb", src, "--pm", "0.3", "--pn", "0.3",
                       "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["clip.masked.mask.txt", "clip.masked.mqs",
                         "clip.noised.mask.txt", "clip.noised.mqs"]
        original = read_mqs_file(src).sequence.frames
        masked = read_mqs_file(out / "clip.masked.mqs").sequence.frames
        side = (out / "clip.masked.mask.txt").read_text().splitlines()
        assert side[0] == "# frame joint axis"
        flagged = {tuple(map(int, line.split())) for line in side[1:]}
        diffs = {tuple(idx) for idx in np.argwhere(masked != original)}
        assert diffs <= flagged
        for t, j, a in flagged:
            assert masked[t, j, a] == 0.0

    def test_deterministic(self, tmp_path):
        src = synth_file(tmp_path, "clip.mqs")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["perturb", src, "--out", str(out)]) == 0
        for name in ("clip.masked.mqs", "clip.noised.mqs",
                     "clip.masked.mask.txt"):
            assert (out_a / name).read_text() == (out_b / name).read_text()

    def test_zero_probability_copies_input(self, tmp_path):
        src = synth_file(tmp_path, "clip.mqs", joints=2, frames=6)
        out = tmp_path / "per"
        rc = cli.main(["perturb", src, "--pm", "0", "--pn", "0",
                       "--out", str(out)])
        assert rc == 0
        original = read_mqs_file(src).sequence.frames
        for tag in ("masked", "noised"):
            copy = read_mqs_file(out / f"clip.{tag}.mqs").sequence.frames
            assert np.array_equal(copy, original)
            side = (out / f"clip.{tag}.mask.txt").read_text()
            assert side == "# frame joint axis\n"


class TestTrain:
    def test_zero_epochs_writes_initial_state(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL)
        ckpt = tmp_path / "zero.mqck"
        rc = cli.main(["train", src, "--config", cfg, "--epochs", "0",
                       "--out", str(ckpt)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trained steps=0 final_l_pred=n/a" in out
        assert load_checkpoint(ckpt).global_step == 0
        log = ckpt.with_suffix(".csv")
        assert log.read_text().splitlines() == [
            "step,l_pred,l_mask,l_denoise,l_adv,gp_term,l_total"]

    def test_one_epoch_run(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL)
        ckpt = tmp_path / "run.mqck"
        log = tmp_path / "run.log.csv"
        rc = cli.main(["train", src, "--config", cfg, "--out", str(ckpt),
                       "--log", str(log)])
        assert rc == 0
        assert re.search(r"trained steps=4 final_l_pred=\S+",
                         capsys.readouterr().out)
        assert load_checkpoint(ckpt).global_step == 4
        assert len(log.read_text().splitlines()) == 5

    def test_deterministic_checkpoints(self, tmp_path):
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL)
        a, b = tmp_path / "a.mqck", tmp_path / "b.mqck"
        for out in (a, b):
            assert cli.main(["train", src, "--config", cfg,
                             "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ablation_flags_recorded(self, tmp_path):
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL)
        ckpt = tmp_path / "abl.mqck"
        rc = cli.main(["train", src, "--config", cfg, "--epochs", "0",
                       "--ablate-d", "--ablate-e", "--ablate-l",
                       "--out", str(ckpt)])
        assert rc == 0
        state = load_checkpoint(ckpt)
        assert not state.cfg.use_quotient
        assert not state.cfg.use_perturbation
        assert not state.cfg.use_lowrank
        assert not state.params.dims.lowrank

    def test_clips_shorter_than_window_is_data_error(self, tmp_path, capsys):
        src = synth_file(tmp_path, frames=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a skip warning would reach stderr too
            rc = cli.main(["train", src, "--out", str(tmp_path / "x.mqck")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=SequenceTooShort msg=")

    def test_bad_config_value_is_data_error(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, "epochs = minus_one\n")
        rc = cli.main(["train", src, "--config", cfg,
                       "--out", str(tmp_path / "x.mqck")])
        assert rc == 3
        assert "type=FormatError" in capsys.readouterr().err

    def test_negative_lambda_is_data_error(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        rc = cli.main(["train", src, "--lambda", "-1",
                       "--out", str(tmp_path / "x.mqck")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=FormatError msg=")

    def test_numeric_blowup_is_exit_4(self, tmp_path, capsys):
        out = tmp_path / "huge.mqs"
        assert cli.main(["synth", "--kind", "constant", "--joints", "2",
                         "--frames", "10", "--offset-scale", "1e200",
                         "--out", str(out)]) == 0
        cfg = write_config(tmp_path, SMALL_MODEL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a floating-point warning would reach stderr too
            rc = cli.main(["train", str(out), "--config", cfg,
                           "--sigma", "1.0",
                           "--out", str(tmp_path / "x.mqck")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=4 ")

    def resume(self, tmp_path, capsys, clip, with_config):
        """Train 2 steps on a 3-joint clip, then resume on `clip`: (rc, stderr lines)."""
        cfg = write_config(tmp_path, SMALL_MODEL)
        ckpt = tmp_path / "mid.mqck"
        assert cli.main(["train", synth_file(tmp_path, frames=40), "--config", cfg,
                         "--max-steps", "2", "--out", str(ckpt)]) == 0
        capsys.readouterr()
        args = ["train", clip, "--resume", str(ckpt), "--out", str(tmp_path / "more.mqck")]
        rc = cli.main(args + (["--config", cfg] if with_config else []))
        return rc, capsys.readouterr().err.splitlines()

    def test_resume_runs_on_to_the_straight_run(self, tmp_path):
        src = synth_file(tmp_path, frames=40)
        cfg = write_config(tmp_path, SMALL_MODEL)
        base = ["train", src, "--config", cfg, "--max-steps"]
        straight, cut = tmp_path / "straight.mqck", tmp_path / "cut.mqck"
        assert cli.main(base + ["4", "--out", str(straight)]) == 0
        assert cli.main(base + ["2", "--out", str(cut)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(base + ["4", "--resume", str(cut), "--out", str(cut)]) == 0
        assert cut.read_bytes() == straight.read_bytes()
        assert cut.with_suffix(".csv").read_text() == straight.with_suffix(".csv").read_text()

    def test_resume_with_another_lr_is_data_error(self, tmp_path, capsys):
        long = synth_file(tmp_path, "long.mqs", frames=40)
        cfg = write_config(tmp_path, SMALL_MODEL)
        ckpt = tmp_path / "mid.mqck"
        assert cli.main(["train", long, "--config", cfg, "--max-steps", "2",
                         "--out", str(ckpt)]) == 0
        capsys.readouterr()
        rc = cli.main(["train", long, "--config", cfg, "--lr", "0.5", "--resume", str(ckpt),
                       "--out", str(tmp_path / "more.mqck")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=FormatError msg=")
        assert "lr 0.001 vs 0.5" in err[0]

    def test_resume_on_other_joint_count_is_data_error(self, tmp_path, capsys):
        wide = synth_file(tmp_path, "wide.mqs", joints=5, frames=40)
        rc, err = self.resume(tmp_path, capsys, wide, with_config=True)
        assert rc == 3
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=DimsMismatch msg=")
        assert "joints 3 vs 5" in err[0]

    def test_resume_without_its_config_is_data_error(self, tmp_path, capsys):
        # the default windows (10 + 25 frames) are not the checkpoint's (4 + 4)
        long = synth_file(tmp_path, "long.mqs", frames=40)
        rc, err = self.resume(tmp_path, capsys, long, with_config=False)
        assert rc == 3
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=DimsMismatch msg=")


class TestPredictAndEval:
    def trained(self, tmp_path):
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL)
        ckpt = tmp_path / "model.mqck"
        rc = cli.main(["train", src, "--config", cfg, "--epochs", "0",
                       "--out", str(ckpt)])
        assert rc == 0
        return src, ckpt

    def test_predict_writes_future_window(self, tmp_path, capsys):
        src, ckpt = self.trained(tmp_path)
        capsys.readouterr()
        out = tmp_path / "future.mqs"
        rc = cli.main(["predict", src, "--checkpoint", str(ckpt),
                       "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == str(out)
        seq = read_mqs_file(out).sequence
        assert seq.n_frames == 4
        assert seq.n_joints == 3

    def test_predict_default_output_path(self, tmp_path):
        src, ckpt = self.trained(tmp_path)
        rc = cli.main(["predict", src, "--checkpoint", str(ckpt)])
        assert rc == 0
        assert (tmp_path / "clip.pred.mqs").exists()

    def test_predict_joint_mismatch(self, tmp_path, capsys):
        _, ckpt = self.trained(tmp_path)
        other = synth_file(tmp_path, "wide.mqs", joints=5)
        rc = cli.main(["predict", other, "--checkpoint", str(ckpt)])
        assert rc == 3
        assert "type=SkeletonMismatch" in capsys.readouterr().err

    def test_predict_short_file(self, tmp_path, capsys):
        _, ckpt = self.trained(tmp_path)
        short = synth_file(tmp_path, "short.mqs", frames=3)
        rc = cli.main(["predict", short, "--checkpoint", str(ckpt)])
        assert rc == 3
        assert "type=SequenceTooShort" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("config"),
        lambda h: h["config"].update(warp_speed=9),
        lambda h: h["config"].update(batch_size=0),
        lambda h: h["params"][0][1].reverse(),  # embed.w's shape transposed
    ], ids=["no_config", "unknown_config_key", "bad_config_value", "manifest_shape_transposed"])
    def test_predict_bad_checkpoint_header(self, tmp_path, capsys, edit):
        src, ckpt = self.trained(tmp_path)
        raw = ckpt.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])
        capsys.readouterr()
        rc = cli.main(["predict", src, "--checkpoint", str(ckpt)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=FormatError msg=")

    def test_eval_reports_table_and_files(self, tmp_path, capsys):
        src, ckpt = self.trained(tmp_path)
        capsys.readouterr()
        csv_path = tmp_path / "report.csv"
        svg_path = tmp_path / "report.svg"
        rc = cli.main(["eval", src, "--checkpoint", str(ckpt),
                       "--horizons", "80,160", "--out", str(csv_path),
                       "--svg", str(svg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["milliseconds", "80", "160"]
        assert "average" in out
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "action,80,160"
        assert all(float(v) >= 0.0 for v in rows[-1].split(",")[1:])
        ET.fromstring(svg_path.read_text())

    def test_eval_clips_shorter_than_window_is_data_error(self, tmp_path, capsys):
        _, ckpt = self.trained(tmp_path)
        short = synth_file(tmp_path, "short.mqs", frames=6)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["eval", short, "--checkpoint", str(ckpt)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=SequenceTooShort msg=")

    def test_eval_non_finite_predictions_is_exit_4(self, tmp_path, capsys):
        src, ckpt = self.trained(tmp_path)
        n = load_checkpoint(ckpt).params.n_params
        raw = ckpt.read_bytes()
        start = 16 + struct.unpack("<Q", raw[8:16])[0]
        huge = np.full(n, 1e300).astype("<f8").tobytes()  # the forward overflows
        ckpt.write_bytes(raw[:start] + huge + raw[start + 8 * n :])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["eval", src, "--checkpoint", str(ckpt), "--horizons", "80,160"])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=4 type=NumericalInstability msg=")

    def test_predict_non_finite_predictions_is_exit_4(self, tmp_path, capsys):
        src, ckpt = self.trained(tmp_path)
        n = load_checkpoint(ckpt).params.n_params
        raw = ckpt.read_bytes()
        start = 16 + struct.unpack("<Q", raw[8:16])[0]
        huge = np.full(n, 1e300).astype("<f8").tobytes()  # the forward overflows
        ckpt.write_bytes(raw[:start] + huge + raw[start + 8 * n :])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["predict", src, "--checkpoint", str(ckpt)])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=4 type=NumericalInstability msg=")
        assert not (tmp_path / "clip.pred.mqs").exists()

    def test_eval_bad_horizons(self, tmp_path, capsys):
        src, ckpt = self.trained(tmp_path)
        rc = cli.main(["eval", src, "--checkpoint", str(ckpt),
                       "--horizons", "80,donkey"])
        assert rc == 3
        assert "type=FormatError" in capsys.readouterr().err

    def test_eval_misaligned_horizon(self, tmp_path, capsys):
        src, ckpt = self.trained(tmp_path)
        rc = cli.main(["eval", src, "--checkpoint", str(ckpt),
                       "--horizons", "85"])
        assert rc == 3
        assert "type=HorizonMisaligned" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli.main(["synth", "--out", "x.mqs", "--warp", "9"]) == 2
        capsys.readouterr()

    def test_config_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bin.cfg"
        path.write_bytes(b"lr = \xff\n")
        rc = cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "x.mqs")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=UnicodeDecodeError msg=")

    def test_error_line_shape(self, tmp_path, capsys):
        rc = cli.main(["transform", str(tmp_path / "nope.mqs"),
                       "--out", str(tmp_path / "o.mqq")])
        assert rc == 3
        err = capsys.readouterr().err.strip()
        assert re.fullmatch(r"mqmotion: code=3 type=\w+ msg=[\"'].*[\"']", err)
