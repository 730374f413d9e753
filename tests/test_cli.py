"""End-to-end command-line pipelines, config precedence, and exit codes."""
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import textwrap
import time
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mqmotion.autodiff as ad
import mqmotion.cli as cli
import mqmotion.network as net
import mqmotion.train as tr
from mqmotion.dataio import parse_mqs, read_mqs_file, write_mqs_file
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


def tree_bytes(root):
    """Every path under root, with a file's bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def same_name_inputs_are_one_line(tmp_path, monkeypatch, capsys, command):
    """command over x/a.mqs and y/a.mqs --out out: one FormatError line naming
    both inputs, checked before a directory is made or a clip is read."""
    monkeypatch.chdir(tmp_path)
    synth_file(tmp_path, "x/a.mqs")
    synth_file(tmp_path, "y/a.mqs", seed=1)
    before = tree_bytes(tmp_path)
    capsys.readouterr()
    rc = cli.main([command, "x/a.mqs", "y/a.mqs", "--out", "out"])
    [line] = capsys.readouterr().err.splitlines()
    assert rc == 3 and line.startswith("mqmotion: code=3 type=FormatError msg=")
    assert "msg='the output of x/a.mqs and the output of y/a.mqs are one path" in line
    assert tree_bytes(tmp_path) == before


def edit_header(ckpt, edit, out=None):
    """Write ckpt with edit(header) applied to its JSON header to out (default: ckpt)."""
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    (out or ckpt).write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])


def write_old_low_rank_layout(ckpt, out):
    """Write a low-rank ckpt in the layout of the parameter set before the
    query bias moved to rank width: each attention's bq is (D) and a
    (H, 1, r) pq_b follows its pq, in the manifest, the counts, the
    parameter blob and the generator's Adam moments. The moved biases are
    written as zeros."""
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    dims, counts = header["dims"], header["counts"]
    assert dims["lowrank"]
    d, hr = dims["d_model"], dims["heads"] * dims["rank"]
    manifest = []
    for name, shape in header["params"]:
        manifest.append([name, [d] if name.endswith(".bq") else shape])
        if name.endswith(".pq"):
            manifest.append([name + "_b", [dims["heads"], 1, dims["rank"]]])

    def relayout(vec):
        parts, off = [], 0
        for name, shape in header["params"]:
            if off == len(vec):  # the generator's moments end before the critic
                break
            size = int(np.prod(shape))
            parts.append(np.zeros(d) if name.endswith(".bq") else vec[off : off + size])
            off += size
            if name.endswith(".pq"):
                parts.append(np.zeros(hr))
        return np.concatenate(parts)

    off, blobs = 16 + hlen, []
    for n in ("total", "generator", "generator", "critic", "critic"):
        blob = np.frombuffer(raw, "<f8", counts[n], off)
        off += 8 * counts[n]
        blobs.append(blob if n == "critic" else relayout(blob))
    grown = len(blobs[0]) - counts["total"]
    header.update(params=manifest, counts={**counts, "total": counts["total"] + grown,
                                           "generator": counts["generator"] + grown})
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    out.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text
                    + b"".join(b.astype("<f8").tobytes() for b in blobs))


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
    def test_memory_error_is_one_line(self, tmp_path, monkeypatch, capsys):
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "synth_generate", too_big)
        rc = cli.main(["synth", "--frames", "4", "--out", str(tmp_path / "a.mqs")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["mqmotion: code=3 type=MemoryError "
                       "msg='Unable to allocate 7.28 TiB for an array'"]

    @pytest.mark.parametrize("flag, value", [("--frames", 10**12), ("--joints", 10**9),
                                             ("--count", 10**7)])
    def test_size_over_limit_is_one_line(self, tmp_path, capsys, flag, value):
        # checked before anything is generated, allocated or written
        out = tmp_path / "corpus"
        assert cli.main(["synth", flag, str(value), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        assert line.startswith("mqmotion: code=3 type=FormatError ")
        assert all(f"'{name}'" in line for name in ("frames", "joints", "count"))
        assert str(cli._SYNTH_MAX_COORDS) in line

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

    def test_single_file_makes_its_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["synth", "--joints", "5", "--frames", "40",
                         "--out", "clips/a.mqs"]) == 0
        assert capsys.readouterr().err == ""
        assert read_mqs_file(tmp_path / "clips" / "a.mqs").sequence.n_frames == 40

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

    def test_single_file_makes_its_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        synth_file(tmp_path, "a.mqs", joints=2, frames=4)
        assert cli.main(["transform", "a.mqs", "--out", "q/a.mqq"]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "q" / "a.mqq").read_text().startswith("MQQ v1 J=2 T=3")

    def test_many_inputs_fill_directory(self, tmp_path):
        srcs = [synth_file(tmp_path, f"s{i}.mqs", seed=i) for i in range(2)]
        out = tmp_path / "qs"
        rc = cli.main(["transform", *srcs, "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["s0.mqq", "s1.mqq"]

    def test_two_inputs_of_one_name_are_one_line(self, tmp_path, monkeypatch, capsys):
        same_name_inputs_are_one_line(tmp_path, monkeypatch, capsys, "transform")

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

    def test_two_inputs_of_one_name_are_one_line(self, tmp_path, monkeypatch, capsys):
        same_name_inputs_are_one_line(tmp_path, monkeypatch, capsys, "perturb")

    def test_non_finite_noise_writes_nothing(self, tmp_path, capsys):
        # every copy is built before the first is written
        srcs = [synth_file(tmp_path, name, joints=2, frames=10, seed=i)
                for i, name in enumerate(("a.mqs", "b.mqs"))]
        out = tmp_path / "per"
        capsys.readouterr()
        rc = cli.main(["perturb", *srcs, "--pn", "1", "--sigma", "1e308", "--out", str(out)])
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert rc == 3 and line.startswith("mqmotion: code=3 type=FormatError msg=")
        assert "'sigma'" in line and captured.out == ""
        assert not out.exists() or not any(out.iterdir())

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

    def test_clips_at_two_frame_rates_is_data_error(self, tmp_path, capsys):
        clips = []
        for fps in ("25", "50"):
            clips.append(str(tmp_path / f"{fps}.mqs"))
            assert cli.main(["synth", "--joints", "3", "--frames", "60", "--fps", fps,
                             "--out", clips[-1]]) == 0
        capsys.readouterr()
        rc = cli.main(["train", *clips, "--out", str(tmp_path / "x.mqck")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=ResampleUnsupported msg=")
        assert not (tmp_path / "x.mqck").exists()

    def test_huge_declared_joint_count_is_data_error(self, tmp_path, capsys):
        # J and T are checked against the text's length before a (T, J, 3)
        # buffer of 24 TB is asked for
        src = tmp_path / "huge.mqs"
        src.write_text(f"MQS1 J={10**12} T=1 fps=25\n0 0 0\n")
        rc = cli.main(["train", str(src), "--out", str(tmp_path / "x.mqck")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=FormatError msg=")

    @pytest.mark.parametrize("sizes", ["layers = 1000000000", "critic_width = 100000000",
                                       "d_model = 4096\nheads = 1"],
                             ids=["layers", "critic_width", "d_model"])
    def test_model_over_size_limit_is_one_line(self, tmp_path, capsys, sizes):
        # refused from the parameter count, before any parameter is drawn
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL + sizes + "\n")
        ckpt = tmp_path / "x.mqck"
        capsys.readouterr()
        t0 = time.perf_counter()
        rc = cli.main(["train", src, "--config", cfg, "--out", str(ckpt)])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 3 and not ckpt.exists()
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("mqmotion: code=3 type=FormatError msg=")
        assert "joints 3" in line and str(tr._MAX_PARAMS) in line
        assert all(f"{name} " in line for name in ("d_model", "heads", "layers", "critic_width"))

    def test_critic_steps_over_limit_is_one_line(self, tmp_path, capsys):
        # under the limit, each of these would be a critic update of the one step
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL + "critic_steps = 1000000000000\n")
        ckpt = tmp_path / "x.mqck"
        capsys.readouterr()
        t0 = time.perf_counter()
        rc = cli.main(["train", src, "--config", cfg, "--max-steps", "1", "--out", str(ckpt)])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 3 and not ckpt.exists()
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("mqmotion: code=3 type=FormatError msg=")
        assert "critic_steps" in line and str(tr._MAX_CRITIC_STEPS) in line

    def test_interrupt_is_one_line(self, tmp_path, monkeypatch, capsys):
        # SIGINT reaches the program as a KeyboardInterrupt, here from the second step
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL)
        step, calls = tr.Trainer.step, []

        def interrupted(self, *args):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return step(self, *args)

        monkeypatch.setattr(tr.Trainer, "step", interrupted)
        capsys.readouterr()
        rc = cli.main(["train", src, "--config", cfg, "--out", str(tmp_path / "x.mqck")])
        captured = capsys.readouterr()
        assert rc == 130 and len(calls) == 2
        assert captured.err.splitlines() == [
            "mqmotion: code=130 type=KeyboardInterrupt msg='interrupted'"]
        assert "Traceback" not in captured.out + captured.err

    def test_sigterm_is_one_line(self, tmp_path):
        """A child that sends itself SIGTERM at its second Trainer.step exits
        as SIGINT does: one code=143 line and nothing saved, and main gives
        the caller's own handler back when it returns."""
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL)
        ckpt = tmp_path / "x.mqck"
        child = textwrap.dedent("""
            import signal, sys
            import mqmotion.cli as cli
            import mqmotion.train as tr

            step, calls = tr.Trainer.step, []

            def signalled(self, *args):
                calls.append(1)
                if len(calls) == 2:
                    signal.raise_signal(signal.SIGTERM)
                return step(self, *args)

            def callers(signum, frame):
                raise AssertionError("the caller's handler ran")

            tr.Trainer.step = signalled
            signal.signal(signal.SIGTERM, callers)
            rc = cli.main(sys.argv[1:])
            print(len(calls), signal.getsignal(signal.SIGTERM) is callers)
            sys.exit(rc)
        """)
        src_dir = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", child, "train", src, "--config", cfg,
                               "--out", str(ckpt)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 143, proc.stderr
        assert proc.stderr.splitlines() == ["mqmotion: code=143 type=SIGTERM msg='terminated'"]
        assert proc.stdout.split() == ["2", "True"]
        assert not ckpt.exists()

    def test_size_limit_is_inclusive(self, tmp_path, monkeypatch, capsys):
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL)
        n = net._param_count(cli.build_train_config(cli.parse_args(
            ["train", src, "--config", cfg])).model_dims(3))
        for limit, code in ((n, 0), (n - 1, 3)):
            monkeypatch.setattr(tr, "_MAX_PARAMS", limit)
            assert cli.main(["train", src, "--config", cfg, "--epochs", "0",
                             "--out", str(tmp_path / f"{limit}.mqck")]) == code
        assert f"make {n} parameters, over the limit of {n - 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("frames, sizes, windows", [
        (60, "layers = 603", 16),  # 9,993,608 parameters; one step would take ~10 GB
        (60, SMALL_MODEL + "ffn_mult = 70000", 4),  # 9,550,000 parameters
        (400, SMALL_MODEL + "batch_size = 1000000000000\nlayers = 70", 393),
    ], ids=["layers", "ffn_mult", "batch_size"])
    def test_activations_over_limit_are_one_line(self, tmp_path, capsys, frames, sizes,
                                                windows):
        # refused from the estimate, under the parameter limit and before
        # any parameter is drawn; a batch counts at most the corpus's windows
        src = synth_file(tmp_path, joints=22, frames=frames)
        ckpt = tmp_path / "x.mqck"
        capsys.readouterr()
        t0 = time.perf_counter()
        rc = cli.main(["train", src, "--config", write_config(tmp_path, sizes + "\n"),
                       "--out", str(ckpt)])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 3 and not ckpt.exists()
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("mqmotion: code=3 type=FormatError msg=")
        assert f"on {windows} windows, over the limit of {tr._MAX_STEP_BYTES}" in line
        assert all(f"{name} " in line for name in ("joints", "batch_size", "obs_frames",
                                                  "d_model", "layers", "ffn_mult"))

    def test_one_pass_estimate_admits_what_the_three_graph_fit_refused(self, tmp_path):
        # 100 default J=22 layers on 16 windows: the first fit, (280, 37) bytes
        # per entry, estimated 3.6e9 bytes; one pass at a time takes 1.6e9
        src = synth_file(tmp_path, joints=22, frames=60)
        cfg = write_config(tmp_path, "layers = 100\n")
        assert 16 * 9 * 22 * 32 * 100 * (280 + 37 * 2) > tr._MAX_STEP_BYTES
        assert cli.main(["train", src, "--config", cfg, "--epochs", "0",
                         "--out", str(tmp_path / "x.mqck")]) == 0

    def test_activation_limit_is_inclusive(self, tmp_path, monkeypatch, capsys):
        # the benchmark's J=22 config (the defaults, batch 16) has 20x headroom
        src = synth_file(tmp_path, joints=22, frames=60)
        argv = ["train", src, "--epochs", "0", "--out", str(tmp_path / "x.mqck")]
        monkeypatch.setattr(tr, "_MAX_STEP_BYTES", 0)
        assert cli.main(argv) == 3
        need = int(re.search(r"make about (\d+) bytes", capsys.readouterr().err)[1])
        assert 0 < 20 * need < 2 * 10**9
        for limit, code in ((need, 0), (need - 1, 3)):
            monkeypatch.setattr(tr, "_MAX_STEP_BYTES", limit)
            assert cli.main(argv) == code

    def test_resume_on_a_larger_corpus_checks_the_activations(self, tmp_path, monkeypatch,
                                                              capsys):
        # a checkpoint fixes batch_size and the model, not the corpus: one
        # trained on 1 window is refused on a corpus that fills its batch of 4
        cfg = write_config(tmp_path, SMALL_MODEL)
        one = synth_file(tmp_path, "one.mqs", frames=8)
        ckpt, more = tmp_path / "mid.mqck", tmp_path / "more.mqck"
        monkeypatch.setattr(tr, "_MAX_STEP_BYTES", 0)
        assert cli.main(["train", one, "--config", cfg, "--out", str(ckpt)]) == 3
        need = int(re.search(r"make about (\d+) bytes", capsys.readouterr().err)[1])
        monkeypatch.setattr(tr, "_MAX_STEP_BYTES", need)
        assert cli.main(["train", one, "--config", cfg, "--max-steps", "2",
                         "--out", str(ckpt)]) == 0
        capsys.readouterr()
        rc = cli.main(["train", synth_file(tmp_path, frames=40), "--config", cfg,
                       "--resume", str(ckpt), "--out", str(more)])
        assert rc == 3 and not more.exists()
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("mqmotion: code=3 type=FormatError msg=")
        assert f"make about {4 * need} bytes" in line
        assert f"on 4 windows, over the limit of {need}" in line

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

    @pytest.mark.parametrize("scale, code", [(1e15, 0), (1e25, 4), (1e45, 4)])
    def test_large_input_trains_or_exits_4(self, tmp_path, capsys, scale, code):
        # float32 squared errors overflow near 1e19 mm and layer norms near
        # 3e18 per entry: a run on larger clips refuses, never crashes or
        # writes a checkpoint
        clip = tmp_path / "big.mqs"
        seq = read_mqs_file(synth_file(tmp_path)).sequence
        write_mqs_file(clip, seq.with_frames(seq.frames * scale))
        ckpt, log = tmp_path / "x.mqck", tmp_path / "x.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a floating-point warning would reach stderr too
            rc = cli.main(["train", str(clip), "--config", write_config(tmp_path, SMALL_MODEL),
                           "--out", str(ckpt)])
        err = capsys.readouterr().err.splitlines()
        assert rc == code
        if rc == 4:
            assert len(err) == 1 and not ckpt.exists() and not log.exists()
            assert err[0].startswith("mqmotion: code=4 type=NumericalInstability msg=")
            return
        state = load_checkpoint(ckpt)
        assert err == [] and state.global_step > 0 and np.isfinite(state.params.vec).all()
        assert len(log.read_text().splitlines()) == 1 + state.global_step  # header and steps

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # each count in a fresh process, where OPENBLAS_NUM_THREADS takes effect;
        # at 22 joints the GEMMs are large enough for OpenBLAS to split them
        clip = synth_file(tmp_path, joints=22, frames=60)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        outs = []
        for threads in ("2", "1"):
            out = tmp_path / f"threads{threads}.mqck"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-m", "mqmotion.cli", "train", clip,
                                   "--max-steps", "4", "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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

    def test_resume_at_the_end_of_an_epoch_runs_on_to_the_straight_run(self, tmp_path):
        # 33 windows in batches of 4 make 9 per epoch: --max-steps 9 stops after
        # the epoch's last batch and saves batch_index 9, which a resume accepts
        src = synth_file(tmp_path, frames=40)
        cfg = write_config(tmp_path, SMALL_MODEL + "epochs = 2\n")
        base = ["train", src, "--config", cfg, "--max-steps"]
        straight, cut = tmp_path / "straight.mqck", tmp_path / "cut.mqck"
        assert cli.main(base + ["11", "--out", str(straight)]) == 0
        assert cli.main(base + ["9", "--out", str(cut)]) == 0
        state = load_checkpoint(cut)
        assert (state.epoch, state.batch_index) == (0, 9)
        assert cli.main(base + ["11", "--resume", str(cut), "--out", str(cut)]) == 0
        assert cut.read_bytes() == straight.read_bytes()

    def resume_edited(self, tmp_path, capsys, field, value):
        """Resume a 2-step checkpoint whose header has field = value: (rc, stderr lines)."""
        src = synth_file(tmp_path, frames=40)
        cfg = write_config(tmp_path, SMALL_MODEL)
        ckpt = tmp_path / "mid.mqck"
        assert cli.main(["train", src, "--config", cfg, "--max-steps", "2",
                         "--out", str(ckpt)]) == 0
        edit_header(ckpt, lambda h: h.update({field: value}))
        capsys.readouterr()
        rc = cli.main(["train", src, "--config", cfg, "--resume", str(ckpt),
                       "--out", str(tmp_path / "more.mqck")])
        return rc, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("field, value", [("epoch", 0.9), ("batch_index", 1.5),
                                              ("global_step", "2")])
    def test_resume_with_a_non_integer_counter_is_data_error(self, tmp_path, capsys,
                                                             field, value):
        rc, err = self.resume_edited(tmp_path, capsys, field, value)
        assert rc == 3 and len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=FormatError msg=")
        assert f"{field} must be an integer" in err[0]

    def test_resume_past_the_epochs_batches_is_data_error(self, tmp_path, capsys):
        rc, err = self.resume_edited(tmp_path, capsys, "batch_index", 99)
        assert rc == 3 and len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=FormatError msg=")
        assert "batch_index 99 is past the 9 batches" in err[0]

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

    def test_resume_on_another_root_is_data_error(self, tmp_path, capsys):
        # the clips' root joint is the features' origin: the checkpoint's 1
        # against these clips' 0 would change the features mid-run
        rc, err = self.resume_edited(tmp_path, capsys, "root_index", 1)
        assert rc == 3 and len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=FormatError msg=")
        assert "root_index 1 vs 0" in err[0]
        assert not (tmp_path / "more.mqck").exists()

    def test_resume_without_its_ablation_flag_names_it(self, tmp_path, capsys):
        src = synth_file(tmp_path, frames=40)
        cfg = write_config(tmp_path, SMALL_MODEL)
        ckpt = tmp_path / "mid.mqck"
        base = ["train", src, "--config", cfg, "--out", str(ckpt)]
        assert cli.main(base + ["--ablate-d", "--max-steps", "2"]) == 0
        capsys.readouterr()
        assert cli.main(base + ["--resume", str(ckpt)]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("mqmotion: code=3 type=DimsMismatch msg=")
        assert "use_quotient False vs True" in line

    @pytest.mark.parametrize("out, log, extra, names", [
        ("new/model.csv", None, [], ("--out", "the default --log")),
        ("new/run.mqck", "new/run.mqck", [], ("--out", "--log")),
        ("new/run.mqck", "clip.mqs", [], ("--log", "a clip")),
        ("clip.mqs", None, [], ("--out", "a clip")),
        ("new/run.mqck", "mid.mqck", ["--resume", "mid.mqck"], ("--log", "--resume")),
    ], ids=["default_log", "log", "log_over_clip", "out_over_clip", "log_over_resume"])
    def test_an_output_over_another_path_is_one_line(self, tmp_path, monkeypatch, capsys,
                                                     out, log, extra, names):
        # checked before anything is read or made: the tree stays as it was
        monkeypatch.chdir(tmp_path)
        synth_file(tmp_path)
        if extra:
            assert cli.main(["train", "clip.mqs", "--config", write_config(tmp_path, SMALL_MODEL),
                             "--max-steps", "1", "--out", "mid.mqck"]) == 0
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        rc = cli.main(["train", "clip.mqs", "--out", out] + (["--log", log] if log else [])
                      + extra)
        [line] = capsys.readouterr().err.splitlines()
        assert rc == 3 and line.startswith("mqmotion: code=3 type=FormatError msg=")
        assert f"msg='{names[0]} and {names[1]} are one path" in line
        assert tree_bytes(tmp_path) == before


    @pytest.mark.parametrize("option", ["--log", "--out"])
    def test_an_output_that_is_a_directory_is_one_line(self, tmp_path, monkeypatch, capsys,
                                                      option):
        # refused before a clip is read: no checkpoint and no log are written
        monkeypatch.chdir(tmp_path)
        synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL)
        (tmp_path / "taken").mkdir()
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        outputs = {"--out": "run.mqck", "--log": "run.csv", option: "taken"}
        rc = cli.main(["train", "clip.mqs", "--config", cfg,
                       *(arg for pair in outputs.items() for arg in pair)])
        [line] = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert line == f"mqmotion: code=3 type=FormatError msg='{option} is a directory: taken'"
        assert tree_bytes(tmp_path) == before


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

    @pytest.mark.parametrize("scale, codes", [(1e15, {0}), (1e25, {0, 4}), (1e45, {0, 4})])
    def test_predict_large_input_agrees_with_float64_or_exits_4(self, tmp_path, capsys,
                                                               scale, codes):
        # the float64 pass is scale-invariant through its layer norms; the
        # float32 pass must give its frames or refuse, never other frames
        src, ckpt = self.trained(tmp_path)
        seq = read_mqs_file(src).sequence
        big, out = tmp_path / "big.mqs", tmp_path / "big.pred.mqs"
        write_mqs_file(big, seq.with_frames(seq.frames * scale))
        capsys.readouterr()
        rc = cli.main(["predict", str(big), "--checkpoint", str(ckpt), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc in codes
        if rc == 4:
            assert len(err) == 1 and not out.exists()
            assert err[0].startswith("mqmotion: code=4 type=NumericalInstability msg=")
            return
        state = load_checkpoint(ckpt)
        feats, _ = net.build_features(seq.frames[None, -state.cfg.obs_frames:] * scale,
                                      state.root_index, True, state.cfg.input_gain)
        with ad.no_grad():
            act = net.forward_backbone(feats, None, state.params, last_frame=True)
            want = net.heads(act, state.params, "pred").data[0]
        got = read_mqs_file(out).sequence.frames
        assert err == [] and np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_predict_joint_mismatch(self, tmp_path, capsys):
        _, ckpt = self.trained(tmp_path)
        other = synth_file(tmp_path, "wide.mqs", joints=5)
        rc = cli.main(["predict", other, "--checkpoint", str(ckpt)])
        assert rc == 3
        assert "type=SkeletonMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("layers", [0, 2])
    def test_eval_joint_mismatch_is_one_line(self, tmp_path, capsys, layers):
        src = synth_file(tmp_path)
        cfg = write_config(tmp_path, SMALL_MODEL.replace("layers = 1", f"layers = {layers}"))
        ckpt = tmp_path / "model.mqck"
        assert cli.main(["train", src, "--config", cfg, "--epochs", "0",
                         "--out", str(ckpt)]) == 0
        other = synth_file(tmp_path, "four.mqs", joints=4)
        capsys.readouterr()
        rc = cli.main(["eval", other, "--checkpoint", str(ckpt), "--horizons", "80"])
        [line] = capsys.readouterr().err.splitlines()
        assert rc == 3 and line.startswith("mqmotion: code=3 type=SkeletonMismatch msg=")
        assert "has 3 joints" in line and "have 4" in line

    @pytest.mark.parametrize("command", ["predict", "eval", "train"])
    def test_old_low_rank_layout_is_refused(self, tmp_path, capsys, command):
        # a low-rank checkpoint written before the query bias moved to rank
        # width names a pq_b the model no longer has
        src, ckpt = self.trained(tmp_path)
        old = tmp_path / "old.mqck"
        write_old_low_rank_layout(ckpt, old)
        argv = {
            "predict": ["predict", src, "--checkpoint", str(old)],
            "eval": ["eval", src, "--checkpoint", str(old), "--horizons", "80"],
            "train": ["train", src, "--config", str(tmp_path / "run.cfg"), "--resume",
                      str(old), "--out", str(tmp_path / "resumed.mqck")],
        }[command]
        capsys.readouterr()
        rc = cli.main(argv)
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert rc == 3 and line.startswith("mqmotion: code=3 type=FormatError msg=")
        # the line names the first entry that differs: bq, 8 wide then, 4 now
        assert '["layer0.spatial.bq", [8]]' in line and '["layer0.spatial.bq", [4]]' in line
        assert captured.out == "" and not (tmp_path / "clip.pred.mqs").exists()
        assert not (tmp_path / "resumed.mqck").exists()

    def test_dims_past_the_blob_are_one_count_line(self, tmp_path, capsys):
        # dims whose layout outgrows the file are refused by their count alone,
        # without listing a layout of a billion layers
        src, ckpt = self.trained(tmp_path)
        layers = 10**9
        edit_header(ckpt, lambda h: (h["dims"].update(layers=layers),
                                     h["config"].update(layers=layers)))
        capsys.readouterr()
        start = time.monotonic()
        rc = cli.main(["predict", src, "--checkpoint", str(ckpt)])
        [line] = capsys.readouterr().err.splitlines()
        assert time.monotonic() - start < 5
        assert rc == 3 and line.startswith("mqmotion: code=3 type=FormatError msg=")
        assert "checkpoint parameter blob: need" in line

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
        lambda h: h["dims"].update(joints=3.0),  # equal to the config's 3, but no shape
        # dims and config agree on 10**9 layers, but the blob holds one: its
        # length is checked against the count before any layer is listed
        lambda h: (h["config"].update(layers=10**9), h["dims"].update(layers=10**9)),
    ], ids=["no_config", "unknown_config_key", "bad_config_value", "manifest_shape_transposed",
            "dims_joints_float", "huge_layers"])
    def test_predict_bad_checkpoint_header(self, tmp_path, capsys, edit):
        src, ckpt = self.trained(tmp_path)
        edit_header(ckpt, edit)
        capsys.readouterr()
        t0 = time.perf_counter()
        rc = cli.main(["predict", src, "--checkpoint", str(ckpt)])
        assert rc == 3 and time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("mqmotion: code=3 type=FormatError msg=")

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["root_index", "epoch", "batch_index", "global_step",
                                  "generator", "critic"]),
           value=st.integers(-2**40, 2**40))
    def test_header_counters_exit_0_or_3(self, tmp_path, capsys, field, value):
        src, ckpt = str(tmp_path / "clip.mqs"), tmp_path / "model.mqck"
        if not ckpt.exists():  # tmp_path is shared by every example
            self.trained(tmp_path)
        edited = tmp_path / "edited.mqck"
        edit_header(ckpt, lambda h: h["adam"][field].update(t=value) if field in h["adam"]
                    else h.update({field: value}), edited)
        valid = value >= 0 and (field != "root_index" or value < 3)
        try:
            load_checkpoint(edited)
            assert valid
        except MotionError:
            assert not valid
        capsys.readouterr()
        rc = cli.main(["eval", src, "--checkpoint", str(edited), "--horizons", "80"])
        err = capsys.readouterr().err.splitlines()
        if valid:
            assert rc == 0 and err == []
        else:
            assert rc == 3 and len(err) == 1
            assert err[0].startswith("mqmotion: code=3 type=FormatError msg=")

    @pytest.mark.parametrize("args, names", [
        (["predict", "clip.mqs", "--out", "clip.mqs"], ("--out", "the input")),
        (["predict", "clip.mqs", "--out", "model.mqck"], ("--out", "--checkpoint")),
        (["eval", "clip.mqs", "--out", "r.csv", "--svg", "r.csv"], ("--out", "--svg")),
        (["eval", "clip.mqs", "--out", "clip.mqs"], ("--out", "a clip")),
        (["eval", "clip.mqs", "--svg", "model.mqck"], ("--svg", "--checkpoint")),
    ], ids=["predict_over_input", "predict_over_checkpoint", "eval_csv_and_svg",
            "eval_over_clip", "eval_over_checkpoint"])
    def test_an_output_over_another_path_is_one_line(self, tmp_path, monkeypatch, capsys,
                                                     args, names):
        self.trained(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        assert cli.main(args + ["--checkpoint", "model.mqck"]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("mqmotion: code=3 type=FormatError msg=")
        assert f"msg='{names[0]} and {names[1]} are one path" in line
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("args, option", [
        (["eval", "clip.mqs", "--svg", "taken"], "--svg"),
        (["predict", "clip.mqs", "--out", "taken"], "--out"),
    ], ids=["eval_svg", "predict_out"])
    def test_an_output_that_is_a_directory_is_one_line(self, tmp_path, monkeypatch, capsys,
                                                      args, option):
        self.trained(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        assert cli.main(args + ["--checkpoint", "model.mqck"]) == 3
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line == f"mqmotion: code=3 type=FormatError msg='{option} is a directory: taken'"
        assert captured.out == "" and tree_bytes(tmp_path) == before

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


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A clip and a 0-epoch checkpoint trained on it, shared by the module."""
    root = tmp_path_factory.mktemp("tiny")
    src = synth_file(root)
    ckpt = root / "model.mqck"
    assert cli.main(["train", src, "--config", write_config(root, SMALL_MODEL),
                     "--epochs", "0", "--out", str(ckpt)]) == 0
    return src, ckpt


_REMOVE, _AS_FLOAT = object(), object()
_COUNTERS = ("root_index", "epoch", "batch_index", "global_step", "adam.generator",
             "adam.critic")
_DIMS_FIELDS = [f.name for f in dataclasses.fields(net.ModelDims)]
# a field and its section; "both" sets a field dims and config share in each
_HEADER_FIELDS = st.one_of(
    st.tuples(st.just("dims"), st.sampled_from(_DIMS_FIELDS)),
    st.tuples(st.just("config"), st.sampled_from(sorted(tr.CONFIG_TYPES))),
    st.tuples(st.just("counts"), st.sampled_from(["total", "generator", "critic"])),
    st.tuples(st.just("counters"), st.sampled_from(_COUNTERS)),
    st.tuples(st.just("both"), st.sampled_from(sorted(set(_DIMS_FIELDS) & set(tr.CONFIG_TYPES)))),
)
_HEADER_VALUES = st.one_of(
    st.integers(-10**12, 10**12), st.integers(10**9, 10**12), st.just(0),
    st.integers(-3, 40).map(float), st.floats(), st.text(max_size=4), st.booleans(),
    st.none(), st.just(_REMOVE), st.just(_AS_FLOAT),
)


def _mutate(header, section, key, value):
    if section == "counters":
        owner, key = (header["adam"][key[5:]], "t") if key.startswith("adam.") else (header, key)
        targets = [owner]
    else:
        targets = [header[s] for s in (("dims", "config") if section == "both" else (section,))]
    for owner in targets:
        if value is _REMOVE:
            owner.pop(key, None)
        else:  # _AS_FLOAT: the field's own value, as a float (a 3 becomes 3.0)
            owner[key] = float(owner.get(key) or 0) if value is _AS_FLOAT else value


class TestCheckpointHeaderFuzz:
    @settings(max_examples=150, deadline=1000, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=_HEADER_FIELDS, value=_HEADER_VALUES)
    def test_load_returns_or_raises_motion_error(self, tiny_checkpoint, tmp_path, capsys,
                                                 field, value):
        # a size field up to 10**12 must be refused before anything that large is built
        src, ckpt = tiny_checkpoint
        edited = tmp_path / "edited.mqck"
        edit_header(ckpt, lambda h: _mutate(h, *field, value), edited)
        try:
            load_checkpoint(edited)
            loaded = True
        except MotionError:
            loaded = False
        capsys.readouterr()
        rc = cli.main(["predict", src, "--checkpoint", str(edited),
                       "--out", str(tmp_path / "p.mqs")])
        err = capsys.readouterr().err.splitlines()
        assert rc in ((0, 4) if loaded else (3,))
        assert len(err) == (rc != 0)
        assert all(re.match(rf"mqmotion: code={rc} type=\w+ msg=", line) for line in err)


# huge (at least 10**12), zero, negative, not finite, not a number, and small
# valid values; none just under a size limit, where a legal run takes seconds
_OPTION_VALUES = st.sampled_from([
    "1000000000000", "1e12", "-1e12", "10000000000000000000000", "0", "0.0", "-1", "nan",
    "inf", "-inf", "abc", "", "1", "2", "3", "0.5"])
_SYNTH_OPTIONS = ["joints", "frames", "fps", "count", "amplitude", "base_period",
                  "offset_scale", "seed"]
_FUZZED = {  # command: (options, config-file-only keys)
    "synth": (_SYNTH_OPTIONS, []),
    "train": (["seed", "p_m", "p_n", "sigma", "alpha1", "alpha2", "beta1", "beta2",
               "gp_lambda", "lr", "epochs", "batch_size", "stride"],
              ["critic_steps", "d_model", "rank", "heads", "layers", "critic_width", "ffn_mult",
               "head_gain", "input_gain", "grad_clip", "obs_frames", "future_frames"]),
    "eval": (["stride", "horizons"], ["d_model", "layers", "obs_frames", "future_frames"]),
}
_FLAG = {**{k: "--" + k.replace("_", "-") for k in [*_SYNTH_OPTIONS, "stride", "horizons"]},
         **FLAG_OF}
_OPTION_DRAWS = st.sampled_from(sorted(_FUZZED)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.lists(st.tuples(st.sampled_from(_FUZZED[command][0] + _FUZZED[command][1]),
                       _OPTION_VALUES, st.booleans()), max_size=3)))


class TestOptionFuzz:
    """synth, train --max-steps 1 and eval under fuzzed option values, given
    as flags or in --config: exit 0, 2, 3 or 4, and never a traceback."""

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=_OPTION_DRAWS)
    def test_exit_code_and_no_traceback(self, tiny_checkpoint, tmp_path, monkeypatch, capsys,
                                        draw):
        command, options = draw
        src, ckpt = tiny_checkpoint
        monkeypatch.chdir(tmp_path)
        flags, lines = [], []
        for name, value, in_file in options:
            if in_file or name in _FUZZED[command][1]:
                lines.append(f"{name} = {value}")
            else:
                flags.append(f"{_FLAG[name]}={value}")
        argv = {"synth": ["synth", "--out", "clips"],
                "train": ["train", src, "--max-steps", "1", "--out", "model.mqck"],
                "eval": ["eval", src, "--checkpoint", str(ckpt)]}[command]
        # the tiny checkpoint predicts 4 frames (160 ms); a later line wins
        config = {"synth": "", "train": SMALL_MODEL, "eval": "horizons = 40,80\n"}[command]
        argv += [*flags, "--config", write_config(tmp_path, config + "\n".join(lines))]
        capsys.readouterr()
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4), (argv, lines, err)
        assert "Traceback" not in err


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
