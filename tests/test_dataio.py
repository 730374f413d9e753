"""MQS/MQQ formats, synthetic generators, window extraction."""
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqmotion.core import MotionSequence, Skeleton
from mqmotion.dataio import (
    make_windows,
    parse_mqs,
    read_mqs_file,
    synth_generate,
    write_mqq,
    write_mqs,
    write_mqs_file,
)
from mqmotion.errors import (
    FormatError,
    MotionError,
    ResampleUnsupported,
    SequenceTooShort,
    SkeletonMismatch,
)
from mqmotion.quotient import encode_quotient, tangent_velocities


def seq_of(frames, fps=25.0, action=None):
    arr = np.asarray(frames, dtype=np.float64)
    return MotionSequence(arr, fps, Skeleton(arr.shape[1]), action)


class TestMqsFormat:
    def test_minimal_file(self):
        text = "MQS1 J=1 T=2 fps=25.0\n0.0 0.0 0.0\n1.0 2.0 3.0\n"
        seq = parse_mqs(text).sequence
        assert seq.n_frames == 2 and seq.n_joints == 1
        assert np.array_equal(seq.frames[1, 0], [1.0, 2.0, 3.0])

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(0)
        seq = seq_of(rng.normal(size=(10, 5, 3)) * 123.456, action="walk")
        back = parse_mqs(write_mqs(seq)).sequence
        assert np.array_equal(back.frames, seq.frames)
        assert back.fps == seq.fps
        assert back.action == "walk"

    def test_write_parse_write_fixed_point(self):
        rng = np.random.default_rng(1)
        seq = seq_of(rng.normal(size=(4, 2, 3)))
        text = write_mqs(seq)
        assert write_mqs(parse_mqs(text).sequence) == text

    def test_short_body_line_names_line(self):
        text = "MQS1 J=2 T=2 fps=25.0\n0.0 0.0 0.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0 0.0\n"
        with pytest.raises(FormatError) as exc:
            parse_mqs(text)
        assert "line 3" in str(exc.value)

    def test_line_numbers_count_blank_lines(self):
        text = "MQS1 J=1 T=2 fps=25\n\n0 0 0\n0 0\n"
        with pytest.raises(FormatError) as exc:
            parse_mqs(text)
        assert exc.value.line == 4 and "(line 4)" in str(exc.value)

    def test_non_finite_coordinate_names_its_line(self):
        text = "MQS1 J=2 T=3 fps=25\n0 0 0 0 0 0\n\n0 0 0 0 0 0\n0 0 0 0 inf 0\n"
        with pytest.raises(FormatError) as exc:
            parse_mqs(text)
        assert (exc.value.line, exc.value.column) == (5, 5)
        assert "non-finite" in str(exc.value)

    def test_bad_float_names_column(self):
        text = "MQS1 J=1 T=1 fps=25.0\n0.0 oops 0.0\n"
        with pytest.raises(FormatError) as exc:
            parse_mqs(text)
        assert "line 2" in str(exc.value) and "column 2" in str(exc.value)

    def test_magic_mutations_rejected(self):
        good = "MQS1 J=1 T=1 fps=25.0\n0.0 0.0 0.0\n"
        for bad in ("MQS2", "mqs1", "MQS", "XQS1", "MQS11"):
            with pytest.raises(FormatError):
                parse_mqs(good.replace("MQS1", bad, 1))

    def test_duplicate_header_field(self):
        with pytest.raises(FormatError):
            parse_mqs("MQS1 J=1 J=1 T=1 fps=25.0\n0.0 0.0 0.0\n")

    def test_missing_fps(self):
        with pytest.raises(FormatError):
            parse_mqs("MQS1 J=1 T=1\n0.0 0.0 0.0\n")

    @pytest.mark.parametrize("fps", ["nan", "inf", "1e400", "0", "-25"])
    def test_fps_must_be_positive_and_finite(self, fps):
        with pytest.raises(FormatError) as exc:
            parse_mqs(f"MQS1 J=1 T=1 fps={fps}\n0.0 0.0 0.0\n")
        assert exc.value.line == 1 and "fps must be positive and finite" in str(exc.value)

    def test_nonfinite_rejected(self):
        with pytest.raises(FormatError):
            parse_mqs("MQS1 J=1 T=1 fps=25.0\nnan 0.0 0.0\n")

    def test_wrong_line_count(self):
        with pytest.raises(FormatError):
            parse_mqs("MQS1 J=1 T=3 fps=25.0\n0.0 0.0 0.0\n1.0 1.0 1.0\n")

    def test_whitespace_action_rejected_on_write(self):
        seq = seq_of(np.zeros((2, 1, 3)), action="two words")
        with pytest.raises(FormatError):
            write_mqs(seq)

    def test_file_round_trip(self, tmp_path):
        seq = seq_of(np.arange(12, dtype=np.float64).reshape(2, 2, 3))
        p = tmp_path / "clip.mqs"
        write_mqs_file(p, seq)
        back = read_mqs_file(p)
        assert np.array_equal(back.sequence.frames, seq.frames)

    @pytest.mark.parametrize("fail", ["fsync", "replace"])
    def test_interrupted_write_keeps_the_old_file(self, tmp_path, monkeypatch, fail):
        p = tmp_path / "clip.mqs"
        write_mqs_file(p, seq_of(np.zeros((2, 2, 3))))
        old = p.read_bytes()
        new = seq_of(np.ones((3, 2, 3)))

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, fail, interrupt)
        with pytest.raises(KeyboardInterrupt):
            write_mqs_file(p, new)
        monkeypatch.undo()
        assert p.read_bytes() == old
        assert [q.name for q in tmp_path.iterdir()] == [p.name]
        write_mqs_file(p, new)
        assert np.array_equal(read_mqs_file(p).sequence.frames, new.frames)

    def test_missing_file_is_format_error(self):
        with pytest.raises(FormatError):
            read_mqs_file("/nonexistent/clip.mqs")


VALID_MQS = "MQS1 J=2 T=3 fps=25.0 action=walk\n" + "".join(
    " ".join(repr(1.5 * (6 * t + k)) for k in range(6)) + "\n" for t in range(3))

HEADER_VALUES = st.one_of(
    st.integers(-10**40, 10**40).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "x", "1e400", "-1e400", "nan", "inf", "0x10", "1_0", "2.0", "\u0661"]),
    st.text(max_size=8),
)


@st.composite
def mutated_mqs(draw):
    """VALID_MQS truncated, with one byte flipped, or with one of its header
    J/T/fps values replaced."""
    kind = draw(st.sampled_from(["truncate", "flip", "header"]))
    if kind == "truncate":
        return VALID_MQS[:draw(st.integers(0, len(VALID_MQS) - 1))]
    if kind == "flip":
        raw = bytearray(VALID_MQS.encode())
        raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
        return raw.decode("utf-8", errors="replace")
    key, value = draw(st.sampled_from(["J", "T", "fps"])), draw(HEADER_VALUES)
    return re.sub(rf"\b{key}=\S*", lambda _: f"{key}={value}", VALID_MQS, count=1)


class TestMqsMutations:
    @settings(max_examples=150, deadline=None, database=None)
    @given(text=mutated_mqs())
    @example(text=VALID_MQS.replace("J=2", f"J={10**40}"))  # no (T, J, 3) buffer that big
    def test_parses_or_raises_motion_error(self, text):
        try:
            parsed = parse_mqs(text)
        except MotionError:
            return
        assert isinstance(parsed.sequence, MotionSequence)


class TestMqqFormat:
    def test_constant_sequence_all_zero(self):
        q = encode_quotient(seq_of(np.ones((3, 2, 3))))
        text = write_mqq(q)
        lines = text.splitlines()
        assert lines[0] == "MQQ v1 J=2 T=2"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            assert line == "0.0 0.0 0.0 0.0 0"

    def test_transition_major_values(self):
        frames = np.array([[[0.0, 0, 0]], [[3.0, 4.0, 0.0]]])
        q = encode_quotient(seq_of(frames))
        lines = write_mqq(q).splitlines()
        assert lines[1] == "5.0 1.0 0.8 0.6 1"


class TestSynthGenerate:
    def test_constant_zero_tangent(self):
        seq = synth_generate("constant", 3, 5, 25.0, 0)
        field = tangent_velocities(seq)
        assert np.array_equal(field.velocities, np.zeros((4, 3, 3)))

    def test_amplitude_zero_sinusoid_constant(self):
        seq = synth_generate("sinusoid", 2, 6, 25.0, 1, amplitude=0.0)
        assert np.abs(np.diff(seq.frames, axis=0)).max() == 0.0

    def test_sinusoid_period_25_frames(self):
        seq = synth_generate("sinusoid", 4, 60, 25.0, 2)
        assert np.abs(seq.frames[30] - seq.frames[5]).max() < 1e-9

    def test_deterministic_under_seed(self):
        a = synth_generate("random_walk", 3, 10, 25.0, 7)
        b = synth_generate("random_walk", 3, 10, 25.0, 7)
        assert np.array_equal(a.frames, b.frames)

    def test_seeds_differ(self):
        a = synth_generate("random_walk", 3, 10, 25.0, 7)
        b = synth_generate("random_walk", 3, 10, 25.0, 8)
        assert not np.array_equal(a.frames, b.frames)

    def test_action_label_is_kind(self):
        assert synth_generate("constant", 1, 2, 25.0, 0).action == "constant"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_generate("spline", 1, 2, 25.0, 0)


class TestMakeWindows:
    def test_exactly_one_window(self):
        seqs = [seq_of(np.zeros((35, 2, 3)))]
        ds = make_windows(seqs, 10, 25, 1)
        assert len(ds) == 1

    def test_boundary_warns_and_skips(self):
        seqs = [seq_of(np.zeros((34, 2, 3)))]
        with pytest.warns(UserWarning):
            ds = make_windows(seqs, 10, 25, 1)
        assert len(ds) == 0

    def test_stride_window_starts(self):
        seqs = [seq_of(np.zeros((45, 2, 3)))]
        ds = make_windows(seqs, 10, 25, 5)
        assert [w.start for w in ds.windows] == [0, 5, 10]

    def test_frames_bitwise_slices(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(40, 3, 3))
        ds = make_windows([seq_of(frames, action="a")], 10, 25, 1)
        w = ds.windows[2]
        assert np.array_equal(w.observed, frames[2:12])
        assert np.array_equal(w.future, frames[12:37])
        assert w.action == "a"
        assert w.seq_index == 0

    def test_mixed_joint_counts_rejected(self):
        seqs = [seq_of(np.zeros((40, 2, 3))), seq_of(np.zeros((40, 3, 3)))]
        with pytest.raises(SkeletonMismatch):
            make_windows(seqs, 10, 25, 1)

    def test_mixed_frame_rates_rejected(self):
        seqs = [seq_of(np.zeros((40, 2, 3)), fps=25.0), seq_of(np.zeros((40, 2, 3)), fps=50.0)]
        with pytest.raises(ResampleUnsupported, match="50.0 fps.*25.0 fps.*downsample"):
            make_windows(seqs, 10, 25, 1)

    def test_empty_input_rejected(self):
        with pytest.raises(SequenceTooShort):
            make_windows([], 10, 25, 1)
