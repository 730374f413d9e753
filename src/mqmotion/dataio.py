"""File formats, synthetic data, and window extraction.

MQS (motion sequence, text):
    line 1:  ``MQS1 J=<joints> T=<frames> fps=<fps>[ action=<label>]``
    lines 2..T+1: 3*J floats per line (x y z per joint, joint-major),
    space separated, shortest round-trip decimal repr.

MQQ (quotient encoding, text):
    line 1:  ``MQQ v1 J=<joints> T=<transitions>``
    then one line per (transition, joint), transition-major:
    ``|v| omega_xy omega_yz omega_zx valid``  with valid in {0, 1}.

Floats are written with repr(float), which round-trips bitwise.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import streams
from .core import MotionSequence, Skeleton
from .errors import FormatError, ResampleUnsupported, SequenceTooShort, SkeletonMismatch
from .quotient import QuotientRepresentation

SYNTH_KINDS = ("sinusoid", "random_walk", "constant")


@dataclass(frozen=True)
class MqsFile:
    """Parsed MQS file: the sequence its header and body describe."""

    sequence: MotionSequence


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_header_fields(parts: list[str], line: int) -> dict[str, str]:
    fields = {}
    for col, part in enumerate(parts):
        if "=" not in part:
            raise FormatError(f"malformed header field {part!r}", line=line, column=col + 1)
        key, val = part.split("=", 1)
        if key in fields:
            raise FormatError(f"duplicate header field {key!r}", line=line)
        fields[key] = val
    return fields


def parse_mqs(text: str) -> MqsFile:
    """Parse MQS text into a MotionSequence; errors carry line positions."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty file", line=1)
    head = lines[0].split()
    if not head or head[0] != "MQS1":
        raise FormatError(f"bad magic, expected 'MQS1', got {lines[0][:16]!r}", line=1)
    fields = _parse_header_fields(head[1:], line=1)
    for req in ("J", "T", "fps"):
        if req not in fields:
            raise FormatError(f"missing header field {req!r}", line=1)
    try:
        joints = int(fields["J"])
        frames_n = int(fields["T"])
        fps = float(fields["fps"])
    except ValueError as exc:
        raise FormatError(f"bad header value: {exc}", line=1) from None
    if joints < 1 or frames_n < 1:
        raise FormatError(f"J and T must be positive, got J={joints} T={frames_n}", line=1)
    if not (np.isfinite(fps) and fps > 0):
        raise FormatError(f"fps must be positive and finite, got {fields['fps']}", line=1)
    action = fields.get("action")

    # (the file's line number, text) of each non-blank body line
    body = [(no, ln) for no, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != frames_n:
        raise FormatError(
            f"header declares T={frames_n} frames but body has {len(body)} data lines",
            line=len(lines),
        )
    if 3 * joints * frames_n > len(text):  # a value takes a character at least
        raise FormatError(f"J={joints} T={frames_n} declares more values than the "
                          f"text's {len(text)} characters", line=1)
    data = np.empty((frames_n, joints, 3), dtype=np.float64)
    for i, (no, ln) in enumerate(body):
        parts = ln.split()
        if len(parts) != 3 * joints:
            raise FormatError(f"expected {3 * joints} values, got {len(parts)}", line=no)
        for k, tok in enumerate(parts):
            try:
                data[i, k // 3, k % 3] = float(tok)
            except ValueError:
                raise FormatError(f"bad float {tok!r}", line=no, column=k + 1) from None
    finite = np.isfinite(data.reshape(frames_n, -1))
    if not finite.all():
        i, k = np.argwhere(~finite)[0]
        raise FormatError("non-finite coordinate in body", line=body[i][0], column=int(k) + 1)
    seq = MotionSequence(data, fps, Skeleton(joints), action=action)
    return MqsFile(seq)


def write_mqs(seq: MotionSequence) -> str:
    """Render a sequence as MQS text (inverse of parse_mqs, bitwise)."""
    head = f"MQS1 J={seq.n_joints} T={seq.n_frames} fps={_fmt(seq.fps)}"
    if seq.action is not None:
        if any(ch.isspace() for ch in seq.action):
            raise FormatError(f"action label may not contain whitespace: {seq.action!r}")
        head += f" action={seq.action}"
    rows = [head]
    for frame in seq.frames:
        rows.append(" ".join(_fmt(x) for x in frame.ravel()))
    return "\n".join(rows) + "\n"


def read_mqs_file(path: str | Path) -> MqsFile:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    return parse_mqs(text)


def write_atomically(path: str | Path, data: bytes | str) -> None:
    """Write through a synced temp file in the same directory, then rename
    it over path, so a crash at any point leaves the old file or the new;
    syncing the directory afterwards makes the rename itself durable. Text
    is written as UTF-8."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_mqs_file(path: str | Path, seq: MotionSequence) -> None:
    write_atomically(path, write_mqs(seq))


def write_mqq(q: QuotientRepresentation) -> str:
    """Render a quotient encoding as MQQ text, transition-major."""
    t_n, j_n = q.magnitudes.shape
    rows = [f"MQQ v1 J={j_n} T={t_n}"]
    for t in range(t_n):
        for j in range(j_n):
            om = q.cosines.omega[t, j]
            rows.append(
                f"{_fmt(q.magnitudes[t, j])} {_fmt(om[0])} {_fmt(om[1])} {_fmt(om[2])} "
                f"{1 if q.cosines.valid[t, j] else 0}"
            )
    return "\n".join(rows) + "\n"


def synth_generate(
    kind: str,
    joints: int,
    frames: int,
    fps: float,
    seed: int,
    amplitude: float = 10.0,
    offset_scale: float = 100.0,
    base_period_s: float = 1.0,
) -> MotionSequence:
    """Deterministic synthetic sequences in mm.

    sinusoid:    per-joint integer harmonic of 1/base_period_s Hz with
                 per-axis phases and direction weights around a fixed
                 offset; exactly periodic every base_period_s * fps frames.
    random_walk: cumulative Gaussian steps (std = amplitude) from an offset.
    constant:    a static pose held for all frames.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {SYNTH_KINDS}")
    if joints < 1 or frames < 1:
        raise SequenceTooShort(f"need joints >= 1 and frames >= 1, got {joints}, {frames}")
    rng = streams.stream(seed, streams.SYNTH)
    offsets = rng.normal(0.0, offset_scale, size=(joints, 3))
    if kind == "constant":
        data = np.broadcast_to(offsets, (frames, joints, 3)).copy()
    elif kind == "random_walk":
        steps = rng.normal(0.0, amplitude, size=(frames - 1, joints, 3))
        data = np.concatenate([np.zeros((1, joints, 3)), np.cumsum(steps, axis=0)])
        data += offsets
    else:
        harmonics = 1 + np.arange(joints)  # distinct integer frequencies per joint
        phases = rng.uniform(0.0, 2 * np.pi, size=(joints, 3))
        weights = rng.uniform(0.3, 1.0, size=(joints, 3))
        t = np.arange(frames, dtype=np.float64)[:, None, None]
        angle = 2 * np.pi * harmonics[None, :, None] * t / (fps * base_period_s)
        data = offsets + amplitude * weights * np.sin(angle + phases)
    return MotionSequence(data, fps, Skeleton(joints), action=kind)


@dataclass(frozen=True)
class WindowSample:
    """One training item: observed frames, future frames, provenance."""

    observed: np.ndarray
    future: np.ndarray
    action: str | None
    seq_index: int
    start: int


@dataclass(frozen=True)
class WindowedDataset:
    """Windows cut from a set of same-skeleton, same-fps sequences."""

    windows: tuple[WindowSample, ...]
    skeleton: Skeleton
    fps: float
    n_observed: int
    n_future: int

    def __len__(self) -> int:
        return len(self.windows)


def make_windows(
    sequences: list[MotionSequence],
    n_observed: int = 10,
    n_future: int = 25,
    stride: int = 1,
) -> WindowedDataset:
    """Slice sequences into (observed, future) windows.

    A sequence of length T yields floor((T - n_observed - n_future) / stride) + 1
    windows when that is positive; shorter sequences contribute none and
    trigger a warning rather than an error so mixed corpora still load.
    Every sequence must share the first one's joint count and frame rate.
    """
    if not sequences:
        raise SequenceTooShort("no sequences given")
    if n_observed < 2 or n_future < 1 or stride < 1:
        raise ValueError(
            f"need n_observed >= 2, n_future >= 1, stride >= 1; "
            f"got {n_observed}, {n_future}, {stride}"
        )
    skeleton = sequences[0].skeleton
    fps = sequences[0].fps
    span = n_observed + n_future
    windows: list[WindowSample] = []
    for si, seq in enumerate(sequences):
        if seq.skeleton.joint_count != skeleton.joint_count:
            raise SkeletonMismatch(
                f"sequence {si} has {seq.skeleton.joint_count} joints, expected "
                f"{skeleton.joint_count}"
            )
        if seq.fps != fps:
            raise ResampleUnsupported(
                f"sequence {si} is at {seq.fps} fps, sequence 0 at {fps} fps; "
                f"bring them to one rate with core.downsample"
            )
        if seq.n_frames < span:
            warnings.warn(
                f"sequence {si} has {seq.n_frames} frames < window span {span}; skipped",
                stacklevel=2,
            )
            continue
        count = (seq.n_frames - span) // stride + 1
        for w in range(count):
            s = w * stride
            windows.append(
                WindowSample(
                    observed=seq.frames[s : s + n_observed],
                    future=seq.frames[s + n_observed : s + span],
                    action=seq.action,
                    seq_index=si,
                    start=s,
                )
            )
    return WindowedDataset(tuple(windows), skeleton, fps, n_observed, n_future)
