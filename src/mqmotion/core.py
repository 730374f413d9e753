"""Core motion types: skeletons, pose sequences, horizon bookkeeping.

Units are millimeters for coordinates and milliseconds for horizons.
Poses are (J, 3) float64 arrays; sequences stack them into (T, J, 3).
Sequence arrays are marked read-only on construction; treat them as values.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    HorizonMisaligned,
    ResampleUnsupported,
    SequenceTooShort,
    SkeletonMismatch,
)

DEFAULT_HORIZONS_MS = (80, 160, 320, 400, 560, 1000)


@dataclass(frozen=True)
class Skeleton:
    """Joint layout: a joint count and which joint is the root."""

    joint_count: int
    root_index: int = 0

    def __post_init__(self):
        if self.joint_count < 1:
            raise SkeletonMismatch(f"joint_count must be >= 1, got {self.joint_count}")
        if not 0 <= self.root_index < self.joint_count:
            raise SkeletonMismatch(
                f"root_index {self.root_index} out of range for {self.joint_count} joints"
            )


def as_pose(coords, skeleton: Skeleton | None = None) -> np.ndarray:
    """Validate a single pose: finite (J, 3) float64."""
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise SkeletonMismatch(f"pose must have shape (J, 3), got {arr.shape}")
    if skeleton is not None and arr.shape[0] != skeleton.joint_count:
        raise SkeletonMismatch(
            f"pose has {arr.shape[0]} joints, skeleton declares {skeleton.joint_count}"
        )
    if not np.isfinite(arr).all():
        raise SkeletonMismatch("pose contains non-finite coordinates")
    return arr


@dataclass(frozen=True)
class MotionSequence:
    """A motion clip: (T, J, 3) frames in mm at a fixed frame rate."""

    frames: np.ndarray
    fps: float
    skeleton: Skeleton
    action: str | None = None

    def __post_init__(self):
        arr = np.array(self.frames, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise SkeletonMismatch(f"frames must have shape (T, J, 3), got {arr.shape}")
        if arr.shape[0] < 1:
            raise SequenceTooShort("sequence needs at least one frame")
        if arr.shape[1] != self.skeleton.joint_count:
            raise SkeletonMismatch(
                f"frames have {arr.shape[1]} joints, skeleton declares "
                f"{self.skeleton.joint_count}"
            )
        if not np.isfinite(arr).all():
            raise SkeletonMismatch("frames contain non-finite coordinates")
        if not (np.isfinite(self.fps) and self.fps > 0):
            raise SkeletonMismatch(f"fps must be positive and finite, got {self.fps}")
        arr.flags.writeable = False
        object.__setattr__(self, "frames", arr)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_joints(self) -> int:
        return self.frames.shape[1]

    def with_frames(self, frames, fps: float | None = None) -> "MotionSequence":
        return replace(self, frames=frames, fps=self.fps if fps is None else fps)


@dataclass(frozen=True)
class HorizonSpec:
    """Evaluation horizons in milliseconds, strictly increasing."""

    milliseconds: tuple[int, ...] = DEFAULT_HORIZONS_MS

    def __post_init__(self):
        ms = tuple(int(m) for m in self.milliseconds)
        if not ms:
            raise HorizonMisaligned("at least one horizon is required")
        if any(m <= 0 for m in ms):
            raise HorizonMisaligned(f"horizons must be positive, got {ms}")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise HorizonMisaligned(f"horizons must be strictly increasing, got {ms}")
        object.__setattr__(self, "milliseconds", ms)


def horizon_to_frame(ms: float, fps: float) -> int:
    """Map a millisecond horizon to a 1-based future frame index.

    The horizon must land on an integer frame boundary (within 1e-9),
    otherwise HorizonMisaligned is raised: silently rounding 330 ms to a
    frame would misreport which instant an error was measured at.
    """
    try:  # an int past float's range would raise in np.isfinite or the product
        ms_f = float(ms)
    except OverflowError:
        ms_f = np.inf
    if not (np.isfinite(ms_f) and ms_f > 0):
        raise HorizonMisaligned(f"horizon must be positive and finite, got {ms}")
    if not (np.isfinite(fps) and fps > 0):
        raise HorizonMisaligned(f"fps must be positive and finite, got {fps}")
    exact = ms_f * fps / 1000.0
    if not np.isfinite(exact):
        raise HorizonMisaligned(f"horizon {ms} ms at {fps} fps is past every frame")
    frame = round(exact)
    if abs(exact - frame) > 1e-9 or frame < 1:
        raise HorizonMisaligned(
            f"horizon {ms} ms is not an integer frame at {fps} fps (got {exact})"
        )
    return int(frame)


def root_align(coords: np.ndarray, root_index: int) -> np.ndarray:
    """Translate so the root joint sits at the origin, per frame.

    Accepts (J, 3) or any (..., J, 3) stack; alignment is idempotent and
    preserves inter-joint distances.
    """
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-1] != 3:
        raise SkeletonMismatch(f"expected (..., J, 3), got {arr.shape}")
    if not 0 <= root_index < arr.shape[-2]:
        raise SkeletonMismatch(f"root_index {root_index} out of range")
    return arr - arr[..., root_index : root_index + 1, :]


def downsample(seq: MotionSequence, target_fps: float) -> MotionSequence:
    """Decimate to target_fps after dropping bitwise-duplicate neighbors.

    The source fps must be an integer multiple of the target (within 1e-9);
    fractional resampling would require interpolation and is refused.
    """
    if not (np.isfinite(target_fps) and target_fps > 0):
        raise ResampleUnsupported(f"target fps must be positive, got {target_fps}")
    stride_f = seq.fps / target_fps
    stride = round(stride_f)
    if stride < 1 or abs(stride_f - stride) > 1e-9:
        raise ResampleUnsupported(
            f"{seq.fps} fps -> {target_fps} fps is not an integer decimation"
        )
    frames = seq.frames
    if frames.shape[0] > 1:
        dup = np.all(frames[1:] == frames[:-1], axis=(1, 2))
        keep = np.concatenate(([True], ~dup))
        frames = frames[keep]
    return seq.with_frames(frames[::stride], fps=target_fps)
