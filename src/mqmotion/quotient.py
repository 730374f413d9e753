"""Quotient encoding of motion: tangent velocities and plane cosines.

A pose trajectory is differenced into per-joint tangent velocities, and
each velocity vector is summarized by its magnitude plus its cosine
against the projections onto the three coordinate planes (xy, yz, zx).
The three squared cosines of a nonzero velocity always sum to 2, so the
triple lives on a 2-sphere cap and, together with the magnitude, recovers
the unsigned components of the velocity.

Conventions: plane order is (xy, yz, zx); a zero velocity encodes as
magnitude 0 with all cosines 0 and valid=False; an in-plane-degenerate
projection (nonzero velocity orthogonal to the plane) gives cosine 0 with
valid=True.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import MotionSequence, Skeleton, as_pose
from .errors import DegenerateVelocity, SequenceTooShort, SkeletonMismatch

PLANES = ("xy", "yz", "zx")

# axis retained-pair per plane: projection zeroes the remaining axis
_PLANE_AXES = {"xy": (0, 1), "yz": (1, 2), "zx": (2, 0)}


@dataclass(frozen=True)
class TangentField:
    """Per-joint velocities between consecutive frames: (T-1, J, 3) in mm per frame."""

    velocities: np.ndarray
    skeleton: Skeleton
    fps: float

    def __post_init__(self):
        arr = np.array(self.velocities, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise SkeletonMismatch(f"velocities must be (T-1, J, 3), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise DegenerateVelocity("velocities contain non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "velocities", arr)


@dataclass(frozen=True)
class GrassmannCosines:
    """Plane cosines per transition and joint: (T-1, J, 3) in [0, 1]."""

    omega: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        om = np.array(self.omega, dtype=np.float64)
        va = np.array(self.valid, dtype=np.bool_)
        if om.shape[-1] != 3 or om.shape[:-1] != va.shape:
            raise SkeletonMismatch(
                f"omega {om.shape} and valid {va.shape} shapes are inconsistent"
            )
        if ((om < 0) | (om > 1 + 1e-12)).any():
            raise DegenerateVelocity("cosines must lie in [0, 1]")
        om.flags.writeable = False
        va.flags.writeable = False
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "valid", va)


@dataclass(frozen=True)
class QuotientRepresentation:
    """Quotient encoding of a window: last pose, speed magnitudes, cosines."""

    last_pose: np.ndarray
    magnitudes: np.ndarray
    cosines: GrassmannCosines
    skeleton: Skeleton
    fps: float

    def __post_init__(self):
        lp = as_pose(self.last_pose, self.skeleton)
        mag = np.array(self.magnitudes, dtype=np.float64)
        if mag.shape != self.cosines.omega.shape[:-1]:
            raise SkeletonMismatch("magnitudes and cosines disagree on (T-1, J)")
        if (mag < 0).any():
            raise DegenerateVelocity("magnitudes must be non-negative")
        lp = lp.copy()
        lp.flags.writeable = False
        mag.flags.writeable = False
        object.__setattr__(self, "last_pose", lp)
        object.__setattr__(self, "magnitudes", mag)


def _check_differencing(seq: MotionSequence) -> None:
    if seq.n_frames < 2:
        raise SequenceTooShort(
            f"need at least 2 frames for velocities, got {seq.n_frames}"
        )


def tangent_velocities(seq: MotionSequence) -> TangentField:
    """Forward differences p[t+1] - p[t] over a sequence."""
    _check_differencing(seq)
    return TangentField(np.diff(seq.frames, axis=0), seq.skeleton, seq.fps)


def grassmann_project(v, plane: str) -> np.ndarray:
    """Orthogonal projection of 3-vectors onto a coordinate plane.

    Accepts a single vector or any (..., 3) stack. Idempotent; keeps the
    two in-plane components and zeroes the third.
    """
    if plane not in _PLANE_AXES:
        raise ValueError(f"unknown plane {plane!r}, expected one of {PLANES}")
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape[-1] != 3:
        raise SkeletonMismatch(f"expected (..., 3), got {arr.shape}")
    out = np.zeros_like(arr)
    for ax in _PLANE_AXES[plane]:
        out[..., ax] = arr[..., ax]
    return out


def orthogonal_cosine(v, plane: str) -> tuple[float, bool]:
    """Cosine between a velocity and its plane projection, with validity.

    Equals |proj| / |v|, which is the normalized inner product of v with
    its projection. Returns (0.0, False) for a zero velocity and
    (0.0, True) when only the projection degenerates.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (3,):
        raise SkeletonMismatch(f"expected a single 3-vector, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DegenerateVelocity("velocity contains non-finite values")
    n = float(np.sqrt(arr @ arr))
    if n == 0.0:
        return 0.0, False
    proj = grassmann_project(arr, plane)
    return float(np.sqrt(proj @ proj)) / n, True


def encode_quotient(seq: MotionSequence) -> QuotientRepresentation:
    """Encode a window into (last pose, |v|, plane cosines)."""
    _check_differencing(seq)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        mag, cos, valid = _kernels.quotient_channels(seq.frames[np.newaxis])
    if not np.isfinite(mag).all():
        raise DegenerateVelocity("velocities are too large to encode")
    return QuotientRepresentation(
        last_pose=seq.frames[-1],
        magnitudes=mag[0],
        cosines=GrassmannCosines(cos[0], valid[0]),
        skeleton=seq.skeleton,
        fps=seq.fps,
    )


def integrate_velocities(start, field: TangentField) -> MotionSequence:
    """Left inverse of tangent_velocities: cumulative sum from a start pose."""
    pose = as_pose(start, field.skeleton)
    frames = np.cumsum(np.concatenate([pose[None], field.velocities]), axis=0)
    return MotionSequence(frames, field.fps, field.skeleton)


def component_magnitudes(q: QuotientRepresentation, t: int, j: int) -> np.ndarray:
    """Unsigned velocity components |v_x|, |v_y|, |v_z| from the encoding.

    Each pair of plane cosines overshoots 1 by exactly the squared share
    of one axis, so the component follows from two cosines and the
    magnitude. Negative arguments from roundoff are clipped to zero.
    """
    mag = float(q.magnitudes[t, j])
    if not q.cosines.valid[t, j]:
        raise DegenerateVelocity(
            f"no velocity direction at transition {t}, joint {j} (zero velocity)"
        )
    oxy, oyz, ozx = (float(x) for x in q.cosines.omega[t, j])
    sx = max(oxy * oxy + ozx * ozx - 1.0, 0.0)
    sy = max(oxy * oxy + oyz * oyz - 1.0, 0.0)
    sz = max(oyz * oyz + ozx * ozx - 1.0, 0.0)
    return mag * np.sqrt([sx, sy, sz])
