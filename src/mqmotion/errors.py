"""Exception and warning types shared across the package.

Every error raised on a user-facing path derives from MotionError so the
CLI can map failures onto stable exit codes (data errors vs numeric
failures).
"""
from __future__ import annotations


class MotionError(Exception):
    """Base class for all mqmotion errors."""


# data / validation errors (CLI exit code 3)

class SkeletonMismatch(MotionError):
    """Pose or sequence shape disagrees with the declared skeleton."""


class SequenceTooShort(MotionError):
    """Operation needs more frames than the sequence provides."""


class HorizonMisaligned(MotionError):
    """Millisecond horizon does not land on an integer frame at this fps."""


class ResampleUnsupported(MotionError):
    """Requested fps change is not an integer decimation of the source."""


class WindowTooShort(MotionError):
    """Prediction window is shorter than a requested horizon."""


class DegenerateVelocity(MotionError):
    """Velocity value unusable: non-finite, negative magnitude, or flagged invalid."""


class InvalidProbability(MotionError):
    """Probability parameter outside [0, 1]."""


class InvalidSigma(MotionError):
    """Noise scale must be a positive finite real."""


class DimsMismatch(MotionError):
    """Tensor shape incompatible with the declared model dimensions."""


class FormatError(MotionError):
    """Malformed file: bad magic, header, field count or value."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.message = message  # without the location, for a caller that adds its file
        self.line = line
        self.column = column


# numeric failures (CLI exit code 4)

class BackwardBeforeForward(MotionError):
    """Gradient requested for a value that carries no computation graph."""


class NumericalInstability(MotionError):
    """Non-finite value encountered in a loss or gradient computation."""


class AbortStep(MotionError):
    """Optimizer step aborted because the gradient was non-finite."""


class MaskTermSkipped(UserWarning):
    """No scalar was masked this step, so the mask loss term is zero."""
