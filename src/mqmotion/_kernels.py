"""Hot numeric kernels, in numpy.

Every kernel is deterministic run to run. Callers look each kernel up as
``_kernels.<name>`` at call time, so it can be replaced as a module
attribute (the span recorder in ``perfbench/tracing.py`` does this).

Shapes below use B = batch, T = frames, J = joints.
"""
from __future__ import annotations

import numpy as np

# no compiled backend; perfbench/run.py's environment fingerprint reads these
HAS_NUMBA = False
USE_NUMBA = False


def quotient_channels(frames: np.ndarray, dt: float):
    """Speed and plane cosines of (B, T, J, 3) frames.

    Returns magnitudes (B, T-1, J), cosines (B, T-1, J, 3) against the
    xy/yz/zx planes, and a validity mask (B, T-1, J) that is False where
    the velocity is zero (magnitude and cosines are 0 there).
    """
    vel = np.diff(frames, axis=1) / dt
    sq = vel * vel
    n = np.sqrt(sq.sum(axis=-1))
    valid = n > 0.0
    safe = np.where(valid, n, 1.0)
    cos = np.empty(vel.shape, dtype=np.float64)
    cos[..., 0] = np.sqrt(sq[..., 0] + sq[..., 1]) / safe
    cos[..., 1] = np.sqrt(sq[..., 1] + sq[..., 2]) / safe
    cos[..., 2] = np.sqrt(sq[..., 2] + sq[..., 0]) / safe
    cos[~valid] = 0.0
    mag = np.where(valid, n, 0.0)
    return mag, cos, valid


def integrate(start: np.ndarray, vel: np.ndarray, dt: float) -> np.ndarray:
    """Frames (T+1, J, 3) from a start pose (J, 3) and velocities (T, J, 3)."""
    out = np.empty((vel.shape[0] + 1,) + start.shape, dtype=np.float64)
    out[0] = start
    out[1:] = vel * dt
    np.cumsum(out, axis=0, out=out)
    return out


def mpjpe_mean(pred: np.ndarray, truth: np.ndarray, root: int):
    """Mean root-aligned joint error over the (T, J) axes of (..., T, J, 3).

    A single (T, J, 3) window gives a scalar; leading axes are kept, so a
    (B, H, 1, J, 3) stack gives one error per window and frame.
    """
    pa = pred - pred[..., root : root + 1, :]
    ta = truth - truth[..., root : root + 1, :]
    return np.sqrt(((pa - ta) ** 2).sum(axis=-1)).mean(axis=(-2, -1))


def adam_update(p, g, m, v, t, lr, b1, b2, eps) -> None:
    """One bias-corrected Adam step on flat vectors, in place on p, m, v."""
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    m[:] = b1 * m + (1.0 - b1) * g
    v[:] = b2 * v + (1.0 - b2) * g * g
    mh = m / bc1
    vh = v / bc2
    p -= lr * mh / (np.sqrt(vh) + eps)
