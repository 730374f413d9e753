"""Scalar masking and Gaussian noising of feature tensors.

Both corruptions operate per scalar entry of whatever feature tensor they
are given, and return the corrupted copy with its boolean flags. Masked
entries are zeroed; noised entries get additive N(0, sigma^2) draws. Mask
and noise use independent Philox streams derived from the same seed, so the
two corruptions never share randomness and each is reproducible in
isolation.

Training makes no masked copy: its masked pass reads the clean features,
and the embedding's learned mask token replaces every joint-frame holding
a flagged scalar. So build_batch returns a batch's mask flags and its
noised features.
"""
from __future__ import annotations

import numpy as np

from . import streams
from .errors import InvalidProbability, InvalidSigma

MASK_SENTINEL = 0.0


def _check_prob(p: float, name: str) -> float:
    if not (np.isfinite(p) and 0.0 <= p <= 1.0):
        raise InvalidProbability(f"{name} must lie in [0, 1], got {p}")
    return float(p)


def _mask_flags(shape: tuple, p_m: float, rng_seed: int) -> np.ndarray:
    """Flags drawn from rng_seed's mask stream; p_m = 0 draws nothing."""
    if p_m == 0.0:
        return np.zeros(shape, dtype=np.bool_)
    return streams.stream(rng_seed, streams.MASK).random(shape) < p_m


def apply_mask(features: np.ndarray, p_m: float, rng_seed: int):
    """Zero each scalar independently with probability p_m.

    Returns (masked, flags). p_m = 0 returns the input bitwise unchanged
    (a copy) with all-false flags.
    """
    p_m = _check_prob(p_m, "p_m")
    out = np.array(features, dtype=np.float64)
    flags = _mask_flags(out.shape, p_m, rng_seed)
    out[flags] = MASK_SENTINEL
    return out, flags


def apply_noise(features: np.ndarray, p_n: float, sigma: float, rng_seed: int):
    """Add N(0, sigma^2) to each scalar independently with probability p_n.

    Returns (noised, flags). sigma is a standard deviation. Selection
    uniforms are drawn first, then noise values, both from the noise stream,
    so the flagged set does not depend on sigma.
    """
    p_n = _check_prob(p_n, "p_n")
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise InvalidSigma(f"sigma must be positive and finite, got {sigma}")
    out = np.array(features, dtype=np.float64)
    if p_n == 0.0:
        return out, np.zeros(out.shape, dtype=np.bool_)
    rng = streams.stream(rng_seed, streams.NOISE)
    flags = rng.random(out.shape) < p_n
    noise = rng.normal(0.0, sigma, size=out.shape)
    out[flags] += noise[flags]
    return out, flags


def build_batch(features: np.ndarray, p_m: float, p_n: float, sigma: float,
                seeds) -> tuple[np.ndarray, np.ndarray]:
    """(mask_flags, noised) for a batch of windows features[i], one seed each.

    Window i draws its flags and its noise from seeds[i]'s streams, as
    apply_mask and apply_noise do for that window alone.
    """
    p_m = _check_prob(p_m, "p_m")
    noised = np.array(features, dtype=np.float64)
    if len(seeds) != len(noised):
        raise ValueError(f"{len(seeds)} seeds for {len(noised)} windows")
    flags = np.empty(noised.shape, dtype=np.bool_)
    for i, seed in enumerate(seeds):
        flags[i] = _mask_flags(noised.shape[1:], p_m, seed)
        noised[i], _ = apply_noise(noised[i], p_n, sigma, seed)
    return flags, noised
