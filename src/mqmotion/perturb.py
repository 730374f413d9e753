"""Scalar masking and Gaussian noising of feature tensors.

Both corruptions operate per scalar entry of whatever feature tensor the
network consumes. Masked entries are zeroed (the embedding later swaps in
a learned token wherever a joint-frame contains any masked scalar); noised
entries get additive N(0, sigma^2) draws. Mask and noise use independent
Philox streams derived from the same seed, so the two corruptions never
share randomness and each is reproducible in isolation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import InvalidProbability, InvalidSigma

MASK_SENTINEL = 0.0


def _check_prob(p: float, name: str) -> float:
    if not (np.isfinite(p) and 0.0 <= p <= 1.0):
        raise InvalidProbability(f"{name} must lie in [0, 1], got {p}")
    return float(p)


@dataclass(frozen=True)
class CorruptionMask:
    """Boolean flags over a feature tensor plus which corruption made them."""

    flags: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("masked", "noised"):
            raise ValueError(f"kind must be 'masked' or 'noised', got {self.kind!r}")
        fl = np.array(self.flags, dtype=np.bool_)
        fl.flags.writeable = False
        object.__setattr__(self, "flags", fl)

    @property
    def count(self) -> int:
        return int(self.flags.sum())


@dataclass(frozen=True)
class PerturbedBatch:
    """Original features with their masked and noised companions."""

    original: np.ndarray
    masked: np.ndarray
    mask: CorruptionMask
    noised: np.ndarray
    noise_mask: CorruptionMask
    seed: int


def apply_mask(features: np.ndarray, p_m: float, rng_seed: int):
    """Zero each scalar independently with probability p_m.

    Returns (masked, CorruptionMask). p_m = 0 returns the input bitwise
    unchanged (a copy) with an all-false mask.
    """
    p_m = _check_prob(p_m, "p_m")
    arr = np.asarray(features, dtype=np.float64)
    out = arr.copy()
    if p_m == 0.0:
        return out, CorruptionMask(np.zeros(arr.shape, dtype=np.bool_), "masked")
    rng = streams.stream(rng_seed, streams.MASK)
    flags = rng.random(arr.shape) < p_m
    out[flags] = MASK_SENTINEL
    return out, CorruptionMask(flags, "masked")


def apply_noise(features: np.ndarray, p_n: float, sigma: float, rng_seed: int):
    """Add N(0, sigma^2) to each scalar independently with probability p_n.

    sigma is a standard deviation. Selection uniforms are drawn first,
    then noise values, both from the noise stream, so the flagged set does
    not depend on sigma.
    """
    p_n = _check_prob(p_n, "p_n")
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise InvalidSigma(f"sigma must be positive and finite, got {sigma}")
    arr = np.asarray(features, dtype=np.float64)
    out = arr.copy()
    if p_n == 0.0:
        return out, CorruptionMask(np.zeros(arr.shape, dtype=np.bool_), "noised")
    rng = streams.stream(rng_seed, streams.NOISE)
    flags = rng.random(arr.shape) < p_n
    noise = rng.normal(0.0, sigma, size=arr.shape)
    out[flags] += noise[flags]
    return out, CorruptionMask(flags, "noised")


def build_batch(features: np.ndarray, p_m: float, p_n: float, sigma: float,
                rng_seed: int) -> PerturbedBatch:
    """Produce the (original, masked, noised) triple for one window."""
    arr = np.asarray(features, dtype=np.float64)
    masked, mask = apply_mask(arr, p_m, rng_seed)
    noised, noise_mask = apply_noise(arr, p_n, sigma, rng_seed)
    return PerturbedBatch(arr, masked, mask, noised, noise_mask, rng_seed)
