"""Mask/noise corruption: exactness, determinism, statistics."""
import numpy as np
import pytest
from scipy.stats import norm

from mqmotion.errors import InvalidProbability, InvalidSigma
from mqmotion.perturb import MASK_SENTINEL, apply_mask, apply_noise, build_batch

Z999 = norm.ppf(0.9995)  # two-sided 99.9% confidence


def features(n=100_000, seed=0):
    return np.random.default_rng(seed).normal(size=(n,)) * 50 + 7


class TestApplyMask:
    def test_pm_zero_identity(self):
        x = features(1000)
        out, mask = apply_mask(x, 0.0, 1)
        assert np.array_equal(out, x)
        assert not mask.flags.any()

    def test_pm_one_all_flagged(self):
        x = features(1000)
        out, mask = apply_mask(x, 1.0, 1)
        assert mask.flags.all()
        assert (out == MASK_SENTINEL).all()

    def test_unmasked_entries_bitwise(self):
        x = features(5000)
        out, mask = apply_mask(x, 0.3, 2)
        keep = ~mask.flags
        assert np.array_equal(out[keep], x[keep])

    def test_flag_fraction_in_ci(self):
        n = 100_000
        p = 0.1
        _, mask = apply_mask(features(n), p, 3)
        half = Z999 * np.sqrt(p * (1 - p) / n)
        assert abs(mask.count / n - p) < half

    def test_same_seed_bitwise(self):
        x = features(2000)
        a, ma = apply_mask(x, 0.2, 9)
        b, mb = apply_mask(x, 0.2, 9)
        assert np.array_equal(a, b)
        assert np.array_equal(ma.flags, mb.flags)

    def test_adjacent_seeds_differ(self):
        x = features(1000)
        _, ma = apply_mask(x, 0.5, 10)
        _, mb = apply_mask(x, 0.5, 11)
        assert not np.array_equal(ma.flags, mb.flags)

    def test_bad_probability(self):
        with pytest.raises(InvalidProbability):
            apply_mask(features(10), 1.5, 0)


class TestApplyNoise:
    def test_pn_zero_identity(self):
        x = features(1000)
        out, mask = apply_noise(x, 0.0, 1.0, 1)
        assert np.array_equal(out, x)
        assert not mask.flags.any()

    def test_noise_moments_in_ci(self):
        n = 100_000
        sigma = 10.0
        x = features(n)
        out, mask = apply_noise(x, 1.0, sigma, 6)
        assert mask.flags.all()
        delta = out - x
        assert abs(delta.mean()) < Z999 * sigma / np.sqrt(n)
        assert 9.8 < delta.std() < 10.2

    def test_unnoised_entries_bitwise(self):
        x = features(5000)
        out, mask = apply_noise(x, 0.4, 2.0, 7)
        keep = ~mask.flags
        assert np.array_equal(out[keep], x[keep])

    def test_selection_independent_of_sigma(self):
        x = features(2000)
        _, m1 = apply_noise(x, 0.3, 0.5, 8)
        _, m2 = apply_noise(x, 0.3, 50.0, 8)
        assert np.array_equal(m1.flags, m2.flags)

    def test_same_seed_bitwise(self):
        x = features(2000)
        a, _ = apply_noise(x, 0.3, 2.5, 12)
        b, _ = apply_noise(x, 0.3, 2.5, 12)
        assert np.array_equal(a, b)

    def test_bad_sigma(self):
        for sigma in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidSigma):
                apply_noise(features(10), 0.5, sigma, 0)

    def test_bad_probability(self):
        with pytest.raises(InvalidProbability):
            apply_noise(features(10), -0.1, 1.0, 0)


class TestBuildBatch:
    def test_streams_are_independent(self):
        x = features(4000)
        batch = build_batch(x, 0.3, 0.3, 1.0, 13)
        assert not np.array_equal(batch.mask.flags, batch.noise_mask.flags)

    def test_original_untouched(self):
        x = features(300)
        batch = build_batch(x, 0.9, 0.9, 5.0, 14)
        assert np.array_equal(batch.original, x)

    def test_deterministic(self):
        x = features(300)
        a = build_batch(x, 0.2, 0.2, 1.0, 15)
        b = build_batch(x, 0.2, 0.2, 1.0, 15)
        assert np.array_equal(a.masked, b.masked)
        assert np.array_equal(a.noised, b.noised)
