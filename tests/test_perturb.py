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
        out, flags = apply_mask(x, 0.0, 1)
        assert np.array_equal(out, x)
        assert not flags.any()

    def test_pm_one_all_flagged(self):
        x = features(1000)
        out, flags = apply_mask(x, 1.0, 1)
        assert flags.all()
        assert (out == MASK_SENTINEL).all()

    def test_unmasked_entries_bitwise(self):
        x = features(5000)
        out, flags = apply_mask(x, 0.3, 2)
        keep = ~flags
        assert np.array_equal(out[keep], x[keep])

    def test_flag_fraction_in_ci(self):
        n = 100_000
        p = 0.1
        _, flags = apply_mask(features(n), p, 3)
        half = Z999 * np.sqrt(p * (1 - p) / n)
        assert abs(flags.sum() / n - p) < half

    def test_same_seed_bitwise(self):
        x = features(2000)
        a, fa = apply_mask(x, 0.2, 9)
        b, fb = apply_mask(x, 0.2, 9)
        assert np.array_equal(a, b)
        assert np.array_equal(fa, fb)

    def test_adjacent_seeds_differ(self):
        x = features(1000)
        _, fa = apply_mask(x, 0.5, 10)
        _, fb = apply_mask(x, 0.5, 11)
        assert not np.array_equal(fa, fb)

    def test_bad_probability(self):
        with pytest.raises(InvalidProbability):
            apply_mask(features(10), 1.5, 0)


class TestApplyNoise:
    def test_pn_zero_identity(self):
        x = features(1000)
        out, flags = apply_noise(x, 0.0, 1.0, 1)
        assert np.array_equal(out, x)
        assert not flags.any()

    def test_noise_moments_in_ci(self):
        n = 100_000
        sigma = 10.0
        x = features(n)
        out, flags = apply_noise(x, 1.0, sigma, 6)
        assert flags.all()
        delta = out - x
        assert abs(delta.mean()) < Z999 * sigma / np.sqrt(n)
        assert 9.8 < delta.std() < 10.2

    def test_unnoised_entries_bitwise(self):
        x = features(5000)
        out, flags = apply_noise(x, 0.4, 2.0, 7)
        keep = ~flags
        assert np.array_equal(out[keep], x[keep])

    def test_selection_independent_of_sigma(self):
        x = features(2000)
        _, f1 = apply_noise(x, 0.3, 0.5, 8)
        _, f2 = apply_noise(x, 0.3, 50.0, 8)
        assert np.array_equal(f1, f2)

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


def windows(b=4, n=1000):
    return features(b * n).reshape(b, n)


class TestBuildBatch:
    def test_streams_are_independent(self):
        x = windows()
        flags, noised = build_batch(x, 0.3, 0.3, 1.0, [13, 14, 15, 16])
        assert not np.array_equal(flags, noised != x)

    def test_original_untouched(self):
        x = windows(3, 100)
        before = x.copy()
        build_batch(x, 0.9, 0.9, 5.0, [14, 15, 16])
        assert np.array_equal(x, before)

    def test_deterministic(self):
        x = windows(3, 100)
        fa, a = build_batch(x, 0.2, 0.2, 1.0, [15, 16, 17])
        fb, b = build_batch(x, 0.2, 0.2, 1.0, [15, 16, 17])
        assert np.array_equal(fa, fb)
        assert np.array_equal(a, b)

    def test_each_window_draws_as_alone(self):
        # window i's flags and noise are apply_mask's and apply_noise's for
        # that window and seeds[i]
        x, seeds = windows(), [21, 22, 23, 24]
        flags, noised = build_batch(x, 0.3, 0.4, 2.0, seeds)
        for xi, fi, ni, seed in zip(x, flags, noised, seeds):
            assert np.array_equal(fi, apply_mask(xi, 0.3, seed)[1])
            assert np.array_equal(ni, apply_noise(xi, 0.4, 2.0, seed)[0])
        assert not np.array_equal(flags[0], flags[1])

    def test_one_seed_per_window(self):
        with pytest.raises(ValueError):
            build_batch(windows(3, 10), 0.2, 0.2, 1.0, [1, 2])

    def test_bad_parameters(self):
        with pytest.raises(InvalidProbability):
            build_batch(windows(2, 10), -0.1, 0.2, 1.0, [1, 2])
        with pytest.raises(InvalidSigma):
            build_batch(windows(2, 10), 0.2, 0.2, 0.0, [1, 2])
