"""Fixtures for the numpy kernels and the names callers look up."""
import numpy as np

from mqmotion import _kernels as K


def random_frames(rng, b=3, t=12, j=5):
    return rng.uniform(-500, 500, size=(b, t, j, 3))


class TestNumpyBackend:
    def test_quotient_channels_zero_velocity(self):
        frames = np.ones((1, 4, 2, 3))
        mag, cos, valid = K.quotient_channels(frames, 1.0)
        assert mag.shape == (1, 3, 2)
        assert not valid.any()
        assert np.array_equal(cos, np.zeros((1, 3, 2, 3)))

    def test_quotient_channels_identity(self):
        rng = np.random.default_rng(0)
        frames = random_frames(rng)
        mag, cos, valid = K.quotient_channels(frames, 1.0)
        assert valid.all()
        assert np.abs((cos ** 2).sum(axis=-1) - 2.0).max() < 1e-9

    def test_integrate_inverts_diff(self):
        rng = np.random.default_rng(1)
        frames = random_frames(rng, b=1)[0]
        vel = np.diff(frames, axis=0)
        back = K.integrate(frames[0], vel, 1.0)
        assert np.abs(back - frames).max() < 1e-9

    def test_mpjpe_hand_value(self):
        pred = np.array([[[0.0, 0, 0], [3.0, 4.0, 0.0]]])
        truth = np.zeros((1, 2, 3))
        assert abs(K.mpjpe_mean(pred, truth, 0) - 2.5) < 1e-12

    def test_mpjpe_keeps_leading_axes(self):
        # a stacked call gives, bit for bit, the scalar of each window
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(4, 6, 1, 17, 3)) * 100
        truth = rng.normal(size=(4, 6, 1, 17, 3)) * 100
        stacked = K.mpjpe_mean(pred, truth, 2)
        assert stacked.shape == (4, 6)
        each = [[K.mpjpe_mean(pred[i, h], truth[i, h], 2) for h in range(6)]
                for i in range(4)]
        assert np.array_equal(stacked, np.array(each))

    def test_adam_first_step_closed_form(self):
        # with m=v=0 and t=1 the update is exactly -lr * g / (|g| + eps*...)
        p = np.zeros(4)
        g = np.array([1.0, -2.0, 0.5, -0.25])
        m = np.zeros(4)
        v = np.zeros(4)
        K.adam_update(p, g, m, v, 1, 0.001, 0.9, 0.999, 1e-8)
        expect = -0.001 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p, expect, atol=1e-15)


class TestBackendSelection:
    def test_dispatch_names_exist(self):
        for name in ("quotient_channels", "integrate", "mpjpe_mean", "adam_update"):
            assert callable(getattr(K, name))
