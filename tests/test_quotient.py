"""Quotient encoding: tangent fields, plane cosines, round trips."""
import warnings

import numpy as np
import pytest

from mqmotion.core import MotionSequence, Skeleton
from mqmotion.errors import DegenerateVelocity, SequenceTooShort, SkeletonMismatch
from mqmotion.quotient import (
    PLANES,
    component_magnitudes,
    encode_quotient,
    grassmann_project,
    integrate_velocities,
    orthogonal_cosine,
    tangent_velocities,
)


def seq_of(frames, fps=25.0):
    arr = np.asarray(frames, dtype=np.float64)
    return MotionSequence(arr, fps, Skeleton(arr.shape[1]))


def line_seq():
    frames = np.array([[[0.0, 0, 0]], [[1.0, 0, 0]], [[3.0, 0, 0]]])
    return seq_of(frames)


class TestTangentVelocities:
    def test_first_differences(self):
        field = tangent_velocities(line_seq())
        assert np.array_equal(field.velocities[:, 0, 0], [1.0, 2.0])

    def test_constant_sequence_zero(self):
        field = tangent_velocities(seq_of(np.ones((4, 2, 3))))
        assert np.array_equal(field.velocities, np.zeros((3, 2, 3)))

    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            tangent_velocities(seq_of(np.zeros((1, 1, 3))))


class TestGrassmannProject:
    def test_xy_zeroes_z(self):
        assert np.array_equal(grassmann_project([3.0, 4.0, 5.0], "xy"), [3.0, 4.0, 0.0])

    def test_in_plane_unchanged(self):
        assert np.array_equal(grassmann_project([0.0, 2.0, 7.0], "yz"), [0.0, 2.0, 7.0])

    def test_zx_zeroes_y(self):
        assert np.array_equal(grassmann_project([1.0, 1.0, 1.0], "zx"), [1.0, 0.0, 1.0])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(3)
        for plane in PLANES:
            v = rng.normal(size=(10, 3))
            once = grassmann_project(v, plane)
            assert np.array_equal(grassmann_project(once, plane), once)

    def test_inner_product_is_squared_norm(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(50, 3))
        for plane in PLANES:
            proj = grassmann_project(v, plane)
            lhs = (v * proj).sum(axis=-1)
            rhs = (proj * proj).sum(axis=-1)
            assert np.allclose(lhs, rhs, atol=1e-12)
            assert (lhs >= -1e-12).all()


class TestOrthogonalCosine:
    def test_axis_aligned(self):
        v = [1.0, 0.0, 0.0]
        assert orthogonal_cosine(v, "xy") == (1.0, True)
        assert orthogonal_cosine(v, "yz") == (0.0, True)
        assert orthogonal_cosine(v, "zx") == (1.0, True)

    def test_symmetric_diagonal(self):
        v = [1.0, 1.0, 1.0]
        expect = np.sqrt(2.0 / 3.0)
        for plane in PLANES:
            val, ok = orthogonal_cosine(v, plane)
            assert ok
            assert abs(val - expect) < 1e-12

    def test_three_four_five(self):
        v = [3.0, 4.0, 0.0]
        vals = [orthogonal_cosine(v, p)[0] for p in PLANES]
        assert np.allclose(vals, [1.0, 0.8, 0.6], atol=1e-12)
        assert abs(sum(x * x for x in vals) - 2.0) < 1e-12

    def test_zero_velocity_invalid(self):
        assert orthogonal_cosine([0.0, 0.0, 0.0], "xy") == (0.0, False)

    def test_in_plane_zero_is_valid(self):
        # v along z has zero xy-projection: cosine 0 but the velocity exists
        assert orthogonal_cosine([0.0, 0.0, 2.0], "xy") == (0.0, True)

    def test_pythagorean_identity_fuzz(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(2000, 3)) * 100
        sq = np.zeros(len(v))
        for plane in PLANES:
            sq += np.array([orthogonal_cosine(x, plane)[0] ** 2 for x in v])
        assert np.abs(sq - 2.0).max() < 1e-9

    def test_z_rotation_preserves_xy_cosine(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.normal(size=3)
            theta = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(theta), np.sin(theta)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            before = orthogonal_cosine(v, "xy")[0]
            after = orthogonal_cosine(rot @ v, "xy")[0]
            assert abs(before - after) < 1e-12


class TestEncodeQuotient:
    def test_constant_sequence(self):
        q = encode_quotient(seq_of(np.ones((5, 3, 3))))
        assert np.array_equal(q.magnitudes, np.zeros((4, 3)))
        assert np.array_equal(q.cosines.omega, np.zeros((4, 3, 3)))
        assert not q.cosines.valid.any()

    def test_three_four_five_joint(self):
        frames = np.array([[[0.0, 0, 0]], [[3.0, 4.0, 0.0]]])
        q = encode_quotient(seq_of(frames))
        assert abs(q.magnitudes[0, 0] - 5.0) < 1e-12
        assert np.allclose(q.cosines.omega[0, 0], [1.0, 0.8, 0.6], atol=1e-12)
        assert q.cosines.valid[0, 0]

    def test_last_pose_is_final_frame(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(size=(6, 2, 3))
        q = encode_quotient(seq_of(frames))
        assert np.array_equal(q.last_pose, frames[-1])

    def test_scaling_doubles_magnitudes_only(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(5, 2, 3))
        q1 = encode_quotient(seq_of(frames))
        q2 = encode_quotient(seq_of(2.0 * frames))
        assert np.allclose(q2.magnitudes, 2.0 * q1.magnitudes, atol=1e-9)
        assert np.allclose(q2.cosines.omega, q1.cosines.omega, atol=1e-12)

    def test_input_checks(self):
        with pytest.raises(SequenceTooShort):
            encode_quotient(seq_of(np.zeros((1, 1, 3))))

    def test_overflowing_velocity_raises(self):
        frames = np.array([[[-1e308, 0, 0]], [[1e308, 0, 0]]])
        with warnings.catch_warnings(), pytest.raises(DegenerateVelocity):
            warnings.simplefilter("error")  # the error alone reaches the user
            encode_quotient(seq_of(frames))

    def test_magnitude_zero_exactly_where_invalid(self):
        frames = np.ones((4, 2, 3))
        frames[2, 1] += 1.0  # one joint moves on one transition
        q = encode_quotient(seq_of(frames))
        assert ((q.magnitudes == 0) == ~q.cosines.valid).all()


class TestIntegrateVelocities:
    def test_cumulative_sum(self):
        field = tangent_velocities(line_seq())
        out = integrate_velocities(np.zeros((1, 3)), field)
        assert np.allclose(out.frames[:, 0, 0], [0.0, 1.0, 3.0], atol=1e-12)

    def test_zero_field_constant(self):
        field = tangent_velocities(seq_of(np.ones((4, 2, 3))))
        out = integrate_velocities(np.full((2, 3), 7.0), field)
        assert np.array_equal(out.frames, np.full((4, 2, 3), 7.0))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            frames = rng.uniform(-1e4, 1e4, size=(12, 4, 3))
            seq = seq_of(frames)
            field = tangent_velocities(seq)
            back = integrate_velocities(frames[0], field)
            assert np.abs(back.frames - frames).max() < 1e-9

    def test_shape_mismatch(self):
        field = tangent_velocities(line_seq())
        with pytest.raises(SkeletonMismatch):
            integrate_velocities(np.zeros((2, 3)), field)


class TestComponentMagnitudes:
    def test_invert_three_four_five(self):
        frames = np.array([[[0.0, 0, 0]], [[3.0, 4.0, 0.0]]])
        q = encode_quotient(seq_of(frames))
        assert np.allclose(component_magnitudes(q, 0, 0), [3.0, 4.0, 0.0], atol=1e-9)

    def test_axis_case(self):
        frames = np.array([[[0.0, 0, 0]], [[1.0, 0.0, 0.0]]])
        q = encode_quotient(seq_of(frames))
        assert np.allclose(component_magnitudes(q, 0, 0), [1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_abs_components_fuzz(self):
        rng = np.random.default_rng(10)
        vel = rng.normal(size=(500, 3)) * 10
        frames = np.zeros((2, 500, 3))
        frames[1] = vel
        q = encode_quotient(seq_of(frames))
        for j in range(500):
            got = component_magnitudes(q, 0, j)
            assert np.abs(got - np.abs(vel[j])).max() < 1e-7

    def test_invalid_flag_raises(self):
        q = encode_quotient(seq_of(np.ones((3, 1, 3))))
        with pytest.raises(DegenerateVelocity):
            component_magnitudes(q, 0, 0)
