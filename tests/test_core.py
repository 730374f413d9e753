"""Core types: skeletons, sequences, horizon arithmetic, root alignment."""
import numpy as np
import pytest

from mqmotion.core import (
    DEFAULT_HORIZONS_MS,
    HorizonSpec,
    MotionSequence,
    Skeleton,
    as_pose,
    downsample,
    horizon_to_frame,
    root_align,
)
from mqmotion.errors import HorizonMisaligned, ResampleUnsupported, SkeletonMismatch


def make_seq(frames, fps=25.0, root=0, action=None):
    arr = np.asarray(frames, dtype=np.float64)
    return MotionSequence(arr, fps, Skeleton(arr.shape[1], root), action)


class TestSkeleton:
    def test_valid(self):
        sk = Skeleton(17, root_index=3)
        assert sk.joint_count == 17

    def test_root_out_of_range(self):
        with pytest.raises(SkeletonMismatch):
            Skeleton(4, root_index=4)

    def test_zero_joints(self):
        with pytest.raises(SkeletonMismatch):
            Skeleton(0)


class TestPose:
    def test_as_pose_shape(self):
        p = as_pose([[1.0, 2.0, 3.0]], Skeleton(1))
        assert p.shape == (1, 3)

    def test_as_pose_rejects_nan(self):
        with pytest.raises(SkeletonMismatch):
            as_pose([[np.nan, 0.0, 0.0]])

    def test_as_pose_skeleton_mismatch(self):
        with pytest.raises(SkeletonMismatch):
            as_pose(np.zeros((2, 3)), Skeleton(3))


class TestMotionSequence:
    def test_frames_read_only(self):
        seq = make_seq(np.zeros((3, 2, 3)))
        with pytest.raises(ValueError):
            seq.frames[0, 0, 0] = 1.0

    def test_float64_coercion(self):
        seq = make_seq(np.zeros((2, 1, 3), dtype=np.float32))
        assert seq.frames.dtype == np.float64

    def test_joint_count_checked(self):
        with pytest.raises(SkeletonMismatch):
            MotionSequence(np.zeros((2, 2, 3)), 25.0, Skeleton(3))

    def test_rejects_nonfinite(self):
        frames = np.zeros((2, 1, 3))
        frames[1, 0, 1] = np.inf
        with pytest.raises(SkeletonMismatch):
            make_seq(frames)

    def test_rejects_bad_fps(self):
        with pytest.raises(SkeletonMismatch):
            make_seq(np.zeros((2, 1, 3)), fps=0.0)

    def test_with_frames_keeps_metadata(self):
        seq = make_seq(np.zeros((3, 2, 3)), action="walk")
        other = seq.with_frames(np.ones((5, 2, 3)))
        assert other.n_frames == 5
        assert other.action == "walk"
        assert other.fps == seq.fps


class TestHorizonToFrame:
    def test_80ms_at_25fps(self):
        assert horizon_to_frame(80, 25.0) == 2

    def test_1000ms_at_25fps(self):
        assert horizon_to_frame(1000, 25.0) == 25

    def test_one_frame_period(self):
        assert horizon_to_frame(40, 25.0) == 1

    def test_default_horizons(self):
        frames = tuple(horizon_to_frame(ms, 25.0) for ms in HorizonSpec().milliseconds)
        assert frames == (2, 4, 8, 10, 14, 25)

    def test_misaligned_names_ms_and_fps(self):
        with pytest.raises(HorizonMisaligned) as exc:
            horizon_to_frame(100, 25.0)
        assert "100" in str(exc.value) and "25" in str(exc.value)

    def test_huge_horizons(self):
        # past int64 (np.isfinite raised TypeError), past float, and a
        # float horizon whose frame overflows
        assert horizon_to_frame(10**22, 25.0) == 25 * 10**19
        for ms in (10**400, 10**308):
            with pytest.raises(HorizonMisaligned):
                horizon_to_frame(ms, 25.0)

    def test_sub_frame_horizon_rejected(self):
        with pytest.raises(HorizonMisaligned):
            horizon_to_frame(20, 25.0)

    def test_monotone_in_ms(self):
        frames = [horizon_to_frame(ms, 25.0) for ms in DEFAULT_HORIZONS_MS]
        assert frames == sorted(frames)

    def test_spec_requires_increasing(self):
        with pytest.raises(HorizonMisaligned):
            HorizonSpec((80, 80))


class TestRootAlign:
    def test_uniform_translation_cancels(self):
        pose = np.full((4, 3), 5.0)
        assert np.array_equal(root_align(pose, 0), np.zeros((4, 3)))

    def test_root_at_origin_unchanged(self):
        pose = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        assert np.array_equal(root_align(pose, 0), pose)

    def test_componentwise_subtraction(self):
        pose = np.array([[1.0, 2.0, 3.0], [4.0, 6.0, 3.0]])
        expect = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        assert np.array_equal(root_align(pose, 0), expect)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(0)
        pose = rng.normal(size=(6, 3)) * 100
        once = root_align(pose, 2)
        assert np.array_equal(root_align(once, 2), once)

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(1)
        pose = rng.normal(size=(5, 3)) * 50
        aligned = root_align(pose, 1)
        before = np.linalg.norm(pose[:, None] - pose[None, :], axis=-1)
        after = np.linalg.norm(aligned[:, None] - aligned[None, :], axis=-1)
        assert np.allclose(before, after, atol=1e-9)

    def test_stacked_frames(self):
        frames = np.arange(2 * 3 * 3, dtype=np.float64).reshape(2, 3, 3)
        out = root_align(frames, 0)
        assert np.array_equal(out[:, 0], np.zeros((2, 3)))


class TestDownsample:
    def test_stride_two(self):
        frames = np.arange(10, dtype=np.float64).reshape(10, 1, 1) * np.ones((10, 1, 3))
        seq = make_seq(frames, fps=50.0)
        out = downsample(seq, 25.0)
        assert out.fps == 25.0
        assert np.array_equal(out.frames[:, 0, 0], [0, 2, 4, 6, 8])

    def test_identity_when_same_fps(self):
        rng = np.random.default_rng(2)
        seq = make_seq(rng.normal(size=(7, 2, 3)))
        out = downsample(seq, seq.fps)
        assert np.array_equal(out.frames, seq.frames)

    def test_duplicates_collapse_to_single_frame(self):
        seq = make_seq(np.ones((4, 2, 3)))
        out = downsample(seq, 25.0)
        assert out.n_frames == 1

    def test_duplicates_removed_before_striding(self):
        # frames 0,0,1,2 at stride 2: dedup first gives 0,1,2 then stride -> 0,2
        frames = np.array([0.0, 0.0, 1.0, 2.0]).reshape(4, 1, 1) * np.ones((4, 1, 3))
        seq = make_seq(frames, fps=50.0)
        out = downsample(seq, 25.0)
        assert np.array_equal(out.frames[:, 0, 0], [0.0, 2.0])

    def test_fractional_stride_rejected(self):
        seq = make_seq(np.zeros((4, 1, 3)), fps=40.0)
        with pytest.raises(ResampleUnsupported):
            downsample(seq, 25.0)
