"""Backbone, output heads, and critics: exactness fixtures, attention
normalization properties, and gradient checks against finite differences."""
import numpy as np
import pytest

import mqmotion.autodiff as ad
import mqmotion.network as net
from mqmotion.autodiff import Tensor
from mqmotion.core import root_align
from mqmotion.errors import BackwardBeforeForward, DimsMismatch


def small_dims(**over):
    base = dict(joints=3, window=4, future=2, in_channels=7, d_model=8,
                rank=2, heads=2, layers=1, critic_width=8, ffn_mult=2)
    base.update(over)
    return net.ModelDims(**base)


def rand_act(dims, b=2, seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, dims.window, dims.joints, dims.d_model))


def rand_features(dims, b=2, seed=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, dims.window, dims.joints, dims.in_channels))


class TestModelDims:
    def test_head_dim(self):
        assert small_dims().head_dim == 4

    def test_heads_must_divide_d_model(self):
        with pytest.raises(DimsMismatch):
            small_dims(heads=3)

    def test_rank_bounded_by_head_width(self):
        with pytest.raises(DimsMismatch):
            small_dims(rank=5)

    def test_zero_layers_allowed(self):
        assert small_dims(layers=0).layers == 0

    def test_negative_layers_rejected(self):
        with pytest.raises(DimsMismatch):
            small_dims(layers=-1)

    def test_zero_joints_rejected(self):
        with pytest.raises(DimsMismatch):
            small_dims(joints=0)

    def test_bad_head_gain_rejected(self):
        with pytest.raises(DimsMismatch):
            small_dims(head_gain=0.0)


class TestModelParams:
    def test_flat_set_flat_round_trip(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(params.n_params)
        params.set_flat(vec)
        assert np.array_equal(params.flat(), vec)

    def test_slice_of_addresses_flat(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        flat = params.flat()
        for name in ("embed.w", "layer0.spatial.gate", "heads.pred_b"):
            lo, hi = params.slice_of(name)
            assert np.array_equal(flat[lo:hi], params.t(name).data.ravel())

    def test_set_flat_rejects_wrong_size(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        with pytest.raises(DimsMismatch):
            params.set_flat(np.zeros(params.n_params + 1))

    def test_name_groups_partition(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        gen, cri = set(params.generator_names), set(params.critic_names)
        assert gen | cri == set(params.names)
        assert not gen & cri
        assert all(n.startswith("critic.") for n in cri)

    def test_init_deterministic_in_seed(self):
        a = net.ModelParams.init(small_dims(), seed=5).flat()
        b = net.ModelParams.init(small_dims(), seed=5).flat()
        c = net.ModelParams.init(small_dims(), seed=6).flat()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_copy_is_independent(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        dup = params.copy()
        dup.t("embed.w").data[...] = 0.0
        assert not np.array_equal(params.t("embed.w").data,
                                  dup.t("embed.w").data)

    def test_tensors_are_views_of_one_vector(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        assert np.array_equal(params.vec, params.flat())
        assert np.array_equal(params.generator, params.flat(params.generator_names))
        assert np.array_equal(params.critic, params.flat(params.critic_names))
        for name in params.names:
            assert np.shares_memory(params.t(name).data, params.vec), name
        assert not np.shares_memory(params.vec, params.copy().vec)

    def test_fullrank_allocates_no_gate_or_rank_params(self):
        params = net.ModelParams.init(small_dims(lowrank=False), seed=0)
        assert not any(".gate" in n or ".pq" in n or ".pk" in n
                       for n in params.names)


class TestFeatures:
    def test_token_count(self):
        assert net.token_count(10, True) == 9
        assert net.token_count(10, False) == 10

    def test_quotient_channels(self):
        rng = np.random.default_rng(7)
        obs = rng.standard_normal((2, 5, 3, 3)) * 50.0
        feats, targets = net.build_features(obs, 0, True, 0.01)
        assert feats.shape == (2, 4, 3, 7)
        v = obs[:, 1:] - obs[:, :-1]
        mag = np.linalg.norm(v, axis=-1)
        assert np.allclose(feats[..., 0], mag * 0.01, rtol=1e-12)
        for ch, axes in ((1, (0, 1)), (2, (1, 2)), (3, (2, 0))):
            plane = np.linalg.norm(v[..., list(axes)], axis=-1)
            assert np.allclose(feats[..., ch], plane / mag, rtol=1e-12)
        last = np.broadcast_to(obs[:, -1][:, None], (2, 4, 3, 3))
        assert np.array_equal(feats[..., 4:7], last * 0.01)
        assert np.array_equal(targets, obs[:, 1:])

    def test_raw_channels_root_aligned(self):
        rng = np.random.default_rng(8)
        obs = rng.standard_normal((2, 5, 3, 3)) * 50.0
        feats, targets = net.build_features(obs, 1, False, 0.5)
        assert feats.shape == (2, 5, 3, 3)
        assert np.array_equal(feats, root_align(obs, 1) * 0.5)
        assert np.array_equal(targets, obs)
        targets[0, 0, 0, 0] = 1e9
        assert obs[0, 0, 0, 0] != 1e9

    def test_bad_shape_rejected(self):
        with pytest.raises(DimsMismatch):
            net.build_features(np.zeros((5, 3, 3)), 0, True, 0.01)


class TestEmbed:
    def test_zero_weights_zero_embedding(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        params.t("embed.w").data[...] = 0.0
        out = net.embed(rand_features(params.dims), None, params)
        assert out.shape == (2, 4, 3, 8)
        assert np.all(out.data == 0.0)

    def test_all_masked_equals_mask_token(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        token = np.arange(8, dtype=np.float64) - 3.5
        params.t("mask_token").data[...] = token
        mask = np.ones((2, 4, 3), dtype=bool)
        out = net.embed(rand_features(params.dims), mask, params)
        assert np.array_equal(out.data, np.broadcast_to(token, (2, 4, 3, 8)))

    def test_unmasked_positions_unchanged(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        params.t("mask_token").data[...] = 2.0
        feats = rand_features(params.dims)
        mask = np.zeros((2, 4, 3), dtype=bool)
        mask[0, 1, 2] = True
        plain = net.embed(feats, None, params)
        mixed = net.embed(feats, mask, params)
        assert np.array_equal(mixed.data[~mask], plain.data[~mask])
        assert np.all(mixed.data[0, 1, 2] == 2.0)

    def test_masked_values_never_reach_outputs(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        params.t("mask_token").data[...] = 0.25
        feats = rand_features(params.dims)
        mask = np.zeros((2, 4, 3), dtype=bool)
        mask[0, 0, 0] = mask[1, 3, 2] = True
        junk = feats.copy()
        junk[mask] = 1e9
        for a, b in zip(self._all_outputs(feats, mask, params),
                        self._all_outputs(junk, mask, params)):
            assert np.array_equal(a, b)

    @staticmethod
    def _all_outputs(feats, mask, params):
        out = net.heads(net.forward_backbone(feats, mask, params), params)
        return [out[k].data for k in ("pred", "mask_recon", "denoise_recon")]

    def test_channel_mismatch_rejected(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        with pytest.raises(DimsMismatch):
            net.embed(np.zeros((2, 4, 3, 5)), None, params)


class TestAttention:
    def test_low_rank_maps_are_normalized(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        x = ad.as_tensor(rand_act(params.dims))
        p = "layer0.spatial"
        q = ad.add(ad.matmul(x, params.t(f"{p}.wq")), params.t(f"{p}.bq"))
        k = ad.add(ad.matmul(x, params.t(f"{p}.wk")), params.t(f"{p}.bk"))
        qh = net._split_heads(q, params.dims.heads)
        kh = net._split_heads(k, params.dims.heads)
        aq = ad.softmax(ad.add(ad.matmul(qh, params.t(f"{p}.pq")),
                               params.t(f"{p}.pq_b")), axis=-1)
        ak = ad.softmax(ad.add(ad.matmul(kh, params.t(f"{p}.pk")),
                               params.t(f"{p}.pk_b")), axis=-2)
        assert np.abs(aq.data.sum(axis=-1) - 1.0).max() < 1e-12
        assert np.abs(ak.data.sum(axis=-2) - 1.0).max() < 1e-12

    def test_constant_values_pass_through_spatial(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        c = np.linspace(-1.0, 1.3, 8)
        params.t("layer0.spatial.wv").data[...] = 0.0
        params.t("layer0.spatial.bv").data[...] = c
        out = net.spatial_attention(rand_act(params.dims), params, 0,
                                    pre_ff=True)
        assert np.abs(out.data - c).max() < 1e-12
        assert np.ptp(out.data, axis=2).max() < 1e-12

    def test_zero_gate_zeroes_spatial_pre_ff(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        params.t("layer0.spatial.gate").data[...] = 0.0
        out = net.spatial_attention(rand_act(params.dims), params, 0,
                                    pre_ff=True)
        assert np.all(out.data == 0.0)

    def test_single_frame_temporal_is_identity(self):
        params = net.ModelParams.init(small_dims(window=1), seed=0)
        params.t("layer0.temporal.wv").data[...] = np.eye(8)
        params.t("layer0.temporal.bv").data[...] = 0.0
        act = rand_act(params.dims)
        out = net.temporal_attention(act, params, 0, pre_ff=True)
        assert np.allclose(out.data, act, rtol=1e-12, atol=1e-14)

    def test_spatial_permutation_equivariance_at_init(self):
        params = net.ModelParams.init(small_dims(joints=5), seed=0)
        act = rand_act(params.dims, seed=4)
        perm = np.random.default_rng(5).permutation(5)
        out = net.spatial_attention(act, params, 0)
        out_p = net.spatial_attention(act[:, :, perm], params, 0)
        assert np.allclose(out_p.data, out.data[:, :, perm],
                           rtol=1e-10, atol=1e-10)

    def test_fullrank_uniform_attention_averages_values(self):
        params = net.ModelParams.init(small_dims(lowrank=False), seed=0)
        params.t("layer0.spatial.wq").data[...] = 0.0
        act = rand_act(params.dims)
        out = net.spatial_attention(act, params, 0, pre_ff=True)
        wv = params.t("layer0.spatial.wv").data
        bv = params.t("layer0.spatial.bv").data
        v = act @ wv + bv
        assert np.allclose(out.data, np.broadcast_to(v.mean(axis=2,
                           keepdims=True), v.shape), rtol=1e-12, atol=1e-12)

    def test_wrong_joint_count_rejected(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        with pytest.raises(DimsMismatch):
            net.spatial_attention(np.zeros((2, 4, 5, 8)), params, 0)

    def test_wrong_window_rejected(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        with pytest.raises(DimsMismatch):
            net.temporal_attention(np.zeros((2, 6, 3, 8)), params, 0)


class TestBackbone:
    def test_shapes_and_finiteness(self):
        dims = small_dims(joints=5, window=10, future=25, layers=2)
        params = net.ModelParams.init(dims, seed=0)
        act = net.forward_backbone(rand_features(dims), None, params)
        assert act.shape == (2, 10, 5, 8)
        assert np.isfinite(act.data).all()
        out = net.heads(act, params)
        assert out["pred"].shape == (2, 25, 5, 3)
        assert out["mask_recon"].shape == (2, 10, 5, 3)
        assert out["denoise_recon"].shape == (2, 10, 5, 3)
        assert all(np.isfinite(out[k].data).all() for k in out)

    def test_zero_layers_pass_embedding_through(self):
        params = net.ModelParams.init(small_dims(layers=0), seed=0)
        feats = rand_features(params.dims)
        emb = net.embed(feats, None, params)
        act = net.forward_backbone(feats, None, params)
        assert np.array_equal(act.data, emb.data)

    def test_forward_is_deterministic(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        feats = rand_features(params.dims)
        a = net.forward_backbone(feats, None, params)
        b = net.forward_backbone(feats, None, params)
        assert np.array_equal(a.data, b.data)

    def test_empty_mask_matches_no_mask(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        feats = rand_features(params.dims)
        mask = np.zeros((2, 4, 3), dtype=bool)
        a = net.forward_backbone(feats, None, params)
        b = net.forward_backbone(feats, mask, params)
        assert np.array_equal(a.data, b.data)

    def test_outputs_depend_on_inputs(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        feats = rand_features(params.dims)
        bumped = feats.copy()
        bumped[0, 0, 0, 0] += 1.0
        a = net.heads(net.forward_backbone(feats, None, params), params)
        b = net.heads(net.forward_backbone(bumped, None, params), params)
        assert not np.array_equal(a["pred"].data, b["pred"].data)

    def test_fullrank_forward_runs(self):
        dims = small_dims(lowrank=False)
        params = net.ModelParams.init(dims, seed=0)
        out = net.heads(net.forward_backbone(rand_features(dims), None,
                                             params), params)
        assert out["pred"].shape == (2, dims.future, 3, 3)
        assert np.isfinite(out["pred"].data).all()


class TestHeads:
    def test_zero_weights_give_zero_outputs(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        for n in params.names:
            if n.startswith("heads."):
                params.t(n).data[...] = 0.0
        out = net.heads(rand_act(params.dims), params)
        assert all(np.all(out[k].data == 0.0) for k in out)

    def test_pred_reads_only_final_frame_token(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        act = rand_act(params.dims)
        other = act.copy()
        other[:, :-1] += 1.0
        a = net.heads(act, params)
        b = net.heads(other, params)
        assert np.array_equal(a["pred"].data, b["pred"].data)
        assert not np.array_equal(a["mask_recon"].data, b["mask_recon"].data)

    def test_wrong_width_rejected(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        with pytest.raises(DimsMismatch):
            net.heads(np.zeros((2, 4, 3, 9)), params)


class TestCritics:
    def test_fidelity_matches_manual_mlp(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 9))
        t = lambda n: params.t(f"critic.fidelity.{n}").data
        h1 = np.tanh(x @ t("w1") + t("b1"))
        h2 = np.tanh(h1 @ t("w2") + t("b2"))
        want = (h2 @ t("w3") + t("b3")).reshape(6)
        got = net.discriminate_fidelity(x, params)
        assert got.shape == (6,)
        assert np.array_equal(got.data, want)

    def test_fidelity_accepts_frames_or_rows(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        rng = np.random.default_rng(10)
        frames = rng.standard_normal((4, 3, 3))
        a = net.discriminate_fidelity(frames, params)
        b = net.discriminate_fidelity(frames.reshape(4, 9), params)
        assert np.array_equal(a.data, b.data)

    def test_zero_weights_score_zero(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        for n in params.critic_names:
            if n.startswith("critic.fidelity."):
                params.t(n).data[...] = 0.0
        scores = net.discriminate_fidelity(np.ones((3, 9)), params)
        assert np.all(scores.data == 0.0)

    def test_continuity_row_layout(self):
        w = np.arange(18, dtype=np.float64).reshape(1, 3, 2, 3)
        rows = net.continuity_inputs(w).data
        assert rows.shape == (2, 12)
        f0, f1, f2 = w[0, 0].ravel(), w[0, 1].ravel(), w[0, 2].ravel()
        assert np.array_equal(rows[0], np.concatenate([f0, f1 - f0]))
        assert np.array_equal(rows[1], np.concatenate([f1, f2 - f1]))

    def test_still_motion_zero_static_weights_scores_zero(self):
        params = net.ModelParams.init(small_dims(joints=2), seed=0)
        params.t("critic.continuity.w1").data[:6] = 0.0
        frame = np.random.default_rng(11).standard_normal((1, 1, 2, 3))
        still = np.broadcast_to(frame, (1, 5, 2, 3)).copy()
        scores = net.discriminate_continuity(net.continuity_inputs(still),
                                             params)
        assert np.all(scores.data == 0.0)

    def test_continuity_requires_two_frames(self):
        with pytest.raises(DimsMismatch):
            net.continuity_inputs(np.zeros((1, 1, 2, 3)))

    def test_fidelity_inputs_flatten(self):
        rng = np.random.default_rng(12)
        frames = rng.standard_normal((2, 3, 4, 3))
        rows = net.fidelity_inputs(frames)
        assert rows.shape == (6, 12)
        assert np.array_equal(rows.data, frames.reshape(6, 12))

    def test_wrong_row_width_rejected(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        with pytest.raises(DimsMismatch):
            net.discriminate_fidelity(np.zeros((3, 7)), params)

    def test_input_gradient_matches_finite_difference(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((4, 9))
        x = Tensor(x0, requires_grad=True)
        (g,) = ad.grad(ad.tsum(net.discriminate_fidelity(x, params)), [x])

        def f(flat):
            return float(net.discriminate_fidelity(
                flat.reshape(4, 9), params).data.sum())

        fd = ad.finite_difference(f, x0.ravel(), step=1e-6).reshape(4, 9)
        assert np.allclose(g.data, fd, rtol=1e-6, atol=1e-8)


class TestParameterGradients:
    def test_quadratic_loss_gradient_is_parameter(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        w = params.t("heads.pred_w")
        loss = ad.mul(ad.tsum(ad.mul(w, w)), 0.5)
        g = net.parameter_gradients(loss, params, ["heads.pred_w"])
        assert np.array_equal(g, w.data.ravel())

    def test_untouched_parameters_get_zero_gradients(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        out = net.heads(net.forward_backbone(rand_features(params.dims),
                                             None, params), params)
        loss = ad.tmean(ad.mul(out["pred"], out["pred"]))
        g = net.parameter_gradients(loss, params)
        assert g.shape == (params.n_params,)
        for name in ("mask_token", "heads.mask_w", "heads.denoise_b",
                     "critic.fidelity.w1", "critic.continuity.w3"):
            lo, hi = params.slice_of(name)
            assert np.all(g[lo:hi] == 0.0), name
        lo, hi = params.slice_of("embed.w")
        assert np.any(g[lo:hi] != 0.0)

    def test_matches_finite_difference_through_full_model(self):
        dims = small_dims(joints=2, window=3, future=2, in_channels=3,
                          d_model=4, rank=2, heads=2, critic_width=4,
                          head_gain=1.0)
        params = net.ModelParams.init(dims, seed=0)
        feats = np.random.default_rng(14).standard_normal((1, 3, 2, 3)) * 0.1
        names = ["embed.w", "layer0.spatial.pq", "layer0.spatial.gate",
                 "layer0.temporal.wq", "layer0.ffn.w1",
                 "layer0.ffn.ln_g", "heads.pred_w"]

        def loss_value(params):
            out = net.heads(net.forward_backbone(feats, None, params), params)
            return ad.add(ad.tmean(ad.mul(out["pred"], out["pred"])),
                          ad.tmean(ad.mul(out["mask_recon"],
                                          out["mask_recon"])))

        g = net.parameter_gradients(loss_value(params), params, names)
        start = params.flat(names)

        def f(vec):
            params.set_flat(vec, names)
            return loss_value(params).item()

        fd = ad.finite_difference(f, start, step=1e-5)
        params.set_flat(start, names)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert (np.abs(g - fd) / denom).max() < 1e-4

    def test_requires_graph(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        with pytest.raises(BackwardBeforeForward):
            net.parameter_gradients(Tensor(3.0), params)
        with ad.no_grad():
            out = net.forward_backbone(rand_features(params.dims), None,
                                       params)
            loss = ad.tmean(ad.mul(out, out))
        with pytest.raises(BackwardBeforeForward):
            net.parameter_gradients(loss, params)
