"""Backbone, output heads, and critics: exactness fixtures, attention
normalization properties, and gradient checks against finite differences."""
import tracemalloc

import numpy as np
import pytest

import mqmotion.autodiff as ad
import mqmotion.network as net
from mqmotion.autodiff import Tensor
from mqmotion.core import root_align
from mqmotion.errors import BackwardBeforeForward, DimsMismatch
from mqmotion.train import TrainConfig


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


def attention_heads(act, params, kind):
    """Layer 0's concatenated attention heads over act, before the attention
    feed-forward: joints mixed (spatial) or frames mixed (temporal)."""
    prefix = f"layer0.{kind}."
    P = {n[len(prefix):]: params.t(n).data for n in params.names
         if n.startswith(prefix)}
    swap = (lambda a: a) if kind == "spatial" else (lambda a: a.swapaxes(1, 2))
    with ad.no_grad():
        out, _ = net._attention(swap(np.asarray(act)), P, params.dims)
    return swap(out)


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
        # the rank maps as the attention computes them: each rank projection
        # folded into the query or key projection before it
        params = net.ModelParams.init(small_dims(), seed=0)
        dims = params.dims
        x = rand_act(dims)
        b, t, n, d = x.shape
        p = {s: params.t(f"layer0.spatial.{s}").data
             for s in ("wq", "bq", "pq", "pq_b", "wk", "bk", "pk", "pk_b")}
        maps = {}
        for c, axis in (("q", -1), ("k", -2)):
            w, bias = net._fold(p[f"w{c}"], p[f"b{c}"], p[f"p{c}"],
                                p[f"p{c}_b"], dims.heads)
            logits = (x @ w + bias).reshape(b, t, n, dims.heads, dims.rank)
            logits = logits.transpose(0, 1, 3, 2, 4)
            heads = (x @ p[f"w{c}"] + p[f"b{c}"]).reshape(
                b, t, n, dims.heads, dims.head_dim).transpose(0, 1, 3, 2, 4)
            unfolded = heads @ p[f"p{c}"] + p[f"p{c}_b"]
            assert np.allclose(logits, unfolded, rtol=1e-12, atol=1e-13)
            maps[c] = ad.softmax(logits, axis=axis).data
        aq, ak = maps["q"], maps["k"]
        assert np.abs(aq.sum(axis=-1) - 1.0).max() < 1e-12
        assert np.abs(ak.sum(axis=-2) - 1.0).max() < 1e-12

    def test_constant_values_pass_through_spatial(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        c = np.linspace(-1.0, 1.3, 8)
        params.t("layer0.spatial.wv").data[...] = 0.0
        params.t("layer0.spatial.bv").data[...] = c
        out = attention_heads(rand_act(params.dims), params, "spatial")
        assert np.abs(out - c).max() < 1e-12
        assert np.ptp(out, axis=2).max() < 1e-12

    def test_zero_gate_zeroes_spatial_pre_ff(self):
        params = net.ModelParams.init(small_dims(), seed=0)
        params.t("layer0.spatial.gate").data[...] = 0.0
        out = attention_heads(rand_act(params.dims), params, "spatial")
        assert np.all(out == 0.0)

    def test_single_frame_temporal_is_identity(self):
        params = net.ModelParams.init(small_dims(window=1), seed=0)
        params.t("layer0.temporal.wv").data[...] = np.eye(8)
        params.t("layer0.temporal.bv").data[...] = 0.0
        act = rand_act(params.dims)
        out = attention_heads(act, params, "temporal")
        assert np.allclose(out, act, rtol=1e-12, atol=1e-14)

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
        out = attention_heads(act, params, "spatial")
        wv = params.t("layer0.spatial.wv").data
        bv = params.t("layer0.spatial.bv").data
        v = act @ wv + bv
        assert np.allclose(out, np.broadcast_to(v.mean(axis=2,
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

    def test_graph_is_one_node_per_sublayer(self):
        # default dims, no mask: the embedding's matmul and add, then one
        # node per sublayer (3 per layer); every other reachable node is a
        # parameter leaf
        dims = TrainConfig().model_dims(5)
        params = net.ModelParams.init(dims, seed=0)
        act = net.forward_backbone(rand_features(dims), None, params)
        seen, stack = {}, [act]
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen[id(t)] = t
                stack.extend(t._parents)
        inner = [t for t in seen.values() if t._parents]
        assert dims.layers == 2
        assert len(inner) == 8
        assert len(seen) == 90

    @pytest.mark.parametrize("lowrank", [True, False])
    def test_nograd_forward_keeps_no_intermediates(self, lowrank):
        # under no_grad a sublayer frees each stage's arrays as it goes;
        # holding them for a backward that never comes peaked at ~15
        # activation-sized arrays, against ~9-10 for the forward itself
        dims = TrainConfig(use_lowrank=lowrank).model_dims(22)
        params = net.ModelParams.init(dims, seed=0)
        feats = np.random.default_rng(0).standard_normal((16, 9, 22, 7))
        act_bytes = 16 * 9 * 22 * dims.d_model * 8
        with ad.no_grad():
            net.forward_backbone(feats, None, params)
            tracemalloc.start()
            try:
                net.forward_backbone(feats, None, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 11 * act_bytes

    def test_fullrank_forward_runs(self):
        dims = small_dims(lowrank=False)
        params = net.ModelParams.init(dims, seed=0)
        out = net.heads(net.forward_backbone(rand_features(dims), None,
                                             params), params)
        assert out["pred"].shape == (2, dims.future, 3, 3)
        assert np.isfinite(out["pred"].data).all()


# The oracle's nonlinearities, built from primitive Tensor ops only, so that
# it shares no numpy kernel with the fused sublayer nodes.

def ref_softmax(a, axis):
    # the max is a constant shift, which the softmax cancels exactly
    e = ad.exp(ad.sub(a, np.max(a.data, axis=axis, keepdims=True)))
    return ad.div(e, ad.tsum(e, axis=axis, keepdims=True))


def ref_layer_norm(x, gamma, beta, eps=1e-5):
    y = ad.sub(x, ad.tmean(x, axis=-1, keepdims=True))
    std = ad.sqrt(ad.add(ad.tmean(ad.mul(y, y), axis=-1, keepdims=True), eps))
    return ad.add(ad.mul(ad.div(y, std), gamma), beta)


def ref_gelu(x):
    inner = ad.mul(ad.add(x, ad.mul(ad.power(x, 3.0), 0.044715)), np.sqrt(2.0 / np.pi))
    return ad.mul(ad.mul(x, 0.5), ad.add(ad.tanh(inner), 1.0))


def reference_sublayer(h, params, kind):
    """Layer 0's sublayer `kind` as a chain of primitive Tensor ops: the
    oracle for the fused sublayer node's forward and backward."""
    dims = params.dims
    prefix = f"layer0.{kind}"

    def t(s):
        return params.t(f"{prefix}.{s}")

    def split(a):
        b, g, n, d = a.shape
        a = ad.reshape(a, (b, g, n, dims.heads, d // dims.heads))
        return ad.transpose(a, (0, 1, 3, 2, 4))

    def mlp(x, names):
        w1, b1, w2, b2 = (t(s) for s in names)
        return ad.add(ad.matmul(ref_gelu(ad.add(ad.matmul(x, w1), b1)), w2), b2)

    if kind == "ffn":
        y = mlp(h, ("w1", "b1", "w2", "b2"))
    else:
        x = h if kind == "spatial" else ad.swapaxes(h, 1, 2)
        q, k, v = (split(ad.add(ad.matmul(x, t(f"w{c}")), t(f"b{c}")))
                   for c in "qkv")
        if dims.lowrank:
            aq = ref_softmax(ad.add(ad.matmul(q, t("pq")), t("pq_b")), axis=-1)
            ak = ref_softmax(ad.add(ad.matmul(k, t("pk")), t("pk_b")), axis=-2)
            out = ad.matmul(aq, ad.matmul(ad.swapaxes(ak, -1, -2), v))
            out = ad.matmul(t("gate"), out)
        else:
            scores = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)),
                            1.0 / np.sqrt(dims.head_dim))
            out = ad.matmul(ref_softmax(scores, axis=-1), v)
        b, g, nh, n, dh = out.shape
        y = ad.reshape(ad.transpose(out, (0, 1, 3, 2, 4)), (b, g, n, nh * dh))
        y = mlp(y, ("ff_w1", "ff_b1", "ff_w2", "ff_b2"))
        if kind == "temporal":
            y = ad.swapaxes(y, 1, 2)
    return ref_layer_norm(ad.add(h, y), t("ln_g"), t("ln_b"))


def fused_sublayer(h, params, kind):
    if kind == "ffn":
        return net._ffn(h, params, 0)
    attention = net.spatial_attention if kind == "spatial" else net.temporal_attention
    return attention(h, params, 0)


# (kind, lowrank, masked input): every sublayer node in both attention
# forms, on input with and without identical mask-token rows
SUBLAYER_CASES = [
    (kind, lowrank, masked)
    for kind in ("spatial", "temporal") for lowrank in (True, False)
    for masked in (False, True)
] + [("ffn", True, masked) for masked in (False, True)]


def sublayer_id(case):
    kind, lowrank, masked = case
    return "-".join([kind, "lowrank" if lowrank else "full",
                     "masked" if masked else "unmasked"])


def sublayer_setup(case):
    """Params moved off the init point, a leaf input and the loss weights."""
    kind, lowrank, masked = case
    params = net.ModelParams.init(small_dims(lowrank=lowrank), seed=3)
    rng = np.random.default_rng(7)
    params.vec += rng.uniform(-0.2, 0.2, params.n_params)
    feats = rand_features(params.dims)
    mask = rng.random(feats.shape[:3]) < 0.4 if masked else None
    h = Tensor(net.embed(feats, mask, params).data, requires_grad=True)
    names = [n for n in params.generator_names if n.startswith(f"layer0.{kind}.")]
    w = rng.standard_normal(h.shape)
    return params, h, names, w


def sublayer_grads(fn, case, params, h, names, w):
    out = fn(h, params, case[0])
    loss = ad.tsum(ad.mul(out, w))
    grads = ad.grad(loss, [h] + [params.t(n) for n in names])
    return out.data, loss.item(), grads


class TestSublayerNodes:
    @pytest.mark.parametrize("case", SUBLAYER_CASES, ids=sublayer_id)
    def test_one_node_over_input_and_parameters(self, case):
        params, h, names, w = sublayer_setup(case)
        out = fused_sublayer(h, params, case[0])
        assert [id(p) for p in out._parents] == [id(h)] + [
            id(params.t(n)) for n in names]

    @pytest.mark.parametrize("case", SUBLAYER_CASES, ids=sublayer_id)
    def test_matches_primitive_chain(self, case):
        params, h, names, w = sublayer_setup(case)
        out, _, grads = sublayer_grads(fused_sublayer, case, params, h, names, w)
        ref, _, ref_grads = sublayer_grads(reference_sublayer, case, params, h,
                                           names, w)
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)
        for name, g, r in zip(["input"] + names, grads, ref_grads):
            scale = max(np.abs(r.data).max(), 1e-3)
            assert np.abs(g.data - r.data).max() <= 1e-10 * scale, name

    @pytest.mark.parametrize("case", SUBLAYER_CASES, ids=sublayer_id)
    def test_gradient_matches_finite_difference(self, case):
        params, h, names, w = sublayer_setup(case)
        _, _, grads = sublayer_grads(fused_sublayer, case, params, h, names, w)
        g = np.concatenate([gr.data.ravel() for gr in grads])
        h0 = h.data.copy()

        def f(vec):
            h.data[...] = vec[:h0.size].reshape(h0.shape)
            params.set_flat(vec[h0.size:], names)
            with ad.no_grad():
                out = fused_sublayer(h, params, case[0])
            return float(np.sum(out.data * w))

        start = np.concatenate([h0.ravel(), params.flat(names)])
        fd = ad.finite_difference(f, start, step=1e-5)
        f(start)
        # floored as in the full-model check: where both sides sit under 1e-8
        # (the key biases) the gradient is zero at finite-difference resolution
        big = np.maximum(np.abs(fd), np.abs(g))
        rel = np.abs(g - fd) / np.maximum(big, 1e-6)
        assert np.where(big < 1e-8, 0.0, rel).max() < 1e-4

    @pytest.mark.parametrize("lowrank", [True, False])
    @pytest.mark.parametrize("kind", ["spatial", "temporal"])
    def test_key_biases_have_zero_gradient(self, kind, lowrank):
        # a key bias adds the same logit to every token of a head, which the
        # softmax over tokens cancels: its true gradient is exactly zero
        case = (kind, lowrank, False)
        params, h, names, w = sublayer_setup(case)
        _, _, grads = sublayer_grads(fused_sublayer, case, params, h, names, w)
        by_name = dict(zip(names, grads[1:]))
        dead = ["bk"] + (["pk_b"] if lowrank else [])
        for s in dead:
            assert np.abs(by_name[f"layer0.{kind}.{s}"].data).max() < 1e-12
        assert np.abs(by_name[f"layer0.{kind}.bq"].data).max() > 1e-6


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
