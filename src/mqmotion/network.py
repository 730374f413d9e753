"""Spatio-temporal backbone, output heads, and the two critics.

Tokens are joint-frames: an input window becomes a (B, T, J, D) activation
where spatial attention mixes joints within a frame and temporal attention
mixes frames within a joint. Both attentions are low-rank: queries and
keys are projected to rank r per head and normalized (softmax over the
rank axis for queries, over the token axis for keys), so the aggregation
itself costs O(tokens * r) instead of O(tokens^2); a learnable square gate
(initialized to identity) then remixes token outputs. The gate is an N x N
product per group of N tokens, so the form as a whole stays quadratic in
N. perfbench/sweep.py finds no consistent gain over full attention at the
22-joint, 9-token windows of the H3.6M-shaped workloads, nor at a few
hundred tokens per sample; the low-rank form is clearly faster only at a
few thousand. With the low-rank flag off, a plain full-rank
scaled-dot-product block is used and the gates disappear.

Each attention ends with a small feed-forward over the concatenated heads;
each block runs spatial attention, temporal attention, and a position-wise
FFN, every sublayer wrapped in residual-plus-layernorm. Zero blocks means
the embedding passes through untouched.

Each sublayer, residual and post-LN included, is one first-order graph
node (autodiff.fused): a numpy forward that keeps its intermediates and a
closed-form numpy backward. In the low-rank form the rank projections fold
into the query and key projections, x @ (w p) instead of (x @ w) @ p,
which changes rounding but not the function. A key bias (bk, and pk_b in
the low-rank form) adds the same logit to every token of a head, which the
softmax over tokens cancels: its true gradient is exactly zero (about
1e-15 in floating point), so it stays near its initial zeros.

The Tensor returned by the forward functions carries the backward graph;
that graph is the "activation cache" consumed by parameter_gradients.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import streams
from .autodiff import Tensor
from .errors import BackwardBeforeForward, DimsMismatch
from . import _kernels
from .core import root_align

# feature channel order with quotient encoding on:
# (|v|, omega_xy, omega_yz, omega_zx, last_x, last_y, last_z)
QUOTIENT_CHANNELS = 7
RAW_CHANNELS = 3


@dataclass(frozen=True)
class ModelDims:
    """Architecture hyperparameters; immutable once the model is built."""

    joints: int
    window: int
    future: int
    in_channels: int
    d_model: int = 32
    rank: int = 8
    heads: int = 4
    layers: int = 2
    critic_width: int = 64
    ffn_mult: int = 2
    head_gain: float = 100.0
    lowrank: bool = True

    def __post_init__(self):
        pos = {
            "joints": self.joints,
            "window": self.window,
            "future": self.future,
            "in_channels": self.in_channels,
            "d_model": self.d_model,
            "rank": self.rank,
            "heads": self.heads,
            "critic_width": self.critic_width,
            "ffn_mult": self.ffn_mult,
        }
        for name, v in pos.items():
            if v < 1:
                raise DimsMismatch(f"{name} must be >= 1, got {v}")
        if self.layers < 0:
            raise DimsMismatch(f"layers must be >= 0, got {self.layers}")
        if self.d_model % self.heads != 0:
            raise DimsMismatch(
                f"d_model {self.d_model} not divisible by heads {self.heads}"
            )
        if self.rank > self.d_model // self.heads:
            raise DimsMismatch(
                f"rank {self.rank} exceeds per-head width {self.d_model // self.heads}"
            )
        if not (np.isfinite(self.head_gain) and self.head_gain > 0):
            raise DimsMismatch(f"head_gain must be positive, got {self.head_gain}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads


def _param_spec(dims: ModelDims) -> list[tuple[str, tuple, str]]:
    """Ordered (name, shape, init) list; init in {uniform, zeros, ones, eye}."""
    d, h, r = dims.d_model, dims.heads, dims.rank
    dh = dims.head_dim
    spec: list[tuple[str, tuple, str]] = [
        ("embed.w", (dims.in_channels, d), "uniform"),
        ("embed.b", (d,), "zeros"),
        ("mask_token", (d,), "zeros"),
    ]
    for i in range(dims.layers):
        for branch, tokens in (("spatial", dims.joints), ("temporal", dims.window)):
            p = f"layer{i}.{branch}"
            spec += [
                (f"{p}.wq", (d, d), "uniform"),
                (f"{p}.bq", (d,), "zeros"),
                (f"{p}.wk", (d, d), "uniform"),
                (f"{p}.bk", (d,), "zeros"),
                (f"{p}.wv", (d, d), "uniform"),
                (f"{p}.bv", (d,), "zeros"),
            ]
            if dims.lowrank:
                spec += [
                    (f"{p}.pq", (h, dh, r), "uniform"),
                    (f"{p}.pq_b", (h, 1, r), "zeros"),
                    (f"{p}.pk", (h, dh, r), "uniform"),
                    (f"{p}.pk_b", (h, 1, r), "zeros"),
                    (f"{p}.gate", (tokens, tokens), "eye"),
                ]
            spec += [
                (f"{p}.ff_w1", (d, d), "uniform"),
                (f"{p}.ff_b1", (d,), "zeros"),
                (f"{p}.ff_w2", (d, d), "uniform"),
                (f"{p}.ff_b2", (d,), "zeros"),
                (f"{p}.ln_g", (d,), "ones"),
                (f"{p}.ln_b", (d,), "zeros"),
            ]
        p = f"layer{i}.ffn"
        m = dims.ffn_mult * d
        spec += [
            (f"{p}.w1", (d, m), "uniform"),
            (f"{p}.b1", (m,), "zeros"),
            (f"{p}.w2", (m, d), "uniform"),
            (f"{p}.b2", (d,), "zeros"),
            (f"{p}.ln_g", (d,), "ones"),
            (f"{p}.ln_b", (d,), "zeros"),
        ]
    spec += [
        ("heads.pred_w", (d, dims.future * 3), "uniform"),
        ("heads.pred_b", (dims.future * 3,), "zeros"),
        ("heads.mask_w", (d, 3), "uniform"),
        ("heads.mask_b", (3,), "zeros"),
        ("heads.denoise_w", (d, 3), "uniform"),
        ("heads.denoise_b", (3,), "zeros"),
    ]
    w = dims.critic_width
    for name, width_in in (("fidelity", dims.joints * 3), ("continuity", 2 * dims.joints * 3)):
        p = f"critic.{name}"
        spec += [
            (f"{p}.w1", (width_in, w), "uniform"),
            (f"{p}.b1", (w,), "zeros"),
            (f"{p}.w2", (w, w), "uniform"),
            (f"{p}.b2", (w,), "zeros"),
            (f"{p}.w3", (w, 1), "uniform"),
            (f"{p}.b3", (1,), "zeros"),
        ]
    return spec


class ModelParams:
    """All trainable arrays as named views into one float64 vector.

    ``vec`` holds every array raveled in ``_param_spec`` order and each
    named tensor's ``.data`` is a reshaped view into it. The spec lists the
    ``critic.*`` arrays last, so ``generator`` and ``critic`` are views of
    the vector's leading and trailing slices: the optimizers step them in
    place and checkpoints store ``vec``. flat() and set_flat() copy a name
    subset out of and back into the views.
    """

    def __init__(self, dims: ModelDims, vec: np.ndarray):
        spec = _param_spec(dims)
        sizes = [int(np.prod(shape)) for _, shape, _ in spec]
        if vec.shape != (sum(sizes),) or vec.dtype != np.float64:
            raise DimsMismatch(f"need {sum(sizes)} float64 parameters, got {vec.dtype} {vec.shape}")
        self.dims, self.vec, self.n_params = dims, vec, vec.size
        self.names = [name for name, _, _ in spec]
        self._slices: dict[str, tuple[int, int]] = {}
        self.tensors: dict[str, Tensor] = {}
        off = 0
        for (name, shape, _), n in zip(spec, sizes):
            self._slices[name] = (off, off + n)
            self.tensors[name] = Tensor(vec[off : off + n].reshape(shape), requires_grad=True)
            off += n
        split = self._slices[self.critic_names[0]][0]
        self.generator, self.critic = vec[:split], vec[split:]

    @classmethod
    def init(cls, dims: ModelDims, seed: int) -> "ModelParams":
        rng = streams.stream(seed, streams.INIT)
        arrays = []
        for _, shape, kind in _param_spec(dims):
            if kind == "uniform":
                fan_in = shape[-2] if len(shape) >= 2 else shape[0]
                bound = float(np.sqrt(1.0 / fan_in))
                arrays.append(rng.uniform(-bound, bound, size=shape))
            elif kind == "zeros":
                arrays.append(np.zeros(shape))
            elif kind == "ones":
                arrays.append(np.ones(shape))
            else:  # eye
                arrays.append(np.eye(shape[0]))
        return cls(dims, np.concatenate([a.ravel() for a in arrays]))

    def t(self, name: str) -> Tensor:
        return self.tensors[name]

    def flat(self, names: list[str] | None = None) -> np.ndarray:
        names = self.names if names is None else names
        return np.concatenate([self.tensors[n].data.ravel() for n in names])

    def set_flat(self, vec: np.ndarray, names: list[str] | None = None) -> None:
        names = self.names if names is None else names
        expect = sum(self.tensors[n].size for n in names)
        if vec.size != expect:
            raise DimsMismatch(f"flat vector has {vec.size} entries, expected {expect}")
        off = 0
        for n in names:
            t = self.tensors[n]
            t.data[...] = vec[off : off + t.size].reshape(t.shape)
            off += t.size

    def slice_of(self, name: str) -> tuple[int, int]:
        return self._slices[name]

    @property
    def generator_names(self) -> list[str]:
        return [n for n in self.names if not n.startswith("critic.")]

    @property
    def critic_names(self) -> list[str]:
        return [n for n in self.names if n.startswith("critic.")]

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims, self.vec.copy())


def token_count(n_observed: int, use_quotient: bool) -> int:
    """In-window token count: transitions with quotient features, else frames."""
    return n_observed - 1 if use_quotient else n_observed


def build_features(
    obs: np.ndarray,
    root_index: int,
    use_quotient: bool,
    input_gain: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Network inputs and in-window reconstruction targets for a batch.

    obs is (B, n, J, 3) in mm. With quotient features on, tokens are the
    n-1 frame transitions: channels (|v|, three plane cosines, the last
    observed pose broadcast), mm-valued channels scaled by input_gain,
    cosines left unitless; reconstruction targets are the transition
    endpoint frames. With it off, tokens are the n frames as per-frame
    root-aligned coordinates scaled by input_gain, targets are the frames
    themselves.
    """
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 4 or obs.shape[-1] != 3:
        raise DimsMismatch(f"observed batch must be (B, n, J, 3), got {obs.shape}")
    if use_quotient:
        mag, cos, _valid = _kernels.quotient_channels(obs, 1.0)
        b, tm1, j = mag.shape
        last = np.broadcast_to(obs[:, -1][:, None], (b, tm1, j, 3))
        features = np.concatenate(
            [mag[..., None] * input_gain, cos, last * input_gain], axis=-1
        )
        return features, obs[:, 1:].copy()
    aligned = root_align(obs, root_index)
    return aligned * input_gain, obs.copy()


def embed(features, token_mask, params: ModelParams) -> Tensor:
    """Linear per-token embedding with exact mask-token substitution.

    token_mask flags joint-frames containing at least one masked scalar;
    their embeddings are replaced by the learned mask token, so the values
    at masked positions provably never reach the rest of the network.
    """
    x = ad.as_tensor(features)
    if x.ndim != 4 or x.shape[-1] != params.dims.in_channels:
        raise DimsMismatch(
            f"features must be (B, T, J, {params.dims.in_channels}), got {x.shape}"
        )
    emb = ad.add(ad.matmul(x, params.t("embed.w")), params.t("embed.b"))
    if token_mask is not None and token_mask.any():
        mf = Tensor(np.asarray(token_mask, dtype=np.float64)[..., None])
        token = params.t("mask_token")
        emb = ad.add(ad.mul(ad.sub(1.0, mf), emb), ad.mul(mf, token))
    return emb


# Parameter names of each sublayer, in the order its fused node lists them.
_QKV = ("wq", "bq", "wk", "bk", "wv", "bv")
_GATED = ("pq", "pq_b", "pk", "pk_b", "gate")
_ATTN_FF = ("ff_w1", "ff_b1", "ff_w2", "ff_b2")
_FFN = ("w1", "b1", "w2", "b2")
_LN = ("ln_g", "ln_b")


# The numpy forwards and backwards of the sublayer nodes.

def _weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of W in x @ W, summed over every token axis.

    One GEMM per sample over its tokens, then a sum over the samples: a
    single 2-D GEMM over all tokens is slower once it spans a few thousand.
    """
    b = x.shape[0]
    per_sample = x.reshape(b, -1, x.shape[-1]).swapaxes(-1, -2) @ dy.reshape(b, -1, dy.shape[-1])
    return per_sample.sum(axis=0)


def _bias_grad(dy: np.ndarray) -> np.ndarray:
    """Gradient of b in x @ W + b: dy summed over every token axis."""
    return dy.reshape(-1, dy.shape[-1]).sum(axis=0)


def _fold(w, b, p, pb, heads: int):
    """Fold a per-head rank projection into the projection it follows.

    With w (D, D), b (D,), p (H, Dh, r) and pb (H, 1, r), returns W (D, H*r)
    and B (H*r,) such that x @ W + B equals, head by head, the rank-r map
    (x @ w + b)[head's Dh columns] @ p[head] + pb[head].
    """
    d = w.shape[0]
    w3 = w.reshape(d, heads, -1).transpose(1, 0, 2)  # (H, D, Dh)
    return (w3 @ p).transpose(1, 0, 2).reshape(d, -1), (b.reshape(heads, 1, -1) @ p + pb).reshape(-1)


def _unfold_grads(dw_f, db_f, w, b, p, heads: int):
    """Chain the gradients of _fold's (W, B) back to those of (w, b, p, pb)."""
    d = w.shape[0]
    dw3 = dw_f.reshape(d, heads, -1).transpose(1, 0, 2)  # (H, D, r)
    db3 = db_f.reshape(heads, 1, -1)  # (H, 1, r)
    w3 = w.reshape(d, heads, -1).transpose(1, 0, 2)  # (H, D, Dh)
    pt = p.swapaxes(-1, -2)
    dp = w3.swapaxes(-1, -2) @ dw3 + b.reshape(heads, 1, -1).swapaxes(-1, -2) @ db3
    return (dw3 @ pt).transpose(1, 0, 2).reshape(d, -1), (db3 @ pt).reshape(-1), dp, db3


def _attention(x: np.ndarray, P: dict, dims: ModelDims):
    """Attention heads over the second-to-last axis of x (B, G, N, D).

    Attention runs over the N tokens within each of the G groups. Returns
    the concatenated heads (B, G, N, D), before the attention feed-forward,
    and their backward: a map from the heads' gradient to (dx, {parameter
    suffix: gradient}).
    """
    b, g, n, d = x.shape
    h, dh, r = dims.heads, dims.head_dim, dims.rank

    def split(a, w):  # (B, G, N, H*w) -> (B, G, H, N, w), a view
        return a.reshape(b, g, n, h, w).transpose(0, 1, 3, 2, 4)

    def merge(a):  # (B, G, H, N, w) -> (B, G, N, H*w)
        return a.transpose(0, 1, 3, 2, 4).reshape(b, g, n, -1)

    vh = split(x @ P["wv"] + P["bv"], dh)
    if dims.lowrank:
        # The rank projections fold into the query and key projections, and
        # the gate, shared by all heads, mixes the merged heads at once. The
        # softmaxes run on (B, G, N, H, r) arrays, contiguous over the rank.
        wq, bq = _fold(P["wq"], P["bq"], P["pq"], P["pq_b"], h)
        wk, bk = _fold(P["wk"], P["bk"], P["pk"], P["pk_b"], h)
        aq = ad.softmax_forward((x @ wq + bq).reshape(b, g, n, h, r), -1)  # phi(Q): over the rank
        ak = ad.softmax_forward((x @ wk + bk).reshape(b, g, n, h, r), 2)  # phi(K): over tokens
        aqh, akh = aq.transpose(0, 1, 3, 2, 4), ak.transpose(0, 1, 3, 2, 4)
        ctx = akh.swapaxes(-1, -2) @ vh  # (B, G, H, r, Dh)
        mixed = merge(aqh @ ctx)
        out = P["gate"] @ mixed
    else:
        scale = 1.0 / np.sqrt(dh)
        qh = split(x @ P["wq"] + P["bq"], dh)
        kh = split(x @ P["wk"] + P["bk"], dh)
        att = ad.softmax_forward((qh @ kh.swapaxes(-1, -2)) * scale, -1)
        out = merge(att @ vh)
    if not ad.grad_enabled():
        return out, None  # and the intermediates go with this frame

    def backward(dout):
        grads = {}
        if dims.lowrank:
            grads["gate"] = (dout @ mixed.swapaxes(-1, -2)).reshape(b * g, n, n).sum(axis=0)
            dmixed = split(P["gate"].T @ dout, dh)
            dctx = aqh.swapaxes(-1, -2) @ dmixed
            dvh = akh @ dctx
            dq = ad.softmax_backward(aq, (dmixed @ ctx.swapaxes(-1, -2)).transpose(0, 1, 3, 2, 4), -1)
            dk = ad.softmax_backward(ak, (vh @ dctx.swapaxes(-1, -2)).transpose(0, 1, 3, 2, 4), 2)
            proj = (("q", wq, dq.reshape(b, g, n, -1)), ("k", wk, dk.reshape(b, g, n, -1)))
        else:
            douth = split(dout, dh)
            dvh = att.swapaxes(-1, -2) @ douth
            ds = ad.softmax_backward(att, douth @ vh.swapaxes(-1, -2), -1) * scale
            proj = (("q", P["wq"], merge(ds @ kh)), ("k", P["wk"], merge(ds.swapaxes(-1, -2) @ qh)))
        dv = merge(dvh)
        xs = x.reshape(b, -1, d)  # copies a swapped (temporal) input once
        grads["wv"], grads["bv"] = _weight_grad(xs, dv), _bias_grad(dv)
        dx = dv @ P["wv"].T
        for c, w, dy in proj:
            dw, db = _weight_grad(xs, dy), _bias_grad(dy)
            dx += dy @ w.T
            if dims.lowrank:
                dw, db, grads[f"p{c}"], grads[f"p{c}_b"] = _unfold_grads(
                    dw, db, P[f"w{c}"], P[f"b{c}"], P[f"p{c}"], h
                )
            grads[f"w{c}"], grads[f"b{c}"] = dw, db
        return dx, grads

    return out, backward


def _mlp(x: np.ndarray, P: dict, names: tuple):
    """gelu MLP over the last axis with weights P[names] = (w1, b1, w2, b2)."""
    w1, b1, w2, b2 = (P[s] for s in names)
    pre = x @ w1 + b1
    hidden, t = ad.gelu_forward(pre)
    if not ad.grad_enabled():
        return hidden @ w2 + b2, None

    def backward(dy):
        dpre = ad.gelu_backward(pre, t, dy @ w2.T)
        grads = (_weight_grad(x, dpre), _bias_grad(dpre), _weight_grad(hidden, dy), _bias_grad(dy))
        return dpre @ w1.T, dict(zip(names, grads))

    return hidden @ w2 + b2, backward


def _residual_post_ln(x: np.ndarray, y: np.ndarray, P: dict, branch_backward):
    """LN(x + y) and the backward of the whole residual sublayer.

    branch_backward maps the gradient of y to (dx, grads) for the branch
    that computed y from x.
    """
    out, normed, std = ad.layer_norm_forward(x + y, P["ln_g"], P["ln_b"])
    if not ad.grad_enabled():
        return out, None

    def backward(g):
        dz = ad.layer_norm_backward(g, P["ln_g"], normed, std)
        dx, grads = branch_backward(dz)
        grads["ln_g"], grads["ln_b"] = _bias_grad(g * normed), _bias_grad(g)
        return dz + dx, grads

    return out, backward


def _sublayer(h: Tensor, params: ModelParams, prefix: str, names: tuple, forward) -> Tensor:
    """One fused graph node over h and the parameters prefix.<names>.

    forward maps (h's array, {name: array}) to (output array, backward), and
    backward maps the output's gradient to (dh, {name: gradient}). Under
    no_grad every forward returns None for its backward instead of keeping
    its intermediates alive, so inference holds one stage's arrays at a time.
    """
    tensors = tuple(params.t(f"{prefix}.{s}") for s in names)
    out, backward = forward(h.data, {s: t.data for s, t in zip(names, tensors)})

    def vjp(g):
        dh, grads = backward(g)
        return (dh, *(grads[s] for s in names))

    return ad.fused(prefix, out, (h, *tensors), vjp)


def _attention_sublayer(h, params: ModelParams, layer: int, branch: str) -> Tensor:
    """LN(h + FF(heads(h))) over joints (spatial) or frames (temporal), one node."""
    h = ad.as_tensor(h)
    _check_act(h, params, name=branch)
    dims = params.dims
    # the attention runs over axis -2: joints as they are, frames swapped in
    swap = (lambda a: a) if branch == "spatial" else (lambda a: a.swapaxes(1, 2))

    def forward(x, P):
        heads, heads_backward = _attention(swap(x), P, dims)
        y, ff_backward = _mlp(heads, P, _ATTN_FF)

        def branch_backward(dy):
            dheads, grads = ff_backward(np.ascontiguousarray(swap(dy)))
            dx, attn_grads = heads_backward(dheads)
            grads.update(attn_grads)
            return swap(dx), grads

        return _residual_post_ln(x, swap(y), P, branch_backward)

    names = _QKV + (_GATED if dims.lowrank else ()) + _ATTN_FF + _LN
    return _sublayer(h, params, f"layer{layer}.{branch}", names, forward)


def spatial_attention(h, params: ModelParams, layer: int) -> Tensor:
    """Mix joints within each frame, residual and post-LN included:
    (B, T, J, D) -> (B, T, J, D)."""
    return _attention_sublayer(h, params, layer, "spatial")


def temporal_attention(h, params: ModelParams, layer: int) -> Tensor:
    """Mix frames within each joint, residual and post-LN included:
    (B, T, J, D) -> (B, T, J, D)."""
    return _attention_sublayer(h, params, layer, "temporal")


def _check_act(h: Tensor, params: ModelParams, name: str) -> None:
    dims = params.dims
    if h.ndim != 4 or h.shape[-1] != dims.d_model or h.shape[2] != dims.joints:
        raise DimsMismatch(
            f"{name} attention expects (B, T, {dims.joints}, {dims.d_model}), got {h.shape}"
        )
    if h.shape[1] != dims.window:
        raise DimsMismatch(
            f"{name} attention expects window {dims.window}, got {h.shape[1]}"
        )


def _ffn(h: Tensor, params: ModelParams, layer: int) -> Tensor:
    """Position-wise FFN sublayer, residual and post-LN included."""

    def forward(x, P):
        y, branch_backward = _mlp(x, P, _FFN)
        return _residual_post_ln(x, y, P, branch_backward)

    return _sublayer(h, params, f"layer{layer}.ffn", _FFN + _LN, forward)


def forward_backbone(features, token_mask, params: ModelParams) -> Tensor:
    """Embed then run all blocks; returns the (B, T, J, D) activation.

    Each block: spatial attention, temporal attention, position-wise FFN,
    each residual-added and layer-normalized (post-LN) inside its own
    sublayer node. With zero layers the embedding passes through exactly.
    """
    h = embed(features, token_mask, params)
    for i in range(params.dims.layers):
        h = spatial_attention(h, params, i)
        h = temporal_attention(h, params, i)
        h = _ffn(h, params, i)
    return h


def heads(act, params: ModelParams) -> dict[str, Tensor]:
    """The three linear output heads over a backbone activation.

    pred reads the final-token features per joint and emits all future
    frames at once, (B, T_f, J, 3); the two reconstruction heads map every
    in-window token back to coordinates, (B, T, J, 3). All heads share a
    fixed output gain so millimeter-scale targets are reachable early in
    training; zero weights still give exactly zero outputs.
    """
    act = ad.as_tensor(act)
    dims = params.dims
    if act.ndim != 4 or act.shape[-1] != dims.d_model:
        raise DimsMismatch(f"activation must be (B, T, J, {dims.d_model}), got {act.shape}")
    gain = dims.head_gain
    last = act[:, -1]  # (B, J, D)
    pred = ad.add(ad.matmul(last, params.t("heads.pred_w")), params.t("heads.pred_b"))
    b = act.shape[0]
    pred = ad.reshape(pred, (b, dims.joints, dims.future, 3))
    pred = ad.mul(ad.transpose(pred, (0, 2, 1, 3)), gain)
    mask_recon = ad.mul(
        ad.add(ad.matmul(act, params.t("heads.mask_w")), params.t("heads.mask_b")), gain
    )
    denoise_recon = ad.mul(
        ad.add(ad.matmul(act, params.t("heads.denoise_w")), params.t("heads.denoise_b")), gain
    )
    return {"pred": pred, "mask_recon": mask_recon, "denoise_recon": denoise_recon}


def _critic_mlp(x: Tensor, params: ModelParams, which: str) -> Tensor:
    p = f"critic.{which}"
    w1 = params.t(f"{p}.w1")
    if x.ndim != 2 or x.shape[1] != w1.shape[0]:
        raise DimsMismatch(
            f"{which} critic expects (N, {w1.shape[0]}), got {tuple(x.shape)}"
        )
    h = ad.tanh(ad.add(ad.matmul(x, w1), params.t(f"{p}.b1")))
    h = ad.tanh(ad.add(ad.matmul(h, params.t(f"{p}.w2")), params.t(f"{p}.b2")))
    out = ad.add(ad.matmul(h, params.t(f"{p}.w3")), params.t(f"{p}.b3"))
    return ad.reshape(out, (x.shape[0],))


def discriminate_fidelity(frames, params: ModelParams) -> Tensor:
    """Score single-frame realism: (N, J, 3) or (N, J*3) -> (N,) scores."""
    x = ad.as_tensor(frames)
    if x.ndim == 3:
        x = ad.reshape(x, (x.shape[0], x.shape[1] * x.shape[2]))
    return _critic_mlp(x, params, "fidelity")


def discriminate_continuity(pairs, params: ModelParams) -> Tensor:
    """Score consecutive-frame transitions: (N, 2*J*3) -> (N,) scores.

    The expected input layout is [frame_t, frame_{t+1} - frame_t], see
    continuity_inputs.
    """
    x = ad.as_tensor(pairs)
    return _critic_mlp(x, params, "continuity")


def continuity_inputs(window) -> Tensor:
    """Build critic inputs from a frame window (B, T, J, 3), T >= 2.

    Each of the T-1 consecutive pairs becomes one row: the first frame
    flattened, concatenated with the frame difference (the explicit
    difference channel is what lets the critic see motion directly).
    """
    w = ad.as_tensor(window)
    if w.ndim != 4 or w.shape[1] < 2:
        raise DimsMismatch(f"window must be (B, T>=2, J, 3), got {w.shape}")
    b, t, j, _ = w.shape
    first = ad.reshape(w[:, :-1], (b * (t - 1), j * 3))
    second = ad.reshape(w[:, 1:], (b * (t - 1), j * 3))
    return ad.concat([first, ad.sub(second, first)], axis=-1)


def fidelity_inputs(frames) -> Tensor:
    """Flatten a frame batch (B, T, J, 3) to critic rows (B*T, J*3)."""
    f = ad.as_tensor(frames)
    if f.ndim != 4:
        raise DimsMismatch(f"frames must be (B, T, J, 3), got {f.shape}")
    b, t, j, _ = f.shape
    return ad.reshape(f, (b * t, j * 3))


def parameter_gradients(loss: Tensor, params: ModelParams, names: list[str] | None = None) -> np.ndarray:
    """Flat gradient of a scalar loss over the named parameters.

    Parameters the loss does not touch get exact zeros. Raises
    BackwardBeforeForward when the loss carries no graph (e.g. it was
    computed under no_grad or from plain arrays).
    """
    if not isinstance(loss, Tensor) or not loss.requires_grad:
        raise BackwardBeforeForward(
            "loss has no computation graph; run the forward pass first"
        )
    names = params.names if names is None else names
    grads = ad.grad(loss, [params.tensors[n] for n in names])
    return np.concatenate([g.data.ravel() for g in grads])
