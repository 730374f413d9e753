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
node (autodiff.fused): a numpy forward that keeps the intermediates its
backward reads and a closed-form numpy backward. Two cheap arrays are
rebuilt there instead of kept, each by the forward's own ops, so with the
same bytes: a feed-forward's gelu output, from its pre-activation and tanh
term, and an attention's heads, the input of its feed-forward, from the
gate and mixed heads (or the attention weights and values). Under no_grad
forward_backbone runs the same numpy forwards on plain arrays and makes no
node. In the low-rank form the rank projections fold into the query and
key projections, x @ (w p) instead of (x @ w) @ p, which changes rounding
but not the function; a training pass folds the live weights, a
prediction snapshot folds once.
The query's one bias bq is (H*r) and is added to the folded projection: a
(D) bias ahead of the rank projection would reach the logits only through
it, which a rank-width bias already spans.

The prediction head reads only each joint's final-frame token, so the
passes that feed it (training's clean pass and every predictor call) ask
forward_backbone for the final frame alone: the last block's temporal
attention queries that frame only, and its feed-forward, post-LN and the
block's FFN run there only. The masked and noised passes, whose
reconstruction heads read every token, run the whole window.

Every op works within one window: attention mixes the tokens of one
window only, the FFN, layer norm and softmax work per token or per row,
and numpy's matmul runs one GEMM per stacked (tokens x d_model) matrix.
So a window's outputs have the same bytes whatever batch it runs in, and
train.make_predictor runs a large batch as cache-sized slices of windows.

The Tensor returned by the forward functions carries the backward graph;
that graph is the "activation cache" consumed by parameter_gradients.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import streams
from .autodiff import Tensor
from .errors import DimsMismatch, NumericalInstability
from .losses import penalty_of_gradients
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
        # every size field: a float size would reach numpy's shapes and slices
        # (postponed annotations make each field's type the string "int")
        for name in (f.name for f in fields(self) if f.type == "int"):
            v, low = getattr(self, name), 0 if name == "layers" else 1
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
                raise DimsMismatch(f"{name} must be an integer >= {low}, got {v!r}")
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


# the weights _mlp reads, by suffix: an attention's feed-forward and the FFN
_ATTN_FF = ("ff_w1", "ff_b1", "ff_w2", "ff_b2")
_FFN = ("w1", "b1", "w2", "b2")
# the weights _critic_forward reads, by suffix: an MLP, then the scoring column
_CRITIC = (*_FFN, "w3")
HEAD_NAMES = ("pred", "mask_recon", "denoise_recon")


def _head(name: str) -> str:
    """The parameter prefix of the output head name: heads.pred, heads.mask or
    heads.denoise, followed by _w and _b."""
    return f"heads.{name.split('_')[0]}"


def _mlp_spec(p: str, names: tuple, d_in: int, width: int, d_out: int) -> list:
    """The spec entries of an MLP p.{w1, b1, w2, b2}, suffixes as in names."""
    w1, b1, w2, b2 = (f"{p}.{s}" for s in names)
    return [(w1, (d_in, width), "uniform"), (b1, (width,), "zeros"),
            (w2, (width, d_out), "uniform"), (b2, (d_out,), "zeros")]


def _ln_spec(p: str, d: int) -> list:
    """The spec entries of a post-LN's gain and shift."""
    return [(f"{p}.ln_g", (d,), "ones"), (f"{p}.ln_b", (d,), "zeros")]


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
                (f"{p}.bq", (h * r,) if dims.lowrank else (d,), "zeros"),
                (f"{p}.wk", (d, d), "uniform"),
                (f"{p}.wv", (d, d), "uniform"),
                (f"{p}.bv", (d,), "zeros"),
            ]
            if dims.lowrank:
                spec += [
                    (f"{p}.pq", (h, dh, r), "uniform"),
                    (f"{p}.pk", (h, dh, r), "uniform"),
                    (f"{p}.gate", (tokens, tokens), "eye"),
                ]
            spec += _mlp_spec(p, _ATTN_FF, d, d, d) + _ln_spec(p, d)
        p = f"layer{i}.ffn"
        spec += _mlp_spec(p, _FFN, d, dims.ffn_mult * d, d) + _ln_spec(p, d)
    for name, width in zip(HEAD_NAMES, (dims.future * 3, 3, 3)):
        p = _head(name)
        spec += [(f"{p}_w", (d, width), "uniform"), (f"{p}_b", (width,), "zeros")]
    w = dims.critic_width
    for name, width_in in (("fidelity", dims.joints * 3), ("continuity", 2 * dims.joints * 3)):
        p = f"critic.{name}"
        spec += _mlp_spec(p, _CRITIC[:-1], width_in, w, w)
        spec.append((f"{p}.{_CRITIC[-1]}", (w, 1), "uniform"))
    return spec


def _param_count(dims: ModelDims) -> int:
    """The length of dims' parameter vector, from _param_spec at 0 and 1
    layers: every layer adds the same arrays, so no layer past one is listed."""
    base, one = (sum(math.prod(shape) for _, shape, _ in _param_spec(replace(dims, layers=n)))
                 for n in (0, 1))
    return base + dims.layers * (one - base)


class ModelParams:
    """All trainable arrays as named views into one float64 or float32 vector.

    ``vec`` holds every array raveled in ``_param_spec`` order and each
    named tensor's ``.data`` is a reshaped view into it. The spec lists the
    ``critic.*`` arrays last, so ``generator`` and ``critic`` are views of
    the vector's leading and trailing slices: the optimizers step them in
    place and checkpoints store ``vec``. flat() and set_flat() copy a name
    subset out of and back into the views. Tensors keep the vector's dtype.
    init draws float64; training holds one float32 vector (train.Trainer's
    params: the cast of init, or a checkpoint's values), and the prediction
    pass (train.make_predictor) computes on a float32 copy.
    """

    def __init__(self, dims: ModelDims, vec: np.ndarray):
        n = _param_count(dims)  # checked before the spec lists every layer
        if vec.shape != (n,) or vec.dtype not in (np.float64, np.float32):
            raise DimsMismatch(f"need {n} float64 or float32 parameters, "
                               f"got {vec.dtype} {vec.shape}")
        spec = _param_spec(dims)
        sizes = [math.prod(shape) for _, shape, _ in spec]
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
        # (layer, branch) -> (suffixes, tensors, {suffix: array}): the spec's
        # layer<i>.<branch>.<suffix> entries in spec order, arrays views into vec
        groups: dict[tuple[int, str], dict[str, Tensor]] = {}
        for name, t in self.tensors.items():
            if name.startswith("layer"):
                layer, branch, suffix = name.split(".")
                groups.setdefault((int(layer.removeprefix("layer")), branch), {})[suffix] = t
        self._sublayers = {key: (tuple(g), tuple(g.values()), {s: t.data for s, t in g.items()})
                           for key, g in groups.items()}

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
        mag, cos, _valid = _kernels.quotient_channels(obs)
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
        mf = Tensor(np.asarray(token_mask, dtype=emb.data.dtype)[..., None])
        token = params.t("mask_token")
        emb = ad.add(ad.mul(ad.sub(1.0, mf), emb), ad.mul(mf, token))
    return emb


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
    """Gradient of b in x @ W + b: dy summed over every token axis, by one
    einsum, which adds the rows in np.sum's order, one row after another,
    without np.sum's loop per row of a narrow array."""
    return np.einsum("ij->j", dy.reshape(-1, dy.shape[-1]))


def _fold(w, p, heads: int):
    """Fold a per-head rank projection into the projection it follows.

    With w (D, D) and p (H, Dh, r), returns W (D, H*r) such that x @ W
    equals, head by head, the rank-r map (x @ w)[head's Dh columns] @ p[head].
    """
    d = w.shape[0]
    w3 = w.reshape(d, heads, -1).transpose(1, 0, 2)  # (H, D, Dh)
    return (w3 @ p).transpose(1, 0, 2).reshape(d, -1)


def _folds(P: dict, heads: int) -> tuple:
    """The low-rank attention's weight-only products: the query and key
    projections with their rank projections folded in. Each pass folds the
    live weights; a snapshot (fold_snapshot) holds them under "folds"."""
    return _fold(P["wq"], P["pq"], heads), _fold(P["wk"], P["pk"], heads)


def _unfold_grads(dw_f, w, p, heads: int):
    """Chain the gradient of _fold's W back to those of (w, p)."""
    d = w.shape[0]
    dw3 = dw_f.reshape(d, heads, -1).transpose(1, 0, 2)  # (H, D, r)
    w3 = w.reshape(d, heads, -1).transpose(1, 0, 2)  # (H, D, Dh)
    return (dw3 @ p.swapaxes(-1, -2)).transpose(1, 0, 2).reshape(d, -1), w3.swapaxes(-1, -2) @ dw3


def _softmax_grad(y: np.ndarray, a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """Backward of a (B, G, N, H, r) softmax y, given its gradient a @ b in
    (B, G, H, N, r) order. The product is written straight into y's layout,
    so the kernel reads it contiguously."""
    grad = np.empty_like(y)
    np.matmul(a, b, out=grad.transpose(0, 1, 3, 2, 4))
    return ad.softmax_backward(y, grad, axis)


def _attention(x: np.ndarray, P: dict, dims: ModelDims, last: bool = False):
    """Attention heads over the second-to-last axis of x (B, G, N, D).

    Attention runs over the N tokens within each of the G groups. Returns
    the concatenated heads (B, G, N, D), before the attention feed-forward,
    and their backward, or None under no_grad. The backward takes the
    feed-forward's backward, a map from the heads to (their gradient,
    {parameter suffix: gradient}), and returns (dx, those gradients and the
    attention's): the heads are not kept but rebuilt from the arrays this
    backward holds anyway, gate and mixed, or att and vh. Keys have no bias:
    a bias adds the same logit to every token of a head, which the softmax
    over tokens cancels.

    With last set, only each group's final token is an output, (B, G, 1, D):
    the gate's last row in the low-rank form, the last query row in the
    full-rank form. Keys and values still span all N tokens, and dx still
    covers all of x.
    """
    b, g, n, d = x.shape
    h, dh, r = dims.heads, dims.head_dim, dims.rank

    def split(a, w):  # (B, G, M, H*w) -> (B, G, H, M, w), a view
        return a.reshape(b, g, -1, h, w).transpose(0, 1, 3, 2, 4)

    def merge(a):  # (B, G, H, M, w) -> (B, G, M, H*w)
        return a.transpose(0, 1, 3, 2, 4).reshape(b, g, a.shape[3], -1)

    vh = x @ P["wv"]
    vh += P["bv"]
    vh = split(vh, dh)
    # the queried rows: every token, or the last one of the full-rank form
    xq = x[:, :, -1:] if last and not dims.lowrank else x
    if dims.lowrank:
        # The rank projections fold into the query and key projections, and
        # the gate, shared by all heads, mixes the merged heads at once. The
        # softmaxes run on (B, G, N, H, r) arrays, contiguous over the rank.
        wq, wk = P["folds"] if "folds" in P else _folds(P, h)
        q = x @ wq
        q += P["bq"]
        aq = ad.softmax_forward(q.reshape(b, g, n, h, r), -1)  # phi(Q): over the rank
        ak = ad.softmax_forward((x @ wk).reshape(b, g, n, h, r), 2)  # phi(K): over tokens
        aqh, akh = aq.transpose(0, 1, 3, 2, 4), ak.transpose(0, 1, 3, 2, 4)
        ctx = akh.swapaxes(-1, -2) @ vh  # (B, G, H, r, Dh)
        mixed = merge(aqh @ ctx)
        gate = P["gate"][-1:] if last else P["gate"]
        out = gate @ mixed
    else:
        scale = 1.0 / math.sqrt(dh)  # a Python float keeps float32 logits float32
        wq, wk = P["wq"], P["wk"]
        qh = xq @ wq
        qh += P["bq"]
        qh = split(qh, dh)
        kh = split(x @ wk, dh)
        att = ad.softmax_forward((qh @ kh.swapaxes(-1, -2)) * scale, -1)
        out = merge(att @ vh)
    if not ad.grad_enabled():
        return out, None  # and the intermediates go with this frame

    def backward(ff_backward):
        dout, grads = ff_backward(gate @ mixed if dims.lowrank else merge(att @ vh))
        if dims.lowrank:
            dgate = (dout @ mixed.swapaxes(-1, -2)).reshape(b * g, -1, n).sum(axis=0)
            grads["gate"] = np.concatenate([np.zeros((n - 1, n), dgate.dtype), dgate]) if last else dgate
            dmixed = split(gate.T @ dout, dh)
            dctx = aqh.swapaxes(-1, -2) @ dmixed
            dvh = akh @ dctx
            dq = _softmax_grad(aq, dmixed, ctx.swapaxes(-1, -2), -1).reshape(b, g, n, -1)
            dk = _softmax_grad(ak, vh, dctx.swapaxes(-1, -2), 2).reshape(b, g, n, -1)
        else:
            douth = split(dout, dh)
            dvh = att.swapaxes(-1, -2) @ douth
            ds = ad.softmax_backward(att, douth @ vh.swapaxes(-1, -2), -1) * scale
            dq, dk = merge(ds @ kh), merge(ds.swapaxes(-1, -2) @ qh)
        dv = merge(dvh)
        xs = x.reshape(b, -1, d)  # copies a swapped (temporal) input once
        grads["wv"], grads["bv"] = _weight_grad(xs, dv), _bias_grad(dv)
        grads["wq"] = _weight_grad(xs if xq is x else xq.reshape(b, -1, d), dq)
        grads["bq"] = _bias_grad(dq)
        grads["wk"] = _weight_grad(xs, dk)
        dx = dv @ P["wv"].T
        dx[:, :, -dq.shape[2]:] += dq @ wq.T  # the queried rows
        dx += dk @ wk.T
        if dims.lowrank:
            grads["wq"], grads["pq"] = _unfold_grads(grads["wq"], P["wq"], P["pq"], h)
            grads["wk"], grads["pk"] = _unfold_grads(grads["wk"], P["wk"], P["pk"], h)
        return dx, grads

    return out, backward


def _mlp(x: np.ndarray, P: dict, names: tuple):
    """gelu MLP over the last axis with weights P[names] = (w1, b1, w2, b2).

    Returns y and its backward, or None under no_grad. The backward maps
    (dy, x) to (dx, {suffix: gradient}); it keeps neither x, which the
    caller holds or rebuilds, nor the gelu output, which it rebuilds from
    (pre, t) for w2's gradient alone.
    """
    w1, b1, w2, b2 = (P[s] for s in names)
    pre = x @ w1
    pre += b1
    hidden, t = ad.gelu_forward(pre)
    y = hidden @ w2
    y += b2
    if not ad.grad_enabled():
        return y, None

    def backward(dy, x):
        dpre = ad.gelu_backward(pre, t, dy @ w2.T)
        grads = (_weight_grad(x, dpre), _bias_grad(dpre),
                 _weight_grad(ad.gelu_output(pre, t), dy), _bias_grad(dy))
        return dpre @ w1.T, dict(zip(names, grads))

    return y, backward


def _residual_post_ln(x: np.ndarray, y: np.ndarray, P: dict, branch_backward,
                      last: bool = False):
    """LN(x + y) and the backward of the whole residual sublayer.

    branch_backward maps the gradient of y to (dx, grads) for the branch
    that computed y from x. With last set, y is the branch output at x's
    final frame only, (B, 1, J, D), and so is the sublayer's output.

    A non-finite std raises NumericalInstability: a sum of squares that
    overflowed (near 1e19 per entry in a float32 pass, 1e154 in float64)
    would make std inf and the normalized output silently zero.
    """
    out, normed, std = ad.layer_norm_forward((x[:, -1:] if last else x) + y,
                                             P["ln_g"], P["ln_b"])
    if not np.isfinite(std).all():
        raise NumericalInstability(f"a layer norm's sum of squares is not finite "
                                   f"({x.dtype} activations)")
    if not ad.grad_enabled():
        return out, None

    def backward(g):
        dz = ad.layer_norm_backward(g, P["ln_g"], normed, std)
        dx, grads = branch_backward(dz)
        grads["ln_g"], grads["ln_b"] = _bias_grad(g * normed), _bias_grad(g)
        if last:
            dx[:, -1:] += dz
            return dx, grads
        return dz + dx, grads

    return out, backward


def _sublayer_forward(x: np.ndarray, P: dict, dims: ModelDims, branch: str,
                      last: bool = False):
    """The numpy forward of one sublayer on x, residual and post-LN included:
    (output, backward), where backward maps the output's gradient to (dx,
    {suffix: gradient}), or None under no_grad, which keeps no intermediates,
    so inference holds one stage's arrays at a time.

    branch is "ffn", or the attention over joints ("spatial") or frames
    ("temporal"); with last (temporal only), at the final frame only.
    """
    if branch == "ffn":
        y, ffn_backward = _mlp(x, P, _FFN)
        return _residual_post_ln(x, y, P, lambda dy: ffn_backward(dy, x))
    # the attention runs over axis -2: joints as they are, frames swapped in
    swap = (lambda a: a) if branch == "spatial" else (lambda a: a.swapaxes(1, 2))
    heads, heads_backward = _attention(swap(x), P, dims, last)
    y, ff_backward = _mlp(heads, P, _ATTN_FF)

    def branch_backward(dy):
        dy = np.ascontiguousarray(swap(dy))
        dx, grads = heads_backward(lambda heads: ff_backward(dy, heads))
        return swap(dx), grads

    return _residual_post_ln(x, swap(y), P, branch_backward, last)


def _node(h, params: ModelParams, layer: int, branch: str, last: bool = False) -> Tensor:
    """One sublayer as one fused graph node over h and its parameters; an
    attention branch checks h's shape first."""
    h = ad.as_tensor(h)
    if branch != "ffn":
        _check_act(h.shape, params.dims, branch)
    names, tensors, P = params._sublayers[layer, branch]
    out, backward = _sublayer_forward(h.data, P, params.dims, branch, last)

    def vjp(g):
        dh, grads = backward(g)
        return (dh, *(grads[s] for s in names))

    return ad.fused(out, (h, *tensors), vjp)


def spatial_attention(h, params: ModelParams, layer: int) -> Tensor:
    """Mix joints within each frame, residual and post-LN included:
    (B, T, J, D) -> (B, T, J, D)."""
    return _node(h, params, layer, "spatial")


def temporal_attention(h, params: ModelParams, layer: int, last_frame: bool = False) -> Tensor:
    """Mix frames within each joint, residual and post-LN included:
    (B, T, J, D) -> (B, T, J, D), or (B, 1, J, D) with last_frame, where
    only the final frame is queried (keys and values span every frame)."""
    return _node(h, params, layer, "temporal", last_frame)


def _check_act(shape: tuple, dims: ModelDims, name: str) -> None:
    if len(shape) != 4 or shape[-1] != dims.d_model or shape[2] != dims.joints:
        raise DimsMismatch(
            f"{name} attention expects (B, T, {dims.joints}, {dims.d_model}), got {shape}"
        )
    if shape[1] != dims.window:
        raise DimsMismatch(f"{name} attention expects window {dims.window}, got {shape[1]}")


def fold_snapshot(params: ModelParams) -> None:
    """Store each low-rank attention's folded query and key projections
    (_folds) beside its arrays, for no-grad passes over params that nothing
    updates any more: a prediction snapshot. The folds are those of params as
    they are now."""
    if params.dims.lowrank:
        for (_, branch), (_, _, P) in params._sublayers.items():
            if branch != "ffn":
                P["folds"] = _folds(P, params.dims.heads)


def forward_backbone(features, token_mask, params: ModelParams,
                     last_frame: bool = False) -> Tensor:
    """Embed then run all blocks; returns the (B, T, J, D) activation.

    Each block: spatial attention, temporal attention, position-wise FFN,
    each residual-added and layer-normalized (post-LN) inside its own
    sublayer node. With zero layers the embedding passes through exactly.

    With last_frame, returns the final frame's activation only, (B, 1, J, D),
    all that the pred head reads: the last block's spatial attention still
    runs on every frame and its temporal attention's keys and values still
    span the window, but its queries, feed-forward, post-LN and FFN run at
    the final frame alone. It equals the full activation's last frame up to
    rounding, and the backward still reaches every frame.

    Under no_grad the sublayers' numpy forwards run on plain arrays, with
    the bytes of the graph pass: the activation's joints and window are
    checked once, no node is made, and a snapshot's folds (fold_snapshot)
    stand in for folding the live weights.
    """
    h = embed(features, token_mask, params)
    dims = params.dims
    if last_frame and dims.layers == 0:
        return h[:, -1:]
    if ad.grad_enabled():
        for i in range(dims.layers):
            h = spatial_attention(h, params, i)
            h = temporal_attention(h, params, i, last_frame=last_frame and i == dims.layers - 1)
            h = _node(h, params, i, "ffn")
        return h
    h = h.data  # no name holds the embedding past the first sublayer
    if dims.layers:
        _check_act(h.shape, dims, "spatial")
    for (i, branch), (_, _, P) in params._sublayers.items():
        last = last_frame and i == dims.layers - 1 and branch == "temporal"
        h, _ = _sublayer_forward(h, P, dims, branch, last)
    return Tensor(h)


def heads(act, params: ModelParams, name: str) -> Tensor:
    """The linear output head name, one of HEAD_NAMES.

    pred reads the final-token features per joint and emits all future
    frames at once, (B, T_f, J, 3); the two reconstruction heads map every
    in-window token back to coordinates, (B, T, J, 3), so they need the
    full activation: on a last-frame activation only pred exists. All heads
    share a fixed output gain so millimeter-scale targets are reachable
    early in training; zero weights still give exactly zero outputs.

    Under no_grad pred computes on plain arrays, with the graph head's
    bytes, and returns one Tensor.
    """
    act = ad.as_tensor(act)
    dims = params.dims
    if act.ndim != 4 or act.shape[-1] != dims.d_model:
        raise DimsMismatch(f"activation must be (B, T, J, {dims.d_model}), got {act.shape}")
    if name not in HEAD_NAMES:
        raise ValueError(f"unknown head {name!r}; heads are {HEAD_NAMES}")
    gain = np.asarray(dims.head_gain, dtype=act.data.dtype)  # a float32 pass stays float32
    p = _head(name)
    w, b = params.t(f"{p}_w"), params.t(f"{p}_b")
    if name == "pred":
        if not ad.grad_enabled():
            pred = np.ascontiguousarray(act.data[:, -1]) @ w.data
            pred += b.data
            pred *= gain
            return Tensor(pred.reshape(act.shape[0], dims.joints, dims.future, 3)
                          .transpose(0, 2, 1, 3))
        last = act[:, -1]  # (B, J, D)
        pred = ad.add(ad.matmul(last, w), b)
        pred = ad.reshape(pred, (act.shape[0], dims.joints, dims.future, 3))
        return ad.mul(ad.transpose(pred, (0, 2, 1, 3)), gain)
    if act.shape[1] != dims.window:
        raise DimsMismatch(
            f"{name} needs the {dims.window}-frame activation, got {act.shape[1]} frames"
        )
    return ad.mul(ad.add(ad.matmul(act, w), b), gain)


def _critic_forward(params: ModelParams, which: str, x: np.ndarray):
    """D(x) = tanh(tanh(x W1 + b1) W2 + b2) w3 on rows x: the critic's five
    weight tensors, h1, h2 and the (N,) scores."""
    tensors = tuple(params.t(f"critic.{which}.{s}") for s in _CRITIC)
    w1, b1, w2, b2, w3 = (t.data for t in tensors)
    if x.ndim != 2 or x.shape[1] != w1.shape[0]:
        raise DimsMismatch(f"{which} critic expects (N, {w1.shape[0]}), got {tuple(x.shape)}")
    h1 = np.tanh(x @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    return tensors, h1, h2, (h2 @ w3)[:, 0]


def _discriminate(x: Tensor, params: ModelParams, which: str) -> Tensor:
    """The critic's scores of rows x, one node over (x, w1, b1, w2, b2, w3);
    its backward uses the expressions of the equivalent matmul/add/tanh chain,
    so the two give the same bits."""
    tensors, h1, h2, scores = _critic_forward(params, which, x.data)
    w1, _, w2, _, w3 = (t.data for t in tensors)

    def backward(g):
        g = g.reshape(-1, 1)
        da2 = (g @ w3.T) * (1.0 - h2 * h2)
        da1 = (da2 @ w2.T) * (1.0 - h1 * h1)
        return (da1 @ w1.T, x.data.T @ da1, da1.sum(axis=0), h1.T @ da2, da2.sum(axis=0),
                h2.T @ g)

    return ad.fused(scores, (x, *tensors), backward)


def discriminate_fidelity(frames, params: ModelParams) -> Tensor:
    """Score single-frame realism: (N, J*3) -> (N,) scores, see
    fidelity_inputs."""
    return _discriminate(ad.as_tensor(frames), params, "fidelity")


def discriminate_continuity(pairs, params: ModelParams) -> Tensor:
    """Score consecutive-frame transitions: (N, 2*J*3) -> (N,) scores.

    The expected input layout is [frame_t, frame_{t+1} - frame_t], see
    continuity_inputs.
    """
    return _discriminate(ad.as_tensor(pairs), params, "continuity")


@dataclass(frozen=True)
class Critic:
    """One of the model's two critics, "fidelity" or "continuity", whose
    WGAN-GP loss wgan_gp gives in closed form."""

    params: ModelParams
    which: str

    def wgan_gp(self, x_hat: np.ndarray, fake: np.ndarray, real: np.ndarray,
                gp_lambda: float) -> tuple[Tensor, float]:
        """E[D(fake)] - E[D(real)] + gp, as one node over the five weights.

        gp is the penalty of losses.penalty_of_gradients at the rows x_hat.
        One forward of the critic D (_critic_forward) scores the stacked
        [x_hat; fake; real] rows. With s = 1 - tanh^2, the input gradient is
        W1 (s1 * W2 (s2 * w3)), and the node's backward takes the penalty
        through it by the chain rule, with tanh' = s and s' = -2 tanh s. The
        rows are constants of the node. Returns (loss, gp).
        """
        x = np.concatenate([x_hat, fake, real])
        tensors, h1, h2, scores = _critic_forward(self.params, self.which, x)
        w1, _, w2, _, w3 = (t.data for t in tensors)
        n, nf, nr = len(x_hat), len(fake), len(real)
        s1, s2 = 1.0 - h1 * h1, 1.0 - h2 * h2
        # the input gradient at the interpolates, the first n rows
        u2 = s2[:n] * w3[:, 0]
        v1 = u2 @ w2.T
        u1 = s1[:n] * v1
        gp, slope = penalty_of_gradients(u1 @ w1.T, gp_lambda)
        loss = np.sum(scores[n:n + nf]) / float(nf) - np.sum(scores[n + nf:]) / float(nr) + gp

        def backward(g):
            # the penalty through the input gradient, interpolate rows only
            du1 = slope @ w1
            dw1 = slope.T @ u1
            dv1 = du1 * s1[:n]
            dw2 = dv1.T @ u2
            du2 = dv1 @ w2
            dw3 = np.sum(du2 * s2[:n], axis=0)[:, None]
            # the scores' slopes over all rows, then the penalty's terms in
            # s2 and s1, through s' = -2 tanh s
            c = np.zeros(len(x), x.dtype)
            c[n:n + nf] = 1.0 / nf
            c[n + nf:] = -1.0 / nr
            dw3 += h2.T @ c[:, None]
            da2 = c[:, None] * w3[:, 0] * s2
            da2[:n] -= 2.0 * h2[:n] * s2[:n] * (du2 * w3[:, 0])
            dw2 += h1.T @ da2
            da1 = (da2 @ w2.T) * s1
            da1[:n] -= 2.0 * h1[:n] * s1[:n] * (du1 * v1)
            dw1 += x.T @ da1
            return tuple(g * d for d in (dw1, da1.sum(axis=0), dw2, da2.sum(axis=0), dw3))

        return ad.fused(np.array(loss), tensors, backward), gp


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

    Parameters the loss does not touch get exact zeros. ad.grad raises
    BackwardBeforeForward when the loss carries no graph (e.g. it was
    computed under no_grad or from plain arrays).
    """
    names = params.names if names is None else names
    grads = ad.grad(loss, [params.tensors[n] for n in names])
    return np.concatenate([g.data.ravel() for g in grads])
