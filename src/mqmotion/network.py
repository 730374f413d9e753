"""Spatio-temporal backbone, output heads, and the two critics.

Tokens are joint-frames: an input window becomes a (B, T, J, D) activation
where spatial attention mixes joints within a frame and temporal attention
mixes frames within a joint. Both attentions are low-rank: queries and
keys are projected to rank r per head and normalized (softmax over the
rank axis for queries, over the token axis for keys), so aggregation costs
O(tokens * r) instead of O(tokens^2); a learnable square gate (initialized
to identity) then remixes token outputs per head. With the low-rank flag
off, a plain full-rank scaled-dot-product block is used and the gates
disappear.

Each attention ends with a small feed-forward over the concatenated heads;
each block runs spatial attention, temporal attention, and a position-wise
FFN, every sublayer wrapped in residual-plus-layernorm. Zero blocks means
the embedding passes through untouched.

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


def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, t, n, d = x.shape
    x = ad.reshape(x, (b, t, n, heads, d // heads))
    return ad.transpose(x, (0, 1, 3, 2, 4))  # (B, T, H, N, Dh)


def _merge_heads(x: Tensor) -> Tensor:
    b, t, h, n, dh = x.shape
    x = ad.transpose(x, (0, 1, 3, 2, 4))
    return ad.reshape(x, (b, t, n, h * dh))


def _attention_heads(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    """Gated per-head aggregation over the second-to-last axis of x.

    x is (B, G, N, D): attention runs over the N tokens within each of the
    G groups. Returns the concatenated heads (B, G, N, D), before the
    attention feed-forward.
    """
    dims = params.dims
    q = ad.add(ad.matmul(x, params.t(f"{prefix}.wq")), params.t(f"{prefix}.bq"))
    k = ad.add(ad.matmul(x, params.t(f"{prefix}.wk")), params.t(f"{prefix}.bk"))
    v = ad.add(ad.matmul(x, params.t(f"{prefix}.wv")), params.t(f"{prefix}.bv"))
    qh = _split_heads(q, dims.heads)
    kh = _split_heads(k, dims.heads)
    vh = _split_heads(v, dims.heads)
    if dims.lowrank:
        # phi(Q): rows normalized over the rank axis; phi(K): over tokens
        aq = ad.softmax(
            ad.add(ad.matmul(qh, params.t(f"{prefix}.pq")), params.t(f"{prefix}.pq_b")),
            axis=-1,
        )
        ak = ad.softmax(
            ad.add(ad.matmul(kh, params.t(f"{prefix}.pk")), params.t(f"{prefix}.pk_b")),
            axis=-2,
        )
        ctx = ad.matmul(ad.swapaxes(ak, -1, -2), vh)  # (B, G, H, r, Dh)
        out = ad.matmul(aq, ctx)  # (B, G, H, N, Dh)
        out = ad.matmul(params.t(f"{prefix}.gate"), out)
    else:
        scores = ad.mul(
            ad.matmul(qh, ad.swapaxes(kh, -1, -2)), 1.0 / np.sqrt(dims.head_dim)
        )
        out = ad.matmul(ad.softmax(scores, axis=-1), vh)
    return _merge_heads(out)


def _attention_ff(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    h = ad.gelu(ad.add(ad.matmul(x, params.t(f"{prefix}.ff_w1")), params.t(f"{prefix}.ff_b1")))
    return ad.add(ad.matmul(h, params.t(f"{prefix}.ff_w2")), params.t(f"{prefix}.ff_b2"))


def spatial_attention(h, params: ModelParams, layer: int, pre_ff: bool = False) -> Tensor:
    """Mix joints within each frame: (B, T, J, D) -> (B, T, J, D)."""
    h = ad.as_tensor(h)
    _check_act(h, params, name="spatial")
    prefix = f"layer{layer}.spatial"
    heads = _attention_heads(h, params, prefix)
    return heads if pre_ff else _attention_ff(heads, params, prefix)


def temporal_attention(h, params: ModelParams, layer: int, pre_ff: bool = False) -> Tensor:
    """Mix frames within each joint: (B, T, J, D) -> (B, T, J, D)."""
    h = ad.as_tensor(h)
    _check_act(h, params, name="temporal")
    prefix = f"layer{layer}.temporal"
    ht = ad.swapaxes(h, 1, 2)  # (B, J, T, D)
    out = _attention_heads(ht, params, prefix)
    if not pre_ff:
        out = _attention_ff(out, params, prefix)
    return ad.swapaxes(out, 1, 2)


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
    p = f"layer{layer}.ffn"
    inner = ad.gelu(ad.add(ad.matmul(h, params.t(f"{p}.w1")), params.t(f"{p}.b1")))
    return ad.add(ad.matmul(inner, params.t(f"{p}.w2")), params.t(f"{p}.b2"))


def _post_ln(h: Tensor, params: ModelParams, prefix: str) -> Tensor:
    return ad.layer_norm(h, params.t(f"{prefix}.ln_g"), params.t(f"{prefix}.ln_b"))


def forward_backbone(features, token_mask, params: ModelParams) -> Tensor:
    """Embed then run all blocks; returns the (B, T, J, D) activation.

    Each block: spatial attention, temporal attention, position-wise FFN,
    each residual-added and layer-normalized (post-LN). With zero layers
    the embedding passes through exactly.
    """
    h = embed(features, token_mask, params)
    for i in range(params.dims.layers):
        h = _post_ln(ad.add(h, spatial_attention(h, params, i)), params, f"layer{i}.spatial")
        h = _post_ln(ad.add(h, temporal_attention(h, params, i)), params, f"layer{i}.temporal")
        h = _post_ln(ad.add(h, _ffn(h, params, i)), params, f"layer{i}.ffn")
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
