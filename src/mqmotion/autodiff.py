"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Most backward rules are themselves written with Tensor operations, so with
``create_graph=True`` a gradient is a differentiable graph node. That is
what makes the gradient-penalty term trainable: the norm of a critic's
input gradient can be differentiated a second time with respect to the
critic's parameters.

Only what the model needs is implemented: broadcasting arithmetic, matmul
with batched leading dims, reductions, shape ops, basic slicing, and the
smooth nonlinearities (exp, log, tanh, sqrt). These primitives have exact
higher-order gradients.

The fused nodes softmax, layer_norm and gelu are first-order only. Each is
one graph node whose forward and closed-form VJP are plain numpy, because
they sit on the backbone path, which is only ever differentiated once; as
chains of primitives they made up most of a training step's graph. A
backward with ``create_graph=True`` that reaches one of them raises
NotImplementedError rather than return a gradient without its graph. The
critics, whose input gradients are differentiated again, are built from
primitives only (matmul, add, tanh).
"""
from __future__ import annotations

import contextlib

import numpy as np

from .errors import BackwardBeforeForward

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 ndarray with an optional backward graph."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjps: tuple = ()

    # introspection

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, c):
        return power(self, c)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _attach(out: Tensor, parents: tuple, vjps: tuple) -> Tensor:
    if _grad_enabled:
        kept = [(p, f) for p, f in zip(parents, vjps) if p.requires_grad]
        if kept:
            out.requires_grad = True
            out._parents = tuple(p for p, _ in kept)
            out._vjps = tuple(f for _, f in kept)
    return out


def _unbroadcast(g: Tensor, shape: tuple) -> Tensor:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = tsum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = tsum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


# arithmetic primitives

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    return _attach(
        out,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data)
    return _attach(out, (a,), (lambda g: neg(g),))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)
    return _attach(
        out,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(neg(g), b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)
    return _attach(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(mul(g, b), a.shape),
            lambda g: _unbroadcast(mul(g, a), b.shape),
        ),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data)
    return _attach(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(div(g, b), a.shape),
            lambda g: _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape),
        ),
    )


def power(a, c) -> Tensor:
    """Elementwise a**c for a constant real exponent."""
    a = as_tensor(a)
    c = float(c)
    out = Tensor(a.data ** c)
    return _attach(out, (a,), (lambda g: mul(mul(g, c), power(a, c - 1.0)),))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.sqrt(a.data))
    return _attach(out, (a,), (lambda g: div(g, mul(out, 2.0)),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data))
    return _attach(out, (a,), (lambda g: mul(g, out),))


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data))
    return _attach(out, (a,), (lambda g: div(g, a),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.tanh(a.data))
    return _attach(out, (a,), (lambda g: mul(g, sub(1.0, mul(out, out))),))


# linear algebra

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out = Tensor(np.matmul(a.data, b.data))
    return _attach(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(matmul(g, swapaxes(b, -1, -2)), a.shape),
            lambda g: _unbroadcast(matmul(swapaxes(a, -1, -2), g), b.shape),
        ),
    )


# reductions and shape ops

def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.sum(a.data, axis=axis, keepdims=keepdims))

    def vjp(g):
        if axis is None:
            return broadcast_to(reshape(g, (1,) * a.ndim), a.shape)
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % a.ndim for ax in axes)
        if not keepdims:
            kept = list(g.shape)
            for ax in sorted(axes):
                kept.insert(ax, 1)
            g = reshape(g, tuple(kept))
        return broadcast_to(g, a.shape)

    return _attach(out, (a,), (vjp,))


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= a.shape[ax]
    return div(tsum(a, axis=axis, keepdims=keepdims), float(n))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    return _attach(out, (a,), (lambda g: reshape(g, a.shape),))


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.broadcast_to(a.data, shape).copy())
    return _attach(out, (a,), (lambda g: _unbroadcast(g, a.shape),))


def swapaxes(a, ax1, ax2) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.swapaxes(a.data, ax1, ax2))
    return _attach(out, (a,), (lambda g: swapaxes(g, ax1, ax2),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = Tensor(np.transpose(a.data, axes))
    inv = tuple(int(i) for i in np.argsort(axes))
    return _attach(out, (a,), (lambda g: transpose(g, inv),))


def take(a, idx) -> Tensor:
    """Basic slicing/indexing; gradient scatters back into zeros."""
    a = as_tensor(a)
    out = Tensor(np.array(a.data[idx]))
    return _attach(out, (a,), (lambda g: scatter(g, idx, a.shape),))


def scatter(g, idx, shape) -> Tensor:
    g = as_tensor(g)
    data = np.zeros(shape, dtype=np.float64)
    data[idx] = g.data
    out = Tensor(data)
    return _attach(out, (g,), (lambda gg: take(gg, idx),))


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    ax = axis % out.ndim
    vjps = []
    offset = 0
    for t in tensors:
        n = t.shape[ax]
        sl = (slice(None),) * ax + (slice(offset, offset + n),)
        vjps.append(lambda g, sl=sl: take(g, sl))
        offset += n
    return _attach(out, tuple(tensors), tuple(vjps))


# fused first-order nodes

def _fused(name: str, data: np.ndarray, parents: tuple, vjps: tuple) -> Tensor:
    """One graph node whose VJPs map a numpy gradient to numpy arrays.

    Backward runs with graph building enabled only under create_graph=True,
    and these VJPs cannot build a graph, so that case raises.
    """

    def lift(vjp):
        def tensor_vjp(g: Tensor) -> Tensor:
            if _grad_enabled:
                raise NotImplementedError(
                    f"{name} is first-order only; create_graph=True cannot pass through it"
                )
            return Tensor(vjp(g.data))

        return tensor_vjp

    return _attach(Tensor(data), parents, tuple(lift(f) for f in vjps))


def softmax(a, axis=-1) -> Tensor:
    """Shift-stabilized softmax; the shift is a constant, which is exact."""
    a = as_tensor(a)
    e = np.exp(a.data - np.max(a.data, axis=axis, keepdims=True))
    y = e / np.sum(e, axis=axis, keepdims=True)

    def vjp(g):
        return y * (g - np.sum(g * y, axis=axis, keepdims=True))

    return _fused("softmax", y, (a,), (vjp,))


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = float(x.shape[-1])
    xc = x.data - np.sum(x.data, axis=-1, keepdims=True) / n
    std = np.sqrt(np.sum(xc * xc, axis=-1, keepdims=True) / n + eps)
    # divide rather than multiply by 1/std: the same rounding as the
    # primitive chain this node replaced
    y = xc / std

    def vjp_x(g):
        gy = g * gamma.data
        mean_gy = np.sum(gy, axis=-1, keepdims=True) / n
        mean_gyy = np.sum(gy * y, axis=-1, keepdims=True) / n
        return (gy - mean_gy - y * mean_gyy) / std

    return _fused(
        "layer_norm",
        y * gamma.data + beta.data,
        (x, gamma, beta),
        (
            vjp_x,
            lambda g: _unbroadcast(Tensor(g * y), gamma.shape).data,
            lambda g: _unbroadcast(Tensor(g), beta.shape).data,
        ),
    )


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(x) -> Tensor:
    """tanh-form gelu: smooth everywhere, safe for finite differences."""
    x = as_tensor(x)
    xd = x.data
    t = np.tanh(_GELU_C * (xd + _GELU_A * (xd * xd * xd)))

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * (xd * xd))
        return g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner)

    return _fused("gelu", (0.5 * xd) * (1.0 + t), (x,), (vjp,))


# backward

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def grad(
    output: Tensor,
    inputs: list[Tensor],
    create_graph: bool = False,
    grad_output: Tensor | None = None,
) -> list[Tensor]:
    """Gradients of a scalar output with respect to each input tensor.

    Inputs the output does not depend on get exact zeros. With
    ``create_graph=True`` the returned tensors carry graphs and can be
    differentiated again.
    """
    if not isinstance(output, Tensor):
        raise BackwardBeforeForward("output is not a Tensor from a forward pass")
    if grad_output is None:
        if output.size != 1:
            raise ValueError(f"output must be scalar, got shape {output.shape}")
        grad_output = Tensor(np.ones_like(output.data))
    if not output.requires_grad:
        raise BackwardBeforeForward(
            "output carries no graph; run the forward pass with gradients enabled"
        )

    order = _topo_order(output)
    grads: dict[int, Tensor] = {id(output): as_tensor(grad_output)}
    input_ids = {id(t) for t in inputs}

    ctx = contextlib.nullcontext() if create_graph else no_grad()
    with ctx:
        for node in reversed(order):
            g = grads.get(id(node))
            if g is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                pg = vjp(g)
                prev = grads.get(id(parent))
                grads[id(parent)] = pg if prev is None else add(prev, pg)
            if id(node) not in input_ids:
                del grads[id(node)]

    out = []
    for t in inputs:
        g = grads.get(id(t))
        out.append(g if g is not None else Tensor(np.zeros_like(t.data)))
    return out


def finite_difference(f, x0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle for a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    x = x0.copy()
    for i in range(x0.size):
        x[i] = x0[i] + step
        hi = f(x)
        x[i] = x0[i] - step
        lo = f(x)
        x[i] = x0[i]
        g[i] = (hi - lo) / (2.0 * step)
    return g
