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

Fused nodes are first-order only. ``fused`` makes one graph node over any
number of parents from a numpy forward result and one closed-form numpy
backward that returns every parent's gradient. The backbone's sublayers in
``network`` are such nodes: spatial attention and temporal attention, each
with its feed-forward, and the position-wise FFN, each node including its
residual and post-LN. They are built on the numpy kernels here
(``softmax_forward``/``softmax_backward``, ``layer_norm_forward``/
``layer_norm_backward``, ``gelu_forward``/``gelu_backward``). The Tensor
ops ``softmax``, ``layer_norm`` and ``gelu`` wrap those kernels as fused
nodes of their own; no model code calls them, and they serve to test the
kernels against finite differences.

The backbone is only ever differentiated once; as chains of primitives its
sublayers made up most of a training step's graph. A backward with
``create_graph=True`` that reaches a fused node raises NotImplementedError
rather than return a gradient without its graph. The critics, whose input
gradients are differentiated again, are built from primitives only
(matmul, add, tanh).
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


def grad_enabled() -> bool:
    """Whether operations build a graph now (False inside no_grad)."""
    return _grad_enabled


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

def fused(name: str, data: np.ndarray, parents: tuple, backward) -> Tensor:
    """One graph node over several parents, with a numpy backward.

    backward maps the output's gradient (an ndarray) to a sequence of
    ndarray gradients, one per parent in order. It runs once per gradient
    reaching the node: the first parent's VJP calls it, and the results are
    handed out to the parents in the order grad visits them.

    Backward runs with graph building enabled only under create_graph=True,
    and a numpy backward cannot build a graph, so that case raises.
    """
    out = Tensor(data)
    if not _grad_enabled:
        return out
    last = max((i for i, p in enumerate(parents) if p.requires_grad), default=-1)
    memo: list = [None, None]  # (gradient seen, backward's results for it)

    def lift(i):
        def tensor_vjp(g: Tensor) -> Tensor:
            if _grad_enabled:
                raise NotImplementedError(
                    f"{name} is first-order only; create_graph=True cannot pass through it"
                )
            if memo[0] is not g:
                memo[0], memo[1] = g, backward(g.data)
            pg = memo[1][i]
            if i == last:
                memo[0] = memo[1] = None
            return Tensor(pg)

        return tensor_vjp

    return _attach(out, parents, tuple(lift(i) for i in range(len(parents))))


# np.max over the short axes the softmaxes reduce (rank 8, a few tokens) is
# several times slower than elementwise maxima over halves of the axis.

def _max_keepdims(a: np.ndarray, axis: int) -> np.ndarray:
    """np.max(a, axis, keepdims=True) by halving the axis; exact."""
    axis %= a.ndim
    while a.shape[axis] > 1:
        n = a.shape[axis]
        half = (n + 1) // 2  # an odd length overlaps the middle entry
        lead = (slice(None),) * axis
        a = np.maximum(a[lead + (slice(0, half),)], a[lead + (slice(n - half, n),)])
    return a


def softmax_forward(a: np.ndarray, axis: int) -> np.ndarray:
    """Shift-stabilized softmax; the shift is a constant, which is exact."""
    e = a - _max_keepdims(a, axis)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def softmax_backward(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """y * (g - sum(g * y)), computed in one scratch array."""
    d = g * y
    np.subtract(g, np.sum(d, axis=axis, keepdims=True), out=d)
    d *= y
    return d


def softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    y = softmax_forward(a.data, axis)
    return fused("softmax", y, (a,), lambda g: (softmax_backward(y, g, axis),))


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    """Normalize over the last axis, then scale and shift.

    Returns (output, normalized x, std); the last two feed layer_norm_backward.
    """
    n = float(x.shape[-1])
    y = x - np.sum(x, axis=-1, keepdims=True) / n
    out = y * y
    std = np.sqrt(np.sum(out, axis=-1, keepdims=True) / n + eps)
    # divide rather than multiply by 1/std: the same rounding as the
    # primitive chain this node replaced
    y /= std
    np.multiply(y, gamma, out=out)
    out += beta
    return out, y, std


def layer_norm_backward(g: np.ndarray, gamma: np.ndarray, y: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Gradient with respect to layer_norm_forward's x."""
    n = float(y.shape[-1])
    gy = g * gamma
    scratch = gy * y
    mean_gyy = np.sum(scratch, axis=-1, keepdims=True) / n
    gy -= np.sum(gy, axis=-1, keepdims=True) / n
    gy -= np.multiply(y, mean_gyy, out=scratch)
    gy /= std
    return gy


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    out, y, std = layer_norm_forward(x.data, gamma.data, beta.data, eps)

    def backward(g):
        return (
            layer_norm_backward(g, gamma.data, y, std),
            _unbroadcast(Tensor(g * y), gamma.shape).data,
            _unbroadcast(Tensor(g), beta.shape).data,
        )

    return fused("layer_norm", out, (x, gamma, beta), backward)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-form gelu: smooth everywhere, safe for finite differences.

    Returns (output, tanh term); the tanh term feeds gelu_backward.
    """
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)  # tanh(c * (x + a * x^3))
    out = t + 1.0
    out *= x
    out *= 0.5  # exact, so equal to (0.5 * x) * (1 + t)
    return out, t


def gelu_backward(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * (0.5 * (1 + t) + 0.5 * x * (1 - t^2) * c * (1 + 3a * x^2))."""
    s = t * t
    np.subtract(1.0, s, out=s)
    d = x * x
    d *= 3.0 * _GELU_A
    d += 1.0
    d *= _GELU_C
    d *= s
    d *= x
    d += t
    d += 1.0
    d *= 0.5
    d *= g
    return d


def gelu(x) -> Tensor:
    x = as_tensor(x)
    out, t = gelu_forward(x.data)
    return fused("gelu", out, (x,), lambda g: (gelu_backward(x.data, t, g),))


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
