"""Minimal first-order reverse-mode automatic differentiation over numpy
arrays.

A Tensor keeps a float32 array as float32 and makes everything else
float64. Training and the prediction pass run float32 weights and inputs
through the ops and kernels here, which follow their operands' dtype;
gradient and finite-difference tests feed the same ops float64. A Python
int or float operand of add, sub, mul or div takes the other operand's
dtype, so a float32 graph stays float32 and a float64 graph keeps its bits.
Under NumPy 2's promotion rules a Python float constant in a kernel keeps a
float32 array float32 too, but a 0-d float64 array or Tensor, or an
``np.float64`` scalar, makes the result float64.

Every graph node has one shape: ``fused(data, parents, backward)`` makes a
node from a numpy forward result and one numpy backward that maps the
output's gradient, an ndarray, to one gradient per parent. The node lists
only the parents that require grad, and grad calls each node's backward
once and keeps those parents' gradients. grad returns plain gradients
without a graph, so nothing is differentiated twice. A backward reads the
arrays it needs and never holds a Tensor of its own node, so no graph holds
a reference cycle and a graph is freed as soon as the last reference to its
output goes.

Model code builds its graphs from add, sub, mul, div, neg, matmul, tsum,
tmean, reshape, transpose, concat, basic slicing (``Tensor.__getitem__``)
and nodes of its own; power, sqrt, exp, tanh, swapaxes, softmax,
layer_norm, gelu and finite_difference serve the tests' oracles and
reference chains.

The backbone's sublayers in ``network`` are fused nodes of their own:
spatial attention and temporal attention, each with its feed-forward, and
the position-wise FFN, each node including its residual and post-LN. They
are built on the numpy kernels here (``softmax_forward``/
``softmax_backward``, ``layer_norm_forward``/``layer_norm_backward``,
``gelu_forward``/``gelu_backward``). The Tensor ops ``softmax``,
``layer_norm`` and ``gelu`` wrap those kernels as nodes of their own; no
model code calls them, and they serve to test the kernels against finite
differences. So are a critic's scores (``network.discriminate_*``) and its
WGAN-GP loss, whose gradient penalty is a function of the critic's input
gradient (``network.Critic.wgan_gp``), with the second derivative written
out in its backward.

The softmax kernels reduce last-axis rows of 8 entries (a query's 8 rank
features) as whole slabs: chunks of rows go into a buffer with the reduced
axis first, so each step of a max or a sum is one elementwise op over
contiguous slabs instead of one numpy loop per row. The sums add in numpy's
own pairwise order for a contiguous last axis, so the kernels' bits equal
np.sum's and the plain formula's, at any row count; other lengths, and a
strided backward gradient, take np.sum directly. Over any other axis (the
keys' softmax over tokens) the sum is one einsum, which adds the slices in
np.sum's own order for that axis, one after another, so those bits are
np.sum's too, and the max is whichever exact form is faster at its size.

Layer norm sums each row over its width by einsum, its sum of squares as
one einsum of the row with itself. That is not np.sum's pairwise order, so
layer_norm_forward and layer_norm_backward round differently from a
pairwise sum in the last place, but each row is still summed on its own:
its bytes do not depend on the rows beside it or on where it sits in
memory, so a window has the same bytes in any batch or predictor slice. A
product with a vector of ones (BLAS) was faster still but is not
row-independent.
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
    """An ndarray with an optional backward graph.

    The dtype follows float32 input (an array or a numpy scalar); everything
    else, ints, bools, Python scalars and float64 arrays included, becomes
    float64.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if getattr(data, "dtype", None) == np.float32:
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

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

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __getitem__(self, idx):
        return take(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a Python int or float takes the other's dtype.

    NumPy 2 would keep a float32 array float32 against a Python scalar but
    not against the 0-d float64 Tensor the scalar would otherwise become.
    """
    if type(a) in (int, float):
        b = as_tensor(b)
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    a = as_tensor(a)
    if type(b) in (int, float):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    return a, as_tensor(b)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.sum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = np.sum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = g.reshape(shape)
    return g


# the one node constructor

def fused(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """One graph node over parents, with a numpy backward.

    backward maps the output's gradient to a sequence of gradients, one per
    parent in order; grad calls it once, with the node's summed gradient.
    The node lists only the parents that require grad, and their gradients
    are the only ones kept.
    """
    out = Tensor(data)
    if not _grad_enabled:
        return out
    kept = [i for i, p in enumerate(parents) if p.requires_grad]
    if kept:
        out.requires_grad = True
        out._parents = tuple(parents[i] for i in kept)
        if len(kept) == len(parents):
            out._backward = backward
        else:
            out._backward = lambda g: [pg for i, pg in enumerate(backward(g)) if i in kept]
    return out


# arithmetic primitives

def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return fused(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return fused(-a.data, (a,), lambda g: (-g,))


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return fused(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return fused(
        a.data * b.data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a, b) -> Tensor:
    a, b = _operands(a, b)

    def backward(g):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-((g * a.data) / (b.data * b.data)), b.shape),
        )

    return fused(a.data / b.data, (a, b), backward)


def power(a, c) -> Tensor:
    """Elementwise a**c for a constant real exponent."""
    a = as_tensor(a)
    c = float(c)
    return fused(a.data ** c, (a,), lambda g: ((g * c) * a.data ** (c - 1.0),))


# The backwards below read the output's array, never the output Tensor: a
# backward that held its own node would make every graph through it a
# reference cycle, freed only by the cyclic garbage collector.

def sqrt(a) -> Tensor:
    a = as_tensor(a)
    y = np.sqrt(a.data)
    return fused(y, (a,), lambda g: (g / (y * 2.0),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    return fused(y, (a,), lambda g: (g * y,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    return fused(y, (a,), lambda g: (g * (1.0 - y * y),))


# linear algebra

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")

    def backward(g):
        return (
            _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape),
            _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape),
        )

    return fused(np.matmul(a.data, b.data), (a, b), backward)


# reductions and shape ops

def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if not keepdims:  # put the summed axes back as 1s
            g = np.expand_dims(g, tuple(range(a.ndim)) if axis is None else axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return fused(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), backward)


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
    return fused(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def swapaxes(a, ax1, ax2) -> Tensor:
    a = as_tensor(a)
    return fused(np.swapaxes(a.data, ax1, ax2), (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))
    return fused(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def _scattered(g: np.ndarray, idx, shape) -> np.ndarray:
    data = np.zeros(shape, dtype=g.dtype)
    data[idx] = g
    return data


def take(a, idx) -> Tensor:
    """Basic slicing/indexing; gradient scatters back into zeros."""
    a = as_tensor(a)
    return fused(np.array(a.data[idx]), (a,), lambda g: (_scattered(g, idx, a.shape),))


def concat(tensors, axis=0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    ax = axis % data.ndim
    sls = []
    offset = 0
    for t in tensors:
        n = t.shape[ax]
        sls.append((slice(None),) * ax + (slice(offset, offset + n),))
        offset += n
    return fused(data, tensors, lambda g: tuple(np.array(g[sl]) for sl in sls))


# The softmax kernels. np.sum and np.max over a short last axis, such as a
# query's 8 rank features, run numpy's reduction loop once per row, and a
# (..., 1) keepdims operand splits each elementwise op into one loop per row
# too; past a few dozen rows that overhead costs more than the arithmetic.
# So a C-contiguous array with a last axis of 8 entries (the rank softmax) is
# reduced as whole slabs, one chunk of rows at a time, at any row count: each
# step of a max or a sum is one elementwise op over the chunk's column slabs.
# The forward's slabs pay from about 40 rows and the backward's from about
# 300; every training batch has thousands, and the few-row cost is a few us
# per call. The forward copies a chunk into a buffer it owns, reduced axis
# first, and its last op writes the output's rows. The backward sums the
# columns of its product in place and writes each row's sum along the row.
# The slab sums add in the order np.sum takes over a contiguous last axis of
# 8 entries, numpy's pairwise summation, the tree
#     ((x0 + x1) + (x2 + x3)) + ((x4 + x5) + (x6 + x7)),
# added to the reduction's 0.0 identity. So the output has the plain
# formula's bits, signed zeros included. The max is exact in any order and
# halves its axis. Other lengths take np.sum directly: only 8 entries were
# timed against numpy's path, and longer rows (the full-rank form's key
# rows) get more work per numpy call. Other axes (the keys' token axis) take
# one einsum (_axis_sum): off the last axis np.sum adds whole slices one
# after another, one inner loop of H * r entries per slice, and einsum adds
# them in that same order in fewer, longer loops, so its bits are np.sum's
# (TestEinsumSums fails first if a numpy changes either order). Their max is
# one np.maximum.reduce below _REDUCE_MAX_ENTRIES entries (a single window's
# keys) and halves the axis above (a batch's), whichever was faster at that
# size; a shift by -0.0 or +0.0 gives the same exp, so either max keeps the
# bits. Moving the keys' token axis to the front measured no faster.

_SLAB_CHUNK = 1 << 16  # entries per chunk: few ops per chunk, its scratch held in cache
_REDUCE_MAX_ENTRIES = 1 << 14  # off the last axis; the halving max wins from ~16-25K entries


def _halving_max(a: np.ndarray, axis: int) -> np.ndarray:
    """np.max(a, axis, keepdims=True) by halving the axis; exact."""
    lead = (slice(None),) * axis
    while a.shape[axis] > 1:
        n = a.shape[axis]
        half = (n + 1) // 2  # an odd length overlaps the middle entry
        a = np.maximum(a[lead + (slice(0, half),)], a[lead + (slice(n - half, n),)])
    return a


def _slab_sum(t: np.ndarray) -> np.ndarray:
    """np.sum's sum over the 8 slabs of t, in numpy's pairwise order.

    t may be a strided view, such as the transpose of a chunk of rows: the
    first sums run slab by slab (order="C") into contiguous slabs.
    """
    r = np.add(t[0::2], t[1::2], order="C")
    r = r[0::2] + r[1::2]
    s = r[0] + r[1]
    s += 0.0  # the identity: a sum of -0.0 entries is +0.0
    return s


def _slab_rows(a: np.ndarray, axis: int):
    """a as (rows, n) and the rows per chunk, or None for numpy's path."""
    n = a.shape[axis]
    if axis != a.ndim - 1 or n != 8 or a.size == 0 or not a.flags.c_contiguous:
        return None
    rows = a.reshape(-1, n)
    return rows, min(len(rows), _SLAB_CHUNK // n)


def _axis_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """np.sum(a, axis=axis, keepdims=True), bit for bit: np.sum itself over
    the last axis, one einsum over any other."""
    if axis == a.ndim - 1:
        return np.add.reduce(a, axis, keepdims=True)
    idx = "abcdefghijklmnopqrstuvwxyz"[:a.ndim]
    s = np.einsum(f"{idx}->{idx[:axis]}{idx[axis + 1:]}", a)
    return s.reshape(a.shape[:axis] + (1,) + a.shape[axis + 1:])


def softmax_forward(a: np.ndarray, axis: int) -> np.ndarray:
    """Shift-stabilized softmax; the shift is a constant, which is exact."""
    axis %= a.ndim
    slabs = _slab_rows(a, axis)
    if slabs is None:
        if axis != a.ndim - 1 and 0 < a.size < _REDUCE_MAX_ENTRIES:
            e = a - np.maximum.reduce(a, axis, keepdims=True)
        else:
            e = a - _halving_max(a, axis)
        np.exp(e, out=e)
        e /= _axis_sum(e, axis)
        return e
    rows, k = slabs
    y = np.empty_like(a)
    out = y.reshape(rows.shape)
    buf = np.empty((rows.shape[1], k), a.dtype)
    for r in range(0, len(rows), k):
        t = buf[:, :len(rows) - r]  # the last chunk may be short
        np.copyto(t, rows[r:r + k].T)
        t -= _halving_max(t, 0)
        np.exp(t, out=t)
        np.divide(t, _slab_sum(t), out=out[r:r + k].T)
    return y


def softmax_backward(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """y * (g - sum(g * y)); the sum is np.sum's over the product's layout."""
    axis %= y.ndim
    d = g * y
    slabs = _slab_rows(y, axis)
    if slabs is None or g.shape != y.shape or not g.flags.c_contiguous:
        np.subtract(g, _axis_sum(d, axis), out=d)
        d *= y
        return d
    rows, k = slabs
    grows, drows = g.reshape(rows.shape), d.reshape(rows.shape)
    for r in range(0, len(rows), k):
        dr = drows[r:r + k]
        # each row's sum written along the row, then a contiguous subtract
        np.copyto(dr.T, _slab_sum(dr.T))
        np.subtract(grows[r:r + k], dr, out=dr)
    d *= y
    return d


def softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    y = softmax_forward(a.data, axis)
    return fused(y, (a,), lambda g: (softmax_backward(y, g, axis),))


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    """Normalize over the last axis, then scale and shift.

    Returns (output, normalized x, std); the last two feed layer_norm_backward.
    Each row's sums are einsums over that row alone (see the module docstring).
    """
    n = float(x.shape[-1])
    y = x - np.einsum("...i->...", x)[..., None] / n
    std = np.sqrt(np.einsum("...i,...i->...", y, y)[..., None] / n + eps)
    # divide rather than multiply by 1/std: the same rounding as the
    # primitive chain this node replaced
    y /= std
    out = y * gamma
    out += beta
    return out, y, std


def layer_norm_backward(g: np.ndarray, gamma: np.ndarray, y: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Gradient with respect to layer_norm_forward's x."""
    n = float(y.shape[-1])
    gy = g * gamma
    mean_gyy = np.einsum("...i,...i->...", gy, y)[..., None] / n
    gy -= np.einsum("...i->...", gy)[..., None] / n
    gy -= y * mean_gyy
    gy /= std
    return gy


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    out, y, std = layer_norm_forward(x.data, gamma.data, beta.data, eps)

    def backward(g):
        return (
            layer_norm_backward(g, gamma.data, y, std),
            _unbroadcast(g * y, gamma.shape),
            _unbroadcast(g, beta.shape),
        )

    return fused(out, (x, gamma, beta), backward)


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
    return fused(out, (x,), lambda g: (gelu_backward(x.data, t, g),))


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


def grad(output: Tensor, inputs: list[Tensor]) -> list[Tensor]:
    """Gradients of a scalar output with respect to each input tensor.

    Inputs the output does not depend on get exact zeros. The returned
    tensors carry no graph.
    """
    if not isinstance(output, Tensor):
        raise BackwardBeforeForward("output is not a Tensor from a forward pass")
    if output.size != 1:
        raise ValueError(f"output must be scalar, got shape {output.shape}")
    if not output.requires_grad:
        raise BackwardBeforeForward(
            "output carries no graph; run the forward pass with gradients enabled"
        )

    order = _topo_order(output)
    grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
    input_ids = {id(t) for t in inputs}

    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        if node._parents:
            for parent, pg in zip(node._parents, node._backward(g)):
                prev = grads.get(id(parent))
                grads[id(parent)] = pg if prev is None else prev + pg
        if id(node) not in input_ids:
            del grads[id(node)]

    out = []
    for t in inputs:
        g = grads.get(id(t))
        out.append(Tensor(g) if g is not None else Tensor(np.zeros_like(t.data)))
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
