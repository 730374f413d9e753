"""Autodiff engine: every primitive against finite differences, and the
backward machinery."""
import gc
import math

import numpy as np
import pytest

import mqmotion.autodiff as ad
from mqmotion.autodiff import Tensor
from mqmotion.errors import BackwardBeforeForward


def check_grads(build, shapes, seed=0, scale=1.0, positive=False, step=1e-6,
                tol=5e-7):
    """Compare analytic gradients of a scalar-valued builder to central fd."""
    rng = np.random.default_rng(seed)
    vals = []
    for s in shapes:
        v = rng.normal(size=s) * scale
        if positive:
            v = np.abs(v) + 0.5
        vals.append(v)
    tensors = [Tensor(v, requires_grad=True) for v in vals]
    out = build(*tensors)
    grads = ad.grad(out, tensors)
    for i, v in enumerate(vals):
        def f(flat, i=i):
            args = [Tensor(u) for u in vals]
            args[i] = Tensor(flat.reshape(vals[i].shape))
            return build(*args).item()
        fd = ad.finite_difference(f, v.ravel(), step).reshape(v.shape)
        err = np.abs(grads[i].data - fd).max()
        assert err < tol * max(1.0, np.abs(fd).max()), f"input {i}: err {err}"


class TestArithmetic:
    def test_add_broadcast(self):
        check_grads(lambda a, b: ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b))),
                    [(3, 4), (4,)])

    def test_sub_scalar_broadcast(self):
        check_grads(lambda a, b: ad.tsum(ad.power(ad.sub(a, b), 2.0)), [(2, 3), ()])

    def test_mul_div(self):
        check_grads(lambda a, b: ad.tsum(ad.div(ad.mul(a, a), b)),
                    [(5,), (5,)], positive=True)

    def test_neg(self):
        check_grads(lambda a: ad.tsum(ad.mul(ad.neg(a), a)), [(4,)])

    def test_power_cube(self):
        check_grads(lambda a: ad.tsum(ad.power(a, 3.0)), [(6,)])

    def test_power_half(self):
        check_grads(lambda a: ad.tsum(ad.power(a, 0.5)), [(6,)], positive=True)

    def test_sqrt_exp_tanh(self):
        check_grads(
            lambda a: ad.tsum(ad.add(ad.sqrt(a), ad.add(ad.exp(ad.neg(a)), ad.tanh(a)))),
            [(8,)], positive=True)


class TestLinalg:
    def test_matmul_2d(self):
        check_grads(lambda a, b: ad.tsum(ad.matmul(a, b)), [(3, 4), (4, 5)])

    def test_matmul_batched(self):
        check_grads(lambda a, b: ad.tsum(ad.matmul(a, b)), [(2, 3, 4), (2, 4, 2)])

    def test_matmul_broadcast_left(self):
        check_grads(lambda a, b: ad.tsum(ad.matmul(a, b)), [(3, 4), (2, 4, 2)])

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


class TestShapesAndReductions:
    def test_tsum_axis_variants(self):
        check_grads(lambda a: ad.tsum(ad.mul(ad.tsum(a, axis=1), 3.0)), [(3, 4)])
        check_grads(lambda a: ad.tsum(ad.power(ad.tsum(a, axis=0, keepdims=True), 2.0)),
                    [(3, 4)])
        check_grads(lambda a: ad.tsum(ad.power(ad.tsum(a, axis=(0, 2)), 2.0)),
                    [(2, 3, 4)])

    def test_tmean(self):
        check_grads(lambda a: ad.power(ad.tmean(a), 2.0), [(3, 5)])
        check_grads(lambda a: ad.tsum(ad.power(ad.tmean(a, axis=-1), 2.0)), [(3, 5)])

    def test_reshape(self):
        check_grads(lambda a: ad.tsum(ad.power(ad.reshape(a, (6,)), 2.0)), [(2, 3)])

    def test_swapaxes_transpose(self):
        check_grads(lambda a: ad.tsum(ad.mul(ad.swapaxes(a, 0, 1), np.ones((3, 2, 4)))),
                    [(2, 3, 4)])
        check_grads(
            lambda a: ad.tsum(ad.power(ad.transpose(a, (2, 0, 1)), 2.0)), [(2, 3, 4)])

    def test_take_slices(self):
        check_grads(lambda a: ad.tsum(ad.power(a[1:3], 2.0)), [(5, 2)])
        check_grads(lambda a: ad.tsum(ad.mul(a[:, -1], 2.0)), [(4, 3)])

    def test_take_overlapping_views_accumulate(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = ad.add(ad.tsum(x[0:2]), ad.tsum(x[1:3]))
        g = ad.grad(y, [x])[0]
        assert np.array_equal(g.data, [1.0, 2.0, 1.0])

    def test_concat(self):
        check_grads(
            lambda a, b: ad.tsum(ad.power(ad.concat([a, b], axis=1), 2.0)),
            [(2, 3), (2, 2)])


class TestComposites:
    def test_softmax_rows_sum_to_one(self):
        a = Tensor(np.random.default_rng(0).normal(size=(4, 7)) * 5)
        s = ad.softmax(a, axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_grad(self):
        w = np.random.default_rng(1).normal(size=(3, 5))
        check_grads(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=-1), w)), [(3, 5)])

    def test_softmax_axis_minus_two(self):
        w = np.random.default_rng(2).normal(size=(4, 3))
        check_grads(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=-2), w)), [(4, 3)])

    def test_softmax_extreme_logits_stable(self):
        a = Tensor(np.array([[1000.0, -1000.0, 0.0]]), requires_grad=True)
        s = ad.softmax(a)
        assert np.isfinite(s.data).all()
        g = ad.grad(ad.tsum(ad.mul(s, np.array([1.0, 2.0, 3.0]))), [a])[0]
        assert np.isfinite(g.data).all()

    def test_layer_norm_moments(self):
        x = Tensor(np.random.default_rng(3).normal(size=(5, 9)) * 10 + 4)
        y = ad.layer_norm(x, Tensor(np.ones(9)), Tensor(np.zeros(9)))
        assert np.abs(y.data.mean(axis=-1)).max() < 1e-9
        assert np.abs(y.data.std(axis=-1) - 1.0).max() < 1e-3

    def test_layer_norm_grads(self):
        check_grads(
            lambda x, g, b: ad.tsum(ad.power(ad.layer_norm(x, g, b), 2.0)),
            [(3, 6), (6,), (6,)], tol=2e-6)

    def test_gelu_grad(self):
        check_grads(lambda a: ad.tsum(ad.gelu(a)), [(10,)], scale=2.0)

    def test_gelu_known_points(self):
        out = ad.gelu(Tensor([0.0])).data
        assert abs(out[0]) < 1e-12

    # the layouts the backbone uses: (B, G, H, N, r) attention maps, and
    # (B, T, J, d) activations with (d,) layer-norm parameters

    def test_softmax_grad_5d_rank_axis(self):
        w = np.random.default_rng(5).normal(size=(2, 3, 2, 4, 3))
        check_grads(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=-1), w)),
                    [(2, 3, 2, 4, 3)], scale=2.0)

    def test_softmax_grad_5d_token_axis(self):
        w = np.random.default_rng(6).normal(size=(2, 3, 2, 4, 3))
        check_grads(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=-2), w)),
                    [(2, 3, 2, 4, 3)], scale=2.0)

    def test_layer_norm_grads_broadcast_params(self):
        w = np.random.default_rng(8).normal(size=(2, 3, 2, 5))
        check_grads(
            lambda x, g, b: ad.tsum(ad.mul(ad.layer_norm(x, g, b), w)),
            [(2, 3, 2, 5), (5,), (5,)], tol=2e-6)

    def test_gelu_grad_4d(self):
        w = np.random.default_rng(9).normal(size=(2, 3, 2, 5))
        check_grads(lambda a: ad.tsum(ad.mul(ad.gelu(a), w)), [(2, 3, 2, 5)],
                    scale=2.0)


def bits(x):
    """The raw bits of a float array: signed zeros and NaN payloads count."""
    return x.view(np.uint32 if x.dtype == np.float32 else np.uint64)


def plain_softmax(a, axis):
    e = np.exp(a - a.max(axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def plain_softmax_grad(y, g, axis):
    return y * (g - np.sum(g * y, axis=axis, keepdims=True))


# (shape for a reduced length n, axis): the last axis over enough rows for
# the slab kernels (n == 8), the last axis over a few rows, the token axis,
# axis 0
SOFTMAX_LAYOUTS = [
    (lambda n: (4, 4, 4, 9, n), -1),
    (lambda n: (2, 3, 1, 2, n), -1),
    (lambda n: (3, 4, n, 2, 3), 2),
    (lambda n: (n, 3, 2, 2, 3), 0),
]


class TestSoftmaxKernelBits:
    """The softmax kernels against the plain formula, bit for bit.

    The slab kernels add in numpy's own order, so the bits hold only while
    numpy's np.sum keeps that order; a numpy whose summation changes fails
    here first, not in a checkpoint diff.
    """

    @staticmethod
    def inputs(shape, axis, dtype, seed):
        rng = np.random.default_rng(seed)
        # magnitudes over six decades, so any other summation order shows
        def draw():
            return (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)).astype(dtype)
        a, g = draw(), draw()
        rows = np.moveaxis(a, axis, -1).reshape(-1, shape[axis])
        grows = np.moveaxis(g, axis, -1).reshape(-1, shape[axis])
        grows[::3, ::2] = -0.0
        if len(rows) > 4:  # fewer rows keep the draw and the zeros above
            grows[1] = -0.0  # a row of negative zeros sums to +0.0
            rows[2, 0], rows[3, -1], grows[4, 0] = np.inf, -np.inf, -np.inf
        back = lambda r: np.moveaxis(r.reshape(np.moveaxis(a, axis, -1).shape), -1, axis)
        return back(rows).copy(), back(grows).copy()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,chunk", [(n, None) for n in list(range(1, 18)) + [22, 33, 130]]
                             + [(8, 40)])
    def test_equal_to_plain_formula(self, dtype, n, chunk, monkeypatch):
        if chunk is not None:  # chunks of 40 rows, the last one shorter
            monkeypatch.setattr(ad, "_SLAB_CHUNK", chunk * n)
        for i, (shape_of, axis) in enumerate(SOFTMAX_LAYOUTS):
            shape = shape_of(n)
            a, g = self.inputs(shape, axis, dtype, seed=n * 10 + i)
            # the real gradient is a transposed view: axes 2 and 3 swapped
            g_t = np.ascontiguousarray(g.swapaxes(2, 3)).swapaxes(2, 3)
            if i < 2:  # slabs for rows of 8 at any row count, numpy's path for other lengths
                assert (ad._slab_rows(a, axis % a.ndim) is not None) == (n == 8)
            a0, g0 = a.copy(), g.copy()
            with np.errstate(invalid="ignore"):  # the rows holding +inf
                y = ad.softmax_forward(a, axis)
                assert y.dtype == dtype
                assert np.array_equal(bits(y), bits(plain_softmax(a, axis))), (shape, axis)
                # contiguous, transposed, and broadcast along the first axis
                for grad_in in (g, g_t, g[:1]):
                    d = ad.softmax_backward(y, grad_in, axis)
                    want = plain_softmax_grad(y, grad_in, axis)
                    assert np.array_equal(bits(d), bits(want)), (shape, axis, grad_in.strides)
            assert np.array_equal(bits(a), bits(a0)) and np.array_equal(bits(g), bits(g0))
            assert np.array_equal(bits(g_t), bits(g0))

    def check(self, shape, axis, dtype, seed):
        """Forward and backward against the plain formula on one layout."""
        a, g = self.inputs(shape, axis, dtype, seed)
        with np.errstate(invalid="ignore"):  # the rows holding +inf
            y = ad.softmax_forward(a, axis)
            assert np.array_equal(bits(y), bits(plain_softmax(a, axis))), (shape, axis)
            d = ad.softmax_backward(y, g, axis)
            assert np.array_equal(bits(d), bits(plain_softmax_grad(y, g, axis))), (shape, axis)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [-1, 2], ids=["rank", "tokens"])
    @pytest.mark.parametrize("shape", [(1, 9, 5, 4, 8), (1, 5, 9, 4, 8), (1, 9, 22, 4, 8)])
    def test_single_window_shapes(self, dtype, axis, shape):
        """A single window's spatial and temporal softmaxes at J=5 and J=22:
        the rank's slabs and the keys' one-call max."""
        if axis == 2:
            assert shape[axis] > 1 and math.prod(shape) < ad._REDUCE_MAX_ENTRIES
        self.check(shape, axis, dtype, seed=sum(shape) + axis)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 7, 64, 180, 511])
    def test_rank_forward_on_slabs_at_any_row_count(self, dtype, rows):
        assert ad._slab_rows(np.zeros((rows, 8), dtype), 1) is not None
        self.check((rows, 8), -1, dtype, seed=rows)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 7, 64, 180, 511])
    def test_rank_backward_on_slabs_at_any_row_count(self, dtype, rows, monkeypatch):
        """The backward sums a contiguous gradient's rows of 8 on slabs,
        however few, with the plain formula's bits; a strided gradient takes
        numpy's path, with the same bits."""
        a, g = self.inputs((rows, 8), -1, dtype, seed=rows + 1)
        with np.errstate(invalid="ignore"):  # the rows holding +inf
            y = ad.softmax_forward(a, -1)
        calls = []
        slab_sum = ad._slab_sum
        monkeypatch.setattr(ad, "_slab_sum", lambda t: calls.append(t.shape) or slab_sum(t))
        g_s = np.empty((rows, 16), dtype)[:, ::2]
        g_s[...] = g
        for grad_in, slabs in ((g, 1), (g_s, 0)):
            calls.clear()
            with np.errstate(invalid="ignore"):
                d = ad.softmax_backward(y, grad_in, -1)
                want = plain_softmax_grad(y, grad_in, -1)
            assert len(calls) == slabs and np.array_equal(bits(d), bits(want)), grad_in.strides

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [2, 3], ids=["below", "above"])
    def test_token_max_on_each_side_of_the_cut(self, dtype, batch):
        shape = (batch, 9, 22, 4, 8)
        assert (math.prod(shape) < ad._REDUCE_MAX_ENTRIES) == (batch == 2)
        self.check(shape, 2, dtype, seed=batch)


class TestEinsumSums:
    """The einsum sums that claim np.sum's order, against np.sum bit for bit.

    Off an array's last axis np.sum adds whole slices one after another, and
    the softmax kernels' einsum (_axis_sum) adds them in the same order; a
    numpy whose einsum takes another order fails here first. Inputs are
    TestSoftmaxKernelBits': six decades of magnitude, signed zeros and +-inf.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 22, 33, 130])
    def test_axis_sum_is_np_sum(self, dtype, n):
        for i, (shape_of, axis) in enumerate(SOFTMAX_LAYOUTS):
            shape = shape_of(n)
            axis %= len(shape)
            a, g = TestSoftmaxKernelBits.inputs(shape, axis, dtype, seed=n * 10 + i)
            g_t = np.ascontiguousarray(g.swapaxes(2, 3)).swapaxes(2, 3)
            with np.errstate(invalid="ignore"):  # inf - inf
                # contiguous, transposed, and broadcast along the first axis,
                # alone and as softmax_backward's product with a softmax
                y = ad.softmax_forward(a, axis)
                cases = (a, g, g_t, np.broadcast_to(g[:1], shape), g * y, g_t * y, g[:1] * y)
                for x in cases:
                    want = np.sum(x, axis=axis, keepdims=True)
                    got = ad._axis_sum(x, axis)
                    assert got.dtype == want.dtype == dtype and got.shape == want.shape
                    assert np.array_equal(bits(got), bits(want)), (shape, axis, x.strides)


class TestLayerNormRows:
    """layer_norm_forward/backward sum each row on its own (einsum, not
    np.sum's pairwise order), so a row's bytes do not depend on the rows
    around it or on where it sits in memory: a window keeps its bytes in any
    batch or predictor slice."""

    @staticmethod
    def placed(row: np.ndarray, offset: int) -> np.ndarray:
        """row copied into a larger buffer at an element offset."""
        buf = np.full(row.size + 2 * offset + 1, np.nan, row.dtype)
        buf[offset:offset + row.size] = row.ravel()
        return buf[offset:offset + row.size].reshape(row.shape)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [3, 8, 32, 33, 64])
    def test_a_row_keeps_its_bytes(self, dtype, d):
        rng = np.random.default_rng(d)
        shape = (20, 9, 22, d)
        x = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)).astype(dtype)
        g = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)).astype(dtype)
        x[1, 2, 3] = -0.0  # a row of negative zeros
        g[::3, :, :, ::2] = -0.0
        gamma = rng.uniform(0.5, 2.0, d).astype(dtype)
        beta = rng.standard_normal(d).astype(dtype)

        def ln(x, g):
            out, y, std = ad.layer_norm_forward(x, gamma, beta)
            return out, y, std, ad.layer_norm_backward(g, gamma, y, std)

        whole = ln(x, g)
        # the same rows in a batch whose frames and joints are swapped in memory
        swapped = ln(*(np.ascontiguousarray(a.swapaxes(1, 2)).swapaxes(1, 2) for a in (x, g)))
        for a, b in zip(whole, swapped):
            assert np.array_equal(bits(a), bits(b))
        for idx in [(0, 0, 0), (1, 2, 3), (7, 4, 13), (19, 8, 21)]:
            one = ln(x[idx][None], g[idx][None])  # the row alone
            window = ln(x[idx[:1]][None], g[idx[:1]][None])  # its window alone
            odd = ln(self.placed(x[idx][None], 1), self.placed(g[idx][None], 3))
            for a, b, c, w in zip(whole, one, odd, window):
                assert np.array_equal(bits(a[idx][None]), bits(b))
                assert np.array_equal(bits(b), bits(c))
                assert np.array_equal(bits(a[idx]), bits(w[(0,) + idx[1:]]))


FUSED = {
    "softmax_rank": lambda x, g, b: ad.softmax(x, axis=-1),
    "softmax_token": lambda x, g, b: ad.softmax(x, axis=-2),
    "layer_norm": lambda x, g, b: ad.layer_norm(x, g, b),
    "gelu": lambda x, g, b: ad.gelu(x),
}


def fused_inputs():
    rng = np.random.default_rng(10)
    return [Tensor(rng.normal(size=s), requires_grad=True)
            for s in ((2, 3, 4), (4,), (4,))]


class TestFusedNodes:
    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_one_node_per_call(self, name):
        x, g, b = fused_inputs()
        out = FUSED[name](x, g, b)
        leaves = {id(t) for t in (x, g, b)}
        assert all(id(p) in leaves for p in out._parents)
        assert len(out._parents) == (3 if name == "layer_norm" else 1)

    def test_mixed_parents(self):
        # constants and parents that require grad interleaved: the node lists
        # the latter in order, each gets its own gradient, and backward runs
        # once per grad call
        c0, c1 = Tensor(np.ones(2)), Tensor(np.full(2, 2.0))
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        calls = []

        def backward(g):
            calls.append(g)
            return g * 10.0, g * 1.0, g * 20.0, g * 2.0  # c0, a, c1, b

        out = ad.fused(c0.data + a.data + c1.data + b.data, (c0, a, c1, b), backward)
        assert out.requires_grad and len(out._parents) == 2
        assert out._parents[0] is a and out._parents[1] is b
        for n in (1, 2):
            ga, gb, gc = ad.grad(ad.tsum(out), [a, b, c1])
            assert len(calls) == n
            assert np.array_equal(ga.data, [1.0, 1.0])
            assert np.array_equal(gb.data, [2.0, 2.0])
            assert np.array_equal(gc.data, [0.0, 0.0])


def mul_concat(x):
    """Two-parent nodes, over x twice and over x and a constant."""
    return ad.concat([ad.mul(x, x), ad.mul(x, Tensor(np.ones(3)))])


class TestBackwardMachinery:
    @pytest.mark.parametrize("op", [ad.exp, ad.sqrt, ad.tanh, mul_concat])
    def test_graph_holds_no_reference_cycle(self, op):
        x = Tensor(np.full(3, 0.5), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            y = ad.tsum(op(x))
            ad.grad(y, [x])
            del y
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0

    def test_no_graph_raises(self):
        with pytest.raises(BackwardBeforeForward):
            ad.grad(Tensor(1.0), [Tensor(1.0, requires_grad=True)])

    def test_non_tensor_output_raises(self):
        with pytest.raises(BackwardBeforeForward):
            ad.grad(3.0, [Tensor(1.0, requires_grad=True)])

    def test_non_scalar_output_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.grad(ad.mul(x, 2.0), [x])

    def test_unused_input_gets_zeros(self):
        x = Tensor(np.ones(3), requires_grad=True)
        z = Tensor(np.ones((2, 2)), requires_grad=True)
        g = ad.grad(ad.tsum(ad.mul(x, x)), [x, z])[1]
        assert np.array_equal(g.data, np.zeros((2, 2)))

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = ad.tsum(ad.mul(x, x))
        assert not y.requires_grad

    def test_reuse_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.add(ad.mul(x, 3.0), ad.mul(x, 4.0))
        g = ad.grad(ad.tsum(y), [x])[0]
        assert np.array_equal(g.data, [7.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a = ad.mul(x, 2.0)
        b = ad.mul(x, 3.0)
        y = ad.tsum(ad.mul(a, b))  # y = 6 x^2, dy/dx = 12 x
        g = ad.grad(y, [x])[0]
        assert np.allclose(g.data, 12.0 * x.data)


class TestDtype:
    @pytest.mark.parametrize("data", [
        np.arange(3), np.array([True, False]), 1.0, 2, [1, 2], np.ones(2),
    ], ids=["int_array", "bool_array", "float", "int", "list", "float64_array"])
    def test_everything_but_float32_becomes_float64(self, data):
        assert Tensor(data).data.dtype == np.float64

    @pytest.mark.parametrize("data", [np.ones((2, 3), np.float32), np.float32(1.5)],
                             ids=["array", "scalar"])
    def test_float32_stays_float32(self, data):
        t = Tensor(data)
        assert t.data.dtype == np.float32 and np.array_equal(t.data, data)

    def test_float32_operands_give_float32(self):
        x = Tensor(np.ones((2, 3), np.float32))
        y = ad.mul(ad.matmul(x, Tensor(np.ones((3, 2), np.float32))), Tensor(np.float32(2.0)))
        assert y.data.dtype == np.float32
        # a Python scalar operand takes the other operand's dtype
        assert ad.mul(x, 2.0).data.dtype == np.float32

    def test_python_scalars_follow_the_tensor(self):
        x32 = Tensor(np.array([0.1, 0.7, 3.0], np.float32), requires_grad=True)
        x64 = Tensor(np.array([0.1, 0.7, 3.0]), requires_grad=True)
        n = x32.size
        for op, want in ((lambda x: ad.sub(1.0, x), lambda a: 1.0 - a),
                         (lambda x: ad.div(x, float(n)), lambda a: a / float(n)),
                         (lambda x: ad.mul(2, x), lambda a: 2 * a),
                         (lambda x: ad.add(x, 0.25), lambda a: a + 0.25)):
            for x in (x32, x64):
                y = op(x)
                assert y.data.dtype == x.data.dtype
                assert np.array_equal(y.data, want(x.data))  # numpy's weak-scalar bits
                assert ad.grad(ad.tsum(y), [x])[0].data.dtype == x.data.dtype

    @pytest.mark.parametrize("other", [Tensor(np.float64(2.0)), np.array(2.0), np.float64(2.0)],
                             ids=["tensor", "array", "numpy_scalar"])
    def test_a_float64_0d_operand_promotes(self, other):
        x = Tensor(np.ones((2, 3), np.float32))
        assert ad.mul(x, other).data.dtype == np.float64
        assert ad.sub(other, x).data.dtype == np.float64
