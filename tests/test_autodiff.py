import numpy as np
import pytest

from vidflow import autodiff
from vidflow.autodiff import Tensor, attention, ffn, layernorm, linear, value

from oracles import numeric_grad


def check_op(build, shape, seed=0, tol=1e-6):
    """Compare tape gradients against finite differences for one op."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    t = Tensor(x, requires_grad=True)
    build(t).backward()
    num = numeric_grad(lambda a: float(value(build(Tensor(a)))), x)
    assert np.abs(t.grad - num).max() <= tol


def longdouble_attention(q, k, v, scale):
    """softmax(q @ kᵀ * scale) @ v in extended precision with the exact row-max
    shift; returns it with P @ |v|, the scale of its float64 rounding error."""
    q, k, v = (np.asarray(a, dtype=np.longdouble) for a in (q, k, v))
    s = (q @ k.swapaxes(-1, -2)) * np.longdouble(scale)
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p @ v, p @ np.abs(v)


needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)


class TestElementwise:
    def test_add_broadcast(self):
        check_op(lambda t: (t + np.ones((1, 3))).sum(), (2, 3))

    def test_mul(self):
        check_op(lambda t: (t * t).sum(), (2, 3))

    def test_sub_neg(self):
        check_op(lambda t: (-t - t - 3.0).sum(), (4,))

    def test_grad_accumulates_on_reuse(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t + t + t).sum().backward()
        assert t.grad[0] == 3.0


class TestLinalg:
    def test_matmul_both_sides(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        na = numeric_grad(lambda x: float((Tensor(x) @ b.data).data.sum()), a.data)
        nb = numeric_grad(lambda x: float((Tensor(a.data) @ x).data.sum()), b.data)
        assert np.abs(a.grad - na).max() <= 1e-6
        assert np.abs(b.grad - nb).max() <= 1e-6

    def test_batched_matmul_broadcast(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 4))
        check_op(lambda t: ((t @ w) * (t @ w)).sum(), (2, 3, 4), seed=2)


class TestLinear:
    X = np.random.default_rng(40).normal(size=(2, 3, 4))
    W = np.random.default_rng(41).normal(size=(4, 5))
    B = np.random.default_rng(42).normal(size=5)  # broadcast over both leading axes
    M = np.random.default_rng(43).normal(size=(2, 3, 5))

    def test_grad_of_x(self):
        check_op(lambda t: (linear(t, self.W, self.B) * self.M).sum(), self.X.shape, seed=4)

    def test_grad_of_w(self):
        check_op(lambda t: (linear(self.X, t, self.B) * self.M).sum(), self.W.shape, seed=5)

    def test_grad_of_broadcast_bias(self):
        check_op(lambda t: (linear(self.X, self.W, t) * self.M).sum(), self.B.shape, seed=6)

    def test_bitwise_the_matmul_and_add_it_replaces(self):
        leaves = [Tensor(a, requires_grad=True) for a in (self.X, self.W, self.B)]
        fused = [Tensor(a, requires_grad=True) for a in (self.X, self.W, self.B)]
        y = leaves[0] @ leaves[1] + leaves[2]
        (y * self.M).sum().backward()
        z = linear(*fused)
        (z * self.M).sum().backward()
        assert z.data.tobytes() == y.data.tobytes()
        for a, b in zip(leaves, fused):
            assert a.grad.tobytes() == b.grad.tobytes()


class TestShapeMoves:
    def test_reshape(self):
        check_op(lambda t: (t.reshape(6) * np.arange(6.0)).sum(), (2, 3))

    def test_transpose(self):
        check_op(lambda t: (t.transpose((1, 0)) * np.arange(6.0).reshape(3, 2)).sum(), (2, 3))


def gelu(t):
    """The tanh GELU alone: ``ffn`` with identity weights and zero biases
    (a product with the identity matrix is exact)."""
    eye, zero = np.eye(t.shape[-1]), np.zeros(t.shape[-1])
    return ffn(t, eye, zero, eye, zero)


class TestNonlinearities:
    def test_gelu_grad(self):
        check_op(lambda t: (gelu(t) * gelu(t)).sum(), (3, 3), seed=6)

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_forwards_are_bitwise_the_textbook_expressions(self, requires_grad):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(16, 24)) * 3 + 1
        w1, b1 = rng.normal(size=(24, 32)), rng.normal(size=32)
        w2, b2 = rng.normal(size=(32, 8)), rng.normal(size=8)
        before = x.copy()
        c = np.sqrt(2.0 / np.pi)
        h = x @ w1 + b1
        mlp = (0.5 * h * (1.0 + np.tanh(c * (h + 0.044715 * (h * h * h))))) @ w2 + b2
        xc = x - x.mean(axis=-1, keepdims=True)
        ln = xc * (1.0 / np.sqrt((xc**2).mean(axis=-1, keepdims=True) + 1e-6))
        t = Tensor(x, requires_grad=requires_grad)
        assert value(ffn(t, w1, b1, w2, b2)).tobytes() == mlp.tobytes()
        assert value(layernorm(t)).tobytes() == ln.tobytes()
        assert x.tobytes() == before.tobytes()  # the input is not a work array

    def test_layernorm_output_normalized(self):
        y = layernorm(np.random.default_rng(7).normal(size=(4, 8)) * 3 + 1)
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_layernorm_grad(self):
        w = np.random.default_rng(8).normal(size=(2, 6))
        check_op(lambda t: (layernorm(t) * w).sum(), (2, 6), seed=8, tol=1e-5)


class TestFFN:
    SHAPES = {"x": (2, 3, 4), "w1": (4, 6), "b1": (6,), "w2": (6, 5), "b2": (5,)}

    @pytest.mark.parametrize("which", list(SHAPES))
    def test_grad_of_each_operand(self, which):
        rng = np.random.default_rng(50)
        args = {k: rng.normal(size=shape) for k, shape in self.SHAPES.items()}
        m = rng.normal(size=(2, 3, 5))

        def f(t):
            return (ffn(**{**args, which: t}) * m).sum()
        check_op(f, self.SHAPES[which], seed=51)


class TestTape:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_diamond_graph(self):
        # y = (x*x) + (x*x): each branch contributes 2x.
        t = Tensor(np.array([3.0]), requires_grad=True)
        sq = t * t
        (sq + sq).sum().backward()
        assert t.grad[0] == pytest.approx(12.0)

    def test_no_grad_leaves_untouched(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad is None and np.allclose(b.grad, 1.0)

    def test_composite_expression(self):
        def f(t):
            h = gelu(t @ np.random.default_rng(9).normal(size=(4, 4)))
            a = layernorm(h)
            return (attention(a, h, a, 0.5) * h).sum()
        check_op(f, (3, 4), seed=9, tol=1e-5)

    def test_no_graph_without_grads(self):
        a = Tensor(np.ones((2, 2)))
        assert type(gelu(a @ a)) is np.ndarray and type(layernorm(a)) is np.ndarray
        out = attention(gelu(a @ a), a, layernorm(a), 1.0) + a
        assert out._parents == () and out._backward is None
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        assert (a * b)._parents == (a, b) and (a * b)._backward is not None


class TestAttention:
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_of_each_operand(self, which):
        rng = np.random.default_rng(11 + which)
        ops = [rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))]
        w = rng.normal(size=(2, 5, 3))

        def f(t):
            args = list(ops)
            args[which] = t
            return (attention(*args, 0.7) * w).sum()
        check_op(f, ops[which].shape, seed=11 + which)

    def test_tiled_branch_matches_recording_branch(self):
        heads, n, dh = 2, 1000, 4
        rows = autodiff._TILE_ELEMS // (heads * n)
        assert n // rows >= 3 and n % rows != 0  # >= 3 query tiles, ragged last tile
        rng = np.random.default_rng(12)
        q, k, v = (rng.normal(size=(heads, n, dh)) for _ in range(3))
        tiled = attention(q, k, v, 0.5)
        taped = attention(Tensor(q, requires_grad=True), k, v, 0.5)
        assert tiled._parents == () and taped._parents != ()
        rms = np.sqrt(np.mean(taped.data**2))
        assert np.abs(tiled.data - taped.data).max() <= 1e-14 * rms

    @needs_longdouble
    def test_both_branches_match_extended_precision_oracle(self):
        heads, n_q, n_k, dh = 2, 200, 1000, 4
        rows = autodiff._TILE_ELEMS // (heads * n_k)
        assert n_q // rows >= 3 and n_q % rows != 0  # >= 3 query tiles, ragged last tile
        rng = np.random.default_rng(5)
        q = rng.normal(size=(heads, n_q, dh))
        k, v = rng.normal(size=(2, heads, n_k, dh))
        ref, weight = longdouble_attention(q, k, v, 0.5)
        tol = 8 * np.finfo(np.float64).eps * weight
        assert np.all(np.abs(attention(q, k, v, 0.5).data - ref) <= tol)
        assert np.all(np.abs(attention(Tensor(q, requires_grad=True), k, v, 0.5).data - ref) <= tol)

    @needs_longdouble
    @pytest.mark.parametrize("case", ["just_below_exp_safe", "scores_near_800"])
    def test_no_overflow_or_underflow_at_large_scores(self, case):
        heads, n_q, n_k, dh, scale = 2, 200, 1000, 4, 0.5
        rng = np.random.default_rng(6)
        if case == "just_below_exp_safe":  # the unshifted exp at its limit
            r = np.sqrt(0.99 * autodiff._EXP_SAFE / scale)
            q, k = rng.normal(size=(heads, n_q, dh)), rng.normal(size=(heads, n_k, dh))
            q *= r / np.linalg.norm(q, axis=-1, keepdims=True)
            k *= r / np.linalg.norm(k, axis=-1, keepdims=True)
        else:  # rows of scores near +800 (exp overflows) or -800 (exp underflows)
            u = np.full(dh, dh**-0.5)
            sign = np.where(rng.random(size=(heads, n_q, 1)) < 0.5, -1.0, 1.0)
            q = sign * 40 * u + 0.1 * rng.normal(size=(heads, n_q, dh))
            k = 40 * u + 0.1 * rng.normal(size=(heads, n_k, dh))
        v = rng.normal(size=(heads, n_k, dh))
        bound = scale * np.linalg.norm(q, axis=-1).max() * np.linalg.norm(k, axis=-1).max()
        top = np.abs(q @ k.swapaxes(-1, -2)).max() * scale
        if case == "just_below_exp_safe":
            assert 0.9 * autodiff._EXP_SAFE < top <= bound <= autodiff._EXP_SAFE
        else:
            assert top > 750 and bound > autodiff._EXP_SAFE
        ref, weight = longdouble_attention(q, k, v, scale)
        with np.errstate(over="raise", under="raise"):
            tiled = attention(q, k, v, scale).data
            taped = attention(Tensor(q, requires_grad=True), k, v, scale).data
        # a score of size `bound` is off by a few eps * bound, which exp turns
        # into a relative error of the probabilities
        tol = 8 * np.finfo(np.float64).eps * (1 + bound) * weight
        assert np.all(np.isfinite(tiled))
        assert np.all(np.abs(tiled - ref) <= tol) and np.all(np.abs(taped - ref) <= tol)
