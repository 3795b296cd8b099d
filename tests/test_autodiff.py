import numpy as np
import pytest

from vidflow import autodiff
from vidflow.autodiff import (
    attention_grads,
    attention_probs,
    attention_tiled,
    ffn,
    ffn_backward,
    layernorm,
    layernorm_backward,
    linear,
    linear_backward,
)

from oracles import numeric_grad


def check_grad(f, grad, shape, seed=0, tol=1e-6):
    """Compare ``grad(x)``, a closed-form gradient of the scalar ``f``,
    against central finite differences at a random ``x``."""
    x = np.random.default_rng(seed).normal(size=shape)
    assert np.abs(grad(x) - numeric_grad(f, x)).max() <= tol


def ffn_grads(args: dict, g) -> dict:
    """Every gradient of ``ffn(**args)`` for the output gradient ``g``, by name."""
    saved = []
    ffn(**args, saved=saved)
    grads = {k: np.zeros_like(args[k]) for k in ("w1", "b1", "w2", "b2")}
    grads["x"] = ffn_backward(g, saved[0], grads["w1"], grads["b1"], grads["w2"], grads["b2"])
    return grads


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


class TestLinear:
    X = np.random.default_rng(40).normal(size=(2, 3, 4)).reshape(6, 4)
    W = np.random.default_rng(41).normal(size=(4, 5))
    B = np.random.default_rng(42).normal(size=5)  # broadcast over the rows
    M = np.random.default_rng(43).normal(size=(2, 3, 5)).reshape(6, 5)

    def grads(self, x, w, b) -> dict:
        gw, gb = np.zeros_like(w), np.zeros_like(b)
        gx = linear_backward(self.M, x, gw, gb, w)
        return {"x": gx, "w": gw, "b": gb}

    def test_grad_of_x(self):
        check_grad(lambda t: (linear(t, self.W, self.B) * self.M).sum(),
                   lambda t: self.grads(t, self.W, self.B)["x"], self.X.shape, seed=4)

    def test_grad_of_w(self):
        check_grad(lambda t: (linear(self.X, t, self.B) * self.M).sum(),
                   lambda t: self.grads(self.X, t, self.B)["w"], self.W.shape, seed=5)

    def test_grad_of_broadcast_bias(self):
        check_grad(lambda t: (linear(self.X, self.W, t) * self.M).sum(),
                   lambda t: self.grads(self.X, self.W, t)["b"], self.B.shape, seed=6)


def gelu_args(t) -> dict:
    """The tanh GELU alone as ``ffn`` arguments: identity weights and zero
    biases (a product with the identity matrix is exact)."""
    eye, zero = np.eye(t.shape[-1]), np.zeros(t.shape[-1])
    return {"x": t, "w1": eye, "b1": zero, "w2": eye, "b2": zero}


class TestNonlinearities:
    def test_gelu_grad(self):
        def f(t):
            y = ffn(**gelu_args(t))
            return (y * y).sum()
        check_grad(f, lambda t: ffn_grads(gelu_args(t), 2 * ffn(**gelu_args(t)))["x"], (3, 3), seed=6)

    @pytest.mark.parametrize("save", [False, True])
    def test_forwards_are_bitwise_the_textbook_expressions(self, save):
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
        saved = [] if save else None
        assert ffn(x, w1, b1, w2, b2, saved).tobytes() == mlp.tobytes()
        assert layernorm(x, saved).tobytes() == ln.tobytes()
        assert x.tobytes() == before.tobytes()  # the input is not a work array
        assert len(saved or ()) == 2 * save

    def test_layernorm_output_normalized(self):
        y = layernorm(np.random.default_rng(7).normal(size=(4, 8)) * 3 + 1)
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_layernorm_grad(self):
        w = np.random.default_rng(8).normal(size=(2, 6))

        def grad(t):
            saved = []
            layernorm(t, saved)
            return layernorm_backward(w, *saved[0])
        check_grad(lambda t: (layernorm(t) * w).sum(), grad, (2, 6), seed=8, tol=1e-5)


class TestFFN:
    SHAPES = {"x": (2, 3, 4), "w1": (4, 6), "b1": (6,), "w2": (6, 5), "b2": (5,)}

    @pytest.mark.parametrize("which", list(SHAPES))
    def test_grad_of_each_operand(self, which):
        rng = np.random.default_rng(50)
        args = {k: rng.normal(size=shape) for k, shape in self.SHAPES.items()}
        m = rng.normal(size=(2, 3, 5))
        check_grad(lambda t: (ffn(**{**args, which: t}) * m).sum(),
                   lambda t: ffn_grads({**args, which: t}, m)[which], self.SHAPES[which], seed=51)


class TestAttention:
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_of_each_operand(self, which):
        rng = np.random.default_rng(11 + which)
        ops = [rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))]
        w = rng.normal(size=(2, 5, 3))

        def with_t(t):
            args = list(ops)
            args[which] = t
            return args

        def f(t):
            q, k, v = with_t(t)
            return (attention_probs(q, k, 0.7) @ v * w).sum()

        def grad(t):
            q, k, v = with_t(t)
            return attention_grads(attention_probs(q, k, 0.7), q, k, v, w, 0.7)[which]
        check_grad(f, grad, ops[which].shape, seed=11 + which)

    def test_tiled_branch_matches_recording_branch(self):
        heads, n, dh = 2, 1000, 4
        rows = autodiff._TILE_ELEMS // (heads * n)
        assert n // rows >= 3 and n % rows != 0  # >= 3 query tiles, ragged last tile
        rng = np.random.default_rng(12)
        q, k, v = (rng.normal(size=(heads, n, dh)) for _ in range(3))
        tiled = attention_tiled(q, k, v, 0.5)
        recorded = attention_probs(q, k, 0.5) @ v
        rms = np.sqrt(np.mean(recorded**2))
        assert np.abs(tiled - recorded).max() <= 1e-14 * rms

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
        assert np.all(np.abs(attention_tiled(q, k, v, 0.5) - ref) <= tol)
        assert np.all(np.abs(attention_probs(q, k, 0.5) @ v - ref) <= tol)

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
            tiled = attention_tiled(q, k, v, scale)
            recorded = attention_probs(q, k, scale) @ v
        # a score of size `bound` is off by a few eps * bound, which exp turns
        # into a relative error of the probabilities
        tol = 8 * np.finfo(np.float64).eps * (1 + bound) * weight
        assert np.all(np.isfinite(tiled))
        assert np.all(np.abs(tiled - ref) <= tol) and np.all(np.abs(recorded - ref) <= tol)
