import tracemalloc

import numpy as np
import pytest

from vidflow.errors import ConfigError
from vidflow.windows import (
    AttentionWeights,
    BlockWeights,
    RoPEConfig,
    WindowSpec,
    _frame_runs,
    _rope_tables,
    frame_pairs,
    swin_block_pair,
    swin_block_pair_backward,
    window_attention,
    window_attention_backward,
)

from oracles import masked_global_attention_oracle, numeric_grad, rope_oracle


def apply_rope3d(field, cfg, window_local_origin=(0, 0, 0)):
    """Rotary-embed a (T, H, W, d) field with the tables attention uses and a
    pair swap of its own; positions are the field indices offset by
    ``window_local_origin``."""
    T, H, W, d = field.shape
    cos, sin = _rope_tables(T, H, W, tuple(window_local_origin), cfg)
    flat = field.reshape(-1, d)
    swapped = flat.reshape(-1, d // 2, 2)[:, :, ::-1].reshape(-1, d)
    return (flat * cos + swapped * sin).reshape(field.shape)


def random_weights(d, rng):
    return AttentionWeights(*(rng.normal(size=(d, d)) * d**-0.5 for _ in range(4)))


def zero_buffers(weights: AttentionWeights) -> AttentionWeights:
    return AttentionWeights(*(np.zeros_like(w) for w in vars(weights).values()))


class TestPartition:
    def test_bounds_ceil(self):
        # unshifted, the runs are the ceil(T / w_t) windows, the last one unpadded
        assert _frame_runs(8, WindowSpec(4), False) == [(0, 4, 0), (4, 8, 0)]
        assert _frame_runs(7, WindowSpec(4), False) == [(0, 4, 0), (4, 7, 0)]
        assert _frame_runs(3, WindowSpec(4), False) == [(0, 3, 0)]

    @pytest.mark.parametrize("w_t", [2, 4, 6, 8, 10])
    def test_frame_pairs_is_the_mean_of_both_layers_runs(self, w_t):
        for T in range(1, 61):
            both = sum((b - a) ** 2 for shifted in (False, True)
                       for a, b, _ in _frame_runs(T, WindowSpec(w_t), shifted))
            assert 2 * frame_pairs(T, w_t) == both, T

    def test_window_spec_validation(self):
        for bad in (0, 1, 3):
            with pytest.raises(ConfigError):
                WindowSpec(bad)


def per_axis_rope_tables(t_len, H, W, origin, cfg):
    """The RoPE tables built one axis at a time, each axis's angles from its
    own coordinate column and the parts concatenated: the reference that
    :func:`_rope_tables`, which forms one angle array over all three axes,
    must match bit for bit."""
    t0, h0, w0 = origin
    tt, hh, ww = np.meshgrid(
        np.arange(t_len) + t0, np.arange(H) + h0, np.arange(W) + w0, indexing="ij"
    )
    coords = np.stack([tt.ravel(), hh.ravel(), ww.ravel()], axis=1).astype(np.float64)
    n = coords.shape[0]
    cos_parts, sin_parts = [], []
    for axis, d_a in enumerate((cfg.d_t, cfg.d_h, cfg.d_w)):
        if d_a == 0:
            continue
        half = d_a // 2
        inv_freq = cfg.base ** (-2.0 * np.arange(half) / d_a)
        ang = coords[:, axis : axis + 1] * inv_freq[None, :]
        cos_parts.append(np.repeat(np.cos(ang), 2, axis=1))
        sin_parts.append(np.repeat(np.sin(ang), 2, axis=1))
    cos = np.concatenate(cos_parts, axis=1) if cos_parts else np.ones((n, 0))
    sin = np.concatenate(sin_parts, axis=1) if sin_parts else np.ones((n, 0))
    return cos, np.tile([-1.0, 1.0], cfg.d // 2) * sin


class TestRope:
    @pytest.mark.parametrize("cfg", [RoPEConfig.even_split(6), RoPEConfig.even_split(12),
                                     RoPEConfig.even_split(48), RoPEConfig(4, 0, 8), RoPEConfig(0, 0, 6),
                                     RoPEConfig(8, 2, 2)],
                             ids=["even_split6", "even_split12", "even_split48", "no_vertical_part",
                                  "horizontal_only", "uneven"])
    @pytest.mark.parametrize("t_len", [1, 2, 3, 4])
    def test_tables_equal_the_per_axis_build_bit_for_bit(self, cfg, t_len):
        for origin in ((0, 0, 0), (2, 0, 0), (3, 1, 2)):
            got = _rope_tables(t_len, 3, 2, origin, cfg)
            want = per_axis_rope_tables(t_len, 3, 2, origin, cfg)
            for g, w in zip(got, want):
                assert g.shape == w.shape == (t_len * 6, cfg.d) and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes(), origin

    def test_zero_coords_identity(self):
        x = np.random.default_rng(1).normal(size=(1, 1, 1, 6))
        out = apply_rope3d(x, RoPEConfig.even_split(6))
        assert np.allclose(out, x, atol=1e-14)

    def test_norm_preserved(self):
        x = np.random.default_rng(2).normal(size=(4, 3, 3, 12))
        out = apply_rope3d(x, RoPEConfig.even_split(12))
        assert np.allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-12
        )

    @pytest.mark.parametrize("cfg", [RoPEConfig.even_split(12), RoPEConfig(4, 0, 8)],
                             ids=["even_split", "no_vertical_part"])
    def test_matches_pairwise_rotation_oracle(self, cfg):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 2, 2, 12))
        out = apply_rope3d(x, cfg, window_local_origin=(1, 0, 2))
        coords = np.array(
            [(t + 1, h, w + 2) for t in range(3) for h in range(2) for w in range(2)],
            dtype=float,
        )
        expect = rope_oracle(x.reshape(-1, 12), coords, cfg)
        assert np.abs(out.reshape(-1, 12) - expect).max() <= 1e-12

    def test_odd_sub_dimension_rejected(self):
        with pytest.raises(ConfigError, match="rope sub-dimensions must be even"):
            RoPEConfig(3, 2, 1)

    def test_inner_product_depends_on_offset_only(self):
        # the defining rotary property: <R(p)q, R(p')k> is a function of p - p'
        cfg = RoPEConfig(6, 0, 0)
        rng = np.random.default_rng(4)
        q = rng.normal(size=(1, 6))
        k = rng.normal(size=(1, 6))

        def dot(pq, pk):
            rq = rope_oracle(q, np.array([[pq, 0, 0]], dtype=float), cfg)
            rk = rope_oracle(k, np.array([[pk, 0, 0]], dtype=float), cfg)
            return float((rq @ rk.T).item())

        assert dot(5, 2) == pytest.approx(dot(8, 5), abs=1e-12)
        assert dot(0, 3) == pytest.approx(dot(4, 7), abs=1e-12)

    def test_dim_not_divisible_by_six(self):
        with pytest.raises(ConfigError):
            RoPEConfig.even_split(8)


class TestWindowAttention:
    @pytest.mark.parametrize("T,w_t,shifted", [
        (8, 4, False), (8, 4, True), (7, 4, True), (4, 2, True),
        (12, 4, True), (5, 4, True), (2, 4, True), (9, 4, True), (6, 4, True),
    ])
    def test_matches_masked_global_oracle(self, T, w_t, shifted):
        rng = np.random.default_rng(T * 100 + w_t + shifted)
        d, heads = 12, 2
        x = rng.normal(size=(T, 2, 2, d))
        spec = WindowSpec(w_t)
        cfg = RoPEConfig.even_split(d)
        weights = random_weights(d, rng)
        out = window_attention(x, spec, shifted, cfg, weights, heads)
        expect = masked_global_attention_oracle(x, spec, shifted, cfg, weights, heads)
        assert np.abs(out - expect).max() <= 1e-10

    def test_dim_not_divisible_by_heads(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 2, 2, 6))
        with pytest.raises(ConfigError, match="embedding dim 6 not divisible by heads 4"):
            window_attention(x, WindowSpec(2), False, RoPEConfig.even_split(6), random_weights(6, rng), heads=4)

    def test_unshifted_windows_are_independent(self):
        # perturbing a frame in one window must not change other windows
        rng = np.random.default_rng(7)
        d = 6
        x = rng.normal(size=(8, 1, 1, d))
        spec, cfg = WindowSpec(4), RoPEConfig.even_split(d)
        weights = random_weights(d, rng)
        base = window_attention(x, spec, False, cfg, weights, 1)
        x2 = x.copy()
        x2[0] += 1.0
        out = window_attention(x2, spec, False, cfg, weights, 1)
        assert np.abs(out[4:] - base[4:]).max() == 0.0
        assert np.abs(out[:4] - base[:4]).max() > 0.0

    def test_shifted_bridges_window_boundary(self):
        # frames 3 and 4 sit in different unshifted windows but share the
        # shifted window [2, 6): information must cross the boundary
        rng = np.random.default_rng(8)
        d = 6
        x = rng.normal(size=(8, 1, 1, d))
        spec, cfg = WindowSpec(4), RoPEConfig.even_split(d)
        weights = random_weights(d, rng)
        base = window_attention(x, spec, True, cfg, weights, 1)
        x2 = x.copy()
        x2[3] += 1.0
        out = window_attention(x2, spec, True, cfg, weights, 1)
        assert np.abs(out[4] - base[4]).max() > 1e-8

    def test_seam_is_blocked(self):
        # frame 0 (wrapped into the seam window) must not see
        # frames 6 and 7 and vice versa
        rng = np.random.default_rng(9)
        d = 6
        x = rng.normal(size=(8, 1, 1, d))
        spec, cfg = WindowSpec(4), RoPEConfig.even_split(d)
        weights = random_weights(d, rng)
        base = window_attention(x, spec, True, cfg, weights, 1)
        x2 = x.copy()
        x2[6] += 1.0
        out = window_attention(x2, spec, True, cfg, weights, 1)
        assert np.abs(out[0] - base[0]).max() == 0.0
        assert np.abs(out[1] - base[1]).max() == 0.0

    def test_inference_keeps_no_score_matrix(self):
        # one head's 1024x1024 float64 scores alone are 8 MB
        rng = np.random.default_rng(11)
        d, heads = 48, 6
        x = rng.normal(size=(8, 16, 16, d))
        weights = random_weights(d, rng)
        spec, cfg = WindowSpec(4), RoPEConfig.even_split(d)
        tracemalloc.start()
        try:
            window_attention(x, spec, False, cfg, weights, heads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_gradients_flow_to_projections(self):
        rng = np.random.default_rng(10)
        d = 6
        x = rng.normal(size=(5, 1, 2, d))
        spec = WindowSpec(4)
        cfg = RoPEConfig.even_split(d)
        weights = AttentionWeights(*(rng.normal(size=(d, d)) * d**-0.5 for _ in range(4)))
        saved = []
        out = window_attention(x, spec, True, cfg, weights, 2, saved)
        grads = zero_buffers(weights)
        window_attention_backward(np.ones_like(out), saved.pop(), grads)
        wq = weights.wq
        eps = 1e-6
        i, j = 1, 2
        plus = wq.copy(); plus[i, j] += eps
        minus = wq.copy(); minus[i, j] -= eps
        w_plus = AttentionWeights(plus, weights.wk, weights.wv, weights.wo)
        w_minus = AttentionWeights(minus, weights.wk, weights.wv, weights.wo)
        f_plus = window_attention(x, spec, True, cfg, w_plus, 2).sum()
        f_minus = window_attention(x, spec, True, cfg, w_minus, 2).sum()
        num = (f_plus - f_minus) / (2 * eps)
        assert grads.wq[i, j] == pytest.approx(num, abs=1e-6)


class TestFusedOpGradients:
    """The closed-form backwards of ``window_attention`` and of the block
    pair against central finite differences.  w_t = 4 with T = 2, 5, 9 covers
    a single short window, a ragged tail and, shifted, the seam runs."""

    d, heads = 6, 2

    def case(self, T, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(T, 1, 2, self.d))
        return rng, x, rng.normal(size=x.shape)

    @pytest.mark.parametrize("which", ["x", "wq", "wk", "wv", "wo"])
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("T", [2, 5, 9])
    def test_window_attention(self, T, shifted, which):
        rng, x, m = self.case(T, 100 * T + 10 * shifted + len(which))
        spec, cfg = WindowSpec(4), RoPEConfig.even_split(self.d)
        args = {"x": x, **vars(random_weights(self.d, rng))}

        def f(arrays, saved=None):
            w = AttentionWeights(arrays["wq"], arrays["wk"], arrays["wv"], arrays["wo"])
            return window_attention(arrays["x"], spec, shifted, cfg, w, self.heads, saved)

        saved = []
        f(args, saved)
        grads = zero_buffers(AttentionWeights(*(args[k] for k in ("wq", "wk", "wv", "wo"))))
        got = {"x": window_attention_backward(m, saved.pop(), grads), **vars(grads)}
        num = numeric_grad(lambda a: float((f({**args, which: a}) * m).sum()), args[which])
        assert np.abs(got[which] - num).max() <= 1e-6

    @pytest.mark.parametrize("which", ["x", "w1", "b1", "w2", "b2"])
    @pytest.mark.parametrize("T", [2, 5, 9])
    def test_block_pair_ffn(self, T, which):
        rng, x, m = self.case(T, 7 * T + len(which))
        spec, cfg = WindowSpec(4), RoPEConfig.even_split(self.d)
        shapes = {"w1": (self.d, 4 * self.d), "b1": (4 * self.d,), "w2": (4 * self.d, self.d), "b2": (self.d,)}
        attn = [random_weights(self.d, rng) for _ in range(2)]
        args = {"x": x, **{k: 0.5 * rng.normal(size=shape) for k, shape in shapes.items()}}

        def f(arrays, saved=None):
            ffn = [arrays[k] for k in shapes]
            blocks = (BlockWeights(attn[0], *ffn), BlockWeights(attn[1], *ffn))
            return swin_block_pair(arrays["x"], blocks, spec, cfg, self.heads, saved)

        saved = []
        f(args, saved)
        ffn_grads = [np.zeros(shape) for shape in shapes.values()]  # both blocks share the FFN
        grads = tuple(BlockWeights(zero_buffers(a), *ffn_grads) for a in attn)
        got = {"x": swin_block_pair_backward(m, saved, grads), **dict(zip(shapes, ffn_grads))}
        assert saved == []
        num = numeric_grad(lambda a: float((f({**args, which: a}) * m).sum()), args[which])
        assert np.abs(got[which] - num).max() <= 1e-6
