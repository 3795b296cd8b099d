"""Shift-window 3D self-attention with 3D RoPE.

Token fields are arrays of shape (T, H, W, d): one token per (frame, row,
column) with an embedding axis.  Attention always spans the full spatial
plane; windows partition the frame axis only.  A shifted block moves the
window grid by half a window with wrap-around, as a cyclic roll would, but
attends directly over contiguous runs of original frames: a window that wraps
past the last frame splits into two runs that never see each other, so no
roll and no seam mask is needed.

:func:`window_attention` and :func:`swin_block_pair` run on plain arrays.
Without a ``saved`` list, attention runs over query tiles
(:func:`~vidflow.autodiff.attention_tiled`) and keeps nothing; with one,
every layer of the pair appends what its backward needs, and
:func:`window_attention_backward` and :func:`swin_block_pair_backward` return
the input gradient and add the weight gradients into the caller's buffers.
RoPE tables are built once per run shape and origin and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autodiff import attention_grads, attention_probs, attention_tiled, ffn, ffn_backward
from .autodiff import layernorm, layernorm_backward
from .errors import ConfigError

@dataclass(frozen=True)
class WindowSpec:
    """Temporal window length and its half-window shift."""

    w_t: int

    def __post_init__(self):
        if self.w_t < 2 or self.w_t % 2 != 0:
            raise ConfigError(f"window length must be even and >= 2, got {self.w_t}")

    @property
    def s_t(self) -> int:
        return self.w_t // 2


@dataclass(frozen=True)
class RoPEConfig:
    """Per-axis rotary embedding setup; the embedding splits into (temporal,
    vertical, horizontal) sub-dimensions, each rotated by its own coordinate."""

    base = 10000.0  # frequency base (RoFormer); a class constant, not a field

    d_t: int
    d_h: int
    d_w: int

    def __post_init__(self):
        for part in (self.d_t, self.d_h, self.d_w):
            if part < 0 or part % 2 != 0:
                raise ConfigError(f"rope sub-dimensions must be even, got {self}")

    @property
    def d(self) -> int:
        return self.d_t + self.d_h + self.d_w

    @classmethod
    def even_split(cls, d: int) -> "RoPEConfig":
        if d % 6 != 0:
            raise ConfigError(f"embedding dim must be divisible by 6 for a 3-axis split, got {d}")
        return cls(d // 3, d // 3, d // 3)


def window_bounds(T: int, w_t: int) -> list[tuple[int, int]]:
    """Frame ranges of the ceil(T / w_t) temporal windows (tail unpadded)."""
    return [(a, min(a + w_t, T)) for a in range(0, T, w_t)]


def _frame_runs(T: int, spec: WindowSpec, shifted: bool) -> list[tuple[int, int, int]]:
    """(first, stop, RoPE time origin) of each attention run, in frame order.

    Shifted mode lays the windows over the frame axis rolled by s_t; a window
    whose frames wrap past T splits at the seam into two runs, and the wrapped
    run keeps the window-local positions it had in the rolled window.  RoPE
    scores depend only on position offsets within a run, so that origin moves
    results by rounding only; keeping it reproduces the rolled form's values.
    """
    s = spec.s_t if (shifted and T > spec.w_t) else 0
    runs = []
    for a, b in window_bounds(T, spec.w_t):
        cut = min(max(T - s, a), b)
        runs += [(a + s, cut + s, 0), (cut + s - T, b + s - T, cut - a)]
    return sorted(r for r in runs if r[0] < r[1])


@lru_cache(maxsize=64)
def _rope_tables(t_len: int, H: int, W: int, origin: tuple[int, int, int], cfg: RoPEConfig):
    """Read-only RoPE tables for a (t_len, H, W) field whose positions start at
    ``origin``: cos (n, d) and sign * sin (n, d) with sign = [-1, 1, -1, 1, ...],
    so that ``x * cos + x[..., swap] * sin`` with ``swap = [1, 0, 3, 2, ...]``
    turns each adjacent pair (x[2i], x[2i+1]) into
    (x[2i]·cos − x[2i+1]·sin, x[2i+1]·cos + x[2i]·sin).
    The sub-dimensions d_t, d_h, d_w are even, so no pair straddles two axes."""
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
    tables = (cos, np.tile([-1.0, 1.0], cfg.d // 2) * sin)
    for a in tables:
        a.flags.writeable = False
    return tables


@dataclass
class AttentionWeights:
    """Q/K/V/output projections, each (d, d)."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


def window_attention(
    x: np.ndarray,
    spec: WindowSpec,
    shifted: bool,
    rope: RoPEConfig,
    weights: AttentionWeights,
    heads: int,
    saved: list | None = None,
) -> np.ndarray:
    """Per-window multi-head self-attention over a (T, H, W, d) token field.

    Unshifted mode attends within each window of the frame axis.  Shifted mode
    moves the windows by half a window with wrap-around and attends within
    each contiguous frame run: the window that wraps past the last frame
    yields two runs, its tail frames and the leading frames it wrapped onto.

    Each run projects its tokens to q, k and v, rotates q and k by RoPE at
    window-local positions, attends, and writes its output projection into
    its rows of one preallocated field.  Without ``saved`` it attends over
    query tiles and keeps nothing; with it the probabilities are formed whole
    and every run's activations are kept, with the weights.
    """
    T, H, W, d = x.shape
    if d % heads != 0:
        raise ConfigError(f"embedding dim {d} not divisible by heads {heads}")
    dh = d // heads
    scale = dh**-0.5
    swap = np.arange(d) ^ 1  # the RoPE pair swap, its own inverse
    plane = H * W
    tokens = x.reshape(T * plane, d)
    out = np.empty_like(tokens)
    runs = []
    for a, b, t0 in _frame_runs(T, spec, shifted):
        n = (b - a) * plane
        rows = slice(a * plane, b * plane)
        run = tokens[rows]
        cos, sin = _rope_tables(b - a, H, W, (t0, 0, 0), rope)  # window-local positions
        q, k, v = run @ weights.wq, run @ weights.wk, run @ weights.wv
        q = q * cos + q[..., swap] * sin
        k = k * cos + k[..., swap] * sin
        qh, kh, vh = (m.reshape(n, heads, dh).transpose(1, 0, 2) for m in (q, k, v))
        if saved is None:
            ctx = attention_tiled(qh, kh, vh, scale).transpose(1, 0, 2).reshape(n, d)
        else:
            p = attention_probs(qh, kh, scale)
            ctx = (p @ vh).transpose(1, 0, 2).reshape(n, d)
            runs.append((rows, run, cos, sin, qh, kh, vh, p, ctx))
        np.matmul(ctx, weights.wo, out=out[rows])
    if saved is not None:
        saved.append((runs, weights, heads, scale))
    return out.reshape(T, H, W, d)


def window_attention_backward(g: np.ndarray, entry, grads: AttentionWeights) -> np.ndarray:
    """Add the projection gradients of :func:`window_attention` into the
    buffers ``grads`` and return the input gradient, given the output
    gradient ``g`` and the saved ``entry``.

    The runs are visited in frame order: each adds its q, k and v paths, in
    that order, into its rows of a zeroed input gradient, and its terms to
    every weight's buffer."""
    runs, w, heads, scale = entry
    shape, d = g.shape, g.shape[-1]
    dh = d // heads
    swap = np.arange(d) ^ 1
    g = g.reshape(-1, d)
    gx = np.zeros_like(g)
    for rows, run, cos, sin, qh, kh, vh, p, ctx in runs:
        n = run.shape[0]
        go = g[rows]
        gctx = go @ w.wo.T
        grads.wo += ctx.T @ go
        gctx = gctx.reshape(n, heads, dh).transpose(1, 0, 2)
        gq, gk, gv = (gm.transpose(1, 0, 2).reshape(n, d) for gm in attention_grads(p, qh, kh, vh, gctx, scale))
        gq = gq * cos + (gq * sin)[..., swap]
        gk = gk * cos + (gk * sin)[..., swap]
        g_run = gx[rows]
        for gm, wm, gw in ((gq, w.wq, grads.wq), (gk, w.wk, grads.wk), (gv, w.wv, grads.wv)):
            g_run += gm @ wm.T
            gw += run.T @ gm
    return gx.reshape(shape)


@dataclass
class BlockWeights:
    """One transformer block: attention projections plus a 2-layer GELU FFN.
    The reverse pass holds the blocks' gradient buffers in the same form."""

    attn: AttentionWeights
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def _block(x, bw: BlockWeights, spec, shifted, rope, heads, saved):
    h = x + window_attention(layernorm(x, saved), spec, shifted, rope, bw.attn, heads, saved)
    return h + ffn(layernorm(h, saved), bw.w1, bw.b1, bw.w2, bw.b2, saved)


def swin_block_pair(
    x: np.ndarray,
    block_weights: tuple[BlockWeights, BlockWeights],
    spec: WindowSpec,
    rope: RoPEConfig,
    heads: int,
    saved: list | None = None,
) -> np.ndarray:
    """Unshifted block followed by a shifted block (pre-norm, residual) over
    one (T, H, W, d) field.  With ``saved``, each of the pair's eight layers
    appends its entry, in forward order."""
    x = _block(x, block_weights[0], spec, False, rope, heads, saved)
    return _block(x, block_weights[1], spec, True, rope, heads, saved)


def swin_block_pair_backward(g: np.ndarray, saved: list, grads: tuple[BlockWeights, BlockWeights]) -> np.ndarray:
    """The input gradient of :func:`swin_block_pair` from its output gradient
    ``g``, popping the pair's entries off the end of ``saved`` and adding the
    weight gradients into the buffers ``grads``.  A residual's gradient is
    the output gradient plus its layer path's."""
    for gb in reversed(grads):
        f = ffn_backward(g, saved.pop(), gb.w1, gb.b1, gb.w2, gb.b2)
        g = g + layernorm_backward(f, *saved.pop())
        a = window_attention_backward(g, saved.pop(), gb.attn)
        g = g + layernorm_backward(a, *saved.pop())
    return g
