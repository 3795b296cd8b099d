"""Shift-window 3D self-attention with 3D RoPE.

Token fields are arrays of shape (T, H, W, d): one token per (frame, row,
column) with an embedding axis.  Attention always spans the full spatial
plane; windows partition the frame axis only.  A shifted block moves the
window grid by half a window with wrap-around, as a cyclic roll would, but
attends directly over contiguous runs of original frames: a window that wraps
past the last frame splits into two runs that never see each other, so no
roll and no seam mask is needed.  All math runs on
:class:`~vidflow.autodiff.Tensor` internally so one code path serves
inference (numpy in / numpy out) and training (gradients flow to the
projection weights).  The two differ only inside
:func:`~vidflow.autodiff.attention`: with no gradient needed it records no
graph and runs over query tiles; otherwise it keeps the probabilities for the
backward.  RoPE tables are built once per run shape and origin and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autodiff import Tensor, as_tensor, attention, concat, rope as rotate_pairs
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

    d_t: int
    d_h: int
    d_w: int
    base: float = 10000.0

    def __post_init__(self):
        for part in (self.d_t, self.d_h, self.d_w):
            if part < 0 or part % 2 != 0:
                raise ConfigError(f"rope sub-dimensions must be even, got {self}")

    @property
    def d(self) -> int:
        return self.d_t + self.d_h + self.d_w

    @classmethod
    def even_split(cls, d: int, base: float = 10000.0) -> "RoPEConfig":
        if d % 6 != 0:
            raise ConfigError(f"embedding dim must be divisible by 6 for a 3-axis split, got {d}")
        return cls(d // 3, d // 3, d // 3, base)


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
    so that :func:`~vidflow.autodiff.rope` turns each adjacent pair
    (x[2i], x[2i+1]) into (x[2i]·cos − x[2i+1]·sin, x[2i+1]·cos + x[2i]·sin).
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

    wq: object
    wk: object
    wv: object
    wo: object


def _window_attention_t(
    x: Tensor,
    spec: WindowSpec,
    shifted: bool,
    rope: RoPEConfig,
    weights: AttentionWeights,
    heads: int,
) -> Tensor:
    T, H, W, d = x.shape
    if d % heads != 0:
        raise ConfigError(f"embedding dim {d} not divisible by heads {heads}")
    dh = d // heads
    scale = dh**-0.5
    wq, wk, wv, wo = (as_tensor(w) for w in (weights.wq, weights.wk, weights.wv, weights.wo))

    plane = H * W
    tokens = x.reshape(T * plane, d)
    outs = []
    for a, b, t0 in _frame_runs(T, spec, shifted):
        n = (b - a) * plane
        run = tokens[a * plane : b * plane]
        q = run @ wq
        k = run @ wk
        v = run @ wv
        cos, sin = _rope_tables(b - a, H, W, (t0, 0, 0), rope)  # window-local positions
        q = rotate_pairs(q, cos, sin)
        k = rotate_pairs(k, cos, sin)
        qh = q.reshape(n, heads, dh).transpose((1, 0, 2))
        kh = k.reshape(n, heads, dh).transpose((1, 0, 2))
        vh = v.reshape(n, heads, dh).transpose((1, 0, 2))
        ctx = attention(qh, kh, vh, scale).transpose((1, 0, 2)).reshape(n, d)
        outs.append(ctx @ wo)
    return concat(outs).reshape(T, H, W, d)


def window_attention(
    x,
    spec: WindowSpec,
    shifted: bool,
    rope: RoPEConfig,
    weights: AttentionWeights,
    heads: int,
):
    """Per-window multi-head self-attention over a (T, H, W, d) token field.

    Unshifted mode attends within each window of the frame axis.  Shifted mode
    moves the windows by half a window with wrap-around and attends within
    each contiguous frame run: the window that wraps past the last frame
    yields two runs, its tail frames and the leading frames it wrapped onto.
    Accepts a numpy array (returns numpy) or a Tensor (stays on the tape).
    """
    if isinstance(x, Tensor):
        return _window_attention_t(x, spec, shifted, rope, weights, heads)
    return _window_attention_t(as_tensor(x), spec, shifted, rope, weights, heads).data


@dataclass
class BlockWeights:
    """One transformer block: attention projections plus a 2-layer GELU FFN."""

    attn: AttentionWeights
    w1: object
    b1: object
    w2: object
    b2: object


def _block(x: Tensor, bw: BlockWeights, spec, shifted, rope, heads) -> Tensor:
    h = x + _window_attention_t(x.layernorm(), spec, shifted, rope, bw.attn, heads)
    T, H, W, d = h.shape
    flat = h.layernorm().reshape(T * H * W, d)
    f = (flat @ as_tensor(bw.w1) + as_tensor(bw.b1)).gelu() @ as_tensor(bw.w2) + as_tensor(bw.b2)
    return h + f.reshape(T, H, W, d)


def swin_block_pair(
    x,
    block_weights: tuple[BlockWeights, BlockWeights],
    spec: WindowSpec,
    rope: RoPEConfig,
    heads: int,
):
    """Unshifted block followed by a shifted block (pre-norm, residual)."""
    t = as_tensor(x) if not isinstance(x, Tensor) else x
    t = _block(t, block_weights[0], spec, False, rope, heads)
    t = _block(t, block_weights[1], spec, True, rope, heads)
    return t if isinstance(x, Tensor) else t.data
