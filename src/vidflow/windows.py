"""Cyclic shift-window 3D self-attention with boundary masks and 3D RoPE.

Token fields are arrays of shape (T, H, W, d): one token per (frame, row,
column) with an embedding axis.  Attention always spans the full spatial
plane; windows partition the frame axis only.  All math runs on
:class:`~vidflow.autodiff.Tensor` internally so the same code path serves
inference (numpy in / numpy out) and training (gradients flow to the
projection weights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, concat
from .errors import ConfigError

BLOCKED = -1e9  # additive pre-softmax surrogate for minus infinity


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


def _wrap_flags(T: int, s_t: int) -> np.ndarray:
    """For rolled position p, whether its original frame wrapped past T."""
    return (np.arange(T) + s_t) >= T


def build_boundary_mask(T: int, spec: WindowSpec, hw: int = 1) -> list[np.ndarray]:
    """Additive per-window masks for shift-window attention.

    After a forward shift of s_t, tokens whose original frames sit on opposite
    sides of the wrap seam share a window but are temporally unrelated; their
    pairs get the ``BLOCKED`` surrogate in both directions.  ``hw`` expands
    each frame-level mask to hw tokens per frame.
    """
    if T < spec.w_t:
        return [np.zeros((T * hw, T * hw))]
    wrapped = _wrap_flags(T, spec.s_t)
    masks = []
    for a, b in window_bounds(T, spec.w_t):
        flags = wrapped[a:b]
        blocked = flags[:, None] != flags[None, :]
        m = np.where(blocked, BLOCKED, 0.0)
        if hw > 1:
            m = np.kron(m, np.ones((hw, hw)))
        masks.append(m)
    return masks


def _rope_tables(coords: np.ndarray, cfg: RoPEConfig):
    """cos/sin tables (n, d) plus the pair-swap permutation and sign vector."""
    n = coords.shape[0]
    cos_parts, sin_parts = [], []
    perm = np.empty(cfg.d, dtype=int)
    sign = np.empty(cfg.d)
    offset = 0
    for axis, d_a in enumerate((cfg.d_t, cfg.d_h, cfg.d_w)):
        if d_a == 0:
            continue
        half = d_a // 2
        inv_freq = cfg.base ** (-2.0 * np.arange(half) / d_a)
        ang = coords[:, axis : axis + 1] * inv_freq[None, :]
        cos_parts.append(np.repeat(np.cos(ang), 2, axis=1))
        sin_parts.append(np.repeat(np.sin(ang), 2, axis=1))
        idx = offset + np.arange(d_a)
        perm[offset : offset + d_a : 2] = idx[1::2]
        perm[offset + 1 : offset + d_a : 2] = idx[0::2]
        sign[offset : offset + d_a : 2] = -1.0
        sign[offset + 1 : offset + d_a : 2] = 1.0
        offset += d_a
    cos = np.concatenate(cos_parts, axis=1) if cos_parts else np.ones((n, 0))
    sin = np.concatenate(sin_parts, axis=1) if sin_parts else np.ones((n, 0))
    return cos, sin, perm, sign


def _rope_rotate(x: Tensor, coords: np.ndarray, cfg: RoPEConfig) -> Tensor:
    """Rotate (n, d) embeddings by their (t, h, w) coordinates."""
    cos, sin, perm, sign = _rope_tables(coords, cfg)
    return x * cos + x.take_last(perm) * (sign[None, :] * sin)


def _field_coords(t_len: int, H: int, W: int, origin=(0, 0, 0)) -> np.ndarray:
    t0, h0, w0 = origin
    tt, hh, ww = np.meshgrid(
        np.arange(t_len) + t0, np.arange(H) + h0, np.arange(W) + w0, indexing="ij"
    )
    return np.stack([tt.ravel(), hh.ravel(), ww.ravel()], axis=1).astype(np.float64)


def apply_rope3d(field: np.ndarray, cfg: RoPEConfig, window_local_origin=(0, 0, 0)) -> np.ndarray:
    """Rotary-embed a (T, H, W, d) field; positions are the field indices
    offset by ``window_local_origin`` (pass zeros for window-local coords)."""
    T, H, W, d = field.shape
    if d != cfg.d:
        raise ConfigError(f"embedding dim {d} does not match rope split {cfg}")
    coords = _field_coords(T, H, W, window_local_origin)
    out = _rope_rotate(as_tensor(field.reshape(T * H * W, d)), coords, cfg)
    return out.data.reshape(T, H, W, d)


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

    s = spec.s_t if (shifted and T > spec.w_t) else 0
    if s:
        x = x.roll(-s, axis=0)
    masks = build_boundary_mask(T, spec, hw=H * W) if s else None

    outs = []
    for wi, (a, b) in enumerate(window_bounds(T, spec.w_t)):
        win = x[a:b]
        t_len = b - a
        n = t_len * H * W
        flat = win.reshape(n, d)
        q = flat @ wq
        k = flat @ wk
        v = flat @ wv
        coords = _field_coords(t_len, H, W)  # window-local positions
        q = _rope_rotate(q, coords, rope)
        k = _rope_rotate(k, coords, rope)
        qh = q.reshape(n, heads, dh).transpose((1, 0, 2))
        kh = k.reshape(n, heads, dh).transpose((1, 0, 2))
        vh = v.reshape(n, heads, dh).transpose((1, 0, 2))
        scores = (qh @ kh.transpose((0, 2, 1))) * scale
        if masks is not None:
            scores = scores + masks[wi][None, :, :]
        attn = scores.softmax(axis=-1)
        ctx = (attn @ vh).transpose((1, 0, 2)).reshape(n, d)
        outs.append((ctx @ wo).reshape(t_len, H, W, d))
    out = concat(outs, axis=0)
    if s:
        out = out.roll(s, axis=0)
    return out


def window_attention(
    x,
    spec: WindowSpec,
    shifted: bool,
    rope: RoPEConfig,
    weights: AttentionWeights,
    heads: int,
):
    """Per-window multi-head self-attention over a (T, H, W, d) token field.

    Unshifted mode partitions the frame axis directly; shifted mode cyclically
    rolls by half a window first, masks the seam window, and rolls back.
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
