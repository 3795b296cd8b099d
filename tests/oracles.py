"""Independent brute-force oracles the tests check the library against.

Everything here is written for clarity, not speed, and deliberately shares no
code with the implementation paths it validates.
"""

import numpy as np

from vidflow.windows import RoPEConfig


def bilinear_point(img: np.ndarray, y: float, x: float) -> float:
    """Scalar bilinear sample of a 2-D array with edge clamping."""
    h, w = img.shape
    y0 = min(max(int(np.floor(y)), 0), h - 1)
    x0 = min(max(int(np.floor(x)), 0), w - 1)
    y1 = min(y0 + 1, h - 1)
    x1 = min(x0 + 1, w - 1)
    wy = y - y0
    wx = x - x0
    return (
        img[y0, x0] * (1 - wy) * (1 - wx)
        + img[y0, x1] * (1 - wy) * wx
        + img[y1, x0] * wy * (1 - wx)
        + img[y1, x1] * wy * wx
    )


def bilinear_resize_oracle(img: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    """Align-corners bilinear resize, one scalar sample at a time."""
    h, w = img.shape
    ys = [(h - 1) / 2.0] if h_out == 1 else [i * (h - 1) / (h_out - 1) for i in range(h_out)]
    xs = [(w - 1) / 2.0] if w_out == 1 else [j * (w - 1) / (w_out - 1) for j in range(w_out)]
    out = np.empty((h_out, w_out))
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            out[i, j] = bilinear_point(img, y, x)
    return out


def mse_twopass(a: np.ndarray, b: np.ndarray) -> float:
    """Naive two-pass mean of squared differences."""
    total = 0.0
    for da, db in zip(a.ravel(), b.ravel()):
        total += (da - db) ** 2
    return total / a.size


def rope_oracle(x: np.ndarray, coords: np.ndarray, cfg: RoPEConfig) -> np.ndarray:
    """Rotate each embedding pair explicitly with 2x2 rotation matrices."""
    out = x.copy()
    for row in range(x.shape[0]):
        offset = 0
        for axis, d_a in enumerate((cfg.d_t, cfg.d_h, cfg.d_w)):
            pos = coords[row, axis]
            for j in range(d_a // 2):
                theta = pos * cfg.base ** (-2.0 * j / d_a)
                a = x[row, offset + 2 * j]
                b = x[row, offset + 2 * j + 1]
                out[row, offset + 2 * j] = a * np.cos(theta) - b * np.sin(theta)
                out[row, offset + 2 * j + 1] = a * np.sin(theta) + b * np.cos(theta)
            offset += d_a
    return out


def masked_global_attention_oracle(x, spec, shifted, cfg, weights, heads):
    """Reference for window attention: roll, one dense softmax-attention over
    all tokens with a window/seam mask, unroll."""
    T, H, W, d = x.shape
    s = spec.s_t if (shifted and T > spec.w_t) else 0
    xr = np.roll(x, -s, axis=0)

    win_id = np.zeros(T, dtype=int)
    wid = 0
    for a in range(0, T, spec.w_t):
        win_id[a : a + spec.w_t] = wid
        wid += 1
    wrapped = (np.arange(T) + s) >= T

    hw = H * W
    tok_win = np.repeat(win_id, hw)
    tok_wrap = np.repeat(wrapped, hw)
    allow = tok_win[:, None] == tok_win[None, :]
    if s:
        allow &= tok_wrap[:, None] == tok_wrap[None, :]
    mask = np.where(allow, 0.0, -1e9)

    # window-local rope coordinates of each rolled token
    n = T * hw
    coords = np.zeros((n, 3))
    idx = 0
    for t in range(T):
        t_local = t - (t // spec.w_t) * spec.w_t
        for hh in range(H):
            for ww in range(W):
                coords[idx] = (t_local, hh, ww)
                idx += 1

    flat = xr.reshape(n, d)
    q = rope_oracle(flat @ weights.wq, coords, cfg)
    k = rope_oracle(flat @ weights.wk, coords, cfg)
    v = flat @ weights.wv
    dh = d // heads
    ctx = np.zeros((n, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T * dh**-0.5 + mask
        scores -= scores.max(axis=1, keepdims=True)
        w = np.exp(scores)
        w /= w.sum(axis=1, keepdims=True)
        ctx[:, sl] = w @ v[:, sl]
    out = (ctx @ weights.wo).reshape(T, H, W, d)
    return np.roll(out, s, axis=0)


def laplacian_energy(v: np.ndarray) -> float:
    """Variance of the discrete spatial Laplacian (high-frequency energy)."""
    lap = (
        -4 * v[..., 1:-1, 1:-1]
        + v[..., :-2, 1:-1]
        + v[..., 2:, 1:-1]
        + v[..., 1:-1, :-2]
        + v[..., 1:-1, 2:]
    )
    return float(np.var(lap))


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        xp = x.copy(); xp[i] += eps
        xm = x.copy(); xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g
