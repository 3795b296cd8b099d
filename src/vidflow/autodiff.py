"""The denoiser's layer kernels over numpy arrays, each a forward and a
closed-form backward.

A forward given a ``saved`` list appends what its backward needs to it;
without one it keeps nothing, and :func:`layernorm`, :func:`ffn` and
:func:`attention_tiled` run in place on their work arrays.  A backward takes
the output gradient and the saved entry, adds the parameter gradients into
the caller's buffers with ``+=`` and returns the input gradient.  Buffers
start at zero and take their terms in the order the caller visits them, so
a sum of several terms has the bits of that order.  The denoiser's reverse
pass (:mod:`vidflow.denoiser`) calls these backwards in a fixed order; nothing
records a graph.
"""

from __future__ import annotations

import math

import numpy as np

# Score elements per query tile of attention_tiled: 2**17 float64 values are
# 1 MiB, so a tile of scores stays cache-sized.
_TILE_ELEMS = 1 << 17

# Largest score bound B for which attention_tiled skips the row-max shift.  By
# Cauchy–Schwarz every score obeys |s_ij| <= scale·‖q_i‖·‖k_j‖, so
# B = scale·max‖q_i‖·max‖k_j‖ bounds them before any is computed.  If B <= 64,
# each exp(s) lies in [e**-64, e**64] = [1.6e-28, 6.2e27]: none overflows or
# falls to a subnormal, and a row sum over even 2**40 keys stays below 1e40.
# softmax(s) = softmax(s - max s), so the unshifted terms give the same
# probabilities up to rounding; above the bound the row max is subtracted.
_EXP_SAFE = 64.0


class Tensor:
    """A training loss's handle on its reverse pass: :meth:`backward` runs
    ``reverse()`` once and returns its gradients.

    It records no graph.  It stays because the benchmark's tracer times and
    counts reverse passes by wrapping ``autodiff.Tensor.backward``; spans
    inside the program (ROADMAP item 3) retire it."""

    __slots__ = ("_reverse",)

    def __init__(self, reverse):
        self._reverse = reverse

    def backward(self):
        return self._reverse()


def layernorm(x: np.ndarray, saved: list | None = None) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance (eps 1e-6, no affine).

    The centred input is the one work array; it is scaled in place into the
    output.  ``saved`` gets the output and the row scales."""
    y = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(y).mean(axis=-1, keepdims=True) + 1e-6)
    y *= inv
    if saved is not None:
        saved.append((y, inv))
    return y


def layernorm_backward(g: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The input gradient of :func:`layernorm` from its output ``y`` and row scales ``inv``."""
    gm = g.mean(axis=-1, keepdims=True)
    gym = (g * y).mean(axis=-1, keepdims=True)
    return inv * (g - gm - y * gym)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray, saved: list | None = None) -> np.ndarray:
    """``x @ w + b`` over 2-D ``x``, the bias added in place to the product;
    ``saved`` gets ``x``."""
    y = x @ w
    y += b
    if saved is not None:
        saved.append(x)
    return y


def linear_backward(g, x, gw, gb, w=None):
    """Add ``xᵀ @ g`` to ``gw`` and ``g`` summed over rows to ``gb``; return
    the input gradient ``g @ wᵀ``, or None when ``w`` is not given (an input
    that needs no gradient)."""
    gw += x.T @ g
    gb += g.sum(axis=0)
    return None if w is None else g @ w.T


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_gate(h: np.ndarray) -> np.ndarray:
    """``tanh(c*(h + 0.044715*h**3))`` in one new work array, in the textbook
    expression's operation order (the cube as ``h * h * h``: numpy sends
    ``h**3`` to libm ``pow``)."""
    t = h * h
    t *= h
    t *= 0.044715
    t += h
    t *= _GELU_C
    return np.tanh(t, out=t)


def ffn(x, w1, b1, w2, b2, saved: list | None = None) -> np.ndarray:
    """The feed-forward ``gelu(x @ w1 + b1) @ w2 + b2`` over the last axis of
    ``x``, with the tanh-approximate GELU
    ``0.5*h*(1 + tanh(c*(h + 0.044715*h**3)))``.

    The leading axes are flattened, so each matmul is one 2-D product.
    Without ``saved`` the GELU runs in place on the hidden array; with it the
    hidden array, its tanh and its activation are kept, with the weights."""
    flat = x.reshape(-1, x.shape[-1])
    h = flat @ w1
    h += b1
    t = _gelu_gate(h)
    if saved is None:
        t += 1.0
        h *= 0.5
        h *= t
        a = h
        del t  # freed before the output product allocates
    else:
        a = 0.5 * h
        a *= 1.0 + t
        saved.append((x, h, t, a, w1, w2))
    y = a @ w2
    y += b2
    return y.reshape(x.shape[:-1] + w2.shape[-1:])


def ffn_backward(g, entry, gw1, gb1, gw2, gb2) -> np.ndarray:
    """Add the four weight gradients of :func:`ffn` into ``gw1, gb1, gw2,
    gb2`` and return the input gradient, given the output gradient ``g`` and
    the saved ``entry``."""
    x, h, t, a, w1, w2 = entry
    g = g.reshape(-1, w2.shape[-1])
    ga = g @ w2.T
    gw2 += a.T @ g
    gb2 += g.sum(axis=0)
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * h**2)
    gh = ga * (0.5 * (1.0 + t) + 0.5 * h * (1.0 - t**2) * dinner)
    gw1 += x.reshape(-1, x.shape[-1]).T @ gh
    gb1 += gh.sum(axis=0)
    return (gh @ w1.T).reshape(x.shape)


def attention_probs(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """softmax(q @ kᵀ * scale) over the last axis, computed whole and shifted
    by the row max: the probabilities a saving forward keeps."""
    s = (q @ k.swapaxes(-1, -2)) * scale
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p


def attention_grads(p, q, k, v, g, scale: float):
    """(gq, gk, gv) of ``p @ v`` with ``p = attention_probs(q, k, scale)``,
    given the output gradient ``g``: gV = Pᵀ·g, gP = g·vᵀ,
    gS = P·(gP − Σ gP·P)·scale, gQ = gS·k, gK = (qᵀ·gS)ᵀ."""
    gv = p.swapaxes(-1, -2) @ g
    gp = g @ v.swapaxes(-1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
    return gs @ k, (q.swapaxes(-1, -2) @ gs).swapaxes(-1, -2), gv


def attention_tiled(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """softmax(q @ kᵀ * scale) @ v over (..., n, dh) operands, keeping nothing.

    Softmax rows are independent, so the query rows run in tiles of at most
    ``_TILE_ELEMS`` scores through one reused buffer, and each tile takes
    three passes over its scores:

    1. ``s = (q * scale) @ kᵀ`` (q is scaled once, at n·dh cost);
    2. ``exp(s)`` in place, with no shift;
    3. ``(s @ v) / s.sum(-1)``: the row sums divide the (rows, dv) result,
       not the (rows, n_k) tile.

    The shift is skipped only when scale·max‖q_i‖·max‖k_j‖ <= ``_EXP_SAFE``,
    which bounds every score so that no exp overflows or underflows; above
    that bound the row max is subtracted first, as in :func:`attention_probs`.
    The two agree up to rounding.
    """
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    n_q, n_k = q.shape[-2], k.shape[-2]
    rows = max(1, _TILE_ELEMS // (n_k * math.prod(lead)))
    q = q * scale
    kt = k.swapaxes(-1, -2)
    bound_sq = np.max((q * q).sum(-1), initial=0.0) * np.max((k * k).sum(-1), initial=0.0)
    shift = bound_sq > _EXP_SAFE**2
    out = np.empty(lead + (n_q, v.shape[-1]))
    buf = np.empty(lead + (min(rows, n_q), n_k))
    for i in range(0, n_q, rows):
        qi = q[..., i : i + rows, :]
        s = buf[..., : qi.shape[-2], :]
        np.matmul(qi, kt, out=s)
        if shift:
            s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        o = out[..., i : i + rows, :]
        np.matmul(s, v, out=o)
        o /= s.sum(axis=-1, keepdims=True)
    return out
