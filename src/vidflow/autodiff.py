"""The denoiser's layer kernels over numpy arrays, each a forward and a
closed-form backward.

A forward given a ``saved`` list appends what its backward needs to it;
without one it keeps nothing, and :func:`layernorm`, :func:`ffn` and
:func:`attention_tiled` run in place on their work arrays, the largest two
(the FFN's hidden array, attention's score tile) in one grow-only scratch
array per thread.  An :func:`attention_tiled` call of at least
``_SHARE_SCORES`` (2**18) scores shares its query tiles with helper threads,
one per further CPU the process may run on, and a batched inference forward
(:func:`vidflow.denoiser._forward`) hands its batch items to the same helpers
when each item holds that many, both through :func:`run_each`.  The jobs
and their arithmetic do not depend on which thread runs them, so the output
has the serial path's bits.  A backward takes the output gradient and the
saved entry, adds the parameter gradients into the caller's buffers with
``+=`` and returns the input gradient.  Buffers start at zero and take
their terms in the order the caller visits them, so a sum of several terms
has the bits of that order.  The denoiser's reverse pass
(:mod:`vidflow.denoiser`) calls these backwards in a fixed order; nothing
records a graph.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import threading

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


_SCRATCH = threading.local()  # .array: this thread's grow-only work array


def _scratch(shape: tuple[int, ...]) -> np.ndarray:
    """A view of ``shape`` into this thread's scratch array, contents undefined.
    Each caller drops its view before the next call, and returns none of it."""
    n = math.prod(shape)
    array = getattr(_SCRATCH, "array", None)
    if array is None or array.size < n:
        array = _SCRATCH.array = np.empty(n)
    return array[:n].reshape(shape)


class Tensor:
    """A training loss's handle on its reverse pass: :meth:`backward` runs
    ``reverse()`` once and returns its gradients.

    It records no graph.  It stays because the benchmark's tracer times and
    counts reverse passes by wrapping ``autodiff.Tensor.backward``; spans
    inside the program (ROADMAP item 2b) retire it."""

    __slots__ = ("_reverse",)

    def __init__(self, reverse):
        self._reverse = reverse

    def backward(self):
        return self._reverse()


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``, bit for bit (``np.mean`` is this
    sum divided by the count), without its Python-level wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def layernorm(x: np.ndarray, saved: list | None = None) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance (eps 1e-6, no affine).

    The centred input is the one work array; it is scaled in place into the
    output.  ``saved`` gets the output and the row scales."""
    y = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(np.square(y)) + 1e-6)
    y *= inv
    if saved is not None:
        saved.append((y, inv))
    return y


def layernorm_backward(g: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The input gradient of :func:`layernorm` from its output ``y`` and row scales ``inv``."""
    return inv * (g - _row_mean(g) - y * _row_mean(g * y))


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
    gb += np.add.reduce(g, axis=0)
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
    Without ``saved`` the GELU runs in place on the hidden array, in scratch;
    with it the hidden array, its tanh and its activation are kept, with the weights."""
    flat = x.reshape(-1, x.shape[-1])
    h = np.matmul(flat, w1, out=_scratch((len(flat), w1.shape[-1])) if saved is None else None)
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
    gb2 += np.add.reduce(g, axis=0)
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * h**2)
    gh = ga * (0.5 * (1.0 + t) + 0.5 * h * (1.0 - t**2) * dinner)
    gw1 += x.reshape(-1, x.shape[-1]).T @ gh
    gb1 += np.add.reduce(gh, axis=0)
    return (gh @ w1.T).reshape(x.shape)


def attention_probs(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """softmax(q @ kᵀ * scale) over the last axis, computed whole and shifted
    by the row max: the probabilities a saving forward keeps."""
    s = (q @ k.swapaxes(-1, -2)) * scale
    p = np.exp(s - np.maximum.reduce(s, axis=-1, keepdims=True))
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p


def attention_grads(p, q, k, v, g, scale: float):
    """(gq, gk, gv) of ``p @ v`` with ``p = attention_probs(q, k, scale)``,
    given the output gradient ``g``: gV = Pᵀ·g, gP = g·vᵀ,
    gS = P·(gP − Σ gP·P)·scale, gQ = gS·k, gK = (qᵀ·gS)ᵀ."""
    gv = p.swapaxes(-1, -2) @ g
    gp = g @ v.swapaxes(-1, -2)
    gs = p * (gp - np.add.reduce(gp * p, axis=-1, keepdims=True)) * scale
    return gs @ k, (q.swapaxes(-1, -2) @ gs).swapaxes(-1, -2), gv


# Scores from which run_each shares its jobs with the helper threads: below
# it, waking a helper costs more than it saves.  attention_tiled counts a
# call's scores (heads·n_q·n_k), a batched inference forward one item's
# (depth·heads·frame pairs·plane²).  Serial -> shared ms, one BLAS thread,
# 2-core AVX-512 Xeon.  Single calls of two or more tiles, median of 200:
#     6 × 192² (0.22 M)  0.67 -> 0.58     2 × 512² (0.52 M)  1.90 -> 1.20
#     2 × 384² (0.29 M)  1.08 -> 0.71     6 × 384² (0.88 M)  3.33 -> 2.03
#     6 × 256² (0.39 M)  1.67 -> 1.22     6 × 512² (1.57 M)  5.97 -> 3.42
# Batch-4 forwards at 8 frames, each item a job, min of 60:
#     base 8×8       (0.09 M)  6.90 -> 8.55    base 10×10    (0.21 M) 10.8 -> 9.4
#     refiner 12×12  (0.15 M)  5.30 -> 7.47    refiner 14×14 (0.27 M)  8.2 -> 7.5
#     base 12×12     (0.44 M)  16.3 -> 12.1    refiner 16×16 (0.46 M) 11.8 -> 11.1
# Small items lose where their many small ops collide on the interpreter
# lock; the break-even lies near 0.2 M.  The floor sits above the items
# that lose (gen_small's lo items are the base 8×8 row) and below the
# smallest bench call that wins (6 × 256², gen_large's lo 4-frame runs), so
# gen_small's hi and refine items and every gen_large run of at least that
# size go out, and gen_small's lo phase stays on one thread.
_SHARE_SCORES = 1 << 18

_JOBS = queue.SimpleQueue()  # callables the helper threads run in turn
_HELPERS_LOCK = threading.Lock()
_helpers: int | None = None  # helper threads started, None before the first shared call


def _helper_count() -> int:
    """Start the helper threads on first use, one per CPU this process may
    run on beyond the caller's, and return their number."""
    global _helpers
    with _HELPERS_LOCK:
        if _helpers is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            _helpers = max(0, (cpus or 1) - 1)
            for _ in range(_helpers):
                threading.Thread(target=_serve, name="vidflow-attention", daemon=True).start()
    return _helpers


def _serve() -> None:
    while True:
        _JOBS.get()()


def _drain(todo: queue.SimpleQueue, done: queue.SimpleQueue, failed: list) -> None:
    """Take tiles from ``todo`` until it is empty, putting a token on ``done``
    for each; run none once ``failed`` holds an error."""
    while True:
        try:
            tile = todo.get_nowait()
        except queue.Empty:
            return
        try:
            if not failed:
                tile()
        except BaseException as e:  # re-raised in the caller
            failed.append(e)
        done.put(None)


def _share(tile, n: int, helpers: int) -> None:
    """Run ``tile(0) .. tile(n-1)`` on this thread and up to ``helpers`` helper
    threads; return once all have finished, or raise the first error.  A job
    a helper reaches late holds only this call's queues, empty by then."""
    todo, done, failed = queue.SimpleQueue(), queue.SimpleQueue(), []
    for i in range(n):
        todo.put(functools.partial(tile, i))
    for _ in range(min(helpers, n - 1)):
        _JOBS.put(functools.partial(_drain, todo, done, failed))
    _drain(todo, done, failed)
    for _ in range(n):
        done.get()
    if failed:
        raise failed[0]


def run_each(job, n: int, scores: int) -> None:
    """Run ``job(0) .. job(n-1)``: shared with the helper threads
    (:func:`_share`) when there are at least two jobs and ``scores`` reaches
    ``_SHARE_SCORES``, else in order on this thread.  A job may call
    ``run_each`` again: the thread that makes a call drains that call's
    queue itself, so a call never waits on a helper busy with another job."""
    helpers = _helper_count() if n > 1 and scores >= _SHARE_SCORES else 0
    if helpers:
        _share(job, n, helpers)
    else:
        for i in range(n):
            job(i)


def attention_tiled(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """softmax(q @ kᵀ * scale) @ v over (..., n, dh) operands, keeping nothing.

    Softmax rows are independent, so the query rows run in tiles of at most
    ``_TILE_ELEMS`` scores, each through its thread's scratch array, and each
    tile takes three passes over its scores:

    1. ``s = (q * scale) @ kᵀ`` (q is scaled once, at n·dh cost, and kᵀ is
       made contiguous once);
    2. ``exp(s)`` in place, with no shift;
    3. ``(s @ v) / s.sum(-1)``: the row sums divide the (rows, dv) result,
       not the (rows, n_k) tile.

    A call of at least ``_SHARE_SCORES`` scores queues its tiles for the
    helper threads: each thread, the caller too, takes the next queued tile
    until none is left, and none starts one after a tile has raised.  The
    tile bounds do not depend on the thread count, so the output is the
    serial path's, bit for bit.

    The shift is skipped only when scale·max‖q_i‖·max‖k_j‖ <= ``_EXP_SAFE``,
    which bounds every score so that no exp overflows or underflows; above
    that bound the row max is subtracted first, as in :func:`attention_probs`.
    The two agree up to rounding.
    """
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    n_q, n_k = q.shape[-2], k.shape[-2]
    heads = math.prod(lead)
    rows = max(1, _TILE_ELEMS // (n_k * heads))
    q = q * scale
    kt = np.ascontiguousarray(k.swapaxes(-1, -2))
    bound_sq = (np.max(np.add.reduce(q * q, axis=-1), initial=0.0)
                * np.max(np.add.reduce(k * k, axis=-1), initial=0.0))
    shift = bound_sq > _EXP_SAFE**2
    out = np.empty(lead + (n_q, v.shape[-1]))
    tile_shape = lead + (min(rows, n_q), n_k)

    def tile(t: int) -> None:
        qi = q[..., t * rows : (t + 1) * rows, :]
        s = _scratch(tile_shape)[..., : qi.shape[-2], :]
        np.matmul(qi, kt, out=s)
        if shift:
            s -= np.maximum.reduce(s, axis=-1, keepdims=True)
        np.exp(s, out=s)
        o = out[..., t * rows : (t + 1) * rows, :]
        np.matmul(s, v, out=o)
        o /= np.add.reduce(s, axis=-1, keepdims=True)

    run_each(tile, -(-n_q // rows), heads * n_q * n_k)
    return out
