"""Minimal reverse-mode autodiff over numpy arrays.

Just enough tape machinery for the transformer denoiser, and no more:
broadcasted add, subtract and multiply, division by a scalar, (batched)
matmul, reshapes, transposes, whole-tensor sum and mean, and four ops with
closed-form backwards: :func:`layernorm`, :func:`linear`, :func:`ffn` and
:func:`attention`.  Leaves are created with ``requires_grad=True``; call
:meth:`Tensor.backward` on a scalar to accumulate ``.grad`` on every leaf.

Only values that some gradient needs record a graph.  A result whose inputs
all have ``requires_grad=False`` keeps no parents and no backward closure;
:func:`layernorm` and :func:`ffn` then return plain arrays and run in place on
their work arrays, and :func:`attention` runs over query tiles in three passes
over each tile's scores (matmul, exp, matmul) without keeping any of them.
:func:`~vidflow.windows.window_attention` builds its single tape node from
:func:`attention_probs` and :func:`attention_grads`.
"""

from __future__ import annotations

import math

import numpy as np

# Score elements per query tile when attention records no graph: 2**17 float64
# values are 1 MiB, so a tile of scores stays cache-sized.
_TILE_ELEMS = 1 << 17

# Largest score bound B for which attention without a graph skips the row-max
# shift.  By Cauchy–Schwarz every score obeys |s_ij| <= scale·‖q_i‖·‖k_j‖, so
# B = scale·max‖q_i‖·max‖k_j‖ bounds them before any is computed.  If B <= 64,
# each exp(s) lies in [e**-64, e**64] = [1.6e-28, 6.2e27]: none overflows or
# falls to a subnormal, and a row sum over even 2**40 keys stays below 1e40.
# softmax(s) = softmax(s - max s), so the unshifted terms give the same
# probabilities up to rounding; above the bound the row max is subtracted.
_EXP_SAFE = 64.0


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        # A backward closure is kept only when some parent requires grad, so a
        # one-parent op's backward accumulates into its parent unconditionally.
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g):
        g = _unbroadcast(np.asarray(g), self.data.shape)
        if self.grad is None:
            self.grad = g + 0.0  # a new array with the bits of zeros + g (-0.0 becomes +0.0)
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        def bw(g):
            self.requires_grad and self._accum(g)
            other.requires_grad and other._accum(g)
        return Tensor(self.data + other.data, _parents=(self, other), _backward=bw)

    def __neg__(self):
        def bw(g):
            self._accum(-g)
        return Tensor(-self.data, _parents=(self,), _backward=bw)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        def bw(g):
            self.requires_grad and self._accum(g * other.data)
            other.requires_grad and other._accum(g * self.data)
        return Tensor(self.data * other.data, _parents=(self, other), _backward=bw)

    def __truediv__(self, other: float):
        return self * (1.0 / other)

    # -- linear algebra ------------------------------------------------------

    def __matmul__(self, other):
        other = as_tensor(other)
        def bw(g):
            if self.requires_grad:
                self._accum(g @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                other._accum(self.data.swapaxes(-1, -2) @ g)
        return Tensor(self.data @ other.data, _parents=(self, other), _backward=bw)

    # -- shape moves ---------------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        def bw(g):
            self._accum(g.reshape(old))
        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=bw)

    def transpose(self, axes):
        inv = np.argsort(axes)
        def bw(g):
            self._accum(g.transpose(inv))
        return Tensor(self.data.transpose(axes), _parents=(self,), _backward=bw)

    # -- reductions ----------------------------------------------------------

    def sum(self):
        def bw(g):
            self._accum(np.broadcast_to(g, self.data.shape))
        return Tensor(self.data.sum(), _parents=(self,), _backward=bw)

    def mean(self):
        return self.sum() / self.data.size


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def value(x) -> np.ndarray:
    """The array behind a Tensor, or ``x`` itself."""
    return x.data if isinstance(x, Tensor) else x


def needs_grad(*xs) -> bool:
    """Whether any argument is a Tensor that requires grad."""
    return any(isinstance(x, Tensor) and x.requires_grad for x in xs)


def layernorm(x):
    """Normalize the last axis to zero mean / unit variance (eps 1e-6, no affine).

    The centred input is the one work array; it is scaled in place into the
    output.  Without grads the output is a plain array; otherwise the node's
    backward keeps only the output and the row scales."""
    xd = value(x)
    y = xd - xd.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(y).mean(axis=-1, keepdims=True) + 1e-6)
    y *= inv
    if not needs_grad(x):
        return y
    def bw(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        x._accum(inv * (g - gm - y * gym))
    return Tensor(y, _parents=(x,), _backward=bw)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node: the bias is added in place to the product,
    and the backward forms the same three products as separate ``@`` and
    ``+`` nodes would: ``g @ wᵀ``, ``xᵀ @ g`` and ``g`` summed to ``b``'s shape."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    y = x.data @ w.data
    y += b.data
    def bw(g):
        x.requires_grad and x._accum(g @ w.data.swapaxes(-1, -2))
        w.requires_grad and w._accum(x.data.swapaxes(-1, -2) @ g)
        b.requires_grad and b._accum(g)
    return Tensor(y, _parents=(x, w, b), _backward=bw)


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


def ffn(x, w1, b1, w2, b2):
    """The feed-forward ``gelu(x @ w1 + b1) @ w2 + b2`` over the last axis of
    ``x`` as one op, with the tanh-approximate GELU
    ``0.5*h*(1 + tanh(c*(h + 0.044715*h**3)))``.

    The leading axes are flattened, so each matmul is one 2-D product.
    Without grads the GELU runs in place on the hidden array and a plain
    array is returned.  Otherwise one node keeps the hidden array, its tanh
    and its activation, and its backward forms the same products that
    separate ``linear``, GELU and ``linear`` nodes would, so the gradients
    keep their bits."""
    xd, w1d, b1d, w2d, b2d = (value(a) for a in (x, w1, b1, w2, b2))
    flat = xd.reshape(-1, xd.shape[-1])
    h = flat @ w1d
    h += b1d
    t = _gelu_gate(h)
    out_shape = xd.shape[:-1] + w2d.shape[-1:]
    if not needs_grad(x, w1, b1, w2, b2):
        t += 1.0
        h *= 0.5
        h *= t
        del t  # freed before the output product allocates
        y = h @ w2d
        y += b2d
        return y.reshape(out_shape)
    a = 0.5 * h
    a *= 1.0 + t
    y = a @ w2d
    y += b2d
    x, w1, b1, w2, b2 = (as_tensor(v) for v in (x, w1, b1, w2, b2))
    def bw(g):
        g = g.reshape(y.shape)
        ga = g @ w2d.T
        w2.requires_grad and w2._accum(a.T @ g)
        b2.requires_grad and b2._accum(g)
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * h**2)
        gh = ga * (0.5 * (1.0 + t) + 0.5 * h * (1.0 - t**2) * dinner)
        x.requires_grad and x._accum((gh @ w1d.T).reshape(xd.shape))
        w1.requires_grad and w1._accum(flat.T @ gh)
        b1.requires_grad and b1._accum(gh)
    return Tensor(y.reshape(out_shape), _parents=(x, w1, b1, w2, b2), _backward=bw)


def attention_probs(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """softmax(q @ kᵀ * scale) over the last axis, computed whole and shifted
    by the row max: the probabilities a recording attention keeps."""
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


def attention(q, k, v, scale: float) -> Tensor:
    """softmax(q @ kᵀ * scale) @ v over (..., n, dh) operands.

    When any operand requires grad, the scores are computed whole, shifted by
    their row max and normalised, and only the probabilities are kept for the
    backward.  Otherwise nothing is kept: softmax rows are independent, so the
    query rows run in tiles of at most ``_TILE_ELEMS`` scores through one
    reused buffer, and each tile takes three passes over its scores:

    1. ``s = (q * scale) @ kᵀ`` (q is scaled once, at n·dh cost);
    2. ``exp(s)`` in place, with no shift;
    3. ``(s @ v) / s.sum(-1)``: the row sums divide the (rows, dv) result,
       not the (rows, n_k) tile.

    The shift is skipped only when scale·max‖q_i‖·max‖k_j‖ <= ``_EXP_SAFE``,
    which bounds every score so that no exp overflows or underflows; above
    that bound the row max is subtracted first, as in the recording branch.
    The two branches agree up to rounding.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if not (q.requires_grad or k.requires_grad or v.requires_grad):
        return Tensor(attention_tiled(q.data, k.data, v.data, scale))
    p = attention_probs(q.data, k.data, scale)
    def bw(g):
        gq, gk, gv = attention_grads(p, q.data, k.data, v.data, g, scale)
        v.requires_grad and v._accum(gv)
        q.requires_grad and q._accum(gq)
        k.requires_grad and k._accum(gk)
    return Tensor(p @ v.data, _parents=(q, k, v), _backward=bw)


def attention_tiled(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """softmax(q @ kᵀ * scale) @ v without a graph, in query tiles (see :func:`attention`)."""
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
