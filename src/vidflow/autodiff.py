"""Minimal reverse-mode autodiff over numpy arrays.

Just enough tape machinery for the transformer denoiser, and no more:
broadcasted add, subtract and multiply, division by a scalar, (batched)
matmul, reshapes, transposes, basic slices, concatenation, whole-tensor sum
and mean, layer norm, GELU, and three fused ops with closed-form backwards,
:func:`linear`, :func:`rope` and :func:`attention`.  Leaves are created with
``requires_grad=True``; call :meth:`Tensor.backward` on a scalar to
accumulate ``.grad`` on every leaf.

Only values that some gradient needs record a graph.  A result whose inputs
all have ``requires_grad=False`` keeps no parents and no backward closure, so
an inference forward frees each intermediate as soon as it is dropped, and
:func:`attention` then runs over query tiles in three passes over each tile's
scores (matmul, exp, matmul) without keeping any of them.
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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += _unbroadcast(np.asarray(g), self.data.shape)

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

    def __getitem__(self, key):
        """A basic slice (ints, slices): it never repeats an element, so the
        backward adds the gradient into its region of ``self.grad`` in place."""
        def bw(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[key] += g
        return Tensor(self.data[key], _parents=(self,), _backward=bw)

    # -- reductions ----------------------------------------------------------

    def sum(self):
        def bw(g):
            self._accum(np.broadcast_to(g, self.data.shape))
        return Tensor(self.data.sum(), _parents=(self,), _backward=bw)

    def mean(self):
        return self.sum() / self.data.size

    # -- nonlinearities ------------------------------------------------------

    def gelu(self):
        """tanh-approximate GELU, ``0.5*x*(1 + tanh(c*(x + 0.044715*x**3)))``.

        The forward runs in place on one work array, in the textbook
        expression's operation order, so its bits equal the expression's."""
        c = np.sqrt(2.0 / np.pi)
        x = self.data
        t = x * x
        t *= x
        t *= 0.044715
        t += x
        t *= c
        np.tanh(t, out=t)
        y = 0.5 * x
        if not self.requires_grad:
            t += 1.0
            y *= t
            return Tensor(y)
        y *= 1.0 + t
        def bw(g):
            dinner = c * (1.0 + 3 * 0.044715 * x**2)
            dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
            self._accum(g * dy)
        return Tensor(y, _parents=(self,), _backward=bw)

    def layernorm(self):
        """Normalize the last axis to zero mean / unit variance (eps 1e-6, no affine).

        The centred input is the one work array; it is scaled in place into
        the output, and the backward keeps only the output and the row scales."""
        x = self.data
        y = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(np.square(y).mean(axis=-1, keepdims=True) + 1e-6)
        y *= inv
        def bw(g):
            gm = g.mean(axis=-1, keepdims=True)
            gym = (g * y).mean(axis=-1, keepdims=True)
            self._accum(inv * (g - gm - y * gym))
        return Tensor(y, _parents=(self,), _backward=bw)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors) -> Tensor:
    """Join tensors along their first axis."""
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])
    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            t.requires_grad and t._accum(g[lo:hi])
    return Tensor(np.concatenate([t.data for t in tensors]), _parents=tuple(tensors), _backward=bw)


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


def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate adjacent pairs of the last axis: ``x * cos + x[..., swap] * sin``
    with ``swap = [1, 0, 3, 2, ...]``, where ``sin`` carries the pair signs.

    The swap is its own inverse, so the backward is the same gather applied to
    the gradient: ``g * cos + (g * sin)[..., swap]``.
    """
    swap = np.arange(x.data.shape[-1]) ^ 1
    def bw(g):
        x._accum(g * cos + (g * sin)[..., swap])
    return Tensor(x.data * cos + x.data[..., swap] * sin, _parents=(x,), _backward=bw)


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
        return Tensor(_attention_tiled(q.data, k.data, v.data, scale))
    s = (q.data @ k.data.swapaxes(-1, -2)) * scale
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    def bw(g):
        if v.requires_grad:
            v._accum(p.swapaxes(-1, -2) @ g)
        if q.requires_grad or k.requires_grad:
            gp = g @ v.data.swapaxes(-1, -2)
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
            if q.requires_grad:
                q._accum(gs @ k.data)
            if k.requires_grad:
                k._accum((q.data.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))
    return Tensor(p @ v.data, _parents=(q, k, v), _backward=bw)


def _attention_tiled(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
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
