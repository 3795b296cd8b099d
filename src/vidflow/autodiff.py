"""Minimal reverse-mode autodiff over numpy arrays.

Just enough tape machinery for the transformer denoiser: broadcasted
elementwise arithmetic, (batched) matmul, shape moves, softmax, layer norm,
GELU, and gather along the last axis.  Leaves are created with
``requires_grad=True``; call :meth:`Tensor.backward` on a scalar (or pass an
explicit seed) to accumulate ``.grad`` on every leaf.
"""

from __future__ import annotations

import numpy as np


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
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += _unbroadcast(np.asarray(g), self.data.shape)

    def backward(self, seed=None):
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            seed = np.ones_like(self.data)
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
        self._accum(seed)
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

    __radd__ = __add__

    def __neg__(self):
        def bw(g):
            self.requires_grad and self._accum(-g)
        return Tensor(-self.data, _parents=(self,), _backward=bw)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        def bw(g):
            self.requires_grad and self._accum(g * other.data)
            other.requires_grad and other._accum(g * self.data)
        return Tensor(self.data * other.data, _parents=(self, other), _backward=bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        other = as_tensor(other)
        def bw(g):
            self.requires_grad and self._accum(g / other.data)
            other.requires_grad and other._accum(-g * self.data / (other.data**2))
        return Tensor(self.data / other.data, _parents=(self, other), _backward=bw)

    # -- linear algebra ------------------------------------------------------

    def __matmul__(self, other):
        other = as_tensor(other)
        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g @ other.data.swapaxes(-1, -2), self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(self.data.swapaxes(-1, -2) @ g, other.data.shape))
        return Tensor(self.data @ other.data, _parents=(self, other), _backward=bw)

    # -- shape moves ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        def bw(g):
            self.requires_grad and self._accum(g.reshape(old))
        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=bw)

    def transpose(self, axes):
        inv = np.argsort(axes)
        def bw(g):
            self.requires_grad and self._accum(g.transpose(inv))
        return Tensor(self.data.transpose(axes), _parents=(self,), _backward=bw)

    def __getitem__(self, key):
        def bw(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, g)
                self._accum(full)
        return Tensor(self.data[key], _parents=(self,), _backward=bw)

    def take_last(self, perm):
        """Gather along the last axis: out[..., i] = x[..., perm[i]]."""
        perm = np.asarray(perm)
        def bw(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full.reshape(-1, full.shape[-1]).T, perm, g.reshape(-1, g.shape[-1]).T)
                self._accum(full)
        return Tensor(self.data[..., perm], _parents=(self,), _backward=bw)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def bw(g):
            if self.requires_grad:
                if axis is None:
                    self._accum(np.broadcast_to(g, self.data.shape))
                else:
                    gg = g if keepdims else np.expand_dims(g, axis)
                    self._accum(np.broadcast_to(gg, self.data.shape))
        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,), _backward=bw)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / n

    # -- nonlinearities ------------------------------------------------------

    def softmax(self, axis=-1):
        x = self.data - self.data.max(axis=axis, keepdims=True)
        y = np.exp(x)
        y /= y.sum(axis=axis, keepdims=True)
        def bw(g):
            if self.requires_grad:
                self._accum(y * (g - (g * y).sum(axis=axis, keepdims=True)))
        return Tensor(y, _parents=(self,), _backward=bw)

    def gelu(self):
        c = np.sqrt(2.0 / np.pi)
        x = self.data
        inner = c * (x + 0.044715 * x**3)
        t = np.tanh(inner)
        y = 0.5 * x * (1.0 + t)
        def bw(g):
            if self.requires_grad:
                dinner = c * (1.0 + 3 * 0.044715 * x**2)
                dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
                self._accum(g * dy)
        return Tensor(y, _parents=(self,), _backward=bw)

    def layernorm(self, eps=1e-6):
        """Normalize the last axis to zero mean / unit variance (no affine)."""
        x = self.data
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc**2).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        y = xc * inv
        n = x.shape[-1]
        def bw(g):
            if self.requires_grad:
                gm = g.mean(axis=-1, keepdims=True)
                gym = (g * y).mean(axis=-1, keepdims=True)
                self._accum(inv * (g - gm - y * gym))
        return Tensor(y, _parents=(self,), _backward=bw)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])
    return Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        _parents=tuple(tensors),
        _backward=bw,
    )
