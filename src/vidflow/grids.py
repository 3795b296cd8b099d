"""Dense 5-axis latent tensors, deterministic RNG, and the LGR1 file format.

Every latent, velocity field, and noise draw in the pipeline is carried by a
:class:`LatentGrid`: a float64 array laid out (batch, channel, frame, height,
width). Grids are immutable values; operations return new grids.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError

LGR1_MAGIC = b"LGRID\x00\x00\x01"


@dataclass(frozen=True)
class Extent5:
    """Axis lengths (batch, channels, frames, height, width)."""

    b: int
    c: int
    f: int
    h: int
    w: int

    def __post_init__(self):
        for name in ("b", "c", "f", "h", "w"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ShapeError(f"axis {name} must be a positive integer, got {v!r}")

    @property
    def count(self) -> int:
        return self.b * self.c * self.f * self.h * self.w

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.b, self.c, self.f, self.h, self.w)


class LatentGrid:
    """Immutable 5-axis float64 tensor.

    ``values`` is always C-contiguous with shape ``extent.as_tuple()`` and is
    guaranteed finite.
    """

    __slots__ = ("extent", "values")

    def __init__(self, extent: Extent5, values: np.ndarray):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.shape != extent.as_tuple():
            raise ShapeError(f"values shape {arr.shape} != extent {extent.as_tuple()}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("grid contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LatentGrid is immutable")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "LatentGrid":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 5:
            raise ShapeError(f"expected a 5-axis array, got ndim={arr.ndim}")
        return cls(Extent5(*arr.shape), arr)

    @classmethod
    def zeros(cls, extent: Extent5) -> "LatentGrid":
        return cls(extent, np.zeros(extent.as_tuple()))

    @classmethod
    def full(cls, extent: Extent5, value: float) -> "LatentGrid":
        return cls(extent, np.full(extent.as_tuple(), float(value)))

    def __repr__(self):
        return f"LatentGrid{self.extent.as_tuple()}"


def _splitmix64(x: int) -> int:
    """One SplitMix64 round; used to derive independent child seeds."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class Rng:
    """Counter-based deterministic random stream.

    Backed by the Philox 4x64 counter generator; normals come from an explicit
    Box-Muller transform over the uniform stream, so identical (seed, call
    sequence) pairs produce bit-identical output on every platform.  Use
    :meth:`split` to derive statistically independent child streams for
    parallel work.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._bitgen = np.random.Philox(key=self.seed)

    def _raw(self, n: int) -> np.ndarray:
        return np.atleast_1d(np.asarray(self._bitgen.random_raw(n), dtype=np.uint64))

    def uniform(self, n: int) -> np.ndarray:
        """n i.i.d. uniforms in [0, 1), 53-bit resolution."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0**-53)

    def normal(self, n: int) -> np.ndarray:
        """n i.i.d. standard normals via Box-Muller over uniform pairs."""
        m = (n + 1) // 2
        # u1 in (0, 1] so log is finite; u2 in [0, 1).
        u1 = ((self._raw(m) >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0**-53)
        u2 = (self._raw(m) >> np.uint64(11)).astype(np.float64) * (2.0**-53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return z[:n]

    def integers(self, lo: int, hi: int, n: int = 1) -> np.ndarray:
        """n integers uniform over [lo, hi)."""
        if hi <= lo:
            raise ShapeError(f"empty integer range [{lo}, {hi})")
        span = hi - lo
        return lo + (self._raw(n) % np.uint64(span)).astype(np.int64)

    def split(self, index: int) -> "Rng":
        """Child stream independent of this one and of other indices."""
        return Rng(_splitmix64(self.seed ^ _splitmix64(index + 0x5EED)))


def sample_gaussian(extent: Extent5, rng: Rng) -> LatentGrid:
    """I.i.d. standard-normal grid drawn from ``rng``."""
    return LatentGrid(extent, rng.normal(extent.count).reshape(extent.as_tuple()))


def _sample_positions(n_in: int, n_out: int) -> np.ndarray:
    """Align-corners source coordinates for a 1-D resize."""
    if n_out == 1:
        return np.array([(n_in - 1) / 2.0])
    return np.arange(n_out) * ((n_in - 1) / (n_out - 1))


def resize_spatial(z: LatentGrid, h_out: int, w_out: int) -> LatentGrid:
    """Per-frame bilinear resize of the (h, w) axes.

    Align-corners sampling with edge clamping; exact on constants and an exact
    identity when the target matches the source size.  The frame axis is never
    resampled.
    """
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"target dimensions must be >= 1, got ({h_out}, {w_out})")
    e = z.extent
    if h_out == e.h and w_out == e.w:
        return LatentGrid(e, z.values.copy())

    ys = _sample_positions(e.h, h_out)
    xs = _sample_positions(e.w, w_out)
    y0 = np.clip(np.floor(ys).astype(int), 0, e.h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, e.w - 1)
    y1 = np.minimum(y0 + 1, e.h - 1)
    x1 = np.minimum(x0 + 1, e.w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]

    v = z.values
    out = (
        v[..., y0[:, None], x0[None, :]] * (1 - wy) * (1 - wx)
        + v[..., y0[:, None], x1[None, :]] * (1 - wy) * wx
        + v[..., y1[:, None], x0[None, :]] * wy * (1 - wx)
        + v[..., y1[:, None], x1[None, :]] * wy * wx
    )
    return LatentGrid(Extent5(e.b, e.c, e.f, h_out, w_out), out)


def axpy(alpha: float, x: LatentGrid, y: LatentGrid) -> LatentGrid:
    """alpha * x + y, elementwise."""
    if x.extent != y.extent:
        raise ShapeError(f"extent mismatch: {x.extent} vs {y.extent}")
    return LatentGrid(x.extent, alpha * x.values + y.values)


def mse(a: LatentGrid, b: LatentGrid) -> float:
    """Mean squared elementwise difference."""
    if a.extent != b.extent:
        raise ShapeError(f"extent mismatch: {a.extent} vs {b.extent}")
    d = a.values - b.values
    return float(np.mean(d * d))


def write_lgr1(grid: LatentGrid, path) -> None:
    """Write a grid in the LGR1 raw format (magic, 5 u64 axes, f64 data, LE)."""
    e = grid.extent
    with open(path, "wb") as fh:
        fh.write(LGR1_MAGIC)
        fh.write(struct.pack("<5Q", *e.as_tuple()))
        fh.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def read_lgr1(path) -> LatentGrid:
    """Read an LGR1 file; raises :class:`FormatError` with the byte offset of
    the first problem on malformed input."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:8] != LGR1_MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0 (expected {LGR1_MAGIC!r})")
    if len(data) < 48:
        raise FormatError(f"{path}: truncated header at byte {len(data)} (need 48)")
    axes = struct.unpack("<5Q", data[8:48])
    try:
        extent = Extent5(*(int(a) for a in axes))
    except ShapeError as exc:
        raise FormatError(f"{path}: invalid axis lengths {axes} at byte 8") from exc
    expected = 48 + extent.count * 8
    if len(data) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes, got {len(data)} (payload starts at byte 48)"
        )
    values = np.frombuffer(data[48:], dtype="<f8").reshape(extent.as_tuple())
    return LatentGrid(extent, values.astype(np.float64))
