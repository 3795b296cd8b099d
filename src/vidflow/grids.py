"""Dense 5-axis latent tensors, deterministic RNG, and the LGR1 record that
grid files and checkpoints are made of.

Every latent, velocity field, and noise draw in the pipeline is carried by a
:class:`LatentGrid`: a float64 array laid out (batch, channel, frame, height,
width). Grids are immutable values; operations return new grids.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
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


@functools.lru_cache(maxsize=64)
def _resize_plan(h: int, w: int, h_out: int, w_out: int):
    """The bilinear resize (h, w) -> (h_out, w_out), planned once: the four
    corners' flat indices into the h*w plane, each (h_out, w_out), and the
    weights wy, 1 - wy (h_out, 1) and wx, 1 - wx (1, w_out).  Read-only."""
    ys = _sample_positions(h, h_out)
    xs = _sample_positions(w, w_out)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    corners = [(ya * w)[:, None] + xa[None, :] for ya in (y0, y1) for xa in (x0, x1)]
    plan = (*corners, wy, 1 - wy, wx, 1 - wx)
    for a in plan:
        a.flags.writeable = False
    return plan


def resize_spatial(z: LatentGrid, h_out: int, w_out: int) -> LatentGrid:
    """Per-frame bilinear resize of the (h, w) axes.

    Align-corners sampling with edge clamping; exact on constants and an exact
    identity when the target matches the source size.  The frame axis is never
    resampled.  Each corner is one ``take`` from the flattened h*w plane, with
    the indices and weights planned once per size pair; the output is
    ``v00*(1-wy)*(1-wx) + v01*(1-wy)*wx + v10*wy*(1-wx) + v11*wy*wx``,
    multiplied and summed left to right.
    """
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"target dimensions must be >= 1, got ({h_out}, {w_out})")
    e = z.extent
    if h_out == e.h and w_out == e.w:
        return LatentGrid(e, z.values.copy())

    i00, i01, i10, i11, wy, wy1, wx, wx1 = _resize_plan(e.h, e.w, h_out, w_out)
    plane = z.values.reshape(e.b, e.c, e.f, e.h * e.w)
    out = plane.take(i00, axis=-1)
    out *= wy1
    out *= wx1
    for idx, a, b in ((i01, wy1, wx), (i10, wy, wx1), (i11, wy, wx)):
        term = plane.take(idx, axis=-1)
        term *= a
        term *= b
        out += term
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


def record_axes(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The five header axes of an LGR1 record holding an array of ``shape``
    (at most five axes): its axes left-padded with 1s."""
    return (1,) * (5 - len(shape)) + tuple(shape)


def write_record(fh, arr: np.ndarray) -> None:
    """Append ``arr`` to ``fh`` as one LGR1 record: the magic, its
    :func:`record_axes` as five little-endian u64s, then its values as <f8."""
    fh.write(LGR1_MAGIC)
    fh.write(struct.pack("<5Q", *record_axes(arr.shape)))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_record(data: bytes, offset: int, where) -> tuple[tuple[int, ...], np.ndarray, int]:
    """Decode the LGR1 record at byte ``offset`` of ``data``: returns its five
    axes (zero lengths allowed), its values as a flat float64 array and the
    byte after it.  A bad magic, a truncated header or payload, or a
    non-finite value raises :class:`FormatError` naming ``where`` and the byte."""
    if offset < 0 or data[offset : offset + 8] != LGR1_MAGIC:
        raise FormatError(f"{where}: bad magic at byte {offset} (expected {LGR1_MAGIC!r})")
    start = offset + 48
    if len(data) < start:
        raise FormatError(f"{where}: truncated header at byte {len(data)} (need {start})")
    axes = struct.unpack_from("<5Q", data, offset + 8)
    end = start + 8 * math.prod(axes)
    if len(data) < end:
        raise FormatError(f"{where}: expected {end} bytes, got {len(data)} (payload starts at byte {start})")
    values = np.frombuffer(data, dtype="<f8", count=(end - start) // 8, offset=start)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FormatError(f"{where}: non-finite value {values[i]} at byte {start + 8 * i}")
    return axes, values.astype(np.float64), end


def check_replaceable(*paths) -> None:
    """Refuse, with an :class:`OSError` naming it, any of ``paths`` that exists
    and is not a regular file: a directory, or a FIFO or device that renaming
    a written file onto it would replace."""
    for path in paths:
        if os.path.exists(path) and not os.path.isfile(path):
            raise OSError(f"output {path} is not a regular file")


@contextlib.contextmanager
def replaced(*paths):
    """Yield a temporary name, ``path + ".tmp"``, for each of ``paths``, after
    :func:`check_replaceable` has passed them all.  When the block returns,
    rename each onto its path, in order; on an exception, remove whichever
    temporaries exist (a failed write's), then re-raise."""
    check_replaceable(*paths)
    tmps = [f"{path}.tmp" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def write_lgr1(grid: LatentGrid, path) -> None:
    """Write a grid through :func:`replaced` as an LGR1 file: one record with axes (b, c, f, h, w)."""
    with replaced(path) as (tmp,), open(tmp, "wb") as fh:
        write_record(fh, grid.values)


def read_lgr1(path) -> LatentGrid:
    """Read an LGR1 file; raises :class:`FormatError` with the byte offset of
    the first problem on malformed input."""
    with open(path, "rb") as fh:
        data = fh.read()
    axes, values, end = read_record(data, 0, path)
    if end != len(data):
        raise FormatError(f"{path}: expected {end} bytes, got {len(data)} (trailing data at byte {end})")
    try:
        extent = Extent5(*axes)
    except ShapeError as exc:
        raise FormatError(f"{path}: invalid axis lengths {axes} at byte 8") from exc
    return LatentGrid(extent, values.reshape(axes))
