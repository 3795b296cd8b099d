"""Noise schedules, the Euler ODE sampler and the two-phase preview stage.

Convention used everywhere in the package: a noisy latent at level sigma is
``z_sigma = (1 - sigma) * z0 + sigma * eps``, and a velocity model, any
function ``model(z, sigma, cond)`` that returns a grid of z's extent, predicts
the path velocity ``u = dz/dsigma``, so the clean estimate is ``z - sigma * u``.

The preview runs the first k denoising steps at the model's preferred
resolution, estimates the clean latent, downscales it spatially, reinjects
fresh Gaussian noise at the current level, and finishes the remaining steps on
the smaller grid.  Both phases and :func:`sample_ode` step through one Euler loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .grids import Extent5, LatentGrid, Rng, axpy, resize_spatial, sample_gaussian


@dataclass(frozen=True)
class Conditioning:
    """Fixed conditioning vector (stand-in for a text embedding)."""

    vector: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.vector, dtype=np.float64)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ConfigError("conditioning must be a finite 1-D vector")

    @classmethod
    def zeros(cls, dim: int) -> "Conditioning":
        return cls(tuple(0.0 for _ in range(dim)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vector, dtype=np.float64)


VelocityModel = Callable[[LatentGrid, float, Conditioning], LatentGrid]


class CountedModel:
    """A velocity model that counts the calls it answers in ``calls``: the
    NFE a run records is the calls it made, not a figure from its config."""

    __slots__ = ("model", "calls")

    def __init__(self, model: VelocityModel):
        self.model, self.calls = model, 0

    def __call__(self, z: LatentGrid, sigma: float, cond: Conditioning) -> LatentGrid:
        self.calls += 1
        return self.model(z, sigma, cond)


@dataclass(frozen=True)
class SigmaSchedule:
    """Strictly decreasing noise levels from 1 to 0."""

    sigmas: tuple[float, ...]

    def __post_init__(self):
        s = np.asarray(self.sigmas)
        if len(s) < 2 or s[0] != 1.0 or s[-1] != 0.0:
            raise ConfigError("schedule must run from exactly 1 to exactly 0")
        if not np.all(np.diff(s) < 0):
            raise ConfigError("schedule must be strictly decreasing")


def build_schedule(n: int, shift: float = 1.0) -> SigmaSchedule:
    """Rational timestep warp: sigma_i = shift*u / (1 + (shift-1)*u) with
    u = 1 - i/n.  shift=1 is the plain linear grid; larger shifts spend more
    of the budget at high noise."""
    if not 1 <= n <= 2**53:  # past 2**53 steps, some adjacent float64 levels are equal
        raise ConfigError(f"step count must be in [1, 2**53], got {n}")
    if not shift >= 1.0:  # NaN fails too
        raise ConfigError(f"shift must be >= 1, got {shift}")
    u = 1.0 - np.arange(n + 1) / n
    sig = shift * u / (1.0 + (shift - 1.0) * u)
    sig[0], sig[-1] = 1.0, 0.0
    return SigmaSchedule(tuple(float(x) for x in sig))


def euler_step(z: LatentGrid, u: LatentGrid, sigma_cur: float, sigma_next: float) -> LatentGrid:
    """One explicit Euler step of dz/dsigma = u from sigma_cur to sigma_next."""
    if not (0.0 <= sigma_next < sigma_cur <= 1.0):
        raise ConfigError(f"need 0 <= sigma_next < sigma_cur <= 1, got {sigma_cur} -> {sigma_next}")
    return axpy(sigma_next - sigma_cur, u, z)


def estimate_clean(z: LatentGrid, u: LatentGrid, sigma: float) -> LatentGrid:
    """Clean-latent estimate z - sigma * u."""
    if z.extent != u.extent:
        raise ShapeError(f"extent mismatch: {z.extent} vs {u.extent}")
    if not (0.0 <= sigma <= 1.0):
        raise ConfigError(f"sigma must be in [0, 1], got {sigma}")
    return axpy(-sigma, u, z)


def _checked_eval(model: VelocityModel, z: LatentGrid, sigma: float, cond: Conditioning) -> LatentGrid:
    u = model(z, sigma, cond)
    if u.extent != z.extent:
        raise ContractError(f"velocity model returned extent {u.extent}, expected {z.extent}")
    return u


def _integrate(model: VelocityModel, z: LatentGrid, sigmas: tuple[float, ...], cond: Conditioning) -> LatentGrid:
    """Euler steps from ``sigmas[0]`` down to ``sigmas[-1]``, one model call each."""
    for sigma_cur, sigma_next in zip(sigmas, sigmas[1:]):
        u = _checked_eval(model, z, sigma_cur, cond)
        z = euler_step(z, u, sigma_cur, sigma_next)
    return z


def sample_ode(model: VelocityModel, z1: LatentGrid, sched: SigmaSchedule, cond: Conditioning) -> LatentGrid:
    """Integrate the flow ODE from noise (sigma=1) to data (sigma=0), calling
    the model once per step."""
    return _integrate(model, z1, sched.sigmas, cond)


@dataclass(frozen=True)
class PreviewConfig:
    n_total: int = 40
    k: int = 10
    hi: tuple[int, int] = (16, 16)
    lo: tuple[int, int] = (8, 8)
    shift: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("hi", "lo"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"{name} must be a (height, width) pair, got {getattr(self, name)}")
        self.schedule  # noqa: B018 -- built once, here, which checks n_total and shift
        if not (1 <= self.k < self.n_total):
            raise ConfigError(f"k must satisfy 1 <= k < n_total, got k={self.k}, n_total={self.n_total}")
        if self.lo[0] > self.hi[0] or self.lo[1] > self.hi[1]:
            raise ConfigError(f"lo resolution {self.lo} exceeds hi {self.hi}")
        if min(self.lo) < 1:
            raise ConfigError(f"lo resolution must be >= 1, got {self.lo}")

    @cached_property
    def schedule(self) -> SigmaSchedule:
        return build_schedule(self.n_total, self.shift)


@dataclass(frozen=True)
class PreviewResult:
    """The sigma=0 low-resolution latent, the noise level of the turning
    point, and the model calls the run made at high and at low resolution."""

    latent: LatentGrid
    sigma_switch: float
    nfe_hi: int
    nfe_lo: int


def reshift_noise(clean_lo: LatentGrid, sigma_k: float, rng: Rng) -> LatentGrid:
    """Reinject Gaussian noise at level sigma_k into a clean low-res latent."""
    if not (0.0 < sigma_k <= 1.0):
        raise ConfigError(f"sigma_k must be in (0, 1], got {sigma_k}")
    eps = sample_gaussian(clean_lo.extent, rng)
    return axpy(sigma_k, eps, clean_lo)


def generate_preview(
    model: VelocityModel,
    cond: Conditioning,
    cfg: PreviewConfig,
    extent_template: Extent5,
    z1: LatentGrid | None = None,
    reshift_rng: Rng | None = None,
) -> PreviewResult:
    """Run the full preview stage with the velocity model ``model`` and return
    the sigma=0 low-resolution latent.

    ``extent_template`` supplies (b, c, f); its (h, w) are overridden by
    ``cfg.hi``.  ``z1`` and ``reshift_rng`` default to streams derived from
    ``cfg.seed`` and exist so tests can pin or stub the noise.

    Model calls: k steps + 1 clean estimate at high resolution, then
    n_total - k steps at low resolution (n_total + 1 in all); the result
    holds the calls counted on ``model``.
    """
    model = CountedModel(model)
    master = Rng(cfg.seed)
    e = extent_template
    hi_extent = Extent5(e.b, e.c, e.f, cfg.hi[0], cfg.hi[1])
    if z1 is None:
        z1 = sample_gaussian(hi_extent, master.split(0))
    if z1.extent != hi_extent:
        raise ConfigError(f"z1 extent {z1.extent} does not match hi extent {hi_extent}")
    if reshift_rng is None:
        reshift_rng = master.split(1)

    sig = cfg.schedule.sigmas

    # Pre-k steps at the optimal resolution.
    z = _integrate(model, z1, sig[: cfg.k + 1], cond)

    # Turning point: fresh velocity, clean estimate, spatial downscale, reshift.
    sigma_k = sig[cfg.k]
    u_k = _checked_eval(model, z, sigma_k, cond)
    clean = estimate_clean(z, u_k, sigma_k)
    clean_lo = resize_spatial(clean, cfg.lo[0], cfg.lo[1])
    z = reshift_noise(clean_lo, sigma_k, reshift_rng)
    nfe_hi = model.calls

    # Post-k steps on the same schedule tail, resumed at sigma_k.
    z = _integrate(model, z, sig[cfg.k :], cond)

    return PreviewResult(latent=z, sigma_switch=sigma_k, nfe_hi=nfe_hi, nfe_lo=model.calls - nfe_hi)
