"""Noise schedules and the Euler ODE sampler.

Convention used everywhere in the package: a noisy latent at level sigma is
``z_sigma = (1 - sigma) * z0 + sigma * eps``, and a velocity model, any
function ``model(z, sigma, cond)`` that returns a grid of z's extent, predicts
the path velocity ``u = dz/dsigma``, so the clean estimate is ``z - sigma * u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .grids import LatentGrid, axpy


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
    """Strictly decreasing noise levels from 1 to 0 over n steps."""

    sigmas: tuple[float, ...]

    def __post_init__(self):
        s = np.asarray(self.sigmas)
        if len(s) < 2 or s[0] != 1.0 or s[-1] != 0.0:
            raise ConfigError("schedule must run from exactly 1 to exactly 0")
        if not np.all(np.diff(s) < 0):
            raise ConfigError("schedule must be strictly decreasing")

    @property
    def n(self) -> int:
        return len(self.sigmas) - 1


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


def euler_step(
    z: LatentGrid, u: LatentGrid, sigma_cur: float, sigma_next: float
) -> LatentGrid:
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


def _checked_eval(
    model: VelocityModel, z: LatentGrid, sigma: float, cond: Conditioning
) -> LatentGrid:
    u = model(z, sigma, cond)
    if u.extent != z.extent:
        raise ContractError(
            f"velocity model returned extent {u.extent}, expected {z.extent}"
        )
    return u


def sample_ode(
    model: VelocityModel,
    z1: LatentGrid,
    sched: SigmaSchedule,
    cond: Conditioning,
) -> LatentGrid:
    """Integrate the flow ODE from noise (sigma=1) to data (sigma=0).

    The model is called exactly ``sched.n`` times.
    """
    z = z1
    for i in range(sched.n):
        u = _checked_eval(model, z, sched.sigmas[i], cond)
        z = euler_step(z, u, sched.sigmas[i], sched.sigmas[i + 1])
    return z
