"""Preview-stage scheduler: high-resolution head, noise reshift, low-resolution tail.

The preview runs the first k denoising steps at the model's preferred
resolution, estimates the clean latent, downscales it spatially, reinjects
fresh Gaussian noise at the current level, and finishes the remaining steps on
the smaller grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError
from .grids import Extent5, LatentGrid, Rng, axpy, resize_spatial, sample_gaussian
from .schedule import (
    Conditioning,
    CountedModel,
    SigmaSchedule,
    VelocityModel,
    _checked_eval,
    build_schedule,
    estimate_clean,
    euler_step,
)


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
    z = z1
    for i in range(cfg.k):
        u = _checked_eval(model, z, sig[i], cond)
        z = euler_step(z, u, sig[i], sig[i + 1])

    # Turning point: fresh velocity, clean estimate, spatial downscale, reshift.
    sigma_k = sig[cfg.k]
    u_k = _checked_eval(model, z, sigma_k, cond)
    clean = estimate_clean(z, u_k, sigma_k)
    clean_lo = resize_spatial(clean, cfg.lo[0], cfg.lo[1])
    z = reshift_noise(clean_lo, sigma_k, reshift_rng)
    nfe_hi = model.calls

    # Post-k steps on the same schedule tail, resumed at sigma_k.
    for i in range(cfg.k, cfg.n_total):
        u = _checked_eval(model, z, sig[i], cond)
        z = euler_step(z, u, sig[i], sig[i + 1])

    return PreviewResult(latent=z, sigma_switch=sigma_k, nfe_hi=nfe_hi, nfe_lo=model.calls - nfe_hi)
