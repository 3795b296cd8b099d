"""Walkthrough: the warped sigma schedule and the two-phase preview sampler.

Runs entirely on a stand-in velocity field so it finishes in a second; the
point is the schedule arithmetic and the NFE accounting, not image quality.
"""

import numpy as np

import vidflow as vf
from vidflow.preview import PreviewConfig, generate_preview

# --- 1. the schedule -------------------------------------------------------
# sigma_i = shift * u / (1 + (shift - 1) * u) with u = 1 - i/n: larger shift
# values concentrate steps near sigma = 1, where most structure forms.
for shift in (1.0, 3.0, 5.0):
    sched = vf.build_schedule(8, shift)
    print(f"shift={shift:>3}: " + " ".join(f"{s:.3f}" for s in sched.sigmas))

# --- 2. plain ODE sampling -------------------------------------------------
# A velocity field that is constant along each path integrates exactly in one
# Euler step; here we use the line from noise eps to a known clean z0.
ext = vf.Extent5(1, 2, 4, 8, 8)
rng = vf.Rng(0)
z0 = vf.sample_gaussian(ext, rng)
eps = vf.sample_gaussian(ext, rng)
line = lambda z, s, c: vf.LatentGrid(ext, eps.values - z0.values)
out = vf.sample_ode(line, eps, vf.build_schedule(12, 3.0), vf.Conditioning.zeros(1))
print(f"\nlinear-path recovery error: {np.abs(out.values - z0.values).max():.2e}")

# --- 3. the preview stage --------------------------------------------------
# k high-resolution steps, then: fresh velocity -> clean estimate ->
# bilinear downscale -> noise reinjected at sigma_k -> remaining steps on the
# small grid, resuming the same schedule at sigma_k.
cfg = PreviewConfig(n_total=40, k=10, hi=(16, 16), lo=(8, 8), shift=5.0, seed=7)
calls = []


def zero_velocity(z, sigma, cond):
    calls.append(z.extent)
    return vf.LatentGrid.zeros(z.extent)


hi_extent = vf.Extent5(1, 2, 4, 16, 16)
res = generate_preview(zero_velocity, vf.Conditioning.zeros(1), cfg, hi_extent)
print(f"\npreview: {res.nfe_hi} hi-res evals (k + 1 clean estimate) "
      f"+ {res.nfe_lo} lo-res evals = {res.nfe_hi + res.nfe_lo} total (model saw {len(calls)})")
print(f"switch at sigma_k = {res.sigma_switch:.4f}; "
      f"output extent {res.latent.extent.as_tuple()} from hi {hi_extent.as_tuple()}")
