"""Analytical FLOPs and latency model for multi-stage denoising pipelines.

Conventions (documented constants): one multiply-add counts as 2 FLOPs;
softmax and normalization are not counted, though at this package's head
width dh=8 one exp costs more than one q·kᵀ score (0.87–0.95 vs 0.51–0.53 ns
per score on one (6 heads, 21 rows, 1024 keys) tile of
:func:`vidflow.autodiff.attention_tiled`, kᵀ contiguous: float64 numpy 2.4.6,
one thread, one BLAS thread, a 2-core AVX-512 Xeon; a large inference call
shares its tiles across the CPUs).  The acceptance-level claims are all
ratios, which these conventions cancel out of.

Per transformer block and step, for n tokens of width d (d_ff = 4d):
  attention pairs  4 * pairs * d   (q·kᵀ and P·v)
  projections      8 * n * d^2     (q, k, v and output, each d x d)
  feed-forward     16 * n * d^2
multiplied by depth and steps; embedding, head, sigma and conditioning products
are outside the model.  Windowed pairs come from :func:`vidflow.windows.frame_pairs`:
the mean over the unshifted/shifted alternation, exact for even depth.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
from .windows import frame_pairs


@dataclass(frozen=True)
class StageSpec:
    """Analytical description of one denoising stage: ``name`` and
    ``attention`` are strings, every other field an integer (not a bool)."""

    name: str
    tokens: int
    dim: int
    depth: int
    steps: int
    heads: int = 1
    attention: str = "global"  # "global" | "windowed"
    w_t: int = 0  # temporal window (windowed mode)
    token_frames: int = 1  # frame count the tokens are spread over

    def __post_init__(self):
        for f in fields(self):  # postponed annotations: f.type is "str" or "int"
            v = getattr(self, f.name)
            if not (isinstance(v, str) if f.type == "str" else isinstance(v, (int, np.integer)) and not isinstance(v, bool)):
                raise ConfigError(f"stage {self.name}: {f.name} must be of type {f.type}, got {v!r}")
        if min(self.tokens, self.dim, self.depth, self.steps, self.heads) < 1:
            raise ConfigError(f"stage {self.name}: tokens, dim, depth, steps and heads must be >= 1")
        if self.attention not in ("global", "windowed"):
            raise ConfigError(f"stage {self.name}: unknown attention mode {self.attention!r}")
        if self.attention == "windowed":
            if self.w_t < 1 or self.token_frames < 1:
                raise ConfigError(f"stage {self.name}: windowed mode needs w_t and token_frames")
            if self.tokens % self.token_frames:
                raise ConfigError(f"stage {self.name}: tokens not divisible by token_frames")


def attention_pair_count(s: StageSpec) -> int:
    """Evaluated query–key token pairs per attention layer: n² for global
    attention; windowed, per_frame² times :func:`~vidflow.windows.frame_pairs`
    (the mean over an unshifted and a shifted layer)."""
    if s.attention == "global":
        return s.tokens * s.tokens
    return frame_pairs(s.token_frames, s.w_t) * (s.tokens // s.token_frames) ** 2


def stage_flops(s: StageSpec) -> float:
    """Total FLOPs for the stage (exactly linear in steps and depth)."""
    pair_term = 4.0 * s.dim * attention_pair_count(s)
    proj_term = 8.0 * s.tokens * s.dim**2
    ffn_term = 16.0 * s.tokens * s.dim**2
    return (pair_term + proj_term + ffn_term) * s.depth * s.steps


@dataclass(frozen=True)
class PipelineSpec:
    stages: tuple[StageSpec, ...]
    baseline: StageSpec

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("pipeline needs at least one stage")
        for i, s in enumerate(self.stages):  # a report keys its rows by name
            if s.name in (t.name for t in self.stages[:i]):
                raise ConfigError(f"pipeline has two stages named {s.name!r}")


@dataclass(frozen=True)
class CostReport:
    stage_flops: dict[str, float]
    total_flops: float
    baseline_flops: float
    flops_ratio: float  # total / baseline
    speedup: float  # baseline / total
    stage_times: dict[str, float]
    total_time_s: float

    def rows(self) -> list[tuple[str, float, float, float]]:
        """(stage, flops, share, predicted seconds) per stage."""
        return [
            (name, fl, fl / self.total_flops, self.stage_times[name])
            for name, fl in self.stage_flops.items()
        ]


def predict_time(s: StageSpec, rate_s_per_flop: float) -> float:
    return rate_s_per_flop * stage_flops(s)


def pipeline_report(p: PipelineSpec, rate_s_per_flop: float = 1e-15) -> CostReport:
    """FLOPs, speedup ratio vs the baseline stage, and predicted wall times."""
    per_stage = {s.name: stage_flops(s) for s in p.stages}
    total = sum(per_stage.values())
    base = stage_flops(p.baseline)
    times = {s.name: predict_time(s, rate_s_per_flop) for s in p.stages}
    return CostReport(
        stage_flops=per_stage,
        total_flops=total,
        baseline_flops=base,
        flops_ratio=total / base,
        speedup=base / total,
        stage_times=times,
        total_time_s=sum(times.values()),
    )


def step_division_curve(
    k_values,
    hi_stage: StageSpec,
    lo_stage: StageSpec,
    refine_stage: StageSpec | None = None,
    rate_s_per_flop: float = 1e-15,
) -> list[tuple[int, float]]:
    """Predicted wall time as the turning point k moves steps from the
    low-resolution phase to the high-resolution phase.

    ``hi_stage``/``lo_stage`` describe the two preview phases; their ``steps``
    fields give the total budget (hi.steps + lo.steps).  The curve is affine
    in k with slope (c_hi - c_lo) per step.
    """
    n_total = hi_stage.steps + lo_stage.steps
    c_hi = predict_time(replace(hi_stage, steps=1), rate_s_per_flop)
    c_lo = predict_time(replace(lo_stage, steps=1), rate_s_per_flop)
    c_ref = predict_time(refine_stage, rate_s_per_flop) if refine_stage is not None else 0.0
    out = []
    for k in k_values:
        if not (0 < k <= n_total):
            raise ConfigError(f"k={k} outside (0, {n_total}]")
        out.append((k, k * c_hi + (n_total - k) * c_lo + c_ref))
    return out


def affine_fit(points) -> tuple[float, float, float]:
    """Least-squares line through (x, y) points; returns (slope, intercept, r2)."""
    pts = np.asarray(points, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


# Published reference arithmetic the reports are checked against: the 50-step
# full-resolution baseline at 658.5 PFLOPs / 3497 s, its 30% / 50% step
# variants, the two-stage pipeline at 34.3 PFLOPs, and the step-division
# timing ablation.  These are reproduction targets, not calibration inputs.
REFERENCE_BASELINE_PFLOPS = 658.5
REFERENCE_PIPELINE_PFLOPS = 34.3
REFERENCE_BASELINE_TIME_S = 3497.0
REFERENCE_30PCT = (197.5, 1049.0)
REFERENCE_50PCT = (329.2, 1748.0)
REFERENCE_STEP_DIVISION = ((5, 201.0), (10, 252.0), (20, 369.0), (30, 481.0), (40, 610.0))


def recommended_pipeline() -> PipelineSpec:
    """The recommended two-stage shape: 10 steps at the optimal resolution,
    30 steps at a 2x spatial downscale, 10 steps of a small windowed refiner
    at a 2x upscale, against a 50-step baseline at that upscaled resolution."""
    tokens, dim, depth = 18944, 1536, 30  # the tokens span 16 latent frames
    hi = StageSpec("preview_hi", tokens, dim, depth, steps=10)
    lo = StageSpec("preview_lo", tokens // 4, dim, depth, steps=30)
    ref = StageSpec("refine", tokens * 4, dim // 5, depth, steps=10,
                    attention="windowed", w_t=4, token_frames=16)
    baseline = StageSpec("baseline", tokens * 4, dim, depth, steps=50)
    return PipelineSpec(stages=(hi, lo, ref), baseline=baseline)
