"""Analytical FLOPs and latency model for multi-stage denoising pipelines.

Conventions (documented constants): one multiply-add counts as 2 FLOPs;
softmax and normalization are not counted.  They are not negligible: at this
package's head width dh=8 one exp costs more than one q·kᵀ score (1.32 vs
1.01 ns per score, float64 numpy with one BLAS thread on a 2-core box).  The
acceptance-level claims are all ratios, which these conventions cancel out of.

Per transformer block and step, for n tokens of width d (d_ff = 4d):
  attention pairs  sum over windows of 4 * n_win^2 * d
  projections      4 * n * d^2
  feed-forward     16 * n * d^2
multiplied by depth and by the stage's step count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class StageSpec:
    """Analytical description of one denoising stage."""

    name: str
    tokens: int
    dim: int
    depth: int
    steps: int
    heads: int = 1
    attention: str = "global"  # "global" | "windowed"
    w_t: int = 0  # temporal window (windowed mode)
    token_frames: int = 1  # frame count the tokens are spread over
    step_overhead_s: float = 0.0

    def __post_init__(self):
        if min(self.tokens, self.dim, self.depth, self.steps) < 1:
            raise ConfigError(f"stage {self.name}: all sizes must be >= 1")
        if self.attention not in ("global", "windowed"):
            raise ConfigError(f"stage {self.name}: unknown attention mode {self.attention!r}")
        if self.attention == "windowed":
            if self.w_t < 1 or self.token_frames < 1:
                raise ConfigError(f"stage {self.name}: windowed mode needs w_t and token_frames")
            if self.tokens % self.token_frames:
                raise ConfigError(f"stage {self.name}: tokens not divisible by token_frames")


def attention_pair_count(s: StageSpec) -> int:
    """Evaluated token pairs per attention layer: n² for global attention;
    windowed, each of the token_frames // w_t full windows of w_t frames
    gives (w_t·per_frame)² and the unpadded tail of token_frames mod w_t
    frames gives (tail·per_frame)²."""
    if s.attention == "global":
        return s.tokens * s.tokens
    per_frame = s.tokens // s.token_frames
    full, tail = divmod(s.token_frames, s.w_t)
    return full * (s.w_t * per_frame) ** 2 + (tail * per_frame) ** 2


def stage_flops(s: StageSpec) -> float:
    """Total FLOPs for the stage (exactly linear in steps and depth)."""
    pair_term = 4.0 * s.dim * attention_pair_count(s)
    proj_term = 4.0 * s.tokens * s.dim**2
    ffn_term = 16.0 * s.tokens * s.dim**2
    return (pair_term + proj_term + ffn_term) * s.depth * s.steps


@dataclass(frozen=True)
class PipelineSpec:
    stages: tuple[StageSpec, ...]
    baseline: StageSpec

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("pipeline needs at least one stage")


@dataclass(frozen=True)
class CostReport:
    stage_flops: dict[str, float]
    total_flops: float
    baseline_flops: float
    flops_ratio: float  # total / baseline
    speedup: float  # baseline / total
    stage_times: dict[str, float]
    total_time_s: float
    baseline_time_s: float

    def rows(self) -> list[tuple[str, float, float, float]]:
        """(stage, flops, share, predicted seconds) per stage."""
        return [
            (name, fl, fl / self.total_flops, self.stage_times[name])
            for name, fl in self.stage_flops.items()
        ]


def predict_time(s: StageSpec, rate_s_per_flop: float) -> float:
    return rate_s_per_flop * stage_flops(s) + s.step_overhead_s * s.steps


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
        baseline_time_s=predict_time(p.baseline, rate_s_per_flop),
    )


def step_division_curve(
    k_values,
    hi_stage: StageSpec,
    lo_stage: StageSpec,
    refine_stage: StageSpec | None = None,
    rate_s_per_flop: float = 1e-15,
    fixed_overhead_s: float = 0.0,
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
        out.append((k, k * c_hi + (n_total - k) * c_lo + c_ref + fixed_overhead_s))
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


def reference_speedup() -> float:
    """Published full-pipeline FLOPs reduction (not bit-reproducible here
    because the baseline's full architecture is not public)."""
    return REFERENCE_BASELINE_PFLOPS / REFERENCE_PIPELINE_PFLOPS


def recommended_pipeline(
    base_tokens: int = 18944,
    base_dim: int = 1536,
    base_depth: int = 30,
    token_frames: int = 16,
    refiner_w_t: int = 4,
) -> PipelineSpec:
    """The recommended two-stage shape: 10 steps at the optimal resolution,
    30 steps at a 2x spatial downscale, 10 steps of a small windowed refiner
    at a 2x upscale, against a 50-step baseline at that upscaled resolution."""
    hi = StageSpec("preview_hi", base_tokens, base_dim, base_depth, steps=10)
    lo = StageSpec("preview_lo", base_tokens // 4, base_dim, base_depth, steps=30)
    ref = StageSpec(
        "refine",
        base_tokens * 4,
        max(6, base_dim // 5),
        base_depth,
        steps=10,
        attention="windowed",
        w_t=refiner_w_t,
        token_frames=token_frames,
    )
    baseline = StageSpec("baseline", base_tokens * 4, base_dim, base_depth, steps=50)
    return PipelineSpec(stages=(hi, lo, ref), baseline=baseline)
