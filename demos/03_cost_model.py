"""Walkthrough: the analytical FLOPs/latency model for multi-stage pipelines.

All numbers are closed-form; nothing here runs a neural network.
"""

from vidflow.costmodel import (
    REFERENCE_STEP_DIVISION,
    affine_fit,
    attention_pair_count,
    recommended_pipeline,
    pipeline_report,
    step_division_curve,
    StageSpec,
)

# --- 1. per-stage arithmetic ------------------------------------------------
# Windowed attention replaces one n^2 pair count with a sum of small squares.
# Blocks alternate unshifted and shifted windows; a shifted layer splits the
# window that wraps past the last frame in two, so the windowed count is the
# mean of the two layers (vidflow.windows.frame_pairs).
g = StageSpec("global", tokens=1024, dim=128, depth=4, steps=1)
w = StageSpec("windowed", tokens=1024, dim=128, depth=4, steps=1,
              attention="windowed", w_t=4, token_frames=16)
print(f"attention pairs per layer (mean of unshifted and shifted): "
      f"global {attention_pair_count(g):,} vs windowed {attention_pair_count(w):,} "
      f"({attention_pair_count(g) / attention_pair_count(w):.2f}x fewer)")

# --- 2. the recommended two-stage shape ------------------------------------
# 10 steps at the preview's optimal resolution, 30 steps at a 2x spatial
# downscale, 10 steps of a slim windowed refiner at the 2x upscale, compared
# against a 50-step full-size baseline.
pipe = recommended_pipeline()
report = pipeline_report(pipe)
print("\nstage            FLOPs        share")
for name, flops, share, _ in report.rows():
    print(f"{name:<12} {flops:>12.4g}  {share:>6.1%}")
print(f"total        {report.total_flops:>12.4g}")
print(f"baseline     {report.baseline_flops:>12.4g}")
print(f"speedup: {report.speedup:.2f}x (FLOPs ratio {report.flops_ratio:.4f})")

# --- 3. moving the turning point -------------------------------------------
# Each step moved from the small grid to the big grid adds a fixed time
# increment, so predicted wall time is affine in k.
curve = step_division_curve([5, 10, 20, 30, 40], pipe.stages[0], pipe.stages[1],
                            pipe.stages[2], rate_s_per_flop=1.4e-13)
print("\nk (hi-res steps) -> predicted seconds:")
for k, t in curve:
    print(f"  {k:>2} -> {t:7.1f}")
slope, intercept, r2 = affine_fit(REFERENCE_STEP_DIVISION)
print(f"published turning-point timings: slope {slope:.2f} s/step, "
      f"intercept {intercept:.1f} s, R2 {r2:.5f}")
