import numpy as np
import pytest

from vidflow.costmodel import (
    REFERENCE_30PCT,
    REFERENCE_50PCT,
    REFERENCE_BASELINE_PFLOPS,
    REFERENCE_BASELINE_TIME_S,
    REFERENCE_STEP_DIVISION,
    PipelineSpec,
    StageSpec,
    affine_fit,
    attention_pair_count,
    recommended_pipeline,
    pipeline_report,
    predict_time,
    reference_speedup,
    stage_flops,
    step_division_curve,
)
from vidflow.errors import ConfigError


def simple_stage(**over):
    base = dict(name="s", tokens=64, dim=12, depth=2, steps=4)
    base.update(over)
    return StageSpec(**base)


class TestStageFlops:
    def test_global_hand_arithmetic(self):
        # n=8, d=2, depth=1, steps=1:
        # pairs 4*64*2=512, proj 4*8*4=128, ffn 16*8*4=512 -> 1152
        s = StageSpec("x", tokens=8, dim=2, depth=1, steps=1)
        assert stage_flops(s) == 1152.0

    def test_linear_in_steps_and_depth(self):
        s1 = simple_stage(steps=1, depth=1)
        assert stage_flops(simple_stage(steps=7, depth=1)) == 7 * stage_flops(s1)
        assert stage_flops(simple_stage(steps=1, depth=3)) == 3 * stage_flops(s1)

    def test_windowing_reduces_pair_count(self):
        g = simple_stage(tokens=64, attention="global")
        w = simple_stage(tokens=64, attention="windowed", w_t=2, token_frames=8)
        assert attention_pair_count(w) < attention_pair_count(g)
        # 8 frames of 8 tokens in 4 windows of 2 frames: 4 * 16^2 = 1024
        assert attention_pair_count(w) == 1024
        assert attention_pair_count(g) == 64 * 64

    def test_window_tail_unpadded(self):
        s = simple_stage(tokens=70, attention="windowed", w_t=4, token_frames=7)
        # windows of 4+3 frames at 10 tokens/frame
        assert s.window_token_counts() == [40, 30]

    def test_validation(self):
        with pytest.raises(ConfigError):
            StageSpec("x", tokens=0, dim=2, depth=1, steps=1)
        with pytest.raises(ConfigError):
            simple_stage(attention="windowed")  # missing w_t
        with pytest.raises(ConfigError):
            simple_stage(attention="windowed", w_t=2, token_frames=7)  # 64 % 7


class TestPipelineReport:
    def test_ratio_and_speedup_consistent(self):
        p = PipelineSpec(stages=(simple_stage(name="a"),), baseline=simple_stage(name="b", steps=8))
        r = pipeline_report(p)
        assert r.flops_ratio == pytest.approx(0.5)
        assert r.speedup == pytest.approx(2.0)
        assert r.total_flops == sum(r.stage_flops.values())

    def test_rows_shares_sum_to_one(self):
        p = recommended_pipeline()
        r = pipeline_report(p)
        assert sum(share for _, _, share, _ in r.rows()) == pytest.approx(1.0)

    def test_step_fraction_ratios_are_exact(self):
        # 15 / 50 and 25 / 50 step baselines: ratios 0.3 and 0.5 in both
        # flops and predicted time (zero per-step overhead)
        base = recommended_pipeline().baseline
        from dataclasses import replace
        for frac, steps in ((0.3, 15), (0.5, 25)):
            cut = replace(base, steps=steps)
            assert stage_flops(cut) / stage_flops(base) == pytest.approx(frac, abs=1e-12)
            assert predict_time(cut, 1e-15) / predict_time(base, 1e-15) == pytest.approx(frac, abs=1e-12)

    def test_recommended_shape_speedup_exceeds_published(self):
        r = pipeline_report(recommended_pipeline())
        assert r.speedup >= 12.0
        assert reference_speedup() == pytest.approx(REFERENCE_BASELINE_PFLOPS / 34.3)


class TestStepDivision:
    def test_curve_is_affine_and_increasing(self):
        hi = simple_stage(name="hi", tokens=256, steps=10)
        lo = simple_stage(name="lo", tokens=64, steps=30)
        curve = step_division_curve(range(1, 41), hi, lo, fixed_overhead_s=5.0)
        ys = [y for _, y in curve]
        diffs = np.diff(ys)
        assert np.allclose(diffs, diffs[0])
        assert diffs[0] > 0  # moving steps to the big grid costs time

    def test_k_range_checked(self):
        hi = simple_stage(name="hi", steps=10)
        lo = simple_stage(name="lo", steps=30)
        with pytest.raises(ConfigError):
            step_division_curve([0], hi, lo)
        with pytest.raises(ConfigError):
            step_division_curve([41], hi, lo)


class TestFits:
    def test_affine_fit_exact_line(self):
        slope, intercept, r2 = affine_fit([(0, 1.0), (1, 3.0), (2, 5.0)])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_published_step_division_is_nearly_affine(self):
        _, _, r2 = affine_fit(REFERENCE_STEP_DIVISION)
        assert r2 >= 0.99

    def test_published_step_fractions_track_flops(self):
        # the published 30% / 50% runs scale flops and time together
        f30, t30 = REFERENCE_30PCT
        f50, t50 = REFERENCE_50PCT
        assert f30 / REFERENCE_BASELINE_PFLOPS == pytest.approx(0.30, abs=0.001)
        assert f50 / REFERENCE_BASELINE_PFLOPS == pytest.approx(0.50, abs=0.001)
        assert t30 / REFERENCE_BASELINE_TIME_S == pytest.approx(0.30, abs=0.001)
        assert t50 / REFERENCE_BASELINE_TIME_S == pytest.approx(0.50, abs=0.001)
