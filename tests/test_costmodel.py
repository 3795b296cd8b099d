import time

import numpy as np
import pytest

import vidflow as vf
from vidflow import windows
from vidflow.autodiff import attention_tiled
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
    stage_flops,
    step_division_curve,
)
from vidflow.denoiser import DenoiserParams, forward_velocity
from vidflow.errors import ConfigError


def simple_stage(**over):
    base = dict(name="s", tokens=64, dim=12, depth=2, steps=4)
    base.update(over)
    return StageSpec(**base)


class TestStageFlops:
    def test_global_hand_arithmetic(self):
        # n=8, d=2, depth=1, steps=1:
        # pairs 4*64*2=512, proj 8*8*2^2=256, ffn 16*8*4=512 -> 1280
        s = StageSpec("x", tokens=8, dim=2, depth=1, steps=1)
        assert stage_flops(s) == 1280.0

    def test_linear_in_steps_and_depth(self):
        s1 = simple_stage(steps=1, depth=1)
        assert stage_flops(simple_stage(steps=7, depth=1)) == 7 * stage_flops(s1)
        assert stage_flops(simple_stage(steps=1, depth=3)) == 3 * stage_flops(s1)

    def test_windowing_reduces_pair_count(self):
        g = simple_stage(tokens=64, attention="global")
        w = simple_stage(tokens=64, attention="windowed", w_t=2, token_frames=8)
        assert attention_pair_count(w) < attention_pair_count(g)
        # 8 frames of 8 tokens at w_t=2: unshifted 4 windows of 2 frames,
        # 4 * 2^2 = 16 frames^2; shifted by s_t=1, the window [6, 8) holding
        # frame T - s_t = 7 splits 1 + 1, so the mean is 16 - 1*1 = 15
        # frames^2, times 8^2 token pairs per frame pair
        assert attention_pair_count(w) == 15 * 8**2 == 960
        assert attention_pair_count(g) == 64 * 64

    def test_window_tail_unpadded(self):
        s = simple_stage(tokens=70, attention="windowed", w_t=4, token_frames=7)
        # windows of 4+3 frames at 10 tokens/frame: unshifted 4^2 + 3^2 = 25
        # frames^2; shifted by s_t=2, the tail [4, 7) holding frame
        # T - s_t = 5 splits 1 + 2, so the mean is 25 - 1*2 = 23 frames^2,
        # times 10^2
        assert attention_pair_count(s) == 23 * 10**2 == 2300

    def test_a_billion_windows_are_priced_in_closed_form(self):
        # one window per frame: a list entry per window would need ~130 GB
        s = StageSpec("huge", tokens=10**9, dim=8, depth=1, steps=1,
                      attention="windowed", w_t=1, token_frames=10**9)
        t0 = time.perf_counter()
        pairs, flops = attention_pair_count(s), stage_flops(s)
        assert time.perf_counter() - t0 < 0.1
        # w_t=1 never splits a window: 10^9 one-frame windows of one token
        assert pairs == 10**9
        # pairs 4*10^9*8, proj 8*10^9*8^2 plus ffn 16*10^9*8^2
        assert flops == 4.0 * 8 * 10**9 + 24.0 * 10**9 * 8**2

    def test_validation(self):
        with pytest.raises(ConfigError):
            StageSpec("x", tokens=0, dim=2, depth=1, steps=1)
        for heads in (0, -5):
            with pytest.raises(ConfigError, match="stage x: .*heads"):
                StageSpec("x", tokens=8, dim=2, depth=1, steps=1, heads=heads)
        with pytest.raises(ConfigError):
            simple_stage(attention="windowed")  # missing w_t
        with pytest.raises(ConfigError):
            simple_stage(attention="windowed", w_t=2, token_frames=7)  # 64 % 7

    def test_unknown_attention_mode(self):
        with pytest.raises(ConfigError, match="stage x: unknown attention mode 'dense'"):
            simple_stage(name="x", attention="dense")

    @pytest.mark.parametrize("field,value", [("tokens", "64"), ("tokens", True), ("dim", 12.0), ("name", 1)])
    def test_field_of_the_wrong_type(self, field, value):
        with pytest.raises(ConfigError, match=f"stage .*: {field} must be of type "):
            simple_stage(**{field: value})

    def test_numpy_integer_fields(self):
        # bench/spans.forward_spec builds stages from Extent5 fields
        assert stage_flops(simple_stage(tokens=np.int64(64))) == stage_flops(simple_stage())


class CountedWeight(np.ndarray):
    """A weight view that appends 2·m·k·n to its ``flops`` list for each
    matmul it is an operand of, and returns plain arrays."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [a.view(np.ndarray) if isinstance(a, CountedWeight) else a for a in inputs]
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            self.flops.append(2 * result.size * plain[0].shape[-1])
        return result


class TestCountedFlops:
    @pytest.mark.parametrize("w_t", [2, 4, 6])
    @pytest.mark.parametrize("T", [1, 2, 3, 5, 8, 9, 12, 16])
    def test_stage_flops_equal_a_forwards_block_matmuls(self, monkeypatch, T, w_t):
        """Every block product of one forward, counted as it runs, sums to
        stage_flops exactly: the projections and FFN through the weights, the
        attention scores and context per attention_tiled call.  The embed,
        head, sigma and conditioning products are outside the model."""
        d, heads, depth = 12, 2, 2
        params = DenoiserParams.init(patch=2, d=d, heads=heads, depth=depth, w_t=w_t,
                                     channels=2, cond_dim=2, rng=vf.Rng(0))
        flops = []
        for name, w in params.tensors.items():
            if name.startswith("block"):
                params.tensors[name] = w.view(CountedWeight)
                params.tensors[name].flops = flops

        def counting(q, k, v, scale):
            h, n_q, dh = q.shape
            flops.append(2 * h * n_q * k.shape[-2] * (dh + v.shape[-1]))
            return attention_tiled(q, k, v, scale)

        monkeypatch.setattr(windows, "attention_tiled", counting)
        z = vf.sample_gaussian(vf.Extent5(1, 2, T, 4, 4), vf.Rng(1))
        forward_velocity(params, z, 0.5, vf.Conditioning.zeros(2))
        spec = StageSpec("forward", T * 2 * 2, d, depth, 1, heads, "windowed", w_t, T)
        assert sum(flops) == stage_flops(spec)


class TestPipelineReport:
    def test_ratio_and_speedup_consistent(self):
        p = PipelineSpec(stages=(simple_stage(name="a"),), baseline=simple_stage(name="b", steps=8))
        r = pipeline_report(p)
        assert r.flops_ratio == pytest.approx(0.5)
        assert r.speedup == pytest.approx(2.0)
        assert r.total_flops == sum(r.stage_flops.values())

    def test_pipeline_without_stages(self):
        with pytest.raises(ConfigError, match="at least one stage"):
            PipelineSpec(stages=(), baseline=simple_stage(name="b"))

    def test_repeated_stage_name(self):
        with pytest.raises(ConfigError, match="two stages named 'a'"):  # a report keys its rows by name
            PipelineSpec(stages=(simple_stage(name="a"), simple_stage(name="a", steps=30)),
                         baseline=simple_stage(name="b"))

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


class TestStepDivision:
    def test_curve_is_affine_and_increasing(self):
        hi = simple_stage(name="hi", tokens=256, steps=10)
        lo = simple_stage(name="lo", tokens=64, steps=30)
        curve = step_division_curve(range(1, 41), hi, lo)
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
