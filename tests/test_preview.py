import re

import numpy as np
import pytest

import vidflow as vf
from vidflow.errors import ConfigError, ContractError, ShapeError
from vidflow.grids import Extent5, Rng
from vidflow.preview import PreviewConfig, SigmaSchedule, estimate_clean, generate_preview, reshift_noise


TEMPLATE = Extent5(1, 2, 3, 8, 8)


def zero_model():
    return lambda z, s, c: vf.LatentGrid.zeros(z.extent)


class TestConfig:
    def test_k_bounds(self):
        with pytest.raises(ConfigError):
            PreviewConfig(n_total=10, k=0, hi=(8, 8), lo=(4, 4))
        with pytest.raises(ConfigError):
            PreviewConfig(n_total=10, k=10, hi=(8, 8), lo=(4, 4))

    def test_lo_must_not_exceed_hi(self):
        with pytest.raises(ConfigError):
            PreviewConfig(n_total=10, k=2, hi=(4, 4), lo=(8, 8))

    @pytest.mark.parametrize("kwargs,named", [
        ({"shift": 1e16}, "schedule must be strictly decreasing"),  # rounds flat at sigma = 1
        ({"n_total": 2**70}, "step count must be in"),
        ({"shift": 0.5}, "shift must be >= 1"),
    ], ids=["flat_schedule", "too_many_steps", "shift_below_one"])
    def test_schedule_rules_run_at_construction(self, kwargs, named):
        with pytest.raises(ConfigError, match=named):
            PreviewConfig(**kwargs)


class TestReshift:
    def test_linear_combination_exact(self):
        clean = vf.sample_gaussian(Extent5(1, 1, 2, 4, 4), Rng(3))
        rng = Rng(9)
        eps = vf.sample_gaussian(clean.extent, Rng(9))
        out = reshift_noise(clean, 0.4, rng)
        expect = clean.values + 0.4 * eps.values
        assert np.abs(out.values - expect).max() <= 1e-15

    def test_residual_scale_matches_sigma(self):
        clean = vf.LatentGrid.zeros(Extent5(1, 2, 4, 32, 32))
        for sigma_k in (0.3, 0.8):
            out = reshift_noise(clean, sigma_k, Rng(5))
            assert abs(out.values.std() - sigma_k) <= 0.05 * sigma_k

    def test_sigma_out_of_range(self):
        clean = vf.LatentGrid.zeros(Extent5(1, 1, 1, 2, 2))
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(ConfigError):
                reshift_noise(clean, bad, Rng(0))


class TestGeneratePreview:
    def test_output_extent_and_switch_sigma(self):
        cfg = PreviewConfig(n_total=8, k=3, hi=(8, 8), lo=(4, 4), shift=5.0, seed=1)
        res = generate_preview(zero_model(), vf.Conditioning.zeros(1), cfg, TEMPLATE)
        assert res.latent.extent == Extent5(1, 2, 3, 4, 4)
        assert res.sigma_switch == vf.build_schedule(cfg.n_total, cfg.shift).sigmas[cfg.k]

    def test_schedule_built_once_by_the_config(self, monkeypatch):
        """``generate_preview`` runs on the schedule its config built and checked."""
        from vidflow import preview

        cfg = PreviewConfig(n_total=8, k=3, hi=(8, 8), lo=(4, 4), seed=1)
        built = []
        counting = lambda *args: built.append(args) or vf.build_schedule(*args)  # noqa: E731
        monkeypatch.setattr(preview, "build_schedule", counting)
        generate_preview(zero_model(), vf.Conditioning.zeros(1), cfg, TEMPLATE)
        assert built == []

    def test_nfe_split(self):
        cfg = PreviewConfig(n_total=8, k=3, hi=(8, 8), lo=(4, 4), seed=1)
        extents = []

        def model(z, s, c):
            extents.append((z.extent.h, z.extent.w))
            return vf.LatentGrid.zeros(z.extent)

        res = generate_preview(model, vf.Conditioning.zeros(1), cfg, TEMPLATE)
        assert (res.nfe_hi, res.nfe_lo) == (4, 5)
        assert extents == [(8, 8)] * 4 + [(4, 4)] * 5

    def test_deterministic_given_seed(self):
        cfg = PreviewConfig(n_total=6, k=2, hi=(8, 8), lo=(4, 4), seed=7)
        model = lambda z, s, c: vf.LatentGrid(z.extent, 0.1 * z.values)
        a = generate_preview(model, vf.Conditioning.zeros(1), cfg, TEMPLATE)
        b = generate_preview(model, vf.Conditioning.zeros(1), cfg, TEMPLATE)
        assert np.array_equal(a.latent.values, b.latent.values)

    def test_zero_model_collapses_to_reshifted_downscale(self):
        # With u == 0 the clean estimate equals the current state, so the
        # result is resize(z1) + sigma_k * eps integrated with zero velocity.
        cfg = PreviewConfig(n_total=5, k=2, hi=(8, 8), lo=(4, 4), seed=3)
        master = Rng(cfg.seed)
        z1 = vf.sample_gaussian(Extent5(1, 2, 3, 8, 8), master.split(0))
        res = generate_preview(zero_model(), vf.Conditioning.zeros(1), cfg, TEMPLATE)
        sigma_k = res.sigma_switch
        lo = vf.resize_spatial(z1, 4, 4)
        eps = vf.sample_gaussian(lo.extent, master.split(1))
        expect = lo.values + sigma_k * eps.values
        assert np.abs(res.latent.values - expect).max() <= 1e-12

    def test_degenerate_lo_equals_hi_matches_plain_ode(self):
        # lo == hi and a state-independent velocity: the clean-estimate detour
        # re-enters the trajectory exactly, so the preview equals sample_ode.
        rng = Rng(12)
        z0 = vf.sample_gaussian(TEMPLATE, rng)
        eps_dir = vf.sample_gaussian(TEMPLATE, rng)
        u_const = vf.LatentGrid(TEMPLATE, eps_dir.values - z0.values)
        model = lambda z, s, c: u_const
        cfg = PreviewConfig(n_total=7, k=3, hi=(8, 8), lo=(8, 8), shift=2.0, seed=5)
        z1 = vf.sample_gaussian(TEMPLATE, Rng(99))

        class ReplayRng:
            def normal(self, *shape):
                # clean + sigma_k * eps must return the pre-detour state:
                # eps = (z - clean) / sigma_k = u_const
                return u_const.values.reshape(shape)

        res = generate_preview(
            model, vf.Conditioning.zeros(1), cfg, TEMPLATE, z1=z1, reshift_rng=ReplayRng()
        )
        plain = vf.sample_ode(model, z1, vf.build_schedule(cfg.n_total, cfg.shift), vf.Conditioning.zeros(1))
        assert np.abs(res.latent.values - plain.values).max() <= 1e-10

    def test_z1_extent_checked(self):
        cfg = PreviewConfig(n_total=4, k=1, hi=(8, 8), lo=(4, 4))
        bad = vf.LatentGrid.zeros(Extent5(1, 2, 3, 4, 4))
        with pytest.raises(ConfigError):
            generate_preview(zero_model(), vf.Conditioning.zeros(1), cfg, TEMPLATE, z1=bad)


class TestRefusals:
    @pytest.mark.parametrize("bad_call,phase_hw", [(0, (8, 8)), (2, (8, 8)), (3, (4, 4))],
                             ids=["hi_step", "turning_point", "lo_step"])
    def test_model_of_the_wrong_extent_is_a_contract_error(self, bad_call, phase_hw):
        """With n_total=4 and k=2, calls 0 and 1 are hi steps, call 2 is the
        turning point and calls 3 and 4 are lo steps.  A wrong extent at any of
        them stops the run at that call with the message ``sample_ode`` gives."""
        cfg = PreviewConfig(n_total=4, k=2, hi=(8, 8), lo=(4, 4), seed=1)
        wrong = Extent5(1, 2, 3, 2, 2)
        seen = []

        def model(z, s, c):
            seen.append(z.extent)
            return vf.LatentGrid.zeros(wrong if len(seen) - 1 == bad_call else z.extent)

        with pytest.raises(ContractError) as preview_error:
            generate_preview(model, vf.Conditioning.zeros(1), cfg, TEMPLATE)
        assert len(seen) == bad_call + 1 and (seen[-1].h, seen[-1].w) == phase_hw
        with pytest.raises(ContractError) as ode_error:
            vf.sample_ode(lambda z, s, c: vf.LatentGrid.zeros(wrong), vf.LatentGrid.zeros(seen[-1]),
                          vf.build_schedule(1), vf.Conditioning.zeros(1))
        assert str(preview_error.value) == str(ode_error.value)

    def test_lo_of_zero_rows(self):
        with pytest.raises(ConfigError, match=r"lo resolution must be >= 1, got \(0, 8\)"):
            PreviewConfig(lo=(0, 8))

    def test_schedule_that_stops_above_zero(self):
        with pytest.raises(ConfigError, match="schedule must run from exactly 1 to exactly 0"):
            SigmaSchedule((1.0, 0.5))

    def test_clean_estimate_of_another_extent(self):
        """The refusal names z's extent first (``axpy`` alone would name u's)."""
        z, u = vf.LatentGrid.zeros(Extent5(1, 1, 1, 2, 2)), vf.LatentGrid.zeros(Extent5(1, 1, 1, 2, 3))
        with pytest.raises(ShapeError, match=re.escape(f"extent mismatch: {z.extent} vs {u.extent}")):
            estimate_clean(z, u, 0.5)

    def test_clean_estimate_above_sigma_one(self):
        z = vf.LatentGrid.zeros(Extent5(1, 1, 1, 2, 2))
        with pytest.raises(ConfigError, match=r"sigma must be in \[0, 1\], got 1.5"):
            estimate_clean(z, z, 1.5)

    def test_conditioning_with_nan(self):
        with pytest.raises(ConfigError, match="conditioning must be a finite 1-D vector"):
            vf.Conditioning((float("nan"),))


# The package's public names, listed here so that moving code between its
# modules cannot drop one unnoticed.
PUBLIC_NAMES = (
    "AdamW", "AttentionWeights", "BlockWeights", "Conditioning", "ConfigError", "ContractError",
    "DegradationConfig", "DenoiserParams", "Extent5", "FormatError", "LatentGrid", "PipelineSpec",
    "PreviewConfig", "PreviewResult", "Rng", "RoPEConfig", "ShapeError", "SigmaSchedule", "StageSpec",
    "ToyCodec", "TrainConfig", "VidflowError", "WindowSpec", "affine_fit", "axpy", "backward",
    "build_schedule", "degrade_pair", "estimate_clean", "euler_step", "forward_velocity",
    "generate_preview", "load_checkpoint", "mse", "pipeline_report", "read_lgr1", "recommended_pipeline",
    "refine", "refiner_loss", "reshift_noise", "resize_spatial", "sample_gaussian", "sample_ode",
    "save_checkpoint", "stage_flops", "step_division_curve", "swin_block_pair", "synth_video",
    "train_base", "train_refiner", "window_attention", "write_lgr1",
)


def test_every_public_name_is_still_exported():
    assert [name for name in PUBLIC_NAMES if not hasattr(vf, name)] == []
