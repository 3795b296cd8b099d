import numpy as np
import pytest

import vidflow as vf
from vidflow.errors import ConfigError
from vidflow.grids import Extent5, Rng
from vidflow.preview import PreviewConfig, generate_preview, reshift_noise


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
