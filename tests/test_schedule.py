import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vidflow as vf
from vidflow.errors import ConfigError, ContractError
from vidflow.grids import Extent5, Rng


EXT = Extent5(1, 1, 2, 3, 3)


def full(extent, value):
    return vf.LatentGrid(extent, np.full(extent.as_tuple(), float(value)))


def const_model(value):
    return lambda z, s, c: full(z.extent, value)


class TestBuildSchedule:
    def test_n1_endpoints(self):
        assert vf.build_schedule(1, 7.0).sigmas == (1.0, 0.0)

    def test_linear_at_shift_1(self):
        assert vf.build_schedule(4, 1.0).sigmas == (1.0, 0.75, 0.5, 0.25, 0.0)

    def test_shift_3_midpoint(self):
        # closed form: 3*0.5 / (1 + 2*0.5) = 0.75
        assert vf.build_schedule(2, 3.0).sigmas == (1.0, 0.75, 0.0)

    def test_shift_below_one_rejected(self):
        with pytest.raises(ConfigError):
            vf.build_schedule(4, 0.5)

    @given(st.integers(1, 50), st.floats(1.0, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_endpoints_and_monotonicity(self, n, shift):
        s = vf.build_schedule(n, shift)
        assert s.sigmas[0] == 1.0 and s.sigmas[-1] == 0.0
        assert all(a > b for a, b in zip(s.sigmas, s.sigmas[1:]))


class TestEulerStep:
    def test_zero_velocity(self):
        z = vf.sample_gaussian(EXT, Rng(0))
        out = vf.euler_step(z, vf.LatentGrid.zeros(EXT), 1.0, 0.5)
        assert np.array_equal(out.values, z.values)

    def test_hand_value(self):
        z = full(EXT, 1.0)
        u = full(EXT, 2.0)
        out = vf.euler_step(z, u, 1.0, 0.5)
        assert np.allclose(out.values, 0.0)

    def test_linear_path_one_step_exact(self):
        rng = Rng(4)
        z0 = vf.sample_gaussian(EXT, rng)
        eps = vf.sample_gaussian(EXT, rng)
        u = vf.LatentGrid(EXT, eps.values - z0.values)
        out = vf.euler_step(eps, u, 1.0, 0.0)
        assert np.allclose(out.values, z0.values, atol=1e-12)

    def test_non_decreasing_rejected(self):
        z = vf.LatentGrid.zeros(EXT)
        with pytest.raises(ConfigError):
            vf.euler_step(z, z, 0.5, 0.5)


class TestEstimateClean:
    def test_sigma_zero(self):
        z = vf.sample_gaussian(EXT, Rng(1))
        out = vf.estimate_clean(z, vf.sample_gaussian(EXT, Rng(2)), 0.0)
        assert np.array_equal(out.values, z.values)

    def test_zero_velocity(self):
        z = vf.sample_gaussian(EXT, Rng(1))
        out = vf.estimate_clean(z, vf.LatentGrid.zeros(EXT), 0.7)
        assert np.array_equal(out.values, z.values)

    def test_recovers_clean_on_linear_path(self):
        rng = Rng(5)
        z0 = vf.sample_gaussian(EXT, rng)
        eps = vf.sample_gaussian(EXT, rng)
        sigma = 0.6
        z_sig = vf.LatentGrid(EXT, (1 - sigma) * z0.values + sigma * eps.values)
        u = vf.LatentGrid(EXT, eps.values - z0.values)
        out = vf.estimate_clean(z_sig, u, sigma)
        assert np.abs(out.values - z0.values).max() <= 1e-12


class TestSampleOde:
    def test_zero_model_identity(self):
        z1 = vf.sample_gaussian(EXT, Rng(0))
        out = vf.sample_ode(const_model(0.0), z1, vf.build_schedule(10, 2.0), vf.Conditioning.zeros(1))
        assert np.array_equal(out.values, z1.values)

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_linear_path_oracle_exact(self, n):
        rng = Rng(8)
        z0 = vf.sample_gaussian(EXT, rng)
        eps = vf.sample_gaussian(EXT, rng)
        model = lambda z, s, c: vf.LatentGrid(EXT, eps.values - z0.values)
        out = vf.sample_ode(model, eps, vf.build_schedule(n, 1.0), vf.Conditioning.zeros(1))
        assert np.abs(out.values - z0.values).max() <= 1e-10

    def test_linear_test_ode_converges_first_order(self):
        # dz/dsigma = z integrated 1 -> 0 has exact solution z1 * e^{-1}
        z1 = vf.sample_gaussian(EXT, Rng(2))
        cond = vf.Conditioning.zeros(1)
        model = lambda z, s, c: z
        errors = {}
        for n in (125, 250, 500, 1000):
            out = vf.sample_ode(model, z1, vf.build_schedule(n, 1.0), cond)
            exact = z1.values * np.exp(-1.0)
            errors[n] = np.abs(out.values - exact).max() / np.abs(exact).max()
        assert errors[1000] <= 2e-3
        for n in (125, 250, 500):
            assert 1.8 <= errors[n] / errors[2 * n] <= 2.2

    def test_nfe_equals_schedule_length(self):
        for n in (1, 5, 23):
            sched = vf.build_schedule(n, 3.0)
            sigmas = []

            def model(z, s, c):
                sigmas.append(s)
                return vf.LatentGrid.zeros(z.extent)

            vf.sample_ode(model, vf.LatentGrid.zeros(EXT), sched, vf.Conditioning.zeros(1))
            assert sigmas == list(sched.sigmas[:-1])

    def test_model_extent_violation(self):
        bad = lambda z, s, c: vf.LatentGrid.zeros(Extent5(1, 1, 1, 2, 2))
        with pytest.raises(ContractError):
            vf.sample_ode(bad, vf.LatentGrid.zeros(EXT), vf.build_schedule(2, 1.0), vf.Conditioning.zeros(1))
