import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vidflow as vf
from vidflow.errors import FormatError, ShapeError
from vidflow.grids import Extent5, LatentGrid, Rng, read_record, write_record

from oracles import bilinear_resize_oracle, mse_twopass


def grid_of(arr):
    return vf.LatentGrid.from_array(np.asarray(arr, dtype=float))


def full(extent, value):
    return LatentGrid(extent, np.full(extent.as_tuple(), float(value)))


class TestResize:
    def test_constant_stays_constant(self):
        g = full(Extent5(1, 2, 3, 5, 7), 3.5)
        out = vf.resize_spatial(g, 9, 4)
        assert np.all(out.values == 3.5)

    def test_identity_is_bit_exact(self):
        rng = Rng(1)
        g = vf.sample_gaussian(Extent5(2, 1, 2, 6, 5), rng)
        out = vf.resize_spatial(g, 6, 5)
        assert np.array_equal(out.values, g.values)

    def test_matches_scalar_oracle_4x4_to_2x2(self):
        g = grid_of(np.arange(16.0).reshape(1, 1, 1, 4, 4))
        out = vf.resize_spatial(g, 2, 2)
        expect = bilinear_resize_oracle(g.values[0, 0, 0], 2, 2)
        assert np.allclose(out.values[0, 0, 0], expect, atol=1e-14)
        # frozen from the oracle: align-corners 2x2 hits the four corners
        assert out.values.ravel().tolist() == [0.0, 3.0, 12.0, 15.0]

    @pytest.mark.parametrize("h_out,w_out", [(3, 3), (7, 2), (1, 5), (6, 6), (2, 9)])
    def test_matches_scalar_oracle_random(self, h_out, w_out):
        rng = Rng(h_out * 10 + w_out)
        g = vf.sample_gaussian(Extent5(1, 2, 2, 5, 4), rng)
        out = vf.resize_spatial(g, h_out, w_out)
        for b in range(1):
            for c in range(2):
                for f in range(2):
                    expect = bilinear_resize_oracle(g.values[b, c, f], h_out, w_out)
                    assert np.allclose(out.values[b, c, f], expect, atol=1e-12)

    @pytest.mark.parametrize("shape,hw_out", [
        ((1, 3, 9, 16, 16), (8, 8)), ((1, 3, 5, 8, 8), (16, 16)),    # the rig's pixel down-up
        ((1, 12, 9, 8, 8), (4, 4)), ((1, 12, 9, 4, 4), (8, 8)),      # and its latent down-up
        ((4, 12, 8, 16, 16), (8, 8)), ((4, 12, 8, 8, 8), (16, 16)),  # gen_small
        ((1, 12, 8, 32, 32), (16, 16)), ((1, 12, 8, 16, 16), (32, 32)),  # gen_large
        ((2, 1, 3, 5, 7), (3, 11)),
    ])
    def test_bits_of_the_broadcast_formula(self, shape, hw_out):
        """The planned corner gathers give the bits of the four-corner
        formula over fancy-indexed corners, multiplied and summed in order."""
        g = vf.sample_gaussian(Extent5(*shape), Rng(sum(shape)))
        h_out, w_out = hw_out
        ys = np.arange(h_out) * ((shape[3] - 1) / (h_out - 1))
        xs = np.arange(w_out) * ((shape[4] - 1) / (w_out - 1))
        y0 = np.clip(np.floor(ys).astype(int), 0, shape[3] - 1)
        x0 = np.clip(np.floor(xs).astype(int), 0, shape[4] - 1)
        y1, x1 = np.minimum(y0 + 1, shape[3] - 1), np.minimum(x0 + 1, shape[4] - 1)
        wy, wx = (ys - y0)[:, None], (xs - x0)[None, :]
        v = g.values
        expect = (
            v[..., y0[:, None], x0[None, :]] * (1 - wy) * (1 - wx)
            + v[..., y0[:, None], x1[None, :]] * (1 - wy) * wx
            + v[..., y1[:, None], x0[None, :]] * wy * (1 - wx)
            + v[..., y1[:, None], x1[None, :]] * wy * wx
        )
        for _ in range(2):  # the plan is built, then reused
            assert vf.resize_spatial(g, h_out, w_out).values.tobytes() == expect.tobytes()

    def test_down_then_up_constant(self):
        g = full(Extent5(1, 1, 1, 8, 8), -2.25)
        down = vf.resize_spatial(g, 3, 3)
        up = vf.resize_spatial(down, 8, 8)
        assert np.allclose(up.values, -2.25)

    def test_zero_target_rejected(self):
        g = full(Extent5(1, 1, 1, 4, 4), 0.0)
        with pytest.raises(ShapeError):
            vf.resize_spatial(g, 0, 4)

    def test_frames_axis_untouched(self):
        rng = Rng(3)
        g = vf.sample_gaussian(Extent5(1, 1, 4, 4, 4), rng)
        out = vf.resize_spatial(g, 2, 2)
        assert out.extent.f == 4


class TestRng:
    def test_same_seed_bit_identical(self):
        a = vf.sample_gaussian(Extent5(1, 1, 2, 3, 4), Rng(99))
        b = vf.sample_gaussian(Extent5(1, 1, 2, 3, 4), Rng(99))
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = vf.sample_gaussian(Extent5(1, 1, 1, 4, 4), Rng(1))
        b = vf.sample_gaussian(Extent5(1, 1, 1, 4, 4), Rng(2))
        assert np.any(a.values != b.values)

    def test_moments_at_1e5(self):
        z = vf.sample_gaussian(Extent5(1, 1, 10, 100, 100), Rng(7))
        assert abs(z.values.mean()) < 0.02
        assert abs(z.values.var() - 1.0) < 0.05

    def test_split_streams_independent(self):
        r = Rng(5)
        a = r.split(0).normal(100)
        b = r.split(1).normal(100)
        assert not np.array_equal(a, b)

    def test_split_is_stable(self):
        assert Rng(5).split(3).seed == Rng(5).split(3).seed

    def test_empty_integer_range(self):
        with pytest.raises(ShapeError, match=r"empty integer range \[3, 3\)"):
            Rng(0).integers(3, 3)

    def test_sequential_draws_advance(self):
        r = Rng(11)
        assert not np.array_equal(r.normal(8), r.normal(8))


class TestElementwise:
    def test_axpy_alpha_zero(self):
        x = grid_of(np.ones((1, 1, 1, 2, 2)))
        y = grid_of(np.full((1, 1, 1, 2, 2), 7.0))
        assert np.array_equal(vf.axpy(0.0, x, y).values, y.values)

    def test_axpy_identity(self):
        x = grid_of(np.arange(4.0).reshape(1, 1, 1, 2, 2))
        y = vf.LatentGrid.zeros(x.extent)
        assert np.array_equal(vf.axpy(1.0, x, y).values, x.values)

    def test_axpy_hand_arithmetic(self):
        x = grid_of([[[[[1.0, 2.0]]]]])
        y = grid_of([[[[[3.0, 4.0]]]]])
        assert vf.axpy(2.0, x, y).values.ravel().tolist() == [5.0, 8.0]

    def test_axpy_shape_mismatch(self):
        x = vf.LatentGrid.zeros(Extent5(1, 1, 1, 2, 2))
        y = vf.LatentGrid.zeros(Extent5(1, 1, 1, 2, 3))
        with pytest.raises(ShapeError):
            vf.axpy(1.0, x, y)

    def test_mse_shape_mismatch(self):
        a, b = vf.LatentGrid.zeros(Extent5(1, 1, 1, 2, 2)), vf.LatentGrid.zeros(Extent5(1, 1, 1, 2, 3))
        with pytest.raises(ShapeError, match="extent mismatch"):
            vf.mse(a, b)

    def test_mse_identical(self):
        x = grid_of(np.random.default_rng(0).normal(size=(1, 1, 1, 3, 3)))
        assert vf.mse(x, x) == 0.0

    def test_mse_hand_value(self):
        a = grid_of([[[[[0.0, 0.0]]]]])
        b = grid_of([[[[[2.0, 0.0]]]]])
        assert vf.mse(a, b) == 2.0

    def test_mse_matches_two_pass_oracle(self):
        rng = Rng(21)
        a = vf.sample_gaussian(Extent5(1, 2, 2, 4, 4), rng)
        b = vf.sample_gaussian(Extent5(1, 2, 2, 4, 4), rng)
        assert abs(vf.mse(a, b) - mse_twopass(a.values, b.values)) < 1e-12


class TestInvariants:
    @given(st.floats(-100, 100), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_resize_constant_property(self, value, h_out, w_out):
        g = full(Extent5(1, 1, 1, 4, 5), value)
        out = vf.resize_spatial(g, h_out, w_out)
        assert np.allclose(out.values, value, atol=1e-9 * max(1, abs(value)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ShapeError):
            grid_of(np.full((1, 1, 1, 1, 2), np.nan))

    def test_attributes_cannot_be_assigned(self):
        g = LatentGrid.zeros(Extent5(1, 1, 1, 2, 2))
        with pytest.raises(AttributeError, match="LatentGrid is immutable"):
            g.extent = Extent5(1, 1, 1, 1, 4)

    def test_values_of_another_shape_rejected(self):
        with pytest.raises(ShapeError, match=r"values shape \(1, 1, 1, 2, 3\) != extent \(1, 1, 1, 2, 2\)"):
            LatentGrid(Extent5(1, 1, 1, 2, 2), np.zeros((1, 1, 1, 2, 3)))

    def test_from_array_of_four_axes_rejected(self):
        with pytest.raises(ShapeError, match="expected a 5-axis array, got ndim=4"):
            LatentGrid.from_array(np.zeros((1, 1, 2, 2)))


class TestLgr1:
    def test_round_trip(self, tmp_path):
        g = vf.sample_gaussian(Extent5(2, 3, 4, 5, 6), Rng(17))
        path = tmp_path / "x.lgr"
        vf.write_lgr1(g, path)
        back = vf.read_lgr1(path)
        assert back.extent == g.extent
        assert np.array_equal(back.values, g.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lgr"
        path.write_bytes(b"NOTAGRID" + b"\x00" * 48)
        with pytest.raises(FormatError, match="byte 0"):
            vf.read_lgr1(path)

    def test_truncated_payload(self, tmp_path):
        g = vf.sample_gaussian(Extent5(1, 1, 1, 2, 2), Rng(1))
        path = tmp_path / "t.lgr"
        vf.write_lgr1(g, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="expected"):
            vf.read_lgr1(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("i", [0, 7, 119])
    def test_non_finite_payload_names_its_byte(self, tmp_path, value, i):
        path = tmp_path / "n.lgr"
        vf.write_lgr1(vf.sample_gaussian(Extent5(1, 2, 3, 4, 5), Rng(2)), path)
        data = bytearray(path.read_bytes())
        data[48 + 8 * i : 56 + 8 * i] = np.array([value], "<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=rf"non-finite value .* at byte {48 + 8 * i}$"):
            vf.read_lgr1(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.lgr"
        vf.write_lgr1(vf.LatentGrid.zeros(Extent5(1, 1, 1, 2, 2)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing data at byte 80"):
            vf.read_lgr1(path)

    def test_zero_length_axis_is_a_record_but_not_a_grid(self, tmp_path):
        path = tmp_path / "z.lgr"
        with open(path, "wb") as fh:
            write_record(fh, np.zeros((0, 6)))
        data = path.read_bytes()
        assert len(data) == 48
        axes, values, end = read_record(data, 0, path)
        assert axes == (1, 1, 1, 0, 6) and values.size == 0 and end == 48
        with pytest.raises(FormatError, match="byte 8"):
            vf.read_lgr1(path)
