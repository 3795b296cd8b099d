import hashlib

import numpy as np
import pytest

import vidflow as vf
from vidflow.errors import ConfigError, ContractError, ShapeError
from vidflow.denoiser import (
    SYNTH_KINDS,
    AdamW,
    DegradationConfig,
    DenoiserParams,
    ToyCodec,
    TrainConfig,
    backward,
    degrade_pair,
    forward_velocity,
    load_checkpoint,
    refine,
    refiner_loss,
    save_checkpoint,
    synth_video,
    train_refiner,
    _reflect,
)
from vidflow.grids import Extent5, Rng, write_record

from conftest import RIG_DEG, RIG_TRAIN, train_base
from oracles import laplacian_energy


EXT = Extent5(1, 4, 3, 4, 4)

# Loss sequences recorded (float.hex) before the two trainers were folded into
# one loop; the refactor must reproduce them exactly.
BASE_LOSSES_HEX = (
    "0x1.00c5822b11b03p+0",
    "0x1.1197329847578p+0",
    "0x1.eeccfa574676ep-1",
    "0x1.05135e7fd6decp+0",
    "0x1.169f6e7ac7c4cp+0",
    "0x1.08d503b357482p+0",
    "0x1.f7db7916f9a5cp-1",
    "0x1.040bdaf8c6d66p+0",
    "0x1.02a34ebd7c8dap+0",
    "0x1.0a74d7e8fa5ebp+0",
)
RIG_LOSSES_HEAD_HEX = (
    "0x1.7eceafcdeff03p-6",
    "0x1.78859a5c48953p-7",
    "0x1.e366e329f6317p-7",
    "0x1.604958582e281p-6",
    "0x1.66bf0d4559120p-5",
)
RIG_LOSSES_TAIL_HEX = (
    "0x1.a569455fb6010p-8",
    "0x1.8145aa8ed6513p-8",
    "0x1.cac9306db930dp-8",
    "0x1.6fbd15c27fae8p-8",
    "0x1.eb03ef3ee72b8p-8",
)


def small_params(seed=0, d=6, heads=1, depth=2):
    return DenoiserParams.init(
        patch=2, d=d, heads=heads, depth=depth, w_t=2,
        channels=4, cond_dim=2, rng=Rng(seed),
    )


class TestForward:
    def test_extent_preserved(self):
        p = small_params()
        z = vf.sample_gaussian(EXT, Rng(1))
        u = forward_velocity(p, z, 0.5, vf.Conditioning.zeros(2))
        assert u.extent == EXT

    def test_deterministic(self):
        p = small_params()
        z = vf.sample_gaussian(EXT, Rng(2))
        a = forward_velocity(p, z, 0.3, vf.Conditioning.zeros(2))
        b = forward_velocity(p, z, 0.3, vf.Conditioning.zeros(2))
        assert np.array_equal(a.values, b.values)

    def test_sigma_changes_output(self):
        p = small_params()
        # the head starts at zero; give it signal so sigma can reach the output
        hw = p.tensors["head.w"]
        p.tensors["head.w"] = 0.05 * Rng(30).normal(hw.size).reshape(hw.shape)
        z = vf.sample_gaussian(EXT, Rng(3))
        a = forward_velocity(p, z, 0.1, vf.Conditioning.zeros(2))
        b = forward_velocity(p, z, 0.9, vf.Conditioning.zeros(2))
        assert np.any(a.values != b.values)

    def test_bad_conditioning_length(self):
        p = small_params()
        with pytest.raises(ConfigError):
            forward_velocity(p, vf.sample_gaussian(EXT, Rng(0)), 0.5, vf.Conditioning.zeros(3))

    def test_patch_divisibility(self):
        p = small_params()
        z = vf.sample_gaussian(Extent5(1, 4, 2, 3, 4), Rng(0))
        with pytest.raises(ConfigError):
            forward_velocity(p, z, 0.5, vf.Conditioning.zeros(2))

    def test_hyperparameter_validation(self):
        with pytest.raises(ConfigError):
            DenoiserParams(patch=2, d=6, heads=1, depth=3, w_t=2, channels=4, cond_dim=2)
        with pytest.raises(ConfigError):
            DenoiserParams(patch=2, d=8, heads=2, depth=2, w_t=2, channels=4, cond_dim=2)

    def test_sizes_below_one_are_rejected_before_dividing(self):
        with pytest.raises(ConfigError, match="heads must be >= 1"):
            DenoiserParams(patch=2, d=6, heads=0, depth=2, w_t=2, channels=4, cond_dim=2)

    def test_one_block_pair_call_per_item_on_a_4d_field(self, monkeypatch):
        # The benchmark's tracer wraps denoiser.swin_block_pair and unpacks
        # each call's field as (T, H, W, d); batching items into one call
        # would break it, so batching has to wait for spans in the program.
        from vidflow import denoiser

        fields = []
        original = denoiser.swin_block_pair

        def recording(x, *args, **kwargs):
            fields.append(x.shape)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(denoiser, "swin_block_pair", recording)
        p = small_params(depth=4)
        z = vf.sample_gaussian(Extent5(2, 4, 3, 4, 4), Rng(1))
        forward_velocity(p, z, 0.5, vf.Conditioning.zeros(2))
        assert fields == [(3, 2, 2, 6)] * 4  # 2 items x 2 block pairs
        fields.clear()
        backward(p, z, 0.5, vf.Conditioning.zeros(2), z)
        assert fields == [(3, 2, 2, 6)] * 4

    def test_saving_forward_matches_inference(self):
        # Training saves activations on the same forward that inference runs;
        # only window attention differs (whole softmax vs query tiles), by
        # rounding.  Batch 3, 9 frames: every item and the seam runs.
        from vidflow import denoiser

        p = DenoiserParams.init(patch=2, d=12, heads=2, depth=4, w_t=4, channels=4, cond_dim=2, rng=Rng(70))
        r = Rng(71)
        for name, arr in p.tensors.items():
            p.tensors[name] = 0.3 * r.normal(arr.size).reshape(arr.shape)
        z = vf.sample_gaussian(Extent5(3, 4, 9, 4, 4), Rng(72))
        cond = vf.Conditioning((0.5, -1.0))
        saved = []
        trained = denoiser._forward(p, z, 0.4, cond, saved)
        plain = forward_velocity(p, z, 0.4, cond).values
        assert len(saved) == 3 and all(len(item) == 1 + 4 * p.depth + 2 for item in saved)
        rms = np.sqrt(np.mean(plain**2))
        assert np.abs(trained - plain).max() <= 1e-12 * rms


class TestBackward:
    def test_matches_finite_differences(self):
        p = small_params(seed=5)
        # break the zero-initialized head so gradients reach every layer
        r = Rng(6)
        p.tensors["head.w"] = 0.05 * r.normal(p.tensors["head.w"].size).reshape(p.tensors["head.w"].shape)
        z = vf.sample_gaussian(EXT, Rng(7))
        cond = vf.Conditioning.zeros(2)
        up = vf.sample_gaussian(EXT, Rng(8))
        grads = backward(p, z, 0.4, cond, up)

        def scalar(params):
            u = forward_velocity(params, z, 0.4, cond)
            return float((u.values * up.values).sum())

        rng = np.random.default_rng(9)
        eps = 1e-6
        checked = 0
        for name in ("embed.w", "block0.wq", "block1.ffn_w1", "head.w", "sigma.w"):
            arr = p.tensors[name]
            for _ in range(4):
                idx = tuple(rng.integers(0, s) for s in arr.shape)
                pp = p.copy(); pp.tensors[name][idx] += eps
                pm = p.copy(); pm.tensors[name][idx] -= eps
                num = (scalar(pp) - scalar(pm)) / (2 * eps)
                denom = max(abs(num), abs(grads[name][idx]), 1e-8)
                assert abs(grads[name][idx] - num) / denom <= 1e-4
                checked += 1
        assert checked == 20

    def test_batch3_gradients_pinned(self):
        # Recorded when the tape still summed the gradients.  At batch 3 every
        # parameter gradient sums three items' terms, and at 9 frames with
        # w_t=4 the shifted block adds per-run terms from its two seam runs.
        # Float addition of three or more terms depends on their order, so
        # the digests pin it: items 0, 1, 2, and runs in frame order.
        p = DenoiserParams.init(patch=2, d=12, heads=2, depth=2, w_t=4, channels=4, cond_dim=3, rng=Rng(61))
        r = Rng(62)
        for name, arr in p.tensors.items():  # every weight and bias nonzero
            p.tensors[name] = 0.3 * r.normal(arr.size).reshape(arr.shape)
        ext = Extent5(3, 4, 9, 4, 4)
        cond = vf.Conditioning((0.5, -1.0, 0.25))
        z_src, z_clean, up = (vf.sample_gaussian(ext, Rng(s)) for s in (63, 64, 65))

        def digest(grads):
            h = hashlib.sha256()
            for name in p.tensor_shapes():
                h.update(grads[name].tobytes())
            return h.hexdigest()

        loss, grads = refiner_loss(p, z_src, z_clean, 0.37, cond)
        assert loss.hex() == "0x1.7dd531361a856p+1"
        assert digest(grads) == "34c8176517ea6b555d2cf9482625aba15a14a89d7662ad263ea744d34d26580d"
        assert digest(backward(p, z_src, 0.37, cond, up)) == \
            "184b555ea993a490ff795189be85aad843d7e431040c36f3e50a1b4293f739a4"

    def test_upstream_extent_checked(self):
        p = small_params()
        z = vf.sample_gaussian(EXT, Rng(0))
        bad = vf.sample_gaussian(Extent5(1, 4, 2, 4, 4), Rng(0))
        with pytest.raises(ShapeError):
            backward(p, z, 0.5, vf.Conditioning.zeros(2), bad)


class TestCodec:
    def test_round_trip_bit_exact(self):
        codec = ToyCodec()
        px = vf.sample_gaussian(Extent5(2, 3, 2, 6, 8), Rng(11))
        back = codec.decode(codec.encode(px))
        assert np.array_equal(back.values, px.values)

    def test_encode_shape(self):
        codec = ToyCodec()
        z = codec.encode(vf.LatentGrid.zeros(Extent5(1, 3, 2, 8, 8)))
        assert z.extent == Extent5(1, 12, 2, 4, 4)

    def test_block_mean_preserved(self):
        # channel-mean of the 4 phase channels equals the 2x2 block mean
        codec = ToyCodec()
        px = vf.sample_gaussian(Extent5(1, 1, 1, 4, 4), Rng(12))
        z = codec.encode(px)
        block_mean = px.values[0, 0, 0].reshape(2, 2, 2, 2).mean(axis=(1, 3))
        assert np.allclose(z.values[0, :, 0].mean(axis=0), block_mean)

    def test_odd_dims_rejected(self):
        with pytest.raises(ConfigError):
            ToyCodec().encode(vf.LatentGrid.zeros(Extent5(1, 1, 1, 5, 4)))


class TestDegradation:
    def test_clean_side_is_plain_encode(self):
        codec = ToyCodec()
        px = synth_video("bouncing_rect", Extent5(1, 3, 4, 16, 16), Rng(13))
        _, z_hr = degrade_pair(px, codec, RIG_DEG, rng=Rng(14))
        assert np.array_equal(z_hr.values, codec.encode(px).values)

    def test_degraded_loses_high_frequency(self):
        codec = ToyCodec()
        px = synth_video("bouncing_rect", Extent5(1, 3, 4, 16, 16), Rng(15))
        cfg = DegradationConfig(blur_radius=1, blur_strength=0.7, downup_factor=2, latent_noise=0.0)
        z_lr, z_hr = degrade_pair(px, codec, cfg, rng=Rng(16))
        lr_px = codec.decode(z_lr)
        assert laplacian_energy(lr_px.values) < laplacian_energy(px.values)

    def test_latent_noise_moments(self):
        codec = ToyCodec()
        px = vf.LatentGrid.zeros(Extent5(1, 1, 4, 32, 32))
        cfg = DegradationConfig(blur_radius=0, blur_strength=0.0, downup_factor=1, latent_noise=0.2,
                                latent_downup_factor=1)
        z_lr, _ = degrade_pair(px, codec, cfg, rng=Rng(17))
        assert abs(z_lr.values.std() - 0.2) <= 0.01

    def test_latent_factor_beyond_the_latent_is_refused(self):
        """16x16 pixels encode to an 8x8 latent: a factor of 9 would shrink it
        to 0x0, while 3 (to 2x2) and 8 (to 1x1) work."""
        codec = ToyCodec()
        px = synth_video("bouncing_rect", Extent5(1, 3, 2, 16, 16), Rng(13))
        refused = r"latent_downup_factor 9 exceeds the latent's spatial dims \(8, 8\)"
        with pytest.raises(ConfigError, match=refused):
            degrade_pair(px, codec, DegradationConfig(latent_downup_factor=9), rng=Rng(14))
        for factor in (3, 8):
            cfg = DegradationConfig(latent_downup_factor=factor)
            z_lr, z_hr = degrade_pair(px, codec, cfg, rng=Rng(14))
            assert z_lr.extent == z_hr.extent

    @pytest.mark.parametrize("kwargs,named", [
        ({"latent_noise": -0.1}, "degradation scales must be >= 0"),
        ({"downup_factor": 0}, "down-up factors must be >= 1"),
    ], ids=["negative_noise", "zero_factor"])
    def test_config_out_of_range_is_refused(self, kwargs, named):
        with pytest.raises(ConfigError, match=named):
            DegradationConfig(**kwargs)

    def test_pixels_off_the_codec_grid_are_refused(self):
        """6x6 pixels do not split into the codec's 2x2 blocks times the 2x down-up."""
        px = vf.LatentGrid.zeros(Extent5(1, 1, 2, 6, 6))
        with pytest.raises(ConfigError, match=r"spatial dims \(6, 6\) not divisible by codec\*factor 4"):
            degrade_pair(px, ToyCodec(), DegradationConfig(), rng=Rng(14))

    def test_deterministic_given_rng(self):
        codec = ToyCodec()
        px = synth_video("bouncing_rect", Extent5(1, 3, 4, 16, 16), Rng(18))
        a, _ = degrade_pair(px, codec, RIG_DEG, rng=Rng(19))
        b, _ = degrade_pair(px, codec, RIG_DEG, rng=Rng(19))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("shape", [(1, 3, 9, 16, 16), (1, 3, 5, 16, 16), (2, 1, 3, 5, 7), (1, 1, 1, 1, 2)])
    def test_blur_bits_of_the_padded_formula(self, shape, radius):
        """The slice-copied border gives the bits of an ``np.pad`` edge border."""
        from vidflow.denoiser import _box_blur

        v = Rng(radius).normal(int(np.prod(shape))).reshape(shape)
        v[..., 0, :] = -0.0  # signed zeros keep their sign through the border
        r = radius
        padded = np.pad(v, [(0, 0)] * (v.ndim - 2) + [(r, r), (r, r)], mode="edge")
        acc = np.zeros_like(v)
        h, w = v.shape[-2:]
        for dy in range(2 * r + 1):
            for dx in range(2 * r + 1):
                acc += padded[..., dy : dy + h, dx : dx + w]
        assert _box_blur(v, r).tobytes() == (acc / (2 * r + 1) ** 2).tobytes()


def per_frame_synth_video(kind, e, rng):
    """The clips built one frame and one channel at a time: the reference
    that :func:`synth_video`, which covers all frames in one broadcast and
    fills every channel in one product, must match bit for bit."""
    ys = np.arange(e.h)[:, None]
    xs = np.arange(e.w)[None, :]
    out = np.zeros(e.as_tuple())
    for b in range(e.b):
        size = 0.12 * min(e.h, e.w) + 0.1 * min(e.h, e.w) * rng.uniform(1)[0]
        cy0 = size + (e.h - 1 - 2 * size) * rng.uniform(1)[0]
        cx0 = size + (e.w - 1 - 2 * size) * rng.uniform(1)[0]
        vy, vx = 3.0 * (rng.uniform(2) - 0.5)
        colors = 0.3 + 0.7 * rng.uniform(e.c)
        t = np.arange(e.f)
        cy = _reflect(cy0 + vy * t, size, e.h - 1 - size)
        cx = _reflect(cx0 + vx * t, size, e.w - 1 - size)
        for fi in range(e.f):
            if kind == "bouncing_rect":
                cov = np.clip(size + 0.5 - np.abs(ys - cy[fi]), 0, 1) * np.clip(
                    size + 0.5 - np.abs(xs - cx[fi]), 0, 1
                )
            else:
                cov = np.exp(-((ys - cy[fi]) ** 2 + (xs - cx[fi]) ** 2) / (2 * (size / 1.5) ** 2))
            for ci in range(e.c):
                out[b, ci, fi] = colors[ci] * cov
    return np.clip(out, 0.0, 1.0)


class TestSynthVideo:
    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    @pytest.mark.parametrize("shape", [
        (1, 1, 1, 1, 1), (2, 4, 5, 1, 1), (3, 1, 1, 8, 6), (1, 3, 12, 16, 16), (2, 4, 7, 5, 9), (1, 1, 4, 2, 3),
    ], ids=["1x1-plane-one-frame", "1x1-plane", "one-frame", "rig-clip", "odd-plane", "thin-plane"])
    def test_equals_the_per_frame_build_bit_for_bit(self, kind, shape):
        e = Extent5(*shape)
        for seed in range(20):
            got = synth_video(kind, e, Rng(seed)).values
            want = per_frame_synth_video(kind, e, Rng(seed))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed

    def test_range_and_determinism(self):
        a = synth_video("bouncing_rect", Extent5(2, 3, 5, 16, 16), Rng(20))
        b = synth_video("bouncing_rect", Extent5(2, 3, 5, 16, 16), Rng(20))
        assert np.array_equal(a.values, b.values)
        assert a.values.min() >= 0.0 and a.values.max() <= 1.0

    def test_moving_clip_changes_between_frames(self):
        v = synth_video("bouncing_rect", Extent5(1, 1, 4, 16, 16), Rng(22))
        assert np.any(v.values[:, :, 1] != v.values[:, :, 0])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            synth_video("spinning_cube", EXT, Rng(0))

    def test_moving_gaussian_range_and_determinism(self):
        a = synth_video("moving_gaussian", Extent5(2, 3, 5, 16, 16), Rng(25))
        b = synth_video("moving_gaussian", Extent5(2, 3, 5, 16, 16), Rng(25))
        assert np.array_equal(a.values, b.values)
        assert a.values.min() >= 0.0 and a.values.max() <= 1.0
        other = synth_video("moving_gaussian", Extent5(2, 3, 5, 16, 16), Rng(26))
        assert not np.array_equal(a.values, other.values)

    def test_moving_gaussian_peak_moves_between_frames(self):
        v = synth_video("moving_gaussian", Extent5(1, 1, 6, 16, 16), Rng(27)).values[0, 0]
        peaks = [np.unravel_index(np.argmax(frame), frame.shape) for frame in v]
        assert len(set(peaks)) > 1
        # a blob, not a box: the peak falls off smoothly on every side
        y, x = peaks[0]
        assert 0.0 < v[0, y, x - 1] < v[0, y, x] and 0.0 < v[0, y - 1, x] < v[0, y, x]


class TestFlowMapping:
    def test_interpolation_identities(self):
        # the training path: z_t +- the regressed velocity recovers both ends
        rng = Rng(23)
        for _ in range(10):
            z_hr = vf.sample_gaussian(EXT, rng)
            z_lr = vf.sample_gaussian(EXT, rng)
            t = 0.001 + 0.998 * float(rng.uniform(1)[0])
            z_t = (1 - t) * z_hr.values + t * z_lr.values
            v = z_lr.values - z_hr.values
            assert np.abs(z_t - t * v - z_hr.values).max() <= 1e-12
            assert np.abs(z_t + (1 - t) * v - z_lr.values).max() <= 1e-12

    def test_loss_zero_when_model_predicts_target(self):
        # trivially consistent case: identical pair makes the target zero, and
        # zero-initialized head outputs exactly zero
        p = small_params(seed=24)
        z = ToyCodec().encode(synth_video("bouncing_rect", Extent5(1, 1, 2, 8, 8), Rng(24)))
        loss, grads = refiner_loss(p, z, z, 0.5, vf.Conditioning.zeros(2))
        assert loss == 0.0

    def test_t_bounds(self):
        p = small_params()
        z = vf.sample_gaussian(EXT, Rng(0))
        with pytest.raises(ConfigError):
            refiner_loss(p, z, z, 0.0, vf.Conditioning.zeros(2))

    def test_pair_of_two_extents_is_refused(self):
        p = small_params()
        src, clean = vf.LatentGrid.zeros(EXT), vf.LatentGrid.zeros(Extent5(1, 4, 2, 4, 4))
        with pytest.raises(ShapeError, match="extent mismatch"):
            refiner_loss(p, src, clean, 0.5, vf.Conditioning.zeros(2))


class TestAdamW:
    def test_first_step_is_signed_lr(self):
        p = small_params(seed=25)
        cfg = TrainConfig(lr=1e-3)
        opt = AdamW(p, cfg)
        before = {k: v.copy() for k, v in p.tensors.items()}
        grads = {k: np.ones_like(v) for k, v in p.tensors.items()}
        opt.step(p, grads)
        # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
        for k in p.tensors:
            assert np.allclose(before[k] - p.tensors[k], cfg.lr, rtol=1e-6)

    def test_decoupled_weight_decay(self):
        p = small_params(seed=26)
        cfg = TrainConfig(lr=1e-3, weight_decay=0.1)
        opt = AdamW(p, cfg)
        w0 = p.tensors["block0.wq"].copy()
        grads = {k: np.zeros_like(v) for k, v in p.tensors.items()}
        opt.step(p, grads)
        assert np.allclose(p.tensors["block0.wq"], w0 * (1 - cfg.lr * cfg.weight_decay))

    @staticmethod
    def reference_step(cfg, t, tensors, m, v, grads):
        """One step of the per-tensor update, written out."""
        b1, b2 = AdamW.BETA1, AdamW.BETA2
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for k, p in tensors.items():
            g = grads[k]
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            update = (m[k] / bc1) / (np.sqrt(v[k] / bc2) + AdamW.EPS)
            tensors[k] = p - cfg.lr * (update + cfg.weight_decay * p)

    @pytest.mark.parametrize("reassign", [False, True])
    def test_bits_of_the_per_tensor_update(self, reassign):
        """Five steps with weight decay over plain gradient dicts give the
        per-tensor update's bits; so do steps after a tensor is reassigned."""
        p = small_params(seed=27)
        cfg = TrainConfig(lr=3e-2, weight_decay=0.1)
        ref = {k: v.copy() for k, v in p.tensors.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        opt = AdamW(p, cfg)
        rng = Rng(28)
        for t in range(1, 6):
            if reassign and t == 3:
                new = rng.normal(ref["block1.wk"].size).reshape(ref["block1.wk"].shape)
                ref["block1.wk"], p.tensors["block1.wk"] = new, new.copy()
            grads = {k: rng.normal(a.size).reshape(a.shape) for k, a in ref.items()}
            self.reference_step(cfg, t, ref, m, v, grads)
            opt.step(p, grads)
            for want, got in ((ref, p.tensors), (m, opt.m), (v, opt.v)):
                for k in want:
                    assert np.array_equal(want[k], got[k]) and want[k].tobytes() == got[k].tobytes(), (t, k)

    def test_reassigned_tensor_of_the_wrong_shape_is_refused(self):
        p = small_params(seed=30)
        opt = AdamW(p, TrainConfig(lr=1e-3))
        shape = p.tensors["block0.wq"].shape
        p.tensors["block0.wq"] = np.zeros((shape[0] + 1, shape[1]))
        grads = {k: np.zeros_like(v) for k, v in opt.m.items()}
        with pytest.raises(ShapeError, match=r"tensor block0.wq has shape \(7, 6\), the architecture needs \(6, 6\)"):
            opt.step(p, grads)

    def test_gradients_of_two_losses_share_no_memory(self):
        p = small_params(seed=29)
        src, clean = vf.sample_gaussian(EXT, Rng(1)), vf.sample_gaussian(EXT, Rng(2))
        cond = vf.Conditioning.zeros(p.cond_dim)
        _, first = refiner_loss(p, src, clean, 0.3, cond)
        _, second = refiner_loss(p, src, clean, 0.6, cond)
        assert not any(np.shares_memory(a, b) for a in first.values() for b in second.values())


class TestTrainConfig:
    @pytest.mark.parametrize("key,value", [
        ("lr", float("inf")), ("lr", float("nan")), ("lr", -1e-3),
        ("weight_decay", -3.0), ("weight_decay", float("inf")), ("weight_decay", float("nan")),
    ])
    def test_meaningless_optimizer_setting_is_refused(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be a finite number >= 0"):
            TrainConfig(**{key: value})


class TestTraining:
    def test_loss_decreases_on_rig(self, trained_rig):
        _, losses, _ = trained_rig
        early = float(np.mean(losses[:20]))
        late = float(np.mean(losses[-20:]))
        assert late < early

    def test_resume_is_bit_identical(self, tmp_path):
        rng_seed = 31
        dataset = [synth_video("bouncing_rect", Extent5(1, 1, 6, 8, 8), Rng(100 + i)) for i in range(4)]
        cfg = TrainConfig(lr=1e-3, phase1_frames=3, phase1_iters=4, phase2_frames=4, phase2_iters=2)
        deg = DegradationConfig(blur_radius=1, blur_strength=0.5, downup_factor=2, latent_noise=0.05)
        codec = ToyCodec()

        straight, _, _ = train_refiner(dataset, codec, deg, cfg, Rng(rng_seed))

        p1, opt1, _ = train_refiner(dataset, codec, deg, cfg, Rng(rng_seed), n_iters=3)
        ckpt = tmp_path / "ckpt.lgr"
        save_checkpoint(ckpt, p1, opt1)
        p2, opt2, _ = load_checkpoint(ckpt, cfg)
        resumed, _, _ = train_refiner(
            dataset, codec, deg, cfg, Rng(rng_seed),
            params=p2, optimizer=opt2, start_iter=3,
        )
        for k in straight.tensors:
            assert np.array_equal(straight.tensors[k], resumed.tensors[k]), k

    def test_resume_starts_at_the_optimizers_step_count(self, tmp_path):
        """Without ``start_iter`` a resume starts where its checkpointed
        optimizer stopped and ends where a straight run does, bit for bit."""
        dataset = [synth_video("bouncing_rect", Extent5(1, 1, 6, 8, 8), Rng(100 + i)) for i in range(3)]
        cfg = TrainConfig(lr=1e-3, phase1_frames=3, phase1_iters=3, phase2_frames=4, phase2_iters=2)
        codec = ToyCodec()
        straight, _, _ = train_refiner(dataset, codec, RIG_DEG, cfg, Rng(33))
        params, opt, _ = train_refiner(dataset, codec, RIG_DEG, cfg, Rng(33), n_iters=3)
        save_checkpoint(tmp_path / "part.lgr", params, opt)
        params, opt, _ = load_checkpoint(tmp_path / "part.lgr", cfg)
        resumed, opt, losses = train_refiner(dataset, codec, RIG_DEG, cfg, Rng(33), params, opt)
        assert opt.t == cfg.total_iters and len(losses) == 2
        for k in straight.tensors:
            assert np.array_equal(straight.tensors[k], resumed.tensors[k]), k

    def test_resumed_checkpoint_is_byte_identical(self, tmp_path):
        """Save, load and resume gives the checkpoint of a straight run, the
        optimizer's moments included, byte for byte."""
        dataset = [synth_video("bouncing_rect", Extent5(1, 1, 6, 8, 8), Rng(200 + i)) for i in range(3)]
        cfg = TrainConfig(lr=1e-2, weight_decay=0.05, phase1_frames=3, phase1_iters=3,
                          phase2_frames=5, phase2_iters=3)
        codec = ToyCodec()
        params, opt, _ = train_refiner(dataset, codec, RIG_DEG, cfg, Rng(32))
        save_checkpoint(tmp_path / "straight.lgr", params, opt)
        params, opt, _ = train_refiner(dataset, codec, RIG_DEG, cfg, Rng(32), n_iters=4)
        save_checkpoint(tmp_path / "part.lgr", params, opt)
        params, opt, _ = load_checkpoint(tmp_path / "part.lgr", cfg)
        params, opt, _ = train_refiner(dataset, codec, RIG_DEG, cfg, Rng(32), params=params,
                                       optimizer=opt, start_iter=4)
        save_checkpoint(tmp_path / "resumed.lgr", params, opt)
        for suffix in ("lgr", "lgr.index"):
            assert (tmp_path / f"straight.{suffix}").read_bytes() == (tmp_path / f"resumed.{suffix}").read_bytes()

    @pytest.mark.parametrize("start_iter,n_iters", [(0, None), (1, 1), (3, 1), (2, -1)],
                             ids=["from_the_start", "behind_the_optimizer", "ahead_of_the_optimizer",
                                  "past_the_end"])
    def test_start_other_than_the_optimizers_step_count_is_refused(self, monkeypatch, start_iter,
                                                                    n_iters):
        """The optimizer below has taken 2 steps: only ``start_iter=2`` up to
        an end at or after it may run, and a refused start runs nothing."""
        from vidflow import denoiser

        dataset = [synth_video("bouncing_rect", Extent5(1, 1, 6, 8, 8), Rng(300 + i)) for i in range(2)]
        cfg = TrainConfig(lr=1e-3, phase1_frames=3, phase1_iters=2, phase2_frames=4, phase2_iters=2)
        params, opt, _ = train_refiner(dataset, ToyCodec(), RIG_DEG, cfg, Rng(5), n_iters=2)
        assert opt.t == 2
        monkeypatch.setattr(denoiser, "refiner_loss", lambda *args: pytest.fail("an iteration ran"))
        with pytest.raises(ConfigError, match=r"from iteration \d+ to \d+ with an optimizer at step 2"):
            train_refiner(dataset, ToyCodec(), RIG_DEG, cfg, Rng(5), params, opt,
                          start_iter=start_iter, n_iters=n_iters)
        assert opt.t == 2

    def test_progressive_frame_schedule(self):
        cfg = TrainConfig(phase1_frames=5, phase1_iters=10, phase2_frames=9, phase2_iters=10)
        assert cfg.frames_at(0) == 5 and cfg.frames_at(9) == 5
        assert cfg.frames_at(10) == 9 and cfg.frames_at(19) == 9

    def test_loss_sequences_pinned(self, trained_rig):
        rng = Rng(7)
        tiny = [synth_video("bouncing_rect", Extent5(1, 3, 6, 8, 8), rng.split(i)) for i in range(4)]
        cfg = TrainConfig(lr=1e-2, phase1_frames=3, phase1_iters=5, phase2_frames=5, phase2_iters=5)
        p = DenoiserParams.init(
            patch=2, d=12, heads=2, depth=2, w_t=4, channels=12, cond_dim=4, rng=rng.split(99),
        )
        _, _, losses = train_base(tiny, ToyCodec(), cfg, rng, p)
        assert [x.hex() for x in losses] == list(BASE_LOSSES_HEX)

        _, rig, _ = trained_rig
        assert len(rig) == RIG_TRAIN.total_iters
        pinned = [float.fromhex(h) for h in RIG_LOSSES_HEAD_HEX + RIG_LOSSES_TAIL_HEX]
        assert rig[:5] + rig[-5:] == pytest.approx(pinned, rel=1e-12, abs=0)

    def test_clip_shorter_than_schedule_is_refused_before_the_first_iteration(self, monkeypatch):
        from vidflow import denoiser

        calls = []
        original = denoiser.refiner_loss

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(denoiser, "refiner_loss", counting)
        dataset = [synth_video("bouncing_rect", Extent5(1, 1, f, 8, 8), Rng(100 + f)) for f in (6, 4, 6)]
        cfg = TrainConfig(lr=1e-3, phase1_frames=3, phase1_iters=4, phase2_frames=5, phase2_iters=2)
        with pytest.raises(ConfigError, match="iteration 5 needs 5 frames, the shortest clip has 4"):
            train_refiner(dataset, ToyCodec(), RIG_DEG, cfg, Rng(0))
        assert calls == []

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_refiner([], ToyCodec(), RIG_DEG, RIG_TRAIN, Rng(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_stops_training(self):
        rng = Rng(7)
        tiny = [synth_video("bouncing_rect", Extent5(1, 3, 6, 8, 8), rng.split(i)) for i in range(4)]
        cfg = TrainConfig(lr=1e200, phase1_frames=3, phase1_iters=5, phase2_frames=5, phase2_iters=5)
        p = DenoiserParams.init(
            patch=2, d=12, heads=2, depth=2, w_t=4, channels=12, cond_dim=4, rng=rng.split(99),
        )
        with pytest.raises(ContractError, match=r"not finite at iteration 1 \(3 frames\)"):
            train_base(tiny, ToyCodec(), cfg, rng, p)


class TestRefine:
    def test_output_extent_and_determinism(self, trained_rig):
        params, _, heldout = trained_rig
        lo, _, _ = heldout[0]
        cond = vf.Conditioning.zeros(params.cond_dim)
        a = refine(params, lo, (8, 8), 4, cond)
        b = refine(params, lo, (8, 8), 4, cond)
        assert a.extent.h == 8 and a.extent.w == 8
        assert np.array_equal(a.values, b.values)

    def test_step_count_validated(self):
        p = small_params()
        with pytest.raises(ConfigError):
            refine(p, vf.LatentGrid.zeros(EXT), (4, 4), 0, vf.Conditioning.zeros(2))


class TestCheckpoint:
    def test_round_trip_params_and_meta(self, tmp_path):
        p = small_params(seed=33)
        path = tmp_path / "model.lgr"
        save_checkpoint(path, p, meta={"iteration": 7})
        back, opt, meta = load_checkpoint(path)
        assert opt is None
        assert meta["iteration"] == "7"
        assert back.d == p.d and back.depth == p.depth
        for k in p.tensors:
            assert np.array_equal(back.tensors[k], p.tensors[k])

    def test_optimizer_state_round_trip(self, tmp_path):
        p = small_params(seed=34)
        cfg = TrainConfig(lr=1e-3)
        opt = AdamW(p, cfg)
        grads = {k: np.full_like(v, 0.5) for k, v in p.tensors.items()}
        opt.step(p, grads)
        path = tmp_path / "model.lgr"
        save_checkpoint(path, p, opt)
        _, opt2, _ = load_checkpoint(path, cfg)
        assert opt2.t == 1
        for k in opt.m:
            assert np.array_equal(opt.m[k], opt2.m[k])
            assert np.array_equal(opt.v[k], opt2.v[k])

    def test_resume_needs_every_moment_record(self, tmp_path):
        p = small_params(seed=35)
        cfg = TrainConfig(lr=1e-3)
        path = tmp_path / "model.lgr"
        save_checkpoint(path, p, AdamW(p, cfg))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])  # inside the last record, opt.v.head.b
        for train_cfg in (None, cfg):  # every record the index implies is decoded
            with pytest.raises(vf.FormatError, match=r"opt\.v\.head\.b"):
                load_checkpoint(path, train_cfg)

    @pytest.mark.parametrize("cond_dim", [2, 0])
    @pytest.mark.parametrize("with_moments", [False, True])
    def test_round_trip_is_bit_identical(self, tmp_path, cond_dim, with_moments):
        p = DenoiserParams.init(patch=2, d=6, heads=1, depth=2, w_t=2, channels=4, cond_dim=cond_dim,
                                rng=Rng(36))
        cfg = TrainConfig(lr=1e-3)
        opt = None
        if with_moments:
            opt = AdamW(p, cfg)
            rng = Rng(37)
            for _ in range(2):
                opt.step(p, {k: rng.normal(v.size).reshape(v.shape) for k, v in p.tensors.items()})
        path = tmp_path / "model.lgr"
        save_checkpoint(path, p, opt)
        back, opt2, _ = load_checkpoint(path, cfg)
        assert list(back.tensors) == list(p.tensor_shapes())
        pairs = [(p.tensors, back.tensors)]
        if with_moments:
            assert opt2.t == 2
            pairs += [(opt.m, opt2.m), (opt.v, opt2.v)]
        else:
            assert opt2 is None
        for want, got in pairs:
            assert want.keys() == got.keys()
            for k in want:
                assert want[k].shape == got[k].shape
                assert want[k].tobytes() == got[k].tobytes(), k

    def test_records_follow_the_architecture_not_the_dict(self, tmp_path):
        p = small_params(seed=38)
        opt = AdamW(p, TrainConfig(lr=1e-3))
        opt.step(p, {k: np.full_like(v, 0.25) for k, v in p.tensors.items()})
        save_checkpoint(tmp_path / "a.lgr", p, opt)
        p.tensors = dict(reversed(p.tensors.items()))
        opt.m, opt.v = dict(sorted(opt.m.items())), dict(reversed(opt.v.items()))
        save_checkpoint(tmp_path / "b.lgr", p, opt)
        for suffix in ("lgr", "lgr.index"):
            assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()

    def test_index_holds_meta_lines_only(self, tmp_path):
        p = small_params(seed=39)
        path = tmp_path / "model.lgr"
        save_checkpoint(path, p, AdamW(p, TrainConfig()), meta={"iteration": 3})
        index = tmp_path / "model.lgr.index"
        assert index.read_text().splitlines() == [
            "meta patch 2", "meta d 6", "meta heads 1", "meta depth 2", "meta w_t 2",
            "meta channels 4", "meta cond_dim 2", "meta opt_t 0", "meta iteration 3"]
        # an index of the earlier format, with a line per tensor, is refused at its first one
        index.write_text(index.read_text() + "tensor cond.w 0 2,6\ntensor embed.b 144 6\n")
        with pytest.raises(vf.FormatError, match=r"line 10: expected 'meta <key> <value>', "
                                                 r"got 'tensor cond\.w 0 2,6'"):
            load_checkpoint(path)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """A save that fails part way through its records leaves the checkpoint
        it would replace loadable and byte for byte unchanged."""
        from vidflow import denoiser

        p = small_params(seed=40)
        path, index = tmp_path / "model.lgr", tmp_path / "model.lgr.index"
        save_checkpoint(path, p, AdamW(p, TrainConfig()), meta={"iteration": 1})
        before = path.read_bytes(), index.read_bytes()
        written = []

        def failing_write_record(fh, arr):
            if len(written) == 2:
                raise OSError("no space left on device")
            write_record(fh, arr)
            written.append(arr.shape)

        monkeypatch.setattr(denoiser, "write_record", failing_write_record)
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(path, small_params(seed=41), meta={"iteration": 2})
        assert (path.read_bytes(), index.read_bytes()) == before
        back, _, meta = load_checkpoint(path)
        assert meta["iteration"] == "1"
        for k in p.tensors:
            assert np.array_equal(back.tensors[k], p.tensors[k]), k

    def test_failed_save_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        from vidflow import denoiser

        written = []

        def failing_write_record(fh, arr):
            if len(written) == 2:
                fh.write(b"LGRID")  # part of a record, then the disk is full
                raise OSError(28, "No space left on device")
            write_record(fh, arr)
            written.append(arr.shape)

        monkeypatch.setattr(denoiser, "write_record", failing_write_record)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(tmp_path / "model.lgr", small_params(seed=42))
        assert list(tmp_path.iterdir()) == []

    def test_missing_index_is_format_error(self, tmp_path):
        p = small_params()
        path = tmp_path / "model.lgr"
        save_checkpoint(path, p)
        (tmp_path / "model.lgr.index").unlink()
        with pytest.raises(vf.FormatError):
            load_checkpoint(path)
