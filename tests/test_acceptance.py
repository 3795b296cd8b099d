"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line with its measured value and pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import os
import time

import numpy as np
import pytest

import vidflow as vf
from vidflow.cli import main as cli_main
from vidflow.cli import read_manifest, replay_manifest
from vidflow.costmodel import (
    REFERENCE_30PCT,
    REFERENCE_50PCT,
    REFERENCE_BASELINE_PFLOPS,
    REFERENCE_BASELINE_TIME_S,
    REFERENCE_PIPELINE_PFLOPS,
    REFERENCE_STEP_DIVISION,
    affine_fit,
    recommended_pipeline,
    pipeline_report,
    predict_time,
    stage_flops,
    step_division_curve,
)
from vidflow.denoiser import DenoiserParams, backward, forward_velocity, refine
from vidflow.grids import Extent5, Rng
from vidflow.preview import PreviewConfig, generate_preview, reshift_noise
from vidflow.windows import (
    AttentionWeights,
    BlockWeights,
    RoPEConfig,
    WindowSpec,
    swin_block_pair,
    window_attention,
)

from conftest import RIG_WALL_S
from oracles import masked_global_attention_oracle


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_01_window_attention_matches_oracle(self):
        """30 random configurations (T in {4,7,8,12}, w_t in {2,4}, H*W in
        {4,16}, d in {12,24}) vs a dense masked-attention oracle, both shifted
        and unshifted, max |diff| <= 1e-10, < 10 s."""
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        worst = 0.0
        configs = [
            (T, w_t, hw, d)
            for T in (4, 7, 8, 12)
            for w_t in (2, 4)
            for hw in ((2, 2), (4, 4))
            for d in (12, 24)
        ]
        rng.shuffle(configs)
        configs = configs[:30]
        assert len(configs) == 30
        for T, w_t, (H, W), d in configs:
            heads = 2
            x = rng.normal(size=(T, H, W, d))
            spec = WindowSpec(w_t)
            cfg = RoPEConfig.even_split(d)
            weights = AttentionWeights(*(rng.normal(size=(d, d)) * d**-0.5 for _ in range(4)))
            for shifted in (False, True):
                out = window_attention(x, spec, shifted, cfg, weights, heads)
                ref = masked_global_attention_oracle(x, spec, shifted, cfg, weights, heads)
                worst = max(worst, float(np.abs(out - ref).max()))
        wall = time.monotonic() - t0
        report(
            "attention-oracle",
            worst <= 1e-10 and wall < 10.0,
            f"30 configs x (shifted, unshifted), max |diff| {worst:.3e} (tol 1e-10), "
            f"{wall:.2f}s (limit 10s)",
        )

    def test_02_global_temporal_connectivity(self):
        """T=8, w_t=4: a frame-0 perturbation reaches frame 7 within
        ceil(T/w_t) = 2 shifted/unshifted block pairs, but not under a single
        unshifted attention block, < 5 s."""
        t0 = time.monotonic()
        rng = np.random.default_rng(1)
        d = 6
        T = 8
        x = rng.normal(size=(T, 1, 1, d))
        x2 = x.copy()
        # a single-feature bump: uniform shifts would be absorbed by the
        # per-token layer norms inside the blocks
        x2[0, 0, 0, 0] += 1.0
        spec, cfg = WindowSpec(4), RoPEConfig.even_split(d)

        def rand_attn():
            return AttentionWeights(*(rng.normal(size=(d, d)) * d**-0.5 for _ in range(4)))

        def rand_block():
            return BlockWeights(
                attn=rand_attn(),
                w1=rng.normal(size=(d, 4 * d)) * d**-0.5,
                b1=rng.normal(size=(4 * d,)) * 0.1,
                w2=rng.normal(size=(4 * d, d)) * (4 * d) ** -0.5,
                b2=rng.normal(size=(d,)) * 0.1,
            )

        # a single unshifted attention layer: windows [0,4) and [4,8) are
        # independent, so frame 7 must be untouched
        w_single = rand_attn()
        single = np.abs(
            window_attention(x2, spec, False, cfg, w_single, 1)[7]
            - window_attention(x, spec, False, cfg, w_single, 1)[7]
        ).max()

        # ceil(T / w_t) = 2 block pairs: the perturbation must reach frame 7
        pairs = [(rand_block(), rand_block()) for _ in range(T // 4)]
        a, b = x, x2
        for pair in pairs:
            a = swin_block_pair(a, pair, spec, cfg, 1)
            b = swin_block_pair(b, pair, spec, cfg, 1)
        reached = np.abs(b[7] - a[7]).max()
        wall = time.monotonic() - t0
        report(
            "temporal-connectivity",
            single == 0.0 and reached > 1e-8 and wall < 5.0,
            f"single unshifted block influence {single:.3e} (= 0), "
            f"after 2 block pairs {reached:.3e} (> 1e-8), {wall:.2f}s (limit 5s)",
        )

    def test_03_ode_exactness_and_convergence(self):
        """Linear paths integrate exactly; a curved test ODE converges at
        first order (error ratio in [1.8, 2.2] per halved step size), < 5 s."""
        t0 = time.monotonic()
        ext = Extent5(1, 1, 2, 3, 3)
        rng = Rng(2)
        z0 = vf.sample_gaussian(ext, rng)
        eps = vf.sample_gaussian(ext, rng)
        lin = lambda z, s, c: vf.LatentGrid(ext, eps.values - z0.values)
        cond = vf.Conditioning.zeros(1)
        exact_err = max(
            float(np.abs(vf.sample_ode(lin, eps, vf.build_schedule(n, 1.0), cond).values - z0.values).max())
            for n in (1, 5, 20)
        )

        z1 = vf.sample_gaussian(ext, Rng(3))
        curved = lambda z, s, c: z  # dz/dsigma = z -> z1 * e^{-1}
        errs = {}
        for n in (125, 250, 500, 1000):
            out = vf.sample_ode(curved, z1, vf.build_schedule(n, 1.0), cond)
            target = z1.values * np.exp(-1.0)
            errs[n] = float(np.abs(out.values - target).max())
        ratios = [errs[n] / errs[2 * n] for n in (125, 250, 500)]
        wall = time.monotonic() - t0
        ok = exact_err <= 1e-10 and all(1.8 <= r <= 2.2 for r in ratios) and wall < 5.0
        report(
            "ode-integrator",
            ok,
            f"linear-path error {exact_err:.3e} (tol 1e-10), "
            f"convergence ratios {[f'{r:.3f}' for r in ratios]} (range [1.8, 2.2]), "
            f"{wall:.2f}s (limit 5s)",
        )

    def test_04_noise_reshift(self):
        """Reshift is the exact linear combination, hits the requested noise
        level, and the degenerate preview reproduces the plain sampler."""
        ext = Extent5(1, 2, 3, 8, 8)
        clean = vf.sample_gaussian(ext, Rng(4))
        eps = vf.sample_gaussian(ext, Rng(5))
        out = reshift_noise(clean, 0.37, Rng(5))
        lin_err = float(np.abs(out.values - (clean.values + 0.37 * eps.values)).max())

        big = vf.LatentGrid.zeros(Extent5(1, 2, 4, 32, 32))
        sigma_k = 0.8
        sd = float(reshift_noise(big, sigma_k, Rng(6)).values.std())
        sd_ok = abs(sd - sigma_k) <= 0.05 * sigma_k

        # degenerate case: lo == hi and a constant velocity field; replaying
        # the pre-switch state through the reshift equals the plain ODE run
        z0 = vf.sample_gaussian(ext, Rng(7))
        e2 = vf.sample_gaussian(ext, Rng(8))
        u_const = vf.LatentGrid(ext, e2.values - z0.values)
        model = lambda z, s, c: u_const

        class ReplayRng:
            def normal(self, *shape):
                return u_const.values.reshape(shape)

        cfg = PreviewConfig(n_total=7, k=3, hi=(8, 8), lo=(8, 8), shift=2.0, seed=5)
        z1 = vf.sample_gaussian(ext, Rng(9))
        res = generate_preview(model, vf.Conditioning.zeros(1), cfg, ext, z1=z1, reshift_rng=ReplayRng())
        plain = vf.sample_ode(model, z1, vf.build_schedule(cfg.n_total, cfg.shift), vf.Conditioning.zeros(1))
        degen_err = float(np.abs(res.latent.values - plain.values).max())

        report(
            "noise-reshift",
            lin_err <= 1e-15 and sd_ok and degen_err <= 1e-10,
            f"combination error {lin_err:.3e} (tol 1e-15), residual sd {sd:.4f} "
            f"vs sigma_k {sigma_k} (+-5%), degenerate-preview error {degen_err:.3e} (tol 1e-10)",
        )

    def test_05_gradients_match_finite_differences(self):
        """>= 50 sampled parameters of the d=12, depth=2 model, relative
        error <= 1e-4 vs central finite differences, under 60 s."""
        t0 = time.monotonic()
        params = DenoiserParams.init(
            patch=2, d=12, heads=2, depth=2, w_t=2, channels=4, cond_dim=2, rng=Rng(10)
        )
        hw = params.tensors["head.w"]
        params.tensors["head.w"] = 0.05 * Rng(11).normal(hw.size).reshape(hw.shape)
        ext = Extent5(1, 4, 3, 4, 4)
        z = vf.sample_gaussian(ext, Rng(12))
        cond = vf.Conditioning.zeros(2)
        up = vf.sample_gaussian(ext, Rng(13))
        grads = backward(params, z, 0.4, cond, up)

        def scalar(p):
            return float((forward_velocity(p, z, 0.4, cond).values * up.values).sum())

        rng = np.random.default_rng(14)
        names = [n for n in params.tensor_shapes() if n != "cond.w"]  # zero cond -> zero grad
        eps = 1e-6
        worst, checked = 0.0, 0
        while checked < 52:
            name = names[checked % len(names)]
            arr = params.tensors[name]
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            pp = params.copy(); pp.tensors[name][idx] += eps
            pm = params.copy(); pm.tensors[name][idx] -= eps
            num = (scalar(pp) - scalar(pm)) / (2 * eps)
            denom = max(abs(num), abs(grads[name][idx]), 1e-8)
            worst = max(worst, abs(grads[name][idx] - num) / denom)
            checked += 1
        wall = time.monotonic() - t0
        report(
            "tape-gradients",
            worst <= 1e-4 and wall < 60.0,
            f"{checked} parameters, max rel err {worst:.3e} (tol 1e-4), {wall:.1f}s (limit 60s)",
        )

    def test_06_flow_mapping_identity(self):
        """100 random (z_lr, z_hr, t) triples: estimate_clean applied to the
        interpolated state with the regressed velocity z_lr - z_hr recovers
        z_hr to 1e-12."""
        rng = Rng(15)
        ext = Extent5(1, 4, 2, 4, 4)
        worst = 0.0
        for _ in range(100):
            z_hr = vf.sample_gaussian(ext, rng)
            z_lr = vf.sample_gaussian(ext, rng)
            t = 0.001 + 0.998 * float(rng.uniform(1)[0])
            z_t = vf.LatentGrid(ext, (1 - t) * z_hr.values + t * z_lr.values)
            v = vf.LatentGrid(ext, z_lr.values - z_hr.values)
            recovered = vf.estimate_clean(z_t, v, t)
            worst = max(worst, float(np.abs(recovered.values - z_hr.values).max()))
        report(
            "flow-mapping-identity",
            worst <= 1e-12,
            f"100 triples, max |estimate_clean - z_hr| {worst:.3e} (tol 1e-12)",
        )

    def test_07_refiner_training_rig(self, trained_rig):
        """Fixed-seed rig: loss falls to <= 0.5x its start and the refiner
        beats bilinear upsampling on >= 90% of 20 held-out clips, < 15 min."""
        t0 = time.monotonic()
        params, losses, heldout = trained_rig
        early = float(np.mean(losses[:20]))
        late = float(np.mean(losses[-20:]))
        ratio = late / early

        cond = vf.Conditioning.zeros(params.cond_dim)
        wins = 0
        for lo, up, z_hr in heldout:
            refined = refine(params, lo, (8, 8), 4, cond)
            if vf.mse(refined, z_hr) < vf.mse(up, z_hr):
                wins += 1
        wall = (time.monotonic() - t0) + RIG_WALL_S.get("train", 0.0)
        report(
            "training-rig",
            ratio <= 0.5 and wins >= 18 and wall < 900.0,
            f"loss ratio {ratio:.3f} (<= 0.5), held-out wins {wins}/20 (>= 18), "
            f"train + benchmark wall {wall:.1f}s (limit 900s)",
        )

    def test_08_step_fraction_ratios(self):
        """30% / 50% step budgets cost 0.300 / 0.500 of the baseline, in both
        FLOPs and predicted time, +-0.001; matches the published runs."""
        from dataclasses import replace
        base = recommended_pipeline().baseline
        vals = {}
        for frac, steps in ((0.3, 15), (0.5, 25)):
            vals[frac] = (
                stage_flops(replace(base, steps=steps)) / stage_flops(base),
                predict_time(replace(base, steps=steps), 1e-15) / predict_time(base, 1e-15),
            )
        pub = (
            REFERENCE_30PCT[0] / REFERENCE_BASELINE_PFLOPS,
            REFERENCE_30PCT[1] / REFERENCE_BASELINE_TIME_S,
            REFERENCE_50PCT[0] / REFERENCE_BASELINE_PFLOPS,
            REFERENCE_50PCT[1] / REFERENCE_BASELINE_TIME_S,
        )
        ok = (
            abs(vals[0.3][0] - 0.3) <= 0.001 and abs(vals[0.3][1] - 0.3) <= 0.001
            and abs(vals[0.5][0] - 0.5) <= 0.001 and abs(vals[0.5][1] - 0.5) <= 0.001
            and abs(pub[0] - 0.3) <= 0.001 and abs(pub[1] - 0.3) <= 0.001
            and abs(pub[2] - 0.5) <= 0.001 and abs(pub[3] - 0.5) <= 0.001
        )
        report(
            "step-fraction-ratios",
            ok,
            f"model 30% flops/time {vals[0.3][0]:.4f}/{vals[0.3][1]:.4f}, "
            f"50% {vals[0.5][0]:.4f}/{vals[0.5][1]:.4f}; published "
            f"{pub[0]:.4f}/{pub[1]:.4f} and {pub[2]:.4f}/{pub[3]:.4f} (tol 0.001)",
        )

    def test_09_step_division_curve(self):
        """Published turning-point timings fit an affine line (R2 >= 0.99)
        and the model's own curve is affine and increasing in k."""
        slope, intercept, r2 = affine_fit(REFERENCE_STEP_DIVISION)
        pipe = recommended_pipeline()
        curve = step_division_curve(range(1, 41), pipe.stages[0], pipe.stages[1], pipe.stages[2])
        ys = np.array([y for _, y in curve])
        diffs = np.diff(ys)
        affine = bool(np.allclose(diffs, diffs[0], rtol=1e-9))
        increasing = bool(diffs[0] > 0)
        report(
            "step-division-curve",
            r2 >= 0.99 and affine and increasing,
            f"published fit R2 {r2:.5f} (>= 0.99, slope {slope:.2f} s/step), "
            f"model curve affine={affine} increasing={increasing}",
        )

    def test_10_pipeline_speedup(self):
        """The recommended two-stage shape is >= 12x cheaper than its 50-step
        baseline under this cost model."""
        r = pipeline_report(recommended_pipeline())
        published = REFERENCE_BASELINE_PFLOPS / REFERENCE_PIPELINE_PFLOPS
        report(
            "pipeline-speedup",
            r.speedup >= 12.0,
            f"computed {r.speedup:.2f}x (>= 12x); published {published:.1f}x "
            f"({REFERENCE_BASELINE_PFLOPS} -> {REFERENCE_PIPELINE_PFLOPS} PFLOPs) is not "
            "bit-reproducible here because the baseline's full architecture is not public",
        )

    def test_11_end_to_end_replay(self, tmp_path):
        """synth -> train -> preview -> refine via the CLI, then replaying
        each manifest reproduces every LGR1 and PPM byte for byte."""
        data = tmp_path / "data"
        ckpt = tmp_path / "refiner.lgr"
        prev = tmp_path / "prev.lgr"
        refined = tmp_path / "refined.lgr"
        frames = tmp_path / "frames"
        fast = [
            "--set", "phase1_iters=3", "--set", "phase2_iters=2",
            "--set", "phase1_frames=3", "--set", "phase2_frames=4",
            "--set", "d=6", "--set", "heads=1", "--set", "lr=0.001",
        ]
        assert cli_main(["synth", "--set", f"out={data}", "--set", "count=2",
                         "--set", "frames=6", "--set", "height=8", "--set", "width=8"]) == 0
        assert cli_main(["train", "--set", f"dataset={data}", "--set", f"out={ckpt}", *fast]) == 0
        assert cli_main(["preview", "--set", f"checkpoint={ckpt}", "--set", f"out={prev}",
                         "--set", "n_total=6", "--set", "k=2", "--set", "hi=[8,8]",
                         "--set", "lo=[4,4]", "--set", "frames=4"]) == 0
        assert cli_main(["refine", "--set", f"checkpoint={ckpt}", "--set", f"preview={prev}",
                         "--set", f"out={refined}", "--set", f"frames_dir={frames}",
                         "--set", "n_steps=3"]) == 0

        prev2 = tmp_path / "prev_replay.lgr"
        replay_manifest(str(prev) + ".manifest", {"out": str(prev2)})
        prev_ok = prev.read_bytes() == prev2.read_bytes()

        refined2 = tmp_path / "refined_replay.lgr"
        frames2 = tmp_path / "frames_replay"
        replay_manifest(str(refined) + ".manifest", {"out": str(refined2), "frames_dir": str(frames2)})
        ref_ok = refined.read_bytes() == refined2.read_bytes()
        ppm_names = sorted(os.listdir(frames))
        ppm_ok = ppm_names == sorted(os.listdir(frames2)) and all(
            (frames / n).read_bytes() == (frames2 / n).read_bytes() for n in ppm_names
        )
        m = read_manifest(str(prev) + ".manifest")
        manifest_ok = m["command"] == "preview" and "config_json" in m
        report(
            "end-to-end-replay",
            prev_ok and ref_ok and ppm_ok and manifest_ok,
            f"preview bytes equal={prev_ok}, refined bytes equal={ref_ok}, "
            f"{len(ppm_names)} PPM frames equal={ppm_ok}, manifest readable={manifest_ok}",
        )
