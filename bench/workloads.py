"""The benchmark's workloads: what one request does and how its outputs are checked.

A request is one closed-loop client operation.  For ``gen_small`` and
``gen_large`` it is ``vidflow preview`` followed by ``vidflow refine``, both
through :func:`vidflow.cli.main`; for ``train_rig`` it is one whole run of the
acceptance training rig, stepped one :func:`vidflow.denoiser.train_refiner`
iteration at a time so each iteration is timed from outside.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from vidflow import cli
from vidflow.costmodel import stage_flops
from vidflow.denoiser import (
    DegradationConfig,
    DenoiserParams,
    ToyCodec,
    TrainConfig,
    save_checkpoint,
    synth_video,
    train_refiner,
)
from vidflow.grids import Extent5, Rng, read_lgr1

from spans import forward_spec

DEFAULT_SEED = 42  # the acceptance rig's seed (RIG_SEED in tests/conftest.py)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Reference tolerances.  Outputs are compared relative to their RMS and losses
# relative to themselves.  A 1e-15 relative perturbation of the weights moves
# the rig's losses by at most 4e-13 after 200 iterations, so reordered float64
# sums pass; a float32 kernel or a wrong mask moves them by far more than this.
OUTPUT_RTOL = 1e-9
LOSS_RTOL = 1e-8
LATENT_CHANNELS = 12


@dataclass(frozen=True)
class GenShape:
    batch: int
    hi: int
    lo: int
    frames: int = 8
    n_total: int = 20
    k: int = 5
    n_steps: int = 10
    upscale: int = 2


@dataclass(frozen=True)
class RigShape:
    clips: int = 32
    clip_frames: int = 12
    phase1_iters: int = 100
    phase2_iters: int = 100


SHAPES = {
    "gen_small": GenShape(batch=4, hi=16, lo=8),
    "gen_large": GenShape(batch=1, hi=32, lo=16),
    "train_rig": RigShape(),
}
SMOKE_SHAPES = {
    "gen_small": GenShape(batch=2, hi=8, lo=4, frames=8, n_total=4, k=1, n_steps=2),
    "gen_large": GenShape(batch=1, hi=12, lo=8, frames=8, n_total=4, k=2, n_steps=2),
    "train_rig": RigShape(clips=3, clip_frames=10, phase1_iters=2, phase2_iters=2),
}

# The rig of tests/conftest.py.
RIG_DEG = DegradationConfig(
    blur_radius=1, blur_strength=0.7, downup_factor=2, latent_noise=0.05, latent_downup_factor=2,
)


def rig_train_config(shape: RigShape) -> TrainConfig:
    return TrainConfig(lr=1e-2, phase1_frames=5, phase1_iters=shape.phase1_iters,
                       phase2_frames=9, phase2_iters=shape.phase2_iters)


def _nospan(name, stage=None):
    return contextlib.nullcontext()


def digest(values: np.ndarray) -> dict:
    """Size, mean, RMS and 64 evenly spaced values of an output tensor."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    idx = np.linspace(0, flat.size - 1, 64).astype(int)
    return {"n": int(flat.size), "mean": float(flat.mean()),
            "rms": float(np.sqrt(np.mean(flat * flat))), "samples": flat[idx].tolist()}


def digest_mismatch(ref: dict, got: dict) -> str | None:
    if ref["n"] != got["n"]:
        return f"size {got['n']} != reference {ref['n']}"
    scale = OUTPUT_RTOL * ref["rms"]
    a = np.array([ref["mean"], ref["rms"], *ref["samples"]])
    b = np.array([got["mean"], got["rms"], *got["samples"]])
    worst = float(np.max(np.abs(a - b)))
    return None if worst <= scale else f"differs from reference by {worst:.3e} (> {scale:.3e})"


def load_reference(key: str):
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(key)


def store_reference(key: str, value) -> None:
    data = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            data = json.load(fh)
    data[key] = value
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# gen_small / gen_large


def _model(d: int, heads: int, rng: Rng) -> DenoiserParams:
    params = DenoiserParams.init(patch=2, d=d, heads=heads, depth=2, w_t=4,
                                 channels=LATENT_CHANNELS, cond_dim=4, rng=rng.split(0))
    # init zeroes the output head, which makes every velocity exactly 0 and
    # the outputs independent of the transformer; draw it at unit output scale.
    shape = params.tensors["head.w"].shape
    params.tensors["head.w"] = rng.split(1).normal(shape[0] * shape[1]).reshape(shape) / math.sqrt(d)
    return params


class GenWorkload:
    """Preview on the base model (d=48, 6 heads), then refine on the refiner
    (d=12, 2 heads); both depth 2, w_t=4, patch 2, 12 latent channels."""

    def __init__(self, name: str, shape: GenShape, seed: int, workdir: str, reference_key: str):
        self.name, self.shape, self.seed, self.dir = name, shape, seed, workdir
        self.reference_key = reference_key
        self.items_per_request = shape.batch
        self.path = {k: os.path.join(workdir, v) for k, v in {
            "base": "base.ckpt", "refiner": "refiner.ckpt", "config": "config.json",
            "preview": "preview.lgr", "refined": "refined.lgr", "frames": "frames"}.items()}

    def setup(self) -> None:
        s = self.shape
        rng = Rng(self.seed)
        os.makedirs(self.dir, exist_ok=True)
        self.base = _model(48, 6, rng.split(1))
        self.refiner = _model(12, 2, rng.split(2))
        save_checkpoint(self.path["base"], self.base)
        save_checkpoint(self.path["refiner"], self.refiner)
        config = {
            "preview": {"checkpoint": self.path["base"], "out": self.path["preview"],
                        "n_total": s.n_total, "k": s.k, "hi": [s.hi, s.hi], "lo": [s.lo, s.lo],
                        "shift": 5.0, "batch": s.batch, "frames": s.frames},
            "refine": {"checkpoint": self.path["refiner"], "preview": self.path["preview"],
                       "out": self.path["refined"], "frames_dir": self.path["frames"],
                       "n_steps": s.n_steps, "upscale": s.upscale},
        }
        with open(self.path["config"], "w") as fh:
            json.dump(config, fh)

    def request(self, i: int, tracer=None) -> dict:
        span = tracer.span if tracer else _nospan
        seed = Rng(self.seed).split(100 + i).seed
        sink = io.StringIO()  # the CLI's progress lines
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            with span("cli.preview"):
                rc1 = cli.main(["preview", "--config", self.path["config"], "--set", f"seed={seed}"])
            t1 = time.perf_counter()
            with span("cli.refine"):
                rc2 = cli.main(["refine", "--config", self.path["config"]])
            t2 = time.perf_counter()
        return {"stage1": t1 - t0, "stage2": t2 - t1, "wall": t2 - t0, "rc": (rc1, rc2)}

    def outputs(self) -> dict:
        return {"preview": digest(read_lgr1(self.path["preview"]).values),
                "refine": digest(read_lgr1(self.path["refined"]).values)}

    def check(self, i: int, result: dict) -> list[str]:
        s = self.shape
        if result["rc"] != (0, 0):
            return [f"exit codes {result['rc']}"]
        problems = []
        for key, hw in (("preview", s.lo), ("refined", s.lo * s.upscale)):
            grid = read_lgr1(self.path[key])
            if grid.extent.as_tuple() != (s.batch, LATENT_CHANNELS, s.frames, hw, hw):
                problems.append(f"{key} extent {grid.extent.as_tuple()}")
            if not np.all(np.isfinite(grid.values)):
                problems.append(f"{key} has non-finite values")
        frames = sorted(f for f in os.listdir(self.path["frames"]) if f.endswith(".ppm"))
        if len(frames) != s.frames:
            problems.append(f"{len(frames)} PPM frames, expected {s.frames}")
        if i == 0 and self.seed == DEFAULT_SEED:
            ref = load_reference(self.reference_key)
            got = self.outputs()
            if ref is None:
                problems.append(f"no reference recorded for {self.reference_key}")
            else:
                for key in ("preview", "refine"):
                    bad = digest_mismatch(ref[key], got[key])
                    if bad:
                        problems.append(f"{key} output {bad}")
        return problems

    def check_trace(self, summary: dict) -> list[str]:
        s = self.shape
        want = {"hi": s.k + 1, "lo": s.n_total - s.k, "refine": s.n_steps}
        problems = [f"counted {summary['nfe'][st]} {st} forwards, expected {n}"
                    for st, n in want.items() if summary["nfe"][st] != n]
        if summary["count"].get("autodiff.backward", 0):
            problems.append("inference called backward")
        return problems

    def stage_specs(self) -> dict:
        """Cost-model spec of one forward on one batch item, per stage."""
        s = self.shape
        e = lambda hw: Extent5(s.batch, LATENT_CHANNELS, s.frames, hw, hw)  # noqa: E731
        return {"hi": forward_spec(self.base, e(s.hi)), "lo": forward_spec(self.base, e(s.lo)),
                "refine": forward_spec(self.refiner, e(s.lo * s.upscale))}

    def fastest(self, results: list[dict]) -> tuple[float, float, float]:
        """(preview, refine, request) seconds of the fastest calls of the run.
        Other tenants of the machine only ever add time, and they come and go
        over tens of seconds."""
        return (min(r["stage1"] for r in results), min(r["stage2"] for r in results),
                min(r["wall"] for r in results))

    def summary_lines(self, results: list[dict], error: str) -> list[str]:
        return [
            _p50_min("preview_s", [r["stage1"] for r in results], "s"),
            _p50_min("refine_s", [r["stage2"] for r in results], "s"),
            _p50_min("videos_per_s", [self.items_per_request / r["wall"] for r in results], "1/s",
                     fastest=max),
            error,
        ]


# ---------------------------------------------------------------------------
# train_rig


class RigWorkload:
    """The 32-clip acceptance rig: RIG_DEG, lr 1e-2, 100 iterations at 5
    frames then 100 at 9, from fresh weights on every request."""

    def __init__(self, name: str, shape: RigShape, seed: int, workdir: str, reference_key: str):
        self.name, self.shape, self.seed = name, shape, seed
        self.reference_key = reference_key
        self.train_cfg = rig_train_config(shape)
        self.items_per_request = self.train_cfg.total_iters
        self.first_losses = None

    def setup(self) -> None:
        rng = Rng(self.seed)
        extent = Extent5(1, 3, self.shape.clip_frames, 16, 16)
        self.dataset = [synth_video("bouncing_rect", extent, rng.split(1000 + i))
                        for i in range(self.shape.clips)]

    def request(self, i: int, tracer=None) -> dict:
        span = tracer.span if tracer else _nospan
        rng = Rng(self.seed)
        codec = ToyCodec()
        params = optimizer = None
        losses, iter_s = [], []
        for it in range(self.train_cfg.total_iters):
            t0 = time.perf_counter()
            with span("train.iteration", stage="train"):
                params, optimizer, loss = train_refiner(
                    self.dataset, codec, RIG_DEG, self.train_cfg, rng,
                    params=params, optimizer=optimizer, start_iter=it, n_iters=1)
            iter_s.append(time.perf_counter() - t0)
            losses += loss
        p1 = self.shape.phase1_iters
        return {"stage1": sum(iter_s[:p1]), "stage2": sum(iter_s[p1:]), "wall": sum(iter_s),
                "iter_s": iter_s, "losses": losses}

    def outputs(self) -> dict:
        return {"losses": self.first_losses}

    def check(self, i: int, result: dict) -> list[str]:
        losses = np.array(result["losses"])
        if losses.size != self.train_cfg.total_iters or not np.all(np.isfinite(losses)):
            return ["losses missing or non-finite"]
        problems = []
        if self.first_losses is None:
            self.first_losses = result["losses"]
        elif not _losses_match(self.first_losses, losses):
            problems.append("loss sequence differs from this run's first rig run")
        if losses.size >= 40:
            # test_07's gate holds for the acceptance rig itself; other seeds'
            # rigs must still learn (measured ratios 0.34-0.59 over seeds 0-10).
            ratio = float(np.mean(losses[-20:]) / np.mean(losses[:20]))
            limit = 0.5 if self.seed == DEFAULT_SEED else 1.0
            if not ratio <= limit:
                problems.append(f"loss ratio {ratio:.3f} > {limit}")
        if self.seed == DEFAULT_SEED:
            ref = load_reference(self.reference_key)
            if ref is None:
                problems.append(f"no reference recorded for {self.reference_key}")
            elif not _losses_match(ref["losses"], losses):
                problems.append("loss sequence differs from the reference")
        return problems

    def check_trace(self, summary: dict) -> list[str]:
        calls = summary["count"].get("autodiff.backward", 0)
        if calls != self.train_cfg.total_iters:
            return [f"{calls} backward calls for {self.train_cfg.total_iters} iterations"]
        return []

    def stage_specs(self) -> dict:
        return {}

    def fastest(self, results: list[dict]) -> tuple[float, float, float]:
        """(phase 1, phase 2, whole run) seconds, each summed over the fastest
        instance of every iteration across the run's rig runs.  An iteration
        takes milliseconds, so each one finds a moment free of interference
        even when no whole rig run does."""
        best = np.min([r["iter_s"] for r in results], axis=0)
        p1 = self.shape.phase1_iters
        return float(best[:p1].sum()), float(best[p1:].sum()), float(best.sum())

    def summary_lines(self, results: list[dict], error: str) -> list[str]:
        iters = [t for r in results for t in r["iter_s"]]
        p90 = float(np.quantile(iters, 0.9)) if len(iters) >= 100 else float("nan")
        return [
            _p50_min("train_iters_per_s", [self.items_per_request / r["wall"] for r in results],
                     "1/s", fastest=max),
            f"train_iter_ms_p90 {1000 * p90:.4f} ms (n={len(iters)} iterations)",
            _p50_min("phase1_s", [r["stage1"] for r in results], "s"),
            _p50_min("phase2_s", [r["stage2"] for r in results], "s"),
            error,
        ]


def _losses_match(ref, got) -> bool:
    ref, got = np.asarray(ref), np.asarray(got)
    return ref.shape == got.shape and bool(np.all(np.abs(ref - got) <= LOSS_RTOL * np.abs(ref)))


def _median(values) -> float:
    return float(np.median(values))


def _p50_min(name: str, values: list[float], unit: str, fastest=min) -> str:
    best = "max" if fastest is max else "min"
    return (f"{name}_p50 {_median(values):.4f} {unit}, {name}_{best} {fastest(values):.4f} {unit} "
            f"(n={len(values)} requests)")


def make_workload(name: str, seed: int, workdir: str, smoke: bool = False):
    shapes = SMOKE_SHAPES if smoke else SHAPES
    if name not in shapes:
        raise KeyError(name)
    cls = RigWorkload if name == "train_rig" else GenWorkload
    return cls(name, shapes[name], seed, workdir, name + ("-smoke" if smoke else ""))


def cost_table(workload, summaries: list[dict]) -> list[str]:
    """Predicted against measured stage shares of the forward work, per
    traced request (medians), with achieved GFLOP/s."""
    specs = workload.stage_specs()
    if not specs or not summaries:
        return []
    b = workload.shape.batch
    lines = [
        "cost model cross-check (medians over traced requests; shares of denoiser forward time)",
        "stage       nfe  GFLOP/fwd  GFLOP/fwd(8nd2)  predicted  predicted(8nd2)  measured  GFLOP/s",
    ]
    nfe = {st: _median([r["nfe"][st] for r in summaries]) for st in specs}
    flops = {st: b * stage_flops(spec) for st, spec in specs.items()}
    # the four d x d projections cost 2 FLOPs per multiply-add like the rest
    fixed = {st: f + b * 4.0 * spec.tokens * spec.dim**2 * spec.depth
             for (st, spec), f in zip(specs.items(), flops.values())}
    total = sum(nfe[st] * flops[st] for st in specs)
    total_fixed = sum(nfe[st] * fixed[st] for st in specs)
    for st, label in (("hi", "preview_hi"), ("lo", "preview_lo"), ("refine", "refine")):
        busy = [sum(f[1] for f in r["forward"] if f[0] == st) for r in summaries]
        share = _median([x / sum(f[1] for f in r["forward"]) for x, r in zip(busy, summaries)])
        rate = nfe[st] * flops[st] / (_median(busy) / 1000.0) / 1e9
        lines.append(
            f"{label:<11} {nfe[st]:>3.0f}  {flops[st] / 1e9:9.4f}  {fixed[st] / 1e9:15.4f}  "
            f"{nfe[st] * flops[st] / total:9.3f}  {nfe[st] * fixed[st] / total_fixed:15.3f}  "
            f"{share:8.3f}  {rate:7.3f}")
    lines.append("note: costmodel.stage_flops counts the four d x d projections as 4*n*d^2 FLOPs; "
                 "they are 8*n*d^2 (2 FLOPs per multiply-add), shown in the (8nd2) columns")
    return lines
