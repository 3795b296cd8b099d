"""Print a sha256 prefix of every output whose bits a refactor must keep.

Run from the root of a checkout:

    PYTHONPATH=src python tests/bit_digest.py

and compare its output between two trees: identical lines mean identical
bits.  It digests

- forwards of the base model (d=48, 6 heads) and the Refiner (d=12, 2 heads),
  drawn as the benchmark draws them (seed 42, output head at unit scale), at
  the hi, lo and refine shapes of the gen_small and gen_large workloads (both
  refine at 2 * lo, which is their hi, so those lines repeat the hi lines);
- the latents ``vidflow preview`` and ``vidflow refine`` write with these
  models at the gen_small shape, and the latent and recorded config (less
  its two paths) of a base-model ``vidflow preview`` that sets only
  ``checkpoint`` and ``out``, so runs on its defaults;
- the clips' values, in clip order, of a ``vidflow synth`` run of each
  kind;
- the CSVs ``vidflow profile`` writes at its defaults and with
  ``rate=2.5e-14 k_values=[1,7,40]``;
- ``refiner_loss``'s loss and gradients at batch 3 and 9 frames;
- the checkpoint blobs (moments included; the index is not digested) of a
  small straight ``vidflow train`` run and of the same run stopped after
  its first phase and resumed;
- the losses and final parameters of 20 iterations of the acceptance rig
  (10 at 5 frames, then 10 at 9).

A last line prints the cost model's numbers themselves, not a digest: the
exact ``repr`` of the recommended pipeline's per-stage FLOPs and speedup, and
``attention_pair_count`` over a small sweep of windowed stages.

Only long-standing public APIs are used, so the script runs unchanged on
earlier trees.  pytest does not collect it: it asserts nothing by itself.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np

import vidflow as vf
from vidflow import cli
from vidflow.costmodel import StageSpec, attention_pair_count, pipeline_report, recommended_pipeline
from vidflow.denoiser import (
    DenoiserParams,
    ToyCodec,
    forward_velocity,
    refiner_loss,
    save_checkpoint,
    train_refiner,
)

from conftest import RIG_DEG, RIG_SEED, RIG_TRAIN, make_rig_dataset

SEED = 42
CHANNELS = 12
# (batch, hi, lo, frames) of the gen workloads; refine runs at 2 * lo
GEN_SHAPES = {"gen_small": (4, 16, 8, 8), "gen_large": (1, 32, 16, 8)}


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def model(d: int, heads: int, rng: vf.Rng) -> DenoiserParams:
    params = DenoiserParams.init(patch=2, d=d, heads=heads, depth=2, w_t=4,
                                 channels=CHANNELS, cond_dim=4, rng=rng.split(0))
    shape = params.tensors["head.w"].shape
    params.tensors["head.w"] = rng.split(1).normal(shape[0] * shape[1]).reshape(shape) / math.sqrt(d)
    return params


def forwards(models, cond):
    for workload, (batch, hi, lo, frames) in GEN_SHAPES.items():
        for stage, hw in (("hi", hi), ("lo", lo), ("refine", 2 * lo)):
            z = vf.sample_gaussian(vf.Extent5(batch, CHANNELS, frames, hw, hw), vf.Rng(hw))
            for name, params in models.items():
                u = forward_velocity(params, z, 0.6, cond)
                yield f"forward {name} {workload} {stage}", sha(u.values)
    refiner = models["refiner"]
    ext = vf.Extent5(3, CHANNELS, 9, 8, 8)
    src, clean = vf.sample_gaussian(ext, vf.Rng(1)), vf.sample_gaussian(ext, vf.Rng(2))
    loss, grads = refiner_loss(refiner, src, clean, 0.37, cond)
    yield "refiner_loss loss", sha(np.array([loss]))
    yield "refiner_loss grads", sha(*(grads[k] for k in refiner.tensor_shapes()))


def pipeline(models):
    batch, hi, lo, frames = GEN_SHAPES["gen_small"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = {k: os.path.join(tmp, k) for k in ("base", "refiner", "preview", "refined", "default")}
        for name in ("base", "refiner"):
            save_checkpoint(path[name], models[name])
        for argv in (["preview", "--set", f"checkpoint={path['base']}", "--set", f"out={path['preview']}",
                      "--set", "n_total=20", "--set", "k=5", "--set", f"hi=[{hi},{hi}]",
                      "--set", f"lo=[{lo},{lo}]", "--set", f"batch={batch}",
                      "--set", f"frames={frames}", "--set", "seed=7"],
                     ["refine", "--set", f"checkpoint={path['refiner']}", "--set", f"preview={path['preview']}",
                      "--set", f"out={path['refined']}", "--set", "n_steps=10"],
                     ["preview", "--set", f"checkpoint={path['base']}", "--set", f"out={path['default']}"]):
            if cli.main(argv) != 0:
                raise SystemExit(f"vidflow {argv[0]} failed")
        latents = {f"cli {name} gen_small": vf.read_lgr1(path[name]).values for name in ("preview", "refined")}
        latents["cli preview defaults"] = vf.read_lgr1(path["default"]).values
        config = cli.read_manifest(path["default"] + ".manifest")["config"]
    for label, values in latents.items():
        yield label, sha(values)
    del config["checkpoint"], config["out"]  # temporary paths
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
    yield "cli preview defaults config", digest


def synth_clips(path) -> list[np.ndarray]:
    """The clips a ``vidflow synth`` run wrote to ``path``, in order, each of
    batch 1: the batch items of one LGR1 file, or, on earlier trees, the
    files a directory's ``index.txt`` lists."""
    if os.path.isdir(path):
        with open(os.path.join(path, "index.txt")) as fh:
            return [vf.read_lgr1(os.path.join(path, name)).values for name in fh.read().split()]
    values = vf.read_lgr1(path).values
    return [values[i : i + 1] for i in range(len(values))]


def cli_synth():
    clips = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for kind in ("bouncing_rect", "moving_gaussian"):
            data = os.path.join(tmp, f"{kind}.lgr")
            if cli.main(["synth", "--set", f"out={data}", "--set", f"kind={kind}", "--set", "count=3",
                         "--set", "frames=5", "--set", "height=8", "--set", "width=12", "--set", "seed=9"]) != 0:
                raise SystemExit("vidflow synth failed")
            clips += synth_clips(data)
    yield "cli synth", sha(*clips)


def cli_profile():
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = os.path.join(tmp, "profile.csv")
        for argv in ([], ["--set", "rate=2.5e-14", "--set", "k_values=[1,7,40]"]):
            if cli.main(["profile", "--set", f"out={out}", *argv]) != 0:
                raise SystemExit("vidflow profile failed")
            with open(out, "rb") as fh:
                h.update(fh.read())
    yield "cli profile", h.hexdigest()[:16]


def cli_train():
    train = ["--set", "phase1_iters=3", "--set", "phase2_iters=2", "--set", "phase1_frames=3",
             "--set", "phase2_frames=4", "--set", "d=6", "--set", "heads=1", "--set", "lr=0.001"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        data, straight, part, resumed = (os.path.join(tmp, k) for k in ("data", "straight", "part", "resumed"))
        for argv in (["synth", "--set", f"out={data}", "--set", "count=3", "--set", "frames=6",
                      "--set", "height=8", "--set", "width=8"],
                     ["train", "--set", f"dataset={data}", "--set", f"out={straight}", *train],
                     ["train", "--set", f"dataset={data}", "--set", f"out={part}", *train,
                      "--set", "phase2_iters=0"],
                     ["train", "--set", f"dataset={data}", "--set", f"out={resumed}", *train,
                      "--set", f"resume={part}"]):
            if cli.main(argv) != 0:
                raise SystemExit(f"vidflow {argv[0]} failed")
        h = hashlib.sha256()
        for path in (straight, resumed):
            with open(path, "rb") as fh:
                h.update(fh.read())
    yield "cli train", h.hexdigest()[:16]


def rig():
    rng = vf.Rng(RIG_SEED)
    cfg = replace(RIG_TRAIN, phase1_iters=10, phase2_iters=10)
    params, _, losses = train_refiner(make_rig_dataset(rng), ToyCodec(), RIG_DEG, cfg, rng)
    yield "rig losses", sha(np.array(losses))
    yield "rig params", sha(*(params.tensors[k] for k in params.tensor_shapes()))


def costmodel():
    report = pipeline_report(recommended_pipeline())
    pairs = [attention_pair_count(StageSpec("s", 4 * T, 6, 2, 1, attention="windowed", w_t=w_t, token_frames=T))
             for T in (1, 3, 7, 8, 9, 16) for w_t in (2, 4, 6)]
    yield "costmodel", repr((report.stage_flops, report.speedup, pairs))


def main() -> None:
    rng = vf.Rng(SEED)
    models = {"base": model(48, 6, rng.split(1)), "refiner": model(12, 2, rng.split(2))}
    cond = vf.Conditioning((0.3, -0.2, 0.1, 0.5))
    for label, digest in (*forwards(models, cond), *pipeline(models), *cli_synth(), *cli_profile(),
                          *cli_train(), *rig(), *costmodel()):
        print(f"{label:<34} {digest}")


if __name__ == "__main__":
    main()
