"""Batch command-line frontend.

Verbs: synth | train | preview | refine | profile | inspect.  Every verb
reads a single JSON config file (section per verb) with ``--set key=value``
overrides, rejects unknown keys, and records a plain-text manifest next to
its primary output so any run can be replayed exactly.

Exit codes: 0 success, 2 config error, 3 I/O or format error, 4 contract
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .costmodel import (
    REFERENCE_30PCT,
    REFERENCE_50PCT,
    REFERENCE_BASELINE_PFLOPS,
    REFERENCE_BASELINE_TIME_S,
    REFERENCE_PIPELINE_PFLOPS,
    REFERENCE_STEP_DIVISION,
    PipelineSpec,
    StageSpec,
    affine_fit,
    recommended_pipeline,
    pipeline_report,
    stage_flops,
    step_division_curve,
)
from .denoiser import (
    REFINER_ARCH,
    DegradationConfig,
    DenoiserParams,
    ParamVelocityModel,
    ToyCodec,
    TrainConfig,
    load_checkpoint,
    refine,
    save_checkpoint,
    synth_video,
    train_base,
    train_refiner,
)
from .errors import ConfigError, ContractError, FormatError, ShapeError, VidflowError
from .grids import Extent5, LatentGrid, Rng, read_lgr1, write_lgr1
from .preview import PreviewConfig, generate_preview
from .schedule import Conditioning

_REQUIRED = object()

_SCHEMAS = {
    "synth": {
        "out": _REQUIRED,
        "count": 4,
        "kind": "bouncing_rect",
        "channels": 3,
        "frames": 12,
        "height": 16,
        "width": 16,
        "seed": 0,
        "clip_seeds": None,  # optional explicit per-clip seeds
    },
    "train": {
        "target": "refiner",  # base | refiner
        "dataset": _REQUIRED,
        "out": _REQUIRED,
        "seed": 0,
        "force": False,
        "resume": None,
        "lr": 5e-5,
        "weight_decay": 0.0,
        "phase1_frames": 5,
        "phase1_iters": 100,
        "phase2_frames": 9,
        "phase2_iters": 100,
        **REFINER_ARCH,
        "blur_radius": 1,
        "blur_strength": 0.7,
        "downup_factor": 2,
        "latent_noise": 0.05,
        "latent_downup_factor": 2,
    },
    "preview": {
        "checkpoint": _REQUIRED,
        "out": _REQUIRED,
        "n_total": 40,
        "k": 10,
        "hi": [16, 16],
        "lo": [8, 8],
        "shift": 5.0,
        "seed": 0,
        "count": 1,
        "batch": 1,
        "frames": 8,
    },
    "refine": {
        "checkpoint": _REQUIRED,
        "preview": _REQUIRED,
        "out": _REQUIRED,
        "frames_dir": None,
        "n_steps": 10,
        "upscale": 2,
    },
    "profile": {
        "out": _REQUIRED,
        "rate": 1e-15,
        "k_values": [5, 10, 20, 30, 40],
        "stages": None,  # list of stage dicts; None -> recommended shape
        "baseline": None,
    },
}


def _atomic_write_bytes(path, data: bytes) -> None:
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _atomic_write_text(path, text: str) -> None:
    _atomic_write_bytes(path, text.encode())


def _write_grid(path, grid: LatentGrid) -> None:
    tmp = str(path) + ".tmp"
    write_lgr1(grid, tmp)
    os.replace(tmp, path)


def _type_ok(val, default) -> bool:
    """Whether ``val`` has the type of the schema default it replaces: int,
    float (an int is accepted), bool, str or a list of ints.  A required key
    or a ``None`` default takes any JSON value."""
    if default is _REQUIRED or default is None:
        return True
    if isinstance(val, bool) or isinstance(default, bool):
        return isinstance(val, bool) and isinstance(default, bool)
    if isinstance(default, list):
        return isinstance(val, list) and all(type(v) is int for v in val)
    if isinstance(default, float):
        return isinstance(val, (int, float))
    return isinstance(val, type(default))


def _require_positive(command: str, cfg: dict, keys) -> None:
    for key in keys:
        if cfg[key] < 1:
            raise ConfigError(f"{command}.{key} must be >= 1, got {cfg[key]}")


def _resolve(command: str, config_path, overrides) -> dict:
    schema = _SCHEMAS[command]
    cfg = {k: v for k, v in schema.items() if v is not _REQUIRED}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise FormatError(f"config file not found: {config_path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        section = raw.get(command, raw if set(raw) <= set(schema) else {})
        for key, val in section.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {command}.{key}")
            cfg[key] = val
    for kv in overrides or []:
        if "=" not in kv:
            raise ConfigError(f"override must look like key=value, got {kv!r}")
        key, _, val = kv.partition("=")
        if key not in schema:
            raise ConfigError(f"unknown config key {command}.{key}")
        try:
            cfg[key] = json.loads(val)
        except json.JSONDecodeError:
            cfg[key] = val
    missing = [k for k, v in schema.items() if v is _REQUIRED and k not in cfg]
    if missing:
        raise ConfigError(f"missing required config keys for {command}: {missing}")
    for key, val in cfg.items():
        if not _type_ok(val, schema[key]):
            raise ConfigError(f"config key {command}.{key} has the wrong type: {val!r} "
                              f"(default {schema[key]!r})")
    return cfg


def _write_manifest(path, command: str, cfg: dict, extra: dict) -> None:
    lines = [
        f"command {command}",
        f"version {__version__}",
        f"config_json {json.dumps(cfg, sort_keys=True)}",
    ]
    lines += [f"{k} {v}" for k, v in extra.items()]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, val = line.rstrip("\n").partition(" ")
            if key:
                out[key] = val
    if "command" not in out or "config_json" not in out:
        raise FormatError(f"{path}: not a run manifest")
    try:
        out["config"] = json.loads(out["config_json"])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: config_json is not valid JSON: {exc}") from exc
    return out


def replay_manifest(path, overrides: dict | None = None) -> None:
    """Re-run the command recorded in a manifest (optionally overriding keys,
    e.g. the output path)."""
    m = read_manifest(path)
    cfg = dict(m["config"])
    cfg.update(overrides or {})
    _DISPATCH[m["command"]](cfg)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(cfg: dict) -> None:
    _require_positive("synth", cfg, ("count", "channels", "frames", "height", "width"))
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    master = Rng(int(cfg["seed"]))
    extent = Extent5(1, int(cfg["channels"]), int(cfg["frames"]), int(cfg["height"]), int(cfg["width"]))
    clip_seeds = cfg.get("clip_seeds") or [master.split(i).seed for i in range(int(cfg["count"]))]
    if len(clip_seeds) != int(cfg["count"]):
        raise ConfigError(f"clip_seeds has {len(clip_seeds)} entries, count is {cfg['count']}")
    t0 = time.time()
    names = []
    for i, cseed in enumerate(clip_seeds):
        clip = synth_video(cfg["kind"], extent, Rng(int(cseed)))
        name = f"clip_{i:04d}.lgr"
        _write_grid(os.path.join(out_dir, name), clip)
        names.append(name)
    _atomic_write_text(os.path.join(out_dir, "index.txt"), "\n".join(names) + "\n")
    _write_manifest(
        str(out_dir).rstrip("/") + ".manifest", "synth", cfg,
        {"clips": len(names), "wall_s": f"{time.time() - t0:.3f}"},
    )
    print(f"synth: wrote {len(names)} clips to {out_dir}")


def load_dataset(dataset_dir) -> list[LatentGrid]:
    index = os.path.join(dataset_dir, "index.txt")
    if not os.path.exists(index):
        raise FormatError(f"dataset index not found: {index}")
    with open(index) as fh:
        names = [ln.strip() for ln in fh if ln.strip()]
    if not names:
        raise FormatError(f"dataset index lists no clips: {index}")
    return [read_lgr1(os.path.join(dataset_dir, n)) for n in names]


# ---------------------------------------------------------------------------
# train


def cmd_train(cfg: dict) -> None:
    _require_positive("train", cfg,
                      ("phase1_frames", "phase2_frames", "patch", "d", "heads", "depth", "w_t"))
    out = cfg["out"]
    if os.path.exists(out) and not cfg["force"] and not cfg["resume"]:
        raise ConfigError(f"checkpoint {out} exists (pass force=true to overwrite)")
    dataset = load_dataset(cfg["dataset"])
    codec = ToyCodec()
    tc = TrainConfig(
        lr=float(cfg["lr"]),
        weight_decay=float(cfg["weight_decay"]),
        phase1_frames=int(cfg["phase1_frames"]),
        phase1_iters=int(cfg["phase1_iters"]),
        phase2_frames=int(cfg["phase2_frames"]),
        phase2_iters=int(cfg["phase2_iters"]),
    )
    rng = Rng(int(cfg["seed"]))
    params = optimizer = None
    start_iter = 0
    if cfg["resume"]:
        params, optimizer, meta = load_checkpoint(cfg["resume"], train_cfg=tc)
        start_iter = int(meta.get("iteration", 0))
    elif cfg["target"] in ("base", "refiner"):
        params = DenoiserParams.init(
            **{k: int(cfg[k]) for k in REFINER_ARCH},
            channels=dataset[0].extent.c * 4, rng=rng.split(10**9),
        )
    else:
        raise ConfigError(f"unknown train target {cfg['target']!r}")

    t0 = time.time()
    n_iters = tc.total_iters - start_iter
    if cfg["target"] == "refiner":
        deg = DegradationConfig(
            blur_radius=int(cfg["blur_radius"]),
            blur_strength=float(cfg["blur_strength"]),
            downup_factor=int(cfg["downup_factor"]),
            latent_noise=float(cfg["latent_noise"]),
            latent_downup_factor=int(cfg["latent_downup_factor"]),
        )
        params, optimizer, losses = train_refiner(
            dataset, codec, deg, tc, rng, params=params,
            optimizer=optimizer, start_iter=start_iter, n_iters=n_iters,
        )
    else:
        params, optimizer, losses = train_base(
            dataset, codec, tc, rng, params=params,
            optimizer=optimizer, start_iter=start_iter, n_iters=n_iters,
        )
    wall = time.time() - t0

    save_checkpoint(out, params, optimizer, meta={"iteration": tc.total_iters})
    csv_lines = ["iter,loss,frames,wall_ms"]
    per_iter_ms = 1000.0 * wall / max(len(losses), 1)
    for j, loss in enumerate(losses):
        it = start_iter + j
        csv_lines.append(f"{it},{loss:.10g},{tc.frames_at(it)},{per_iter_ms:.3f}")
    _atomic_write_text(str(out) + ".losses.csv", "\n".join(csv_lines) + "\n")
    _write_manifest(
        str(out) + ".manifest", "train", cfg,
        {"iterations": tc.total_iters, "final_loss": losses[-1] if losses else "nan",
         "wall_s": f"{wall:.3f}"},
    )
    print(f"train[{cfg['target']}]: {len(losses)} iters, final loss "
          f"{losses[-1]:.6g}" if losses else "train: no iterations run")


# ---------------------------------------------------------------------------
# preview


def cmd_preview(cfg: dict) -> None:
    _require_positive("preview", cfg, ("count", "batch", "frames"))
    params, _, _ = load_checkpoint(cfg["checkpoint"])
    for key in ("hi", "lo"):
        if any(int(v) % params.patch for v in cfg[key]):
            raise ConfigError(f"preview.{key} {cfg[key]} not divisible by patch {params.patch}")
    model = ParamVelocityModel(params)
    cond = Conditioning.zeros(params.cond_dim)
    count = int(cfg["count"])
    t0 = time.time()
    for i in range(count):
        seed = int(cfg["seed"]) if count == 1 else Rng(int(cfg["seed"])).split(i).seed
        pcfg = PreviewConfig(
            n_total=int(cfg["n_total"]), k=int(cfg["k"]),
            hi=tuple(cfg["hi"]), lo=tuple(cfg["lo"]),
            shift=float(cfg["shift"]), seed=seed,
        )
        extent = Extent5(int(cfg["batch"]), params.channels, int(cfg["frames"]), *pcfg.hi)
        res = generate_preview(model, cond, pcfg, extent)
        out = cfg["out"] if count == 1 else _numbered(cfg["out"], i)
        _write_grid(out, res.latent)
        _write_manifest(
            str(out) + ".manifest", "preview", {**cfg, "seed": seed, "count": 1, "out": str(out)},
            {"k": pcfg.k, "n_total": pcfg.n_total,
             "sigma_switch": f"{res.sigma_switch:.12g}",
             "nfe_hi": res.nfe_hi, "nfe_lo": res.nfe_lo,
             "wall_s": f"{time.time() - t0:.3f}"},
        )
    print(f"preview: wrote {count} latent(s) to {cfg['out']}")


def _numbered(path, i: int) -> str:
    stem, ext = os.path.splitext(str(path))
    return f"{stem}_{i}{ext}"


# ---------------------------------------------------------------------------
# refine


def cmd_refine(cfg: dict) -> None:
    _require_positive("refine", cfg, ("upscale",))
    params, _, _ = load_checkpoint(cfg["checkpoint"])
    preview_lo = read_lgr1(cfg["preview"])
    cond = Conditioning.zeros(params.cond_dim)
    up = int(cfg["upscale"])
    target_hw = (preview_lo.extent.h * up, preview_lo.extent.w * up)
    n_steps = int(cfg["n_steps"])
    t0 = time.time()
    refined = refine(params, preview_lo, target_hw, n_steps, cond)
    _write_grid(cfg["out"], refined)
    frames_dir = cfg["frames_dir"]
    n_frames = 0
    if frames_dir:
        os.makedirs(frames_dir, exist_ok=True)
        pixels = ToyCodec().decode(refined)
        n_frames = _dump_ppm_frames(pixels, frames_dir)
    _write_manifest(
        str(cfg["out"]) + ".manifest", "refine", cfg,
        {"n_steps": n_steps, "nfe": n_steps, "target_h": target_hw[0],
         "target_w": target_hw[1], "ppm_frames": n_frames,
         "wall_s": f"{time.time() - t0:.3f}"},
    )
    print(f"refine: {n_steps} steps -> {cfg['out']} ({n_frames} PPM frames)")


def _dump_ppm_frames(pixels: LatentGrid, frames_dir) -> int:
    """Write each frame of batch item 0 as binary PPM (P6), 8-bit."""
    e = pixels.extent
    if e.c == 1:
        rgb = np.repeat(pixels.values[0], 3, axis=0)
    elif e.c >= 3:
        rgb = pixels.values[0, :3]
    else:
        raise ContractError(f"cannot map {e.c} channels to RGB")
    quant = np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)
    for fi in range(e.f):
        frame = quant[:, fi].transpose(1, 2, 0)  # (h, w, 3)
        header = f"P6\n{e.w} {e.h}\n255\n".encode()
        _atomic_write_bytes(
            os.path.join(frames_dir, f"frame_{fi:04d}.ppm"), header + frame.tobytes()
        )
    return e.f


# ---------------------------------------------------------------------------
# profile


def _stage_from_dict(d: dict) -> StageSpec:
    known = {"name", "tokens", "dim", "depth", "steps", "heads", "attention",
             "w_t", "token_frames", "step_overhead_s"}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown stage keys {sorted(unknown)}")
    return StageSpec(**d)


def cmd_profile(cfg: dict) -> None:
    if cfg["stages"]:
        stages = tuple(_stage_from_dict(s) for s in cfg["stages"])
        if not cfg["baseline"]:
            raise ConfigError("profile config with explicit stages needs a baseline stage")
        pipe = PipelineSpec(stages=stages, baseline=_stage_from_dict(cfg["baseline"]))
    else:
        pipe = recommended_pipeline()
    rate = float(cfg["rate"])
    report = pipeline_report(pipe, rate)

    lines = ["stage,flops,share,ratio_vs_baseline,predicted_s"]
    for name, flops, share, seconds in report.rows():
        lines.append(f"{name},{flops:.6g},{share:.6f},{flops / report.baseline_flops:.6f},{seconds:.6g}")
    lines.append(f"total,{report.total_flops:.6g},1.000000,{report.flops_ratio:.6f},{report.total_time_s:.6g}")

    from dataclasses import replace as _rep
    b = pipe.baseline
    r30 = stage_flops(_rep(b, steps=int(round(b.steps * 0.3)))) / report.baseline_flops
    r50 = stage_flops(_rep(b, steps=int(round(b.steps * 0.5)))) / report.baseline_flops
    ref30 = REFERENCE_30PCT[0] / REFERENCE_BASELINE_PFLOPS
    ref50 = REFERENCE_50PCT[0] / REFERENCE_BASELINE_PFLOPS
    foot = [
        f"# 30%step flops ratio {r30:.4f} (published {ref30:.4f}, "
        f"time {REFERENCE_30PCT[1] / REFERENCE_BASELINE_TIME_S:.4f})",
        f"# 50%step flops ratio {r50:.4f} (published {ref50:.4f}, "
        f"time {REFERENCE_50PCT[1] / REFERENCE_BASELINE_TIME_S:.4f})",
        f"# pipeline speedup {report.speedup:.2f}x vs baseline (computed from this cost model)",
        f"# published speedup {REFERENCE_BASELINE_PFLOPS / REFERENCE_PIPELINE_PFLOPS:.1f}x "
        f"({REFERENCE_BASELINE_PFLOPS} -> {REFERENCE_PIPELINE_PFLOPS} PFLOPs); "
        "not bit-reproducible here: the baseline's full architecture is not public",
        "# times model DiT forward passes only (decoder excluded)",
    ]

    if len(pipe.stages) >= 2:
        hi, lo = pipe.stages[0], pipe.stages[1]
        ref_stage = pipe.stages[2] if len(pipe.stages) > 2 else None
        curve = step_division_curve(cfg["k_values"], hi, lo, ref_stage, rate)
        foot.append("# step_division k,predicted_s: " + "; ".join(f"{k},{t:.6g}" for k, t in curve))
    slope, intercept, r2 = affine_fit(REFERENCE_STEP_DIVISION)
    foot.append(
        f"# published step-division affine fit: slope {slope:.3f} s/step, "
        f"intercept {intercept:.2f} s, R2 {r2:.5f}"
    )
    _atomic_write_text(cfg["out"], "\n".join(lines + foot) + "\n")
    _write_manifest(str(cfg["out"]) + ".manifest", "profile", cfg, {"stages": len(pipe.stages)})
    print("\n".join(lines + foot))


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(cfg: dict) -> None:
    grid = read_lgr1(cfg["path"])
    v = grid.values
    print(f"file      {cfg['path']}")
    print(f"extent    b={grid.extent.b} c={grid.extent.c} f={grid.extent.f} "
          f"h={grid.extent.h} w={grid.extent.w}")
    print(f"elements  {grid.extent.count}")
    print(f"min       {v.min():.9g}")
    print(f"max       {v.max():.9g}")
    print(f"mean      {v.mean():.9g}")
    print(f"std       {v.std():.9g}")
    print(f"nan_count {int(np.isnan(v).sum())}")


_DISPATCH = {
    "synth": cmd_synth,
    "train": cmd_train,
    "preview": cmd_preview,
    "refine": cmd_refine,
    "profile": cmd_profile,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vidflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")
    pi = sub.add_parser("inspect")
    pi.add_argument("path")
    args = parser.parse_args(argv)

    try:
        if args.command == "inspect":
            cmd_inspect({"path": args.path})
        else:
            cfg = _resolve(args.command, args.config, args.set)
            _DISPATCH[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ContractError, ShapeError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4
    except VidflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
