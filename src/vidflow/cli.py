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
import ctypes
import functools
import json
import math
import os
import resource
import sys
import time
from dataclasses import MISSING, fields, replace

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
    step_division_curve,
)
from .denoiser import (
    REFINER_ARCH,
    SYNTH_KINDS,
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

# Schema defaults of the path keys: a required one, and an optional one whose
# default is null.  Every required key is a path.
_REQUIRED, _OPTIONAL_PATH = object(), object()

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
        "resume": _OPTIONAL_PATH,
        **{f.name: f.default for f in fields(TrainConfig)},
        **REFINER_ARCH,
        **{f.name: f.default for f in fields(DegradationConfig)},
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
        "frames_dir": _OPTIONAL_PATH,
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
    finite float (an int is accepted), bool, str or a list of ints.  A path
    key takes a non-empty string without NUL (or null, if optional); a
    ``None`` default takes any JSON value."""
    if default is _REQUIRED or default is _OPTIONAL_PATH:
        if val is None:
            return default is _OPTIONAL_PATH
        return isinstance(val, str) and val != "" and "\0" not in val
    if default is None:
        return True
    if isinstance(val, bool) or isinstance(default, bool):
        return isinstance(val, bool) and isinstance(default, bool)
    if isinstance(default, list):
        return isinstance(val, list) and all(type(v) is int for v in val)
    if isinstance(default, float):
        return isinstance(val, (int, float)) and math.isfinite(val)
    return isinstance(val, type(default))


def _require_positive(command: str, cfg: dict, keys) -> None:
    for key in keys:
        if cfg[key] < 1:
            raise ConfigError(f"{command}.{key} must be >= 1, got {cfg[key]}")


def _build(cls, cfg: dict):
    """``cls`` built from the config keys named like its fields."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls)})


def _parse(command: str, config_path, overrides) -> dict:
    """The values a config file section and ``--set`` overrides give, unchecked."""
    values = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise FormatError(f"config file not found: {config_path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if isinstance(raw, dict):
            raw = raw.get(command, raw if set(raw) <= set(_SCHEMAS[command]) else {})
        if not isinstance(raw, dict):
            raise ConfigError(f"config file must hold a JSON object, or one per verb: {config_path}")
        values.update(raw)
    for kv in overrides or []:
        if "=" not in kv:
            raise ConfigError(f"override must look like key=value, got {kv!r}")
        key, _, val = kv.partition("=")
        try:
            values[key] = json.loads(val)
        except json.JSONDecodeError:
            values[key] = val
    return values


def _validated(command: str, values: dict) -> dict:
    """The schema's defaults updated with ``values``, after rejecting unknown
    keys, missing required keys and values of the wrong type."""
    schema = _SCHEMAS[command]
    for key in values:
        if key not in schema:
            raise ConfigError(f"unknown config key {command}.{key}")
    cfg = {k: None if v is _OPTIONAL_PATH else v for k, v in schema.items() if v is not _REQUIRED}
    cfg.update(values)
    missing = [k for k, v in schema.items() if v is _REQUIRED and k not in cfg]
    if missing:
        raise ConfigError(f"missing required config keys for {command}: {missing}")
    for key, val in cfg.items():
        if not _type_ok(val, schema[key]):
            raise ConfigError(f"config key {command}.{key} has the wrong type: {val!r} "
                              f"(default {schema[key]!r})")
    return cfg


def _process_usage() -> dict:
    """Peak resident memory (MB; ``ru_maxrss`` counts KiB on Linux) and minor
    page faults of this process so far: totals since the process started, not
    of one command alone."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"peak_rss_mb": f"{usage.ru_maxrss / 1024.0:.1f}", "minor_faults": usage.ru_minflt}


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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 manifest: {exc}") from None
    for line in lines:
        key, _, val = line.rstrip("\n").partition(" ")
        if key:
            out[key] = val
    if "command" not in out or "config_json" not in out:
        raise FormatError(f"{path}: not a run manifest")
    try:
        out["config"] = json.loads(out["config_json"])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: config_json is not valid JSON: {exc}") from exc
    if not isinstance(out["config"], dict):
        raise FormatError(f"{path}: config_json is not a JSON object")
    return out


def replay_manifest(path, overrides: dict | None = None) -> None:
    """Re-run the command recorded in a manifest (optionally overriding keys,
    e.g. the output path), with the same checks as the command line.  A
    manifest that is not UTF-8, of another version or of a verb that writes
    none is a :class:`FormatError`."""
    m = read_manifest(path)
    command = m["command"]
    if command not in _DISPATCH:
        raise FormatError(f"{path}: command {command!r} cannot be replayed")
    if m.get("version") != __version__:
        raise FormatError(f"{path}: written by vidflow {m.get('version')}, this is {__version__}")
    _DISPATCH[command](_validated(command, {**m["config"], **(overrides or {})}))


# ---------------------------------------------------------------------------
# synth


def cmd_synth(cfg: dict) -> None:
    _require_positive("synth", cfg, ("count", "channels", "frames", "height", "width"))
    if cfg["kind"] not in SYNTH_KINDS:
        raise ConfigError(f"unknown synth.kind {cfg['kind']!r}, expected one of {SYNTH_KINDS}")
    clip_seeds = cfg["clip_seeds"]
    if clip_seeds is not None and not _type_ok(clip_seeds, []):
        raise ConfigError(f"synth.clip_seeds must be null or a list of ints, got {clip_seeds!r}")
    if clip_seeds and len(clip_seeds) != cfg["count"]:
        raise ConfigError(f"clip_seeds has {len(clip_seeds)} entries, count is {cfg['count']}")
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    master = Rng(cfg["seed"])
    extent = Extent5(1, cfg["channels"], cfg["frames"], cfg["height"], cfg["width"])
    clip_seeds = clip_seeds or [master.split(i).seed for i in range(cfg["count"])]
    t0 = time.time()
    names = []
    for i, cseed in enumerate(clip_seeds):
        clip = synth_video(cfg["kind"], extent, Rng(cseed))
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
    if cfg["target"] not in ("base", "refiner"):
        raise ConfigError(f"unknown train target {cfg['target']!r}")
    arch = {k: cfg[k] for k in REFINER_ARCH}
    DenoiserParams(**arch, channels=1)  # the architecture's rules; channels come from the dataset
    tc = _build(TrainConfig, cfg)
    deg = _build(DegradationConfig, cfg)
    out, resume = cfg["out"], cfg["resume"]
    if os.path.exists(out) and not cfg["force"] and not resume:
        raise ConfigError(f"checkpoint {out} exists (pass force=true to overwrite)")
    dataset = load_dataset(cfg["dataset"])
    codec = ToyCodec()
    rng = Rng(cfg["seed"])
    optimizer = None
    start_iter = 0
    if resume:
        params, optimizer, meta = load_checkpoint(resume, train_cfg=tc)
        for key, val in arch.items():
            if getattr(params, key) != val:
                raise ConfigError(f"train.{key} is {val}, the checkpoint {resume} has {getattr(params, key)}")
        if meta.get("target", cfg["target"]) != cfg["target"]:
            raise ConfigError(f"train.target is {cfg['target']!r}, the checkpoint {resume} "
                              f"was trained as {meta['target']!r}")
        try:
            start_iter = int(meta.get("iteration", 0))
        except ValueError:
            raise FormatError(f"{resume}.index: meta iteration must be an integer, "
                              f"got {meta['iteration']!r}") from None
    else:
        params = DenoiserParams.init(**arch, channels=dataset[0].extent.c * 4, rng=rng.split(10**9))

    t0 = time.time()
    n_iters = tc.total_iters - start_iter
    if cfg["target"] == "refiner":
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

    save_checkpoint(out, params, optimizer, meta={"target": cfg["target"], "iteration": tc.total_iters})
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
    base_cfg = _build(PreviewConfig, cfg)
    params, _, _ = load_checkpoint(cfg["checkpoint"])
    for key in ("hi", "lo"):
        if any(v % params.patch for v in cfg[key]):
            raise ConfigError(f"preview.{key} {cfg[key]} not divisible by patch {params.patch}")
    model = ParamVelocityModel(params)
    cond = Conditioning.zeros(params.cond_dim)
    count = cfg["count"]
    t0 = time.time()
    for i in range(count):
        seed = cfg["seed"] if count == 1 else Rng(cfg["seed"]).split(i).seed
        pcfg = replace(base_cfg, seed=seed)
        extent = Extent5(cfg["batch"], params.channels, cfg["frames"], *pcfg.hi)
        res = generate_preview(model, cond, pcfg, extent)
        out = cfg["out"] if count == 1 else _numbered(cfg["out"], i)
        _write_grid(out, res.latent)
        _write_manifest(
            str(out) + ".manifest", "preview", {**cfg, "seed": seed, "count": 1, "out": str(out)},
            {"k": pcfg.k, "n_total": pcfg.n_total,
             "sigma_switch": f"{res.sigma_switch:.12g}",
             "nfe_hi": res.nfe_hi, "nfe_lo": res.nfe_lo,
             "wall_s": f"{time.time() - t0:.3f}", **_process_usage()},
        )
    print(f"preview: wrote {count} latent(s) to {cfg['out']}")


def _numbered(path, i: int) -> str:
    stem, ext = os.path.splitext(str(path))
    return f"{stem}_{i}{ext}"


# ---------------------------------------------------------------------------
# refine


def cmd_refine(cfg: dict) -> None:
    _require_positive("refine", cfg, ("n_steps", "upscale"))
    params, _, _ = load_checkpoint(cfg["checkpoint"])
    preview_lo = read_lgr1(cfg["preview"])
    cond = Conditioning.zeros(params.cond_dim)
    up = cfg["upscale"]
    target_hw = (preview_lo.extent.h * up, preview_lo.extent.w * up)
    n_steps = cfg["n_steps"]
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
         "wall_s": f"{time.time() - t0:.3f}", **_process_usage()},
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


# A stage whose field values give each StageSpec field's type to _type_ok.
_STAGE_TYPES = StageSpec("name", 1, 1, 1, 1)


def _stage_from_dict(d, where: str) -> StageSpec:
    """The StageSpec a config stage object describes: a JSON object whose keys
    are StageSpec fields, with at least the ones that have no default, and
    whose values have the fields' types."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a stage object, got {d!r}")
    spec = {f.name: f for f in fields(StageSpec)}
    unknown = set(d) - set(spec)
    if unknown:
        raise ConfigError(f"{where}: unknown stage keys {sorted(unknown)}")
    missing = [k for k, f in spec.items() if f.default is MISSING and k not in d]
    if missing:
        raise ConfigError(f"{where}: missing stage keys {missing}")
    for key, val in d.items():
        proto = getattr(_STAGE_TYPES, key)
        if not _type_ok(val, proto):
            raise ConfigError(f"{where}.{key} has the wrong type: {val!r} (needs {type(proto).__name__})")
    return StageSpec(**d)


def cmd_profile(cfg: dict) -> None:
    if not cfg["rate"] > 0:
        raise ConfigError(f"profile.rate must be > 0 seconds per FLOP, got {cfg['rate']}")
    if cfg["stages"] is None and cfg["baseline"] is None:
        pipe = recommended_pipeline()
    else:
        if not isinstance(cfg["stages"], list) or not cfg["stages"]:
            raise ConfigError(f"profile.stages must be a non-empty list of stage objects, got {cfg['stages']!r}")
        if cfg["baseline"] is None:
            raise ConfigError("profile config with explicit stages needs a baseline stage")
        stages = tuple(_stage_from_dict(s, f"profile.stages[{i}]") for i, s in enumerate(cfg["stages"]))
        pipe = PipelineSpec(stages=stages, baseline=_stage_from_dict(cfg["baseline"], "profile.baseline"))
    rate = cfg["rate"]
    report = pipeline_report(pipe, rate)

    lines = ["stage,flops,share,ratio_vs_baseline,predicted_s"]
    for name, flops, share, seconds in report.rows():
        lines.append(f"{name},{flops:.6g},{share:.6f},{flops / report.baseline_flops:.6f},{seconds:.6g}")
    lines.append(f"total,{report.total_flops:.6g},1.000000,{report.flops_ratio:.6f},{report.total_time_s:.6g}")

    # FLOPs are linear in steps, so a k-step baseline costs k / steps of it
    steps = pipe.baseline.steps
    r30, r50 = round(steps * 0.3) / steps, round(steps * 0.5) / steps
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
    # a power of two: v / scale is exact and below 2 in magnitude, so the
    # moments of a grid holding values near 1.8e308 do not overflow
    scale = math.ldexp(1.0, int(np.frexp(np.abs(v).max())[1]) - 1)
    print(f"file      {cfg['path']}")
    print(f"extent    b={grid.extent.b} c={grid.extent.c} f={grid.extent.f} "
          f"h={grid.extent.h} w={grid.extent.w}")
    print(f"elements  {grid.extent.count}")
    print(f"min       {v.min():.9g}")
    print(f"max       {v.max():.9g}")
    print(f"mean      {float((v / scale).mean()) * scale:.9g}")
    print(f"std       {float((v / scale).std()) * scale:.9g}")
    print(f"nan_count {int(np.isnan(v).sum())}")


_DISPATCH = {
    "synth": cmd_synth,
    "train": cmd_train,
    "preview": cmd_preview,
    "refine": cmd_refine,
    "profile": cmd_profile,
}


# glibc's mallopt parameter numbers (malloc.h).  32 MiB is the largest mmap
# threshold glibc accepts on 64-bit hosts; at 1 GiB the heap is never trimmed
# at this program's sizes.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20
_TRIM_THRESHOLD = 1 << 30


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed memory in this process's heap, where the C library has
    glibc's ``mallopt``.  With glibc's default thresholds the 0.2-3 MB numpy
    temporaries of each forward were mmapped or trimmed away after it, so a
    base forward (batch 4, 8x16x16 latent, d=48; x86-64) took 7424 minor page
    faults every time; with these, the forwards after the first took none.
    Only the CLI sets this: importing vidflow leaves its host's allocator alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_heap()
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
            cfg = _validated(args.command, _parse(args.command, args.config, args.set))
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
