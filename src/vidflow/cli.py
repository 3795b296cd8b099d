"""Batch command-line frontend.

Verbs: synth | train | preview | refine | profile | inspect.  Every verb but
``inspect`` reads an optional JSON config file (section per verb) with
``--set key=value`` overrides, rejects unknown keys, and records a plain-text
manifest next to its primary output so any run can be replayed exactly;
``inspect PATH`` takes the path of one LGR1 file and prints its statistics.

Exit codes: 0 success, 2 config error, 3 I/O or format error, 4 contract
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__, denoiser
from .costmodel import (
    REFERENCE_30PCT,
    REFERENCE_50PCT,
    REFERENCE_BASELINE_PFLOPS,
    REFERENCE_BASELINE_TIME_S,
    REFERENCE_PIPELINE_PFLOPS,
    REFERENCE_STEP_DIVISION,
    affine_fit,
    recommended_pipeline,
    pipeline_report,
    step_division_curve,
)
from .denoiser import (
    REFINER_ARCH,
    SYNTH_KINDS,
    AdamW,
    DegradationConfig,
    DenoiserParams,
    ToyCodec,
    TrainConfig,
    _train,
    load_checkpoint,
    refine,
    save_checkpoint,
    synth_video,
)
from .errors import ConfigError, FormatError, VidflowError
from .grids import Extent5, LatentGrid, Rng, check_replaceable, read_lgr1, replaced, write_lgr1
from .preview import Conditioning, CountedModel, PreviewConfig, generate_preview

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
        **{f.name: f.default for f in fields(PreviewConfig)},
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
    },
}


def _atomic_write_bytes(path, data: bytes) -> None:
    with replaced(path) as (tmp,), open(tmp, "wb") as fh:
        fh.write(data)


def _same_file(a, b) -> bool:
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _check_writes(command: str, writes: dict, reads: dict) -> None:
    """Refuse, before the work it would spoil, a run of ``command`` that
    writes the paths of ``writes`` and reads those of ``reads`` (each keyed by
    the config key it comes from, ``out`` among the written): an ``out`` whose
    directory does not exist or a written path that exists and is not a
    regular file (a directory, or a FIFO or device that opening or renaming
    onto would block on or replace), exit 3; two written paths that are one
    path, or a written path that is the same file as a read one, exit 2.
    Every verb's run record, ``<out>.manifest``, and each path's temporary
    (``path + ".tmp"``, see :func:`grids.replaced`) count as written too."""
    parent = os.path.dirname(str(writes["out"])) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"output {writes['out']}: {parent} is not a directory")
    writes = {**writes, "out's manifest": f"{writes['out']}.manifest"}
    written = [(key, p) for key, path in writes.items() for p in (path, f"{path}.tmp")]
    for _, path in written:
        if os.path.isdir(path):
            raise IsADirectoryError(f"output {path} is a directory")
        check_replaceable(path)
    seen = {}
    for key, path in written:
        other = seen.setdefault(os.path.realpath(path), key)
        if other != key:
            raise ConfigError(f"{command}.{key} {path} is {command}.{other}, a path the run also writes")
        for rkey, r in reads.items():
            if _same_file(path, r):
                raise ConfigError(f"{command}.{key} {path} is {command}.{rkey}, an input the run would overwrite")


def _type_ok(val, default) -> bool:
    """Whether ``val``, a JSON value given for a key, has the type of the
    schema default it replaces: int, finite float (an int is accepted), bool,
    str, or a list of ints for a list or tuple default such as
    ``PreviewConfig.hi``.  A path key takes a non-empty string without NUL
    (or null, if optional)."""
    if default is _REQUIRED or default is _OPTIONAL_PATH:
        if val is None:
            return default is _OPTIONAL_PATH
        return isinstance(val, str) and val != "" and "\0" not in val
    if isinstance(val, bool) or isinstance(default, bool):
        return isinstance(val, bool) and isinstance(default, bool)
    if isinstance(default, (list, tuple)):
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
    """The values ``--set`` and ``command``'s section of the config file give,
    unchecked; each key of the file's JSON object is a verb holding an object."""
    values = {}
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise FormatError(f"config file not found: {config_path}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file must hold a JSON object of sections, one per verb: {config_path}")
        for verb, section in raw.items():
            if verb not in _SCHEMAS or not isinstance(section, dict):
                raise ConfigError(f"config file section {verb!r} must be an object named after a verb: "
                                  f"{', '.join(_SCHEMAS)}")
        values.update(raw.get(command, {}))
    for kv in overrides or []:
        if "=" not in kv:
            raise ConfigError(f"override must look like key=value, got {kv!r}")
        key, _, val = kv.partition("=")
        try:
            values[key] = json.loads(val)
        except json.JSONDecodeError:
            values[key] = val
        except RecursionError:
            raise ConfigError(f"override {key} is nested too deeply") from None
    return values


def _validated(command: str, values: dict) -> dict:
    """The schema's defaults updated with ``values``, after rejecting unknown
    keys, given values of the wrong type and missing required keys."""
    schema = _SCHEMAS[command]
    for key, val in values.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {command}.{key}")
        if not _type_ok(val, schema[key]):
            raise ConfigError(f"config key {command}.{key} has the wrong type: {val!r} "
                              f"(default {schema[key]!r})")
    cfg = {k: None if v is _OPTIONAL_PATH else v for k, v in schema.items() if v is not _REQUIRED}
    cfg.update(values)
    missing = [k for k, v in schema.items() if v is _REQUIRED and k not in cfg]
    if missing:
        raise ConfigError(f"missing required config keys for {command}: {missing}")
    return cfg


def _run(command: str, cfg: dict) -> None:
    """Run ``command`` on ``cfg``, then record the run in ``<out>.manifest``:
    the config, the verb's own keys, and last the whole verb's wall seconds
    on a monotonic clock, its CPU seconds over all the process's threads,
    peak resident memory (MB; ``ru_maxrss`` counts KiB on Linux) and minor
    page faults, the last two totals of the whole process so far; then print
    the verb's closing message."""
    t0, c0 = time.perf_counter(), time.process_time()
    extra, message = _DISPATCH[command](cfg)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    lines = [f"command {command}", f"version {__version__}", f"config_json {json.dumps(cfg, sort_keys=True)}",
             *(f"{k} {v}" for k, v in extra.items()),
             f"wall_s {wall:.3f}", f"cpu_s {cpu:.3f}", f"peak_rss_mb {usage.ru_maxrss / 1024.0:.1f}",
             f"minor_faults {usage.ru_minflt}"]
    _atomic_write_bytes(f"{cfg['out']}.manifest", ("\n".join(lines) + "\n").encode())
    print(message)


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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: config_json is not valid JSON: {exc}") from None
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
    _run(command, _validated(command, {**m["config"], **(overrides or {})}))


# ---------------------------------------------------------------------------
# synth


def cmd_synth(cfg: dict) -> tuple[dict, str]:
    _require_positive("synth", cfg, ("count", "channels", "frames", "height", "width"))
    if cfg["kind"] not in SYNTH_KINDS:
        raise ConfigError(f"unknown synth.kind {cfg['kind']!r}, expected one of {SYNTH_KINDS}")
    out, count = cfg["out"], cfg["count"]
    _check_writes("synth", {"out": out}, {})
    master = Rng(cfg["seed"])
    extent = Extent5(1, cfg["channels"], cfg["frames"], cfg["height"], cfg["width"])
    clips = np.empty((count, *extent.as_tuple()[1:]))
    for i in range(count):
        clips[i] = synth_video(cfg["kind"], extent, master.split(i)).values[0]
    write_lgr1(LatentGrid.from_array(clips), out)
    return {"clips": count}, f"synth: wrote {count} clips to {out}"


# ---------------------------------------------------------------------------
# train


def cmd_train(cfg: dict) -> tuple[dict, str]:
    if cfg["target"] not in ("base", "refiner"):
        raise ConfigError(f"unknown train target {cfg['target']!r}")
    arch = {k: cfg[k] for k in REFINER_ARCH}
    DenoiserParams(**arch, channels=1)  # the architecture's rules; channels come from the dataset
    tc = _build(TrainConfig, cfg)
    deg = _build(DegradationConfig, cfg)
    out, resume = cfg["out"], cfg["resume"]
    reads = {"dataset": cfg["dataset"]}
    in_place = resume is not None and _same_file(out, resume)
    if resume is not None and not in_place:
        reads.update({"resume": resume, "resume's index": f"{resume}.index"})
    _check_writes("train", {"out": out, "out's index": f"{out}.index", "out's losses": f"{out}.losses.csv"},
                  reads)
    if os.path.exists(out) and not cfg["force"] and not in_place:
        raise ConfigError(f"checkpoint {out} exists (pass force=true to overwrite)")
    clips = read_lgr1(cfg["dataset"]).values
    dataset = [LatentGrid.from_array(clips[i : i + 1]) for i in range(len(clips))]
    codec = ToyCodec()
    rng = Rng(cfg["seed"])
    optimizer = None
    if resume:
        params, optimizer, meta = load_checkpoint(resume, train_cfg=tc)
        for key, val in arch.items():
            if getattr(params, key) != val:
                raise ConfigError(f"train.{key} is {val}, the checkpoint {resume} has {getattr(params, key)}")
        if meta.get("target", cfg["target"]) != cfg["target"]:
            raise ConfigError(f"train.target is {cfg['target']!r}, the checkpoint {resume} "
                              f"was trained as {meta['target']!r}")
    else:
        params = DenoiserParams.init(**arch, channels=dataset[0].extent.c * 4, rng=rng.split(10**9))
    if optimizer is None:  # a fresh run, or a checkpoint saved without moments
        optimizer = AdamW(params, tc)

    # each row's wall time runs from its iteration's start to its yield
    losses, csv_lines = [], ["iter,loss,frames,wall_ms"]
    t0 = time.perf_counter()
    for it, loss in _train(cfg["target"], dataset, codec, deg, tc, rng, params, optimizer):
        csv_lines.append(f"{it},{loss:.10g},{tc.frames_at(it)},{1000.0 * (time.perf_counter() - t0):.3f}")
        losses.append(loss)
        t0 = time.perf_counter()

    save_checkpoint(out, params, optimizer, meta={"target": cfg["target"]})
    _atomic_write_bytes(f"{out}.losses.csv", ("\n".join(csv_lines) + "\n").encode())
    return ({"iterations": len(losses), "final_loss": losses[-1] if losses else "nan"},
            f"train[{cfg['target']}]: {len(losses)} iters, final loss {losses[-1]:.6g}" if losses
            else "train: no iterations run")


# ---------------------------------------------------------------------------
# preview


def cmd_preview(cfg: dict) -> tuple[dict, str]:
    _require_positive("preview", cfg, ("batch", "frames"))
    pcfg = _build(PreviewConfig, cfg)
    out, ckpt = cfg["out"], cfg["checkpoint"]
    _check_writes("preview", {"out": out}, {"checkpoint": ckpt, "checkpoint's index": f"{ckpt}.index"})
    params, _, _ = load_checkpoint(ckpt)
    for key in ("hi", "lo"):
        if any(v % params.patch for v in cfg[key]):
            raise ConfigError(f"preview.{key} {cfg[key]} not divisible by patch {params.patch}")
    cond = Conditioning.zeros(params.cond_dim)
    extent = Extent5(cfg["batch"], params.channels, cfg["frames"], *pcfg.hi)
    # denoiser.forward_velocity is looked up at each call, so a tracer or
    # counter that replaces it sees every forward
    res = generate_preview(lambda z, s, c: denoiser.forward_velocity(params, z, s, c), cond, pcfg, extent)
    write_lgr1(res.latent, out)
    return ({"sigma_switch": f"{res.sigma_switch:.12g}", "nfe_hi": res.nfe_hi, "nfe_lo": res.nfe_lo},
            f"preview: wrote {out}")


# ---------------------------------------------------------------------------
# refine


def cmd_refine(cfg: dict) -> tuple[dict, str]:
    _require_positive("refine", cfg, ("n_steps", "upscale"))
    out, ckpt, frames_dir = cfg["out"], cfg["checkpoint"], cfg["frames_dir"]
    reads = {"checkpoint": ckpt, "checkpoint's index": f"{ckpt}.index", "preview": cfg["preview"]}
    _check_writes("refine", {"out": out}, reads)
    if frames_dir:
        parent = os.path.dirname(frames_dir.rstrip("/")) or "."
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"refine.frames_dir {frames_dir}: {parent} is not a directory")
        if os.path.exists(frames_dir) and not os.path.isdir(frames_dir):
            raise NotADirectoryError(f"refine.frames_dir {frames_dir} is not a directory")
    params, _, _ = load_checkpoint(ckpt)
    planes = _rgb_planes(params.channels) if frames_dir else None
    preview_lo = read_lgr1(cfg["preview"])
    names = [f"frame_{fi:04d}.ppm" for fi in range(preview_lo.extent.f)] if frames_dir else []
    ppm = {f"frames_dir's {n}": os.path.join(frames_dir, n) for n in names}
    _check_writes("refine", {"out": out, **ppm}, reads)
    cond = Conditioning.zeros(params.cond_dim)
    up = cfg["upscale"]
    target_hw = (preview_lo.extent.h * up, preview_lo.extent.w * up)
    n_steps = cfg["n_steps"]
    # as in cmd_preview, denoiser.forward_velocity is looked up at each call
    model = CountedModel(lambda z, s, c: denoiser.forward_velocity(params, z, s, c))
    refined = refine(params, preview_lo, target_hw, n_steps, cond, model)
    write_lgr1(refined, out)
    if frames_dir:
        if not os.path.isdir(frames_dir):
            os.mkdir(frames_dir)
        _dump_ppm_frames(ToyCodec().decode(refined), planes, ppm.values())
    return ({"nfe": model.calls, "target_h": target_hw[0], "target_w": target_hw[1], "ppm_frames": len(ppm)},
            f"refine: {n_steps} steps -> {out} ({len(ppm)} PPM frames)")


def _rgb_planes(latent_channels: int) -> list[int]:
    """The decoded channels PPM frames show as red, green and blue: one
    channel thrice, or the first three."""
    try:
        c = ToyCodec.pixel_channels(latent_channels)
    except ConfigError as exc:
        raise ConfigError(f"refine.frames_dir: {exc}") from None
    if c == 2:
        raise ConfigError(f"refine.frames_dir: {latent_channels} latent channels decode to 2, "
                          "which PPM frames cannot show as RGB")
    return [0, 0, 0] if c == 1 else [0, 1, 2]


def _dump_ppm_frames(pixels: LatentGrid, planes: list[int], paths) -> None:
    """Write frame ``i`` of batch item 0 to ``paths[i]`` as binary PPM (P6),
    8-bit, ``planes`` as RGB."""
    e = pixels.extent
    quant = np.clip(np.round(pixels.values[0, planes] * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{e.w} {e.h}\n255\n".encode()
    for fi, path in enumerate(paths):
        frame = quant[:, fi].transpose(1, 2, 0)  # (h, w, 3)
        _atomic_write_bytes(path, header + frame.tobytes())


# ---------------------------------------------------------------------------
# profile


def cmd_profile(cfg: dict) -> tuple[dict, str]:
    if not cfg["rate"] > 0:
        raise ConfigError(f"profile.rate must be > 0 seconds per FLOP, got {cfg['rate']}")
    pipe, rate = recommended_pipeline(), cfg["rate"]
    hi, lo, ref = pipe.stages
    try:
        curve = step_division_curve(cfg["k_values"], hi, lo, ref, rate)
    except ConfigError as exc:
        raise ConfigError(f"profile.k_values: {exc}, the step budget of stages "
                          f"{hi.name!r} ({hi.steps}) and {lo.name!r} ({lo.steps})") from None
    out = cfg["out"]
    _check_writes("profile", {"out": out}, {})
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
    slope, intercept, r2 = affine_fit(REFERENCE_STEP_DIVISION)
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
        "# step_division k,predicted_s: " + "; ".join(f"{k},{t:.6g}" for k, t in curve),
        f"# published step-division affine fit: slope {slope:.3f} s/step, "
        f"intercept {intercept:.2f} s, R2 {r2:.5f}",
    ]
    text = "\n".join(lines + foot)
    _atomic_write_bytes(out, (text + "\n").encode())
    return {}, text


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
            _run(args.command, _validated(args.command, _parse(args.command, args.config, args.set)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: a size is too large to allocate ({exc})", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except VidflowError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
