"""Span recorder that traces vidflow from outside.

The program has no spans of its own yet, so the tracer replaces the
module-level names each layer is called through (``cli.generate_preview``,
``denoiser.forward_velocity``, ``autodiff.Tensor.backward`` ...) with timing
wrappers, and puts the originals back on :meth:`Tracer.restore`.  Nothing is
replaced until :meth:`Tracer.install` is called, so an untraced run executes
the program's own functions only.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager

from vidflow import autodiff, cli, denoiser, preview
from vidflow.costmodel import StageSpec, attention_pair_count, stage_flops


class Span:
    __slots__ = ("name", "stage", "parent", "t0", "t1", "work")

    def __init__(self, name, stage, parent, t0):
        self.name = name
        self.stage = stage
        self.parent = parent
        self.t0 = t0
        self.t1 = t0
        self.work = 0.0

    @property
    def ms(self) -> float:
        return 1000.0 * (self.t1 - self.t0)


def forward_spec(params, extent) -> StageSpec:
    """Cost-model description of one denoiser forward on one batch item."""
    p = params.patch
    return StageSpec(
        "forward", extent.f * (extent.h // p) * (extent.w // p), params.d, params.depth,
        steps=1, heads=params.heads, attention="windowed", w_t=params.w_t,
        token_frames=extent.f,
    )


def _forward_flops(args, kwargs, result):
    params, z = args[0], args[1]
    return z.extent.b * stage_flops(forward_spec(params, z.extent))


def _block_pair_pairs(args, kwargs, result):
    x, spec = args[0], args[2]
    T, H, W, d = x.shape
    one = StageSpec("pair", T * H * W, d, 1, 1, attention="windowed", w_t=spec.w_t, token_frames=T)
    return 2 * attention_pair_count(one)  # an unshifted and a shifted block


def _grid_bytes(grid) -> int:
    return 48 + 8 * grid.extent.count  # LGR1 header + float64 payload


def _ckpt_bytes(args, kwargs, result):
    path = str(args[0])
    return os.path.getsize(path) + os.path.getsize(path + ".index")


# (owner, attribute, span name, work counter).  Each owner is the module (or
# class) whose global the caller looks up, so replacing it reroutes the call.
TARGETS = (
    (cli, "load_checkpoint", "cli.ckpt_load", _ckpt_bytes),
    (cli, "read_lgr1", "grids.lgr1_read", lambda a, k, r: _grid_bytes(r)),
    (cli, "write_lgr1", "grids.lgr1_write", lambda a, k, r: _grid_bytes(a[0])),
    (cli, "_atomic_write_bytes", "cli.write", lambda a, k, r: len(a[1])),
    (cli, "generate_preview", "preview.generate", None),
    (cli, "refine", "denoiser.refine", None),
    (preview, "sample_gaussian", "grids.gaussian", None),
    (preview, "resize_spatial", "grids.resize", None),
    (preview, "euler_step", "schedule.euler", None),
    (preview, "estimate_clean", "schedule.estimate_clean", None),
    (preview, "reshift_noise", "preview.reshift", None),
    (denoiser, "forward_velocity", "denoiser.forward", _forward_flops),
    (denoiser, "swin_block_pair", "windows.block_pair", _block_pair_pairs),
    (denoiser, "resize_spatial", "grids.resize", None),
    (denoiser, "sample_gaussian", "grids.gaussian", None),
    (denoiser, "_clip_window", "denoiser.clip_window", None),
    (denoiser, "degrade_pair", "denoiser.degrade_pair", None),
    (denoiser, "refiner_loss", "denoiser.loss", None),
    (denoiser.AdamW, "step", "denoiser.adamw", None),
    (autodiff.Tensor, "backward", "autodiff.backward", None),
)

# Stage of the pipeline that later spans belong to, switched as these spans
# open or close.  The turning-point forward runs at high resolution, so the
# preview counts as "hi" until the reshifted noise exists.
STAGE_ON_OPEN = {"preview.generate": "hi", "denoiser.refine": "refine"}
STAGE_ON_CLOSE = {"preview.reshift": "lo", "preview.generate": None, "denoiser.refine": None}


def snapshot() -> dict[str, object]:
    """The object each traced name is bound to right now, by qualified name."""
    return {f"{o.__name__}.{a}": vars(o)[a] for o, a, _, _ in TARGETS}


ORIGINALS = snapshot()  # the program's own functions, before any tracer


def replaced() -> list[str]:
    """Traced names that are not bound to the program's own function."""
    return sorted(k for k, v in snapshot().items() if v is not ORIGINALS[k])


class Tracer:
    """In-memory spans for the requests of one run, in the order they opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stage = None
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _push(self, name) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.stage, parent, time.perf_counter()))
        idx = len(self.spans) - 1
        self._open.append(idx)
        if name in STAGE_ON_OPEN:
            self.stage = STAGE_ON_OPEN[name]
        return idx

    def _pop(self, idx: int) -> None:
        span = self.spans[idx]
        span.t1 = time.perf_counter()
        self._open.pop()
        if span.name in STAGE_ON_CLOSE:
            self.stage = STAGE_ON_CLOSE[span.name]

    @contextmanager
    def span(self, name, stage=None):
        """A span opened by the benchmark itself around a call into the program."""
        if stage is not None:
            self.stage = stage
        idx = self._push(name)
        try:
            yield self.spans[idx]
        finally:
            self._pop(idx)
            if stage is not None:
                self.stage = None

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, work in TARGETS:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrapper(original, name, work))
            self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name, work):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._push(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._pop(idx)
            if work is not None:
                tracer.spans[idx].work = float(work(args, kwargs, result))
            return result

        return traced


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER_UNITS = {
    "windows.block_pair_ms.hi": "ms",
    "windows.block_pair_ms.lo": "ms",
    "windows.block_pair_ms.refine": "ms",
    "windows.block_pair_ms.train": "ms",
    "windows.share": "share",
    "windows.attn_pairs": "count",
    "denoiser.fwd_ms.hi": "ms",
    "denoiser.fwd_ms.lo": "ms",
    "denoiser.fwd_ms.refine": "ms",
    "denoiser.fwd_gflops.hi": "GFLOP/s",
    "denoiser.fwd_gflops.lo": "GFLOP/s",
    "denoiser.fwd_gflops.refine": "GFLOP/s",
    "denoiser.fwd_self_ms": "ms",
    "denoiser.train.data_ms": "ms",
    "denoiser.train.loss_ms": "ms",
    "denoiser.train.adamw_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.backward_share": "share",
    "autodiff.backward_calls": "count",
    "preview.hi_ms": "ms",
    "preview.turn_ms": "ms",
    "preview.lo_ms": "ms",
    "preview.nfe_hi": "count",
    "preview.nfe_lo": "count",
    "schedule.euler_ms": "ms",
    "grids.resize_ms": "ms",
    "grids.gaussian_ms": "ms",
    "grids.lgr1_read_ms": "ms",
    "grids.lgr1_write_ms": "ms",
    "cli.preview_self_ms": "ms",
    "cli.refine_self_ms": "ms",
    "cli.ckpt_load_ms": "ms",
    "cli.io_ms": "ms",
    "cli.io_bytes": "bytes",
    "costmodel.share_err.preview_hi": "share",
    "costmodel.share_err.preview_lo": "share",
    "costmodel.share_err.refine": "share",
    "trace.overhead": "share",
    "trace.span_coverage": "share",
}

_IO = ("grids.lgr1_read", "grids.lgr1_write", "cli.write")
_COST_STAGES = {"hi": "preview_hi", "lo": "preview_lo", "refine": "refine"}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _self_ms(spans, kids, idx) -> float:
    return spans[idx].ms - sum(spans[k].ms for k in kids[idx])


def _preview_phases(spans, kids, idx):
    """(hi, turn, lo) ms of one generate_preview span, split where the
    turning-point forward starts and where the reshifted noise is ready."""
    children = [spans[k] for k in kids[idx]]
    names = [c.name for c in children]
    e = names.index("schedule.estimate_clean")
    turn = max(i for i in range(e) if names[i] == "denoiser.forward")
    r = names.index("preview.reshift")
    gen = spans[idx]
    t_turn, t_lo = children[turn].t0, children[r].t1
    return tuple(1000.0 * x for x in (t_turn - gen.t0, t_lo - t_turn, gen.t1 - t_lo))


def request_summaries(tracer: Tracer) -> list[dict]:
    """One dict per "request" span, in order: span time and work totals by
    name, the split of the preview, and the spans reported per call."""
    spans = tracer.spans
    kids: dict[int, list[int]] = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    roots = [i for i, s in enumerate(spans) if s.name == "request"]
    out = []
    for root, end in zip(roots, roots[1:] + [len(spans)]):
        s = spans[root]
        members = range(root + 1, end)  # requests run one at a time
        ms, work, count = {}, {}, {}
        for i in members:
            m = spans[i]
            ms[m.name] = ms.get(m.name, 0.0) + m.ms
            work[m.name] = work.get(m.name, 0.0) + m.work
            count[m.name] = count.get(m.name, 0) + 1
        fwd = [spans[i] for i in members if spans[i].name == "denoiser.forward"]
        summary = {
            "wall_ms": s.ms,
            "top_ms": sum(spans[k].ms for k in kids[root]),
            "ms": ms, "work": work, "count": count,
            "self_ms": {n: sum(_self_ms(spans, kids, i) for i in members if spans[i].name == n)
                        for n in ("cli.preview", "cli.refine")},
            "phases": [_preview_phases(spans, kids, i) for i in members
                       if spans[i].name == "preview.generate"],
            "forward": [(f.stage, f.ms, f.work) for f in fwd],
            "forward_self_ms": [_self_ms(spans, kids, i) for i in members
                                if spans[i].name == "denoiser.forward"],
            "block_pair": [(spans[i].stage, spans[i].ms) for i in members
                           if spans[i].name == "windows.block_pair"],
            "nfe": {st: sum(1 for f in fwd if f.stage == st) for st in ("hi", "lo", "refine")},
        }
        out.append(summary)
    return out


def layer_metrics(summaries: list[dict], untraced_wall_ms: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced requests; medians across requests
    unless the name says otherwise.  Layers a workload never reaches read 0."""
    def per_request(fn):
        return _median([fn(r) for r in summaries])

    def tot(r, *names):
        return sum(r["ms"].get(n, 0.0) for n in names)

    def per_iter(r, *names):
        iters = r["count"].get("train.iteration", 0)
        return tot(r, *names) / iters if iters else 0.0

    wall = sum(r["wall_ms"] for r in summaries)
    m = {}
    calls = [c for r in summaries for c in r["block_pair"]]
    for st in ("hi", "lo", "refine", "train"):
        m[f"windows.block_pair_ms.{st}"] = _median([ms for s, ms in calls if s == st])
    m["windows.share"] = sum(tot(r, "windows.block_pair") for r in summaries) / wall
    m["windows.attn_pairs"] = per_request(lambda r: r["work"].get("windows.block_pair", 0.0))
    fwd = [f for r in summaries for f in r["forward"]]
    for st in ("hi", "lo", "refine"):
        mine = [f for f in fwd if f[0] == st]
        m[f"denoiser.fwd_ms.{st}"] = _median([f[1] for f in mine])
        busy = sum(f[1] for f in mine)
        m[f"denoiser.fwd_gflops.{st}"] = sum(f[2] for f in mine) / busy / 1e6 if busy else 0.0
    m["denoiser.fwd_self_ms"] = _median([x for r in summaries for x in r["forward_self_ms"]])
    m["denoiser.train.data_ms"] = per_request(
        lambda r: per_iter(r, "denoiser.clip_window", "denoiser.degrade_pair"))
    m["denoiser.train.loss_ms"] = per_request(lambda r: per_iter(r, "denoiser.loss"))
    m["denoiser.train.adamw_ms"] = per_request(lambda r: per_iter(r, "denoiser.adamw"))
    m["autodiff.backward_ms"] = per_request(lambda r: per_iter(r, "autodiff.backward"))
    m["autodiff.backward_share"] = sum(tot(r, "autodiff.backward") for r in summaries) / wall
    m["autodiff.backward_calls"] = per_request(lambda r: r["count"].get("autodiff.backward", 0))
    for j, ph in enumerate(("hi", "turn", "lo")):
        m[f"preview.{ph}_ms"] = per_request(lambda r: sum(p[j] for p in r["phases"]))
    m["preview.nfe_hi"] = per_request(lambda r: r["nfe"]["hi"])
    m["preview.nfe_lo"] = per_request(lambda r: r["nfe"]["lo"])
    m["schedule.euler_ms"] = per_request(lambda r: tot(r, "schedule.euler"))
    m["grids.resize_ms"] = per_request(lambda r: tot(r, "grids.resize"))
    m["grids.gaussian_ms"] = per_request(lambda r: tot(r, "grids.gaussian"))
    m["grids.lgr1_read_ms"] = per_request(lambda r: tot(r, "grids.lgr1_read"))
    m["grids.lgr1_write_ms"] = per_request(lambda r: tot(r, "grids.lgr1_write"))
    m["cli.preview_self_ms"] = per_request(lambda r: r["self_ms"]["cli.preview"])
    m["cli.refine_self_ms"] = per_request(lambda r: r["self_ms"]["cli.refine"])
    m["cli.ckpt_load_ms"] = per_request(lambda r: tot(r, "cli.ckpt_load"))
    m["cli.io_ms"] = per_request(lambda r: tot(r, *_IO))
    m["cli.io_bytes"] = per_request(
        lambda r: sum(r["work"].get(n, 0.0) for n in _IO + ("cli.ckpt_load",)))
    shares = [stage_shares(r) for r in summaries]
    for st, name in _COST_STAGES.items():
        m[f"costmodel.share_err.{name}"] = _median([abs(s[st][1] - s[st][0]) for s in shares])
    m["trace.overhead"] = per_request(lambda r: r["wall_ms"]) / _median(untraced_wall_ms) - 1.0
    m["trace.span_coverage"] = per_request(lambda r: r["top_ms"] / r["wall_ms"])
    return m


def stage_shares(summary: dict) -> dict[str, tuple[float, float]]:
    """(predicted, measured) share of the request's forward work per stage:
    predicted from the cost model's FLOPs, measured from forward time."""
    fwd = summary["forward"]
    flops = sum(f[2] for f in fwd)
    busy = sum(f[1] for f in fwd)
    out = {}
    for st in _COST_STAGES:
        mine = [f for f in fwd if f[0] == st]
        out[st] = (sum(f[2] for f in mine) / flops if flops else 0.0,
                   sum(f[1] for f in mine) / busy if busy else 0.0)
    return out
