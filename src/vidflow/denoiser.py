"""Toy velocity-prediction transformer, its training rig, and the data plumbing.

One parameter set serves both roles in the pipeline: the "base" model is
trained with plain flow matching (noise -> data paths) and drives the preview
stage; the Refiner is trained on degraded/clean latent pairs (low-res ->
high-res paths) and drives the refine stage.  Gradients come from the
reverse-mode tape in :mod:`vidflow.autodiff`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ContractError, FormatError, ShapeError
from .grids import (
    LGR1_MAGIC,
    Extent5,
    LatentGrid,
    Rng,
    axpy,
    resize_spatial,
    sample_gaussian,
)
from .schedule import Conditioning, build_schedule, sample_ode
from .windows import AttentionWeights, BlockWeights, RoPEConfig, WindowSpec, swin_block_pair

SIGMA_EMBED_DIM = 16

# The integers that fix a parameter set's tensor shapes; checkpoints store
# them as meta lines in this order.
_ARCH_KEYS = ("patch", "d", "heads", "depth", "w_t", "channels", "cond_dim")

# The Refiner's default architecture: ``train_refiner(params=None)`` builds it,
# and the CLI ``train`` command defaults to it.
REFINER_ARCH = {"patch": 2, "d": 12, "heads": 2, "depth": 2, "w_t": 4, "cond_dim": 4}


# ---------------------------------------------------------------------------
# parameters


@dataclass
class DenoiserParams:
    """All weights plus the architectural hyperparameters they imply."""

    patch: int
    d: int
    heads: int
    depth: int
    w_t: int
    channels: int
    cond_dim: int
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for key in ("patch", "d", "heads", "depth", "w_t", "channels"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.depth % 2 != 0:
            raise ConfigError(f"depth must be even (whole block pairs), got {self.depth}")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.d % 6 != 0:
            raise ConfigError(f"d={self.d} must be divisible by 6 for 3-axis rope")

    @property
    def token_dim(self) -> int:
        return self.channels * self.patch * self.patch

    @property
    def rope(self) -> RoPEConfig:
        return RoPEConfig.even_split(self.d)

    @property
    def window(self) -> WindowSpec:
        return WindowSpec(self.w_t)

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of every weight tensor, in the order :meth:`init` draws them."""
        d, cpp = self.d, self.token_dim
        shapes = {"embed.w": (cpp, d), "embed.b": (d,), "sigma.w": (SIGMA_EMBED_DIM, d),
                  "cond.w": (self.cond_dim, d)}
        for i in range(self.depth):
            shapes.update({
                f"block{i}.wq": (d, d), f"block{i}.wk": (d, d),
                f"block{i}.wv": (d, d), f"block{i}.wo": (d, d),
                f"block{i}.ffn_w1": (d, 4 * d), f"block{i}.ffn_b1": (4 * d,),
                f"block{i}.ffn_w2": (4 * d, d), f"block{i}.ffn_b2": (d,),
            })
        shapes.update({"head.w": (d, cpp), "head.b": (cpp,)})
        return shapes

    @classmethod
    def init(
        cls,
        patch: int,
        d: int,
        heads: int,
        depth: int,
        w_t: int,
        channels: int,
        cond_dim: int,
        rng: Rng,
        init_scale: float = 0.02,
    ) -> "DenoiserParams":
        p = cls(patch, d, heads, depth, w_t, channels, cond_dim)
        for name, shape in p.tensor_shapes().items():
            if name.startswith("head.") or name.endswith(".b") or "ffn_b" in name:
                p.tensors[name] = np.zeros(shape)
            else:
                n = int(np.prod(shape))
                p.tensors[name] = init_scale * rng.normal(n).reshape(shape)
        return p

    def copy(self) -> "DenoiserParams":
        out = replace(self, tensors={k: v.copy() for k, v in self.tensors.items()})
        return out


def _sigma_embedding(sigma: float, dim: int = SIGMA_EMBED_DIM) -> np.ndarray:
    """Sinusoidal features of the noise level (geometric frequency ladder)."""
    half = dim // 2
    freqs = 1000.0 ** (np.arange(half) / max(half - 1, 1))
    ang = sigma * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


def _patchify(x: np.ndarray, p: int) -> np.ndarray:
    """(c, f, h, w) -> (f, h/p, w/p, c*p*p) token field."""
    c, f, h, w = x.shape
    t = x.reshape(c, f, h // p, p, w // p, p)
    return t.transpose(1, 2, 4, 0, 3, 5).reshape(f, h // p, w // p, c * p * p)


def _unpatchify_t(y: Tensor, c: int, p: int, f: int, h: int, w: int) -> Tensor:
    t = y.reshape(f, h // p, w // p, c, p, p)
    return t.transpose((3, 0, 1, 4, 2, 5)).reshape(c, f, h, w)


def _forward_graph(params: DenoiserParams, z: LatentGrid, sigma: float, cond: Conditioning, train: bool):
    """Build the forward tape; returns (per-batch output tensors, leaf dict)."""
    e = z.extent
    p = params.patch
    if e.h % p != 0 or e.w % p != 0:
        raise ConfigError(f"spatial dims {(e.h, e.w)} not divisible by patch {p}")
    if len(cond.vector) != params.cond_dim:
        raise ConfigError(f"conditioning length {len(cond.vector)} != {params.cond_dim}")

    leaves = {k: Tensor(v, requires_grad=train) for k, v in params.tensors.items()}
    temb = Tensor(_sigma_embedding(sigma)[None, :]) @ leaves["sigma.w"]
    cemb = Tensor(cond.as_array()[None, :]) @ leaves["cond.w"]
    bias = temb + cemb  # (1, d), broadcast over all tokens

    spec, rope = params.window, params.rope
    outs = []
    for b in range(e.b):
        tokens = _patchify(z.values[b], p)
        f, hp, wp, cpp = tokens.shape
        x = Tensor(tokens.reshape(-1, cpp)) @ leaves["embed.w"] + leaves["embed.b"]
        x = (x + bias).reshape(f, hp, wp, params.d)
        for i in range(0, params.depth, 2):
            blocks = tuple(
                BlockWeights(
                    attn=AttentionWeights(
                        leaves[f"block{j}.wq"],
                        leaves[f"block{j}.wk"],
                        leaves[f"block{j}.wv"],
                        leaves[f"block{j}.wo"],
                    ),
                    w1=leaves[f"block{j}.ffn_w1"],
                    b1=leaves[f"block{j}.ffn_b1"],
                    w2=leaves[f"block{j}.ffn_w2"],
                    b2=leaves[f"block{j}.ffn_b2"],
                )
                for j in (i, i + 1)
            )
            x = swin_block_pair(x, blocks, spec, rope, params.heads)
        y = x.layernorm().reshape(-1, params.d) @ leaves["head.w"] + leaves["head.b"]
        outs.append(_unpatchify_t(y.reshape(f, hp, wp, cpp), e.c, p, e.f, e.h, e.w))
    return outs, leaves


def forward_velocity(params: DenoiserParams, z: LatentGrid, sigma: float, cond: Conditioning) -> LatentGrid:
    """Predict the velocity field; output extent equals the input extent."""
    outs, _ = _forward_graph(params, z, sigma, cond, train=False)
    return LatentGrid(z.extent, np.stack([o.data for o in outs]))


def _tape_grads(params: DenoiserParams, z: LatentGrid, sigma: float, cond: Conditioning, term):
    """Tape the forward, sum ``term(b, out)`` over batch items and backpropagate
    once; returns (the sum's value, gradient of every parameter tensor)."""
    outs, leaves = _forward_graph(params, z, sigma, cond, train=True)
    total = None
    for b, out in enumerate(outs):
        item = term(b, out)
        total = item if total is None else total + item
    total.backward()
    grads = {k: (t.grad if t.grad is not None else np.zeros_like(t.data)) for k, t in leaves.items()}
    return float(total.data), grads


def backward(
    params: DenoiserParams,
    z: LatentGrid,
    sigma: float,
    cond: Conditioning,
    upstream_grad: LatentGrid,
) -> dict[str, np.ndarray]:
    """Exact reverse-mode parameter gradients for the loss whose output
    gradient is ``upstream_grad``."""
    if upstream_grad.extent != z.extent:
        raise ShapeError(f"upstream extent {upstream_grad.extent} != input {z.extent}")
    return _tape_grads(params, z, sigma, cond, lambda b, out: (out * upstream_grad.values[b]).sum())[1]


class ParamVelocityModel:
    """Adapt a parameter set to the sampler's VelocityModel interface."""

    def __init__(self, params: DenoiserParams):
        self.params = params

    def evaluate(self, z, sigma, cond):
        return forward_velocity(self.params, z, sigma, cond)


# ---------------------------------------------------------------------------
# toy codec and degradation


class ToyCodec:
    """Fixed, parameter-free pixel<->latent codec.

    encode stacks the four 2x2 phase subgrids of every frame into channels
    (halving h and w, quadrupling c); decode unstacks them back to their phase
    positions, inverting encode exactly.  Block averages are therefore
    preserved bit-for-bit through a round trip.
    """

    factor = 2

    def encode(self, pixels: LatentGrid) -> LatentGrid:
        e = pixels.extent
        if e.h % 2 or e.w % 2:
            raise ConfigError(f"codec needs even spatial dims, got {(e.h, e.w)}")
        v = pixels.values.reshape(e.b, e.c, e.f, e.h // 2, 2, e.w // 2, 2)
        v = v.transpose(0, 1, 4, 6, 2, 3, 5).reshape(e.b, 4 * e.c, e.f, e.h // 2, e.w // 2)
        return LatentGrid.from_array(v)

    def decode(self, latent: LatentGrid) -> LatentGrid:
        e = latent.extent
        if e.c % 4:
            raise ConfigError(f"latent channels must be divisible by 4, got {e.c}")
        v = latent.values.reshape(e.b, e.c // 4, 2, 2, e.f, e.h, e.w)
        v = v.transpose(0, 1, 4, 5, 2, 6, 3).reshape(e.b, e.c // 4, e.f, 2 * e.h, 2 * e.w)
        return LatentGrid.from_array(v)


@dataclass(frozen=True)
class DegradationConfig:
    blur_radius: int = 1
    blur_strength: float = 0.7
    downup_factor: int = 2
    latent_noise: float = 0.1
    latent_downup_factor: int = 1  # extra latent-space round trip through the preview resolution
    seed: int = 0

    def __post_init__(self):
        if self.blur_radius < 0 or self.blur_strength < 0 or self.latent_noise < 0:
            raise ConfigError("degradation scales must be >= 0")
        if self.downup_factor < 1 or self.latent_downup_factor < 1:
            raise ConfigError("down-up factors must be >= 1")


def _box_blur(v: np.ndarray, radius: int) -> np.ndarray:
    """Edge-clamped (2r+1)^2 box filter over the last two axes."""
    r = radius
    padded = np.pad(v, [(0, 0)] * (v.ndim - 2) + [(r, r), (r, r)], mode="edge")
    acc = np.zeros_like(v)
    h, w = v.shape[-2:]
    for dy in range(2 * r + 1):
        for dx in range(2 * r + 1):
            acc += padded[..., dy : dy + h, dx : dx + w]
    return acc / (2 * r + 1) ** 2


def degrade_pair(
    hr_pixels: LatentGrid,
    codec: ToyCodec,
    cfg: DegradationConfig,
    rng: Rng | None = None,
) -> tuple[LatentGrid, LatentGrid]:
    """Synthesize a (degraded, clean) latent pair from a clean pixel video.

    Pixel path: blur -> bilinear down by factor -> bilinear up -> encode ->
    additive latent Gaussian noise.
    """
    e = hr_pixels.extent
    if e.h % (codec.factor * cfg.downup_factor) or e.w % (codec.factor * cfg.downup_factor):
        raise ConfigError(
            f"spatial dims {(e.h, e.w)} not divisible by codec*factor "
            f"{codec.factor * cfg.downup_factor}"
        )
    z_hr = codec.encode(hr_pixels)

    px = hr_pixels.values
    if cfg.blur_radius > 0 and cfg.blur_strength > 0:
        px = (1.0 - cfg.blur_strength) * px + cfg.blur_strength * _box_blur(px, cfg.blur_radius)
    degraded = LatentGrid(e, px)
    if cfg.downup_factor > 1:
        lo = resize_spatial(degraded, e.h // cfg.downup_factor, e.w // cfg.downup_factor)
        degraded = resize_spatial(lo, e.h, e.w)
    z_lr = codec.encode(degraded)
    if cfg.latent_noise > 0:
        noise_rng = rng if rng is not None else Rng(cfg.seed)
        z_lr = axpy(cfg.latent_noise, sample_gaussian(z_lr.extent, noise_rng), z_lr)
    if cfg.latent_downup_factor > 1:
        le = z_lr.extent
        lo = resize_spatial(z_lr, le.h // cfg.latent_downup_factor, le.w // cfg.latent_downup_factor)
        z_lr = resize_spatial(lo, le.h, le.w)
    return z_lr, z_hr


# ---------------------------------------------------------------------------
# synthetic data


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold a free coordinate into [lo, hi] with elastic reflection."""
    span = hi - lo
    if span <= 0:
        return np.full_like(x, lo)
    y = np.mod(x - lo, 2 * span)
    return lo + np.where(y > span, 2 * span - y, y)


def synth_video(
    kind: str,
    extent: Extent5,
    rng: Rng,
    velocity: tuple[float, float] | None = None,
) -> LatentGrid:
    """Deterministic procedural pixel video in [0, 1].

    A single shape per clip moves at constant velocity and bounces elastically
    off the walls; edges are anti-aliased.  ``velocity`` overrides the random
    draw (use (0, 0) for a static clip).
    """
    if kind not in ("bouncing_rect", "moving_gaussian"):
        raise ConfigError(f"unknown synth kind {kind!r}")
    e = extent
    ys = np.arange(e.h)[:, None]
    xs = np.arange(e.w)[None, :]
    out = np.zeros(e.as_tuple())
    for b in range(e.b):
        size = 0.12 * min(e.h, e.w) + 0.1 * min(e.h, e.w) * rng.uniform(1)[0]
        cy0 = size + (e.h - 1 - 2 * size) * rng.uniform(1)[0]
        cx0 = size + (e.w - 1 - 2 * size) * rng.uniform(1)[0]
        if velocity is None:
            vy, vx = 3.0 * (rng.uniform(2) - 0.5)
        else:
            vy, vx = velocity
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
    return LatentGrid(e, np.clip(out, 0.0, 1.0))


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    phase1_frames: int = 5
    phase1_iters: int = 100
    phase2_frames: int = 9
    phase2_iters: int = 100

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.lr}")
        if self.phase2_frames < self.phase1_frames:
            raise ConfigError("phase-2 frame count must be >= phase-1")

    @property
    def total_iters(self) -> int:
        return self.phase1_iters + self.phase2_iters

    def frames_at(self, iteration: int) -> int:
        return self.phase1_frames if iteration < self.phase1_iters else self.phase2_frames


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict."""

    def __init__(self, params: DenoiserParams, cfg: TrainConfig):
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.t = 0

    def step(self, params: DenoiserParams, grads: dict[str, np.ndarray]) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for k, p in params.tensors.items():
            g = grads[k]
            self.m[k] = c.beta1 * self.m[k] + (1 - c.beta1) * g
            self.v[k] = c.beta2 * self.v[k] + (1 - c.beta2) * g * g
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + c.eps)
            params.tensors[k] = p - c.lr * (update + c.weight_decay * p)


def refiner_loss(
    params: DenoiserParams,
    z_src: LatentGrid,
    z_clean: LatentGrid,
    t: float,
    cond: Conditioning,
) -> tuple[float, dict[str, np.ndarray]]:
    """The flow loss both trainers use: interpolate z_t = (1 - t) * z_clean +
    t * z_src and regress the constant path velocity z_src - z_clean (per-item
    MSE, averaged over the batch).  The source is noise for the base model and
    the degraded latent for the Refiner."""
    if z_src.extent != z_clean.extent:
        raise ShapeError(f"extent mismatch: {z_src.extent} vs {z_clean.extent}")
    if not (0.0 < t < 1.0):
        raise ConfigError(f"t must be in (0, 1), got {t}")
    z_t = LatentGrid(z_clean.extent, (1 - t) * z_clean.values + t * z_src.values)
    target = z_src.values - z_clean.values

    def term(b, out):
        diff = out - target[b]
        return (diff * diff).mean() / z_t.extent.b

    return _tape_grads(params, z_t, t, cond, term)


def _clip_window(clip: LatentGrid, frames: int, ri: Rng) -> LatentGrid:
    e = clip.extent
    if frames > e.f:
        raise ConfigError(f"clip has {e.f} frames, need {frames}")
    start = int(ri.integers(0, e.f - frames + 1)[0])
    return LatentGrid.from_array(clip.values[:, :, start : start + frames])


def _train(draw, dataset, train_cfg, rng, params, optimizer, start_iter, n_iters):
    """The training loop both trainers share.  Iteration ``it`` takes all its
    randomness from ``rng.split(it)``: a clip and a window of it, then
    ``draw(window, ri)`` for the (source, clean) pair, then the path time t.
    Resuming at ``start_iter`` with a checkpointed optimizer therefore
    reproduces a straight run bit for bit.  A non-finite loss stops training
    before the optimizer applies its gradients."""
    if optimizer is None:
        optimizer = AdamW(params, train_cfg)
    cond = Conditioning.zeros(params.cond_dim)
    end = train_cfg.total_iters if n_iters is None else start_iter + n_iters
    losses = []
    for it in range(start_iter, end):
        ri = rng.split(it)
        clip = dataset[int(ri.integers(0, len(dataset))[0])]
        frames = train_cfg.frames_at(it)
        source, clean = draw(_clip_window(clip, frames, ri.split(0)), ri)
        t = 0.001 + 0.998 * float(ri.uniform(1)[0])
        loss, grads = refiner_loss(params, source, clean, t, cond)
        if not math.isfinite(loss):
            raise ContractError(f"training loss {loss} is not finite at iteration {it} ({frames} frames)")
        optimizer.step(params, grads)
        losses.append(loss)
    return params, optimizer, losses


def train_refiner(
    dataset: list[LatentGrid],
    codec: ToyCodec,
    deg_cfg: DegradationConfig,
    train_cfg: TrainConfig,
    rng: Rng,
    params: DenoiserParams | None = None,
    optimizer: AdamW | None = None,
    start_iter: int = 0,
    n_iters: int | None = None,
) -> tuple[DenoiserParams, AdamW, list[float]]:
    """Train the Refiner on (degraded, clean) latent pairs with the
    progressive frame-count schedule; ``params=None`` starts from a fresh
    Refiner of the default architecture :data:`REFINER_ARCH`."""
    if not dataset:
        raise ConfigError("empty dataset")
    if params is None:
        params = DenoiserParams.init(
            **REFINER_ARCH, channels=dataset[0].extent.c * 4, rng=rng.split(10**9),
        )

    def draw(clip, ri):
        return degrade_pair(clip, codec, deg_cfg, rng=ri.split(1))

    return _train(draw, dataset, train_cfg, rng, params, optimizer, start_iter, n_iters)


def train_base(
    dataset: list[LatentGrid],
    codec: ToyCodec,
    train_cfg: TrainConfig,
    rng: Rng,
    params: DenoiserParams,
    optimizer: AdamW | None = None,
    start_iter: int = 0,
    n_iters: int | None = None,
) -> tuple[DenoiserParams, AdamW, list[float]]:
    """Flow-matching pretraining of the base model on (noise, clean) pairs."""
    if not dataset:
        raise ConfigError("empty dataset")

    def draw(clip, ri):
        z0 = codec.encode(clip)
        return sample_gaussian(z0.extent, ri.split(1)), z0

    return _train(draw, dataset, train_cfg, rng, params, optimizer, start_iter, n_iters)


def refine(
    params: DenoiserParams,
    preview_lo: LatentGrid,
    target_hw: tuple[int, int],
    n_steps: int,
    cond: Conditioning,
) -> LatentGrid:
    """Upsample the preview and integrate the refiner flow from t=1 to t=0
    on a linear schedule (NFE = n_steps)."""
    sched = build_schedule(n_steps)
    z = resize_spatial(preview_lo, target_hw[0], target_hw[1])
    return sample_ode(ParamVelocityModel(params), z, sched, cond)


# ---------------------------------------------------------------------------
# checkpoints


def _write_record(fh, arr: np.ndarray) -> int:
    """Append one tensor as an LGR1 record (shape right-padded into 5 axes)."""
    shape5 = (1,) * (5 - arr.ndim) + arr.shape if arr.ndim <= 5 else None
    if shape5 is None:
        raise ConfigError(f"cannot store tensor of ndim {arr.ndim}")
    start = fh.tell()
    fh.write(LGR1_MAGIC)
    fh.write(struct.pack("<5Q", *shape5))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return start


def save_checkpoint(
    path,
    params: DenoiserParams,
    optimizer: AdamW | None = None,
    meta: dict | None = None,
) -> None:
    """Write ``path`` (concatenated LGR1 tensor records) and ``path`` +
    ``.index`` (plain text: meta lines, then name/offset/shape per tensor)."""
    named = dict(params.tensors)
    if optimizer is not None:
        for k, v in optimizer.m.items():
            named[f"opt.m.{k}"] = v
        for k, v in optimizer.v.items():
            named[f"opt.v.{k}"] = v
    header = {k: getattr(params, k) for k in _ARCH_KEYS}
    if optimizer is not None:
        header["opt_t"] = optimizer.t
    lines = [f"meta {k} {v}" for k, v in {**header, **(meta or {})}.items()]
    with open(path, "wb") as fh:
        for name in sorted(named):
            arr = named[name]
            offset = _write_record(fh, arr)
            shape = ",".join(str(s) for s in arr.shape)
            lines.append(f"tensor {name} {offset} {shape}")
    with open(str(path) + ".index", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path, train_cfg: TrainConfig | None = None):
    """Inverse of :func:`save_checkpoint`; returns (params, optimizer-or-None,
    meta dict).  ``train_cfg`` is required to reconstruct the optimizer.  An
    index line other than ``meta <key> <value>`` or ``tensor <name> <offset>
    <shape>``, a non-integer or invalid architecture, a tensor set or shape
    other than :meth:`DenoiserParams.tensor_shapes`, or a missing moment record
    when resuming raises :class:`FormatError` naming the line or tensor."""
    index = f"{path}.index"
    try:
        with open(index) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError as exc:
        raise FormatError(f"missing index file for checkpoint {path}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{index}: not a text index: {exc}") from exc
    meta, entries = {}, {}
    for no, line in enumerate(lines, 1):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "meta" and len(parts) == 3:
                meta[parts[1]] = parts[2]
            elif parts[0] == "tensor" and len(parts) == 4:
                entries[parts[1]] = (int(parts[2]), tuple(int(s) for s in parts[3].split(",")))
            else:
                raise ValueError
        except ValueError:
            raise FormatError(f"{index} line {no}: expected 'meta <key> <value>' or "
                              f"'tensor <name> <offset> <d0,d1,...>', got {line!r}") from None

    def meta_int(key):
        if key not in meta:
            raise FormatError(f"{index}: missing meta key {key!r}")
        try:
            return int(meta[key])
        except ValueError:
            raise FormatError(f"{index}: meta {key} must be an integer, got {meta[key]!r}") from None

    try:
        params = DenoiserParams(**{k: meta_int(k) for k in _ARCH_KEYS})
    except ConfigError as exc:
        raise FormatError(f"{index}: invalid architecture: {exc}") from exc
    shapes = params.tensor_shapes()
    unexpected = sorted(n for n in entries if not n.startswith("opt.") and n not in shapes)
    if unexpected:
        raise FormatError(f"{index}: tensors {unexpected} are not part of the architecture")
    resume = "opt_t" in meta and train_cfg is not None
    records = dict(shapes)
    if resume:
        records.update({f"opt.{m}.{k}": s for m in "mv" for k, s in shapes.items()})
    with open(path, "rb") as fh:
        blob = fh.read()
    named = {}
    for name, shape in records.items():
        if name not in entries:
            raise FormatError(f"{index}: no record for tensor {name!r}")
        offset, stored = entries[name]
        if stored != shape:
            raise FormatError(f"{index}: tensor {name!r} has shape {stored}, the architecture needs {shape}")
        if blob[offset : offset + 8] != LGR1_MAGIC:
            raise FormatError(f"{path}: bad record magic at byte {offset}")
        try:
            axes = struct.unpack("<5Q", blob[offset + 8 : offset + 48])
            data = np.frombuffer(blob, dtype="<f8", count=int(np.prod(axes)), offset=offset + 48)
            named[name] = data.reshape(shape).astype(np.float64)
        except (struct.error, ValueError) as exc:
            raise FormatError(f"{path}: record {name!r} at byte {offset} is truncated "
                              "or does not match its index entry") from exc
    params.tensors = {k: named[k] for k in shapes}
    optimizer = None
    if resume:
        optimizer = AdamW(params, train_cfg)
        optimizer.t = meta_int("opt_t")
        for k in params.tensors:
            optimizer.m[k] = named[f"opt.m.{k}"]
            optimizer.v[k] = named[f"opt.v.{k}"]
    return params, optimizer, meta
