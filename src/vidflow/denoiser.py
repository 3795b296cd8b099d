"""Toy velocity-prediction transformer, its training rig, and the data plumbing.

One parameter set serves both roles in the pipeline: the "base" model is
trained with plain flow matching (noise -> data paths) and drives the preview
stage; the Refiner is trained on degraded/clean latent pairs (low-res ->
high-res paths) and drives the refine stage.  Training and inference run the
same plain-numpy forward; in training every layer also saves what its
backward needs, and one fixed reverse pass calls the layers' closed-form
backwards (:mod:`vidflow.autodiff`, :mod:`vidflow.windows`) in reverse order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .autodiff import Tensor, layernorm, layernorm_backward, linear, linear_backward, run_each
from .errors import ConfigError, ContractError, FormatError, ShapeError
from .grids import (
    Extent5,
    LatentGrid,
    Rng,
    axpy,
    read_record,
    record_axes,
    replaced,
    resize_spatial,
    sample_gaussian,
    write_record,
)
from .preview import Conditioning, VelocityModel, build_schedule, sample_ode
from .windows import AttentionWeights, BlockWeights, RoPEConfig, WindowSpec
from .windows import frame_pairs, swin_block_pair, swin_block_pair_backward

SIGMA_EMBED_DIM = 16

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
        for key in _ARCH_KEYS:
            low = 0 if key == "cond_dim" else 1
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.depth % 2 != 0:
            raise ConfigError(f"depth must be even (whole block pairs), got {self.depth}")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        self.window = WindowSpec(self.w_t)
        self.rope = RoPEConfig.even_split(self.d)

    @cached_property
    def _layout(self) -> list:
        """Each tensor's (name, slice, shape) in a flat buffer of every value,
        made when first needed: construction only checks the architecture."""
        layout, stop = [], 0
        for name, shape in self._shapes():
            layout.append((name, slice(stop, stop + math.prod(shape)), shape))
            stop = layout[-1][1].stop
        return layout

    @property
    def size(self) -> int:  # the number of values in all tensors
        return self._layout[-1][1].stop

    @property
    def token_dim(self) -> int:
        return self.channels * self.patch * self.patch

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of every weight tensor, in the order :meth:`init` draws them."""
        return dict(self._shapes())

    def _shapes(self):
        """The (name, shape) pairs of :meth:`tensor_shapes`, made one at a time."""
        d, cpp = self.d, self.token_dim
        yield from {"embed.w": (cpp, d), "embed.b": (d,), "sigma.w": (SIGMA_EMBED_DIM, d),
                    "cond.w": (self.cond_dim, d)}.items()
        for i in range(self.depth):
            yield from {
                f"block{i}.wq": (d, d), f"block{i}.wk": (d, d),
                f"block{i}.wv": (d, d), f"block{i}.wo": (d, d),
                f"block{i}.ffn_w1": (d, 4 * d), f"block{i}.ffn_b1": (4 * d,),
                f"block{i}.ffn_w2": (4 * d, d), f"block{i}.ffn_b2": (d,),
            }.items()
        yield from {"head.w": (d, cpp), "head.b": (cpp,)}.items()

    @classmethod
    def init(cls, rng: Rng, **arch) -> "DenoiserParams":
        """A fresh parameter set of the architecture ``arch`` (every
        :data:`_ARCH_KEYS` name): weights drawn from ``rng`` in
        :meth:`tensor_shapes` order, biases and the output head zero."""
        p = cls(**arch)
        for name, shape in p.tensor_shapes().items():
            if name.startswith("head.") or name.endswith(".b") or "ffn_b" in name:
                p.tensors[name] = np.zeros(shape)
            else:
                n = int(np.prod(shape))
                p.tensors[name] = 0.02 * rng.normal(n).reshape(shape)
        return p

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """A ``{name: array}`` dict of views into ``flat`` (:attr:`size`
        values), one per tensor, laid end to end in :meth:`tensor_shapes` order."""
        return {name: flat[at].reshape(shape) for name, at, shape in self._layout}

    def copy(self) -> "DenoiserParams":
        return replace(self, tensors={k: v.copy() for k, v in self.tensors.items()})


# The integers that fix a parameter set's tensor shapes, in field order;
# checkpoints store them as the first meta lines of their index.
_ARCH_KEYS = tuple(f.name for f in fields(DenoiserParams) if f.name != "tensors")


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


def _block_weights(tensors: dict, depth: int) -> list[BlockWeights]:
    """The blocks' entries of a ``{name: array}`` dict (weights or gradient buffers)."""
    return [BlockWeights(AttentionWeights(*(tensors[f"block{j}.w{m}"] for m in "qkvo")),
                         *(tensors[f"block{j}.ffn_{m}"] for m in ("w1", "b1", "w2", "b2")))
            for j in range(depth)]


def _forward(params: DenoiserParams, z: LatentGrid, sigma: float, cond: Conditioning,
             saved: list | None = None) -> np.ndarray:
    """The (b, c, f, h, w) output: one array, preallocated, into whose row b
    item b writes its head's tokens unpatchified, the inverse of
    :func:`_patchify`.

    With a ``saved`` list the items run one at a time, in order, and each
    appends one list of its own, to which every layer appends what its
    backward needs, in forward order.  Without one, the items go to
    :func:`~vidflow.autodiff.run_each`: when there are at least two and one
    item's attention holds at least ``autodiff._SHARE_SCORES`` scores
    (depth · heads · frame pairs · plane²), the helper threads take items as
    attention takes query tiles.  Each item writes only its own row, so the
    output has the serial path's bits."""
    e = z.extent
    p = params.patch
    if e.c != params.channels:
        raise ShapeError(f"latent has {e.c} channels, the model takes {params.channels}")
    if e.h % p != 0 or e.w % p != 0:
        raise ConfigError(f"spatial dims {(e.h, e.w)} not divisible by patch {p}")
    if len(cond.vector) != params.cond_dim:
        raise ConfigError(f"conditioning length {len(cond.vector)} != {params.cond_dim}")

    tensors = params.tensors
    # the sigma and conditioning embeddings: one (1, d) bias over all tokens
    bias = _sigma_embedding(sigma)[None, :] @ tensors["sigma.w"] + cond.as_array()[None, :] @ tensors["cond.w"]
    blocks = _block_weights(tensors, params.depth)
    spec, rope = params.window, params.rope
    hp, wp = e.h // p, e.w // p
    out = np.empty(e.as_tuple())

    def run(b: int, item: list | None = None) -> None:
        tokens = _patchify(z.values[b], p)
        x = linear(tokens.reshape(-1, tokens.shape[-1]), tensors["embed.w"], tensors["embed.b"], item)
        x = (x + bias).reshape(e.f, hp, wp, params.d)
        for i in range(0, params.depth, 2):
            x = swin_block_pair(x, (blocks[i], blocks[i + 1]), spec, rope, params.heads, item)
        y = linear(layernorm(x, item).reshape(-1, params.d), tensors["head.w"], tensors["head.b"], item)
        out[b].reshape(e.c, e.f, hp, p, wp, p)[...] = y.reshape(e.f, hp, wp, e.c, p, p).transpose(3, 0, 1, 4, 2, 5)

    if saved is None:
        run_each(run, e.b, params.depth * params.heads * frame_pairs(e.f, params.w_t) * (hp * wp) ** 2)
    else:
        for b in range(e.b):
            saved.append([])
            run(b, saved[-1])
    return out


def forward_velocity(params: DenoiserParams, z: LatentGrid, sigma: float, cond: Conditioning) -> LatentGrid:
    """Predict the velocity field; output extent equals the input extent."""
    return LatentGrid(z.extent, _forward(params, z, sigma, cond))


def _reverse(params: DenoiserParams, saved: list, sigma: float, cond: Conditioning) -> dict[str, np.ndarray]:
    """The fixed reverse pass: the gradient of every parameter tensor from a
    saving forward's items, each ending in its output gradient.

    The gradients are views of one fresh zeroed flat buffer
    (:meth:`DenoiserParams.views`).  Each takes its terms in the order a
    reverse-mode tape over the summed item losses would add them: items 0,
    1, ..., and within window attention the runs in frame order.  The sigma/conditioning
    bias is shared, so its gradient is summed over the items first."""
    tensors, p, d = params.tensors, params.patch, params.d
    grads = params.views(np.zeros(params.size))
    blocks = _block_weights(grads, params.depth)
    g_bias = np.zeros((1, d))
    for item in saved:
        g = _patchify(item.pop(), p).reshape(-1, params.channels * p * p)
        g = linear_backward(g, item.pop(), grads["head.w"], grads["head.b"], tensors["head.w"])
        y, inv = item.pop()
        g = layernorm_backward(g.reshape(y.shape), y, inv)
        for i in reversed(range(0, params.depth, 2)):
            g = swin_block_pair_backward(g, item, (blocks[i], blocks[i + 1]))
        g = g.reshape(-1, d)
        g_bias += np.add.reduce(g, axis=0, keepdims=True)
        linear_backward(g, item.pop(), grads["embed.w"], grads["embed.b"])
    grads["sigma.w"] += _sigma_embedding(sigma)[:, None] @ g_bias
    grads["cond.w"] += cond.as_array()[:, None] @ g_bias
    return grads


def _loss_grads(params: DenoiserParams, z: LatentGrid, sigma: float, cond: Conditioning, term):
    """Run the saving forward, then the reverse pass once.  ``term(b, out)``
    gives item b's share of the loss and the share's gradient with respect to
    ``out``, which ends the item's entries; returns (the shares summed in
    item order, every parameter's gradient)."""
    saved, total = [], 0.0
    out = _forward(params, z, sigma, cond, saved)
    for b, item in enumerate(saved):
        share, g = term(b, out[b])
        total += share
        item.append(g)
    return total, Tensor(lambda: _reverse(params, saved, sigma, cond)).backward()


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
    return _loss_grads(params, z, sigma, cond, lambda b, out: (0.0, upstream_grad.values[b]))[1]


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

    @staticmethod
    def pixel_channels(latent_channels: int) -> int:
        """The channels :meth:`decode` makes of ``latent_channels``, a multiple of 4."""
        if latent_channels % 4:
            raise ConfigError(f"latent channels must be divisible by 4, got {latent_channels}")
        return latent_channels // 4

    def decode(self, latent: LatentGrid) -> LatentGrid:
        e = latent.extent
        c = self.pixel_channels(e.c)
        v = latent.values.reshape(e.b, c, 2, 2, e.f, e.h, e.w)
        v = v.transpose(0, 1, 4, 5, 2, 6, 3).reshape(e.b, c, e.f, 2 * e.h, 2 * e.w)
        return LatentGrid.from_array(v)


@dataclass(frozen=True)
class DegradationConfig:
    blur_radius: int = 1
    blur_strength: float = 0.7
    downup_factor: int = 2
    latent_noise: float = 0.05
    latent_downup_factor: int = 2  # extra latent-space round trip through the preview resolution

    def __post_init__(self):
        if self.blur_radius < 0 or self.blur_strength < 0 or self.latent_noise < 0:
            raise ConfigError("degradation scales must be >= 0")
        if self.downup_factor < 1 or self.latent_downup_factor < 1:
            raise ConfigError("down-up factors must be >= 1")


def _box_blur(v: np.ndarray, radius: int) -> np.ndarray:
    """Edge-clamped (2r+1)^2 box filter over the last two axes.  The clamped
    border is copied in by slices: the edge rows, then the edge columns of
    the row-padded array, which carry the corners."""
    r = radius
    h, w = v.shape[-2:]
    padded = np.empty(v.shape[:-2] + (h + 2 * r, w + 2 * r))
    padded[..., r : r + h, r : r + w] = v
    padded[..., :r, r : r + w] = v[..., :1, :]
    padded[..., r + h :, r : r + w] = v[..., -1:, :]
    padded[..., :r] = padded[..., r : r + 1]
    padded[..., r + w :] = padded[..., r + w - 1 : r + w]
    acc = np.zeros_like(v)
    for dy in range(2 * r + 1):
        for dx in range(2 * r + 1):
            acc += padded[..., dy : dy + h, dx : dx + w]
    return acc / (2 * r + 1) ** 2


def degrade_pair(
    hr_pixels: LatentGrid,
    codec: ToyCodec,
    cfg: DegradationConfig,
    rng: Rng,
) -> tuple[LatentGrid, LatentGrid]:
    """Synthesize a (degraded, clean) latent pair from a clean pixel video.

    Pixel path: blur -> bilinear down by factor -> bilinear up -> encode ->
    additive latent Gaussian noise drawn from ``rng``.
    """
    e = hr_pixels.extent
    if e.h % (codec.factor * cfg.downup_factor) or e.w % (codec.factor * cfg.downup_factor):
        raise ConfigError(
            f"spatial dims {(e.h, e.w)} not divisible by codec*factor "
            f"{codec.factor * cfg.downup_factor}"
        )
    if cfg.latent_downup_factor > min(e.h, e.w) // codec.factor:
        raise ConfigError(f"latent_downup_factor {cfg.latent_downup_factor} exceeds the latent's "
                          f"spatial dims {(e.h // codec.factor, e.w // codec.factor)}")
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
        z_lr = axpy(cfg.latent_noise, sample_gaussian(z_lr.extent, rng), z_lr)
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


SYNTH_KINDS = ("bouncing_rect", "moving_gaussian")


def synth_video(
    kind: str,
    extent: Extent5,
    rng: Rng,
) -> LatentGrid:
    """Deterministic procedural pixel video in [0, 1].

    A single shape per clip moves at constant velocity and bounces elastically
    off the walls; edges are anti-aliased.
    """
    if kind not in SYNTH_KINDS:
        raise ConfigError(f"unknown synth kind {kind!r}, expected one of {SYNTH_KINDS}")
    e = extent
    ys = np.arange(e.h)[:, None]
    xs = np.arange(e.w)[None, :]
    t = np.arange(e.f)[:, None, None]  # the frame axis of each (f, h, w) coverage
    out = np.empty(e.as_tuple())
    for b in range(e.b):
        size = 0.12 * min(e.h, e.w) + 0.1 * min(e.h, e.w) * rng.uniform(1)[0]
        cy0 = size + (e.h - 1 - 2 * size) * rng.uniform(1)[0]
        cx0 = size + (e.w - 1 - 2 * size) * rng.uniform(1)[0]
        vy, vx = 3.0 * (rng.uniform(2) - 0.5)
        colors = 0.3 + 0.7 * rng.uniform(e.c)
        cy = _reflect(cy0 + vy * t, size, e.h - 1 - size)
        cx = _reflect(cx0 + vx * t, size, e.w - 1 - size)
        if kind == "bouncing_rect":
            cov = np.clip(size + 0.5 - np.abs(ys - cy), 0, 1) * np.clip(size + 0.5 - np.abs(xs - cx), 0, 1)
        else:
            cov = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * (size / 1.5) ** 2))
        out[b] = colors[:, None, None, None] * cov
    return LatentGrid(e, np.clip(out, 0.0, 1.0))


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    weight_decay: float = 0.0
    phase1_frames: int = 5
    phase1_iters: int = 100
    phase2_frames: int = 9
    phase2_iters: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be a finite number >= 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be a finite number >= 0, got {self.weight_decay}")
        if not 1 <= self.phase1_frames <= self.phase2_frames:
            raise ConfigError(f"need 1 <= phase1_frames <= phase2_frames, "
                              f"got {self.phase1_frames}, {self.phase2_frames}")
        if min(self.phase1_iters, self.phase2_iters) < 0:
            raise ConfigError(f"iteration counts must be >= 0, got {self.phase1_iters}, {self.phase2_iters}")

    @property
    def total_iters(self) -> int:
        return self.phase1_iters + self.phase2_iters

    def frames_at(self, iteration: int) -> int:
        return self.phase1_frames if iteration < self.phase1_iters else self.phase2_frames


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    The parameters and both moments are held in flat float64 buffers, in
    :meth:`DenoiserParams.tensor_shapes` order: ``params.tensors``, :attr:`m`
    and :attr:`v` map each name to its view.  :meth:`step` first copies into
    the buffers any entry that is no longer its view (a tensor the caller
    reassigned) and binds the view in its place, gathers the gradients into
    a flat buffer, then runs each operation once over the whole buffer.  Per
    element these are the operations of a per-tensor update, in its order,
    so they give its bits."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: DenoiserParams, cfg: TrainConfig):
        self.cfg = cfg
        self._p, self._m, self._v = (np.zeros(params.size) for _ in range(3))
        self._g, self._u, self._w = (np.empty(params.size) for _ in range(3))
        self._views = [params.views(flat) for flat in (self._p, self._m, self._v)]
        self.m, self.v = dict(self._views[1]), dict(self._views[2])
        self.t = 0
        _bind(params.tensors, self._views[0])

    def step(self, params: DenoiserParams, grads: dict[str, np.ndarray]) -> None:
        c, b1, b2 = self.cfg, self.BETA1, self.BETA2
        self.t += 1
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for tensors, views in zip((params.tensors, self.m, self.v), self._views):
            _bind(tensors, views)
        g = np.concatenate([grads[k] for k in self._views[0]], axis=None, out=self._g)
        p, m, v, u, w = self._p, self._m, self._v, self._u, self._w
        # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        m *= b1
        m += np.multiply(g, 1 - b1, out=u)
        v *= b2
        np.multiply(g, 1 - b2, out=u)
        u *= g
        v += u
        # p = p - lr*((m/bc1) / (sqrt(v/bc2) + eps) + wd*p)
        np.divide(m, bc1, out=u)
        np.sqrt(np.divide(v, bc2, out=w), out=w)
        w += self.EPS
        u /= w
        u += np.multiply(p, c.weight_decay, out=w)
        u *= c.lr
        p -= u


def _bind(tensors: dict[str, np.ndarray], views: dict[str, np.ndarray]) -> None:
    """Make every ``tensors[name]`` the view ``views[name]``, copying in the
    values of any entry that is another array."""
    for name, view in views.items():
        arr = tensors[name]
        if arr is not view:
            if np.shape(arr) != view.shape:
                raise ShapeError(f"tensor {name} has shape {np.shape(arr)}, the architecture needs {view.shape}")
            view[...] = arr
            tensors[name] = view


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
        # the share is sum(diff²) · (1/size) · (1/B), and its gradient
        # 2·diff·(1/B)·(1/size), in the roundings a tape over those ops makes
        diff = out - target[b]
        scale = 1.0 / diff.size
        batch = 1.0 / z_t.extent.b
        return float(np.add.reduce(diff * diff, axis=None)) * scale * batch, 2.0 * (diff * (batch * scale))

    return _loss_grads(params, z_t, t, cond, term)


# Training stops when an iteration's loss exceeds this multiple of the mean
# square of its own target velocity (source - clean), which is what a zero
# predictor scores.  No history is used, so resume and replay stop where a
# straight run does; an all-zero target has no scale and is exempt.  The
# acceptance rig (lr 1e-2, seed 42) peaks at 3.79 (1.09-2.38 at seeds 1, 2, 3,
# 101, 401) and the pinned base run at 1.0: a margin of over 260x.  The rig
# at lr 1 reaches 4.5e3 by its third iteration, at lr 1e6 4e15.
DIVERGED_LOSS_RATIO = 1e3


def _clip_window(clip: LatentGrid, frames: int, ri: Rng) -> LatentGrid:
    start = int(ri.integers(0, clip.extent.f - frames + 1)[0])
    return LatentGrid.from_array(clip.values[:, :, start : start + frames])


def _iterations(train_cfg, dataset, optimizer, start_iter, n_iters) -> range:
    """Iterations ``start_iter`` up to ``start_iter + n_iters``, or to
    ``train_cfg.total_iters`` when ``n_iters`` is None.  The optimizer's step
    count ``t`` is the one record of a run's position, so ``start_iter``
    (None: that count, or 0 without an optimizer) must equal it and not lie
    past the end; resuming with a checkpointed optimizer then reproduces a
    straight run bit for bit.  A start that breaks this, or a schedule that
    needs more frames than the shortest clip holds, is refused here."""
    steps = optimizer.t if optimizer is not None else 0
    if start_iter is None:
        start_iter = steps
    end = train_cfg.total_iters if n_iters is None else start_iter + n_iters
    if start_iter != steps or start_iter > end:
        raise ConfigError(f"cannot train from iteration {start_iter} to {end} with an optimizer at step "
                          f"{steps}: a run starts at its optimizer's step count and not past its end")
    need = train_cfg.frames_at(end - 1) if end > start_iter else 0
    shortest = min(clip.extent.f for clip in dataset)
    if need > shortest:
        raise ConfigError(f"iteration {end - 1} needs {need} frames, the shortest clip has {shortest}")
    return range(start_iter, end)


def _train(draw, dataset, train_cfg, rng, params, optimizer, start_iter, n_iters):
    """The training loop both trainers share, over :func:`_iterations`, which
    refuses a bad start or schedule before the first iteration.  Iteration
    ``it`` takes all its randomness from ``rng.split(it)``: a clip and a
    window of it, then ``draw(window, ri)`` for the (source, clean) pair,
    then the path time t.  A non-finite loss, or one above
    :data:`DIVERGED_LOSS_RATIO` times the mean square of its target, stops
    training before the optimizer applies its gradients."""
    iterations = _iterations(train_cfg, dataset, optimizer, start_iter, n_iters)
    if optimizer is None:
        optimizer = AdamW(params, train_cfg)
    cond = Conditioning.zeros(params.cond_dim)
    losses = []
    for it in iterations:
        ri = rng.split(it)
        clip = dataset[int(ri.integers(0, len(dataset))[0])]
        frames = train_cfg.frames_at(it)
        source, clean = draw(_clip_window(clip, frames, ri.split(0)), ri)
        t = 0.001 + 0.998 * float(ri.uniform(1)[0])
        loss, grads = refiner_loss(params, source, clean, t, cond)
        if not math.isfinite(loss):
            raise ContractError(f"training loss {loss} is not finite at iteration {it} ({frames} frames)")
        target_ms = float(np.mean(np.square(source.values - clean.values)))
        if target_ms > 0 and loss > DIVERGED_LOSS_RATIO * target_ms:
            raise ContractError(f"training diverged at iteration {it} ({frames} frames): loss {loss:.6g} "
                                f"is {loss / target_ms:.3g} times its target's mean square "
                                f"(the limit is {DIVERGED_LOSS_RATIO:g})")
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
    start_iter: int | None = None,
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
    start_iter: int | None = None,
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
    model: VelocityModel | None = None,
) -> LatentGrid:
    """Upsample the preview and integrate the refiner flow from t=1 to t=0
    on a linear schedule (NFE = n_steps).  The velocity is ``model``, by
    default ``forward_velocity`` on ``params``; the CLI passes that one
    wrapped in a :class:`~vidflow.preview.CountedModel`."""
    sched = build_schedule(n_steps)
    z = resize_spatial(preview_lo, target_hw[0], target_hw[1])
    if model is None:
        model = lambda x, s, c: forward_velocity(params, x, s, c)  # noqa: E731
    return sample_ode(model, z, sched, cond)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    path,
    params: DenoiserParams,
    optimizer: AdamW | None = None,
    meta: dict | None = None,
) -> None:
    """Write ``path``: one LGR1 record per tensor in
    :meth:`DenoiserParams.tensor_shapes` order, then, with an optimizer, every
    first moment and every second moment in that order; and ``path`` +
    ``.index``: ``meta <key> <value>`` lines, the architecture first, then
    ``opt_t`` when moments follow, then ``meta``."""
    header = {k: getattr(params, k) for k in _ARCH_KEYS}
    groups = [params.tensors]
    if optimizer is not None:
        header["opt_t"] = optimizer.t
        groups += [optimizer.m, optimizer.v]
    # both files go to temporary names first and the index is renamed last,
    # so a write that fails leaves the previous checkpoint whole
    with replaced(path, f"{path}.index") as (blob, index):
        with open(blob, "wb") as fh:
            for group in groups:
                for name in params.tensor_shapes():
                    write_record(fh, group[name])
        with open(index, "w") as fh:
            fh.write("".join(f"meta {k} {v}\n" for k, v in {**header, **(meta or {})}.items()))


def load_checkpoint(path, train_cfg: TrainConfig | None = None):
    """Inverse of :func:`save_checkpoint`; returns (params, optimizer-or-None,
    meta dict).  ``train_cfg`` is required to reconstruct the optimizer.  An
    index line other than ``meta <key> <value>``, a non-integer or invalid
    architecture, a negative ``opt_t``, a record that
    :func:`~vidflow.grids.read_record` refuses or whose header axes differ
    from the architecture's shape, or a byte after the last record the index
    implies raises :class:`FormatError` naming the line, record or byte."""
    index = f"{path}.index"
    try:
        with open(index) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError as exc:
        raise FormatError(f"missing index file for checkpoint {path}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{index}: not a text index: {exc}") from exc
    meta = {}
    for no, line in enumerate(lines, 1):
        parts = line.split()
        if parts[:1] == ["meta"] and len(parts) == 3:
            meta[parts[1]] = parts[2]
        elif parts:
            raise FormatError(f"{index} line {no}: expected 'meta <key> <value>', got {line!r}")

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
    opt_t = meta_int("opt_t") if "opt_t" in meta else None
    if opt_t is not None and opt_t < 0:
        raise FormatError(f"{index}: meta opt_t must be >= 0, got {opt_t}")
    with open(path, "rb") as fh:
        blob = fh.read()
    groups = [{}] if opt_t is None else [{}, {}, {}]
    offset = 0
    for group, prefix in zip(groups, ("", "opt.m.", "opt.v.")):
        for key, shape in params._shapes():  # made as read: a record the blob lacks stops it
            name = prefix + key
            axes, values, end = read_record(blob, offset, f"{path} record {name!r}")
            if axes != record_axes(shape):
                raise FormatError(f"{path}: record {name!r} header at byte {offset + 8} has axes {axes}, "
                                  f"the architecture needs {record_axes(shape)}")
            group[key] = values.reshape(shape)
            offset = end
    if offset != len(blob):
        raise FormatError(f"{path}: expected {offset} bytes, got {len(blob)} "
                          f"(trailing data at byte {offset}, after record {name!r})")
    params.tensors = groups[0]
    optimizer = None
    if opt_t is not None and train_cfg is not None:
        optimizer = AdamW(params, train_cfg)
        optimizer.t = opt_t
        for name in params.tensors:
            optimizer.m[name][...] = groups[1][name]
            optimizer.v[name][...] = groups[2][name]
    return params, optimizer, meta
