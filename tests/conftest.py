"""Shared fixtures: the fixed-seed synthetic training rig."""

import pytest

import vidflow as vf
from vidflow.denoiser import (
    AdamW,
    DegradationConfig,
    ToyCodec,
    TrainConfig,
    _train,
    degrade_pair,
    synth_video,
    train_refiner,
)

RIG_SEED = 42
RIG_DEG = DegradationConfig(
    blur_radius=1, blur_strength=0.7, downup_factor=2,
    latent_noise=0.05, latent_downup_factor=2,
)
RIG_TRAIN = TrainConfig(
    lr=1e-2, phase1_frames=5, phase1_iters=100, phase2_frames=9, phase2_iters=100
)


def make_rig_dataset(rng: vf.Rng, n_clips: int = 32) -> list[vf.LatentGrid]:
    extent = vf.Extent5(1, 3, 12, 16, 16)
    return [synth_video("bouncing_rect", extent, rng.split(1000 + i)) for i in range(n_clips)]


def train_base(dataset, codec, train_cfg, rng, params):
    """A straight base-model run, as ``vidflow train --set target=base`` makes
    it: a fresh AdamW, then every iteration of the training loop's base
    branch.  Returns (params, optimizer, losses)."""
    optimizer = AdamW(params, train_cfg)
    losses = [loss for _, loss in _train("base", dataset, codec, None, train_cfg, rng, params, optimizer)]
    return params, optimizer, losses


def make_heldout(rng: vf.Rng, n_items: int = 20):
    """(preview_lo, upsampled baseline, target) triples for the improvement
    benchmark."""
    codec = ToyCodec()
    items = []
    for i in range(n_items):
        r = rng.split(5000 + i)
        clip = synth_video("bouncing_rect", vf.Extent5(1, 3, 8, 16, 16), r)
        z_lr, z_hr = degrade_pair(clip, codec, RIG_DEG, rng=r.split(1))
        lo = vf.resize_spatial(z_lr, 4, 4)
        up = vf.resize_spatial(lo, 8, 8)
        items.append((lo, up, z_hr))
    return items


RIG_WALL_S = {}


@pytest.fixture(scope="session")
def trained_rig():
    """32-clip fixed-seed rig trained for 200 iterations (progressive 5 -> 9
    frames); returns (params, losses, held-out items)."""
    import time

    t0 = time.monotonic()
    rng = vf.Rng(RIG_SEED)
    dataset = make_rig_dataset(rng)
    params, _, losses = train_refiner(dataset, ToyCodec(), RIG_DEG, RIG_TRAIN, rng)
    heldout = make_heldout(rng)
    RIG_WALL_S["train"] = time.monotonic() - t0
    return params, losses, heldout
