"""Derandomized fuzzing of LGR1, checkpoint and manifest bytes, and of
config values.

Each byte example applies one edit to a small valid file: a single-byte
overwrite, a truncation or an append.  The readers must then either return or
raise :class:`FormatError` (:class:`ConfigError` too for a manifest), and
``vidflow inspect`` must exit 0 or 3.  Each config example sets one key of a
verb to one JSON value, with the verb's inputs missing: the verb must exit 2
or 3 (``profile``, which reads no input, 0 or 2).  The examples are a fixed function of each test (``derandomize=True``),
so the suite stays deterministic.
"""

import contextlib
import io
import json
import math
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vidflow as vf
from vidflow.cli import _SCHEMAS, main, replay_manifest
from vidflow.denoiser import AdamW, DenoiserParams, TrainConfig, load_checkpoint, save_checkpoint
from vidflow.errors import ConfigError, FormatError

FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None)
TRAIN = TrainConfig(lr=1e-3)


def _edited(data: bytes, draw) -> bytes:
    kind = draw(st.sampled_from(["overwrite", "truncate", "append"]))
    if kind == "overwrite":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    return data + draw(st.binary(min_size=1, max_size=64))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def grid_bytes(workdir):
    path = workdir / "grid.lgr"
    vf.write_lgr1(vf.sample_gaussian(vf.Extent5(1, 2, 3, 4, 4), vf.Rng(0)), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def checkpoint(workdir):
    """A checkpoint with optimizer moments and a zero-length ``cond.w``."""
    p = DenoiserParams.init(patch=1, d=6, heads=1, depth=2, w_t=2, channels=1, cond_dim=0, rng=vf.Rng(0))
    opt = AdamW(p, TRAIN)
    opt.step(p, {k: v + 0.5 for k, v in p.tensors.items()})
    path = workdir / "model.ckpt"
    save_checkpoint(path, p, opt)
    return path


def _load_or_format_error(path, train_cfg) -> None:
    try:
        load_checkpoint(path, train_cfg)
    except FormatError:
        pass


@FUZZ
@given(st.data())
def test_edited_grid_file_is_read_or_refused(workdir, grid_bytes, data):
    path = workdir / "edited.lgr"
    path.write_bytes(_edited(grid_bytes, data.draw))
    try:
        vf.read_lgr1(path)
        code = 0
    except FormatError:
        code = 3
    assert main(["inspect", str(path)]) == code


@FUZZ
@given(st.data())
def test_edited_checkpoint_blob_is_loaded_or_refused(workdir, checkpoint, data):
    path = workdir / "edited.ckpt"
    shutil.copyfile(f"{checkpoint}.index", f"{path}.index")
    path.write_bytes(_edited(checkpoint.read_bytes(), data.draw))
    for train_cfg in (None, TRAIN):
        _load_or_format_error(path, train_cfg)


@FUZZ
@given(st.data())
def test_edited_checkpoint_index_is_loaded_or_refused(workdir, checkpoint, data):
    path = workdir / "edited.ckpt"
    shutil.copyfile(checkpoint, path)
    with open(f"{checkpoint}.index", "rb") as fh:
        index = fh.read()
    with open(f"{path}.index", "wb") as fh:
        fh.write(_edited(index, data.draw))
    for train_cfg in (None, TRAIN):
        _load_or_format_error(path, train_cfg)


JSON_VALUES = st.one_of(
    st.sampled_from([0, -1, -0.5, 2**70, -(2**70), math.nan, math.inf, -math.inf, True, False,
                     "", "a\0b", [], [0, -1], [2**70, 8], {}, None]),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
)


@FUZZ
@given(st.data())
def test_config_value_is_refused_before_the_missing_inputs(workdir, data):
    verb = data.draw(st.sampled_from(["train", "preview", "refine", "profile"]))
    key = data.draw(st.sampled_from(sorted(_SCHEMAS[verb])))
    missing = str(workdir / "missing")
    cfg = {"train": {"dataset": missing}, "preview": {"checkpoint": missing},
           "refine": {"checkpoint": missing, "preview": missing}, "profile": {}}[verb]
    cfg = {**cfg, "out": str(workdir / "out.lgr"), key: data.draw(JSON_VALUES)}
    argv = [verb] + [arg for k, v in cfg.items() for arg in ("--set", f"{k}={json.dumps(v)}")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        # profile reads no input, so a value it accepts runs it to the end
        assert main(argv) in ((0, 2) if verb == "profile" else (2, 3))


@pytest.fixture(scope="module")
def profile_manifest(workdir):
    out = workdir / "profile.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["profile", "--set", f"out={out}"]) == 0
    return (workdir / "profile.csv.manifest").read_bytes()


@FUZZ
@given(st.data())
def test_edited_manifest_is_replayed_or_refused(workdir, profile_manifest, data):
    path = workdir / "edited.manifest"
    path.write_bytes(_edited(profile_manifest, data.draw))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            replay_manifest(path, {"out": str(workdir / "replayed.csv")})
    except (ConfigError, FormatError):
        pass
