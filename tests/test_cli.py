import json
import math
import os
import re
import stat
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import vidflow as vf
from vidflow import __version__
from vidflow.cli import main, read_manifest, replay_manifest


FAST_TRAIN = [
    "--set", "phase1_iters=3", "--set", "phase2_iters=2",
    "--set", "phase1_frames=3", "--set", "phase2_frames=4",
    "--set", "d=6", "--set", "heads=1", "--set", "lr=0.001",
]
SMALL_PREVIEW = ["--set", "n_total=4", "--set", "k=1", "--set", "hi=[4,4]", "--set", "lo=[2,2]",
                 "--set", "frames=2"]


def _replace(pattern, repl):
    return lambda lines: [re.sub(pattern, repl, ln) for ln in lines]


# Edits of a trained checkpoint's index (d=6, 48 values per token) that
# load_checkpoint must reject with a FormatError.
CHECKPOINT_INDEX_PROBES = {
    "meta_without_value": _replace(r"^meta d 6$", "meta d"),
    "meta_not_an_integer": _replace(r"^meta d 6$", "meta d six"),
    "tensor_line": lambda lines: lines + ["tensor embed.w 0 48,6"],
    "unknown_line_kind": lambda lines: lines + ["weights embed.w 0 48,6"],
    "odd_window": _replace(r"^meta w_t 4$", "meta w_t 3"),
}

# Edits of a preview manifest that replay must refuse before loading anything.
MANIFEST_PROBES = {
    "wrong_type": (lambda text: text.replace('"hi": [8, 8]', '"hi": 4'), vf.ConfigError),
    "unknown_key": (lambda text: text.replace('"k": 1,', '"k": 1, "bogus": 1,'), vf.ConfigError),
    "other_version": (lambda text: text.replace(f"version {__version__}", "version 9.9.9"), vf.FormatError),
    "not_replayable": (lambda text: text.replace("command preview", "command inspect"), vf.FormatError),
    "config_not_an_object": (lambda text: re.sub(r"(?m)^config_json .*$", "config_json [1]", text),
                             vf.FormatError),
}


def run(*argv):
    return main(list(argv))


# Runs ``vidflow argv`` and prints its wall time; the child's address space is
# capped, so a per-block table built for a huge ``depth`` fails fast instead of
# filling the machine's memory.
BOUNDED_SCRIPT = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from vidflow.cli import main
t0 = time.perf_counter()
rc = main(sys.argv[1:])
print(time.perf_counter() - t0)
sys.exit(rc)
"""


def run_bounded(*argv) -> tuple[int, float]:
    """Exit code and wall seconds of ``vidflow argv`` run in a child process
    under a 1 GiB address-space cap (one BLAS thread, whose buffers the cap
    then holds on any number of cores)."""
    src = os.path.dirname(os.path.dirname(vf.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", BOUNDED_SCRIPT, *map(str, argv)], env=env,
                           capture_output=True, text=True, timeout=60)
    return child.returncode, float(child.stdout.splitlines()[-1])


def _record_offset(checkpoint, name) -> int:
    """Byte offset of tensor ``name``'s record: the records before it, one per
    tensor in the architecture's order, take 48 + 8 * size bytes each."""
    shapes = vf.load_checkpoint(checkpoint)[0].tensor_shapes()
    earlier = list(shapes)[: list(shapes).index(name)]
    return sum(48 + 8 * math.prod(shapes[n]) for n in earlier)


def _overwrite(path, offset: int, data: bytes) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset : offset + len(data)] = data
    path.write_bytes(bytes(blob))


@pytest.fixture()
def counted_forwards(monkeypatch):
    """The list that gets one entry per ``denoiser.forward_velocity`` call."""
    from vidflow import denoiser

    calls = []
    original = denoiser.forward_velocity

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(denoiser, "forward_velocity", counting)
    return calls


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data.lgr"
    assert run(
        "synth", "--set", f"out={out}", "--set", "count=3",
        "--set", "frames=6", "--set", "height=8", "--set", "width=8",
    ) == 0
    return out


@pytest.fixture()
def checkpoint(tmp_path, dataset):
    ckpt = tmp_path / "refiner.lgr"
    assert run(
        "train", "--set", f"dataset={dataset}", "--set", f"out={ckpt}", *FAST_TRAIN,
    ) == 0
    return ckpt


SMALL_SYNTH = ["--set", "count=2", "--set", "frames=4", "--set", "height=8", "--set", "width=8"]


class TestSynth:
    def test_one_file_of_count_clips_beside_its_manifest(self, tmp_path, dataset):
        """Clip ``i`` is the clip ``synth_video`` draws from ``Rng(seed).split(i)``."""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.lgr", "data.lgr.manifest"]
        grid = vf.read_lgr1(dataset)
        assert grid.extent == vf.Extent5(3, 3, 6, 8, 8)
        for i in range(3):
            clip = vf.synth_video("bouncing_rect", vf.Extent5(1, 3, 6, 8, 8), vf.Rng(0).split(i))
            assert np.array_equal(grid.values[i : i + 1], clip.values), i
        m = read_manifest(str(dataset) + ".manifest")
        assert m["command"] == "synth"
        assert m["config"]["count"] == 3 and m["clips"] == "3"

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.lgr", tmp_path / "b.lgr"
        for out in (a, b):
            assert run("synth", "--set", f"out={out}", *SMALL_SYNTH) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_section(self, tmp_path):
        """A ``--config`` run writes the bytes the same keys give through ``--set``."""
        a, b = tmp_path / "a.lgr", tmp_path / "b.lgr"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"synth": {"out": str(a), "count": 2, "frames": 4, "height": 8, "width": 8}}))
        assert run("synth", "--config", str(cfgfile)) == 0
        assert run("synth", "--set", f"out={b}", *SMALL_SYNTH) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_moving_gaussian(self, tmp_path):
        out = tmp_path / "d.lgr"
        assert run("synth", "--set", f"out={out}", "--set", "kind=moving_gaussian", "--set", "count=2",
                   "--set", "frames=3", "--set", "height=8", "--set", "width=8") == 0
        clips = vf.read_lgr1(out).values
        assert clips.shape == (2, 3, 3, 8, 8) and 0.0 <= clips.min() and clips.max() <= 1.0

    def test_inspect_reads_the_dataset(self, dataset, capsys):
        capsys.readouterr()
        assert run("inspect", str(dataset)) == 0
        out = capsys.readouterr().out
        assert "extent    b=3 c=3 f=6 h=8 w=8" in out and "nan_count 0" in out


class TestExitCodes:
    def test_unknown_key_is_2(self, tmp_path):
        assert run("synth", "--set", f"out={tmp_path}/x", "--set", "bogus=1") == 2

    def test_missing_required_is_2(self):
        assert run("synth") == 2

    def test_malformed_override_is_2(self, tmp_path):
        assert run("synth", "--set", "out") == 2

    def test_missing_config_file_is_3(self, tmp_path):
        assert run("synth", "--config", str(tmp_path / "nope.json")) == 3

    @pytest.mark.parametrize("text", ["[1, 2]", '{"synth": [1]}'])
    def test_config_file_not_an_object_is_2(self, tmp_path, text):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        assert run("synth", "--config", str(cfgfile)) == 2

    @pytest.mark.parametrize("raw,named", [
        ({"ratee": 2e-15}, "ratee"),  # a flat file with a misspelled key
        ({"out": "OUT", "ratee": 2e-15}, "out"),  # a flat file holding every required key
        ({"profle": {"rate": 2e-15}}, "profle"),  # a misspelled verb
        ({"profile": {"rate": 2e-15}, "refine": 1}, "refine"),  # a section that is not an object
    ], ids=["flat_misspelled", "flat_complete", "misspelled_verb", "section_not_an_object"])
    def test_config_file_key_that_is_not_a_verb_section_is_2(self, tmp_path, capsys, raw, named):
        """Every top-level key names a verb and holds an object; any other is
        refused, named, before anything is written, not dropped with the file."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(raw).replace("OUT", str(tmp_path / "in_file.csv")))
        assert run("profile", "--config", str(cfgfile), "--set", f"out={tmp_path / 'r.csv'}") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file section {named!r} must be an object")
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_config_file_without_the_verbs_section_gives_the_defaults(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"preview": {"k": 3}, "refine": {"n_steps": 2}}))
        out = tmp_path / "r.csv"
        assert run("profile", "--config", str(cfgfile), "--set", f"out={out}") == 0
        assert read_manifest(str(out) + ".manifest")["config"]["rate"] == 1e-15

    def test_invalid_json_config_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("synth", "--config", str(bad)) == 2

    @pytest.mark.parametrize("config,override", [
        (b'\xff\xfe{"profile": {}}', None),
        (b"[" * 200_000 + b"]" * 200_000, None),
        (None, "k_values=" + "[" * 30_000 + "]" * 30_000),
    ], ids=["config_not_utf8", "config_nested_deep", "override_nested_deep"])
    def test_json_that_cannot_be_decoded_is_2(self, tmp_path, capsys, config, override):
        """A config file that is not UTF-8, or JSON nested deeper than the
        decoder goes, is a config error with no traceback and nothing written."""
        argv = ["--set", f"out={tmp_path / 'r.csv'}"]
        if config is not None:
            (tmp_path / "cfg.json").write_bytes(config)
            argv += ["--config", str(tmp_path / "cfg.json")]
        if override is not None:
            argv += ["--set", override]
        assert run("profile", *argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "r.csv").exists()

    def test_corrupt_lgr_is_3(self, tmp_path):
        bad = tmp_path / "bad.lgr"
        bad.write_bytes(b"garbage")
        assert run("inspect", str(bad)) == 3

    def _refine(self, tmp_path, checkpoint):
        prev = tmp_path / "prev.lgr"
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 12, 4, 4, 4)), prev)
        return run("refine", "--set", f"checkpoint={checkpoint}", "--set", f"preview={prev}",
                   "--set", f"out={tmp_path / 'refined.lgr'}", "--set", "n_steps=1")

    def test_truncated_checkpoint_is_3(self, tmp_path, checkpoint):
        blob = checkpoint.read_bytes()
        checkpoint.write_bytes(blob[: len(blob) - 8])
        assert self._refine(tmp_path, checkpoint) == 3

    def test_checkpoint_of_a_huge_depth_is_3_at_once(self, tmp_path, checkpoint):
        """The records are read as the architecture's shapes are made, so a
        depth the blob cannot hold stops at the first record it lacks."""
        index = tmp_path / "refiner.lgr.index"
        index.write_text(index.read_text().replace("meta depth 2\n", "meta depth 2000000000\n"))
        out = tmp_path / "prev.lgr"
        code, seconds = run_bounded("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={out}")
        assert code == 3 and not out.exists() and seconds < 1.0

    def test_train_of_a_huge_depth_checks_its_inputs_at_once(self, tmp_path):
        """Building the architecture only checks it: the missing dataset is
        seen at once, and nothing is written."""
        code, seconds = run_bounded("train", "--set", f"dataset={tmp_path / 'none'}",
                                    "--set", f"out={tmp_path / 'm.lgr'}", "--set", "depth=2000000000")
        assert code == 3 and os.listdir(tmp_path) == [] and seconds < 1.0

    def test_checkpoint_missing_meta_key_is_3(self, tmp_path, checkpoint):
        index = tmp_path / "refiner.lgr.index"
        lines = index.read_text().splitlines()
        index.write_text("\n".join(ln for ln in lines if ln != "meta d 6") + "\n")
        assert len(index.read_text().splitlines()) == len(lines) - 1
        assert self._refine(tmp_path, checkpoint) == 3

    @pytest.mark.parametrize("probe", sorted(CHECKPOINT_INDEX_PROBES))
    def test_malformed_checkpoint_index_is_3(self, tmp_path, checkpoint, capsys, probe):
        index = tmp_path / "refiner.lgr.index"
        lines = index.read_text().splitlines()
        edited = CHECKPOINT_INDEX_PROBES[probe](lines)
        assert edited != lines
        index.write_text("\n".join(edited) + "\n")
        assert self._preview(tmp_path, checkpoint) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert not (tmp_path / "prev.lgr").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("verb", ["inspect", "refine"])
    def test_non_finite_grid_is_3(self, tmp_path, checkpoint, counted_forwards, capsys, verb, value):
        prev = tmp_path / "prev.lgr"
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 12, 4, 4, 4)), prev)
        _overwrite(prev, 48 + 8 * 5, np.array([value], "<f8").tobytes())
        out = tmp_path / "refined.lgr"
        argv = {"inspect": ["inspect", str(prev)],
                "refine": ["refine", "--set", f"checkpoint={checkpoint}", "--set", f"preview={prev}",
                           "--set", f"out={out}", "--set", "n_steps=1"]}[verb]
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert f"at byte {48 + 8 * 5}" in err
        assert counted_forwards == [] and not out.exists()

    def _preview(self, tmp_path, checkpoint):
        return run("preview", "--set", f"checkpoint={checkpoint}",
                   "--set", f"out={tmp_path / 'prev.lgr'}", "--set", "n_total=4", "--set", "k=1",
                   "--set", "hi=[4,4]", "--set", "lo=[2,2]", "--set", "frames=2")

    @pytest.mark.parametrize("name", ["block0.wq", "head.b"])
    def test_non_finite_checkpoint_record_is_3_before_any_forward(self, tmp_path, checkpoint,
                                                                   counted_forwards, capsys, name):
        byte = _record_offset(checkpoint, name) + 48 + 8 * 2
        _overwrite(checkpoint, byte, np.array([np.nan], "<f8").tobytes())
        assert self._preview(tmp_path, checkpoint) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert name in err and f"at byte {byte}" in err
        assert counted_forwards == [] and not (tmp_path / "prev.lgr").exists()

    def test_record_header_transposed_against_architecture_is_3(self, tmp_path, checkpoint, capsys):
        offset = _record_offset(checkpoint, "embed.w")
        assert struct.unpack_from("<5Q", checkpoint.read_bytes(), offset + 8) == (1, 1, 1, 48, 6)
        _overwrite(checkpoint, offset + 8, struct.pack("<5Q", 1, 1, 1, 6, 48))
        assert self._preview(tmp_path, checkpoint) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert f"byte {offset + 8}" in err and "the architecture needs (1, 1, 1, 48, 6)" in err
        assert not (tmp_path / "prev.lgr").exists()

    def test_byte_after_the_last_record_is_3(self, tmp_path, checkpoint, counted_forwards, capsys):
        end = checkpoint.stat().st_size
        with open(checkpoint, "ab") as fh:
            fh.write(b"\0")
        assert self._preview(tmp_path, checkpoint) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert f"trailing data at byte {end}, after record 'opt.v.head.b'" in err
        assert counted_forwards == [] and not (tmp_path / "prev.lgr").exists()

    def test_dataset_that_is_a_directory_is_3(self, tmp_path, capsys):
        """A directory of clips and an ``index.txt`` (the earlier dataset format) is not a dataset."""
        old = tmp_path / "old"
        old.mkdir()
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 3, 6, 8, 8)), old / "clip_0000.lgr")
        (old / "index.txt").write_text("clip_0000.lgr\n")
        before = sorted(tmp_path.rglob("*"))
        assert run("train", "--set", f"dataset={old}",
                   "--set", f"out={tmp_path / 'ckpt.lgr'}", *FAST_TRAIN) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_preview_size_off_patch_is_2_before_any_forward(self, tmp_path, checkpoint, counted_forwards):
        assert run("preview", "--set", f"checkpoint={checkpoint}",
                   "--set", f"out={tmp_path / 'prev.lgr'}", "--set", "n_total=6", "--set", "k=2",
                   "--set", "hi=[8,8]", "--set", "lo=[5,5]", "--set", "frames=4") == 2
        assert counted_forwards == []

    @pytest.mark.parametrize("channels,reason", [
        (6, "latent channels must be divisible by 4, got 6"),
        (8, "8 latent channels decode to 2, which PPM frames cannot show as RGB"),
    ])
    def test_frames_dir_without_rgb_is_2_before_any_forward(self, tmp_path, counted_forwards, capsys,
                                                            channels, reason):
        ckpt, prev = tmp_path / "ckpt.lgr", tmp_path / "prev.lgr"
        vf.save_checkpoint(ckpt, vf.DenoiserParams.init(patch=2, d=6, heads=1, depth=2, w_t=4,
                                                        channels=channels, cond_dim=4, rng=vf.Rng(0)))
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, channels, 4, 4, 4)), prev)
        out, frames = tmp_path / "refined.lgr", tmp_path / "frames"
        assert run("refine", "--set", f"checkpoint={ckpt}", "--set", f"preview={prev}", "--set", f"out={out}",
                   "--set", f"frames_dir={frames}", "--set", "n_steps=2") == 2
        assert capsys.readouterr().err == f"config error: refine.frames_dir: {reason}\n"
        assert counted_forwards == [] and not out.exists() and not frames.exists()

    def test_latent_factor_beyond_the_latent_is_2(self, tmp_path, dataset, capsys):
        """8x8 clips encode to 4x4 latents, which a factor of 8 would shrink to 0x0."""
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={tmp_path / 'ckpt.lgr'}",
                   *FAST_TRAIN, "--set", "latent_downup_factor=8") == 2
        err = capsys.readouterr().err
        assert "latent_downup_factor 8 exceeds the latent's spatial dims (4, 4)" in err
        assert "Traceback" not in err and list(tmp_path.glob("ckpt.lgr*")) == []

    @pytest.mark.parametrize("override", ["hi=8", "count=1O", "batch=1O", "shift=true", "lo=[8,8.5]"])
    def test_value_of_the_wrong_type_is_2(self, tmp_path, override):
        assert run("preview", "--set", f"checkpoint={tmp_path / 'none.lgr'}",
                   "--set", f"out={tmp_path / 'prev.lgr'}", "--set", override) == 2

    @pytest.mark.parametrize("verb,override", [
        ("preview", "batch=0"), ("preview", "frames=0"),
        ("refine", "upscale=0"),
        *[("synth", f"{key}=0") for key in ("count", "channels", "frames", "height", "width")],
        *[("train", f"{key}=0") for key in ("phase1_frames", "phase2_frames", "patch", "d",
                                            "heads", "depth", "w_t")],
        ("train", "phase1_iters=-1"), ("train", "target=refinr"), ("train", "lr=-1"),
        ("preview", "k=0"), ("refine", "n_steps=0"),
        ("preview", "hi=[16]"), ("preview", "lo=[8]"), ("preview", "shift=0.5"),
        ("train", "w_t=3"), ("train", "d=7"), ("train", "depth=3"), ("synth", "kind=bogus"),
        ("train", "dataset=[1,2]"), ("train", "out=null"), ("train", 'out=""'), ("train", "resume=7"),
        ("preview", 'checkpoint="a\\u0000b"'), ("refine", "checkpoint=null"),
        ("refine", 'frames_dir="x\\u0000"'), ("train", "lr=NaN"), ("preview", "shift=Infinity"),
        ("preview", "shift=1e16"), ("preview", f"n_total={2**70}"),
    ])
    def test_count_below_one_is_2_before_loading(self, tmp_path, capsys, verb, override):
        # the inputs do not exist: exit 2 rather than 3, with nothing written,
        # shows the check ran first
        missing = str(tmp_path / "none.lgr")
        inputs = {
            "synth": [],
            "train": ["--set", f"dataset={missing}"],
            "preview": ["--set", f"checkpoint={missing}"],
            "refine": ["--set", f"checkpoint={missing}", "--set", f"preview={missing}"],
        }[verb]
        out = tmp_path / "out.lgr"
        assert run(verb, *inputs, "--set", f"out={out}", "--set", override) == 2
        assert not out.exists()
        # at shift=1e16 the first levels round to 1.0: the schedule is named
        named = {"shift=1e16": "schedule must be strictly decreasing",
                 f"n_total={2**70}": "step count must be in [1, 2**53]"}.get(override, "")
        assert capsys.readouterr().err.startswith(f"config error: {named}")

    @pytest.mark.parametrize("override", ["weight_decay=-1", "weight_decay=-0.001"])
    def test_negative_weight_decay_is_2_before_the_dataset_is_read(self, tmp_path, capsys, override):
        out = tmp_path / "out.lgr"
        assert run("train", "--set", f"dataset={tmp_path / 'none'}", "--set", f"out={out}",
                   "--set", override) == 2
        assert "weight_decay must be a finite number >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_cond_dim_is_2(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "ckpt.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={ckpt}",
                   *FAST_TRAIN, "--set", "cond_dim=-1") == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not ckpt.exists()

    def test_unknown_target_is_2_when_resuming(self, tmp_path, dataset, checkpoint):
        files = [checkpoint, tmp_path / "refiner.lgr.index"]
        before = [f.read_bytes() for f in files]
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={checkpoint}", *FAST_TRAIN,
                   "--set", "target=refinr", "--set", f"resume={checkpoint}") == 2
        assert [f.read_bytes() for f in files] == before

    @pytest.mark.parametrize("overrides,named", [
        (["d=12", "heads=2"], "train.d is 12, the checkpoint"),
        (["target=base"], "train.target is 'base', the checkpoint"),
        # the fixture's optimizer has taken 5 steps, past a total of 4
        (["phase2_iters=1"], "cannot train from iteration 5 to 4 with an optimizer at step 5"),
    ])
    def test_resume_against_the_checkpoint_is_2(self, tmp_path, dataset, checkpoint, capsys,
                                                 overrides, named):
        out = tmp_path / "resumed.lgr"
        sets = [arg for kv in overrides for arg in ("--set", kv)]
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={out}", *FAST_TRAIN, *sets,
                   "--set", f"resume={checkpoint}") == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert list(tmp_path.glob("resumed.lgr*")) == []

    @pytest.mark.parametrize("key,value,named", [
        ("opt_t", "-3", "meta opt_t must be >= 0, got -3"),
    ], ids=["negative_opt_t"])
    def test_resume_from_a_bad_step_count_is_3(self, tmp_path, dataset, checkpoint, capsys,
                                                key, value, named):
        index = tmp_path / "refiner.lgr.index"
        index.write_text(index.read_text().replace(f"meta {key} 5\n", f"meta {key} {value}\n"))
        assert f"meta {key} {value}\n" in index.read_text()
        out = tmp_path / "resumed.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={out}", *FAST_TRAIN,
                   "--set", f"resume={checkpoint}") == 3
        err = capsys.readouterr().err
        assert f"refiner.lgr.index: {named}" in err and "Traceback" not in err
        assert list(tmp_path.glob("resumed.lgr*")) == []

    @pytest.mark.parametrize("verb", ["preview", "refine"])
    def test_size_too_large_to_allocate_is_2(self, tmp_path, checkpoint, capsys, verb):
        """2**50 int64 values are 8 PiB, beyond the address space: numpy
        refuses them before touching memory."""
        out = tmp_path / "out.lgr"
        if verb == "preview":
            argv = ["--set", f"checkpoint={tmp_path / 'none.lgr'}", "--set", f"n_total={2**50}"]
        else:
            prev = tmp_path / "prev.lgr"
            vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 12, 4, 4, 4)), prev)
            argv = ["--set", f"checkpoint={checkpoint}", "--set", f"preview={prev}",
                    "--set", f"n_steps={2**50}"]
        assert run(verb, *argv, "--set", f"out={out}") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "too large to allocate" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.glob("out.lgr*")) == []

    def test_resume_of_a_checkpoint_without_target(self, tmp_path, dataset):
        """The library writes no ``meta target`` line; either target resumes it."""
        params = vf.DenoiserParams.init(patch=2, d=6, heads=1, depth=2, w_t=4, channels=12,
                                        cond_dim=4, rng=vf.Rng(0))
        vf.save_checkpoint(tmp_path / "lib.lgr", params)
        for target in ("base", "refiner"):
            out = tmp_path / f"{target}.lgr"
            assert run("train", "--set", f"dataset={dataset}", "--set", f"out={out}", *FAST_TRAIN,
                       "--set", f"target={target}", "--set", f"resume={tmp_path / 'lib.lgr'}") == 0
            assert "meta target " + target in (tmp_path / f"{target}.lgr.index").read_text()

    def test_refine_of_a_preview_of_other_channels_is_4(self, tmp_path, checkpoint, capsys):
        prev = tmp_path / "prev.lgr"
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 4, 4, 4, 4)), prev)
        out = tmp_path / "refined.lgr"
        assert run("refine", "--set", f"checkpoint={checkpoint}", "--set", f"preview={prev}",
                   "--set", f"out={out}", "--set", "n_steps=1") == 4
        err = capsys.readouterr().err
        assert "latent has 4 channels, the model takes 12" in err and "Traceback" not in err
        assert not out.exists()

    def test_resume_on_a_dataset_of_other_channels_is_4(self, tmp_path, checkpoint, capsys):
        gray = tmp_path / "gray"
        assert run("synth", "--set", f"out={gray}", "--set", "count=2", "--set", "channels=1",
                   "--set", "frames=6", "--set", "height=8", "--set", "width=8") == 0
        out = tmp_path / "resumed.lgr"
        assert run("train", "--set", f"dataset={gray}", "--set", f"out={out}", *FAST_TRAIN,
                   "--set", "phase2_iters=3", "--set", f"resume={checkpoint}") == 4
        err = capsys.readouterr().err
        assert "latent has 4 channels, the model takes 12" in err and "Traceback" not in err
        assert list(tmp_path.glob("resumed.lgr*")) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_is_4(self, tmp_path, dataset):
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={tmp_path / 'ckpt.lgr'}",
                   *FAST_TRAIN, "--set", "lr=1e200") == 4
        assert not (tmp_path / "ckpt.lgr").exists()

    def test_finite_divergence_is_4(self, tmp_path, dataset, capsys):
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={tmp_path / 'ckpt.lgr'}",
                   *FAST_TRAIN, "--set", "lr=1e6") == 4
        err = capsys.readouterr().err
        assert "training diverged at iteration 1 (3 frames)" in err and "Traceback" not in err
        assert list(tmp_path.glob("ckpt.lgr*")) == []

    def test_manifest_not_in_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_bytes(b"command profile\nversion 0.1.0\xff\nconfig_json {}\n")
        with pytest.raises(vf.FormatError, match="not a UTF-8 manifest"):
            replay_manifest(path)

    def test_manifest_nested_too_deep_is_format_error(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text(f"command profile\nversion {__version__}\nconfig_json {'[' * 30_000}{']' * 30_000}\n")
        with pytest.raises(vf.FormatError, match="config_json is not valid JSON"):
            replay_manifest(path)

    def test_manifest_with_bad_config_json_is_format_error(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text("command preview\nversion 0.1.0\nconfig_json {not json\n")
        with pytest.raises(vf.FormatError):
            read_manifest(path)

    def test_existing_checkpoint_without_force_is_2(self, tmp_path, dataset, checkpoint):
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={checkpoint}", *FAST_TRAIN) == 2
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={checkpoint}",
                   "--set", "force=true", *FAST_TRAIN) == 0

    def test_resume_into_another_existing_checkpoint_without_force_is_2(self, tmp_path, dataset,
                                                                         checkpoint, capsys):
        other = tmp_path / "other.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={other}", *FAST_TRAIN,
                   "--set", "seed=1") == 0
        written = {path: path.read_bytes() for path in tmp_path.glob("other.lgr*")}
        capsys.readouterr()
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={other}", *FAST_TRAIN,
                   "--set", "phase2_iters=3", "--set", f"resume={checkpoint}") == 2
        assert capsys.readouterr().err == f"config error: checkpoint {other} exists (pass force=true to overwrite)\n"
        assert {path: path.read_bytes() for path in tmp_path.glob("other.lgr*")} == written

    def test_resume_in_place_needs_no_force(self, tmp_path, dataset, checkpoint):
        """It matches a straight run of the longer schedule, byte for byte."""
        straight = tmp_path / "straight.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={straight}", *FAST_TRAIN,
                   "--set", "phase2_iters=3") == 0
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={checkpoint}", *FAST_TRAIN,
                   "--set", "phase2_iters=3", "--set", f"resume={checkpoint}") == 0
        for a, b in ((straight, checkpoint), (f"{straight}.index", f"{checkpoint}.index")):
            assert open(a, "rb").read() == open(b, "rb").read(), b


class TestOutputPath:
    """An output whose directory is missing, or that exists and is not a
    regular file, is exit 3 naming it before any input is read: no forward,
    no training iteration and no file written or replaced."""

    @pytest.fixture(params=["missing_directory", "directory", "fifo"])
    def bad_out(self, request, tmp_path):
        """(the output path, the error line that names it)"""
        if request.param == "directory":
            out = tmp_path / "outdir"
            out.mkdir()
            return out, f"i/o error: output {out} is a directory\n"
        if request.param == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("os.mkfifo is missing on this platform")
            out = tmp_path / "out.fifo"
            os.mkfifo(out)
            return out, f"i/o error: output {out} is not a regular file\n"
        out = tmp_path / "nodir" / "out.lgr"
        return out, f"i/o error: output {out}: {tmp_path / 'nodir'} is not a directory\n"

    @staticmethod
    def _listing(tmp_path):
        """Every path under ``tmp_path`` with its file type (a FIFO stays one)."""
        return [(p, stat.S_IFMT(p.lstat().st_mode)) for p in sorted(tmp_path.rglob("*"))]

    def _refused(self, tmp_path, capsys, bad_out, *argv):
        out, err = bad_out
        capsys.readouterr()
        before = self._listing(tmp_path)
        assert run(*argv, "--set", f"out={out}") == 3
        assert capsys.readouterr() == ("", err)
        assert self._listing(tmp_path) == before

    def test_train(self, tmp_path, dataset, monkeypatch, capsys, bad_out):
        from vidflow import denoiser

        iterations = []
        loss = denoiser.refiner_loss
        monkeypatch.setattr(denoiser, "refiner_loss", lambda *args: iterations.append(1) or loss(*args))
        self._refused(tmp_path, capsys, bad_out, "train", "--set", f"dataset={dataset}", *FAST_TRAIN)
        assert iterations == []

    def test_preview(self, tmp_path, checkpoint, counted_forwards, capsys, bad_out):
        self._refused(tmp_path, capsys, bad_out, "preview", "--set", f"checkpoint={checkpoint}",
                      "--set", "n_total=4", "--set", "k=1", "--set", "hi=[4,4]", "--set", "lo=[2,2]",
                      "--set", "frames=2")
        assert counted_forwards == []

    def test_refine(self, tmp_path, checkpoint, counted_forwards, capsys, bad_out):
        prev = tmp_path / "prev.lgr"
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 12, 4, 4, 4)), prev)
        self._refused(tmp_path, capsys, bad_out, "refine", "--set", f"checkpoint={checkpoint}",
                      "--set", f"preview={prev}", "--set", "n_steps=1")
        assert counted_forwards == []

    def test_profile(self, tmp_path, capsys, bad_out):
        self._refused(tmp_path, capsys, bad_out, "profile")

    def test_synth(self, tmp_path, monkeypatch, capsys, bad_out):
        from vidflow import cli

        monkeypatch.setattr(cli, "synth_video", lambda *args: pytest.fail("a clip was drawn"))
        self._refused(tmp_path, capsys, bad_out, "synth", *SMALL_SYNTH)

    def test_refine_frames_dir_whose_directory_is_missing(self, tmp_path, checkpoint, counted_forwards, capsys):
        """``frames_dir`` is made by the run, but only inside a directory that exists."""
        prev, frames = tmp_path / "prev.lgr", tmp_path / "nodir" / "frames"
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 12, 4, 4, 4)), prev)
        capsys.readouterr()
        before = self._listing(tmp_path)
        assert run("refine", "--set", f"checkpoint={checkpoint}", "--set", f"preview={prev}",
                   "--set", f"out={tmp_path / 'out.lgr'}", "--set", f"frames_dir={frames}",
                   "--set", "n_steps=1") == 3
        assert capsys.readouterr() == (
            "", f"i/o error: refine.frames_dir {frames}: {tmp_path / 'nodir'} is not a directory\n")
        assert self._listing(tmp_path) == before
        assert counted_forwards == []

    def test_refine_frames_dir_that_is_a_file(self, tmp_path, checkpoint, counted_forwards, capsys):
        prev, frames = tmp_path / "prev.lgr", tmp_path / "frames"
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 12, 4, 4, 4)), prev)
        frames.write_bytes(b"")
        capsys.readouterr()
        before = self._listing(tmp_path)
        assert run("refine", "--set", f"checkpoint={checkpoint}", "--set", f"preview={prev}",
                   "--set", f"out={tmp_path / 'out.lgr'}", "--set", f"frames_dir={frames}",
                   "--set", "n_steps=1") == 3
        assert capsys.readouterr() == ("", f"i/o error: refine.frames_dir {frames} is not a directory\n")
        assert self._listing(tmp_path) == before
        assert counted_forwards == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is missing on this platform")
class TestLaterOutputPath:
    """Every file a command writes, not only ``out``, is exit 3 naming it when
    its path exists and is not a regular file; the FIFO there stays one."""

    @staticmethod
    def _refused(capsys, fifo, *argv):
        os.mkfifo(fifo)
        capsys.readouterr()
        assert run(*argv) == 3
        assert capsys.readouterr().err == f"i/o error: output {fifo} is not a regular file\n"
        assert stat.S_ISFIFO(fifo.lstat().st_mode)

    def test_preview_manifest(self, tmp_path, checkpoint, counted_forwards, capsys):
        self._refused(capsys, tmp_path / "out.lgr.manifest", "preview", "--set", f"checkpoint={checkpoint}",
                      "--set", f"out={tmp_path / 'out.lgr'}", *SMALL_PREVIEW)
        assert counted_forwards == []

    def test_refine_manifest(self, tmp_path, checkpoint, counted_forwards, capsys):
        prev = tmp_path / "prev.lgr"
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 12, 4, 4, 4)), prev)
        self._refused(capsys, tmp_path / "out.lgr.manifest", "refine", "--set", f"checkpoint={checkpoint}",
                      "--set", f"preview={prev}", "--set", f"out={tmp_path / 'out.lgr'}", "--set", "n_steps=1")
        assert counted_forwards == [] and not (tmp_path / "out.lgr").exists()

    def test_preview_temporary(self, tmp_path, checkpoint, counted_forwards, capsys):
        """A FIFO where ``out``'s temporary goes would block the write for good."""
        self._refused(capsys, tmp_path / "out.lgr.tmp", "preview", "--set", f"checkpoint={checkpoint}",
                      "--set", f"out={tmp_path / 'out.lgr'}", *SMALL_PREVIEW)
        assert counted_forwards == []

    def _train(self, tmp_path, dataset, monkeypatch, capsys, fifo):
        """No iteration runs and nothing of the checkpoint is written."""
        from vidflow import denoiser

        iterations = []
        loss = denoiser.refiner_loss
        monkeypatch.setattr(denoiser, "refiner_loss", lambda *args: iterations.append(1) or loss(*args))
        self._refused(capsys, fifo, "train", "--set", f"dataset={dataset}",
                      "--set", f"out={tmp_path / 'out.lgr'}", *FAST_TRAIN)
        assert iterations == [] and list(tmp_path.glob("out.lgr*")) == [fifo]

    def test_train_losses(self, tmp_path, dataset, monkeypatch, capsys):
        self._train(tmp_path, dataset, monkeypatch, capsys, tmp_path / "out.lgr.losses.csv")

    def test_train_index(self, tmp_path, dataset, monkeypatch, capsys):
        self._train(tmp_path, dataset, monkeypatch, capsys, tmp_path / "out.lgr.index")

    def test_synth_manifest(self, tmp_path, monkeypatch, capsys):
        """The manifest is checked before any clip is drawn."""
        from vidflow import cli

        monkeypatch.setattr(cli, "synth_video", lambda *args: pytest.fail("a clip was drawn"))
        self._refused(capsys, tmp_path / "d2.lgr.manifest", "synth", "--set", f"out={tmp_path / 'd2.lgr'}",
                      *SMALL_SYNTH)
        assert not (tmp_path / "d2.lgr").exists()

    def test_refine_frame(self, tmp_path, checkpoint, counted_forwards, capsys):
        """Each PPM frame is checked once the preview is read, before the first forward."""
        prev, frames = tmp_path / "prev.lgr", tmp_path / "fr"
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 12, 4, 4, 4)), prev)
        frames.mkdir()
        self._refused(capsys, frames / "frame_0001.ppm", "refine", "--set", f"checkpoint={checkpoint}",
                      "--set", f"preview={prev}", "--set", f"out={tmp_path / 'rq.lgr'}",
                      "--set", f"frames_dir={frames}", "--set", "n_steps=1")
        assert counted_forwards == [] and list(frames.iterdir()) == [frames / "frame_0001.ppm"]
        assert list(tmp_path.glob("rq.lgr*")) == []


class TestFailedWrite:
    """A write that raises part way removes its temporary file and re-raises,
    leaving the directory as it was."""

    def test_atomic_write_bytes(self, tmp_path, monkeypatch):
        import builtins

        from vidflow import cli

        class HalfWritten:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda path, mode: HalfWritten(builtins.open(path, mode)),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            cli._atomic_write_bytes(tmp_path / "out.txt", b"0123456789")
        assert list(tmp_path.iterdir()) == []

    def test_write_grid(self, tmp_path, monkeypatch):
        from vidflow import grids

        def half_record(fh, arr):
            fh.write(grids.LGR1_MAGIC)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(grids, "write_record", half_record)
        with pytest.raises(OSError, match="No space left"):
            vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 1, 1, 2, 2)), tmp_path / "clip.lgr")
        assert list(tmp_path.iterdir()) == []

    def test_write_lgr1_onto_a_directory_is_refused(self, tmp_path):
        (tmp_path / "clip.lgr").mkdir()
        with pytest.raises(OSError, match="clip.lgr is not a regular file"):
            vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 1, 1, 2, 2)), tmp_path / "clip.lgr")
        assert os.listdir(tmp_path) == ["clip.lgr"] and os.listdir(tmp_path / "clip.lgr") == []


class TestTrain:
    def test_checkpoint_losses_manifest(self, tmp_path, checkpoint):
        assert checkpoint.exists()
        assert (tmp_path / "refiner.lgr.index").exists()
        csv = (tmp_path / "refiner.lgr.losses.csv").read_text().splitlines()
        assert csv[0] == "iter,loss,frames,wall_ms"
        assert len(csv) == 6  # header + 5 iterations
        assert csv[1].split(",")[2] == "3" and csv[-1].split(",")[2] == "4"
        m = read_manifest(str(checkpoint) + ".manifest")
        assert m["command"] == "train" and m["iterations"] == "5"

    def test_loss_rows_time_each_iteration(self, tmp_path, dataset, monkeypatch):
        """Each loss CSV row carries its own iteration's wall time: the rows
        differ and sum to within a few percent of the time spent training.
        The run steps one iteration at a time, and its losses and checkpoint
        blob equal those of one straight ``train_refiner`` call."""
        from vidflow import cli

        calls, trainer = [], cli.train_refiner

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = trainer(*args, **kwargs)
            calls.append((time.perf_counter() - t0, result[2]))
            return result

        monkeypatch.setattr(cli, "train_refiner", timed)
        ckpt = tmp_path / "stepped.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={ckpt}", *FAST_TRAIN) == 0
        rows = [line.split(",") for line in (tmp_path / "stepped.lgr.losses.csv").read_text().splitlines()[1:]]
        wall_ms = [float(row[3]) for row in rows]
        assert len(calls) == len(rows) == 5 and len(set(wall_ms)) > 1
        spent_ms = 1000.0 * sum(seconds for seconds, _ in calls)
        assert abs(sum(wall_ms) - spent_ms) <= 0.03 * spent_ms

        tc = vf.TrainConfig(lr=0.001, phase1_iters=3, phase2_iters=2, phase1_frames=3, phase2_frames=4)
        params = vf.DenoiserParams.init(patch=2, d=6, heads=1, depth=2, w_t=4, channels=12, cond_dim=4,
                                        rng=vf.Rng(0).split(10**9))
        values = vf.read_lgr1(dataset).values
        clips = [vf.LatentGrid.from_array(values[i : i + 1]) for i in range(len(values))]
        params, opt, losses = trainer(clips, vf.ToyCodec(), vf.DegradationConfig(), tc, vf.Rng(0), params)
        assert [loss for _, step in calls for loss in step] == losses
        assert [row[1] for row in rows] == [f"{loss:.10g}" for loss in losses]
        straight = tmp_path / "straight.lgr"
        vf.save_checkpoint(straight, params, opt, meta={"target": "refiner"})
        assert open(straight, "rb").read() == open(ckpt, "rb").read()

    def test_resume_matches_straight_run(self, tmp_path, dataset):
        straight = tmp_path / "straight.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={straight}", *FAST_TRAIN) == 0

        part = tmp_path / "part.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={part}",
                   *FAST_TRAIN, "--set", "phase2_iters=0") == 0
        full = tmp_path / "resumed.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={full}",
                   *FAST_TRAIN, "--set", f"resume={part}") == 0

        a, _, _ = vf.load_checkpoint(straight)
        b, _, _ = vf.load_checkpoint(full)
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k]), k

    def test_resume_of_a_library_checkpoint_matches_straight_run(self, tmp_path, dataset):
        """A checkpoint that ``save_checkpoint`` wrote after 3 library steps
        resumes at step 3: blob and index equal a straight run's, byte for byte."""
        straight = tmp_path / "straight.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={straight}", *FAST_TRAIN) == 0

        tc = vf.TrainConfig(lr=0.001, phase1_iters=3, phase2_iters=2, phase1_frames=3, phase2_frames=4)
        params = vf.DenoiserParams.init(patch=2, d=6, heads=1, depth=2, w_t=4, channels=12, cond_dim=4,
                                        rng=vf.Rng(0).split(10**9))
        values = vf.read_lgr1(dataset).values
        clips = [vf.LatentGrid.from_array(values[i : i + 1]) for i in range(len(values))]
        params, opt, _ = vf.train_refiner(clips, vf.ToyCodec(), vf.DegradationConfig(), tc, vf.Rng(0), params,
                                          n_iters=3)
        part = tmp_path / "part.lgr"
        vf.save_checkpoint(part, params, opt)
        full = tmp_path / "resumed.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={full}",
                   *FAST_TRAIN, "--set", f"resume={part}") == 0
        for a, b in ((straight, full), (f"{straight}.index", f"{full}.index")):
            assert open(a, "rb").read() == open(b, "rb").read(), b

    @pytest.mark.parametrize("out,written,read,resume", [
        ("data.lgr", "", "dataset", False),
        ("ck.lgr", ".index", "dataset", False),
        ("refiner.lgr.index", "", "resume's index", True),
    ], ids=["clip", "dataset-index", "resume-index"])
    def test_output_that_is_an_input_is_2(self, tmp_path, dataset, checkpoint, monkeypatch, capsys,
                                          out, written, read, resume):
        """``force`` never lets a run write over its dataset (the file of its
        clips, or that file reached as the index written beside ``out``) or
        the checkpoint it resumes: both keys are named, no iteration runs and
        every file keeps its bytes."""
        from vidflow import denoiser

        iterations = []
        loss = denoiser.refiner_loss
        monkeypatch.setattr(denoiser, "refiner_loss", lambda *args: iterations.append(1) or loss(*args))
        capsys.readouterr()
        out = tmp_path / out
        if written:
            os.symlink(dataset, f"{out}{written}")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        argv = ["--set", f"resume={checkpoint}", "--set", "phase2_iters=3"] if resume else []
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={out}", "--set", "force=true",
                   *FAST_TRAIN, *argv) == 2
        key = {"": "out", ".index": "out's index"}[written]
        assert capsys.readouterr() == (
            "", f"config error: train.{key} {out}{written} is train.{read}, an input the run would overwrite\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert iterations == []

    def test_no_iterations(self, tmp_path, dataset, capsys):
        """A run of zero iterations still writes its checkpoint, a loss CSV of
        the header alone and a manifest whose final loss is nan.  The
        checkpoint holds the starting parameters with a fresh optimizer's
        moments and ``opt_t 0``, whether the run starts from new parameters
        or resumes a checkpoint saved without an optimizer."""
        from vidflow.denoiser import REFINER_ARCH

        arch = {**REFINER_ARCH, "d": 6, "heads": 1}  # FAST_TRAIN's architecture
        tc = vf.TrainConfig(lr=0.001, phase1_frames=3, phase1_iters=0, phase2_frames=4, phase2_iters=0)
        for resume in (False, True):
            # a fresh run draws its parameters from Rng(seed).split(10**9)
            rng = vf.Rng(7) if resume else vf.Rng(0).split(10**9)
            start = vf.DenoiserParams.init(**arch, channels=12, rng=rng)
            argv = []
            if resume:
                vf.save_checkpoint(tmp_path / "start.lgr", start)
                argv = ["--set", f"resume={tmp_path / 'start.lgr'}"]
            name = "resumed.lgr" if resume else "fresh.lgr"
            ckpt = tmp_path / name
            capsys.readouterr()
            assert run("train", "--set", f"dataset={dataset}", "--set", f"out={ckpt}", *FAST_TRAIN,
                       "--set", "phase1_iters=0", "--set", "phase2_iters=0", *argv) == 0
            assert capsys.readouterr().out == "train: no iterations run\n"
            assert (tmp_path / f"{name}.losses.csv").read_text() == "iter,loss,frames,wall_ms\n"
            m = read_manifest(f"{ckpt}.manifest")
            assert (m["iterations"], m["final_loss"]) == ("0", "nan")
            assert "meta opt_t 0" in (tmp_path / f"{name}.index").read_text().splitlines()
            vf.save_checkpoint(tmp_path / "want.lgr", start, vf.AdamW(start, tc))
            assert ckpt.read_bytes() == (tmp_path / "want.lgr").read_bytes(), resume

    def test_train_base_target(self, tmp_path, dataset):
        ckpt = tmp_path / "base.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={ckpt}",
                   "--set", "target=base", *FAST_TRAIN) == 0
        params, _, _ = vf.load_checkpoint(ckpt)
        assert params.d == 6


class TestPreviewRefine:
    def test_preview_with_the_defaults(self, tmp_path, checkpoint):
        """``PreviewConfig``'s defaults run and are recorded, the pairs as JSON lists."""
        out = tmp_path / "prev.lgr"
        assert run("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={out}") == 0
        config = read_manifest(str(out) + ".manifest")["config"]
        assert {k: config[k] for k in ("hi", "lo", "n_total", "k", "shift", "seed")} == {
            "hi": [16, 16], "lo": [8, 8], "n_total": 40, "k": 10, "shift": 5.0, "seed": 0}
        assert vf.read_lgr1(out).extent == vf.Extent5(1, 12, 8, 8, 8)

    def test_preview_output_and_manifest(self, tmp_path, checkpoint):
        out = tmp_path / "prev.lgr"
        assert run("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={out}",
                   "--set", "n_total=6", "--set", "k=2",
                   "--set", "hi=[8,8]", "--set", "lo=[4,4]", "--set", "frames=4") == 0
        grid = vf.read_lgr1(out)
        assert (grid.extent.h, grid.extent.w) == (4, 4)
        m = read_manifest(str(out) + ".manifest")
        assert m["nfe_hi"] == "3" and m["nfe_lo"] == "4"
        assert float(m["sigma_switch"]) > 0
        assert float(m["peak_rss_mb"]) > 0 and int(m["minor_faults"]) > 0

    @pytest.mark.parametrize("n_total,k", [(4, 1), (7, 3)])
    def test_preview_nfe_is_the_forwards_made(self, tmp_path, checkpoint, counted_forwards, n_total, k):
        counted_forwards.clear()
        out = tmp_path / "prev.lgr"
        assert run("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={out}", *SMALL_PREVIEW,
                   "--set", f"n_total={n_total}", "--set", f"k={k}") == 0
        m = read_manifest(f"{out}.manifest")
        assert int(m["nfe_hi"]) + int(m["nfe_lo"]) == len(counted_forwards) > 0

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_refine_nfe_is_the_forwards_made(self, tmp_path, checkpoint, counted_forwards, n_steps):
        prev, out = tmp_path / "prev.lgr", tmp_path / "refined.lgr"
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 12, 2, 2, 2)), prev)
        counted_forwards.clear()
        assert run("refine", "--set", f"checkpoint={checkpoint}", "--set", f"preview={prev}",
                   "--set", f"out={out}", "--set", f"n_steps={n_steps}") == 0
        assert int(read_manifest(f"{out}.manifest")["nfe"]) == len(counted_forwards) > 0

    @pytest.mark.parametrize("verb,override", [("preview", "count=2"), ("synth", "clip_seeds=[1,2]")])
    def test_removed_fan_out_key_is_2(self, tmp_path, checkpoint, counted_forwards, capsys, verb, override):
        """One run makes one preview and clips from split seeds only: ``preview.count``
        and ``synth.clip_seeds`` are unknown keys, refused before any work."""
        before = sorted(tmp_path.rglob("*"))
        argv = {"preview": ["--set", f"checkpoint={checkpoint}", "--set", f"out={tmp_path / 'prev.lgr'}",
                            "--set", "n_total=4", "--set", "k=1", "--set", "hi=[8,8]", "--set", "lo=[4,4]",
                            "--set", "frames=4"],
                "synth": ["--set", f"out={tmp_path / 'clips'}", "--set", "count=2"]}[verb]
        assert run(verb, *argv, "--set", override) == 2
        key = override.partition("=")[0]
        assert capsys.readouterr().err == f"config error: unknown config key {verb}.{key}\n"
        assert sorted(tmp_path.rglob("*")) == before and counted_forwards == []

    @pytest.mark.parametrize("verb,out,read", [
        ("preview", "refiner.lgr", "checkpoint"),
        ("preview", "refiner.lgr.index", "checkpoint's index"),
        ("refine", "prev.lgr", "preview"),
        ("refine", "refiner.lgr", "checkpoint"),
    ], ids=["preview-checkpoint", "preview-index", "refine-preview", "refine-checkpoint"])
    def test_output_that_is_an_input_is_2(self, tmp_path, checkpoint, counted_forwards, capsys,
                                          verb, out, read):
        """A run never writes over a file it reads; both keys are named, no
        forward runs and every file keeps its bytes."""
        prev = tmp_path / "prev.lgr"
        assert run("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={prev}",
                   *SMALL_PREVIEW) == 0
        counted_forwards.clear()
        capsys.readouterr()
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        argv = {"preview": SMALL_PREVIEW,
                "refine": ["--set", f"preview={prev}", "--set", "n_steps=1"]}[verb]
        out = tmp_path / out
        assert run(verb, "--set", f"checkpoint={checkpoint}", "--set", f"out={out}", *argv) == 2
        assert capsys.readouterr() == (
            "", f"config error: {verb}.out {out} is {verb}.{read}, an input the run would overwrite\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert counted_forwards == []

    @pytest.mark.parametrize("out,frame,clash", [
        ("fr/frame_0000.ppm", 0, "fr/frame_0000.ppm"),
        ("link/frame_0001.ppm", 1, "fr/frame_0001.ppm"),
        ("fr/frame_0002.ppm.tmp", 2, "fr/frame_0002.ppm.tmp"),
    ], ids=["same-spelling", "through-a-symlink", "a-frames-temporary"])
    def test_two_outputs_that_are_one_path_is_2(self, tmp_path, checkpoint, counted_forwards, capsys,
                                                out, frame, clash):
        """``out`` may not be one of the PPM frames, however it is spelt, nor
        the temporary a frame is written to first: both keys are named, no
        forward runs and nothing is written."""
        prev, frames = tmp_path / "prev.lgr", tmp_path / "fr"
        vf.write_lgr1(vf.LatentGrid.zeros(vf.Extent5(1, 12, 4, 4, 4)), prev)
        frames.mkdir()
        os.symlink(frames, tmp_path / "link")
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / out
        assert run("refine", "--set", f"checkpoint={checkpoint}", "--set", f"preview={prev}",
                   "--set", f"out={out}", "--set", f"frames_dir={frames}", "--set", "n_steps=1") == 2
        assert capsys.readouterr() == (
            "", f"config error: refine.frames_dir's frame_{frame:04d}.ppm {tmp_path / clash} "
                f"is refine.out, a path the run also writes\n")
        assert sorted(tmp_path.rglob("*")) == before and counted_forwards == []

    def test_output_whose_temporary_is_an_input_is_2(self, tmp_path, checkpoint, counted_forwards, capsys):
        """``out`` is written to ``out + ".tmp"`` first, so that path may not
        be an input either."""
        ckpt = tmp_path / "c.lgr.tmp"
        ckpt.write_bytes(checkpoint.read_bytes())
        (tmp_path / "c.lgr.tmp.index").write_bytes((tmp_path / "refiner.lgr.index").read_bytes())
        capsys.readouterr()
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run("preview", "--set", f"checkpoint={ckpt}", "--set", f"out={tmp_path / 'c.lgr'}",
                   *SMALL_PREVIEW) == 2
        assert capsys.readouterr() == (
            "", f"config error: preview.out {ckpt} is preview.checkpoint, an input the run would overwrite\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert counted_forwards == []

    def test_refine_writes_latent_and_ppm(self, tmp_path, checkpoint):
        prev = tmp_path / "prev.lgr"
        assert run("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={prev}",
                   "--set", "n_total=4", "--set", "k=1",
                   "--set", "hi=[8,8]", "--set", "lo=[4,4]", "--set", "frames=4") == 0
        out = tmp_path / "refined.lgr"
        frames = tmp_path / "frames"
        assert run("refine", "--set", f"checkpoint={checkpoint}", "--set", f"preview={prev}",
                   "--set", f"out={out}", "--set", f"frames_dir={frames}",
                   "--set", "n_steps=2") == 0
        grid = vf.read_lgr1(out)
        assert (grid.extent.h, grid.extent.w) == (8, 8)
        ppms = sorted(frames.iterdir())
        assert len(ppms) == 4
        data = ppms[0].read_bytes()
        assert data.startswith(b"P6\n16 16\n255\n")  # decoded pixels are 2x latent
        assert len(data) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3
        m = read_manifest(str(out) + ".manifest")
        assert float(m["peak_rss_mb"]) > 0 and int(m["minor_faults"]) > 0


class TestReplay:
    def test_preview_replay_is_byte_identical(self, tmp_path, checkpoint):
        out = tmp_path / "prev.lgr"
        assert run("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={out}",
                   "--set", "n_total=4", "--set", "k=1",
                   "--set", "hi=[8,8]", "--set", "lo=[4,4]", "--set", "frames=4") == 0
        replayed = tmp_path / "replayed.lgr"
        replay_manifest(str(out) + ".manifest", {"out": str(replayed)})
        assert out.read_bytes() == replayed.read_bytes()

    def test_synth_replay_is_byte_identical(self, tmp_path, dataset):
        again = tmp_path / "again.lgr"
        replay_manifest(str(dataset) + ".manifest", {"out": str(again)})
        assert again.read_bytes() == dataset.read_bytes()

    def test_train_replay_is_byte_identical(self, tmp_path, checkpoint):
        again = tmp_path / "again.lgr"
        replay_manifest(str(checkpoint) + ".manifest", {"out": str(again)})
        assert again.read_bytes() == checkpoint.read_bytes()
        assert (tmp_path / "again.lgr.index").read_bytes() == (tmp_path / "refiner.lgr.index").read_bytes()

    def test_profile_replay_is_byte_identical(self, tmp_path):
        out, again = tmp_path / "profile.csv", tmp_path / "again.csv"
        assert run("profile", "--set", f"out={out}") == 0
        replay_manifest(str(out) + ".manifest", {"out": str(again)})
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("probe", sorted(MANIFEST_PROBES))
    def test_edited_manifest_is_refused(self, tmp_path, checkpoint, probe):
        out = tmp_path / "prev.lgr"
        assert run("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={out}",
                   "--set", "n_total=4", "--set", "k=1",
                   "--set", "hi=[8,8]", "--set", "lo=[4,4]", "--set", "frames=4") == 0
        manifest = tmp_path / "prev.lgr.manifest"
        edit, error = MANIFEST_PROBES[probe]
        edited = edit(manifest.read_text())
        assert edited != manifest.read_text()
        manifest.write_text(edited)
        replayed = tmp_path / "replayed.lgr"
        with pytest.raises(error):
            replay_manifest(manifest, {"out": str(replayed)})
        assert not replayed.exists()


class TestRunRecord:
    """Every verb's manifest, a replayed one's included, ends with the whole
    verb's wall seconds on a monotonic clock, peak RSS and minor faults."""

    @pytest.mark.parametrize("replayed", [False, True], ids=["run", "replayed"])
    @pytest.mark.parametrize("verb", ["synth", "train", "preview", "refine", "profile"])
    def test_trailer_with_a_wall_clock_that_steps_back(self, tmp_path, dataset, checkpoint, monkeypatch,
                                                       verb, replayed):
        import itertools
        import time

        prev = tmp_path / "prev.lgr"
        assert run("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={prev}", *SMALL_PREVIEW) == 0
        clock = itertools.count(2e9, -1.0)  # each read of the wall clock is a second earlier
        monkeypatch.setattr(time, "time", lambda: next(clock))
        argv = {"synth": ["--set", "count=2", "--set", "frames=2", "--set", "height=4", "--set", "width=4"],
                "train": ["--set", f"dataset={dataset}", *FAST_TRAIN],
                "preview": ["--set", f"checkpoint={checkpoint}", *SMALL_PREVIEW],
                "refine": ["--set", f"checkpoint={checkpoint}", "--set", f"preview={prev}", "--set", "n_steps=1"],
                "profile": []}[verb]
        out = tmp_path / "run.out"
        assert run(verb, *argv, "--set", f"out={out}") == 0
        if replayed:
            replay_manifest(f"{out}.manifest", {"out": str(tmp_path / "again.out")})
            out = tmp_path / "again.out"
        lines = open(f"{out}.manifest").read().splitlines()
        assert [ln.partition(" ")[0] for ln in lines[-4:]] == ["wall_s", "cpu_s", "peak_rss_mb", "minor_faults"]
        m = read_manifest(f"{out}.manifest")
        assert m["command"] == verb
        assert float(m["wall_s"]) >= 0 and float(m["cpu_s"]) >= 0
        assert float(m["peak_rss_mb"]) > 0 and int(m["minor_faults"]) > 0


class TestProfile:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert run("profile", "--set", f"out={out}") == 0
        text = out.read_text()
        assert text.splitlines()[0] == "stage,flops,share,ratio_vs_baseline,predicted_s"
        assert "# 30%step flops ratio 0.3000" in text
        assert "# 50%step flops ratio 0.5000" in text
        assert "not bit-reproducible" in text
        assert "# step_division" in text
        assert "R2 0.99" in text

    @pytest.mark.parametrize("rate", ["-1", "0", "-1e-15"])
    def test_rate_not_positive_is_2(self, tmp_path, capsys, rate):
        assert run("profile", "--set", f"out={tmp_path / 'r.csv'}", "--set", f"rate={rate}") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "profile.rate must be > 0" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_k_values_beyond_the_step_budget_is_2(self, tmp_path, capsys):
        """The built-in preview stages hold 10 + 30 steps."""
        assert run("profile", "--set", f"out={tmp_path / 'r.csv'}", "--set", "k_values=[41]") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "config error: profile.k_values: k=41 outside (0, 40], "
            "the step budget of stages 'preview_hi' (10) and 'preview_lo' (30)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("override", [
        'stages=[{"name": "a", "tokens": 64, "dim": 12, "depth": 2, "steps": 4}]',
        'baseline={"name": "b", "tokens": 64, "dim": 12, "depth": 2, "steps": 8}',
    ], ids=["stages", "baseline"])
    def test_removed_pipeline_key_is_2(self, tmp_path, capsys, override):
        """``profile`` prices the built-in pipeline only: ``stages`` and
        ``baseline`` are unknown keys, refused before anything is written."""
        assert run("profile", "--set", f"out={tmp_path / 'r.csv'}", "--set", override) == 2
        key = override.partition("=")[0]
        assert capsys.readouterr() == ("", f"config error: unknown config key profile.{key}\n")
        assert list(tmp_path.iterdir()) == []


class TestInspect:
    def test_prints_stats(self, tmp_path, capsys):
        g = vf.sample_gaussian(vf.Extent5(1, 2, 3, 4, 4), vf.Rng(0))
        path = tmp_path / "g.lgr"
        vf.write_lgr1(g, path)
        assert run("inspect", str(path)) == 0
        out = capsys.readouterr().out
        assert "extent    b=1 c=2 f=3 h=4 w=4" in out
        assert "nan_count 0" in out

    def test_values_near_the_float64_limit(self, tmp_path, capsys):
        """The moments of a finite grid are printed without overflowing."""
        path = tmp_path / "big.lgr"
        big = np.array([1.7e308, -1.7e308, 1.0, 0.0]).reshape(1, 1, 1, 2, 2)
        vf.write_lgr1(vf.LatentGrid.from_array(big), path)
        assert run("inspect", str(path)) == 0
        out = capsys.readouterr().out
        assert "mean      0.25\n" in out and "std       1.20208153e+308\n" in out
