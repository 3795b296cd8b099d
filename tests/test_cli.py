import ctypes
import json
import math
import os
import re
import resource
import struct

import numpy as np
import pytest

import vidflow as vf
from vidflow import __version__
from vidflow.cli import main, read_manifest, replay_manifest


STAGE = '{"name": "a", "tokens": 64, "dim": 12, "depth": 2, "steps": 4}'
FAST_TRAIN = [
    "--set", "phase1_iters=3", "--set", "phase2_iters=2",
    "--set", "phase1_frames=3", "--set", "phase2_frames=4",
    "--set", "d=6", "--set", "heads=1", "--set", "lr=0.001",
]


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


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
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


class TestSynth:
    def test_writes_clips_index_manifest(self, tmp_path, dataset):
        names = sorted(os.listdir(dataset))
        assert "index.txt" in names
        assert sum(n.endswith(".lgr") for n in names) == 3
        m = read_manifest(str(dataset) + ".manifest")
        assert m["command"] == "synth"
        assert m["config"]["count"] == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(
                "synth", "--set", f"out={out}", "--set", "count=2",
                "--set", "frames=4", "--set", "height=8", "--set", "width=8",
            ) == 0
            outs.append(out)
        for clip in ("clip_0000.lgr", "clip_0001.lgr"):
            assert (outs[0] / clip).read_bytes() == (outs[1] / clip).read_bytes()

    def test_config_file_with_section(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"synth": {"out": str(tmp_path / "d"), "count": 1,
                                                 "frames": 4, "height": 8, "width": 8}}))
        assert run("synth", "--config", str(cfgfile)) == 0
        assert (tmp_path / "d" / "clip_0000.lgr").exists()


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

    def test_invalid_json_config_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("synth", "--config", str(bad)) == 2

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

    def test_empty_dataset_index_is_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "index.txt").write_text("\n")
        assert run("train", "--set", f"dataset={empty}",
                   "--set", f"out={tmp_path / 'ckpt.lgr'}", *FAST_TRAIN) == 3

    def test_preview_size_off_patch_is_2_before_any_forward(self, tmp_path, checkpoint, counted_forwards):
        assert run("preview", "--set", f"checkpoint={checkpoint}",
                   "--set", f"out={tmp_path / 'prev.lgr'}", "--set", "n_total=6", "--set", "k=2",
                   "--set", "hi=[8,8]", "--set", "lo=[5,5]", "--set", "frames=4") == 2
        assert counted_forwards == []

    @pytest.mark.parametrize("override", ["hi=8", "count=1O", "shift=true", "lo=[8,8.5]"])
    def test_value_of_the_wrong_type_is_2(self, tmp_path, override):
        assert run("preview", "--set", f"checkpoint={tmp_path / 'none.lgr'}",
                   "--set", f"out={tmp_path / 'prev.lgr'}", "--set", override) == 2

    @pytest.mark.parametrize("verb,override", [
        ("preview", "batch=0"), ("preview", "frames=0"), ("preview", "count=0"),
        ("refine", "upscale=0"),
        *[("synth", f"{key}=0") for key in ("count", "channels", "frames", "height", "width")],
        *[("train", f"{key}=0") for key in ("phase1_frames", "phase2_frames", "patch", "d",
                                            "heads", "depth", "w_t")],
        ("train", "phase1_iters=-1"), ("train", "target=refinr"), ("train", "lr=-1"),
        ("preview", "k=0"), ("refine", "n_steps=0"),
        ("preview", "hi=[16]"), ("preview", "lo=[8]"), ("preview", "shift=0.5"),
        ("synth", 'clip_seeds=["a","b","c","d"]'), ("synth", "clip_seeds=[1,2]"),
        ("train", "w_t=3"), ("train", "d=7"), ("train", "depth=3"), ("synth", "kind=bogus"),
        ("train", "dataset=[1,2]"), ("train", "out=null"), ("train", 'out=""'), ("train", "resume=7"),
        ("preview", 'checkpoint="a\\u0000b"'), ("refine", "checkpoint=null"),
        ("refine", 'frames_dir="x\\u0000"'), ("train", "lr=NaN"), ("preview", "shift=Infinity"),
    ])
    def test_count_below_one_is_2_before_loading(self, tmp_path, verb, override):
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
        assert not out.exists()  # not even synth's index.txt

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

    def test_resume_from_a_non_integer_iteration_is_3(self, tmp_path, dataset, checkpoint, capsys):
        index = tmp_path / "refiner.lgr.index"
        index.write_text(index.read_text().replace("meta iteration 5\n", "meta iteration five\n"))
        out = tmp_path / "resumed.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={out}", *FAST_TRAIN,
                   "--set", f"resume={checkpoint}") == 3
        err = capsys.readouterr().err
        assert "meta iteration must be an integer, got 'five'" in err and "Traceback" not in err
        assert list(tmp_path.glob("resumed.lgr*")) == []

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

    def test_manifest_with_bad_config_json_is_format_error(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text("command preview\nversion 0.1.0\nconfig_json {not json\n")
        with pytest.raises(vf.FormatError):
            read_manifest(path)

    def test_existing_checkpoint_without_force_is_2(self, tmp_path, dataset, checkpoint):
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={checkpoint}", *FAST_TRAIN) == 2
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={checkpoint}",
                   "--set", "force=true", *FAST_TRAIN) == 0


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

    def test_train_base_target(self, tmp_path, dataset):
        ckpt = tmp_path / "base.lgr"
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={ckpt}",
                   "--set", "target=base", *FAST_TRAIN) == 0
        params, _, _ = vf.load_checkpoint(ckpt)
        assert params.d == 6


class TestPreviewRefine:
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

    def test_preview_count_fans_out(self, tmp_path, checkpoint):
        out = tmp_path / "prev.lgr"
        assert run("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={out}",
                   "--set", "count=2", "--set", "n_total=4", "--set", "k=1",
                   "--set", "hi=[8,8]", "--set", "lo=[4,4]", "--set", "frames=4") == 0
        assert (tmp_path / "prev_0.lgr").exists() and (tmp_path / "prev_1.lgr").exists()

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
        again = tmp_path / "again"
        replay_manifest(str(dataset) + ".manifest", {"out": str(again)})
        names = sorted(os.listdir(dataset))
        assert sorted(os.listdir(again)) == names
        for name in names:
            assert (dataset / name).read_bytes() == (again / name).read_bytes(), name

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

    def test_explicit_stages(self, tmp_path):
        cfgfile = tmp_path / "p.json"
        cfgfile.write_text(json.dumps({"profile": {
            "out": str(tmp_path / "r.csv"),
            "stages": [{"name": "a", "tokens": 64, "dim": 12, "depth": 2, "steps": 4}],
            "baseline": {"name": "b", "tokens": 64, "dim": 12, "depth": 2, "steps": 8},
        }}))
        assert run("profile", "--config", str(cfgfile)) == 0
        text = (tmp_path / "r.csv").read_text()
        assert "total" in text and "0.500000" in text

    def test_one_step_baseline(self, tmp_path):
        # the 30% and 50% variants of a 1-step baseline have 0 steps
        cfgfile = tmp_path / "p.json"
        cfgfile.write_text(json.dumps({"profile": {
            "out": str(tmp_path / "r.csv"),
            "stages": [{"name": "a", "tokens": 64, "dim": 12, "depth": 2, "steps": 1}],
            "baseline": {"name": "b", "tokens": 64, "dim": 12, "depth": 2, "steps": 1},
        }}))
        assert run("profile", "--config", str(cfgfile)) == 0
        text = (tmp_path / "r.csv").read_text()
        assert "# 30%step flops ratio 0.0000" in text and "# 50%step flops ratio 0.0000" in text

    @pytest.mark.parametrize("rate", ["-1", "0", "-1e-15"])
    def test_rate_not_positive_is_2(self, tmp_path, capsys, rate):
        assert run("profile", "--set", f"out={tmp_path / 'r.csv'}", "--set", f"rate={rate}") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "profile.rate must be > 0" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_stages_without_baseline_is_2(self, tmp_path):
        cfgfile = tmp_path / "p.json"
        cfgfile.write_text(json.dumps({"profile": {
            "out": str(tmp_path / "r.csv"),
            "stages": [{"name": "a", "tokens": 64, "dim": 12, "depth": 2, "steps": 4}],
        }}))
        assert run("profile", "--config", str(cfgfile)) == 2

    @pytest.mark.parametrize("overrides", [
        ["stages=5"],
        ["stages=[1]"],
        ['stages=[{"tokens": "x"}]'],
        ["stages=[]", f"baseline={STAGE}"],
        ["baseline=3"],
        [f"stages=[{STAGE}]", "baseline=[]"],
        [f"stages=[{STAGE}]", 'baseline={"name": "b", "tokens": 64, "dim": 12, "depth": 2, "steps": true}'],
        [f"stages=[{STAGE}]", 'baseline={"name": "b", "tokens": 64, "dim": 12.0, "depth": 2, "steps": 8}'],
        ['stages=[{"name": 1, "tokens": 64, "dim": 12, "depth": 2, "steps": 4}]', f"baseline={STAGE}"],
        [f"stages=[{STAGE}]", 'baseline={"name": "b", "tokens": 64, "dim": 12, "depth": 2}'],
    ], ids=["int", "list_of_int", "tokens_str", "empty", "baseline_alone", "baseline_list",
            "steps_bool", "dim_float", "name_int", "missing_steps"])
    def test_stage_of_the_wrong_type_is_2(self, tmp_path, capsys, overrides):
        out = tmp_path / "r.csv"
        argv = ["profile", "--set", f"out={out}"]
        for o in overrides:
            argv += ["--set", o]
        assert run(*argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
class TestAllocatorPolicy:
    def test_forward_after_main_reuses_its_heap(self, tmp_path):
        """Once main has run, a base forward at gen_small's hi shape (batch 4,
        8x16x16 latent, d=48) finds its temporaries in the heap: with the
        C library's default thresholds it took over 7000 minor faults."""
        assert run("profile", "--set", f"out={tmp_path / 'profile.csv'}") == 0
        params = vf.DenoiserParams.init(patch=2, d=48, heads=6, depth=2, w_t=4, channels=12,
                                        cond_dim=4, rng=vf.Rng(0))
        z = vf.sample_gaussian(vf.Extent5(4, 12, 8, 16, 16), vf.Rng(1))
        cond = vf.Conditioning.zeros(4)
        vf.forward_velocity(params, z, 0.5, cond)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        vf.forward_velocity(params, z, 0.5, cond)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64


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
