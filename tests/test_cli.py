import json
import os
import re

import numpy as np
import pytest

import vidflow as vf
from vidflow.cli import main, read_manifest, replay_manifest


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
    "offset_not_an_integer": _replace(r"^tensor embed\.w \d+ ", "tensor embed.w xx "),
    "tensor_missing": lambda lines: [ln for ln in lines if not ln.startswith("tensor head.w ")],
    "shape_transposed": _replace(r"^(tensor embed\.w \d+) 48,6$", r"\1 6,48"),
    "unknown_line_kind": lambda lines: lines + ["weights embed.w 0 48,6"],
}


def run(*argv):
    return main(list(argv))


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
        assert run("preview", "--set", f"checkpoint={checkpoint}",
                   "--set", f"out={tmp_path / 'prev.lgr'}", "--set", "n_total=4", "--set", "k=1",
                   "--set", "hi=[4,4]", "--set", "lo=[2,2]", "--set", "frames=2") == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert not (tmp_path / "prev.lgr").exists()

    def test_empty_dataset_index_is_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "index.txt").write_text("\n")
        assert run("train", "--set", f"dataset={empty}",
                   "--set", f"out={tmp_path / 'ckpt.lgr'}", *FAST_TRAIN) == 3

    def test_preview_size_off_patch_is_2_before_any_forward(self, tmp_path, checkpoint, monkeypatch):
        from vidflow import denoiser

        calls = []
        original = denoiser.forward_velocity

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(denoiser, "forward_velocity", counting)
        assert run("preview", "--set", f"checkpoint={checkpoint}",
                   "--set", f"out={tmp_path / 'prev.lgr'}", "--set", "n_total=6", "--set", "k=2",
                   "--set", "hi=[8,8]", "--set", "lo=[5,5]", "--set", "frames=4") == 2
        assert calls == []

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_is_4(self, tmp_path, dataset):
        assert run("train", "--set", f"dataset={dataset}", "--set", f"out={tmp_path / 'ckpt.lgr'}",
                   *FAST_TRAIN, "--set", "lr=1e200") == 4
        assert not (tmp_path / "ckpt.lgr").exists()

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


class TestReplay:
    def test_preview_replay_is_byte_identical(self, tmp_path, checkpoint):
        out = tmp_path / "prev.lgr"
        assert run("preview", "--set", f"checkpoint={checkpoint}", "--set", f"out={out}",
                   "--set", "n_total=4", "--set", "k=1",
                   "--set", "hi=[8,8]", "--set", "lo=[4,4]", "--set", "frames=4") == 0
        replayed = tmp_path / "replayed.lgr"
        replay_manifest(str(out) + ".manifest", {"out": str(replayed)})
        assert out.read_bytes() == replayed.read_bytes()


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

    def test_stages_without_baseline_is_2(self, tmp_path):
        cfgfile = tmp_path / "p.json"
        cfgfile.write_text(json.dumps({"profile": {
            "out": str(tmp_path / "r.csv"),
            "stages": [{"name": "a", "tokens": 64, "dim": 12, "depth": 2, "steps": 4}],
        }}))
        assert run("profile", "--config", str(cfgfile)) == 2


class TestInspect:
    def test_prints_stats(self, tmp_path, capsys):
        g = vf.sample_gaussian(vf.Extent5(1, 2, 3, 4, 4), vf.Rng(0))
        path = tmp_path / "g.lgr"
        vf.write_lgr1(g, path)
        assert run("inspect", str(path)) == 0
        out = capsys.readouterr().out
        assert "extent    b=1 c=2 f=3 h=4 w=4" in out
        assert "nan_count 0" in out
