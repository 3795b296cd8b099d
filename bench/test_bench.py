"""Self-test of the benchmark at tiny shapes.

    python3 -m pytest bench -q

Each workload runs in smoke mode, untraced and traced, and must report every
metric BENCHMARK.json names, with its unit, leave every traced name bound to
the program's own function, and pass its output checks.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402

bench.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)


def _run(workload, trace, seconds=0.3):
    lines = []
    result = bench.run(workload, workloads.DEFAULT_SEED, seconds, trace, smoke=True, out=lines.append)
    return result, lines


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_with_its_unit_and_names_restored(workload, trace):
    result, lines = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert spans.replaced() == []


def test_traced_run_counts_at_the_layers():
    result, _ = _run("gen_small", True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    shape = workloads.SMOKE_SHAPES["gen_small"]
    assert m["preview.nfe_hi"] == shape.k + 1
    assert m["preview.nfe_lo"] == shape.n_total - shape.k
    assert m["autodiff.backward_calls"] == 0
    assert m["windows.attn_pairs"] > 0 and m["cli.io_bytes"] > 0
    result, _ = _run("train_rig", True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["autodiff.backward_calls"] == workloads.rig_train_config(workloads.SMOKE_SHAPES["train_rig"]).total_iters
    assert m["preview.nfe_hi"] == 0 and m["denoiser.train.loss_ms"] > 0


def test_untraced_run_fails_if_a_name_is_replaced():
    tracer = spans.Tracer()
    tracer.install()
    try:
        result, lines = _run("gen_small", False)
    finally:
        tracer.restore()
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - bench.SETUP_REPEATS  # every timed request
    assert any("started with traced names installed" in line for line in lines)


def test_reference_tolerance_passes_rounding_and_fails_real_changes():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(1000)
    ref = workloads.digest(values)
    assert workloads.digest_mismatch(ref, workloads.digest(values * (1 + 1e-14))) is None
    assert workloads.digest_mismatch(ref, workloads.digest(values.astype(np.float32))) is not None
    losses = np.abs(values[:200]) + 0.01
    assert workloads._losses_match(losses, losses * (1 + 1e-12))
    assert not workloads._losses_match(losses, losses * (1 + 1e-6))


def test_rig_matches_the_acceptance_fixture():
    spec = importlib.util.spec_from_file_location("rig_fixture", os.path.join(ROOT, "tests", "conftest.py"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert workloads.DEFAULT_SEED == conftest.RIG_SEED
    assert workloads.RIG_DEG == conftest.RIG_DEG
    assert workloads.rig_train_config(workloads.SHAPES["train_rig"]) == conftest.RIG_TRAIN


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gen_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
