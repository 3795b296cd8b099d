"""vidflow benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload gen_small --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run it from the root of a vidflow checkout; it imports the package from
``src/`` there and writes scratch files under ``.bench_work/``.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
See bench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
SETUP_REPEATS = 3
WORKLOADS = ("gen_small", "gen_large", "train_rig")

END_TO_END_UNITS = {
    "setup_s": "s",
    "stage1_s_min": "s",
    "stage2_s_min": "s",
    "items_per_s_max": "1/s",
    "peak_rss_mb": "MB",
}


def _pin_blas_threads() -> None:
    """Must run before numpy is imported; OpenBLAS reads these at load time."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _blas_threads_in_use(np):
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_seconds() -> float:
    """Wall time for a fresh interpreter to start, import numpy and the
    checkout's vidflow, and exit: the part of set-up a process pays once."""
    env = {**os.environ, "PYTHONPATH": SRC}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, vidflow"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


def machine_facts(np) -> dict:
    """Read-only facts about the box the numbers come from."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(np),
    }
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(cache)) if os.path.isdir(cache) else []:
        try:
            with open(os.path.join(cache, idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache, idx, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(cache, idx, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    return facts


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        out=print) -> dict:
    """Set up, run the closed loop for ``seconds``, check every output, and
    return the result object.  Expects :func:`import_program` to have run."""
    import numpy as np

    import spans
    from workloads import DEFAULT_SEED, cost_table, make_workload

    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer()
    failures: dict[str, list[str]] = {}
    attempted = 0

    def attempt(key, fn):
        nonlocal attempted
        attempted += 1
        try:
            problems = fn()
        except Exception:  # a crashed request is a failed operation; keep measuring
            problems = [traceback.format_exc()]
        if problems:
            failures[key] = problems

    try:
        wl = make_workload(workload, seed, workdir, smoke)
        # The warm-up runs every code path of a request at the smoke shapes,
        # at the default seed so that every run checks its outputs against
        # the recorded reference.
        warm = make_workload(workload, DEFAULT_SEED, os.path.join(workdir, "warm-up"), smoke=True)
        setup_s = []
        for r in range(SETUP_REPEATS):
            imports = import_seconds()
            t0 = time.perf_counter()
            wl.setup()
            warm.setup()
            attempt(f"warm-up {r}", lambda: warm.check(0, warm.request(0)))
            setup_s.append(imports + time.perf_counter() - t0)

        results, untraced_wall_ms, traced_ids = [], [], []
        i = 0
        t_loop = time.perf_counter()
        while True:
            traced = trace and i % 2 == 1

            def one(i=i, traced=traced):
                problems = [f"started with traced names installed: {n}" for n in [spans.replaced()] if n]
                if traced:
                    traced_ids.append(i)
                    tracer.install()
                    try:
                        with tracer.span("request"):
                            res = wl.request(i, tracer)
                    finally:
                        tracer.restore()
                    problems += [f"traced names not restored: {n}" for n in [spans.replaced()] if n]
                else:
                    res = wl.request(i)
                    untraced_wall_ms.append(1000.0 * res["wall"])
                    results.append(res)
                return problems + wl.check(i, res)

            t0 = time.perf_counter()
            attempt(f"request {i}", one)
            i += 1
            # stop before a request that would end past --seconds
            done = 2 * time.perf_counter() - t0 - t_loop > seconds
            if done and (not trace or i >= 2):
                break

        if not results:
            raise RuntimeError("no untraced request completed: " + json.dumps(failures)[:2000])
        summaries = spans.request_summaries(tracer)
        for i, s in zip(traced_ids, summaries):
            problems = wl.check_trace(s)
            if not 0.97 <= s["top_ms"] / s["wall_ms"] <= 1.0 + 1e-9:
                problems.append(f"top-level spans cover {s['top_ms'] / s['wall_ms']:.3f} of the request")
            if problems:
                failures.setdefault(f"request {i}", []).extend(problems)

        out("machine " + json.dumps(machine_facts(np), sort_keys=True))
        failed = len(failures)
        error = f"error_rate {failed / attempted:.4f} ({failed} of {attempted} requests failed)"
        for key, problems in failures.items():
            out(f"FAILED {key}: " + "; ".join(p.strip() for p in problems))
        if trace:
            metrics = spans.layer_metrics(summaries, untraced_wall_ms)
            units = spans.PER_LAYER_UNITS
            for line in cost_table(wl, summaries):
                out(line)
            out(error)
        else:
            stage1, stage2, wall = wl.fastest(results)
            metrics = {
                "setup_s": float(np.median(setup_s)),
                "stage1_s_min": stage1,
                "stage2_s_min": stage2,
                "items_per_s_max": wl.items_per_request / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            for line in wl.summary_lines(results, error):
                out(line)
        for name, value in metrics.items():
            out(f"{name} {value:.6g} {units[name]}")
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        tracer.restore()
        _remove(workdir)


def _remove(workdir: str) -> None:
    """Delete a run's scratch directory, and .bench_work once it is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass  # another run is still using it


def import_program():
    """Import numpy (BLAS threads pinned) and the checkout's vidflow."""
    _pin_blas_threads()
    sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import vidflow

    where = os.path.dirname(os.path.abspath(vidflow.__file__))
    if where != os.path.join(SRC, "vidflow"):
        raise ImportError(f"vidflow imported from {where}, not from {SRC}")


def record_reference(workload: str, smoke: bool) -> None:
    """Write the default-seed outputs of request 0 to bench/reference.json."""
    from workloads import DEFAULT_SEED, make_workload, store_reference

    workdir = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = make_workload(workload, DEFAULT_SEED, workdir, smoke)
        wl.setup()
        wl.check(0, wl.request(0))  # the rig keeps its losses from here
        store_reference(wl.reference_key, wl.outputs())
    finally:
        _remove(workdir)


def run_all(argv: list[str]) -> int:
    """Run every workload in its own process with the same flags; 1 if any
    run fails or reports an incorrect result."""
    status = 0
    for workload in WORKLOADS:
        args = [a if a != "all" else workload for a in argv]
        print(f"== {workload}", flush=True)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                              stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        if proc.returncode != 0 or not json.loads(last[0]).get("correct", False):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all: each in its own process, one after another")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the acceptance rig's seed, 42)")
    parser.add_argument("--seconds", type=float, default=35.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the self-test")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the default seed's outputs in bench/reference.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vidflow", "__init__.py")):
        print(f"error: no vidflow source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(argv if argv is not None else sys.argv[1:])
    import_program()
    from workloads import DEFAULT_SEED

    if args.record_reference:
        record_reference(args.workload, args.smoke)
        return 0
    seed = DEFAULT_SEED if args.seed is None else args.seed
    result = run(args.workload, seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
