"""Compare the benchmark's end-to-end metrics between a parent revision and
this checkout, in alternating pairs of runs.

Run from anywhere inside a checkout:

    python tests/ab_bench.py PARENT_REV [--workload W] [--pairs N] [--seconds S] [--seed K]

``PARENT_REV`` is unpacked with ``git archive`` into one temporary
directory, and this checkout's working tree (the files ``git ls-files
--cached --others --exclude-standard`` lists) is copied into another beside
it, so both sides run from fresh trees at the same place: where a tree lies
moves the readings by itself (an A/A round of gen_large once read
``peak_rss_mb`` 1.1 MB higher and ``stage1_s_min`` 6% lower with the change
side run in the checkout).  Each pair runs ``bench/run.py --workload W
--seconds S`` once in each tree, each in its own process; the side that goes
first alternates from pair to pair, so a drift of the machine over the
session lands on both sides alike.  Each run's final JSON line gives its
metrics.

For every end-to-end metric of ``BENCHMARK.json`` it prints the medians and
quartiles of both sides, how many pairs the change wins, and a two-sided sign
test p.  A verdict column says

- ``WORSE``: the change's median is worse than the parent's by more than the
  metric's bound (a fraction of the parent's median);
- ``met``: the change wins at least 9 in 10 of the pairs and the gap between
  the medians exceeds the parent's interquartile range, the bar a claimed
  gain must clear;
- ``wide``: the parent's interquartile range exceeds the bound, so the runs
  spread too widely to tell;
- ``-``: none of these.

Each pair's line also gives each run's CPU use, steal share and minor page
faults.  CPU use is the run's user plus system seconds over its wall
seconds, from ``resource.getrusage(RUSAGE_CHILDREN)`` before and after it:
a run that shares work across threads but reads about 1.0 did not get a
second CPU.  The minor page faults (``ru_minflt``) come from the same two
reads: a side whose count sits far above the other's over a like number of
requests ran with its heap in another layout, which moves ``peak_rss_mb``
too.
The steal share is the share of the machine's CPU time that the hypervisor
gave to other guests while the run ran, from the ``cpu`` line of
``/proc/stat`` before and after it (left out where that file is absent).  A
pair run under heavy steal is contended; a missing second CPU can show in
CPU use while steal reads 0%.

After each run, a fresh interpreter's ``import numpy, vidflow`` is timed
three times in that run's tree, and each side's median is printed below the
table.  ``bench/run.py`` times the same import for ``setup_s``, but through
``subprocess.run(..., timeout=60)``, and with a timeout ``Popen.wait`` polls
the child in sleeps of up to 50 ms, so ``setup_s`` moves in steps of about
50 ms.  These timings use a plain wait, so a reader can tell one such step
from a real change in import time.

Failed requests are counted per side.  The script changes nothing under
``bench/``.  pytest does not collect it.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack(rev: str, dest: str) -> str:
    """Extract the tree of ``rev`` into ``dest``; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    blob = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def copy_checkout(dest: str) -> None:
    """Copy this checkout's working tree into ``dest``: its tracked files and
    the untracked ones git does not ignore, as they are on disk."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT,
                           check=True, capture_output=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):  # a tracked file deleted from the working tree is still listed
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def cpu_times() -> list[int] | None:
    """The machine-wide CPU times of ``/proc/stat`` (user, nice, system,
    idle, iowait, irq, softirq, steal), or None where they cannot be read."""
    try:
        with open("/proc/stat") as fh:
            times = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return times if len(times) == 8 else None


def steal_share(before, after) -> float | None:
    """The steal share of the CPU time between two :func:`cpu_times` reads."""
    if before is None or after is None:
        return None
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / sum(delta) if sum(delta) > 0 else None


def child_usage() -> tuple[float, int]:
    """User plus system CPU seconds and minor page faults of every
    waited-for child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_minflt


def import_ms(tree: str) -> float:
    """Wall milliseconds for a fresh interpreter to start, import numpy and
    ``tree``'s vidflow, and exit, through a plain (unpolled) wait."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, vidflow"], cwd=tree, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return 1000.0 * (time.perf_counter() - t0)


def bench_once(tree: str, args) -> dict:
    """One ``bench/run.py`` process in ``tree``; its final JSON line, with
    the run's CPU use (CPU seconds over wall seconds) under ``"cpu"``, its
    steal share under ``"steal"``, its minor page faults under ``"minflt"``
    and three :func:`import_ms` timings taken after it under
    ``"import_ms"``."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seconds", str(args.seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    before, (cpu0, flt0), wall0 = cpu_times(), child_usage(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    (cpu1, flt1), wall = child_usage(), time.perf_counter() - wall0
    steal = steal_share(before, cpu_times())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"bench/run.py in {tree} exited {proc.returncode} without a result:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}") from None
    result["cpu"], result["steal"], result["minflt"] = (cpu1 - cpu0) / wall, steal, flt1 - flt0
    result["import_ms"] = [import_ms(tree) for _ in range(3)]
    return result


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign test over the pairs that are not ties."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(max(wins, losses), n + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def quartiles(values) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(med), float(q1), float(q3)


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, int]:
    """(verdict, pairs the change wins) of one metric; see the module docstring."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pm, pq1, pq3 = quartiles(parent)
    cm, _, _ = quartiles(change)
    iqr = pq3 - pq1
    if sign * (pm - cm) > metric["bound"] * abs(pm):
        return "WORSE", wins
    if wins >= math.ceil(0.9 * len(parent)) and sign * (cm - pm) > iqr:
        return "met", wins
    if iqr > metric["bound"] * abs(pm):
        return "wide", wins
    return "-", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV", help="the revision to compare against")
    parser.add_argument("--workload", default="train_rig", help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10, help="alternating (parent, change) pairs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed loop of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the bench's)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])

    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        commit = unpack(args.parent, trees["parent"])
        copy_checkout(trees["change"])
        runs = {"parent": [], "change": []}
        print(f"ab_bench: {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, seed "
              f"{'default' if args.seed is None else args.seed}; parent {commit[:12]}, change {ROOT}",
              flush=True)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench_once(trees[side], args))
            got = {s: runs[s][-1]["metrics"]["items_per_s_max"]["value"] for s in order}
            cpu = {s: runs[s][-1]["cpu"] for s in order}
            steal = {s: runs[s][-1]["steal"] for s in order}
            flt = {s: runs[s][-1]["minflt"] for s in order}
            stolen = ("" if None in steal.values() else
                      f"; steal parent {steal['parent']:.1%}, change {steal['change']:.1%}")
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): items_per_s_max parent "
                  f"{got['parent']:.4g}, change {got['change']:.4g}; CPU use parent "
                  f"{cpu['parent']:.2f}, change {cpu['change']:.2f}{stolen}; minor faults parent "
                  f"{flt['parent']}, change {flt['change']}", file=sys.stderr, flush=True)

    head = (f"{'metric':<16} {'better':<6} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
            f"{'change':>8} {'wins':>6} {'sign p':>7}  verdict")
    print(head)
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        (pm, pq1, pq3), (cm, cq1, cq3) = (quartiles(values[s]) for s in ("parent", "change"))
        word, wins = verdict(metric, values["parent"], values["change"])
        losses = sum(c != p for p, c in zip(values["parent"], values["change"])) - wins
        cell = lambda m, a, b: f"{m:.4g} [{a:.4g}, {b:.4g}]"  # noqa: E731
        print(f"{name:<16} {metric['better']:<6} {cell(pm, pq1, pq3):>30} {cell(cm, cq1, cq3):>30} "
              f"{(cm - pm) / abs(pm) if pm else float('nan'):>+8.1%} {wins:>3}/{args.pairs:<2} "
              f"{sign_test_p(wins, losses):>7.3f}  {word}")
    imports = {s: float(np.median([t for r in runs[s] for t in r["import_ms"]])) for s in runs}
    print(f"import numpy, vidflow (plain wait, 3 per run): parent median {imports['parent']:.1f} ms, "
          f"change median {imports['change']:.1f} ms")
    for side in runs:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        print(f"{side}: {failed} of {attempted} requests failed; {wrong} of {len(runs[side])} runs incorrect")
        uses = ", ".join(f"{r['cpu']:.2f}" for r in runs[side])
        print(f"{side}: CPU use per run: {uses}")
        faults = ", ".join(str(r["minflt"]) for r in runs[side])
        print(f"{side}: minor page faults per run: {faults}")
        if all(r["steal"] is not None for r in runs[side]):
            shares = ", ".join(f"{r['steal']:.1%}" for r in runs[side])
            print(f"{side}: steal share per run: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
