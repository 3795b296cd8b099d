import ast
import os
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import vidflow as vf
from vidflow import autodiff, denoiser, windows
from vidflow.autodiff import (
    attention_grads,
    attention_probs,
    attention_tiled,
    ffn,
    ffn_backward,
    layernorm,
    layernorm_backward,
    linear,
    linear_backward,
)

from oracles import numeric_grad


def check_grad(f, grad, shape, seed=0, tol=1e-6):
    """Compare ``grad(x)``, a closed-form gradient of the scalar ``f``,
    against central finite differences at a random ``x``."""
    x = np.random.default_rng(seed).normal(size=shape)
    assert np.abs(grad(x) - numeric_grad(f, x)).max() <= tol


def ffn_grads(args: dict, g) -> dict:
    """Every gradient of ``ffn(**args)`` for the output gradient ``g``, by name."""
    saved = []
    ffn(**args, saved=saved)
    grads = {k: np.zeros_like(args[k]) for k in ("w1", "b1", "w2", "b2")}
    grads["x"] = ffn_backward(g, saved[0], grads["w1"], grads["b1"], grads["w2"], grads["b2"])
    return grads


def longdouble_attention(q, k, v, scale):
    """softmax(q @ kᵀ * scale) @ v in extended precision with the exact row-max
    shift; returns it with P @ |v|, the scale of its float64 rounding error."""
    q, k, v = (np.asarray(a, dtype=np.longdouble) for a in (q, k, v))
    s = (q @ k.swapaxes(-1, -2)) * np.longdouble(scale)
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p @ v, p @ np.abs(v)


needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)


class TestLinear:
    X = np.random.default_rng(40).normal(size=(2, 3, 4)).reshape(6, 4)
    W = np.random.default_rng(41).normal(size=(4, 5))
    B = np.random.default_rng(42).normal(size=5)  # broadcast over the rows
    M = np.random.default_rng(43).normal(size=(2, 3, 5)).reshape(6, 5)

    def grads(self, x, w, b) -> dict:
        gw, gb = np.zeros_like(w), np.zeros_like(b)
        gx = linear_backward(self.M, x, gw, gb, w)
        return {"x": gx, "w": gw, "b": gb}

    def test_grad_of_x(self):
        check_grad(lambda t: (linear(t, self.W, self.B) * self.M).sum(),
                   lambda t: self.grads(t, self.W, self.B)["x"], self.X.shape, seed=4)

    def test_grad_of_w(self):
        check_grad(lambda t: (linear(self.X, t, self.B) * self.M).sum(),
                   lambda t: self.grads(self.X, t, self.B)["w"], self.W.shape, seed=5)

    def test_grad_of_broadcast_bias(self):
        check_grad(lambda t: (linear(self.X, self.W, t) * self.M).sum(),
                   lambda t: self.grads(self.X, self.W, t)["b"], self.B.shape, seed=6)


def gelu_args(t) -> dict:
    """The tanh GELU alone as ``ffn`` arguments: identity weights and zero
    biases (a product with the identity matrix is exact)."""
    eye, zero = np.eye(t.shape[-1]), np.zeros(t.shape[-1])
    return {"x": t, "w1": eye, "b1": zero, "w2": eye, "b2": zero}


class TestNonlinearities:
    def test_gelu_grad(self):
        def f(t):
            y = ffn(**gelu_args(t))
            return (y * y).sum()
        check_grad(f, lambda t: ffn_grads(gelu_args(t), 2 * ffn(**gelu_args(t)))["x"], (3, 3), seed=6)

    @pytest.mark.parametrize("save", [False, True])
    def test_forwards_are_bitwise_the_textbook_expressions(self, save):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(16, 24)) * 3 + 1
        w1, b1 = rng.normal(size=(24, 32)), rng.normal(size=32)
        w2, b2 = rng.normal(size=(32, 8)), rng.normal(size=8)
        before = x.copy()
        c = np.sqrt(2.0 / np.pi)
        h = x @ w1 + b1
        mlp = (0.5 * h * (1.0 + np.tanh(c * (h + 0.044715 * (h * h * h))))) @ w2 + b2
        xc = x - x.mean(axis=-1, keepdims=True)
        ln = xc * (1.0 / np.sqrt((xc**2).mean(axis=-1, keepdims=True) + 1e-6))
        saved = [] if save else None
        assert ffn(x, w1, b1, w2, b2, saved).tobytes() == mlp.tobytes()
        assert layernorm(x, saved).tobytes() == ln.tobytes()
        assert x.tobytes() == before.tobytes()  # the input is not a work array
        assert len(saved or ()) == 2 * save

    def test_layernorm_output_normalized(self):
        y = layernorm(np.random.default_rng(7).normal(size=(4, 8)) * 3 + 1)
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_layernorm_grad(self):
        w = np.random.default_rng(8).normal(size=(2, 6))

        def grad(t):
            saved = []
            layernorm(t, saved)
            return layernorm_backward(w, *saved[0])
        check_grad(lambda t: (layernorm(t) * w).sum(), grad, (2, 6), seed=8, tol=1e-5)


class TestFFN:
    SHAPES = {"x": (2, 3, 4), "w1": (4, 6), "b1": (6,), "w2": (6, 5), "b2": (5,)}

    @pytest.mark.parametrize("which", list(SHAPES))
    def test_grad_of_each_operand(self, which):
        rng = np.random.default_rng(50)
        args = {k: rng.normal(size=shape) for k, shape in self.SHAPES.items()}
        m = rng.normal(size=(2, 3, 5))
        check_grad(lambda t: (ffn(**{**args, which: t}) * m).sum(),
                   lambda t: ffn_grads({**args, which: t}, m)[which], self.SHAPES[which], seed=51)


class TestAttention:
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_of_each_operand(self, which):
        rng = np.random.default_rng(11 + which)
        ops = [rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))]
        w = rng.normal(size=(2, 5, 3))

        def with_t(t):
            args = list(ops)
            args[which] = t
            return args

        def f(t):
            q, k, v = with_t(t)
            return (attention_probs(q, k, 0.7) @ v * w).sum()

        def grad(t):
            q, k, v = with_t(t)
            return attention_grads(attention_probs(q, k, 0.7), q, k, v, w, 0.7)[which]
        check_grad(f, grad, ops[which].shape, seed=11 + which)

    def test_tiled_branch_matches_recording_branch(self):
        """The tiled output against the recording branch's probabilities
        times v, that product formed in extended precision: a float64
        product rounds by BLAS thread count, and with one thread its own
        error came to 1.016 times the bound."""
        heads, n, dh = 2, 1000, 4
        rows = autodiff._TILE_ELEMS // (heads * n)
        assert n // rows >= 3 and n % rows != 0  # >= 3 query tiles, ragged last tile
        rng = np.random.default_rng(12)
        q, k, v = (rng.normal(size=(heads, n, dh)) for _ in range(3))
        tiled = attention_tiled(q, k, v, 0.5)
        recorded = attention_probs(q, k, 0.5).astype(np.longdouble) @ v.astype(np.longdouble)
        rms = np.sqrt(np.mean(recorded**2))
        assert np.abs(tiled - recorded).max() <= 1e-14 * rms

    def test_tiled_branch_matches_recording_branch_with_one_blas_thread(self):
        """The case above in a child whose BLAS runs one thread, as the benchmark pins it."""
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(vf.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")])}
        node = f"{os.path.abspath(__file__)}::TestAttention::test_tiled_branch_matches_recording_branch"
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
                             cwd=os.path.dirname(here), env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stdout + run.stderr

    @needs_longdouble
    def test_both_branches_match_extended_precision_oracle(self):
        heads, n_q, n_k, dh = 2, 200, 1000, 4
        rows = autodiff._TILE_ELEMS // (heads * n_k)
        assert n_q // rows >= 3 and n_q % rows != 0  # >= 3 query tiles, ragged last tile
        rng = np.random.default_rng(5)
        q = rng.normal(size=(heads, n_q, dh))
        k, v = rng.normal(size=(2, heads, n_k, dh))
        ref, weight = longdouble_attention(q, k, v, 0.5)
        tol = 8 * np.finfo(np.float64).eps * weight
        assert np.all(np.abs(attention_tiled(q, k, v, 0.5) - ref) <= tol)
        assert np.all(np.abs(attention_probs(q, k, 0.5) @ v - ref) <= tol)

    @needs_longdouble
    @pytest.mark.parametrize("case", ["just_below_exp_safe", "scores_near_800"])
    def test_no_overflow_or_underflow_at_large_scores(self, case):
        heads, n_q, n_k, dh, scale = 2, 200, 1000, 4, 0.5
        rng = np.random.default_rng(6)
        if case == "just_below_exp_safe":  # the unshifted exp at its limit
            r = np.sqrt(0.99 * autodiff._EXP_SAFE / scale)
            q, k = rng.normal(size=(heads, n_q, dh)), rng.normal(size=(heads, n_k, dh))
            q *= r / np.linalg.norm(q, axis=-1, keepdims=True)
            k *= r / np.linalg.norm(k, axis=-1, keepdims=True)
        else:  # rows of scores near +800 (exp overflows) or -800 (exp underflows)
            u = np.full(dh, dh**-0.5)
            sign = np.where(rng.random(size=(heads, n_q, 1)) < 0.5, -1.0, 1.0)
            q = sign * 40 * u + 0.1 * rng.normal(size=(heads, n_q, dh))
            k = 40 * u + 0.1 * rng.normal(size=(heads, n_k, dh))
        v = rng.normal(size=(heads, n_k, dh))
        bound = scale * np.linalg.norm(q, axis=-1).max() * np.linalg.norm(k, axis=-1).max()
        top = np.abs(q @ k.swapaxes(-1, -2)).max() * scale
        if case == "just_below_exp_safe":
            assert 0.9 * autodiff._EXP_SAFE < top <= bound <= autodiff._EXP_SAFE
        else:
            assert top > 750 and bound > autodiff._EXP_SAFE
        ref, weight = longdouble_attention(q, k, v, scale)
        with np.errstate(over="raise", under="raise"):
            tiled = attention_tiled(q, k, v, scale)
            recorded = attention_probs(q, k, scale) @ v
        # a score of size `bound` is off by a few eps * bound, which exp turns
        # into a relative error of the probabilities
        tol = 8 * np.finfo(np.float64).eps * (1 + bound) * weight
        assert np.all(np.isfinite(tiled))
        assert np.all(np.abs(tiled - ref) <= tol) and np.all(np.abs(recorded - ref) <= tol)


# A base forward (12 latent channels, 8 frames, d=48, 6 heads) at one of the
# benchmark's hi shapes in a fresh interpreter with one BLAS thread: one
# warm-up, then the median minor page faults of 5 forwards.
FAULTS_SCRIPT = """
import resource, statistics
import vidflow as vf
params = vf.DenoiserParams.init(patch=2, d=48, heads=6, depth=2, w_t=4, channels=12,
                                cond_dim=4, rng=vf.Rng(0))
z = vf.sample_gaussian(vf.Extent5({batch}, 12, 8, {hw}, {hw}), vf.Rng(1))
cond = vf.Conditioning.zeros(4)
vf.forward_velocity(params, z, 0.5, cond)
counts = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    vf.forward_velocity(params, z, 0.5, cond)
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(counts))
"""


def small_model(d: int, heads: int, seed: int):
    params = vf.DenoiserParams.init(patch=2, d=d, heads=heads, depth=2, w_t=4, channels=4,
                                    cond_dim=2, rng=vf.Rng(seed))
    params.tensors["head.w"] = np.random.default_rng(seed).normal(size=params.tensors["head.w"].shape)
    return params


def velocity(params, batch: int, hw: int, seed: int) -> np.ndarray:
    z = vf.sample_gaussian(vf.Extent5(batch, 4, 4, hw, hw), vf.Rng(seed))
    return vf.forward_velocity(params, z, 0.5, vf.Conditioning.zeros(2)).values


class TestScratch:
    """Inference reuses one work array per thread for the FFN's hidden array
    and attention's score tiles."""

    @pytest.mark.parametrize("batch,hw,budget", [(4, 16, 1024), (1, 32, 256)],
                             ids=["gen_small_hi", "gen_large_hi"])
    def test_library_forward_takes_few_page_faults(self, batch, hw, budget):
        """Without the scratch gen_large's median was 3008 faults.  gen_small's
        was 500-3800, by heap layout (the environment's size moves it), so its
        budget bounds the scratch's remaining faults (0-416) but does not
        always separate the two."""
        src = os.path.dirname(os.path.dirname(vf.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT.format(batch=batch, hw=hw)],
                             env=env, capture_output=True, text=True, check=True)
        assert float(run.stdout) <= budget

    def test_results_do_not_alias_the_scratch(self):
        with ThreadPoolExecutor(1) as pool:  # a new thread, with no scratch yet
            pool.submit(self._results_do_not_alias_the_scratch).result()

    @staticmethod
    def _results_do_not_alias_the_scratch():
        rng = np.random.default_rng(3)
        params = small_model(12, 2, seed=4)
        w1, b1, w2, b2 = (rng.normal(size=s) for s in ((4, 16), (16,), (16, 4), (4,)))
        q, k, v = rng.normal(size=(3, 2, 9, 4))
        results = []
        for make in (lambda: ffn(rng.normal(size=(5, 7, 4)), w1, b1, w2, b2),
                     lambda: attention_tiled(q, k, v, 0.5),
                     lambda: velocity(params, 1, 4, seed=5)):
            results.append(make())
            assert not np.shares_memory(results[-1], autodiff._SCRATCH.array)
        kept, size = [r.copy() for r in results], autodiff._SCRATCH.array.size
        velocity(params, 2, 8, seed=6)
        assert autodiff._SCRATCH.array.size > size  # the scratch grew: a new array
        for result, copy in zip(results, kept):
            assert np.array_equal(result, copy)

    def test_forwards_in_threads_match_serial_ones(self):
        """Four threads run forwards of two shapes, three each, while the
        interpreter switches threads often."""
        jobs = [(small_model(12, 2, seed=7), 2, 16, 8), (small_model(18, 3, seed=9), 1, 20, 10)]
        serial = [velocity(*job) for job in jobs]
        results = [[] for _ in range(4)]
        start = threading.Barrier(4)

        def work(i):
            start.wait()
            results[i] = [velocity(*jobs[i % 2]) for _ in range(3)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, got in enumerate(results):
            assert len(got) == 3 and all(np.array_equal(g, serial[i % 2]) for g in got)


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="one CPU: attention_tiled starts no helper threads")

# (heads, query tokens, key tokens, dh): gen_large's hi windows, a shifted
# 512-token run, the 32×32 refiner's windows and its shifted 512-token runs,
# a 4096-token refiner run, a gen_small window (1-row tail tile) and a
# cross-attention shape
SHARED_SHAPES = [(6, 1024, 1024, 8), (6, 512, 512, 8), (2, 1024, 1024, 6), (2, 512, 512, 6),
                 (2, 4096, 4096, 6), (6, 256, 256, 8), (2, 200, 1000, 4)]

# In a fresh interpreter: gen_small's batch-4 forward of the base model at
# its lo shape, and a rig iteration at 5 and at 9 frames; then the Refiner's
# batch-4 forward at gen_small's refine shape, whose items go to the
# helpers; the thread names after each part.
THREADS_SCRIPT = """
import threading
from dataclasses import replace
from vidflow.denoiser import ToyCodec, train_refiner
import vidflow as vf
from bit_digest import model
from conftest import RIG_DEG, RIG_TRAIN, make_rig_dataset
rng = vf.Rng(42)
base, refiner = model(48, 6, rng.split(1)), model(12, 2, rng.split(2))
cond = vf.Conditioning.zeros(4)
def forward(params, hw):
    vf.forward_velocity(params, vf.sample_gaussian(vf.Extent5(4, 12, 8, hw, hw), vf.Rng(hw)), 0.6, cond)
forward(base, 8)
dataset = make_rig_dataset(vf.Rng(7), n_clips=4)
params, opt, _ = train_refiner(dataset, ToyCodec(), RIG_DEG, RIG_TRAIN, vf.Rng(8), n_iters=1)
train_refiner(dataset, ToyCodec(), RIG_DEG, replace(RIG_TRAIN, phase1_iters=1), vf.Rng(8), params, opt,
              start_iter=1, n_iters=1)
print(sorted(t.name for t in threading.enumerate()))
forward(refiner, 16)
print(sorted(t.name for t in threading.enumerate()))
"""


def qkv(heads, n_q, n_k, dh, seed=0):
    """Operands laid out as the window attention lays them out: head-major
    views of token-major projections."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n_q, heads, dh)).transpose(1, 0, 2)
    k, v = (rng.normal(size=(n_k, heads, dh)).transpose(1, 0, 2) for _ in range(2))
    return q, k, v


def run_with_timeout(fn, timeout=60.0):
    """``fn()`` on a new thread: (finished in time, its result or exception)."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:
            box["value"] = e

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive(), box.get("value")


class TestSharedTiles:
    """A large attention_tiled call shares its query tiles with helper
    threads and returns the serial path's bytes."""

    @staticmethod
    def serial(monkeypatch, q, k, v, scale):
        with monkeypatch.context() as m:
            m.setattr(autodiff, "_SHARE_SCORES", 1 << 62)
            return attention_tiled(q, k, v, scale)

    @needs_two_cpus
    @pytest.mark.parametrize("scale", [0.35, 60.0], ids=["unshifted", "shifted"])
    @pytest.mark.parametrize("shape", SHARED_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_shared_output_is_the_serial_one(self, monkeypatch, shape, scale):
        q, k, v = qkv(*shape)
        want = self.serial(monkeypatch, q, k, v, scale)
        caller, helped = threading.current_thread(), threading.Event()
        scratch = autodiff._scratch

        def spy(tile_shape):  # the caller's tiles wait until a helper has taken one
            if threading.current_thread() is caller:
                helped.wait(10)
            else:
                helped.set()
            return scratch(tile_shape)

        monkeypatch.setattr(autodiff, "_SHARE_SCORES", 0)
        monkeypatch.setattr(autodiff, "_scratch", spy)
        got = attention_tiled(q, k, v, scale)
        assert helped.is_set()
        assert got.tobytes() == want.tobytes()

    @needs_two_cpus
    def test_a_tile_that_raises_in_a_helper_reaches_the_caller(self, monkeypatch):
        q, k, v = qkv(6, 1024, 1024, 8)
        want = self.serial(monkeypatch, q, k, v, 0.35)
        raised = threading.Event()
        scratch = autodiff._scratch

        def failing(tile_shape):
            if threading.current_thread().name == "vidflow-attention":
                raised.set()
                raise ValueError("tile failed")
            raised.wait(10)  # the caller's first tile waits for the helper's error
            return scratch(tile_shape)

        monkeypatch.setattr(autodiff, "_scratch", failing)
        finished, error = run_with_timeout(lambda: attention_tiled(q, k, v, 0.35))
        assert finished and raised.is_set()
        assert isinstance(error, ValueError) and str(error) == "tile failed"
        monkeypatch.undo()
        finished, got = run_with_timeout(lambda: attention_tiled(q, k, v, 0.35))  # the helpers still serve
        assert finished and got.tobytes() == want.tobytes()

    @needs_two_cpus
    def test_a_blocked_helper_does_not_hold_up_the_call(self, monkeypatch):
        q, k, v = qkv(6, 1024, 1024, 8)
        want = self.serial(monkeypatch, q, k, v, 0.35)
        blocked = threading.Event()
        for _ in range(autodiff._helper_count()):
            autodiff._JOBS.put(blocked.wait)  # each helper takes one and waits on it
        try:
            finished, got = run_with_timeout(lambda: attention_tiled(q, k, v, 0.35))
        finally:
            blocked.set()
        assert finished and got.tobytes() == want.tobytes()

    @needs_two_cpus
    def test_no_tile_starts_after_one_raises(self, monkeypatch):
        q, k, v = qkv(6, 1024, 1024, 8)  # 49 tiles of 21 rows
        raised, started = threading.Event(), []
        scratch = autodiff._scratch

        def failing(tile_shape):
            started.append(threading.current_thread().name)
            if threading.current_thread().name == "vidflow-attention":
                raised.set()
                raise ValueError("tile failed")
            raised.wait(10)  # the caller's first tile waits for a helper's error
            return scratch(tile_shape)

        monkeypatch.setattr(autodiff, "_scratch", failing)
        finished, error = run_with_timeout(lambda: attention_tiled(q, k, v, 0.35))
        assert finished and isinstance(error, ValueError)
        assert "vidflow-attention" in started and len(started) <= 2 * CPUS

    @needs_two_cpus
    def test_blocked_helpers_keep_no_operand_alive(self):
        """A helper that reaches a call's job after the call has returned
        holds none of its arrays."""
        q, k, v = qkv(6, 1024, 1024, 8)
        blocked = threading.Event()
        for _ in range(autodiff._helper_count()):
            autodiff._JOBS.put(blocked.wait)  # each helper takes one and waits on it
        try:
            finished, out = run_with_timeout(lambda: attention_tiled(q, k, v, 0.35))
            assert finished and isinstance(out, np.ndarray)
            refs = weakref.ref(v), weakref.ref(out)
            del q, k, v, out
            assert [ref() for ref in refs] == [None, None]
        finally:
            blocked.set()

    @needs_two_cpus
    def test_concurrent_callers_match_serial_calls(self, monkeypatch):
        """Four threads share their calls' tiles with the same helpers while
        the interpreter switches threads often; a lost update in the hand-out
        would skip or repeat a tile, or leave a call waiting."""
        jobs = [qkv(6, 512, 512, 8, seed=1), qkv(2, 1024, 1024, 6, seed=2)]
        serial = [self.serial(monkeypatch, *job, 0.35).tobytes() for job in jobs]
        results = [None] * 4

        def work(i):
            results[i] = [attention_tiled(*jobs[i % 2], 0.35).tobytes() for _ in range(3)]

        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, got in enumerate(results):
            assert got == [serial[i % 2]] * 3

    def test_small_forwards_and_training_start_no_thread(self):
        """gen_small's lo forward (0.09 M scores an item) and training run on
        one thread; its refine forward, whose items hold 0.46 M scores each,
        starts the helpers."""
        src = os.path.dirname(os.path.dirname(vf.__file__))
        here = os.path.dirname(os.path.abspath(__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        small, large = (ast.literal_eval(line) for line in run.stdout.splitlines())
        assert small == ["MainThread"]
        assert large == ["MainThread"] + ["vidflow-attention"] * (CPUS - 1)



def gen_base(seed: int = 11, d: int = 48, heads: int = 6):
    """The bench's base architecture (d=48, 6 heads; the Refiner's is d=12,
    2 heads), depth 2, w_t=4, patch 2, 12 channels, with a random output
    head, so the outputs are not zero."""
    params = vf.DenoiserParams.init(patch=2, d=d, heads=heads, depth=2, w_t=4, channels=12, cond_dim=4,
                                    rng=vf.Rng(seed))
    params.tensors["head.w"] = np.random.default_rng(seed).normal(size=params.tensors["head.w"].shape)
    return params


def gen_latent(batch: int, hw: int) -> vf.LatentGrid:
    return vf.sample_gaussian(vf.Extent5(batch, 12, 8, hw, hw), vf.Rng(hw))


class TestSharedItems:
    """A batched inference forward whose items are large hands them to the
    helper threads and returns the serial path's bytes; a saving forward
    runs its items in order on the caller's thread."""

    COND = vf.Conditioning.zeros(4)

    def forward(self, params, z):
        return vf.forward_velocity(params, z, 0.6, self.COND).values

    def serial(self, monkeypatch, params, z):
        with monkeypatch.context() as m:
            m.setattr(autodiff, "_SHARE_SCORES", 1 << 62)
            return self.forward(params, z)

    @staticmethod
    def helper_takes_an_item(monkeypatch):
        """Make each item's first step on the calling thread wait until a
        helper has started an item; return the names of the threads that
        started items."""
        caller, helped, names = threading.current_thread(), threading.Event(), []
        patchify = denoiser._patchify

        def spy(x, p):
            names.append(threading.current_thread().name)
            if threading.current_thread() is caller:
                helped.wait(10)
            else:
                helped.set()
            return patchify(x, p)

        monkeypatch.setattr(denoiser, "_patchify", spy)
        return names

    @needs_two_cpus
    def test_gen_small_hi_items_go_to_a_helper_with_the_serial_bits(self, monkeypatch):
        """gen_small's hi forward (1,376,256 scores an item) and its refine
        forward on the Refiner (458,752), at the floor and with every
        attention call sharing its tiles too."""
        for params in (gen_base(), gen_base(d=12, heads=2)):
            z = gen_latent(4, 16)
            want = self.serial(monkeypatch, params, z)
            for floor in (autodiff._SHARE_SCORES, 0):
                with monkeypatch.context() as m:
                    names = self.helper_takes_an_item(m)
                    m.setattr(autodiff, "_SHARE_SCORES", floor)
                    got = self.forward(params, z)
                assert len(names) == 4 and "vidflow-attention" in names
                assert got.tobytes() == want.tobytes()

    @needs_two_cpus
    def test_an_item_that_raises_in_a_helper_reaches_the_caller(self, monkeypatch):
        params, z = gen_base(), gen_latent(4, 16)
        want = self.serial(monkeypatch, params, z)
        raised = threading.Event()
        patchify = denoiser._patchify

        def failing(x, p):
            if threading.current_thread().name == "vidflow-attention":
                raised.set()
                raise ValueError("item failed")
            raised.wait(10)  # the caller's first item waits for the helper's error
            return patchify(x, p)

        monkeypatch.setattr(denoiser, "_patchify", failing)
        finished, error = run_with_timeout(lambda: self.forward(params, z))
        assert finished and raised.is_set()
        assert isinstance(error, ValueError) and str(error) == "item failed"
        monkeypatch.undo()
        finished, got = run_with_timeout(lambda: self.forward(params, z))  # the helpers still serve
        assert finished and got.tobytes() == want.tobytes()

    @needs_two_cpus
    def test_items_share_their_attention_tiles(self, monkeypatch):
        """At 32×32 each item's attention calls hold 6·1024² scores, so an
        item on a helper shares its tiles while the caller runs another; each
        thread drains its own call's tiles, so neither waits on the other."""
        params, z = gen_base(), gen_latent(2, 32)
        want = self.serial(monkeypatch, params, z)
        names = self.helper_takes_an_item(monkeypatch)
        sharers, share = [], autodiff._share

        def spy(job, n, helpers):
            sharers.append(threading.current_thread().name)
            return share(job, n, helpers)

        monkeypatch.setattr(autodiff, "_share", spy)
        finished, got = run_with_timeout(lambda: self.forward(params, z))
        assert finished and "vidflow-attention" in names
        assert "vidflow-attention" in sharers and sharers.count("vidflow-attention") < len(sharers)
        assert got.tobytes() == want.tobytes()

    @needs_two_cpus
    def test_concurrent_forwards_match_serial_ones(self, monkeypatch):
        """Four threads run forwards whose items go to the same helpers,
        while the interpreter switches threads often; an item lost or run
        twice would leave an output missing, wrong or a call waiting."""
        params = gen_base()
        jobs = [gen_latent(4, 16), gen_latent(2, 24)]  # 1.38 M and 7.0 M scores an item
        serial = [self.serial(monkeypatch, params, z).tobytes() for z in jobs]
        results = [None] * 4

        def work(i):
            results[i] = [self.forward(params, jobs[i % 2]).tobytes() for _ in range(2)]

        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, got in enumerate(results):
            assert got == [serial[i % 2]] * 2

    # (batch, latent size, the Refiner's rather than the base model's) of the
    # bench's six forwards at 8 frames, and the jobs each hands out: "items",
    # or the frame length of the window runs whose query tiles go out
    BENCH_FORWARDS = {
        "gen_small-hi": ((4, 16, False), {"items", 4}),  # items 1.38 M, 4-frame runs 6 × 256²
        "gen_small-lo": ((4, 8, False), set()),  # items 0.09 M
        "gen_small-refine": ((4, 16, True), {"items"}),  # items 0.46 M; a 4-frame run is one tile
        "gen_large-hi": ((1, 32, False), {2, 4}),  # 6 × 512² and 6 × 1024² runs
        "gen_large-lo": ((1, 16, False), {4}),  # 6 × 256²; a 2-frame run, 6 × 128², is one tile
        "gen_large-refine": ((1, 32, True), {2, 4}),  # 2 × 512² and 2 × 1024² runs
    }

    @pytest.mark.parametrize("forward", BENCH_FORWARDS)
    def test_the_bench_forwards_hand_out_their_large_jobs(self, monkeypatch, forward):
        """What each of the bench's forwards hands out at the floor, with one
        helper whatever the CPU count; the spy runs the jobs in order."""
        (batch, hw, refiner), want = self.BENCH_FORWARDS[forward]
        params, z = gen_base(d=12, heads=2) if refiner else gen_base(), gen_latent(batch, hw)
        plane = (hw // params.patch) ** 2
        keys, shared = [], set()

        def attention(q, k, v, scale):
            keys.append(k.shape[-2])
            return attention_tiled(q, k, v, scale)

        def share(job, n, helpers):
            shared.add("items" if job.__name__ == "run" else keys[-1] // plane)
            for i in range(n):
                job(i)

        monkeypatch.setattr(windows, "attention_tiled", attention)
        monkeypatch.setattr(autodiff, "_helper_count", lambda: 1)
        monkeypatch.setattr(autodiff, "_share", share)
        self.forward(params, z)
        assert shared == want

    def test_a_saving_forward_hands_out_no_item(self, monkeypatch):
        params, z = gen_base(), gen_latent(4, 16)
        names = []
        patchify = denoiser._patchify
        monkeypatch.setattr(denoiser, "_patchify",
                            lambda x, p: names.append(threading.current_thread().name) or patchify(x, p))
        monkeypatch.setattr(autodiff, "_SHARE_SCORES", 0)
        monkeypatch.setattr(autodiff, "_share", lambda *args: pytest.fail("a saving forward shared work"))
        denoiser.backward(params, z, 0.6, self.COND, gen_latent(4, 16))
        assert names and set(names) == {threading.current_thread().name}

@pytest.mark.parametrize("module", ["ctypes", "concurrent", "logging"])
def test_no_module_imports(module):
    """The package leaves its host's C allocator alone (ctypes), and shares
    attention tiles without the executor and logging imports, which cost
    milliseconds at startup."""
    package = os.path.dirname(vf.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                        if isinstance(node, ast.Import) for alias in node.names}
            imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom)}
            assert module not in imported, name
