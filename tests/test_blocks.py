"""The block scheduler's contract and the block kernels' per-thread workspace.

A kernel's result must not depend on what its thread's workspace held
before, must be a new array, and a warm call must allocate little more than
that array.
"""

import concurrent.futures
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coopbeam import _blocks, baseline, outage
from coopbeam._blocks import parallel_count
from coopbeam.baseline import MimoConfig, block_capacities, mimo_outage
from coopbeam.channel import CorrelationMatrix
from coopbeam.harness import (
    ExperimentConfig,
    run_alpha_sweep,
    run_corr_sweep,
    run_single_point,
    run_snr_sweep,
)
from coopbeam.outage import OutageConfig, block_gains, monte_carlo_outage

SRC = Path(__file__).resolve().parent.parent / "src"

C3 = CorrelationMatrix(3, 0.5).entries

# name -> (kernel, arguments after the generator)
BLOCKS = {
    "frobenius-big": (block_gains, (8192, 3, 12, "frobenius", C3)),
    "frobenius-small": (block_gains, (7, 1, 1, "frobenius")),
    "vector-big": (block_gains, (8192, 4, 6, "vector", None)),
    "vector-small": (block_gains, (33, 3, 2, "vector", C3)),
    "mimo-big": (block_capacities, (8192, 4, 20.0)),
    "mimo-small": (block_capacities, (5, 2, 2.0)),
}


def _run(name, seed=0):
    kernel, args = BLOCKS[name]
    return kernel(np.random.default_rng([seed, len(name)]), *args)


def _in_new_thread(fn, *args):
    """fn(*args) in a thread of its own, so on an empty workspace."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return out[0]


@pytest.mark.parametrize("kind", ["frobenius", "vector", "mimo"])
def test_workspace_reuse_across_shapes_gives_fresh_results(kind):
    order = [f"{kind}-big", f"{kind}-small", f"{kind}-big",
             "frobenius-small", "mimo-big", "vector-big", f"{kind}-small"]
    fresh = {name: _in_new_thread(_run, name) for name in set(order)}
    results = []
    for name in order:
        got = _run(name)
        assert np.array_equal(got, fresh[name]), name
        results.append((name, got, got.copy()))
    for i, (name, got, kept) in enumerate(results):
        assert np.array_equal(got, kept), f"{name} changed by a later call"
        for _, other, _ in results[i + 1:]:
            assert not np.shares_memory(got, other)


def test_threads_running_different_shapes_give_serial_results():
    names = ["frobenius-big", "vector-small", "mimo-big", "frobenius-small"]
    seeds = range(3)
    serial = {(name, seed): _run(name, seed) for seed in seeds
              for name in names}
    got = {name: [] for name in names}
    barrier = threading.Barrier(len(names))

    def work(name):
        barrier.wait(timeout=60)
        for _ in range(4):
            got[name].extend((seed, _run(name, seed)) for seed in seeds)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(name,))
                   for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for name in names:
        assert len(got[name]) == 4 * len(seeds)
        for seed, result in got[name]:
            assert np.array_equal(result, serial[name, seed]), (name, seed)


N = 8192


# a beamforming block allocates only its result: scratch put in a buffer
# that a live operand of the same call shares would make numpy copy it
@pytest.mark.parametrize("kernel, args, limit", [
    (block_gains, (N, 3, 12, "frobenius"), N * 8 + 8192),
    (block_gains, (N, 3, 12, "frobenius", C3), N * 8 + 8192),
    (block_gains, (N, 3, 5, "vector", C3), N * 8 + 8192),
    (block_capacities, (N, 3, 10.0), 4 * N * 8),
], ids=["frobenius", "frobenius-corr", "vector-corr", "mimo3x3"])
def test_warm_block_allocates_about_its_result(kernel, args, limit):
    kernel(np.random.default_rng(1), *args)
    rng = np.random.default_rng(2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = kernel(rng, *args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.shape == (N,)
    assert peak <= limit


@pytest.mark.parametrize("m, n", [(1, 7), (3, 8192), (4, 3616), (8, 8192),
                                  (16, 129)])
def test_mimo_block_keeps_one_m_by_m_buffer(m, n):
    # one (m, m, n) array holds the real parts and then the Gram; beside it
    # there are two temporaries, each one chunk of the draw or three of the
    # LDL's n-vectors: the draw chunk and one chunk of imaginary parts
    def doubles():
        block_capacities(np.random.default_rng(m), n, m, 10.0)
        return sum(buf.size for buf in _blocks._workspace.__dict__.values())

    chunk = min(n, _blocks.CHUNK // (m * m)) * m * m  # whole m x m trials
    assert _in_new_thread(doubles) <= m * m * n + 2 * max(chunk, 3 * n)


@pytest.mark.parametrize("kernel, args", [
    (block_gains, (N, 3, 6, "frobenius")),
    (block_gains, (N, 3, 5, "frobenius", C3)),
    (block_gains, (7, 1, 1, "frobenius")),
    (block_gains, (N, 3, 5, "vector")),
    (block_gains, (33, 3, 2, "vector", C3)),
    *[(block_capacities, (N, m, 10.0)) for m in range(1, 5)],
], ids=["frobenius", "frobenius-corr", "frobenius-1x1", "vector",
        "vector-corr", "mimo1x1", "mimo2x2", "mimo3x3", "mimo4x4"])
def test_kernels_keep_their_scratch_in_the_role_buffers(kernel, args):
    # a kernel's per-block arrays come only from the three role buffers and
    # block_gains's two outputs, so kernels that share a thread share them
    def names():
        kernel(np.random.default_rng(5), *args)
        return set(_blocks._workspace.__dict__)

    assert _in_new_thread(names) <= {"acc", "chunk", "channel", "power",
                                     "norm"}


def test_frobenius_and_mimo_blocks_share_their_workspace():
    # an snr-sweep thread runs both kernels; the MIMO kernel keeps its real
    # parts and Gram in the frobenius accumulator, one chunk of imaginary
    # parts in "channel" and the chunk's Gram in the draw chunk, and the
    # frobenius kernel sums its imaginary chunks in "channel", so only power
    # and norm are added to what the MIMO kernel needs
    m, k = 3, 6

    def doubles():
        rng = np.random.default_rng(4)
        block_gains(rng, N, m, k, "frobenius")
        block_capacities(rng, N, m, 20.0)
        return sum(buf.size for buf in _blocks._workspace.__dict__.values())

    gram = m * m * N
    chunk = _blocks.CHUNK // (m * m) * m * m  # whole m x m trials
    limit = gram + 2 * chunk + 2 * N  # + power and norm
    assert limit == 155_632
    assert _in_new_thread(doubles) <= limit


def test_correlated_frobenius_block_keeps_two_chunks():
    # the C @ z chunk goes into "channel" and the imaginary half's sums into
    # the spent draw chunk, so beside the column norms, power and norm the
    # kernel keeps two chunks of the draw
    m, k = 3, 5

    def doubles():
        block_gains(np.random.default_rng(4), N, m, k, "frobenius",
                    CorrelationMatrix(m, 0.5).entries)
        return sum(buf.size for buf in _blocks._workspace.__dict__.values())

    chunk = _blocks.CHUNK // (m * k) * m * k  # whole m x k trials
    limit = N * k + 2 * chunk + 2 * N  # + power and norm
    assert limit == 122_864
    assert _in_new_thread(doubles) <= limit


@pytest.mark.parametrize("n", [7, N])
def test_one_by_one_mimo_block_holds_n_doubles_per_buffer(n):
    # a 1 x 1 link has no LDL elimination, so it takes no lanes or products:
    # each buffer holds at most the block's real parts, one chunk of its
    # imaginary parts or that chunk's Gram
    def sizes():
        block_capacities(np.random.default_rng(1), n, 1, 10.0)
        return {name: buf.size
                for name, buf in _blocks._workspace.__dict__.items()}

    got = _in_new_thread(sizes)
    assert max(got.values()) <= n, got


def test_vector_block_keeps_three_weight_buffers():
    # u**2 and sin(theta) go into the phase buffer, so beside the channel,
    # the three (n, m) products, power and norm the kernel keeps only u,
    # theta and u*cos(theta)
    m, k = 3, 5

    def doubles():
        block_gains(np.random.default_rng(4), N, m, k, "vector")
        return sum(buf.size for buf in _blocks._workspace.__dict__.values())

    channel = 2 * N * m * k
    limit = channel + 3 * N * k + 3 * N * m + 2 * N  # + power and norm
    assert limit == 458_752
    assert _in_new_thread(doubles) <= limit


def test_numpy_stream_is_the_one_the_golden_bytes_were_drawn_from():
    # every pinned digest starts from numpy's PCG64 normal and uniform
    # streams; if these change, the golden and kernel-pin failures beside
    # this one are numpy's, not coopbeam's
    rng = np.random.default_rng([1, 0, 0])
    digest = hashlib.sha256(rng.standard_normal(4096).tobytes()
                            + rng.random(4096).tobytes()).hexdigest()[:16]
    assert digest == "6d2ef460e9687116", (
        f"numpy {np.__version__} draws another random stream; golden "
        f"mismatches seen alongside this come from numpy's stream, not from "
        f"coopbeam")


# ------------------------------------------------------------------ workers

BAD_WORKERS = [0, -3, True, 1.5, "2", None]


@pytest.mark.parametrize("workers", BAD_WORKERS)
def test_parallel_count_rejects_bad_workers(workers):
    calls = []
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        parallel_count(lambda b, n: calls.append(b) or 0, 20000, workers)
    assert calls == []


def test_parallel_count_accepts_numpy_integer_workers():
    assert parallel_count(lambda b, n: n, 20000, np.int64(2)) == 20000


@pytest.fixture
def recording_pool(monkeypatch):
    """Sizes of the pools parallel_count makes, through a ThreadPoolExecutor
    stand-in that maps in the calling thread and starts no thread."""
    sizes = []

    class Recording:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(_blocks, "_pools", {})
    return sizes


@pytest.mark.parametrize("workers, blocks, threads", [
    (100_000, 12, 4),  # CPUs bind
    (3, 12, 3),  # workers bind
    (100_000, 2, 2),  # blocks bind
])
def test_parallel_count_threads_are_bounded(workers, blocks, threads,
                                            recording_pool, monkeypatch):
    monkeypatch.setattr(_blocks.os, "sched_getaffinity",
                        lambda pid: set(range(4)), raising=False)
    trials = blocks * _blocks.BLOCK_SIZE - 5
    assert parallel_count(lambda b, n: n, trials, workers) == trials
    assert recording_pool == [threads]
    assert list(_blocks._pools) == [threads]


def test_parallel_count_takes_cpu_count_without_affinity(recording_pool,
                                                         monkeypatch):
    monkeypatch.delattr(_blocks.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_blocks.os, "cpu_count", lambda: 3)
    assert parallel_count(lambda b, n: n, 12 * 8192, 100_000) == 12 * 8192
    assert recording_pool == [3]


def test_parallel_count_runs_one_thread_in_place(recording_pool,
                                                 monkeypatch):
    monkeypatch.setattr(_blocks.os, "sched_getaffinity",
                        lambda pid: {0}, raising=False)
    assert parallel_count(lambda b, n: n, 12 * 8192, 8) == 12 * 8192
    assert parallel_count(lambda b, n: n, 0, 8) == 0
    assert recording_pool == []


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_count_runs_each_block_once(workers, monkeypatch):
    monkeypatch.setattr(_blocks, "_cpus", lambda: workers)
    trials = 11 * _blocks.BLOCK_SIZE - 5
    seen = []
    assert parallel_count(lambda b, n: seen.append((b, n)) or n, trials,
                          workers) == trials
    assert sorted(seen) == list(enumerate(_blocks.block_sizes(trials)))


def test_many_block_point_holds_one_task_per_thread(monkeypatch):
    # one task per thread holds two results; a Future per block, all made
    # before the first result comes back, would hold about 77 MiB here
    monkeypatch.setattr(_blocks, "_cpus", lambda: 2)
    blocks = 50_000
    tracemalloc.start()
    try:
        total = parallel_count(lambda b, n: 1, blocks * _blocks.BLOCK_SIZE, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == blocks
    assert peak < 4 * 2**20


def test_one_worker_point_never_loads_the_pool(tmp_path):
    # a fresh interpreter, so no other test has imported concurrent.futures
    script = ("import sys\n"
              "from coopbeam.cli import main\n"
              "main(sys.argv[1:])\n"
              "print('concurrent.futures' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "point", "--alpha", "0.3",
         "--snr-db", "6", "--trials", str(2 * _blocks.BLOCK_SIZE),
         "--workers", "1", "--out", str(tmp_path / "point.txt")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_estimators_count_through_their_module_parallel_count(monkeypatch):
    # bench/tracer.py wraps outage.parallel_count, baseline.parallel_count and
    # the count_block(b, n) handed to them: each estimator must look the name
    # up at call time, pass it (count_block, trials, workers), and take the
    # sum of what its blocks return
    calls = []

    def recording(inner, name):
        def parallel_count(count_block, trials, workers):
            blocks = []

            def block(b, n):
                blocks.append(b)
                return count_block(b, n)

            total = inner(block, trials, workers)
            calls.append((name, trials, workers, sorted(blocks)))
            return total
        return parallel_count

    runs = [
        (outage, monte_carlo_outage,
         OutageConfig(r_tr=3.0, p2=42.0, sigma_n2=10.0, m=3, k=5,
                      trials=9000, seed=3)),
        (baseline, mimo_outage, MimoConfig(trials=9000, seed=3)),
    ]
    for module, estimate, cfg in runs:
        want = estimate(cfg, workers=2)
        monkeypatch.setattr(module, "parallel_count",
                            recording(module.parallel_count, module.__name__))
        assert estimate(cfg, workers=2) == want
    assert calls == [("coopbeam.outage", 9000, 2, [0, 1]),
                     ("coopbeam.baseline", 9000, 2, [0, 1])]


def _sweep_cfg(experiment):
    corr = dict(corr_r_grid=[0.0, 0.5]) if experiment == "corr_sweep" else {}
    return ExperimentConfig(experiment=experiment, alpha_grid=[0.3],
                            snr_db_grid=[6.0], trials=3000, seed=5, **corr)


@pytest.mark.parametrize("workers", [-3, 0, True])
@pytest.mark.parametrize("runner, experiment", [
    (run_alpha_sweep, "alpha_sweep"),
    (run_snr_sweep, "snr_sweep"),
    (run_corr_sweep, "corr_sweep"),
    (run_single_point, "single_point"),
])
def test_runners_reject_bad_workers_before_drawing(runner, experiment,
                                                   workers, no_draws):
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        runner(_sweep_cfg(experiment), workers=workers)


@pytest.mark.parametrize("workers", [-3, 0, True])
def test_estimators_reject_bad_workers_before_drawing(workers, no_draws):
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        monte_carlo_outage(OutageConfig(r_tr=3.0, p2=42.0, sigma_n2=10.0,
                                        m=3, k=5, trials=100),
                           workers=workers)
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        mimo_outage(MimoConfig(trials=100), workers=workers)


class _CountingNumpy:
    """numpy, with a count of the np.empty calls that make new buffers."""

    def __init__(self):
        self.empties = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        self.empties += 1
        return np.empty(*args, **kwargs)


def test_worker_threads_keep_their_workspace_from_point_to_point(monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(_blocks, "np", counting)
    cfg = ExperimentConfig(experiment="alpha_sweep", alpha_grid=[0.3],
                           snr_db_grid=[2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
                           trials=4 * 8192, seed=3)
    res = run_alpha_sweep(cfg, workers=2)
    assert len(res.rows) == 6
    # two threads, each with at most five buffers: acc, chunk, channel,
    # power and norm
    assert counting.empties <= 10


def test_block_fit_counts_numpy_ints_without_wrapping():
    # 2 * 8192 * 2**25 * 2**25 is 2**64, which wraps to 0 in numpy int64
    with pytest.raises(ValueError, match="over the limit"):
        _blocks.require_block_fits(8192, np.int64(2**25), np.int64(2**25))
