"""Block-deterministic Monte Carlo: seeding, channel draws and estimates.

Trials are partitioned into fixed-size blocks; block b of a run draws from
its own generator seeded by (seed components..., b) and counts its values
below a threshold.  Because every block's draws depend only on its index and
the reduction is an exact integer sum, results are byte-identical no matter
how many workers map the blocks.

The block kernels keep their per-block arrays in a per-thread workspace of
float64 buffers (``workspace``), so a warm block allocates no more than its
result and the heap does not change size from one block to the next.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 8192
# Most doubles one workspace buffer of a block may hold: 2 GiB.  The largest,
# the vector channel, holds 2 * n * m * K doubles, at most 7.9e5 in the
# README, golden and benchmark runs; the MIMO Gram holds n * m * m but is held
# to 2 * n * m * m all the same.  A config over the limit is a mistake (a
# budget ratio in the wrong unit, say) asking for gigabytes.
# The m x m entries of a CorrelationMatrix are held to the same limit.
MAX_BLOCK_DOUBLES = 1 << 28
# doubles per chunk of a chunked draw: whole trials of about this many numbers
CHUNK = 1 << 15

_workspace = threading.local()
# threads -> the process's ThreadPoolExecutor of that many threads
_pools: dict = {}
_pools_lock = threading.Lock()


def _is_int(value) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


def _shown(value) -> str:
    """A rejected value as a message shows it: a number by str, anything else
    by repr; but an int of over 15 digits by its sign and bit count, and a
    text of over 60 characters by its type and length."""
    if _is_int(value) and not -10**15 < value < 10**15:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} int of {int(value).bit_length():,} bits"
    number = isinstance(value, (int, float, np.number))
    text = str(value) if number else repr(value)
    if len(text) > 60:
        return f"a {type(value).__name__} of {len(text):,} characters"
    return text


def seed_components(seed) -> tuple[int, ...]:
    """Normalize a seed (int or sequence of ints) to a tuple of ints.

    Raises ValueError for a component that is not a nonnegative integer,
    which numpy would only reject once sampling starts.
    """
    parts = tuple(seed) if np.iterable(seed) else (seed,)
    for part in parts:
        if not _is_int(part) or part < 0:
            raise ValueError("seed components must be nonnegative "
                             f"integers, got {_shown(part)}")
    return tuple(int(part) for part in parts)


def require_positive_int(**values) -> None:
    """Raise ValueError naming the first keyword value that is not an
    integer >= 1 (bool excluded, numpy integers accepted)."""
    for name, value in values.items():
        if not _is_int(value) or value < 1:
            raise ValueError(
                f"{name} must be an integer >= 1, got {_shown(value)}")


def require_finite(**values) -> None:
    """Raise ValueError naming the first keyword value that is not a number
    (bools included), or is NaN, inf or an int too large for a float."""
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, not {_shown(value)}")
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        except TypeError:
            raise ValueError(
                f"{name} must be a number, got {_shown(value)}") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {_shown(value)}")


def require_bool(**values) -> None:
    """Raise ValueError naming the first keyword value that is not a bool
    (numpy bools accepted)."""
    for name, value in values.items():
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a bool, got {_shown(value)}")


def require_positive(**values) -> None:
    """require_finite, then raise ValueError naming the first keyword value
    that is not > 0."""
    require_finite(**values)
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {_shown(value)}")


def require_nonnegative(**values) -> None:
    """require_finite, then raise ValueError naming the first value < 0."""
    require_finite(**values)
    for name, value in values.items():
        if value < 0:
            raise ValueError(
                f"{name} must be nonnegative, got {_shown(value)}")


def require_buffer_fits(what: str, doubles: int, **sizes) -> None:
    """Raise ValueError naming `sizes` when `what` needs a buffer of over
    MAX_BLOCK_DOUBLES doubles (a Python int: numpy ints wrap)."""
    if doubles > MAX_BLOCK_DOUBLES:
        named = " and ".join(f"{k} = {_shown(v)}" for k, v in sizes.items())
        raise ValueError(f"{what} with {named} is over the limit of "
                         f"{MAX_BLOCK_DOUBLES} doubles")


def require_block_fits(trials, m, width, name="k") -> None:
    """require_buffer_fits for a block of min(trials, BLOCK_SIZE) trials of
    m x width channels, width named `name` (so m x m names only m)."""
    n = min(int(trials), BLOCK_SIZE)
    require_buffer_fits(f"a block of {n} trials", 2 * n * int(m) * int(width),
                        **{"m": m, name: width})


def workspace(name: str, shape) -> np.ndarray:
    """A C-contiguous float64 array of `shape` from this thread's workspace.

    Its contents are undefined, and it stays valid until this thread next
    asks for the same name.  Each name's buffer grows on demand and is kept
    for the life of the thread.

    A name is a role, so a thread running several kernels keeps one buffer
    per role, and a kernel takes scratch from a role whose contents it no
    longer needs.  "acc": frobenius (n, K) column norms; vector (3, n, K)
    weights u, theta, uc; MIMO (m, m, n) real parts, then Gram.  "chunk": a
    draw chunk, then a C-mapped frobenius chunk's sums, a MIMO chunk's Gram
    or LDL products; vector (3, n, m) products.  "channel": the vector draw;
    a frobenius chunk mapped by C, or without C its sums; MIMO imaginary
    parts, then LDL lanes.  block_gains adds its outputs "power" and "norm".
    """
    buffers = _workspace.__dict__
    size = math.prod(shape)
    buf = buffers.get(name)
    if buf is None or buf.size < size:
        buf = buffers[name] = np.empty(size)
    return buf[:size].reshape(shape)


@dataclass(frozen=True)
class OutageEstimate:
    probability: float
    trials: int
    std_error: float

    @classmethod
    def from_count(cls, count: int, trials: int):
        """p = count / trials with its binomial standard error."""
        p = count / trials
        return cls(p, trials, math.sqrt(p * (1.0 - p) / trials))


def chunks(n: int, row_size: int):
    """(start, stop) of consecutive chunks of the n trials of a block, each
    with at most CHUNK // row_size (and at least one) trials of row_size
    numbers."""
    rows = max(1, CHUNK // row_size)
    return [(start, min(n, start + rows)) for start in range(0, n, rows)]


def channel_halves(rng, n: int, shape):
    """Yield (half, start, stop, z) for a block's channel: half 0 is its real
    parts, half 1 its imaginary parts, and z the (stop - start, *shape)
    standard normals of trials start..stop, drawn in chunks of whole trials
    into this thread's "chunk" buffer and valid until the next item."""
    parts = chunks(n, math.prod(shape))
    draw = workspace("chunk", (parts[0][1], *shape))
    for half in range(2):
        for start, stop in parts:
            z = draw[:stop - start]
            rng.standard_normal(out=z)
            yield half, start, stop, z


def seeded_counter(seed, statistic, threshold: float):
    """The count_block(b, n) for parallel_count: block b counts the values of
    statistic(default_rng(seed components + (b,)), n) strictly below
    threshold."""
    base = seed_components(seed)

    def count_block(b: int, n: int) -> int:
        rng = np.random.default_rng(base + (b,))
        return int(np.count_nonzero(statistic(rng, n) < threshold))

    return count_block


# the seeding rule of seeded_counter and block_sizes, as the run manifest
# records it: point i of a sweep passes the seed components (seed, i)
SUBSEED_RULE = (f"point i, block b -> default_rng([seed, i, b]), "
                f"block_size={BLOCK_SIZE}")


def block_sizes(trials: int) -> list[int]:
    full, rem = divmod(trials, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full
    if rem:
        sizes.append(rem)
    return sizes


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool(threads: int):
    """The process's ThreadPoolExecutor of `threads` threads, made on first
    use, so that worker threads and their workspaces last from one point to
    the next.  concurrent.futures is imported here, so a run whose points
    all take one thread never loads it."""
    from concurrent.futures import ThreadPoolExecutor

    with _pools_lock:
        if threads not in _pools:
            _pools[threads] = ThreadPoolExecutor(max_workers=threads)
        return _pools[threads]


def parallel_count(count_block, trials: int, workers: int = 1) -> int:
    """Sum count_block(index, size) over the block partition of `trials`.

    count_block must depend only on its arguments (it builds its own RNG
    from the block index), so the total is independent of scheduling.  One
    task per thread t of T = min(workers, blocks, CPUs) sums blocks t, t + T,
    ...  Raises ValueError unless workers is an integer >= 1.
    """
    require_positive_int(workers=workers)
    sizes = block_sizes(trials)
    threads = min(workers, len(sizes), _cpus())
    if threads <= 1:
        return sum(count_block(b, n) for b, n in enumerate(sizes))
    return sum(_pool(threads).map(lambda t: sum(map(
        count_block, range(t, len(sizes), threads), sizes[t::threads])),
        range(threads)))
