"""Block-deterministic Monte Carlo scheduling.

Trials are partitioned into fixed-size blocks; block b of a run draws from
its own generator seeded by (seed components..., b).  Because every block's
draws depend only on its index and the reduction is an exact integer sum,
results are byte-identical no matter how many workers map the blocks.

The block kernels keep their per-block arrays in a per-thread workspace of
float64 buffers (``workspace``), so a warm block allocates no more than its
result and the heap does not change size from one block to the next.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK_SIZE = 8192
# doubles per chunk of a chunked draw: whole trials of about this many numbers
CHUNK = 1 << 15

_workspace = threading.local()


def _is_int(value) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


def seed_components(seed) -> tuple[int, ...]:
    """Normalize a seed (int or sequence of ints) to a tuple of ints.

    Raises ValueError for a component that is not a nonnegative integer,
    which numpy would only reject once sampling starts.
    """
    parts = tuple(seed) if np.iterable(seed) else (seed,)
    for part in parts:
        if not _is_int(part) or part < 0:
            raise ValueError(
                f"seed components must be nonnegative integers, got {part!r}")
    return tuple(int(part) for part in parts)


def check_trials(trials) -> None:
    """Raise ValueError unless trials is an integer >= 1 (bool excluded)."""
    if not _is_int(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")


def check_workers(workers) -> None:
    """Raise ValueError unless workers is an integer >= 1 (bool excluded)."""
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def workspace(name: str, shape) -> np.ndarray:
    """A C-contiguous float64 array of `shape` from this thread's workspace.

    Its contents are undefined, and it stays valid until this thread next
    asks for the same name.  Each name's buffer grows on demand and is kept
    for the life of the thread.
    """
    buffers = _workspace.__dict__
    size = math.prod(shape)
    buf = buffers.get(name)
    if buf is None or buf.size < size:
        buf = buffers[name] = np.empty(size)
    return buf[:size].reshape(shape)


def chunks(n: int, row_size: int):
    """(start, stop) of consecutive chunks of the n trials of a block, each
    with at most CHUNK // row_size (and at least one) trials of row_size
    numbers."""
    rows = max(1, CHUNK // row_size)
    return [(start, min(n, start + rows)) for start in range(0, n, rows)]


def block_sizes(trials: int, block: int = BLOCK_SIZE) -> list[int]:
    full, rem = divmod(trials, block)
    sizes = [block] * full
    if rem:
        sizes.append(rem)
    return sizes


def parallel_count(count_block, trials: int, workers: int = 1,
                   block: int = BLOCK_SIZE) -> int:
    """Sum count_block(index, size) over the block partition of `trials`.

    count_block must depend only on its arguments (it builds its own RNG
    from the block index), so the total is independent of scheduling.
    Raises ValueError unless workers is an integer >= 1.
    """
    check_workers(workers)
    sizes = block_sizes(trials, block)
    if workers == 1 or len(sizes) == 1:
        return sum(count_block(b, n) for b, n in enumerate(sizes))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        counts = pool.map(count_block, range(len(sizes)), sizes)
        return sum(counts)
