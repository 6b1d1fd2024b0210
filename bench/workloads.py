"""The benchmark's workloads and the environment their sweeps run in.

Each workload is one coopbeam command line.  The benchmark's --seed and the
sweep's index within a run give coopbeam's --seed (sweep_seed); nothing else
depends on them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

BLOCK_SIZE = 8192  # coopbeam's Monte Carlo block; the manifest echoes it

# Golden CSV bytes are recorded at this workload seed only.
GOLDEN_SEED = 1
# Workload seeds lie in [0, 2**32).  The reference seed's high 32-bit word
# exceeds every grid-point index, so its SeedSequence entropy
# [lo, hi, point, block] never equals a workload's [seed, point, block].
MAX_WORKLOAD_SEED = 2 ** 32
REFERENCE_SEED = (0xC0FFEE << 32) | 1
REFERENCE_FACTOR = 50  # reference trials = this many times the workload's


def sweep_seed(seed: int, j: int) -> int:
    """coopbeam seed of the j-th pair of sweeps in a run with benchmark seed
    `seed`; pair 0 uses `seed` itself."""
    return (seed + j * 0x9E3779B1) % MAX_WORKLOAD_SEED


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    trials: int
    workers: int
    options: tuple = ()
    # Monte Carlo reference CSV; None where every point has an exact oracle
    reference: Optional[str] = None

    def argv(self, seed: int, out: str, trials: Optional[int] = None,
             workers: Optional[int] = None) -> list:
        return [self.command, *self.options,
                "--trials", str(trials or self.trials),
                "--seed", str(seed),
                "--workers", str(workers or self.workers),
                "--out", out]

    @property
    def golden(self) -> str:
        return os.path.join(GOLDEN_DIR, f"{self.name}.csv")


WORKLOADS = {w.name: w for w in (
    # Default 13 alpha x 11 SNR grid, frobenius gain, K from 3 to 12, two
    # full blocks per point, one worker: the frobenius kernel does the work.
    Workload("alpha-frob", "alpha-sweep", trials=2 * BLOCK_SIZE, workers=1,
             reference=os.path.join(REFERENCE_DIR, "alpha-frob.csv")),
    # alpha 0.3/0.4 plus mimo3x3 over 2..12 dB; 20000 trials is two full
    # blocks and a partial one, so every point ends in a short block.  The
    # only workload running the MIMO kernel.  One worker: with two, host CPU
    # steal on either vCPU stalls the pool and the run-to-run spread of
    # wall_s reached 0.24 on a 2-vCPU machine.
    Workload("snr-mimo", "snr-sweep", trials=20000, workers=1,
             reference=os.path.join(REFERENCE_DIR, "snr-mimo.csv")),
    # 19 r x 19 SNR points of vector gain under correlation, one partial
    # block each, so per-point costs weigh most; exact oracle at every point.
    Workload("corr-vec-exact", "corr-sweep", trials=2000, workers=1,
             options=("--config",
                      os.path.join(BENCH_DIR, "corr-vec-exact.conf"))),
)}


def coopbeam_src(root: str) -> str:
    """The checkout's coopbeam source tree; raises if it is missing."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "coopbeam", "cli.py")):
        raise FileNotFoundError(f"no coopbeam sources under {src}")
    return src


def child_env(root: str) -> dict:
    """Environment for a sweep process: this checkout's sources only, and
    one BLAS/OpenMP thread so coopbeam's workers alone set the core count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = coopbeam_src(root)
    env.pop("COOPBEAM_OUTDIR", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env
