"""Equal-power MIMO capacity-outage baseline for system comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blocks import (OutageEstimate, channel_halves, parallel_count,
                      require_block_fits, require_positive,
                      require_positive_int, seed_components, seeded_counter,
                      workspace)
from .outage import required_snr

_LN2 = math.log(2.0)

# Largest MimoConfig.scale a link may have.  _log_det scales each Gram
# entry by g = scale / 2, and g times any Gram sum below about 1e6 stays
# finite; an overflow there turns into NaN capacities, counted as no outage.
MAX_MIMO_SCALE = 1e300


@dataclass(frozen=True)
class MimoConfig:
    """Open-loop MIMO link: m x m iid Rayleigh, equal per-antenna power.

    p_mimo is the total transmit power of the compared system (the same
    budget the two-phase scheme spends), split equally across the m
    transmit antennas.
    """

    m: int = 3
    p_mimo: float = 60.0
    sigma_n2: float = 1.0
    r_tr: float = 3.0
    trials: int = 100_000
    seed: object = 0

    def __post_init__(self):
        require_positive_int(m=self.m, trials=self.trials)
        require_positive(m=self.m, p_mimo=self.p_mimo, sigma_n2=self.sigma_n2)
        require_block_fits(self.trials, self.m, self.m)
        required_snr(self.r_tr)
        if not self.scale <= MAX_MIMO_SCALE:
            raise ValueError(f"p_mimo / (m * sigma_n2) must be at most "
                             f"{MAX_MIMO_SCALE:g}, got {self.scale}")
        seed_components(self.seed)

    @property
    def scale(self) -> float:
        """The per-antenna SNR that block_capacities runs with."""
        return self.p_mimo / (self.m * self.sigma_n2)


def _log_det(hr: np.ndarray, hi: np.ndarray, g: float) -> np.ndarray:
    """Natural log det(I + g * H H^H) for H = hr + j*hi, one per trial.

    hr and hi are (m, m, n): entry (i, j) of every trial's H is a length-n
    vector.  Only the lower triangle of the Hermitian matrix is built, as
    real and imaginary n-vectors packed into one (m, m, n) array ``a``: the
    real part of entry (i, k), k <= i, is a[i, k] and its imaginary part,
    for k < i, is a[k, i] in the otherwise unused upper triangle.  An
    unpivoted LDL^H elimination runs over it.  Every eigenvalue of the
    matrix is >= 1, so no pivoting is needed; the log det is the sum of the
    logs of the pivots.
    Every array lives in this thread's workspace, in buffers that
    block_capacities is done with: the matrix in "acc", the two product
    temporaries in the draw's "chunk", and, once the matrix is built, the
    result and the pivot lanes (1 / pivot and the two parts of a
    multiplier) in four n-vectors of "channel".  So hr and hi are not read
    after the build, and the result is a view that the next call
    overwrites.
    """
    m, n = hr.shape[0], hr.shape[2]
    a = workspace("acc", (m, m, n))
    t, s = workspace("chunk", (2, n))
    for i in range(m):
        for k in range(i + 1):
            # (H H^H)[i, k] = sum_j H[i, j] * conj(H[k, j])
            r = np.einsum("jn,jn->n", hr[i], hr[k], out=a[i, k])
            r += np.einsum("jn,jn->n", hi[i], hi[k], out=t)
            r *= g
            if i == k:
                r += 1.0
            else:
                q = np.einsum("jn,jn->n", hi[i], hr[k], out=a[k, i])
                q -= np.einsum("jn,jn->n", hr[i], hi[k], out=t)
                q *= g
    logdet, inv, lr, li = workspace("channel", (4, n))
    np.log(a[0, 0], out=logdet)
    for j in range(m - 1):
        np.divide(1.0, a[j, j], out=inv)
        for i in range(j + 1, m):
            # A[i, k] -= l * conj(A[k, j]) with l = A[i, j] / A[j, j]
            np.multiply(a[i, j], inv, out=lr)
            np.multiply(a[j, i], inv, out=li)
            for k in range(j + 1, i + 1):
                br, bi = a[k, j], a[j, k]
                np.multiply(lr, br, out=t)
                t += np.multiply(li, bi, out=s)
                a[i, k] -= t
                if k < i:
                    np.multiply(li, br, out=t)
                    t -= np.multiply(lr, bi, out=s)
                    a[k, i] -= t
        logdet += np.log(a[j + 1, j + 1], out=t)
    return logdet


def block_capacities(rng: np.random.Generator, n: int, m: int,
                     scale: float) -> np.ndarray:
    """Capacities in bits/s/Hz of n channels drawn from rng, as a new array.

    Draw order: the channel's real parts, then its imaginary parts, as
    ``(n, m, m)`` standard normals each.  They come from channel_halves and
    are copied into this thread's entry-major (2, m, m, n) "channel"
    buffer, which _log_det then reuses.  The model is H = (re + j*im) /
    sqrt(2), and the capacity is log2 det(I + scale * H H^H); the 1/sqrt(2)
    is folded into scale / 2.
    """
    h = workspace("channel", (2, m, m, n))
    for half, start, stop, z in channel_halves(rng, n, (m, m)):
        h[half, ..., start:stop] = np.moveaxis(z, 0, -1)
    return _log_det(h[0], h[1], scale / 2.0) / _LN2


def mimo_outage(cfg: MimoConfig, workers: int = 1) -> OutageEstimate:
    """Monte Carlo P(capacity < r_tr) for the equal-power MIMO link.

    Strict-inequality counting, same block-deterministic seeding contract as
    the beamforming estimator: the capacity is compared with r_tr directly.
    """
    count_block = seeded_counter(
        cfg.seed, lambda rng, n: block_capacities(rng, n, cfg.m, cfg.scale),
        cfg.r_tr)
    count = parallel_count(count_block, cfg.trials, workers)
    return OutageEstimate.from_count(count, cfg.trials)
