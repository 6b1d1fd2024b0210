"""Equal-power MIMO capacity-outage baseline for system comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blocks import check_trials, parallel_count, seed_components
from .outage import OutageEstimate, require_finite

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class MimoConfig:
    """Open-loop MIMO link: n_tx x n_rx iid Rayleigh, equal per-antenna power.

    p_mimo is the total transmit power of the compared system (the same
    budget the two-phase scheme spends), split equally across the n_tx
    antennas.
    """

    n_tx: int = 3
    n_rx: int = 3
    p_mimo: float = 60.0
    sigma_n2: float = 1.0
    r_tr: float = 3.0
    trials: int = 100_000
    seed: object = 0

    def __post_init__(self):
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("antenna counts must be >= 1")
        require_finite(p_mimo=self.p_mimo, sigma_n2=self.sigma_n2,
                       r_tr=self.r_tr)
        if self.p_mimo <= 0 or self.sigma_n2 <= 0:
            raise ValueError("p_mimo and sigma_n2 must be positive")
        if self.r_tr < 0:
            raise ValueError("r_tr must be nonnegative")
        check_trials(self.trials)
        seed_components(self.seed)


def _log_det(hr: np.ndarray, hi: np.ndarray, g: float) -> np.ndarray:
    """Natural log det(I + g * H H^H) for H = hr + j*hi, one per trial.

    hr and hi are (n_rx, n_tx, n): entry (i, j) of every trial's H is a
    length-n vector.  Only the lower triangle of the Hermitian matrix is
    built, as real and imaginary n-vectors, and an unpivoted LDL^H
    elimination runs over it.  Every eigenvalue of the matrix is >= 1, so
    no pivoting is needed; the log det is the sum of the logs of the pivots.

    When H has fewer columns than rows, H H^H is rank deficient and its
    trailing pivots would have to cancel to 1 from values of order g.  The
    elimination then runs on H^H instead: det(I + g H^H H) is the same
    (Sylvester's identity) and its Gram matrix has full rank.
    """
    if hr.shape[1] < hr.shape[0]:
        hr, hi = hr.transpose(1, 0, 2), -hi.transpose(1, 0, 2)
    m = hr.shape[0]
    re = [[None] * m for _ in range(m)]
    im = [[None] * m for _ in range(m)]
    for i in range(m):
        for k in range(i + 1):
            # (H H^H)[i, k] = sum_j H[i, j] * conj(H[k, j])
            r = (np.einsum("jn,jn->n", hr[i], hr[k])
                 + np.einsum("jn,jn->n", hi[i], hi[k]))
            r *= g
            if i == k:
                r += 1.0
            else:
                q = (np.einsum("jn,jn->n", hi[i], hr[k])
                     - np.einsum("jn,jn->n", hr[i], hi[k]))
                q *= g
                im[i][k] = q
            re[i][k] = r
    logdet = np.log(re[0][0])
    for j in range(m - 1):
        inv = 1.0 / re[j][j]
        for i in range(j + 1, m):
            # A[i, k] -= l * conj(A[k, j]) with l = A[i, j] / A[j, j]
            lr = re[i][j] * inv
            li = im[i][j] * inv
            for k in range(j + 1, i + 1):
                br, bi = re[k][j], im[k][j]
                re[i][k] -= lr * br + li * bi
                if k < i:
                    im[i][k] -= li * br - lr * bi
        logdet += np.log(re[j + 1][j + 1])
    return logdet


def block_capacities(rng: np.random.Generator, n: int, n_rx: int, n_tx: int,
                     scale: float) -> np.ndarray:
    """Capacities in bits/s/Hz of n channels drawn from rng.

    Draw order: the channel's real and imaginary parts as one
    ``standard_normal((2, n, n_rx, n_tx))`` (the same stream as two
    (n, n_rx, n_tx) draws, real parts first).  The model is
    H = (re + j*im) / sqrt(2), and the capacity is
    log2 det(I + scale * H H^H); the 1/sqrt(2) is folded into scale / 2.
    """
    z = rng.standard_normal((2, n, n_rx, n_tx))
    hr, hi = z.transpose(0, 2, 3, 1).copy()
    return _log_det(hr, hi, scale / 2.0) / _LN2


def mimo_capacity(H: np.ndarray, p_mimo: float, sigma_n2: float) -> float:
    """Open-loop capacity log2 det(I + p/(n_tx*sigma^2) * H H^H) in bits/s/Hz."""
    H = np.asarray(H)
    n_rx, n_tx = H.shape
    scale = p_mimo / (n_tx * sigma_n2)
    logdet = _log_det(H.real[..., None], H.imag[..., None], scale)
    return float(logdet[0] / _LN2)


def _count_block_factory(cfg: MimoConfig):
    """Build the per-block outage counter for the block scheduler.

    Block b draws from ``default_rng(seed components + (b,))`` in the
    order that block_capacities documents, and counts capacities strictly
    below r_tr.
    """
    base = seed_components(cfg.seed)
    scale = cfg.p_mimo / (cfg.n_tx * cfg.sigma_n2)

    def count_block(b: int, n: int) -> int:
        rng = np.random.default_rng(base + (b,))
        capacity = block_capacities(rng, n, cfg.n_rx, cfg.n_tx, scale)
        return int(np.count_nonzero(capacity < cfg.r_tr))

    return count_block


def mimo_outage(cfg: MimoConfig, workers: int = 1) -> OutageEstimate:
    """Monte Carlo P(capacity < r_tr) for the equal-power MIMO link.

    Strict-inequality counting, same block-deterministic seeding contract as
    the beamforming estimator.  The returned threshold field carries r_tr
    (a rate, not a gain — the capacity statistic is compared directly).
    """
    count = parallel_count(_count_block_factory(cfg), cfg.trials, workers)
    p = count / cfg.trials
    se = math.sqrt(p * (1.0 - p) / cfg.trials)
    return OutageEstimate(probability=p, trials=cfg.trials,
                          std_error=se, threshold=cfg.r_tr)
