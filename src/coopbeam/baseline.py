"""Equal-power MIMO capacity-outage baseline for system comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._blocks import check_trials, parallel_count, seed_components
from .outage import (
    OutageConfig,
    OutageEstimate,
    monte_carlo_outage,
    require_finite,
)

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


def mimo_capacity(H: np.ndarray, p_mimo: float, sigma_n2: float) -> float:
    """Open-loop capacity log2 det(I + p/(n_tx*sigma^2) * H H^H) in bits/s/Hz."""
    H = np.asarray(H)
    n_rx, n_tx = H.shape
    scale = p_mimo / (n_tx * sigma_n2)
    gram = np.eye(n_rx) + scale * (H @ H.conj().T)
    sign, logdet = np.linalg.slogdet(gram)
    return float(logdet / _LN2)


def _count_block_factory(cfg: MimoConfig):
    base = seed_components(cfg.seed)
    scale = cfg.p_mimo / (cfg.n_tx * cfg.sigma_n2)
    eye = np.eye(cfg.n_rx)

    def count_block(b: int, n: int) -> int:
        rng = np.random.default_rng(base + (b,))
        re = rng.standard_normal((n, cfg.n_rx, cfg.n_tx))
        im = rng.standard_normal((n, cfg.n_rx, cfg.n_tx))
        H = (re + 1j * im) / np.sqrt(2.0)
        gram = eye + scale * np.einsum("nij,nkj->nik", H, H.conj())
        _, logdet = np.linalg.slogdet(gram)
        capacity = logdet / _LN2
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


def compare_systems(snr_db_grid, proposed_cfg: OutageConfig,
                    mimo_cfg: MimoConfig, workers: int = 1):
    """Paired outage estimates of the two systems over an SNR grid.

    Both systems spend the same total power: mimo_cfg.p_mimo is the shared
    budget P_total, and the per-point noise variance is derived from the
    grid as sigma_n2 = P_total / 10^(snr_db/10) (overall SNR convention).
    proposed_cfg supplies the beamforming side (its p2 stays fixed — the
    phase-2 share of the same budget); each grid point re-seeds both
    estimators from (cfg.seed, point index).

    Returns a list of (snr_db, p_out_proposed, p_out_mimo) in ascending SNR.
    """
    if proposed_cfg.p2 >= mimo_cfg.p_mimo:
        raise ValueError(
            "proposed p2 must be a proper share of the total budget p_mimo"
        )
    rows = []
    for i, snr_db in enumerate(sorted(snr_db_grid)):
        sigma_n2 = mimo_cfg.p_mimo / (10.0 ** (snr_db / 10.0))
        pc = replace(proposed_cfg, sigma_n2=sigma_n2,
                     seed=seed_components(proposed_cfg.seed) + (i,))
        mc = replace(mimo_cfg, sigma_n2=sigma_n2,
                     seed=seed_components(mimo_cfg.seed) + (i,))
        p_prop = monte_carlo_outage(pc, workers=workers).probability
        p_mimo = mimo_outage(mc, workers=workers).probability
        rows.append((snr_db, p_prop, p_mimo))
    return rows
