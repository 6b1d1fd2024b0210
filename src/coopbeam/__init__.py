"""Monte Carlo outage simulation for two-phase cooperative cluster transmission.

A cluster of K single-antenna nodes first shares the source symbol over an
intra-cluster broadcast (power P1 = alpha * P_total), then transmits jointly
to an M-antenna fusion center through random beamforming weights (power
P2 = (1 - alpha) * P_total).  The library estimates the outage probability of
the second hop empirically and analytically, sweeps the power split alpha,
and compares against an equal-power MIMO capacity-outage baseline on
uncorrelated and correlated Rayleigh channels.
"""

from ._version import __version__
from .channel import CorrelationMatrix
from .outage import (
    OutageConfig,
    OutageEstimate,
    analytical_outage,
    monte_carlo_outage,
    outage_threshold,
    regularized_lower_gamma,
)
from .powerplan import (
    broadcast_feasible,
    broadcast_power_bound,
    cluster_size,
    split,
)
from .baseline import MimoConfig, mimo_outage
from .harness import (
    ExperimentConfig,
    RunManifest,
    run_alpha_sweep,
    run_corr_sweep,
    run_single_point,
    run_snr_sweep,
)

__all__ = [
    "CorrelationMatrix",
    "ExperimentConfig",
    "MimoConfig",
    "OutageConfig",
    "OutageEstimate",
    "RunManifest",
    "__version__",
    "analytical_outage",
    "broadcast_feasible",
    "broadcast_power_bound",
    "cluster_size",
    "mimo_outage",
    "monte_carlo_outage",
    "outage_threshold",
    "regularized_lower_gamma",
    "run_alpha_sweep",
    "run_corr_sweep",
    "run_single_point",
    "run_snr_sweep",
    "split",
]
