"""Two-phase power budget: split, cluster size, broadcast feasibility and
the choice of the best split."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._blocks import require_finite, require_positive, require_positive_int
from .outage import required_snr


@dataclass(frozen=True)
class PowerAllocation:
    """Split of the total budget across the two transmission phases.

    p1 = alpha * p_total funds the intra-cluster broadcast, p2 the
    beamforming phase; they sum to p_total exactly.
    """

    p_total: float
    alpha: float
    p1: float
    p2: float


def split(p_total: float, alpha: float) -> PowerAllocation:
    """Split p_total into phase powers p1 = alpha*p_total, p2 = rest."""
    require_positive(p_total=p_total)
    require_finite(alpha=alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    p1 = alpha * p_total
    p2 = p_total - p1
    # recompute p1 as the residual so the two phases recover the budget
    # exactly; a plain alpha*p_total can land one rounding step off
    p1 = p_total - p2
    # p1 + p2 == p_total by Sterbenz: p2 or alpha*p_total is >= p_total/2
    return PowerAllocation(p_total=p_total, alpha=alpha, p1=p1, p2=p2)


def cluster_size(alpha: float, p_total: float, p_s: float) -> int:
    """Number of cluster nodes K = alpha * p_total / p_s, rounded.

    Rounds half away from zero to the nearest integer (the quoted cluster
    sizes imply e.g. 4.5 -> 5); a raw value below 0.5 funds no node and
    gives 0.  A raw value that overflows raises ValueError.
    """
    require_finite(alpha=alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    require_positive(p_total=p_total, p_s=p_s)
    raw = alpha * p_total / p_s
    if not math.isfinite(raw):
        raise ValueError(f"alpha*p_total/p_s = {raw!r} is not finite "
                         f"(alpha={alpha}, p_total={p_total}, p_s={p_s})")
    # floor(raw + 0.5) would round 0.49999999999999994 up: the sum is 1.0
    f = math.floor(raw)
    return f + (raw - f >= 0.5)


def broadcast_power_bound(k: int, r_br: float, sigma_nbr2: float) -> float:
    """Minimum broadcast-phase power: K * (2^r_br - 1) * sigma_nbr2."""
    require_positive_int(k=k)
    require_positive(r_br=r_br, sigma_nbr2=sigma_nbr2)
    return k * required_snr(r_br, "r_br") * sigma_nbr2


def broadcast_feasible(p1: float, k: int, r_br: float,
                       sigma_nbr2: float) -> bool:
    """True iff p1 covers the broadcast bound (phase then modeled error-free)."""
    require_positive(p1=p1)
    return p1 >= broadcast_power_bound(k, r_br, sigma_nbr2)


def optimize_alpha(curve) -> dict | None:
    """Best power split among one SNR's evaluated (alpha, k, feasible, p_out).

    Infeasible points (broadcast bound unmet) are skipped.  Ties break
    toward smaller alpha, which spends less broadcast power, so the result
    does not depend on the order of the points.  Returns alpha_star, k_star
    and p_out_star, or None when no point is feasible.
    """
    feasible = [(p, alpha, k) for alpha, k, ok, p in curve if ok]
    if not feasible:
        return None
    p, alpha, k = min(feasible)
    return {"alpha_star": alpha, "k_star": k, "p_out_star": p}
