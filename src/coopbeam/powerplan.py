"""Two-phase power budget: split, cluster size and broadcast feasibility."""

from __future__ import annotations

import math

from ._blocks import (_shown, require_finite, require_positive,
                      require_positive_int)
from .outage import required_snr


def split(p_total: float, alpha: float) -> tuple[float, float]:
    """(p1, p2) = (alpha*p_total, the rest), summing to p_total exactly."""
    require_positive(p_total=p_total)
    require_finite(alpha=alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {_shown(alpha)}")
    p1 = alpha * p_total
    p2 = p_total - p1
    # recompute p1 as the residual so the two phases recover the budget
    # exactly; a plain alpha*p_total can land one rounding step off
    p1 = p_total - p2
    # p1 + p2 == p_total by Sterbenz: p2 or alpha*p_total is >= p_total/2
    return p1, p2


def cluster_size(alpha: float, p_total: float, p_s: float) -> int:
    """Number of cluster nodes K = alpha * p_total / p_s, rounded.

    Rounds half away from zero to the nearest integer (the quoted cluster
    sizes imply e.g. 4.5 -> 5); a raw value below 0.5 funds no node and
    gives 0.  A raw value that overflows raises ValueError.
    """
    require_finite(alpha=alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {_shown(alpha)}")
    require_positive(p_total=p_total, p_s=p_s)
    raw = alpha * p_total / p_s
    if not math.isfinite(raw):
        raise ValueError(f"alpha*p_total/p_s = {raw!r} is not finite (alpha="
                         f"{_shown(alpha)}, p_total={_shown(p_total)}, "
                         f"p_s={_shown(p_s)})")
    # floor(raw + 0.5) would round 0.49999999999999994 up: the sum is 1.0
    f = math.floor(raw)
    return f + (raw - f >= 0.5)


def broadcast_power_bound(k: int, r_br: float, sigma_nbr2: float) -> float:
    """Minimum broadcast-phase power: K * (2^r_br - 1) * sigma_nbr2."""
    require_positive_int(k=k)
    require_positive(r_br=r_br, sigma_nbr2=sigma_nbr2)
    return k * required_snr(r_br, "r_br") * float(sigma_nbr2)


def broadcast_feasible(p1: float, k: int, r_br: float,
                       sigma_nbr2: float) -> bool:
    """True iff p1 covers the broadcast bound (phase then modeled error-free)."""
    require_positive(p1=p1)
    return p1 >= broadcast_power_bound(k, r_br, sigma_nbr2)
