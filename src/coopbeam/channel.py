"""Receive-side correlation model of the Rayleigh fading channel."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._blocks import (_shown, require_buffer_fits, require_finite,
                      require_positive_int)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Exponential correlation C[i, j] = r^|i-j| of m receive antennas
    (Loyka, 2001), with its scalar level.

    Built from (m, r) alone, so ``entries`` is finite, symmetric, positive
    semidefinite and has a unit diagonal; r = 0 gives the identity.
    ``entries`` is read-only, and matrices with equal (m, r) compare and
    hash equal.  ``level`` is the off-diagonal to diagonal Frobenius norm
    ratio ||C - I||_F / sqrt(m), from the sum over antenna distances d.
    """

    m: int
    r: float
    entries: np.ndarray = field(init=False, repr=False, compare=False)
    level: float = field(init=False, compare=False)

    def __post_init__(self):
        require_positive_int(m=self.m)
        require_buffer_fits("a correlation matrix", int(self.m) ** 2, m=self.m)
        require_finite(r=self.r)
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"r must lie in [0, 1), got {_shown(self.r)}")
        r, m = float(self.r), int(self.m)  # a numpy r still runs in double
        entries = r ** np.abs(np.arange(m) - np.arange(m)[:, None])
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        # ||C - I||_F^2 counts 2 (m - d) entries r^d at each distance d >= 1;
        # r is factored out so that r^2 cannot underflow for tiny r
        object.__setattr__(self, "level", r * math.sqrt(2 * math.fsum(
            (m - d) * r ** (2 * d - 2) for d in range(1, m)) / m))
