"""Receive-side correlation model of the Rayleigh fading channel."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._blocks import require_finite, require_positive_int


@dataclass(frozen=True)
class CorrelationMatrix:
    """Exponential correlation C[i, j] = r^|i-j| of m receive antennas
    (Loyka, 2001), with its scalar level.

    Built from (m, r) alone, so ``entries`` is finite, symmetric, positive
    semidefinite and has a unit diagonal; r = 0 gives the identity.
    ``entries`` is read-only, and matrices with equal (m, r) compare and
    hash equal.  ``level`` is the off-diagonal to diagonal Frobenius norm
    ratio ||C - I||_F / sqrt(m).
    """

    m: int
    r: float
    entries: np.ndarray = field(init=False, repr=False, compare=False)
    level: float = field(init=False, compare=False)

    def __post_init__(self):
        require_positive_int(m=self.m)
        require_finite(r=self.r)
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"r must lie in [0, 1), got {self.r}")
        idx = np.arange(self.m)
        entries = (np.asarray(self.r, dtype=float)
                   ** np.abs(idx[:, None] - idx[None, :]))
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        # scale by 2**-e, exactly, so r**2 cannot underflow inside the norm
        e = math.frexp(self.r)[1]
        norm = np.linalg.norm(np.ldexp(entries - np.eye(self.m), -e))
        object.__setattr__(self, "level", float(
            np.ldexp(norm, e) / math.sqrt(self.m)))


# the model's name for the class; harness builds its matrices through it
exponential_correlation = CorrelationMatrix
