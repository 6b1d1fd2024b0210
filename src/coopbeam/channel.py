"""Receive-side correlation model of the Rayleigh fading channel."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blocks import require_finite, require_positive_int


@dataclass(frozen=True)
class CorrelationMatrix:
    """Exponential correlation C[i, j] = r^|i-j| of m receive antennas
    (Loyka, 2001), with its scalar level.

    Built from (m, r) alone, so ``entries`` is finite, symmetric, positive
    semidefinite and has a unit diagonal; r = 0 gives the identity.
    ``entries`` is read-only, ``level`` is its ``correlation_level``, and
    matrices with equal (m, r) compare and hash equal.
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
        object.__setattr__(self, "level", correlation_level(entries))


def exponential_correlation(m: int, r: float) -> CorrelationMatrix:
    """The exponential correlation model C[i, j] = r^|i-j| of m antennas."""
    return CorrelationMatrix(m, r)


def correlation_level(c: np.ndarray) -> float:
    """Off-diagonal to diagonal Frobenius norm ratio of a square matrix.

    level = ||C - diag(C)||_F / ||diag(C)||_F.  Zero for any diagonal matrix,
    1.0 for the all-ones matrix.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"C must be square, got shape {c.shape}")
    diag = np.diag(c)
    denom = np.linalg.norm(diag)
    if denom == 0.0:
        raise ZeroDivisionError("correlation level undefined: all-zero diagonal")
    off = c - np.diag(diag)
    return float(np.linalg.norm(off) / denom)
