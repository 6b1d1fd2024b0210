"""Receive-side correlation model of the Rayleigh fading channel."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blocks import require_positive_int

# Relative tolerance of the symmetry and positive-semidefiniteness checks:
# rounding in a computed matrix stays far below it.
_PSD_RTOL = 1e-12


@dataclass(frozen=True)
class CorrelationMatrix:
    """Receive-antenna correlation matrix with its scalar level.

    ``entries`` must be finite, symmetric, positive semidefinite and not
    all zero.  ``level`` is computed from them: the off-diagonal-to-diagonal
    Frobenius ratio ||C - diag(C)||_F / ||diag(C)||_F of
    ``correlation_level``.
    """

    entries: np.ndarray
    level: float = field(init=False)

    def __post_init__(self):
        entries = _entries(self.entries)
        object.__setattr__(self, "entries", entries)
        if not np.isfinite(entries).all():
            raise ValueError("correlation entries must be finite")
        scale = np.abs(entries).max()
        if np.abs(entries - entries.T).max() > _PSD_RTOL * scale:
            raise ValueError("correlation matrix must be symmetric")
        eigs = np.linalg.eigvalsh(entries)
        if eigs[0] < -_PSD_RTOL * eigs[-1]:
            raise ValueError(
                f"correlation matrix must be positive semidefinite, "
                f"smallest eigenvalue {eigs[0]:.3g}")
        if not np.diag(entries).any():
            raise ValueError("correlation matrix has an all-zero diagonal")
        object.__setattr__(self, "level", correlation_level(entries))

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def exponential_correlation(m: int, r: float) -> CorrelationMatrix:
    """Build the exponential correlation model C[i, j] = r^|i-j|.

    Positive semidefinite for 0 <= r < 1 by construction; r = 0 gives the
    identity (uncorrelated antennas).
    """
    require_positive_int(m=m)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    idx = np.arange(m)
    entries = np.asarray(r, dtype=float) ** np.abs(idx[:, None] - idx[None, :])
    return CorrelationMatrix(entries)


def _entries(C) -> np.ndarray:
    """C's entries as a float array; raises ValueError unless C is square."""
    if isinstance(C, CorrelationMatrix):
        return C.entries
    c = np.asarray(C, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"C must be square, got shape {c.shape}")
    return c


def correlation_level(C) -> float:
    """Off-diagonal to diagonal Frobenius norm ratio of a square matrix.

    level = ||C - diag(C)||_F / ||diag(C)||_F.  Zero for any diagonal matrix,
    1.0 for the all-ones matrix.
    """
    c = _entries(C)
    diag = np.diag(c)
    denom = np.linalg.norm(diag)
    if denom == 0.0:
        raise ZeroDivisionError("correlation level undefined: all-zero diagonal")
    off = c - np.diag(diag)
    return float(np.linalg.norm(off) / denom)
