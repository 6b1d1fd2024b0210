"""Receive-side correlation model of the Rayleigh fading channel."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative tolerance of the symmetry and positive-semidefiniteness checks:
# rounding in a computed matrix stays far below it.
_PSD_RTOL = 1e-12


@dataclass(frozen=True)
class CorrelationMatrix:
    """Receive-antenna correlation matrix with its scalar level.

    ``entries`` must be finite, symmetric and positive semidefinite.
    ``level`` is the off-diagonal-to-diagonal Frobenius ratio
    ||C - diag(C)||_F / ||diag(C)||_F and always equals
    ``correlation_level(entries)``.
    """

    entries: np.ndarray
    level: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if not np.isfinite(entries).all():
            raise ValueError("correlation entries must be finite")
        lvl = correlation_level(entries)
        scale = np.abs(entries).max()
        if np.abs(entries - entries.T).max() > _PSD_RTOL * scale:
            raise ValueError("correlation matrix must be symmetric")
        eigs = np.linalg.eigvalsh(entries)
        if eigs[0] < -_PSD_RTOL * eigs[-1]:
            raise ValueError(
                f"correlation matrix must be positive semidefinite, "
                f"smallest eigenvalue {eigs[0]:.3g}")
        if self.level is None:
            object.__setattr__(self, "level", lvl)
        elif not np.isclose(self.level, lvl, rtol=0, atol=1e-12):
            raise ValueError(
                f"stored level {self.level} != computed level {lvl}"
            )

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def exponential_correlation(m: int, r: float) -> CorrelationMatrix:
    """Build the exponential correlation model C[i, j] = r^|i-j|.

    Positive semidefinite for 0 <= r < 1 by construction; r = 0 gives the
    identity (uncorrelated antennas).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    idx = np.arange(m)
    entries = np.asarray(r, dtype=float) ** np.abs(idx[:, None] - idx[None, :])
    return CorrelationMatrix(entries)


def _entries(C) -> np.ndarray:
    if isinstance(C, CorrelationMatrix):
        return C.entries
    return np.asarray(C, dtype=float)


def correlation_level(C) -> float:
    """Off-diagonal to diagonal Frobenius norm ratio of a square matrix.

    level = ||C - diag(C)||_F / ||diag(C)||_F.  Zero for any diagonal matrix,
    1.0 for the all-ones matrix.
    """
    c = _entries(C)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"C must be square, got shape {c.shape}")
    diag = np.diag(c)
    denom = np.linalg.norm(diag)
    if denom == 0.0:
        raise ZeroDivisionError("correlation level undefined: all-zero diagonal")
    off = c - np.diag(diag)
    return float(np.linalg.norm(off) / denom)
