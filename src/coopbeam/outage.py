"""Outage threshold, Monte Carlo estimation, and the analytical gamma bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._blocks import (OutageEstimate, _shown, channel_halves, chunks,
                      parallel_count, require_block_fits, require_nonnegative,
                      require_positive, require_positive_int,
                      seed_components, seeded_counter, workspace)
from .channel import CorrelationMatrix

BOUND_VARIANTS = ("printed", "complex_convention")
GAIN_MODES = ("frobenius", "vector")

_GAMMA_EPS = 1e-16
_GAMMA_ITMAX = 1000
# extra terms per sqrt(s): near x = s either expansion needs about 8 sqrt(s)
_GAMMA_TERMS_PER_ROOT_S = 12
# lgamma(s) comes from its Stirling series from this s on, where the first
# omitted term, 1/(1680 s^7), is below 1e-15
_STIRLING_MIN_S = 50.0


def required_snr(r: float, name: str = "r_tr") -> float:
    """SNR 2^r - 1 that rate r needs; errors call the rate `name`.

    Raises ValueError for a rate that is not finite, is negative, or is so
    large that 2^r overflows a float.
    """
    require_nonnegative(**{name: r})
    try:
        return 2.0 ** float(r) - 1.0
    except OverflowError:
        raise ValueError(f"{name} {_shown(r)} is too large: 2**{name} - 1 "
                         "is not finite") from None


def outage_threshold(r_tr: float, p2: float, sigma_n2: float) -> float:
    """Gain threshold below which the target rate is unachievable.

    tau = (2^r_tr - 1) * sigma_n2 / p2: outage occurs when the channel gain
    falls strictly below tau.  It is taken in Python floats, left to right,
    or with sigma_n2 / p2 first only when (2^r_tr - 1) * sigma_n2 overflows,
    so a finite tau near the float maximum is kept.  Raises ValueError if
    tau is not finite.
    """
    snr = required_snr(r_tr)
    require_positive(p2=p2, sigma_n2=sigma_n2)
    tau = snr * float(sigma_n2) / float(p2)
    if not math.isfinite(tau):
        tau = snr * (float(sigma_n2) / float(p2))
    if not math.isfinite(tau):
        raise ValueError(f"threshold (2**r_tr - 1) * sigma_n2 / p2 is not "
                         f"finite (r_tr={_shown(r_tr)}, p2={_shown(p2)}, "
                         f"sigma_n2={_shown(sigma_n2)})")
    return tau


@dataclass(frozen=True)
class OutageConfig:
    """One Monte Carlo outage estimation point: P(channel gain < tau)."""

    tau: float
    m: int
    k: int
    trials: int
    seed: object = 0
    gain_mode: str = "frobenius"
    correlation: Optional[CorrelationMatrix] = None

    def __post_init__(self):
        require_nonnegative(tau=self.tau)
        object.__setattr__(self, "tau", float(self.tau))
        require_positive_int(m=self.m, k=self.k, trials=self.trials)
        require_block_fits(self.trials, self.m, self.k)
        seed_components(self.seed)
        if self.gain_mode not in GAIN_MODES:
            raise ValueError(f"unknown gain mode {_shown(self.gain_mode)}")
        if not isinstance(self.correlation, (CorrelationMatrix, type(None))):
            raise ValueError(f"correlation must be a CorrelationMatrix, got "
                             f"{type(self.correlation).__name__}")
        if self.correlation is not None and self.correlation.m != self.m:
            raise ValueError("correlation matrix size must match m")


def _sum_axis1(x: np.ndarray, out: np.ndarray) -> None:
    """Sum x over axis 1 into out by adding its slices in turn.

    For a short axis 1, such as the antenna axis, the slice adds run on
    contiguous rows and beat a strided ``x.sum(axis=1)``.  out must not
    overlap x, or numpy copies each slice before adding it.
    """
    np.copyto(out, x[:, 0])
    for j in range(1, x.shape[1]):
        out += x[:, j]


def _frobenius_power(rng, n, m, k, C, power, norm) -> None:
    """Frobenius-mode power and weight norm of n trials, into power and norm.

    Streams the channel's chunks from channel_halves: each is mapped by C,
    squared and summed over antennas into the (n, k) "acc" buffer, so a
    column's norm is sum_m re^2 + sum_m im^2.  The amplitudes follow in
    chunks as well.
    """
    col = workspace("acc", (n, k))
    for half, start, stop, z in channel_halves(rng, n, (m, k)):
        if C is not None:
            z = np.matmul(C, z, out=workspace("channel", z.shape))
        np.square(z, out=z)
        if half:
            col[start:stop] += np.einsum("nmk->nk", z, out=workspace(
                "channel" if C is None else "chunk", (stop - start, k)))
        else:
            np.einsum("nmk->nk", z, out=col[start:stop])
    parts = chunks(n, m * k)
    amp = workspace("chunk", (parts[0][1], k))
    for start, stop in parts:
        u2 = amp[:stop - start]
        rng.random(out=u2)
        np.square(u2, out=u2)
        np.einsum("nk,nk->n", u2, col[start:stop], out=power[start:stop])
        np.einsum("nk->n", u2, out=norm[start:stop])


def _vector_power(rng, n, m, k, C, power, norm) -> None:
    """Vector-mode power and weight norm of n trials, into power and norm.

    The phases are the last draw, so the whole channel is drawn first.  The
    phasors come from one tan: with t = tan(theta/2), cos(theta) =
    2/(1 + t**2) - 1 and sin(theta) = t * 2/(1 + t**2).  The planes of the
    (3, n, k) "acc" are u; theta, which holds u**2, then the phases, then t,
    then u*sin(theta); and uc, which holds 1 + t**2, then 2/(1 + t**2), then
    u*cos(theta).  Those of the (3, n, m) "chunk" are yr, t and yi.
    """
    z = workspace("channel", (2, n, m, k))
    rng.standard_normal(out=z)
    u, theta, uc = workspace("acc", (3, n, k))
    rng.random(out=u)
    np.einsum("nk->n", np.multiply(u, u, out=theta), out=norm)
    rng.random(out=theta)
    theta *= np.pi  # half the phase: tan(pi/2) is finite in floats
    np.tan(theta, out=theta)
    np.multiply(theta, theta, out=uc)
    uc += 1.0
    np.divide(2.0, uc, out=uc)
    us = np.multiply(theta, uc, out=theta)
    uc -= 1.0
    uc *= u
    us *= u
    zr, zi = z
    yr, t, yi = workspace("chunk", (3, n, m))
    np.einsum("nmk,nk->nm", zr, uc, out=yr)
    yr -= np.einsum("nmk,nk->nm", zi, us, out=t)
    np.einsum("nmk,nk->nm", zr, us, out=yi)
    yi += np.einsum("nmk,nk->nm", zi, uc, out=t)
    if C is not None:  # C (H v) == (C H) v, rotating the three (n, m) planes
        yr, t = np.matmul(yr, C.T, out=t), yr
        yi, t = np.matmul(yi, C.T, out=t), yi
    np.multiply(yr, yr, out=yr)
    yr += np.multiply(yi, yi, out=yi)
    _sum_axis1(yr, power)


def block_gains(rng: np.random.Generator, n: int, m: int, k: int,
                gain_mode: str, C: Optional[np.ndarray] = None) -> np.ndarray:
    """Channel gains of n trials drawn from rng, as a new array.

    Draw order: the channel's real parts, then its imaginary parts, as
    ``(n, m, k)`` standard normals each, the amplitudes ``u = random((n,
    k))``, and in vector mode only the phases ``theta = 2*pi*random((n,
    k))``.  The phases are the last draw, so frobenius mode skips them
    without moving any other number.  Each draw may be made in chunks of
    whole trials into this thread's workspace: that is the same stream.

    The model is H = (re + j*im) / sqrt(2), optionally mapped to C @ H,
    and weights a = u / ||u|| with phases theta.  ``frobenius`` gives
    sum_k a_k^2 ||H[:, k]||^2 and ``vector`` gives ||H (a * e^{j theta})||^2.
    Both are evaluated in real arithmetic as a power over 2 * sum_k u_k^2,
    which folds in the 1/sqrt(2) channel scale and the weight normalization.
    """
    power = workspace("power", (n,))
    norm = workspace("norm", (n,))
    if gain_mode == "vector":
        _vector_power(rng, n, m, k, C, power, norm)
    else:
        _frobenius_power(rng, n, m, k, C, power, norm)
    norm *= 2.0
    return power / norm


def monte_carlo_outage(cfg: OutageConfig, workers: int = 1) -> OutageEstimate:
    """Estimate P(channel gain < cfg.tau) over cfg.trials random draws.

    Each trial draws an iid Rayleigh channel (correlated via C @ H when a
    correlation matrix is configured) and fresh unit-power beamforming
    weights.  Outage counting is strict (<): threshold ties are non-outage.
    Deterministic for a fixed seed regardless of `workers`.
    """
    C = None if cfg.correlation is None else cfg.correlation.entries
    count_block = seeded_counter(
        cfg.seed,
        lambda rng, n: block_gains(rng, n, cfg.m, cfg.k, cfg.gain_mode, C),
        cfg.tau)
    count = parallel_count(count_block, cfg.trials, workers)
    return OutageEstimate.from_count(count, cfg.trials)


def _not_converged(s: float, x: float, itmax: int) -> ArithmeticError:
    return ArithmeticError(
        f"regularized_lower_gamma(s={s}, x={x}) did not converge in "
        f"{itmax} terms")


def _log_gamma_prefactor(s: float, x: float) -> float:
    """log(x^s e^-x / Gamma(s)), shared by both expansions of P(s, x).

    For large s and x near s, s*log(x) and lgamma(s) nearly cancel (1e-10
    off at s = 1e6); the Stirling series of lgamma(s) turns the difference
    into s*(log1p(t) - t) with t = (x - s)/s, which does not cancel.  Below
    x = s/2 the factor is too small for the cancellation to matter.
    """
    if s < _STIRLING_MIN_S or x < 0.5 * s:
        return s * math.log(x) - x - math.lgamma(s)
    t = (x - s) / s
    series = (1 / 12 - (1 / 360 - 1 / (1260 * s * s)) / (s * s)) / s
    return s * (math.log1p(t) - t) + 0.5 * math.log(s / math.tau) - series


def regularized_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    Series expansion for x < s + 1, Lentz continued fraction for the upper
    tail otherwise; absolute error <= 1e-12 for s in [0.5, 1.34e8], the
    largest M*K a run allows.  Raises ArithmeticError when either does not
    converge within _GAMMA_ITMAX + _GAMMA_TERMS_PER_ROOT_S * sqrt(s) terms.
    """
    require_positive(s=s)
    require_nonnegative(x=x)
    if x == 0.0:
        return 0.0
    s, x = float(s), float(x)  # a numpy float32 would run in float32
    itmax = _GAMMA_ITMAX + int(_GAMMA_TERMS_PER_ROOT_S * math.sqrt(s))
    if x < s + 1.0:
        # gamma series: P = x^s e^-x / Gamma(s) * sum_n x^n / (s (s+1)...(s+n))
        ap = s
        term = 1.0 / s
        total = term
        for _ in range(itmax):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _GAMMA_EPS:
                break
        else:
            raise _not_converged(s, x, itmax)
        return total * math.exp(_log_gamma_prefactor(s, x))
    prefactor = math.exp(_log_gamma_prefactor(s, x))
    if prefactor == 0.0:
        # Q = prefactor * (a fraction below 1) is 0; for x near the float
        # maximum Lentz's d would go subnormal and never converge
        return 1.0
    # modified Lentz continued fraction for Q(s, x); P = 1 - Q
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, itmax + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    else:
        raise _not_converged(s, x, itmax)
    return 1.0 - prefactor * h


def analytical_outage(m: int, k: int, tau: float,
                      variant: str = "printed") -> float:
    """Chi-square outage lower bound at the gain threshold tau.

    ``printed`` (default): P(M*K/2, tau/2), the published formula taken
    verbatim.  ``complex_convention``: P(M*K, tau), the variant with 2*M*K
    real degrees of freedom of variance 1/2 each.  The experiment harness
    reports both so they can be compared against Monte Carlo.
    """
    require_positive_int(m=m, k=k)
    require_nonnegative(tau=tau)
    if variant not in BOUND_VARIANTS:
        raise ValueError(f"unknown bound variant {_shown(variant)}")
    if variant == "printed":
        return regularized_lower_gamma(m * k / 2.0, float(tau) / 2.0)
    return regularized_lower_gamma(float(m * k), tau)
