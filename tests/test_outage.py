import dataclasses
import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from coopbeam import outage
from coopbeam.baseline import MimoConfig, mimo_outage
from coopbeam.channel import CorrelationMatrix
from coopbeam.outage import (
    OutageConfig,
    analytical_outage,
    block_gains,
    monte_carlo_outage,
    outage_threshold,
    regularized_lower_gamma,
)

# the gain threshold at R_tr = 3, P2 = 42 and sigma_n^2 = 10
TAU = outage_threshold(3.0, 42.0, 10.0)


# ---------------------------------------------------------------- threshold

def test_threshold_direct_values():
    assert outage_threshold(3.0, 7.0, 1.0) == pytest.approx(1.0)
    assert outage_threshold(0.0, 5.0, 2.0) == 0.0
    assert outage_threshold(2.0, 3.0, 1.0) == pytest.approx(1.0)


@pytest.mark.properties
@given(r=st.floats(0, 10), p2=st.floats(1e-3, 1e3), s=st.floats(1e-3, 1e3))
@settings(deadline=None, max_examples=60)
def test_threshold_algebra(r, p2, s):
    tau = outage_threshold(r, p2, s)
    assert tau >= 0
    assert tau * p2 / s == pytest.approx(2.0 ** r - 1.0, rel=1e-12, abs=1e-12)


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ValueError):
        outage_threshold(3.0, 0.0, 1.0)
    with pytest.raises(ValueError,
                       match="^r_tr must be nonnegative, got -1.0$"):
        outage_threshold(-1.0, 1.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["r_tr", "p2", "sigma_n2"])
def test_threshold_rejects_non_finite(field, value):
    kw = dict(r_tr=3.0, p2=42.0, sigma_n2=10.0)
    kw[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        outage_threshold(**kw)


@pytest.mark.parametrize("r_tr", [1024.0, 1100.0, 1e6, np.float64(1100.0)])
def test_threshold_rejects_overflowing_rate(r_tr):
    with pytest.raises(ValueError, match="r_tr .* too large"):
        outage_threshold(r_tr, 1.0, 1.0)


@pytest.mark.parametrize("r_tr, p2, sigma_n2", [
    (1020.0, 1e-300, 1.0),  # (2**r_tr - 1) / p2 overflows
    (3.0, 1.0, 1e308),  # (2**r_tr - 1) * sigma_n2 overflows
])
def test_threshold_rejects_an_overflowing_tau(r_tr, p2, sigma_n2):
    with pytest.raises(ValueError, match="threshold .* is not finite"):
        outage_threshold(r_tr, p2, sigma_n2)


def test_outage_config_rejects_an_overflowing_tau(no_draws):
    # used to run and report p = 1 with tau = inf
    with pytest.raises(ValueError, match="tau must be finite"):
        monte_carlo_outage(OutageConfig(tau=math.inf, m=3, k=5, trials=10))


def test_threshold_accepts_largest_finite_rates():
    assert math.isfinite(outage_threshold(1023.0, 1.0, 1.0))
    assert math.isfinite(outage_threshold(1023.999, 1.0, 1.0))


def test_threshold_near_the_float_maximum_is_finite():
    # (2**r_tr - 1) * sigma_n2 overflows, yet tau is about 5.08e307
    exact = Fraction(2 ** 1020 - 1) * Fraction(189.74) / Fraction(42.0)
    assert outage_threshold(1020.0, 42.0, 189.74) == pytest.approx(
        float(exact), rel=1e-15)


@pytest.mark.properties
@given(r=st.floats(0, 1023.99), p2=st.floats(1e-300, 1e300),
       s=st.floats(1e-300, 1e300))
@settings(deadline=None, max_examples=300)
def test_threshold_keeps_its_bits_wherever_the_product_is_finite(r, p2, s):
    snr = 2.0 ** r - 1.0
    if math.isfinite(snr * s / p2):
        assert outage_threshold(r, p2, s).hex() == (snr * s / p2).hex()
    elif math.isfinite(snr * (s / p2)):
        assert outage_threshold(r, p2, s) == snr * (s / p2)
    else:
        with pytest.raises(ValueError, match="threshold .* is not finite"):
            outage_threshold(r, p2, s)


# ------------------------------------------------- regularized lower gamma

def test_gamma_at_zero():
    for s in (0.5, 1.0, 2.0, 7.5, 30.0):
        assert regularized_lower_gamma(s, 0.0) == 0.0


def test_gamma_exponential_special_case():
    assert regularized_lower_gamma(1.0, math.log(2.0)) == pytest.approx(
        0.5, abs=1e-14)


def test_gamma_erf_identity():
    # P(1/2, x) = erf(sqrt(x))
    assert regularized_lower_gamma(0.5, 1.0) == pytest.approx(
        math.erf(1.0), abs=1e-13)
    for x in (0.01, 0.3, 2.0, 9.0, 44.0):
        assert regularized_lower_gamma(0.5, x) == pytest.approx(
            math.erf(math.sqrt(x)), abs=1e-12)


def test_gamma_matches_scipy_grid():
    for s in np.linspace(0.5, 30.0, 25):
        for x in np.linspace(0.0, 100.0, 21):
            assert regularized_lower_gamma(float(s), float(x)) == pytest.approx(
                scipy.special.gammainc(s, x), abs=1e-12)


def test_gamma_matches_quadrature_spot_checks():
    for s, x in ((0.7, 0.4), (3.0, 2.5), (12.0, 15.0), (25.0, 20.0)):
        val, err = scipy.integrate.quad(
            lambda t: math.exp((s - 1.0) * math.log(t) - t - math.lgamma(s)),
            0.0, x, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-11
        assert regularized_lower_gamma(s, x) == pytest.approx(val, abs=1e-11)


@pytest.mark.properties
def test_gamma_monotone_and_limits():
    for s in (0.5, 1.0, 3.5, 10.0, 30.0):
        xs = np.linspace(0.0, 50.0 * s, 200)
        vals = [regularized_lower_gamma(s, float(x)) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def test_gamma_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        regularized_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_lower_gamma(2.0, -0.5)
    with pytest.raises(ValueError, match="x must be nonnegative, got -1"):
        regularized_lower_gamma(1, -1)


# scipy gives 0.4996 and 0.5001 for the two series inputs and 0.5005 for the
# continued-fraction one; the loops used to return 0.4213 and 0.2605 for the
# first two without complaint.  Each needs about 8 sqrt(s) terms, more than
# the fixed part of the cap, so with no sqrt(s) allowance they must raise.
NEAR_S = [(5e5, 5e5 - 1), (2e6, 2e6), (2e6, 2e6 + 1.5)]


@pytest.mark.parametrize("s, x", NEAR_S,
                         ids=["series", "series-at-s", "continued-fraction"])
def test_gamma_raises_when_not_converged(s, x, monkeypatch):
    monkeypatch.setattr(outage, "_GAMMA_TERMS_PER_ROOT_S", 0)
    with pytest.raises(ArithmeticError, match=re.escape(f"s={s}, x={x}")):
        regularized_lower_gamma(s, x)


# exp of the prefactor underflows to 0 there, so Q is 0; the continued
# fraction's d used to go subnormal and raise ArithmeticError
@pytest.mark.parametrize("x", [5e307, 1.7e308])
@pytest.mark.parametrize("s", [0.5, 1.5, 7.5, 15.0, 36.0, 1e3])
def test_gamma_is_one_near_the_float_maximum(s, x):
    assert regularized_lower_gamma(s, x) == 1.0


# s*log(x) and lgamma(s) are both ~1.3e7 at s = 1e6, so subtracting them
# directly used to leave the first two 3.5e-10 and 1.5e-10 off scipy; a
# fixed cap of 1000 terms raised on the NEAR_S ones
@pytest.mark.parametrize("s, x", [(1e6, 1e6 + 2), (5e5, 5e5 + 2), *NEAR_S])
def test_gamma_large_s_matches_scipy(s, x):
    assert regularized_lower_gamma(s, x) == pytest.approx(
        scipy.special.gammainc(s, x), abs=1e-12)


# ---------------------------------------------------------------- analytical

def test_analytical_s1_closed_form():
    # M*K/2 = 1 makes the printed bound an exponential CDF in tau/2
    assert analytical_outage(1, 2, 1.0) == pytest.approx(
        1.0 - math.exp(-0.5), abs=1e-12)


def test_analytical_zero_rate():
    for m, k in ((1, 1), (3, 5), (4, 2)):
        assert analytical_outage(m, k, 0.0) == 0.0


def test_analytical_variants_differ():
    printed = analytical_outage(3, 5, TAU)
    complex_conv = analytical_outage(3, 5, TAU, variant="complex_convention")
    assert printed == pytest.approx(
        regularized_lower_gamma(7.5, TAU / 2.0), rel=1e-12)
    assert complex_conv == pytest.approx(
        regularized_lower_gamma(15.0, TAU), rel=1e-12)
    assert printed != pytest.approx(complex_conv)


def test_analytical_rejects_bad_variant():
    with pytest.raises(ValueError):
        analytical_outage(3, 5, TAU, variant="exact")


@pytest.mark.properties
def test_analytical_monotonicity():
    # increasing in rate, decreasing in power
    vals_r = [analytical_outage(3, 5, outage_threshold(r, 30.0, 1.0))
              for r in (0.5, 1.0, 2.0, 3.0, 4.0)]
    assert all(b > a for a, b in zip(vals_r, vals_r[1:]))
    vals_p = [analytical_outage(3, 5, outage_threshold(3.0, p, 1.0))
              for p in (5.0, 10.0, 20.0, 40.0, 80.0)]
    assert all(b < a for a, b in zip(vals_p, vals_p[1:]))
    # below the mean, more degrees of freedom push mass above the threshold
    vals_mk = [regularized_lower_gamma(mk / 2.0, 0.5)
               for mk in (3, 6, 12, 24, 36)]
    assert all(b < a for a, b in zip(vals_mk, vals_mk[1:]))


# --------------------------------------------------------------- Monte Carlo

def test_mc_zero_rate_exactly_zero():
    cfg = OutageConfig(tau=0.0, m=2, k=3, trials=5000, seed=1)
    assert monte_carlo_outage(cfg).probability == 0.0


def test_mc_exponential_closed_form_oracle():
    # m = k = 1, tau = 1: gain is Exp(1), so P_out = 1 - e^-1
    cfg = OutageConfig(tau=1.0, m=1, k=1, trials=1_000_000, seed=71)
    est = monte_carlo_outage(cfg)
    expect = 1.0 - math.exp(-1.0)
    assert abs(est.probability - expect) <= 3.0 * est.std_error


def test_mc_std_error_formula():
    cfg = OutageConfig(tau=1.0, m=1, k=1, trials=20_000, seed=5)
    est = monte_carlo_outage(cfg)
    p = est.probability
    assert est.std_error == pytest.approx(
        math.sqrt(p * (1 - p) / est.trials), rel=1e-12)


def test_mc_worker_count_invariance():
    cfg = OutageConfig(tau=TAU, m=3, k=5, trials=50_000, seed=1234)
    single = monte_carlo_outage(cfg, workers=1)
    eight = monte_carlo_outage(cfg, workers=8)
    assert single == eight


def test_mc_seed_reproducibility_and_sensitivity():
    cfg = OutageConfig(tau=TAU, m=3, k=5, trials=30_000, seed=9)
    a = monte_carlo_outage(cfg)
    b = monte_carlo_outage(cfg)
    assert a == b
    diff = OutageConfig(tau=TAU, m=3, k=5, trials=30_000, seed=10)
    assert monte_carlo_outage(diff).probability != a.probability


def test_mc_accepts_composite_seed():
    cfg = OutageConfig(tau=TAU, m=3, k=5, trials=10_000, seed=(1234, 7))
    est = monte_carlo_outage(cfg)
    assert 0.0 <= est.probability <= 1.0


def test_mc_correlation_changes_estimate():
    base = OutageConfig(tau=2.5, m=3, k=5, trials=40_000, seed=3)
    corr = OutageConfig(tau=2.5, m=3, k=5, trials=40_000, seed=3,
                        correlation=CorrelationMatrix(3, 0.7))
    p0 = monte_carlo_outage(base).probability
    p1 = monte_carlo_outage(corr).probability
    assert p0 != p1


def test_mc_vector_mode_runs():
    cfg = OutageConfig(tau=TAU, m=3, k=5, trials=30_000, seed=11,
                       gain_mode="vector")
    est = monte_carlo_outage(cfg)
    assert 0.0 < est.probability < 1.0


@pytest.mark.properties
def test_mc_monotone_in_power_same_seed():
    # identical draws, threshold shrinking with power: counts are exactly
    # monotone, not just statistically
    probs = []
    for p2 in (5.0, 10.0, 20.0, 40.0):
        cfg = OutageConfig(tau=outage_threshold(3.0, p2, 10.0), m=3, k=5,
                           trials=20_000, seed=77)
        probs.append(monte_carlo_outage(cfg).probability)
    assert all(b <= a for a, b in zip(probs, probs[1:]))


@pytest.mark.properties
def test_mc_monotone_in_rate_same_seed():
    probs = []
    for r_tr in (0.5, 1.0, 2.0, 3.0, 4.0):
        cfg = OutageConfig(tau=outage_threshold(r_tr, 20.0, 10.0), m=3, k=5,
                           trials=20_000, seed=78)
        probs.append(monte_carlo_outage(cfg).probability)
    assert all(b >= a for a, b in zip(probs, probs[1:]))


@pytest.mark.properties
def test_mc_std_error_contract_over_replications():
    # independent replications stay within 3 sigma of their mean >= 99/100
    reps = []
    for i in range(100):
        cfg = OutageConfig(tau=1.0, m=1, k=1, trials=2000, seed=(400, i))
        reps.append(monte_carlo_outage(cfg))
    mean = sum(r.probability for r in reps) / len(reps)
    inside = sum(abs(r.probability - mean) <= 3.0 * r.std_error
                 for r in reps)
    assert inside >= 99


_MC_KW = dict(tau=TAU, m=3, k=5, trials=100)


def _link_kw(r_tr=3.0, p2=42.0, sigma_n2=10.0):
    """_MC_KW with the threshold of the link (r_tr, p2, sigma_n2), the
    way ExperimentConfig._outage_config builds an OutageConfig."""
    return {**_MC_KW, "tau": outage_threshold(r_tr, p2, sigma_n2)}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["r_tr", "p2", "sigma_n2", "tau"])
def test_mc_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        if field == "tau":
            OutageConfig(**{**_MC_KW, "tau": value})
        else:
            OutageConfig(**_link_kw(**{field: value}))


@pytest.mark.parametrize("r_tr", [1024.0, 1100.0, 1e6, np.float64(1100.0)])
def test_mc_config_rejects_overflowing_rate(r_tr):
    with pytest.raises(ValueError, match="r_tr .* too large"):
        OutageConfig(**_link_kw(r_tr=r_tr))


@pytest.mark.parametrize("tau", [-1.0, -5e-324, np.float64(-2.0), -1])
def test_mc_config_rejects_a_negative_tau(tau):
    with pytest.raises(ValueError,
                       match=f"^tau must be nonnegative, got {tau}$"):
        OutageConfig(**{**_MC_KW, "tau": tau})



@pytest.mark.parametrize("trials", [1000.5, 1000.0, True, "1000"])
def test_mc_config_rejects_non_integer_trials(trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        OutageConfig(**{**_MC_KW, "trials": trials})


@pytest.mark.parametrize("seed", [-1, (1, -2), (1, 2.5), True])
def test_mc_config_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="nonnegative integers"):
        OutageConfig(**{**_MC_KW, "seed": seed})


def test_mc_config_accepts_numpy_integers():
    cfg = OutageConfig(**{**_MC_KW, "trials": np.int64(100),
                          "seed": (np.int64(3), 0)})
    assert 0.0 <= monte_carlo_outage(cfg).probability <= 1.0


def test_mc_config_validation():
    with pytest.raises(ValueError):
        OutageConfig(tau=-1.0, m=1, k=1, trials=10)
    with pytest.raises(ValueError):
        OutageConfig(tau=1.0, m=0, k=1, trials=10)
    with pytest.raises(ValueError):
        OutageConfig(tau=1.0, m=1, k=1, trials=0)
    with pytest.raises(ValueError):
        OutageConfig(tau=1.0, m=1, k=1, trials=10, gain_mode="matrix")
    with pytest.raises(ValueError):
        OutageConfig(tau=1.0, m=2, k=1, trials=10,
                     correlation=CorrelationMatrix(3, 0.5))


def test_estimators_take_the_threshold_they_compare_against(monkeypatch):
    def derive(*args):
        raise AssertionError("an estimator derived its threshold")

    monkeypatch.setattr(outage, "outage_threshold", derive)
    cfg = OutageConfig(tau=0.0, m=3, k=5, trials=100)
    assert monte_carlo_outage(cfg).probability == 0.0
    assert analytical_outage(3, 5, 0.0) == 0.0
    assert mimo_outage(MimoConfig(r_tr=0.0, trials=100)).probability == 0.0
    assert [f.name for f in dataclasses.fields(OutageConfig)] == [
        "tau", "m", "k", "trials", "seed", "gain_mode", "correlation"]
    assert [f.name for f in dataclasses.fields(MimoConfig)] == [
        "m", "scale", "r_tr", "trials", "seed"]
    assert list(inspect.signature(analytical_outage).parameters) == [
        "m", "k", "tau", "variant"]


# ------------------------------------------------------- block gain kernel

def _reference_gains(rng, n, m, k, gain_mode, C=None):
    """The block kernel in complex arithmetic, kept as the reference."""
    re = rng.standard_normal((n, m, k))
    im = rng.standard_normal((n, m, k))
    H = (re + 1j * im) / np.sqrt(2.0)
    if C is not None:
        H = np.einsum("ij,njk->nik", C, H)
    u = rng.random((n, k))
    a = u / np.sqrt(np.sum(u * u, axis=1, keepdims=True))
    theta = rng.random((n, k)) * (2.0 * np.pi)
    if gain_mode == "vector":
        v = a * np.exp(1j * theta)
        y = np.einsum("nmk,nk->nm", H, v)
        return np.sum(np.abs(y) ** 2, axis=1)
    col2 = np.sum(np.abs(H) ** 2, axis=1)
    return np.sum(a * a * col2, axis=1)


# float64 eps times the 2*M*K <= 96 terms of a gain, with headroom for the
# different summation order; the largest deviation seen is about 2.9e-14
GAIN_RTOL = 1e-12


def test_stacked_normal_draw_is_the_two_draw_stream():
    one = np.random.default_rng(5).standard_normal((2, 700, 3, 4))
    two = np.random.default_rng(5)
    re = two.standard_normal((700, 3, 4))
    im = two.standard_normal((700, 3, 4))
    assert np.array_equal(one[0], re) and np.array_equal(one[1], im)


@pytest.mark.parametrize("n", [8192, 500], ids=["full", "partial"])
@pytest.mark.parametrize("corr", [None, "exponential", "asymmetric"])
@pytest.mark.parametrize("gain_mode", ["frobenius", "vector"])
@pytest.mark.parametrize("k", [1, 3, 12])
@pytest.mark.parametrize("m", [1, 3, 4])
def test_block_gains_match_complex_reference(m, k, gain_mode, corr, n):
    C = {None: None,
         "exponential": CorrelationMatrix(m, 0.6).entries,
         "asymmetric": np.eye(m) + np.triu(np.full((m, m), 0.4), 1)}[corr]
    seed = [31, m, k, n]
    got = block_gains(np.random.default_rng(seed), n, m, k, gain_mode, C)
    want = _reference_gains(np.random.default_rng(seed), n, m, k,
                            gain_mode, C)
    np.testing.assert_allclose(got, want, rtol=GAIN_RTOL, atol=0)
    for tau in np.quantile(want, [0.01, 0.1, 0.5, 0.9]):
        assert np.count_nonzero(got < tau) == np.count_nonzero(want < tau)


@pytest.mark.parametrize("gain_mode", ["frobenius", "vector"])
def test_block_gains_phase_draw_only_in_vector_mode(gain_mode):
    # the phases are a block's last draw: frobenius mode leaves them unread
    rng = np.random.default_rng(8)
    ref = np.random.default_rng(8)
    block_gains(rng, 300, 3, 5, gain_mode)
    ref.standard_normal((2, 300, 3, 5))
    ref.random((300, 5))
    if gain_mode == "vector":
        ref.random((300, 5))
    assert np.array_equal(rng.random(4), ref.random(4))


@pytest.mark.parametrize("gain_mode", ["frobenius", "vector"])
def test_count_block_is_gains_below_threshold(gain_mode):
    cfg = OutageConfig(tau=TAU, m=3, k=5, trials=9000, seed=(4, 2),
                       gain_mode=gain_mode,
                       correlation=CorrelationMatrix(3, 0.5))
    want = 0
    for b, n in ((0, 8192), (1, 808)):
        gains = _reference_gains(np.random.default_rng([4, 2, b]), n, 3, 5,
                                 gain_mode, cfg.correlation.entries)
        want += np.count_nonzero(gains < TAU)
    assert monte_carlo_outage(cfg).probability == want / cfg.trials


# Vector-mode gains without correlation, and frobenius gains at K = 1, are
# exactly Gamma(M, 1): H v is CN(0, I_M) for any unit v independent of H.
@pytest.mark.parametrize("gain_mode, k", [("vector", 1), ("vector", 5),
                                          ("frobenius", 1)])
@pytest.mark.parametrize("m", [1, 3, 4])
def test_block_gains_exact_gamma_distribution(m, gain_mode, k):
    n = 50_000
    gain = block_gains(np.random.default_rng([97, m, k]), n, m, k, gain_mode)
    for tau in m * np.array([0.25, 0.5, 1.0, 2.0]):
        p = regularized_lower_gamma(float(m), float(tau))
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(np.count_nonzero(gain < tau) - n * p) <= 5.0 * sigma


def gap_thresholds(values, count=9):
    """About count thresholds halfway between neighbouring values, and one
    below and one above them all: none lies on a value, even for tiny n."""
    s = np.sort(values)
    gaps = np.concatenate([[s[0] / 2], (s[:-1] + s[1:]) / 2, [2 * s[-1]]])
    return gaps[::max(1, len(gaps) // count)]


# Edges of the chunked frobenius draw (chunks of CHUNK // (m*k) trials):
# one trial, a last chunk shorter than the others, one trial per chunk
# (m*k above CHUNK), K = 1 over two chunks, and a partial block
@pytest.mark.parametrize("n, m, k", [
    (1, 3, 5), (8192, 3, 5), (3, 2, 16385), (20000, 3, 1), (3616, 3, 5),
], ids=["one-trial", "short-last-chunk", "m*k-above-chunk", "k1",
        "partial-block"])
@pytest.mark.parametrize("corr", [False, True], ids=["iid", "exponential"])
@pytest.mark.parametrize("gain_mode", ["frobenius", "vector"])
def test_block_gains_chunk_edges(n, m, k, corr, gain_mode):
    C = CorrelationMatrix(m, 0.6).entries if corr else None
    seed = [59, n, m, k]
    got = block_gains(np.random.default_rng(seed), n, m, k, gain_mode, C)
    want = _reference_gains(np.random.default_rng(seed), n, m, k,
                            gain_mode, C)
    np.testing.assert_allclose(got, want, rtol=GAIN_RTOL, atol=0)
    for tau in gap_thresholds(want):
        assert np.count_nonzero(got < tau) == np.count_nonzero(want < tau)


# Phase uniforms where tan(pi U) has its pole (U = 0.5) or sin and cos of
# 2 pi U change sign; a random draw hits any of them with probability 2**-53
EDGE_PHASES = np.array([0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])


class _EdgePhaseGenerator:
    """A generator whose normals and first uniforms are real draws and
    whose second uniform draw, the phases, repeats EDGE_PHASES."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._uniform_draws = 0

    def standard_normal(self, size=None, out=None):
        return self._rng.standard_normal(size, out=out)

    def random(self, size=None, out=None):
        self._uniform_draws += 1
        if self._uniform_draws == 1:
            return self._rng.random(size, out=out)
        phases = np.resize(EDGE_PHASES, size if out is None else out.shape)
        if out is None:
            return phases
        out[...] = phases
        return out


@pytest.mark.parametrize("corr", [False, True], ids=["iid", "exponential"])
@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("m", [1, 3])
def test_vector_gains_at_edge_phases(m, k, corr):
    C = CorrelationMatrix(m, 0.6).entries if corr else None
    n = 60
    rng, ref = _EdgePhaseGenerator(m * k), _EdgePhaseGenerator(m * k)
    got = block_gains(rng, n, m, k, "vector", C)
    want = _reference_gains(ref, n, m, k, "vector", C)
    assert rng._uniform_draws == ref._uniform_draws == 2
    np.testing.assert_allclose(got, want, rtol=GAIN_RTOL, atol=0)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", 0, -1])
@pytest.mark.parametrize("field", ["m", "k"])
def test_mc_config_rejects_non_integer_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        OutageConfig(**{**_MC_KW, field: value})


def test_mc_config_accepts_numpy_integer_sizes():
    cfg = OutageConfig(**{**_MC_KW, "m": np.int64(3), "k": np.int32(5)})
    assert monte_carlo_outage(cfg) == monte_carlo_outage(OutageConfig(**_MC_KW))
