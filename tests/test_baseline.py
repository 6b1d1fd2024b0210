import hashlib
import math
import re

import numpy as np
import pytest

from coopbeam._blocks import BLOCK_SIZE, CHUNK
from coopbeam.baseline import (
    MAX_MIMO_SCALE,
    MimoConfig,
    _gram,
    _ldl_log_det,
    block_capacities,
    mimo_outage,
)


def _log2_det(hr, hi, g):
    """log2 det(I + g * H H^H) of each (m, mt, n) H = hr + j*hi, by the
    steps block_capacities runs: the Gram, the scale g, then the LDL."""
    m, n = hr.shape[0], hr.shape[2]
    a, logdet = np.empty((m, m, n)), np.empty(n)
    _gram(hr, hi, a, logdet)
    a *= g
    return _ldl_log_det(a, logdet) / math.log(2.0)


def _capacity(H, g):
    """log2 det(I + g * H H^H) in bits/s/Hz of the one channel H; the
    equal-power link of total power p over m antennas has
    g = p / (m * sigma_n2), MimoConfig.scale."""
    H = np.asarray(H)
    return float(_log2_det(H.real[..., None], H.imag[..., None], g)[0])


def test_capacity_identity_channel_boundary():
    # 1x1 identity channel at p/sigma^2 = 7: capacity log2(8) = 3 exactly,
    # which achieves r_tr = 3 (outage counting is strict <)
    cap = _capacity(np.eye(1, dtype=complex), 7.0 / 1.0)
    assert cap == pytest.approx(3.0, abs=1e-12)
    assert not cap < 3.0


def test_capacity_equal_power_split():
    # 2x2 identity: each antenna gets p/2, capacity 2*log2(1 + p/2)
    cap = _capacity(np.eye(2, dtype=complex), 6.0 / 2.0)
    assert cap == pytest.approx(2.0 * math.log2(4.0), rel=1e-12)


@pytest.mark.properties
def test_capacity_unitary_invariance():
    rng = np.random.default_rng(42)
    H = (rng.standard_normal((3, 3))
         + 1j * rng.standard_normal((3, 3))) / np.sqrt(2.0)
    Q, _ = np.linalg.qr((rng.standard_normal((3, 3))
                         + 1j * rng.standard_normal((3, 3))) / np.sqrt(2.0))
    for p in (1.0, 10.0, 100.0):
        assert _capacity(Q @ H, p / 3.0) == pytest.approx(
            _capacity(H, p / 3.0), rel=1e-10)


def _reference_capacities(rng, n, n_rx, n_tx, scale):
    """The complex MIMO block the real kernel replaced: einsum Gram, slogdet."""
    re = rng.standard_normal((n, n_rx, n_tx))
    im = rng.standard_normal((n, n_rx, n_tx))
    H = (re + 1j * im) / np.sqrt(2.0)
    gram = np.eye(n_rx) + scale * np.einsum("nij,nkj->nik", H, H.conj())
    _, logdet = np.linalg.slogdet(gram)
    return logdet / math.log(2.0)


def _links(*counts):
    """Parameters m of the m x m links, with ids m-m (rows-columns)."""
    return [pytest.param(m, id=f"{m}-{m}") for m in counts]


ANTENNAS = _links(1, 2, 3, 4)


@pytest.mark.parametrize("n", [8192, 3616])
@pytest.mark.parametrize("scale", [0.5, 5.0, 40.0])
@pytest.mark.parametrize("n_tx", (1, 2, 3, 4))
@pytest.mark.parametrize("n_rx", (1, 2, 3, 4))
def test_block_capacities_match_complex_reference(n_rx, n_tx, scale, n):
    # block_capacities draws the square link; its kernel steps build the
    # Gram of H's rows, so an n_rx x n_tx link checks them alone on the
    # reference's own draws
    seed = (n_rx, n_tx, n)
    ref = _reference_capacities(np.random.default_rng(seed), n, n_rx, n_tx,
                                scale)
    if n_rx == n_tx:
        got = block_capacities(np.random.default_rng(seed), n, n_rx, scale)
    else:
        z = np.random.default_rng(seed).standard_normal((2, n, n_rx, n_tx))
        got = _log2_det(np.moveaxis(z[0], 0, -1), np.moveaxis(z[1], 0, -1),
                        scale / 2.0)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [8192, 3616])
@pytest.mark.parametrize("m", ANTENNAS)
def test_count_block_matches_complex_reference(m, n):
    # a full block 0 and a last block 1 of n trials, each from its own seed
    scale, seed, trials = 12.0 / m, 31, BLOCK_SIZE + n
    ref = [_reference_capacities(np.random.default_rng((seed, b)), size, m,
                                 m, scale)
           for b, size in enumerate((BLOCK_SIZE, n))]
    for r_tr in (0.25, 1.0, 3.0, 6.0, float(np.median(ref[1]))):
        cfg = MimoConfig(m=m, scale=scale, r_tr=r_tr, trials=trials,
                         seed=seed)
        want = sum(np.count_nonzero(block < r_tr) for block in ref)
        assert mimo_outage(cfg).probability == want / trials


def test_mimo_outage_zero_rate():
    cfg = MimoConfig(r_tr=0.0, trials=5000, seed=1)
    assert mimo_outage(cfg).probability == 0.0


def test_mimo_outage_1x1_exponential_oracle():
    # p/sigma^2 = 1: P(log2(1+|h|^2) < 1) = P(|h|^2 < 1) = 1 - e^-1
    cfg = MimoConfig(m=1, scale=1.0, r_tr=1.0, trials=1_000_000, seed=55)
    est = mimo_outage(cfg)
    expect = 1.0 - math.exp(-1.0)
    assert abs(est.probability - expect) <= 3.0 * est.std_error


def test_mimo_outage_worker_invariance():
    cfg = MimoConfig(trials=40_000, seed=321, scale=60.0 / 36.0)
    assert mimo_outage(cfg, workers=1) == mimo_outage(cfg, workers=8)


@pytest.mark.properties
def test_mimo_outage_monotone_same_seed():
    by_power = [mimo_outage(MimoConfig(scale=p / 30.0,
                                       trials=20_000, seed=8)).probability
                for p in (10.0, 20.0, 40.0, 80.0)]
    assert all(b <= a for a, b in zip(by_power, by_power[1:]))
    by_rate = [mimo_outage(MimoConfig(r_tr=r, scale=60.0 / 90.0,
                                      trials=20_000, seed=9)).probability
               for r in (1.0, 2.0, 4.0, 6.0)]
    assert all(b >= a for a, b in zip(by_rate, by_rate[1:]))


def test_mimo_config_validation():
    with pytest.raises(ValueError):
        MimoConfig(m=0)
    with pytest.raises(ValueError):
        MimoConfig(scale=-1.0)
    with pytest.raises(ValueError):
        MimoConfig(trials=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["p_mimo", "sigma_n2", "scale", "r_tr"])
def test_mimo_config_rejects_non_finite(field, value):
    if field in ("p_mimo", "sigma_n2"):
        # a link's power and noise variance reach MimoConfig only through
        # its scale p_mimo / (m * sigma_n2); an infinite noise makes it 0
        link = {"p_mimo": 60.0, "sigma_n2": 1.0, field: value}
        scale = link["p_mimo"] / (3 * link["sigma_n2"])
        rule = "positive" if scale == 0 else "finite"
        with pytest.raises(ValueError, match=(
                f"^scale must be {rule}, got {re.escape(str(scale))}$")):
            MimoConfig(scale=scale)
        return
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MimoConfig(**{field: value})


@pytest.mark.parametrize("trials", [1000.5, True])
def test_mimo_config_rejects_non_integer_trials(trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        MimoConfig(trials=trials)


@pytest.mark.parametrize("seed", [-1, (5, -1)])
def test_mimo_config_rejects_negative_seed(seed):
    with pytest.raises(ValueError, match="nonnegative integers"):
        MimoConfig(seed=seed)


def gap_thresholds(values, count=9):
    """About count thresholds halfway between neighbouring values, and one
    below and one above them all: none lies on a value, even for tiny n."""
    s = np.sort(values)
    gaps = np.concatenate([[s[0] / 2], (s[:-1] + s[1:]) / 2, [2 * s[-1]]])
    return gaps[::max(1, len(gaps) // count)]


# Edges of the chunked draw (chunks of CHUNK // m**2 trials): one trial, one
# trial more than a chunk, and a short last chunk
@pytest.mark.parametrize("n", [1, 3641, 8192])
@pytest.mark.parametrize("m", _links(3))
def test_block_capacities_chunk_edges(m, n):
    seed = (m, m, n, 5)
    ref = _reference_capacities(np.random.default_rng(seed), n, m, m, 5.0)
    got = block_capacities(np.random.default_rng(seed), n, m, 5.0)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    for r_tr in gap_thresholds(ref):
        assert np.count_nonzero(got < r_tr) == np.count_nonzero(ref < r_tr)


# The first 16 hex digits of the sha256 of the capacities of
# block_capacities(default_rng([3, m, n]), n, m, scale) at scale 0.1, 20 and
# 1e5, recorded when the kernel still copied both channel halves.  n is one
# trial, one trial past a chunk (so a last chunk of one trial) and a full
# block.  numpy's AVX-512 np.log and libm's log can differ in the last bit,
# so where the bytes depend on it there are two digests: AVX-512, then libm.
KERNEL_PINS = {
    (1, 1): ("fd699815c7ba66f4",),
    (1, 32769): ("837d08648eafc743", "ec8d7f3639fcc997"),
    (1, 8192): ("72cf195d748b23b2", "2e07c59890acbaae"),
    (2, 1): ("25eae2959ffbd91b",),
    (2, 8193): ("e7277f71603521cf", "7d50a2591299568f"),
    (2, 8192): ("2cb8b45b049188a1", "fc01fa0911a30e4a"),
    (3, 1): ("28d4b0faf2237c69",),
    (3, 3641): ("f53894ee7dda4d79", "36ba1363c5c43368"),
    (3, 8192): ("95a38e22ce5fba46", "1f582ce41a756a13"),
    (4, 1): ("f9680410c9d95294",),
    (4, 2049): ("6230f880a2637f11", "17a0388449930d75"),
    (4, 8192): ("d5444d1e08e440e4", "ea1ebda7bb4aa820"),
    (8, 1): ("fabbb04998ccb311",),
    (8, 513): ("e2f6fb8e51d7c035",),
    (8, 8192): ("6d7b4af51575b9cc", "4dd437a71ae8f738"),
    (16, 1): ("a467ff6c7837dd03",),
    (16, 129): ("9ecbfebfada468e9",),
    (16, 8192): ("b8eae29d72d44ad4", "c51eed8ad977caf6"),
}


def _digest(m, n, scales):
    digest = hashlib.sha256()
    for scale in scales:
        digest.update(block_capacities(np.random.default_rng([3, m, n]), n,
                                       m, scale).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("m, n", [
    pytest.param(m, n, id=f"{m}-{m}-n{n}") for m in (1, 2, 3, 4, 8, 16)
    for n in (1, CHUNK // (m * m) + 1, BLOCK_SIZE)])
def test_block_capacities_bytes_are_pinned(m, n):
    assert _digest(m, n, (0.1, 20.0, 1e5))[:16] in KERNEL_PINS[m, n]


def test_one_trial_chunks_of_a_wide_link_keep_their_bytes():
    # 129 x 129 channels come one trial per chunk; einsum sums a trial's
    # rows in another order when they are contiguous than when they are
    # strided, as they are in a block of two or more trials
    assert _digest(129, 2, (20.0,))[:16] == "49fbc9def89d3cd6"


@pytest.mark.parametrize("r_tr", [1024.0, 1100.0, 1e6, np.float64(1100.0)])
def test_mimo_config_rejects_overflowing_rate(r_tr):
    with pytest.raises(ValueError, match="r_tr .* too large"):
        MimoConfig(r_tr=r_tr)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", 0])
def test_mimo_config_rejects_non_integer_antenna_counts(value):
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        MimoConfig(m=value)


def test_mimo_config_accepts_numpy_integer_antenna_counts():
    cfg = MimoConfig(m=np.int64(2), trials=500)
    assert mimo_outage(cfg) == mimo_outage(MimoConfig(m=2, trials=500))


# scale = p / (m * sigma_n2) of a tiny noise variance, of a huge power and
# of a huge power over a subnormal noise variance, which overflows to inf
@pytest.mark.parametrize("scale", [
    60.0 / (3 * 1e-300), 1e301 / (1 * 1.0),
    np.nextafter(MAX_MIMO_SCALE, math.inf), 10**305, 1e300 / (3 * 5e-324),
], ids=["tiny-noise", "huge-power", "next-float", "int-10**305",
        "inf-scale"])
def test_mimo_config_rejects_scale_over_the_cap(scale):
    shown = re.escape(str(float(scale)))
    # an infinite scale fails the finite rule, which comes before the cap
    rule = "finite" if math.isinf(scale) else "at most 1e\\+300"
    with pytest.raises(ValueError, match=(
            f"^scale must be {rule}, got {shown}$")):
        MimoConfig(scale=scale)


def test_mimo_config_accepts_scale_at_the_cap():
    assert MimoConfig(m=2, scale=MAX_MIMO_SCALE).scale == MAX_MIMO_SCALE


# the block-buffer rule rejects it by its size in bits
def test_mimo_config_rejects_antenna_count_too_large_for_a_float():
    with pytest.raises(ValueError, match=(
            "^a block of 8192 trials with m = an int of 1,329 bits is over "
            "the limit of 268435456 doubles$")):
        MimoConfig(m=10**400)


# at the cap, g times every Gram entry stays finite and so does the LDL;
# tier-1 turns any RuntimeWarning (overflow, invalid value) into a failure
@pytest.mark.parametrize("m", ANTENNAS)
def test_block_capacities_are_finite_at_the_scale_cap(m):
    got = block_capacities(np.random.default_rng([1, 1, 0]), 8192, m,
                           MAX_MIMO_SCALE)
    assert np.isfinite(got).all()
