import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopbeam.channel import CorrelationMatrix


def closed_form_level(m, r):
    # ||C - I||_F^2 counts 2 (m - d) entries r^d at each distance d >= 1;
    # r is factored out so that r^2 cannot underflow for tiny r
    return r * math.sqrt(2.0 * sum((m - d) * r ** (2 * d - 2)
                                   for d in range(1, m)) / m)


def test_exponential_correlation_r0_identity():
    C = CorrelationMatrix(3, 0.0)
    assert np.array_equal(C.entries, np.eye(3))
    assert C.level == 0.0


def test_exponential_correlation_direct_2x2():
    C = CorrelationMatrix(2, 0.5)
    assert np.array_equal(C.entries, [[1.0, 0.5], [0.5, 1.0]])


def test_exponential_correlation_stores_matching_level():
    C = CorrelationMatrix(3, 0.5)
    assert C.level == pytest.approx(closed_form_level(3, 0.5), rel=1e-14)
    # PSD by construction
    assert np.all(np.linalg.eigvalsh(C.entries) > -1e-12)


def test_exponential_correlation_domain():
    with pytest.raises(ValueError):
        CorrelationMatrix(3, 1.0)
    with pytest.raises(ValueError):
        CorrelationMatrix(3, -0.1)
    with pytest.raises(ValueError):
        CorrelationMatrix(0, 0.5)


def test_exponential_correlation_rejects_bool_r():
    with pytest.raises(ValueError, match="^r must be a number"):
        CorrelationMatrix(3, False)


def test_equal_m_and_r_compare_and_hash_equal():
    a, b = CorrelationMatrix(3, 0.5), CorrelationMatrix(3, 0.5)
    assert a == b and hash(a) == hash(b)
    assert a != CorrelationMatrix(3, 0.25)
    assert len({a, b, CorrelationMatrix(4, 0.5)}) == 2


def test_correlation_matrix_is_the_model_s_only_public_name():
    import coopbeam
    from coopbeam import channel, harness
    assert not hasattr(coopbeam, "exponential_correlation")
    assert not hasattr(channel, "exponential_correlation")
    assert "exponential_correlation" not in coopbeam.__all__
    # the private harness name is the one bench/tracer.py wraps
    assert harness.exponential_correlation is CorrelationMatrix


def test_entries_are_read_only():
    C = CorrelationMatrix(3, 0.5)
    with pytest.raises(ValueError, match="read-only"):
        C.entries[0, 1] = 5.0
    assert C.entries[0, 1] == 0.5


@pytest.mark.properties
@given(m=st.integers(1, 8), r=st.floats(0.0, 1.0, exclude_max=True))
@settings(deadline=None, max_examples=200)
def test_exponential_correlation_is_a_correlation_matrix(m, r):
    C = CorrelationMatrix(m, r)
    assert C.entries.shape == (m, m)
    assert np.array_equal(C.entries, C.entries.T)
    assert np.all(np.diag(C.entries) == 1.0)
    assert np.linalg.eigvalsh(C.entries)[0] >= -1e-12
    assert C.level == pytest.approx(closed_form_level(m, r), rel=1e-13,
                                    abs=1e-300)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_exponential_correlation_builds_for_every_r(m):
    for r in np.concatenate([np.linspace(0.0, 0.99, 100),
                             [0.999, 0.9999999, np.nextafter(1.0, 0.0)]]):
        assert CorrelationMatrix(m, float(r)).m == m


def test_level_hand_values():
    # ||C - I||_F / sqrt(m) worked by hand: sqrt(2 * 0.25) / sqrt(2)
    assert CorrelationMatrix(2, 0.5).level == pytest.approx(
        0.5, abs=1e-15)
    assert CorrelationMatrix(1, 0.5).level == 0.0


@pytest.mark.parametrize("m, r", [(3, 3.411798443255226e-159), (4, 1e-170),
                                  (8, 1e-300), (2, 5e-324)])
def test_level_of_tiny_r_does_not_underflow(m, r):
    # r**2 is subnormal or zero here; the level is still r * sqrt(2(m-1)/m)
    assert CorrelationMatrix(m, r).level == pytest.approx(
        closed_form_level(m, r), rel=1e-13, abs=1e-320)


def scaled_norm_level(C):
    # ||C - I||_F / sqrt(m) by a BLAS norm, with C - I scaled by 2**-e first,
    # exactly, so that r**2 cannot underflow inside the norm
    e = math.frexp(C.r)[1]
    norm = np.linalg.norm(np.ldexp(C.entries - np.eye(C.m), -e))
    return float(np.ldexp(norm, e) / math.sqrt(C.m))


@pytest.mark.parametrize("r", [round(0.05 * i, 2) for i in range(1, 19)] + [
    # the r of test_level_of_tiny_r_does_not_underflow
    3.411798443255226e-159, 1e-170, 1e-300, 5e-324])
@pytest.mark.parametrize("m", [1, 2, 3, 16])
def test_level_matches_independent_norms(m, r):
    C = CorrelationMatrix(m, r)
    # the ratio of the off-diagonal to the diagonal norm, taken literally
    off = C.entries - np.diag(np.diag(C.entries))
    literal = (np.sqrt((off ** 2).sum())
               / np.sqrt((np.diag(C.entries) ** 2).sum()))
    if r > 1e-150:  # below that, off ** 2 underflows
        assert C.level == pytest.approx(literal, rel=1e-14)
    # one subnormal step apart at most for r = 5e-324
    assert C.level == pytest.approx(scaled_norm_level(C), rel=1e-14,
                                    abs=5e-324)


@pytest.mark.parametrize("r", [np.float32(0.3), np.float64(0.3), 0.3,
                               np.float32(0.0), 0, 1e-300],
                         ids=["float32", "float64", "float", "float32-zero",
                              "int-zero", "tiny-float"])
@pytest.mark.parametrize("m", [1, 4, 16])
def test_numpy_and_int_r_build_as_their_float(m, r):
    C, F = CorrelationMatrix(m, r), CorrelationMatrix(m, float(r))
    assert C.entries.dtype == np.float64
    assert C.entries.tobytes() == F.entries.tobytes()
    assert C.level == F.level and type(C.level) is float


@pytest.mark.properties
@given(m=st.integers(1, 8))
@settings(deadline=None)
def test_level_identity_is_zero(m):
    assert CorrelationMatrix(m, 0.0).level == 0.0


@pytest.mark.properties
def test_level_strictly_increasing_in_r():
    for m in (2, 3, 5):
        levels = [CorrelationMatrix(m, r).level
                  for r in np.linspace(0.0, 0.95, 12)]
        assert all(b > a for a, b in zip(levels, levels[1:]))
