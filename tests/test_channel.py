import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopbeam.channel import (
    CorrelationMatrix,
    correlation_level,
    exponential_correlation,
)


def test_exponential_correlation_r0_identity():
    C = exponential_correlation(3, 0.0)
    assert np.array_equal(C.entries, np.eye(3))
    assert C.level == 0.0


def test_exponential_correlation_direct_2x2():
    C = exponential_correlation(2, 0.5)
    assert np.array_equal(C.entries, [[1.0, 0.5], [0.5, 1.0]])


def test_exponential_correlation_stores_matching_level():
    C = exponential_correlation(3, 0.5)
    assert C.level == correlation_level(C.entries)
    # PSD by construction
    assert np.all(np.linalg.eigvalsh(C.entries) > -1e-12)


def test_exponential_correlation_domain():
    with pytest.raises(ValueError):
        exponential_correlation(3, 1.0)
    with pytest.raises(ValueError):
        exponential_correlation(3, -0.1)
    with pytest.raises(ValueError):
        exponential_correlation(0, 0.5)


@pytest.mark.parametrize("entries, message", [
    ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
    ([[1.0, 0.5], [0.5, np.inf]], "finite"),
    ([[1.0, 0.5], [0.4, 1.0]], "symmetric"),
    ([[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]], "symmetric"),
    # eigenvalues -1, 1, 3
    ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "semidefinite"),
    ([[1.0, -1.0 - 1e-9], [-1.0 - 1e-9, 1.0]], "semidefinite"),
    ([[-1.0]], "semidefinite"),
    (np.zeros((3, 3)), "all-zero diagonal"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "square"),
], ids=["nan", "inf", "asymmetric-2x2", "asymmetric-3x3", "indefinite",
        "barely-indefinite", "negative-1x1", "zero", "non-square"])
def test_correlation_matrix_rejects_invalid_entries(entries, message):
    with pytest.raises(ValueError, match=message):
        CorrelationMatrix(np.array(entries))


@pytest.mark.parametrize("entries", [
    np.eye(3),
    np.ones((3, 3)),  # rank one, smallest eigenvalue 0 up to rounding
    [[2.0, 1.0], [1.0, 2.0]],
    [[1.0, 1.0 + 1e-15], [1.0 + 1e-15, 1.0]],  # within rounding of PSD
], ids=["identity", "all-ones", "2x2", "rounding"])
def test_correlation_matrix_accepts_psd_entries(entries):
    C = CorrelationMatrix(np.array(entries))
    assert C.level == correlation_level(entries)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_exponential_correlation_builds_for_every_r(m):
    for r in np.concatenate([np.linspace(0.0, 0.99, 100),
                             [0.999, 0.9999999, np.nextafter(1.0, 0.0)]]):
        assert exponential_correlation(m, float(r)).m == m


def test_level_hand_values():
    # ||C - diag||_F / ||diag||_F worked by hand
    assert correlation_level([[1.0, 0.5], [0.5, 1.0]]) == pytest.approx(
        np.sqrt(0.5) / np.sqrt(2.0), abs=1e-15)
    assert correlation_level([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(
        1.0, abs=1e-15)


def test_level_matches_independent_norms():
    C = exponential_correlation(4, 0.6).entries
    off = C - np.diag(np.diag(C))
    expect = np.sqrt((off ** 2).sum()) / np.sqrt((np.diag(C) ** 2).sum())
    assert correlation_level(C) == pytest.approx(expect, rel=1e-14)


def test_level_zero_diagonal_raises():
    with pytest.raises(ZeroDivisionError):
        correlation_level([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.properties
@given(m=st.integers(1, 8))
@settings(deadline=None)
def test_level_identity_is_zero(m):
    assert correlation_level(np.eye(m)) == 0.0


@pytest.mark.properties
@given(r=st.floats(0.05, 0.9), m=st.integers(2, 6), seed=st.integers(0, 99))
@settings(deadline=None, max_examples=40)
def test_level_permutation_invariant(r, m, seed):
    C = exponential_correlation(m, r).entries
    perm = np.random.default_rng(seed).permutation(m)
    P = np.eye(m)[perm]
    assert correlation_level(P @ C @ P.T) == pytest.approx(
        correlation_level(C), rel=1e-12)


@pytest.mark.properties
def test_level_strictly_increasing_in_r():
    for m in (2, 3, 5):
        levels = [exponential_correlation(m, r).level
                  for r in np.linspace(0.0, 0.95, 12)]
        assert all(b > a for a, b in zip(levels, levels[1:]))
