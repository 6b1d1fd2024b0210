import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopbeam.powerplan import (
    broadcast_feasible,
    broadcast_power_bound,
    cluster_size,
    split,
)


def test_split_examples():
    assert split(10.0, 0.3) == (pytest.approx(3.0), pytest.approx(7.0))
    p1, p2 = split(10.0, 0.5)
    assert p1 == p2 == pytest.approx(5.0)
    assert split(15.0, 0.4) == (pytest.approx(6.0), pytest.approx(9.0))


@pytest.mark.properties
@given(p_total=st.floats(1e-300, 1e300), alpha=st.floats(1e-9, 1.0,
                                                     exclude_max=True))
@settings(deadline=None, max_examples=100)
def test_split_exact_budget(p_total, alpha):
    p1, p2 = split(p_total, alpha)
    assert p1 + p2 - p_total == 0.0
    # p1 may sit one rounding step (of the total) off alpha*p_total so the
    # budget can recover exactly; it must never drift further than that
    assert abs(p1 - alpha * p_total) <= math.ulp(p_total)


def test_split_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            split(10.0, alpha)
    with pytest.raises(ValueError):
        split(0.0, 0.5)


def test_cluster_size_quoted_points():
    # ratio p_total/p_s = 15 reproduces the quoted cluster sizes
    assert cluster_size(0.2, 60.0, 4.0) == 3
    assert cluster_size(0.4, 60.0, 4.0) == 6
    assert cluster_size(1.0 / 3.0, 60.0, 4.0) == 5


def test_cluster_size_half_rounds_away_from_zero():
    assert cluster_size(0.3, 60.0, 4.0) == 5   # raw 4.5
    assert cluster_size(0.1, 60.0, 4.0) == 2   # raw 1.5
    assert cluster_size(0.05, 60.0, 4.0) == 1  # raw 0.75


def test_cluster_size_zero_below_half():
    assert cluster_size(0.02, 60.0, 4.0) == 0  # raw 0.3 funds no node
    # the largest double below 0.5: raw + 0.5 rounds to 1.0
    assert cluster_size(0.49999999999999994, 1.0, 1.0) == 0


@pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
def test_cluster_size_rejects_alpha_outside_the_open_interval(alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        cluster_size(alpha, 60.0, 4.0)


def test_cluster_size_rejects_an_overflowing_raw_value():
    # p_s is the subnormal 5e-324, so alpha * p_total / p_s is inf
    with pytest.raises(ValueError, match="is not finite"):
        cluster_size(0.99, 1e-15, 1e-15 / 1.7e308)


@pytest.mark.properties
def test_cluster_size_nondecreasing_in_alpha():
    sizes = [cluster_size(a / 100.0, 60.0, 4.0) for a in range(5, 96)]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_broadcast_power_bound_values():
    assert broadcast_power_bound(3, 2.0, 1.0) == 9.0
    assert broadcast_power_bound(1, 1.0, 1.0) == 1.0
    assert broadcast_power_bound(6, 2.0, 1.0) == 18.0


@pytest.mark.properties
@given(k=st.integers(1, 500))
@settings(deadline=None)
def test_broadcast_power_bound_linear_in_k(k):
    assert broadcast_power_bound(2 * k, 2.0, 1.5) == pytest.approx(
        2.0 * broadcast_power_bound(k, 2.0, 1.5), rel=1e-12)


def test_broadcast_feasible_boundary():
    assert broadcast_feasible(9.0, 3, 2.0, 1.0) is True
    assert broadcast_feasible(8.99, 3, 2.0, 1.0) is False
    assert broadcast_feasible(18.0, 6, 2.0, 1.0) is True


def test_broadcast_power_bound_validation():
    with pytest.raises(ValueError):
        broadcast_power_bound(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        broadcast_power_bound(1, 2.0, -1.0)


def test_broadcast_power_bound_rejects_overflowing_rate():
    # 2**2000 overflows a float: the rate rule of required_snr, named r_br
    with pytest.raises(ValueError, match="r_br .* too large"):
        broadcast_power_bound(1, 2000.0, 1.0)

