import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopbeam.powerplan import (
    broadcast_feasible,
    broadcast_power_bound,
    cluster_size,
    optimize_alpha,
    split,
)


def test_split_examples():
    a = split(10.0, 0.3)
    assert (a.p1, a.p2) == (pytest.approx(3.0), pytest.approx(7.0))
    b = split(10.0, 0.5)
    assert b.p1 == b.p2 == pytest.approx(5.0)
    c = split(15.0, 0.4)
    assert (c.p1, c.p2) == (pytest.approx(6.0), pytest.approx(9.0))


@pytest.mark.properties
@given(p_total=st.floats(1e-300, 1e300), alpha=st.floats(1e-9, 1.0,
                                                     exclude_max=True))
@settings(deadline=None, max_examples=100)
def test_split_exact_budget(p_total, alpha):
    a = split(p_total, alpha)
    assert a.p1 + a.p2 - a.p_total == 0.0
    # p1 may sit one rounding step (of the total) off alpha*p_total so the
    # budget can recover exactly; it must never drift further than that
    assert abs(a.p1 - alpha * p_total) <= math.ulp(p_total)


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


def _alpha_sweep(**kwargs):
    from coopbeam.harness import ExperimentConfig, run_alpha_sweep
    return run_alpha_sweep(ExperimentConfig(experiment="alpha_sweep",
                                            **kwargs))


def test_optimize_alpha_single_point_grid():
    res = _alpha_sweep(alpha_grid=[0.3], snr_db_grid=[9.0], trials=5000,
                       seed=2)
    assert res.summary[9.0]["alpha_star"] == 0.3
    assert res.summary[9.0]["k_star"] == 5
    assert res.summary[9.0]["p_out_star"] == res.rows[0][4]


def test_optimize_alpha_deterministic():
    curve = [(0.2, 3, 1, 0.40), (0.4, 6, 1, 0.25), (0.6, 9, 1, 0.25),
             (0.5, 8, 0, 0.10)]
    best = optimize_alpha(curve)
    assert best == {"alpha_star": 0.4, "k_star": 6, "p_out_star": 0.25}
    # the choice does not depend on the order of the points
    assert optimize_alpha(curve[::-1]) == best
    assert optimize_alpha(curve[1:] + curve[:1]) == best


def test_optimize_alpha_returns_grid_minimum():
    res = _alpha_sweep(alpha_grid=[0.2, 0.3, 0.4, 0.5, 0.6],
                       snr_db_grid=[7.0], trials=10_000, seed=5)
    best = res.summary[7.0]
    assert all(best["p_out_star"] <= row[4] for row in res.rows)
    row = next(r for r in res.rows if r[1] == best["alpha_star"])
    assert (row[2], row[4]) == (best["k_star"], best["p_out_star"])


def test_optimize_alpha_tie_breaks_toward_smaller_alpha():
    # zero rate means zero outage at every alpha: all ties
    res = _alpha_sweep(alpha_grid=[0.3, 0.5, 0.7], snr_db_grid=[8.0],
                       r_tr=0.0, trials=2000, seed=1)
    assert res.summary[8.0]["alpha_star"] == 0.3
    assert res.summary[8.0]["p_out_star"] == 0.0
    assert optimize_alpha([(0.7, 10, 1, 0.0), (0.3, 5, 1, 0.0)]) == \
        {"alpha_star": 0.3, "k_star": 5, "p_out_star": 0.0}


def test_optimize_alpha_empty_feasible_set_is_none():
    assert optimize_alpha([(0.2, 3, 0, 0.1), (0.8, 12, 0, 0.0)]) is None
    assert optimize_alpha([]) is None
    # broadcast noise so high every grid point violates the bound: the
    # sweep keeps the rows and reports no alpha* for that SNR
    res = _alpha_sweep(alpha_grid=[0.2, 0.8], snr_db_grid=[6.0],
                       sigma_nbr2=10.0, trials=2000, seed=3)
    assert [row[3] for row in res.rows] == [0, 0]
    assert res.summary == {}
