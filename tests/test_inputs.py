"""The shared input rules of _blocks at every entry point that takes a size
or a positive physical value.

A size (antenna, node or trial count) must be an integer >= 1, and a
positive value (power, rate, noise variance, gamma shape) must be a finite
number > 0.  Nothing here draws a Monte Carlo trial.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopbeam import channel
from coopbeam._blocks import (require_bool, require_finite, require_positive,
                              require_positive_int, seed_components)
from coopbeam.baseline import MimoConfig
from coopbeam.channel import CorrelationMatrix
from coopbeam.harness import ExperimentConfig
from coopbeam.outage import (OutageConfig, analytical_outage,
                             outage_threshold, regularized_lower_gamma,
                             required_snr)
from coopbeam.powerplan import (broadcast_feasible, broadcast_power_bound,
                                cluster_size, split)

# (entry point, valid keyword arguments, positive fields, size fields)
ENTRY_POINTS = [
    (ExperimentConfig, dict(experiment="alpha_sweep"),
     ("ratio_ptotal_ps", "r_br", "p_total", "sigma_nbr2"), ("m", "trials")),
    (OutageConfig, dict(r_tr=3.0, p2=42.0, sigma_n2=10.0, m=3, k=5,
                        trials=100),
     ("p2", "sigma_n2"), ("m", "k", "trials")),
    (MimoConfig, dict(), ("p_mimo", "sigma_n2"), ("m", "trials")),
    (split, dict(p_total=60.0, alpha=0.3), ("p_total",), ()),
    (cluster_size, dict(alpha=0.3, p_total=60.0, p_s=4.0),
     ("p_total", "p_s"), ()),
    (broadcast_power_bound, dict(k=5, r_br=2.0, sigma_nbr2=1.0),
     ("r_br", "sigma_nbr2"), ("k",)),
    (broadcast_feasible, dict(p1=30.0, k=5, r_br=2.0, sigma_nbr2=1.0),
     ("p1", "r_br", "sigma_nbr2"), ("k",)),
    (analytical_outage, dict(m=3, k=5, r_tr=3.0, p2=42.0, sigma_n2=10.0),
     ("p2", "sigma_n2"), ("m", "k")),
    (CorrelationMatrix, dict(m=3, r=0.3), (), ("m",)),
    (regularized_lower_gamma, dict(s=2.0, x=1.0), ("s",), ()),
]

NOT_POSITIVE = st.one_of(st.floats(max_value=0.0),
                         st.sampled_from([math.nan, math.inf]),
                         st.integers(-10**9, 0), st.booleans(), st.none(),
                         st.text(max_size=3))
# every float is rejected as a size, 3.0 included; the floats stay small so
# that code which took one as a size would still build only a small array
NOT_A_SIZE = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 2.5]),
                       st.floats(-100.0, 100.0), st.booleans(),
                       st.integers(-10**9, 0))


@pytest.mark.properties
@given(st.data())
@settings(deadline=None, max_examples=300)
def test_bad_sizes_and_positive_values_raise(data):
    fn, valid, positives, sizes = data.draw(st.sampled_from(ENTRY_POINTS))
    fn(**valid)
    field = data.draw(st.sampled_from(positives + sizes), label="field")
    bad = data.draw(NOT_A_SIZE if field in sizes else NOT_POSITIVE,
                    label="value")
    with pytest.raises(ValueError, match=f"^{field} must be"):
        fn(**{**valid, field: bad})


DRIFT = {
    "analytical_outage m=True": lambda: analytical_outage(
        True, 5, 3.0, 42.0, 10.0),
    "analytical_outage m=2.5": lambda: analytical_outage(
        2.5, 3, 3.0, 42.0, 10.0),
    "exponential_correlation m=2.5": lambda: CorrelationMatrix(2.5, 0.3),
    "exponential_correlation m=True": lambda: CorrelationMatrix(
        True, 0.3),
    "broadcast_power_bound k=2.5": lambda: broadcast_power_bound(
        2.5, 2.0, 1.0),
    "broadcast_power_bound r_br=nan": lambda: broadcast_power_bound(
        5, math.nan, 1.0),
    "split p_total=nan": lambda: split(math.nan, 0.3),
    "split p_total=inf": lambda: split(math.inf, 0.3),
    "split p_total=10**400": lambda: split(10**400, 0.3),
    "split p_total=True": lambda: split(True, 0.3),
    "ExperimentConfig r_br=True": lambda: ExperimentConfig(
        experiment="alpha_sweep", r_br=True, p_total=True,
        ratio_ptotal_ps=0.5),
    "ExperimentConfig snr_db_grid='12'": lambda: ExperimentConfig(
        experiment="snr_sweep", snr_db_grid="12"),
    "ExperimentConfig snr_db_grid=[True]": lambda: ExperimentConfig(
        experiment="snr_sweep", snr_db_grid=[True]),
    "ExperimentConfig snr_db_grid=b'12'": lambda: ExperimentConfig(
        experiment="snr_sweep", snr_db_grid=b"12"),
    "ExperimentConfig snr_db_grid=['4']": lambda: ExperimentConfig(
        experiment="snr_sweep", snr_db_grid=["4"]),
    "ExperimentConfig r_tr='3'": lambda: ExperimentConfig(
        experiment="alpha_sweep", r_tr="3"),
    "ExperimentConfig p_total=None": lambda: ExperimentConfig(
        experiment="alpha_sweep", p_total=None),
    "split p_total='60'": lambda: split("60", 0.3),
    "MimoConfig p_mimo='60'": lambda: MimoConfig(p_mimo="60"),
    "MimoConfig sigma_n2=1e-300": lambda: MimoConfig(sigma_n2=1e-300),
    "ExperimentConfig snr_sweep snr_db=3082": lambda: ExperimentConfig(
        experiment="snr_sweep", snr_db_grid=[3082.0]),
    "OutageConfig correlation=ndarray": lambda: OutageConfig(
        r_tr=3.0, p2=42.0, sigma_n2=10.0, m=3, k=5, trials=100,
        correlation=CorrelationMatrix(3, 0.5).entries),
    "OutageConfig r_tr=True": lambda: OutageConfig(
        r_tr=True, p2=True, sigma_n2=True, m=3, k=5, trials=10),
    "OutageConfig p2=10**400": lambda: OutageConfig(
        r_tr=3.0, p2=10**400, sigma_n2=10.0, m=3, k=5, trials=100),
    "cluster_size p_total=inf": lambda: cluster_size(0.3, math.inf, 4.0),
    "split alpha='0.3'": lambda: split(60.0, "0.3"),
    "split alpha=None": lambda: split(60.0, None),
    "cluster_size alpha='0.3'": lambda: cluster_size("0.3", 60.0, 4.0),
    "cluster_size alpha=None": lambda: cluster_size(None, 60.0, 4.0),
    "gamma s=nan": lambda: regularized_lower_gamma(math.nan, 1.0),
    "gamma x=nan": lambda: regularized_lower_gamma(2.0, math.nan),
    "gamma s=inf": lambda: regularized_lower_gamma(math.inf, 1.0),
}


@pytest.mark.parametrize("call", DRIFT.values(), ids=DRIFT.keys())
def test_formerly_accepted_inputs_raise(call):
    with pytest.raises(ValueError, match="must be"):
        call()


# each setting that only one experiment's output reads, at a value other
# than its default, against each experiment that does not read it
UNREAD = [(name, value, experiment)
          for name, value, reader in [
              ("corr_r_grid", [0.5], "corr_sweep"),
              ("include_baseline", False, "snr_sweep"),
              ("bound_variant", "complex_convention", "alpha_sweep")]
          for experiment in ("alpha_sweep", "snr_sweep", "corr_sweep",
                             "single_point") if experiment != reader]


@pytest.mark.parametrize("name, value, experiment", UNREAD,
                         ids=[f"{name}-{exp}" for name, _, exp in UNREAD])
def test_configs_reject_a_setting_their_experiment_never_reads(
        name, value, experiment, no_draws):
    # one alpha and one SNR, as single_point needs
    with pytest.raises(ValueError, match=(
            f"^{name} is read only by \\w+, not by {experiment}$")):
        ExperimentConfig(experiment=experiment, alpha_grid=[0.3],
                         snr_db_grid=[4.0], **{name: value})


# a block's largest buffer holds 2 * min(trials, BLOCK_SIZE) * m * width
# doubles, width k for OutageConfig and m for MimoConfig; 2 * 2 * 8192 * 8192
# is the limit itself, as are the 16384**2 entries of a CorrelationMatrix
@pytest.mark.parametrize("call, ok", [
    (lambda: OutageConfig(r_tr=3.0, p2=42.0, sigma_n2=10.0, m=3,
                          k=5_000_000, trials=8192), False),
    (lambda: MimoConfig(m=100_000, trials=10), False),
    (lambda: MimoConfig(m=8192, trials=2), True),
    (lambda: MimoConfig(m=8192, trials=3), False),
    (lambda: MimoConfig(m=10**400), False),
    (lambda: CorrelationMatrix(16385, 0.5), False),
], ids=["OutageConfig k=5e6", "MimoConfig m=1e5", "MimoConfig m=8192 n=2",
        "MimoConfig m=8192 n=3", "MimoConfig m=10**400",
        "CorrelationMatrix m=16385"])
def test_library_configs_bound_a_blocks_largest_buffer(call, ok):
    if ok:
        call()
    else:
        with pytest.raises(ValueError, match="over the limit of 268435456"):
            call()


def test_correlation_matrix_of_the_limit_passes_the_size_rule(monkeypatch):
    # 16384**2 entries are the limit itself; the r check that follows the
    # size rule stops the call before it allocates 2 GiB
    def stop(**values):
        raise LookupError("past the size rule")

    monkeypatch.setattr(channel, "require_finite", stop)
    with pytest.raises(LookupError):
        CorrelationMatrix(16384, 0.5)
    with pytest.raises(ValueError, match="m = 16385 is over the limit"):
        CorrelationMatrix(16385, 0.5)


# ints whose digits would swamp a message; past str()'s 4300-digit limit,
# printing one raises Python's own "Exceeds the limit" error, naming no field
HUGE = {
    "OutageConfig m=10**400": ("m", lambda: OutageConfig(
        r_tr=3.0, p2=42.0, sigma_n2=10.0, m=10**400, k=5, trials=100)),
    "OutageConfig m=10**5000": ("m", lambda: OutageConfig(
        r_tr=3.0, p2=42.0, sigma_n2=10.0, m=10**5000, k=5, trials=100)),
    "CorrelationMatrix m=10**400": ("m", lambda: CorrelationMatrix(
        10**400, 0.5)),
    "MimoConfig m=10**400": ("m", lambda: MimoConfig(m=10**400)),
    "require_positive_int m=-10**400": ("m", lambda: require_positive_int(
        m=-10**400)),
    "seed_components -10**400": ("seed", lambda: seed_components(
        -10**400)),
    "split p_total=-10**300": ("p_total", lambda: split(-10**300, 0.3)),
    "ExperimentConfig p_total=-10**300": ("p_total", lambda: ExperimentConfig(
        experiment="alpha_sweep", p_total=-10**300)),
    "require_bool include_baseline=10**5000": ("include_baseline",
                                               lambda: require_bool(
                                                   include_baseline=10**5000)),
    "require_finite x=10**400": ("x", lambda: require_finite(x=10**400)),
    "split alpha=10**300": ("alpha", lambda: split(60.0, 10**300)),
    "cluster_size alpha=10**300": ("alpha", lambda: cluster_size(
        10**300, 60.0, 4.0)),
    "CorrelationMatrix r=10**300": ("r", lambda: CorrelationMatrix(
        3, 10**300)),
    "regularized_lower_gamma x=-10**300": ("x", lambda: (
        regularized_lower_gamma(2.0, -10**300))),
    "required_snr 10**300": ("r_tr", lambda: required_snr(10**300)),
    "ExperimentConfig r_tr=10**300": ("r_tr", lambda: ExperimentConfig(
        experiment="alpha_sweep", r_tr=10**300)),
    "outage_threshold sigma_n2=10**300": ("sigma_n2", lambda: (
        outage_threshold(3.0, 1e-300, 10**300))),
}


@pytest.mark.parametrize("field, call", HUGE.values(), ids=HUGE.keys())
def test_a_huge_int_is_named_by_its_size_in_one_short_line(field, call):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert len(message) <= 200 and "\n" not in message
    assert re.search(rf"\b{field}\b", message)
    assert " int of " in message and " bits" in message


# a number shows as str shows it, so a numpy scalar reads as its value
@pytest.mark.parametrize("call, message", [
    (lambda: require_positive(p=np.float64(-1.0)),
     "p must be positive, got -1.0"),
    (lambda: require_positive_int(m=np.float64(2.5)),
     "m must be an integer >= 1, got 2.5"),
], ids=["positive-float64", "size-float64"])
def test_a_numpy_number_is_shown_as_its_value(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# any other value shows by repr, or by its type and length past 60 characters
@pytest.mark.parametrize("field, call", [
    ("x", lambda: require_finite(x="9" * 5000)),
    ("include_baseline", lambda: require_bool(include_baseline="y" * 5000)),
    ("gain mode", lambda: OutageConfig(r_tr=3.0, p2=42.0, sigma_n2=10.0, m=3,
                                       k=5, trials=100, gain_mode="v" * 5000)),
    ("alpha_grid", lambda: ExperimentConfig(experiment="alpha_sweep",
                                            alpha_grid="0" * 5000)),
], ids=["require_finite", "require_bool", "gain_mode", "string-grid"])
def test_a_long_text_is_named_by_its_type_and_length(field, call):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert len(message) <= 200 and "\n" not in message
    assert field in message and "a str of 5,002 characters" in message
