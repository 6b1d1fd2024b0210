import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopbeam import __version__
from coopbeam.baseline import MimoConfig
from coopbeam.channel import CorrelationMatrix
from coopbeam.cli import main
from coopbeam.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    _crossovers,
    run_alpha_sweep,
    run_corr_sweep,
    run_single_point,
    run_snr_sweep,
)
from coopbeam.outage import OutageConfig


def _cfg(**kw):
    kw.setdefault("trials", 3000)
    kw.setdefault("seed", 99)
    return ExperimentConfig(**kw)


# ------------------------------------------------------------ configuration

def test_config_defaults():
    cfg = ExperimentConfig(experiment="alpha_sweep")
    assert cfg.m == 3
    assert cfg.ratio_ptotal_ps == 15.0
    assert (cfg.r_br, cfg.r_tr) == (2.0, 3.0)
    assert cfg.alpha_grid[0] == 0.2 and cfg.alpha_grid[-1] == 0.8
    assert len(cfg.alpha_grid) == 13
    assert cfg.snr_db_grid == tuple(float(s) for s in range(2, 13))
    assert cfg.p_s == pytest.approx(4.0)
    assert ExperimentConfig(experiment="snr_sweep",
                            alpha_grid=[0.4, 0.3]).alpha_grid == (0.3, 0.4)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="grid_sweep")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="alpha_sweep", alpha_grid=[])
    with pytest.raises(ValueError, match=re.escape(
            "alpha must lie in (0, 1), got 1.2")):
        ExperimentConfig(experiment="alpha_sweep", alpha_grid=[1.2])
    with pytest.raises(ValueError, match=re.escape("r must lie in [0, 1)")):
        ExperimentConfig(experiment="corr_sweep", corr_r_grid=[0.2, 1.0])
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="single_point", alpha_grid=[0.3, 0.4],
                         snr_db_grid=[4.0])
    for alphas in ([0.3], [0.02]):  # alpha 0.02 funds no node: K = 0
        with pytest.raises(ValueError, match="unknown gain mode 'matrix'"):
            ExperimentConfig(experiment="alpha_sweep", alpha_grid=alphas,
                             gain_mode="matrix")
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        ExperimentConfig(experiment="alpha_sweep", trials=0)


def test_experiments_table_pins_the_default_grids():
    sweep_snrs = tuple(float(s) for s in range(2, 13))
    alphas = tuple(round(0.2 + 0.05 * i, 2) for i in range(13))
    assert (alphas[0], alphas[-1]) == (0.2, 0.8)
    assert {name: row[1:] for name, row in EXPERIMENTS.items()} == {
        "alpha_sweep": (alphas, sweep_snrs, (), ()),
        "snr_sweep": ((0.3, 0.4), sweep_snrs, (), ()),
        "corr_sweep": ((0.3,), sweep_snrs, (0.0, 0.25, 0.5, 0.75),
                       ("alpha",)),
        "single_point": ((), (), (), ("alpha", "snr_db")),
    }
    for name in ("alpha_sweep", "snr_sweep", "corr_sweep"):
        row, cfg = EXPERIMENTS[name], ExperimentConfig(experiment=name)
        assert (cfg.alpha_grid, cfg.snr_db_grid) == (row.alpha, row.snr_db)


@pytest.mark.parametrize("missing, given", [
    ("alpha", {"snr_db_grid": [4.0]}),
    ("snr_db", {"alpha_grid": [0.4]}),
])
def test_single_point_has_no_default_grid(missing, given, no_draws):
    with pytest.raises(ValueError, match=f"exactly one {missing}$"):
        ExperimentConfig(experiment="single_point", **given)


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, 4000.0, -3200.0,
                                    -4000.0])
def test_config_rejects_non_finite_snr(snr_db):
    # NaN and inf break the grid's number rule; the rest overflow sigma_n2
    message = (rf"snr_db {snr_db} is not finite" if math.isfinite(snr_db)
               else r"snr_db_grid\[1\] must be finite")
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(experiment="alpha_sweep", snr_db_grid=[4.0, snr_db])


@pytest.mark.parametrize("experiment", ["alpha_sweep", "snr_sweep"])
def test_config_checks_the_threshold_at_the_largest_alpha_and_lowest_snr(
        experiment, no_draws):
    # at alpha 0.3 and 10 dB tau is finite; at 0.999 or -20 dB it is not
    kw = dict(experiment=experiment, r_tr=1020.0)
    ExperimentConfig(**kw, alpha_grid=[0.3], snr_db_grid=[10.0])
    for alphas, snrs in (([0.3, 0.999], [10.0]), ([0.3], [10.0, -20.0])):
        with pytest.raises(ValueError, match="threshold .* is not finite"):
            ExperimentConfig(**kw, alpha_grid=alphas, snr_db_grid=snrs)


@pytest.mark.parametrize("field", ["ratio_ptotal_ps", "r_br", "r_tr",
                                   "p_total", "sigma_nbr2"])
def test_config_rejects_non_finite_scalars(field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ExperimentConfig(experiment="alpha_sweep", **{field: math.nan})


@pytest.mark.parametrize("r_tr", [1024.0, 1100.0, 1e6, np.float64(1100.0)])
def test_config_rejects_overflowing_rate(r_tr):
    with pytest.raises(ValueError, match="r_tr .* too large"):
        ExperimentConfig(experiment="snr_sweep", r_tr=r_tr)


@pytest.mark.parametrize("kw", [{"trials": 1000.5}, {"seed": -1},
                                {"seed": (1, 2)}])
def test_config_rejects_bad_trials_and_seed(kw):
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="alpha_sweep", **kw)


@pytest.mark.parametrize("kw", [
    {"alpha_grid": [0.3, 0.3]},
    {"alpha_grid": [0.3, 0.4, 0.30000000001]},  # both write as alpha=0.3
    {"snr_db_grid": [4.0, 6.0, 4.0]},
    {"corr_r_grid": [0.5, 0.0, 0.5]},
    {"snr_db_grid": [0.0, -0.0]},  # the same point under two seeds
    {"corr_r_grid": [0.0, -0.0]},
], ids=["alpha", "alpha-as-written", "snr", "corr", "snr-signed-zero",
        "corr-signed-zero"])
def test_config_rejects_repeated_grid_values(kw):
    with pytest.raises(ValueError, match="repeats a value"):
        ExperimentConfig(experiment="snr_sweep", **kw)


@given(grid=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6),
       data=st.data())
@settings(deadline=None, max_examples=60)
def test_any_grid_with_a_repeat_is_rejected(grid, data):
    grid = grid + [data.draw(st.sampled_from(grid))]
    grid = data.draw(st.permutations(grid))
    for field in ("alpha_grid", "snr_db_grid", "corr_r_grid"):
        with pytest.raises(ValueError, match="repeats a value"):
            ExperimentConfig(experiment="corr_sweep", **{field: grid})


@pytest.mark.parametrize("runner, experiment", [
    (run_alpha_sweep, "corr_sweep"),
    (run_snr_sweep, "alpha_sweep"),
    (run_corr_sweep, "alpha_sweep"),
    (run_single_point, "snr_sweep"),
])
def test_runner_rejects_another_experiments_config(runner, experiment):
    cfg = _cfg(experiment=experiment, alpha_grid=[0.3], snr_db_grid=[6.0])
    with pytest.raises(ValueError, match=f"given a {experiment} config"):
        runner(cfg)


def test_config_snr_to_noise():
    cfg = _cfg(experiment="alpha_sweep")
    assert cfg.sigma_n2_at(0.0) == pytest.approx(cfg.p_total)
    assert cfg.sigma_n2_at(10.0) == pytest.approx(cfg.p_total / 10.0)


# -------------------------------------------------------------- alpha sweep

def test_alpha_sweep_rows_and_summary():
    cfg = _cfg(experiment="alpha_sweep", alpha_grid=[0.2, 0.3, 0.4],
               snr_db_grid=[4.0, 9.0])
    res = run_alpha_sweep(cfg)
    assert res.columns == ("snr_db", "alpha", "k", "feasible", "p_out_mc",
                           "std_err", "p_out_analytical")
    assert len(res.rows) == 6
    assert res.manifest.row_count == 6
    # K tracks the quoted alpha -> cluster-size coupling
    by_alpha = {row[1]: row[2] for row in res.rows}
    assert by_alpha == {0.2: 3, 0.3: 5, 0.4: 6}
    # summary alpha* is the feasible row-wise minimum of its SNR group
    for snr in (4.0, 9.0):
        group = [r for r in res.rows if r[0] == snr and r[3] == 1]
        best = min(group, key=lambda r: (r[4], r[1]))
        assert res.summary[snr]["alpha_star"] == best[1]
        assert res.summary[snr]["p_out_star"] == best[4]
    for snr in (4.0, 9.0):
        assert f"alpha_star[snr_db={snr:g}]" in res.manifest.extra


def test_alpha_sweep_csv_shape():
    cfg = _cfg(experiment="alpha_sweep", alpha_grid=[0.3],
               snr_db_grid=[6.0])
    res = run_alpha_sweep(cfg)
    lines = res.csv_text.strip().split("\n")
    header = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "snr_db,alpha,k,feasible,p_out_mc,std_err,p_out_analytical"
    assert len(data) == 2  # one data row + the column header
    assert any("alpha_star[snr_db=6]" in ln for ln in header)  # summary row
    assert any(ln.startswith("# master_seed = 99") for ln in header)
    assert "wall_clock" not in res.csv_text


def test_alpha_sweep_analytical_column_is_lower_bound():
    cfg = _cfg(experiment="alpha_sweep", alpha_grid=[0.2, 0.5],
               snr_db_grid=[4.0, 10.0], trials=20_000)
    res = run_alpha_sweep(cfg)
    for row in res.rows:
        _, _, _, _, p_mc, se, p_an = row
        assert p_an <= p_mc + 3.0 * se


def test_alpha_sweep_flags_infeasible_rows():
    # broadcast noise cranked up so alpha = 0.3 misses the bound
    cfg = _cfg(experiment="alpha_sweep", alpha_grid=[0.2, 0.3],
               snr_db_grid=[6.0], sigma_nbr2=1.25)
    res = run_alpha_sweep(cfg)
    flags = {row[1]: row[3] for row in res.rows}
    assert flags == {0.2: 1, 0.3: 0}
    assert len(res.rows) == 2  # flagged, not dropped
    assert res.summary[6.0]["alpha_star"] == 0.2  # infeasible rows excluded


def test_alpha_sweep_worker_byte_identity():
    cfg = _cfg(experiment="alpha_sweep", alpha_grid=[0.25, 0.55],
               snr_db_grid=[5.0, 8.0], trials=20_000)
    assert run_alpha_sweep(cfg, workers=1).csv_text == \
        run_alpha_sweep(cfg, workers=8).csv_text


def test_alpha_sweep_rerun_identical():
    cfg = _cfg(experiment="alpha_sweep", alpha_grid=[0.4],
               snr_db_grid=[7.0])
    assert run_alpha_sweep(cfg).csv_text == run_alpha_sweep(cfg).csv_text


def test_alpha_sweep_gain_mode_changes_results():
    a = run_alpha_sweep(_cfg(experiment="alpha_sweep", alpha_grid=[0.4],
                             snr_db_grid=[6.0]))
    b = run_alpha_sweep(_cfg(experiment="alpha_sweep", alpha_grid=[0.4],
                             snr_db_grid=[6.0], gain_mode="vector"))
    assert a.rows[0][4] != b.rows[0][4]


def test_alpha_sweep_writes_file(tmp_path, capsys):
    out = tmp_path / "alpha.csv"
    assert main(["alpha-sweep", "--alpha", "0.3", "--snr-db", "6",
                 "--trials", "3000", "--seed", "99", "--out", str(out)]) == 0
    res = run_alpha_sweep(_cfg(experiment="alpha_sweep", alpha_grid=[0.3],
                               snr_db_grid=[6.0]))
    assert out.read_bytes() == res.csv_text.encode()


# ---------------------------------------------------------------- snr sweep

def test_crossovers_count_a_zero_difference_at_the_last_snr():
    # both curves count 0 at the last SNR: that SNR is a crossover
    assert _crossovers([1, 2, 3], [.3, .2, 0], [.1, .1, 0]) == [3.0]


def test_snr_sweep_series_layout():
    cfg = _cfg(experiment="snr_sweep", snr_db_grid=[4.0, 6.0])
    res = run_snr_sweep(cfg)
    ids = {row[1] for row in res.rows}
    assert ids == {"alpha=0.3", "alpha=0.4", "mimo3x3"}
    assert len(res.rows) == 6
    # rows come out ascending in SNR
    assert [r[0] for r in res.rows] == sorted(r[0] for r in res.rows)
    assert any(key.startswith("crossover[alpha=0.4 vs alpha=0.3]")
               for key in res.manifest.extra)
    assert any("vs mimo3x3" in key for key in res.manifest.extra)


def test_snr_sweep_no_baseline():
    cfg = _cfg(experiment="snr_sweep", snr_db_grid=[5.0],
               include_baseline=False)
    res = run_snr_sweep(cfg)
    assert {row[1] for row in res.rows} == {"alpha=0.3", "alpha=0.4"}


# the fields that differ from one grid point to the next
_POINT_COORDINATES = {"tau", "scale", "k", "seed", "correlation"}


def test_config_check_builds_the_configs_the_run_builds(monkeypatch):
    import coopbeam.harness as harness
    built = []
    for cls in (OutageConfig, MimoConfig):
        def record(*args, _cls=cls, **kw):
            built.append(_cls(*args, **kw))
            return built[-1]
        monkeypatch.setattr(harness, cls.__name__, record)
    cfg = _cfg(experiment="snr_sweep", snr_db_grid=[4.0, 9.0], trials=500)
    checked = built[:]
    del built[:]
    run_snr_sweep(cfg)
    assert {type(c) for c in checked} == {type(c) for c in built} == {
        OutageConfig, MimoConfig}
    assert {c.seed for c in built} == {(cfg.seed, i) for i in range(6)}
    for check in checked:
        assert isinstance(check.seed, tuple) and len(check.seed) == 2
        assert check.seed[0] == cfg.seed and isinstance(check.seed[1], int)
        for run in (c for c in built if type(c) is type(check)):
            for f in dataclasses.fields(check):
                if f.name not in _POINT_COORDINATES:
                    assert getattr(check, f.name) == getattr(run, f.name)


def test_zero_node_split_gives_nan_rows_in_every_sweep():
    # alpha * ratio_ptotal_ps = 0.3 rounds to zero nodes
    cfg = dict(alpha_grid=[0.02, 0.3], snr_db_grid=[4.0, 9.0], trials=500)
    snr = run_snr_sweep(_cfg(experiment="snr_sweep", **cfg))
    rows = [r for r in snr.rows if r[1] == "alpha=0.02"]
    assert len(rows) == 2
    assert all(math.isnan(r[2]) and math.isnan(r[3]) for r in rows)
    assert snr.manifest.extra["crossover[alpha=0.02 vs mimo3x3]"] == "none"
    corr = run_corr_sweep(_cfg(experiment="corr_sweep", **dict(
        cfg, alpha_grid=[0.02], corr_r_grid=[0.5])))
    assert all(math.isnan(r[3]) and math.isnan(r[4]) for r in corr.rows)
    alpha = run_alpha_sweep(_cfg(experiment="alpha_sweep", **cfg))
    assert [r[2:4] for r in alpha.rows if r[1] == 0.02] == [(0, 0), (0, 0)]


def test_snr_sweep_worker_byte_identity():
    cfg = _cfg(experiment="snr_sweep", snr_db_grid=[4.0, 9.0],
               trials=20_000)
    assert run_snr_sweep(cfg, workers=1).csv_text == \
        run_snr_sweep(cfg, workers=8).csv_text


def test_manifests_hold_raw_values_that_the_header_renders():
    # only the alpha sweep has a summary; the other sweeps state what they
    # found in manifest.extra, whose values header_lines alone formats
    snr = run_snr_sweep(_cfg(experiment="snr_sweep",
                             alpha_grid=[0.02, 0.3, 0.4],
                             snr_db_grid=[2.0, 6.0, 10.0, 14.0], trials=500))
    corr = run_corr_sweep(_cfg(experiment="corr_sweep", snr_db_grid=[4.0],
                               corr_r_grid=[0.5], trials=500))
    assert snr.summary == corr.summary == {}
    assert snr.manifest.extra["crossover[alpha=0.3 vs alpha=0.02]"] == "none"
    assert any(v != "none" for v in snr.manifest.extra.values())
    for key, value in snr.manifest.extra.items():
        if value != "none":
            assert isinstance(value, tuple) and value
            assert all(isinstance(x, float) for x in value)
            value = ",".join(f"{x:.10g}" for x in value)
        assert f"\n# {key} = {value}\n" in snr.csv_text
    assert corr.manifest.extra == {"alpha": 0.3}
    assert type(corr.manifest.extra["alpha"]) is float
    assert snr.manifest.config["alpha_grid"] == (0.02, 0.3, 0.4)
    assert "\n# alpha_grid = 0.02,0.3,0.4\n" in snr.csv_text
    assert "\n# alpha = 0.3\n" in corr.csv_text


# --------------------------------------------------------------- corr sweep

def test_corr_sweep_rho_column_consistency():
    cfg = _cfg(experiment="corr_sweep", snr_db_grid=[6.0])
    res = run_corr_sweep(cfg)
    assert res.columns == ("snr_db", "corr_r", "rho_level", "p_out",
                           "std_err")
    assert [row[1] for row in res.rows] == [0.0, 0.25, 0.5, 0.75]
    for row in res.rows:
        # ||C - I||_F / sqrt(3) for the 3 x 3 exponential matrix
        expect = math.sqrt(2.0 * (2 * row[1] ** 2 + row[1] ** 4) / 3.0)
        assert row[2] == pytest.approx(expect, rel=1e-12)
    assert res.rows[0][2] == 0.0


def test_corr_sweep_r0_matches_uncorrelated_single_point():
    trials, seed = 20_000, 4242
    sweep = run_corr_sweep(_cfg(experiment="corr_sweep", snr_db_grid=[6.0],
                                corr_r_grid=[0.0, 0.5], trials=trials,
                                seed=seed))
    point = run_single_point(_cfg(experiment="single_point",
                                  alpha_grid=[0.3], snr_db_grid=[6.0],
                                  trials=trials, seed=seed))
    r0 = sweep.rows[0]
    assert r0[1] == 0.0
    assert r0[3] == point["p_out_mc"]  # bit-identical, not approx
    assert r0[4] == point["std_err"]


def test_corr_sweep_worker_byte_identity():
    cfg = _cfg(experiment="corr_sweep", snr_db_grid=[6.0], trials=20_000)
    assert run_corr_sweep(cfg, workers=1).csv_text == \
        run_corr_sweep(cfg, workers=8).csv_text


# ------------------------------------------------------------- single point

def test_single_point_allocation_echo():
    cfg = _cfg(experiment="single_point", alpha_grid=[0.4],
               snr_db_grid=[4.0])
    report = run_single_point(cfg)
    assert report["k"] == 6
    assert report["p1"] == pytest.approx(0.4 * cfg.p_total)
    assert report["p2"] == pytest.approx(0.6 * cfg.p_total)
    assert report["feasible"] is True
    assert report["broadcast_bound"] == pytest.approx(18.0)
    assert 0.0 <= report["p_out_mc"] <= 1.0
    assert report["p_out_analytical_printed"] != \
        report["p_out_analytical_complex_convention"]
    assert report["manifest"].row_count == 1


def test_single_point_infeasible_flagged():
    cfg = _cfg(experiment="single_point", alpha_grid=[0.3],
               snr_db_grid=[6.0], sigma_nbr2=2.0)
    report = run_single_point(cfg)
    assert report["feasible"] is False
    assert "p_out_mc" in report  # still estimated, just flagged


def test_single_point_degenerate_trials_warns():
    cfg = _cfg(experiment="single_point", alpha_grid=[0.4],
               snr_db_grid=[4.0], trials=1)
    with pytest.warns(UserWarning, match="degenerate"):
        report = run_single_point(cfg)
    assert report["p_out_mc"] in (0.0, 1.0)
    assert report["std_err"] == 0.0


def test_single_point_threshold_matches_formula():
    cfg = _cfg(experiment="single_point", alpha_grid=[0.4],
               snr_db_grid=[4.0])
    report = run_single_point(cfg)
    snr_lin = 10.0 ** 0.4
    tau = (2.0 ** 3 - 1.0) / (0.6 * snr_lin)
    assert report["threshold"] == pytest.approx(tau, rel=1e-12)
    assert math.isfinite(report["sigma_n2"])


# ------------------------------------------------------------ reproducibility

def test_manifest_reproducibility_fields():
    cfg = _cfg(experiment="alpha_sweep", alpha_grid=[0.3],
               snr_db_grid=[6.0])
    res = run_alpha_sweep(cfg)
    m = res.manifest
    assert m.config["master_seed"] == 99
    assert "default_rng([seed, i, b])" in m.config["subseed_rule"]
    assert __version__
    assert res.csv_text.splitlines()[0] == f"# coopbeam {__version__}"
    joined = res.csv_text
    for key in ("experiment", "trials", "gain_mode", "bound_variant",
                "snr_db_grid", "alpha_grid"):
        assert f"# {key} = " in joined


def test_corr_sweep_builds_each_correlation_matrix_once(monkeypatch):
    import coopbeam.harness as harness
    built = []

    def counted(m, r):
        built.append(r)
        return CorrelationMatrix(m, r)

    monkeypatch.setattr(harness, "exponential_correlation", counted)
    cfg = _cfg(experiment="corr_sweep", alpha_grid=[0.3],
               snr_db_grid=[4.0, 6.0, 8.0], corr_r_grid=[0.5, 0.0, 0.25],
               trials=500)
    assert len(run_corr_sweep(cfg).rows) == 9
    assert built == [0.0, 0.25, 0.5]


# alpha 0.02 funds no node (K = round(0.3) = 0), so it checks no p1
@pytest.mark.parametrize("kw, alphas, funded", [
    (dict(experiment="alpha_sweep", alpha_grid=[0.5, 0.02, 0.3],
          snr_db_grid=[4.0, 8.0]), 3, 2),
    (dict(experiment="snr_sweep", alpha_grid=[0.3, 0.4],
          snr_db_grid=[4.0, 8.0], include_baseline=False), 2, 2),
    (dict(experiment="corr_sweep", alpha_grid=[0.3], snr_db_grid=[4.0],
          corr_r_grid=[0.0, 0.5]), 1, 1),
    (dict(experiment="single_point", alpha_grid=[0.02], snr_db_grid=[4.0]),
     1, 0),
], ids=["alpha_sweep", "snr_sweep", "corr_sweep", "single_point"])
def test_run_reads_the_splits_its_config_built(kw, alphas, funded,
                                               monkeypatch):
    import coopbeam.harness as harness
    calls = dict.fromkeys(("split", "cluster_size", "broadcast_feasible"), 0)

    def counter(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(harness, name, counter(name, getattr(harness,
                                                                 name)))
    cfg = _cfg(trials=500, **kw)
    built = {"split": alphas, "cluster_size": alphas,
             "broadcast_feasible": funded}
    assert calls == built
    assert [alloc.alpha for alloc, _, _ in cfg.splits] == list(cfg.alpha_grid)
    EXPERIMENTS[cfg.experiment].runner(cfg)
    assert calls == built


@pytest.mark.parametrize("m", [2.5, 3.0, True, "3", 0])
def test_config_rejects_non_integer_m(m):
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        ExperimentConfig(experiment="alpha_sweep", m=m)


# a block's largest buffer holds 2 * min(trials, BLOCK_SIZE) * m * K doubles,
# or * m where an snr_sweep runs the MIMO baseline: 2 * 2 * 8192 * 8192 =
# 2**28 for the first config; a corr_sweep also builds m x m matrices
_M200 = dict(m=200, trials=8192, alpha_grid=[0.2])  # K = 3


@pytest.mark.parametrize("kw, ok", [
    (dict(experiment="snr_sweep", m=8192, trials=2), True),
    (dict(experiment="snr_sweep", m=8192, trials=3), False),
    (dict(experiment="snr_sweep", m=100_000), False),
    (dict(experiment="single_point", alpha_grid=[0.5], snr_db_grid=[4.0],
          ratio_ptotal_ps=1e7), False),
    # 2 * 8192 * 2**31 * 2**31 wraps to 0 in int64
    (dict(experiment="single_point", alpha_grid=[0.3], snr_db_grid=[4.0],
          m=np.int64(2**31)), False),
    (dict(experiment="alpha_sweep", **_M200), True),
    (dict(experiment="corr_sweep", corr_r_grid=[0.5], **_M200), True),
    (dict(experiment="single_point", snr_db_grid=[4.0], **_M200), True),
    (dict(experiment="snr_sweep", include_baseline=False, **_M200), True),
    (dict(experiment="snr_sweep", **_M200), False),
    # K = 1 fits; the 20000 x 20000 correlation matrix does not
    (dict(experiment="corr_sweep", m=20_000, trials=1, alpha_grid=[0.05]),
     False),
])
def test_config_bounds_a_blocks_largest_buffer(kw, ok, no_draws):
    if ok:
        ExperimentConfig(**kw)
    else:
        with pytest.raises(ValueError, match="over the limit of 268435456"):
            ExperimentConfig(**kw)


def test_config_accepts_numpy_integer_m():
    texts = [run_alpha_sweep(_cfg(experiment="alpha_sweep", alpha_grid=[0.3],
                                  snr_db_grid=[6.0], trials=1000, m=m)
                             ).csv_text
             for m in (3, np.int64(3))]
    assert texts[0] == texts[1]


def test_config_holds_numpy_float32_scalars_as_floats():
    # each value is exact in float32, so only the arithmetic's width differs
    texts = [run_alpha_sweep(_cfg(
        experiment="alpha_sweep", alpha_grid=[0.3, 0.5], snr_db_grid=[4, 9],
        seed=3, p_total=t(60), r_tr=t(3), ratio_ptotal_ps=t(15), r_br=t(2),
        sigma_nbr2=t(1))).csv_text for t in (float, np.float32)]
    assert texts[0] == texts[1]
    assert "# p_total = 60\n" in texts[0]


# 60 / 10**39 and 2**1000 - 1 overflow float32, not float
@pytest.mark.parametrize("kw", [
    dict(snr_db_grid=[390.0], p_total=np.float32(60)),
    dict(snr_db_grid=[4.0], r_br=1000.0, sigma_nbr2=np.float32(1)),
], ids=["p_total", "sigma_nbr2"])
def test_config_checks_numpy_float32_scalars_as_floats(kw, no_draws):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ExperimentConfig(experiment="single_point", alpha_grid=[0.3], **kw)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_config_rejects_an_unknown_bound_variant(experiment, no_draws):
    # point reads every variant and alpha-sweep would fail only after drawing
    with pytest.raises(ValueError, match="unknown bound variant 'bogus'"):
        ExperimentConfig(experiment=experiment, alpha_grid=[0.3],
                         snr_db_grid=[4.0], bound_variant="bogus")


def test_corr_sweep_config_takes_one_alpha():
    with pytest.raises(ValueError, match="corr_sweep needs exactly one alpha"):
        ExperimentConfig(experiment="corr_sweep", alpha_grid=[0.3, 0.5])
    cfg = ExperimentConfig(experiment="corr_sweep", alpha_grid=[0.5])
    assert cfg.alpha_grid == (0.5,)


@pytest.mark.parametrize("flag", ["no", 2, 1, None])
def test_config_rejects_non_bool_include_baseline(flag, no_draws):
    with pytest.raises(ValueError, match="include_baseline must be a bool"):
        ExperimentConfig(experiment="snr_sweep", include_baseline=flag)


def test_config_accepts_numpy_bool_include_baseline():
    texts = [run_snr_sweep(_cfg(experiment="snr_sweep", snr_db_grid=[6.0],
                                trials=500, include_baseline=flag)).csv_text
             for flag in (False, np.bool_(False))]
    assert texts[0] == texts[1]
    assert "# include_baseline = 0" in texts[0]
