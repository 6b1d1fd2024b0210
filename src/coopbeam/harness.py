"""Experiment harness: seeded sweeps, CSV emission, and run manifests.

Conventions used by every experiment
------------------------------------
* The x-axis "overall SNR" is P_total / sigma_n^2 in dB.  The total budget
  P_total is held fixed (default 60, in units of the broadcast noise
  variance) and the fusion-center noise variance is derived per grid point
  as sigma_n2 = P_total / 10^(snr_db/10).  Outage depends only on the
  ratio, so results are invariant to the absolute budget; broadcast
  feasibility (which needs an absolute scale) is checked against the
  per-node broadcast power P_s = P_total / ratio_ptotal_ps.
* Grid point i seeds its Monte Carlo blocks by ``_blocks.SUBSEED_RULE``;
  the outage reduction is an integer count, so output bytes do not depend
  on the worker count.
* CSV text and point reports carry a '#'-prefixed manifest header.
* The runners compute and return text (``SweepResult.csv_text``, or
  ``format_report`` of the point report); they open no file and read no
  clock.  The CLI writes the file and prints the wall-clock time.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

from ._blocks import (SUBSEED_RULE, _shown, require_bool, require_finite,
                      require_positive)
from ._version import __version__
from .baseline import MimoConfig, mimo_outage
# bench/tracer.py wraps this name to count the correlation matrices built
from .channel import CorrelationMatrix as exponential_correlation
from .outage import (
    BOUND_VARIANTS,
    OutageConfig,
    OutageEstimate,
    analytical_outage,
    monte_carlo_outage,
    outage_threshold,
    required_snr,
)
from .powerplan import (
    broadcast_feasible,
    broadcast_power_bound,
    cluster_size,
    split,
)


class Split(NamedTuple):
    """One grid alpha's plan: its phase powers, cluster size K and whether
    p1 covers the broadcast bound; a split that funds no node (k = 0) is
    infeasible."""

    alpha: float
    p1: float
    p2: float
    k: int
    feasible: bool


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameterization of one experiment run.

    Grids default to the experiment's row in EXPERIMENTS and are held
    sorted, in run order.  Every library config a run uses comes from
    ``_outage_config`` or ``_mimo_config``, which seed point i with
    (seed, i); a run is checked by building ``splits``, ``_split`` of each
    alpha_grid value, then, through the two builders, its worst point's
    OutageConfig and the baseline's MimoConfig, and ``correlations``, one
    CorrelationMatrix per corr_r_grid value.
    """

    experiment: str
    m: int = 3
    ratio_ptotal_ps: float = 15.0
    r_br: float = 2.0
    r_tr: float = 3.0
    alpha_grid: Optional[Sequence[float]] = None
    snr_db_grid: Optional[Sequence[float]] = None
    corr_r_grid: Optional[Sequence[float]] = None
    trials: int = 100_000
    seed: int = 1234
    gain_mode: str = "frobenius"
    bound_variant: str = "printed"
    p_total: float = 60.0
    sigma_nbr2: float = 1.0
    include_baseline: bool = True
    splits: tuple = field(init=False, repr=False, compare=False)
    correlations: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {_shown(self.experiment)}")
        require_positive(ratio_ptotal_ps=self.ratio_ptotal_ps,
                         p_total=self.p_total)
        broadcast_power_bound(1, self.r_br, self.sigma_nbr2)
        required_snr(self.r_tr)
        for name in ("ratio_ptotal_ps", "r_br", "r_tr", "p_total",
                     "sigma_nbr2"):  # a numpy float32 would run in float32
            object.__setattr__(self, name, float(getattr(self, name)))
        require_bool(include_baseline=self.include_baseline)
        if self.bound_variant not in BOUND_VARIANTS:
            raise ValueError(
                f"unknown bound variant {_shown(self.bound_variant)}")
        row = EXPERIMENTS[self.experiment]
        for name in ("alpha", "snr_db", "corr_r"):
            object.__setattr__(self, f"{name}_grid",
                               self._grid(f"{name}_grid", getattr(row, name)))
        for name in row.one_value:
            if len(getattr(self, f"{name}_grid")) != 1:
                raise ValueError(
                    f"{self.experiment} needs exactly one {name}")
        for name, default, reader in (  # settings only one experiment reads
                ("corr_r_grid", (), "corr_sweep"),
                ("include_baseline", True, "snr_sweep"),
                ("bound_variant", "printed", "alpha_sweep")):
            if self.experiment != reader and getattr(self, name) != default:
                raise ValueError(f"{name} is read only by {reader}, not by "
                                 f"{self.experiment}")
        object.__setattr__(self, "splits",
                           tuple(map(self._split, self.alpha_grid)))
        worst = self.splits[-1]  # K and tau grow with alpha
        self._outage_config(  # worst point: largest alpha and K, lowest SNR
            worst.p2, max(map(self.sigma_n2_at, self.snr_db_grid)),
            max(worst.k, 1), 0)
        if self.experiment == "snr_sweep" and self.include_baseline:
            self._mimo_config(self.snr_db_grid[-1], 0)
        object.__setattr__(self, "correlations", tuple(
            exponential_correlation(self.m, r) for r in self.corr_r_grid))

    def _grid(self, name, default):
        value = getattr(self, name)
        if value is None:
            return tuple(default)
        if isinstance(value, (str, bytes)):
            raise ValueError(f"{name} must be a list, not {_shown(value)}")
        grid = tuple(value)
        require_finite(**{f"{name}[{i}]": v for i, v in enumerate(grid)})
        grid = tuple(sorted(map(float, grid)))
        if not grid:
            raise ValueError("grids must be nonempty")
        if len({_fmt(v + 0.0) for v in grid}) < len(grid):  # -0 as 0
            raise ValueError(f"grid {_fmt(grid)} repeats a value")
        return grid

    @property
    def p_s(self) -> float:
        return self.p_total / self.ratio_ptotal_ps

    def _split(self, alpha: float) -> Split:
        """The Split of one grid alpha; only a funded one checks its p1."""
        p1, p2 = split(self.p_total, alpha)
        k = cluster_size(alpha, self.p_total, self.p_s)
        return Split(alpha, p1, p2, k, k > 0 and broadcast_feasible(
            p1, k, self.r_br, self.sigma_nbr2))

    def _outage_config(self, p2: float, sigma_n2: float, k: int, index: int,
                       correlation=None) -> OutageConfig:
        """The OutageConfig of grid point index, seeded (seed, index)."""
        return OutageConfig(tau=outage_threshold(self.r_tr, p2, sigma_n2),
                            m=self.m, k=k, trials=self.trials,
                            seed=(self.seed, index), gain_mode=self.gain_mode,
                            correlation=correlation)

    def _mimo_config(self, snr_db: float, index: int) -> MimoConfig:
        """The MIMO baseline's MimoConfig at grid point index."""
        scale = self.p_total / (self.m * self.sigma_n2_at(snr_db))
        return MimoConfig(m=self.m, scale=scale, r_tr=self.r_tr,
                          trials=self.trials, seed=(self.seed, index))

    def sigma_n2_at(self, snr_db: float) -> float:
        """p_total / 10**(snr_db/10); ValueError unless finite and > 0."""
        try:
            sigma_n2 = self.p_total / (10.0 ** (snr_db / 10.0))
        except (OverflowError, ZeroDivisionError):
            sigma_n2 = math.inf
        if not 0.0 < sigma_n2 < math.inf:
            raise ValueError(f"noise variance at snr_db {snr_db} is not "
                             f"finite and positive")
        return sigma_n2


@dataclass
class RunManifest:
    """What a run varies: its config echo, row count and extras.

    ``config`` is _config_echo's dict, which ends with master_seed and
    subseed_rule.  Values are raw; ``header_lines`` renders each by _fmt,
    under a ``# coopbeam <version>`` line.
    """

    config: dict
    row_count: int
    extra: dict

    def header_lines(self) -> list[str]:
        items = [*self.config.items(), ("rows", self.row_count),
                 *self.extra.items()]
        return [f"# coopbeam {__version__}"] + [
            f"# {key} = {_fmt(value)}" for key, value in items]


@dataclass
class SweepResult:
    columns: tuple
    rows: list
    summary: dict  # alpha_sweep's alpha* per SNR; {} for the other sweeps
    manifest: RunManifest
    csv_text: str


def _fmt(value) -> str:
    """A float to 10 significant digits, a tuple comma-joined, else str."""
    if isinstance(value, tuple):
        return ",".join(map(_fmt, value))
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


# the ExperimentConfig fields every manifest echoes, in order
_ECHOED = ("experiment", "m", "ratio_ptotal_ps", "r_br", "r_tr", "p_total",
           "sigma_nbr2", "trials", "gain_mode", "bound_variant", "alpha_grid",
           "snr_db_grid")


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = {name: getattr(cfg, name) for name in _ECHOED}
    echo["overall_snr_definition"] = "p_total / sigma_n2, in dB"
    if cfg.experiment == "corr_sweep":
        echo["corr_r_grid"] = cfg.corr_r_grid
    if cfg.experiment == "snr_sweep":
        echo["include_baseline"] = int(cfg.include_baseline)
    echo["master_seed"] = cfg.seed
    echo["subseed_rule"] = SUBSEED_RULE
    return echo


def _start(cfg: ExperimentConfig, experiment: str) -> None:
    """Check that cfg is for this runner."""
    if cfg.experiment != experiment:
        raise ValueError(
            f"{experiment} runner given a {cfg.experiment} config")


def _sweep_result(cfg: ExperimentConfig, columns, rows, summary,
                  extra) -> SweepResult:
    """Manifest and CSV text of a finished sweep."""
    manifest = RunManifest(_config_echo(cfg), len(rows), extra)
    lines = manifest.header_lines() + [",".join(columns), *map(_fmt, rows)]
    return SweepResult(columns, rows, summary, manifest,
                       "\n".join(lines) + "\n")


def _point(cfg: ExperimentConfig, plan: Split, sigma_n2: float, index: int,
           workers: int, correlation=None) -> tuple:
    """(tau, estimate) of grid point index at one of cfg.splits: the tau its
    OutageConfig ran and its Monte Carlo estimate; NaNs if it funds no node."""
    if plan.k == 0:
        return math.nan, OutageEstimate(math.nan, math.nan)
    mc_cfg = cfg._outage_config(plan.p2, sigma_n2, plan.k, index, correlation)
    return mc_cfg.tau, monte_carlo_outage(mc_cfg, workers=workers)


def run_alpha_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Outage vs power split over an (alpha x SNR) grid, with the bound.

    Rows: (snr_db, alpha, k, feasible, p_out_mc, std_err, p_out_analytical).
    Infeasible allocations are flagged (feasible = 0), never dropped, and do
    not participate in the per-SNR alpha* summary.
    """
    _start(cfg, "alpha_sweep")
    columns = ("snr_db", "alpha", "k", "feasible", "p_out_mc", "std_err",
               "p_out_analytical")
    grid = itertools.product(cfg.snr_db_grid, cfg.splits)
    rows = []
    for index, (snr_db, plan) in enumerate(grid):
        tau, est = _point(cfg, plan, cfg.sigma_n2_at(snr_db), index, workers)
        analytical = math.nan if plan.k == 0 else analytical_outage(
            cfg.m, plan.k, tau, variant=cfg.bound_variant)
        rows.append((snr_db, plan.alpha, plan.k, int(plan.feasible),
                     est.probability, est.std_error, analytical))
    summary, extra = {}, {}
    for snr in cfg.snr_db_grid:
        # alpha*: the least p_out_mc among the SNR's feasible rows; a tie goes
        # to the smaller alpha, which spends less broadcast power
        best = min(((p, alpha, k) for s, alpha, k, ok, p, *_ in rows
                    if s == snr and ok), default=None)
        if best is not None:
            p, alpha, k = best
            summary[snr] = {"alpha_star": alpha, "k_star": k, "p_out_star": p}
            extra[f"alpha_star[snr_db={_fmt(snr)}]"] = (
                f"{_fmt(alpha)} (k={k}, p_out_mc={_fmt(p)})")
    return _sweep_result(cfg, columns, rows, summary, extra)


def _crossovers(snrs, series_a, series_b) -> list[float]:
    """Interpolated SNRs where series_a - series_b changes sign."""
    found = []
    diffs = [a - b for a, b in zip(series_a, series_b)]
    for i in range(len(diffs) - 1):
        d0, d1 = diffs[i], diffs[i + 1]
        if d0 == 0.0:
            found.append(snrs[i])
        elif (d0 < 0) != (d1 < 0) and d1 != 0.0:
            frac = d0 / (d0 - d1)
            found.append(snrs[i] + frac * (snrs[i + 1] - snrs[i]))
    if diffs and diffs[-1] == 0.0:
        found.append(snrs[-1])
    return found


def run_snr_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Outage vs SNR for each alpha allocation plus the MIMO baseline.

    Rows: (snr_db, series_id, p_out, std_err) with one series per alpha and
    one ``mimo{m}x{m}`` series (unless include_baseline is off).  Measured
    series crossovers are recorded in the manifest.
    """
    _start(cfg, "snr_sweep")
    columns = ("snr_db", "series_id", "p_out", "std_err")
    # (split, series id) per series; the MIMO baseline's split is None
    series = [(plan, f"alpha={_fmt(plan.alpha)}") for plan in cfg.splits]
    alpha_ids = [sid for _, sid in series]
    mimo_id = f"mimo{cfg.m}x{cfg.m}"
    if cfg.include_baseline:
        series.append((None, mimo_id))
    rows = []
    grid = itertools.product(cfg.snr_db_grid, series)
    for index, (snr_db, (plan, sid)) in enumerate(grid):
        if plan is None:
            est = mimo_outage(cfg._mimo_config(snr_db, index), workers=workers)
        else:
            _, est = _point(cfg, plan, cfg.sigma_n2_at(snr_db), index,
                            workers)
        rows.append((snr_db, sid, est.probability, est.std_error))

    def curve(sid):
        return [row[2] for row in rows if row[1] == sid]

    pairs = [(b, a) for a, b in itertools.combinations(alpha_ids, 2)]
    if cfg.include_baseline:
        pairs += [(sid, mimo_id) for sid in alpha_ids]
    extra = {f"crossover[{a} vs {b}]": tuple(
        _crossovers(cfg.snr_db_grid, curve(a), curve(b))) or "none"
        for a, b in pairs}
    return _sweep_result(cfg, columns, rows, {}, extra)


def run_corr_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Outage vs receive-correlation level at fixed power split.

    Rows: (snr_db, corr_r, rho_level, p_out, std_err); rho_level is the
    off-diagonal Frobenius ratio of the exponential-model C actually applied
    (as the literal product C @ H) at that point.
    """
    _start(cfg, "corr_sweep")
    columns = ("snr_db", "corr_r", "rho_level", "p_out", "std_err")
    plan = cfg.splits[0]
    rows = []
    grid = itertools.product(cfg.snr_db_grid, cfg.correlations)
    for index, (snr_db, C) in enumerate(grid):
        _, est = _point(cfg, plan, cfg.sigma_n2_at(snr_db), index, workers, C)
        rows.append((snr_db, C.r, C.level, est.probability, est.std_error))
    return _sweep_result(cfg, columns, rows, {}, {"alpha": plan.alpha})


def run_single_point(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Evaluate one (alpha, SNR) point and report every derived quantity.

    The report carries the allocation (P1, P2, K), broadcast feasibility,
    the Monte Carlo estimate with its standard error, both analytical bound
    variants, and the run manifest; it writes nothing, and
    format_report(report) is its text.  trials = 1 is legal but degenerate
    (probability 0 or 1 with zero standard error) and draws a warning.
    """
    _start(cfg, "single_point")
    plan = cfg.splits[0]
    snr_db = cfg.snr_db_grid[0]
    if cfg.trials == 1:
        warnings.warn("trials=1 gives a degenerate estimate (p in {0,1}, "
                      "std_err 0)")
    sigma_n2 = cfg.sigma_n2_at(snr_db)
    tau, est = _point(cfg, plan, sigma_n2, 0, workers)
    report = {
        "alpha": plan.alpha,
        "snr_db": snr_db,
        "p_total": cfg.p_total,
        "p1": plan.p1,
        "p2": plan.p2,
        "k": plan.k,
        "sigma_n2": sigma_n2,
        "broadcast_bound": (broadcast_power_bound(
            plan.k, cfg.r_br, cfg.sigma_nbr2) if plan.k else math.inf),
        "feasible": plan.feasible,
    }
    if plan.k:
        report["threshold"] = tau
        report["p_out_mc"] = est.probability
        report["std_err"] = est.std_error
        for variant in BOUND_VARIANTS:
            report[f"p_out_analytical_{variant}"] = analytical_outage(
                cfg.m, plan.k, report["threshold"], variant=variant)
    report["manifest"] = RunManifest(_config_echo(cfg), 1, {})
    return report


def format_report(report: dict) -> str:
    """Human-readable single-point report (manifest lines included)."""
    lines = [f"{key} = {_fmt(value)}" for key, value in report.items()
             if key != "manifest"]
    lines.extend(report["manifest"].header_lines())
    return "\n".join(lines) + "\n"


class Experiment(NamedTuple):
    """An experiment's runner, default grids and one-value grids."""

    runner: Callable
    alpha: tuple = ()  # default grids; empty: no default
    snr_db: tuple = ()
    corr_r: tuple = ()
    one_value: tuple = ()  # grids that must hold exactly one value


_SWEEP_SNRS = tuple(map(float, range(2, 13)))
EXPERIMENTS = {
    "alpha_sweep": Experiment(run_alpha_sweep, tuple(
        round(0.2 + 0.05 * i, 2) for i in range(13)), _SWEEP_SNRS),
    "snr_sweep": Experiment(run_snr_sweep, (0.3, 0.4), _SWEEP_SNRS),
    "corr_sweep": Experiment(run_corr_sweep, (0.3,), _SWEEP_SNRS,
                             (0.0, 0.25, 0.5, 0.75), ("alpha",)),
    "single_point": Experiment(run_single_point,
                               one_value=("alpha", "snr_db")),
}
