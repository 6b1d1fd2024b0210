"""Command-line interface for the experiment harness.

Subcommands map one-to-one onto the harness runners::

    coopbeam alpha-sweep --trials 100000 --seed 7 --out fig_alpha.csv
    coopbeam snr-sweep --alpha 0.3 --alpha 0.4 --snr-db-range 2:12:1
    coopbeam corr-sweep --corr 0 --corr 0.25 --corr 0.5 --corr 0.75
    coopbeam point --alpha 0.4 --snr-db 4

Flags override entries of an optional key=value config file (--config);
COOPBEAM_OUTDIR supplies the default output directory only.  Exit status is
0 on success, 1 on an infeasible single point, 2 on invalid configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from ._blocks import require_finite, require_positive_int
from .harness import EXPERIMENTS, ExperimentConfig, format_report
from .outage import BOUND_VARIANTS, GAIN_MODES

# main calls every runner through this dict, so a caller may wrap its entries
_RUNNERS = {name: row.runner for name, row in EXPERIMENTS.items()}

OUTDIR_ENV = "COOPBEAM_OUTDIR"

# Most values one lo:hi:step range may give.  The largest axis in the README
# or the benchmark has 19, so a range of over 1000 is a mistake (a step in
# the wrong unit, say); the cap rejects it before a huge list is built.
MAX_RANGE_VALUES = 1000


def parse_range(text: str) -> list[float]:
    """Parse an inclusive lo:hi:step grid specification.

    lo, hi and step must be finite, with step > 0, hi >= lo and at most
    MAX_RANGE_VALUES values in the grid.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:step, got {text!r}"
        )
    lo, hi, step = (float(p) for p in parts)
    try:
        require_finite(lo=lo, hi=hi, step=step)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"range {text!r}: {exc}") from None
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_RANGE_VALUES:
        raise argparse.ArgumentTypeError(
            f"range {text!r} gives more than {MAX_RANGE_VALUES} values")
    return [round(lo + i * step, 10) for i in range(math.floor(span) + 1)]


def load_config_file(path: str) -> dict:
    """Read a key=value config file; '#' starts a comment.

    Raises ValueError, naming the file and line, for a line without '=' and
    for a key given twice.
    """
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            values[key] = val.strip()
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=None,
                        help="receive antennas at the fusion center")
    parser.add_argument("--ratio-ptotal-ps", type=float, default=None,
                        help="P_total / P_s budget ratio (K = alpha * ratio)")
    parser.add_argument("--rtr", dest="r_tr", type=float, metavar="RTR",
                        help="transmission rate R_tr (bits/s/Hz)")
    parser.add_argument("--rbr", dest="r_br", type=float, metavar="RBR",
                        help="broadcast rate R_br (bits/s/Hz)")
    parser.add_argument("--p-total", type=float, default=None,
                        help="total power budget (broadcast-noise units)")
    parser.add_argument("--sigma-nbr2", type=float, default=None,
                        help="broadcast-channel noise variance")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--gain-mode", choices=GAIN_MODES, default=None)
    parser.add_argument("--bound-variant", choices=BOUND_VARIANTS,
                        default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="Monte Carlo worker threads (results identical "
                             "for any count)")
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags take precedence")
    parser.add_argument("--out", dest="output_path", metavar="OUT",
                        help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopbeam",
        description="Monte Carlo outage experiments for two-phase "
                    "cooperative cluster transmission",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alpha = sub.add_parser("alpha-sweep",
                             help="outage vs power split alpha, per SNR")
    p_snr = sub.add_parser("snr-sweep",
                           help="outage vs SNR per allocation + MIMO baseline")
    p_corr = sub.add_parser("corr-sweep",
                            help="outage vs receive correlation level")
    p_point = sub.add_parser("point", help="one (alpha, SNR) point report")

    for p in (p_alpha, p_snr, p_corr, p_point):
        _add_common(p)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--alpha", dest="alpha_grid", type=float,
                           action="append", metavar="ALPHA",
                           help="explicit alpha (repeatable)")
        group.add_argument("--alpha-range", dest="alpha_grid",
                           type=parse_range, metavar="LO:HI:STEP")
        sgroup = p.add_mutually_exclusive_group()
        sgroup.add_argument("--snr-db", dest="snr_db_grid", type=float,
                            action="append", metavar="SNR_DB",
                            help="explicit SNR in dB (repeatable)")
        sgroup.add_argument("--snr-db-range", dest="snr_db_grid",
                            type=parse_range, metavar="LO:HI:STEP")

    p_corr.add_argument("--corr", dest="corr_r_grid", type=float,
                        action="append", metavar="CORR",
                        help="exponential-model r value (repeatable)")
    p_snr.add_argument("--no-baseline", dest="include_baseline",
                       action="store_false", default=None,
                       help="omit the MIMO baseline series")
    return parser


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected 1, true, yes, 0, false or no, "
                         f"got {text!r}") from None


# config-file key -> (dest of its flag, parser); every dest but workers is
# the ExperimentConfig field it sets
_CONFIG_KEYS = {
    "m": ("m", int), "ratio_ptotal_ps": ("ratio_ptotal_ps", float),
    "rtr": ("r_tr", float), "rbr": ("r_br", float),
    "p_total": ("p_total", float), "sigma_nbr2": ("sigma_nbr2", float),
    "trials": ("trials", int), "seed": ("seed", int),
    "gain_mode": ("gain_mode", str), "bound_variant": ("bound_variant", str),
    "workers": ("workers", int), "out": ("output_path", str),
    "alpha": ("alpha_grid", _floats),
    "alpha_range": ("alpha_grid", parse_range),
    "snr_db": ("snr_db_grid", _floats),
    "snr_db_range": ("snr_db_grid", parse_range),
    "corr": ("corr_r_grid", _floats),
    "no_baseline": ("include_baseline", lambda s: not _boolean(s)),
}


def _merge(args: argparse.Namespace) -> dict:
    """File values first, then any flag that was actually given.

    Two file keys that fill one destination (alpha and alpha_range, say),
    a key for a flag the subcommand lacks and a value its key cannot parse
    raise ValueError naming the file and the key, as a bad flag would fail.
    """
    merged: dict = {}
    if args.config:
        source: dict = {}
        for key, raw in load_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            dest, parse = _CONFIG_KEYS[key]
            if not hasattr(args, dest):
                raise ValueError(f"{args.config}: config key {key!r} is not "
                                 f"an option of {args.command}")
            if dest in source:
                raise ValueError(f"{args.config}: config keys "
                                 f"{source[dest]!r} and {key!r} conflict")
            source[dest] = key
            try:
                merged[dest] = parse(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{args.config}: {key}: {exc}") from None
    for dest, _ in _CONFIG_KEYS.values():
        flag = getattr(args, dest, None)
        if flag is not None:
            merged[dest] = flag
    return merged


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    experiment = args.command.replace("-", "_")
    if experiment == "point":
        experiment = "single_point"
    try:
        merged = _merge(args)
        workers = merged.pop("workers", 1)
        require_positive_int(workers=workers)
        if experiment != "single_point" and not merged.get("output_path"):
            merged["output_path"] = os.path.join(
                os.environ.get(OUTDIR_ENV, ""),
                experiment.replace("_", "-") + ".csv")
        cfg = ExperimentConfig(experiment=experiment, **merged)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = _RUNNERS[experiment](cfg, workers=workers)
    point = experiment == "single_point"
    if point:
        print(format_report(result), end="")
    manifest = result["manifest"] if point else result.manifest
    # wall-clock goes to stderr only, so output files stay reproducible
    print(f"wall_clock_s = {manifest.wall_clock_s:.3f}", file=sys.stderr)
    if not point:
        print(f"wrote {cfg.output_path} ({manifest.row_count} rows)")
    elif not result["feasible"]:
        print("infeasible: broadcast power bound unmet", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
