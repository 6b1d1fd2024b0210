"""Command-line interface for the experiment harness.

Subcommands map one-to-one onto the harness runners::

    coopbeam alpha-sweep --trials 100000 --seed 7 --out fig_alpha.csv
    coopbeam snr-sweep --alpha 0.3 --alpha 0.4 --snr-db-range 2:12:1
    coopbeam corr-sweep --corr 0 --corr 0.25 --corr 0.5 --corr 0.75
    coopbeam point --alpha 0.4 --snr-db 4

Flags override entries of an optional key=value config file (--config);
COOPBEAM_OUTDIR supplies the default output directory only.  main owns
the output file, checked before any draw and written after the run.  Exit
status is 0 on success, 1 on an infeasible single point, 2 on invalid
configuration.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import time

from ._blocks import _shown, require_finite, require_positive_int
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
            f"expected lo:hi:step, got {_shown(text)}")
    lo, hi, step = (float(p) for p in parts)
    try:
        require_finite(lo=lo, hi=hi, step=step)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"range {_shown(text)}: {exc}") from None
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {_shown(text)}")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_RANGE_VALUES:
        raise argparse.ArgumentTypeError(
            f"range {_shown(text)} gives more than {MAX_RANGE_VALUES} values")
    return [round(lo + i * step, 10) for i in range(math.floor(span) + 1)]


def load_config_file(path: str) -> dict:
    """Read a key=value config file; '#' starts a comment.

    Raises ValueError, naming the file and line, for a line without '=', for
    a key given twice and for bytes that are not UTF-8.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # one decode of the whole file: the error's offset is in the file
        text = data.decode("utf-8-sig")  # a leading BOM is no key
    except UnicodeDecodeError as exc:  # the line of the first bad byte
        before = exc.object[:exc.start].decode() + "?"
        lineno = len(io.StringIO(before, newline=None).readlines())
        raise ValueError(
            f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
    values = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"{path}:{lineno}: repeated key {_shown(key)}")
        values[key] = val.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected 1, true, yes, 0, false or no, "
                         f"got {_shown(text)}") from None


def _showing(parse):
    """parse, but its ValueError becomes argparse's "invalid <type> value"
    with the text shown by _shown: argparse would repeat all of it."""
    def parse_text(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {parse.__name__} value: {_shown(text)}") from None
    return parse_text


# subcommand, the experiment it runs and its help line, in help order
_COMMANDS = (
    ("alpha-sweep", "alpha_sweep", "outage vs power split alpha, per SNR"),
    ("snr-sweep", "snr_sweep", "outage vs SNR per allocation + MIMO baseline"),
    ("corr-sweep", "corr_sweep", "outage vs receive correlation level"),
    ("point", "single_point", "one (alpha, SNR) point report"),
)


def _flag(parser, flag: str, group=None, **kwargs) -> None:
    """Add flag to parser, or to its group, and record its config-file key.

    The key, the flag without '--' and with '_' for '-', maps in the
    parser's config_keys default to the flag's dest (the ExperimentConfig
    field it sets, but for workers and output_path, which main takes) and
    the parser of a file value: the flag's type (wrapped by _showing), of
    each comma-separated item for a repeatable flag; _boolean, negated, for
    a store_false flag; else str.
    """
    if "type" in kwargs:
        kwargs["type"] = _showing(kwargs["type"])
    action = (group or parser).add_argument(flag, **kwargs)
    item = action.type or str
    parse = {"append": lambda text: [item(v) for v in text.split(",")],
             "store_false": lambda text: not _boolean(text),
             }.get(kwargs.get("action"), item)
    key = flag[2:].replace("-", "_")
    parser.get_default("config_keys")[key] = (action.dest, parse)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopbeam",
        description="Monte Carlo outage experiments for two-phase "
                    "cooperative cluster transmission",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, experiment, text in _COMMANDS:
        p = sub.add_parser(command, help=text)
        p.set_defaults(experiment=experiment, config_keys={})
        _flag(p, "--m", type=int, help="receive antennas at the fusion center")
        _flag(p, "--ratio-ptotal-ps", type=float,
              help="P_total / P_s budget ratio (K = alpha * ratio)")
        _flag(p, "--rtr", dest="r_tr", type=float, metavar="RTR",
              help="transmission rate R_tr (bits/s/Hz)")
        _flag(p, "--rbr", dest="r_br", type=float, metavar="RBR",
              help="broadcast rate R_br (bits/s/Hz)")
        _flag(p, "--p-total", type=float,
              help="total power budget (broadcast-noise units)")
        _flag(p, "--sigma-nbr2", type=float,
              help="broadcast-channel noise variance")
        _flag(p, "--trials", type=int)
        _flag(p, "--seed", type=int)
        _flag(p, "--gain-mode", help=" or ".join(GAIN_MODES))
        _flag(p, "--workers", type=int, help="Monte Carlo worker threads "
              "(results identical for any count)")
        p.add_argument("--config",
                       help="key=value config file; flags take precedence")
        _flag(p, "--out", dest="output_path", metavar="OUT",
              help="output CSV path")
        group = p.add_mutually_exclusive_group()
        _flag(p, "--alpha", group, dest="alpha_grid", type=float,
              action="append", metavar="ALPHA",
              help="explicit alpha (repeatable)")
        _flag(p, "--alpha-range", group, dest="alpha_grid", type=parse_range,
              metavar="LO:HI:STEP")
        group = p.add_mutually_exclusive_group()
        _flag(p, "--snr-db", group, dest="snr_db_grid", type=float,
              action="append", metavar="SNR_DB",
              help="explicit SNR in dB (repeatable)")
        _flag(p, "--snr-db-range", group, dest="snr_db_grid",
              type=parse_range, metavar="LO:HI:STEP")
        if command == "alpha-sweep":
            _flag(p, "--bound-variant", help=" or ".join(BOUND_VARIANTS))
        if command == "corr-sweep":
            _flag(p, "--corr", dest="corr_r_grid", type=float,
                  action="append", metavar="CORR",
                  help="exponential-model r value (repeatable)")
        if command == "snr-sweep":
            _flag(p, "--no-baseline", dest="include_baseline",
                  action="store_false", default=None,
                  help="omit the MIMO baseline series")
    return parser


def _merge(args: argparse.Namespace) -> dict:
    """File values first, then any flag that was actually given.

    A key that is no option of the subcommand, two keys that fill one dest
    (alpha and alpha_range, say) or a value its key cannot parse raises
    ValueError naming the file and the key, as a bad flag would fail.
    """
    merged: dict = {}
    if args.config:
        source: dict = {}
        for key, raw in load_config_file(args.config).items():
            if key not in args.config_keys:
                raise ValueError(f"{args.config}: config key {_shown(key)} "
                                 f"is not an option of {args.command}")
            dest, parse = args.config_keys[key]
            if dest in source:
                raise ValueError(f"{args.config}: config keys "
                                 f"{source[dest]!r} and {key!r} conflict")
            source[dest] = key
            try:
                merged[dest] = parse(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{args.config}: {key}: {exc}") from None
    for dest, _ in args.config_keys.values():
        flag = getattr(args, dest)
        if flag is not None:
            merged[dest] = flag
    return merged


def _probe(path: str) -> None:
    """Raise ValueError, with the system's reason, unless path can be opened
    for writing; a file the check creates is removed again."""
    created = not os.path.exists(path)
    try:  # a name the sweep could not open fails before any draw
        open(path, "a").close()
    except OSError as exc:
        raise ValueError(f"cannot write output path "
                         f"{path!r}: {exc.strerror}") from None
    if created:  # the file, not a dangling link to it
        os.remove(os.path.realpath(path))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    point = args.experiment == "single_point"
    try:
        merged = _merge(args)
        workers = merged.pop("workers", 1)
        require_positive_int(workers=workers)
        path = merged.pop("output_path", None)
        if not point and not path:
            path = os.path.join(os.environ.get(OUTDIR_ENV, ""),
                                args.command + ".csv")
        if path:
            _probe(path)
        cfg = ExperimentConfig(experiment=args.experiment, **merged)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    result = _RUNNERS[args.experiment](cfg, workers=workers)
    wall_clock_s = time.perf_counter() - start
    text = format_report(result) if point else result.csv_text
    if point:
        print(text, end="")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    # wall-clock goes to stderr only, so output files stay reproducible
    print(f"wall_clock_s = {wall_clock_s:.3f}", file=sys.stderr)
    if not point:
        print(f"wrote {path} ({result.manifest.row_count} rows)")
    elif not result["feasible"]:
        print("infeasible: broadcast power bound unmet", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
