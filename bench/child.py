"""Run one coopbeam command line in a fresh interpreter and record its cost.

    python3 child.py MODE RECORD -- ARGV...

MODE is ``setup`` (stop as soon as the sweep runner is called), ``sweep``
(the whole command, untraced) or ``trace`` (the whole command with spans
around every layer call).  One JSON object is written to RECORD:

* ``ready``: time.monotonic() when the runner was called, i.e. after
  ``import coopbeam`` and argv/config parsing and validation;
* ``wall_s``: perf_counter time from ``cli.main`` entry to its return;
* ``maxrss_kb``: the process's peak resident set size;
* ``spans``: the trace, in ``trace`` mode.
"""

import json
import resource
import sys
import time


class _Ready(Exception):
    """Raised at the runner call in setup mode."""


def main() -> int:
    mode, record_path, sep, *argv = sys.argv[1:]
    if mode not in ("setup", "sweep", "trace") or sep != "--":
        raise SystemExit(f"usage: {sys.argv[0]} setup|sweep|trace RECORD "
                         "-- ARGV...")
    import coopbeam.cli as cli

    ready = []

    def gate(runner):
        def run(cfg, workers=1):
            ready.append(time.monotonic())
            if mode == "setup":
                raise _Ready
            return runner(cfg, workers=workers)
        return run

    entry = cli.main
    spans = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(cli)
        entry = tracer.wrap("cli.main", cli.main)
        spans = tracer.spans
    for key, runner in cli._RUNNERS.items():
        cli._RUNNERS[key] = gate(runner)

    start = time.perf_counter()
    try:
        rc = entry(argv)
    except _Ready:
        rc = 0
    wall = time.perf_counter() - start

    record = {
        "rc": rc,
        "ready": ready[0] if ready else None,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "coopbeam": cli.__file__,
        "spans": spans,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
