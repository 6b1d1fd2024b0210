"""coopbeam benchmark: time one workload's sweep end to end, or trace it.

    python3 bench/run.py --workload alpha-frob --seed 3 --seconds 30 --trace 0

Run from the root of a coopbeam checkout; the sweeps import the checkout's
``src/coopbeam``.  Every sweep is ``coopbeam.cli.main(argv)`` in a fresh
interpreter, writing its CSV under ``.bench_out/``.  Sweeps run in pairs
that share a coopbeam seed, one new seed per pair derived from --seed, until
--seconds have passed (at least MIN_PAIRS pairs).  Each metric is the median
over the sweeps, so it averages over seeds as well as over timings, and the
two sweeps of a pair must write the same bytes.

No sweep is run as a warm-up: every timed sweep is the first in its process,
as for a command-line user.  One untimed ``import coopbeam`` per run only
compiles bytecode, so that set-up samples do not include it.

--trace 0 reports the end-to-end metrics from pairs of untraced sweeps;
--trace 1 pairs an untraced with a traced sweep and reports the per-layer
metrics of the traced ones, with the tracing overhead (traced minus untraced
wall time).  The last line of stdout is the JSON result.  See README.md for
the metrics and workloads."""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from check import SweepCheck, golden_mismatch_lines, parse_csv
from tracer import layer_metrics
from workloads import (BENCH_DIR, BLOCK_SIZE, GOLDEN_SEED, MAX_WORKLOAD_SEED,
                       WORKLOADS, child_env, sweep_seed)

SETUP_RUNS = 7  # set-up-only processes per run, besides each sweep's own
MIN_PAIRS = 3  # of sweeps, even if --seconds has passed
CHILD_TIMEOUT_S = 90


class SweepFailed(RuntimeError):
    pass


def run_child(root, env, mode, argv, record_path):
    """Run child.py; returns (record, spawn time on the monotonic clock)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode,
           record_path, "--", *argv]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SweepFailed(f"{mode} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    with open(record_path) as fh:
        record = json.load(fh)
    expected = os.path.join(env["PYTHONPATH"], "coopbeam")
    if os.path.dirname(record["coopbeam"]) != expected:
        raise SweepFailed(f"imported {record['coopbeam']}, not {expected}")
    return record, spawned


def cpu_ticks():
    """(steal, total) CPU ticks of the machine from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "bit_generator": type(np.random.default_rng().bit_generator).__name__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": "1 (OPENBLAS/OMP/MKL_NUM_THREADS)",
    }


def measure(root, workload, seed, seconds, trace):
    """Run the sweeps in pairs of one coopbeam seed each: two untraced
    sweeps, or an untraced and a traced one.  Pair j uses sweep_seed(seed, j)
    so that the medians average over seeds, not only over timings.

    Returns (set-up samples in s, [(coopbeam seed, mode, record, CSV)],
    share of CPU time the host stole from this machine meanwhile)."""
    env = child_env(root)
    outdir = os.path.join(root, ".bench_out", workload.name)
    os.makedirs(outdir, exist_ok=True)
    out = os.path.join(outdir, "sweep.csv")
    record = os.path.join(outdir, "record.json")

    argv = workload.argv(seed, out)
    run_child(root, env, "setup", argv, record)  # compiles bytecode only
    setups = []
    for _ in range(SETUP_RUNS):
        rec, spawned = run_child(root, env, "setup", argv, record)
        setups.append(rec["ready"] - spawned)

    modes = ("sweep", "trace") if trace else ("sweep", "sweep")
    sweeps = []
    ticks = cpu_ticks()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(sweeps) < 2 * MIN_PAIRS:
        pair_seed = sweep_seed(seed, len(sweeps) // 2)
        argv = workload.argv(pair_seed, out)
        for mode in modes:
            rec, spawned = run_child(root, env, mode, argv, record)
            if mode == "sweep":
                setups.append(rec["ready"] - spawned)
            with open(out) as fh:
                sweeps.append((pair_seed, mode, rec, fh.read()))
    steal = None
    if ticks and cpu_ticks():
        (steal0, total0), (steal1, total1) = ticks, cpu_ticks()
        steal = (steal1 - steal0) / max(total1 - total0, 1)
    return setups, sweeps, steal


def sweep_stats(text, trials):
    """(trials evaluated, sum of p(1-p)/se^2 over points with 0 < p < 1)."""
    _, _, rows = parse_csv(text)
    evaluated, eff = 0, 0.0
    for row in rows:
        p = float(row.get("p_out_mc") or row["p_out"])
        if math.isnan(p):
            continue
        evaluated += trials
        if 0.0 < p < 1.0:
            eff += p * (1.0 - p) / float(row["std_err"]) ** 2
    return evaluated, eff


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the sweep process it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < MAX_WORKLOAD_SEED:
        parser.error(f"--seed must lie in [0, {MAX_WORKLOAD_SEED})")
    root = os.getcwd()
    workload = WORKLOADS[args.workload]
    try:
        reference = None
        if workload.reference:
            with open(workload.reference) as fh:
                reference = fh.read()
        with open(workload.golden) as fh:
            golden = fh.read()
        setups, sweeps, steal = measure(root, workload, args.seed,
                                        args.seconds, args.trace)
    except (OSError, SweepFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checker = SweepCheck(reference)
    attempted = failed = 0
    problems = []
    for i in range(0, len(sweeps), 2):
        (pair_seed, _, _, text), (_, _, _, again) = sweeps[i:i + 2]
        points, bad, found = checker.run(text, pair_seed, workload.trials)
        attempted, failed = attempted + 2 * points, failed + 2 * bad
        problems += found
        if again != text:
            problems.append(f"two sweeps of seed {pair_seed} wrote different "
                            "bytes")
    if args.seed == GOLDEN_SEED:
        mismatch = golden_mismatch_lines(sweeps[0][3], golden)
        golden_note = f"{mismatch} count"
        if mismatch:
            problems.append(f"{mismatch} lines differ from {workload.golden}")
    else:
        golden_note = f"n/a (recorded at seed {GOLDEN_SEED} only)"
    untraced = [(rec, text) for _, mode, rec, text in sweeps
                if mode == "sweep"]
    traced = [rec for _, mode, rec, _ in sweeps if mode == "trace"]

    notes = []
    if args.trace:
        per_sweep = [layer_metrics(r["spans"], r["wall_s"], BLOCK_SIZE)
                     for r in traced]
        metrics = {name: (statistics.median(m[name][0] for m in per_sweep),
                          unit) for name, (_, unit) in per_sweep[0].items()}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r, _ in untraced))
        metrics["trace.overhead_s"] = (overhead, "s")
        gap = metrics["trace.self_gap_s"][0]
        notes.append(f"self-time check: layer self times miss {gap:.6f} s of "
                     f"the traced wall time; tracing overhead {overhead:.6f} s"
                     + ("" if abs(gap) <= abs(overhead) else " (GAP)"))
    else:
        walls, rates, effs = [], [], []
        for rec, text in untraced:
            evaluated, eff = sweep_stats(text, workload.trials)
            walls.append(rec["wall_s"])
            rates.append(evaluated / rec["wall_s"])
            effs.append(eff / rec["wall_s"])
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "trials_per_s": (statistics.median(rates), "trials/s"),
            "eff_samples_per_s": (statistics.median(effs), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024.0
                                              for r, _ in untraced), "MiB"),
        }

    print(f"workload {workload.name}, seed {args.seed}: {len(untraced)} "
          f"untraced and {len(traced)} traced sweeps over {len(sweeps) // 2} "
          f"coopbeam seeds, {len(setups)} set-up samples, no warm-up sweep")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    notes.append("untraced sweep wall_s samples: "
                 + " ".join(f"{r['wall_s']:.4f}" for r, _ in untraced))
    notes.append(f"failed_frac = {failed / attempted:.6g} ratio")
    notes.append(f"golden_mismatch_lines = {golden_note}")
    notes += [f"problem: {problem}" for problem in problems[:20]]
    print("\n".join(notes))
    print("env: " + json.dumps({**environment(), "steal_share": steal}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
