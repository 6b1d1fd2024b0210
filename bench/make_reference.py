"""Record the benchmark's golden CSVs and Monte Carlo references.

    python3 bench/make_reference.py golden        # golden/<workload>.csv
    python3 bench/make_reference.py reference     # reference/<workload>.csv
    python3 bench/make_reference.py oracle-check  # exact oracle vs. Monte Carlo

Run from the root of a coopbeam checkout.  ``golden`` runs each workload's
command line at GOLDEN_SEED; its bytes are what the benchmark compares
against at that seed.  ``reference`` runs the workloads without a closed
form at REFERENCE_FACTOR times their trials with REFERENCE_SEED, which no
workload seed can reach, and records each command line in
reference/SOURCES.json.  ``oracle-check`` compares the corr-vec-exact
oracle with a 2e5-trial vector-mode corr-sweep and prints each z-score.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

from check import exact_outage, parse_csv
from workloads import (GOLDEN_SEED, REFERENCE_DIR, REFERENCE_FACTOR,
                       REFERENCE_SEED, WORKLOADS, child_env)


def coopbeam(argv) -> None:
    subprocess.run([sys.executable, "-m", "coopbeam.cli", *argv], check=True,
                   env=child_env(os.getcwd()), stdout=subprocess.DEVNULL)


def golden() -> None:
    for w in WORKLOADS.values():
        coopbeam(w.argv(GOLDEN_SEED, w.golden))
        print(f"wrote {w.golden}")


def reference() -> None:
    sources = {}
    for w in WORKLOADS.values():
        if not w.reference:
            continue
        argv = w.argv(REFERENCE_SEED, w.reference,
                      trials=w.trials * REFERENCE_FACTOR, workers=2)
        coopbeam(argv)
        sources[w.name] = {
            "argv": ["coopbeam", *argv[:-1],
                     f"bench/reference/{os.path.basename(w.reference)}"],
            "produced_by": "python3 bench/make_reference.py reference",
        }
        print(f"wrote {w.reference}")
    with open(os.path.join(REFERENCE_DIR, "SOURCES.json"), "w") as fh:
        json.dump(sources, fh, indent=2)
        fh.write("\n")


def oracle_check() -> None:
    out = os.path.join(os.getcwd(), ".bench_out", "oracle-check.csv")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    trials = 200_000
    coopbeam(["corr-sweep", "--gain-mode", "vector", "--trials", str(trials),
              "--seed", "7", "--workers", "2", "--out", out,
              *[f"--corr={r}" for r in (0, 0.05, 0.25, 0.5, 0.75, 0.9)],
              *[f"--snr-db={s}" for s in (2, 6, 12)]])
    with open(out) as fh:
        manifest, _, rows = parse_csv(fh.read())
    worst = 0.0
    for row in rows:
        exact = exact_outage(manifest, row)
        z = (float(row["p_out"]) - exact) / math.sqrt(
            exact * (1.0 - exact) / trials)
        worst = max(worst, abs(z))
        print(f"r={row['corr_r']:>5} snr={row['snr_db']:>3} dB "
              f"mc={row['p_out']:<10} exact={exact:.6f} z={z:+.2f}")
    print(f"max |z| = {worst:.2f} over {len(rows)} points")


COMMANDS = {"golden": golden, "reference": reference,
            "oracle-check": oracle_check}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in COMMANDS:
        raise SystemExit(f"usage: {sys.argv[0]} {'|'.join(COMMANDS)}")
    COMMANDS[sys.argv[1]]()
