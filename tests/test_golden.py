"""Golden output bytes: the sha256 of the CSV each pinned run writes.

A refactor or a faster kernel must leave every hash unchanged.  A change
that moves one has changed the random stream or the arithmetic, and must
come as a new, named option recorded in the manifest instead.

Trials of 8192 + 500 give one full and one partial block per point; 500
alone gives a single partial block.
"""

import hashlib

import pytest

from coopbeam.cli import main
from coopbeam.harness import ExperimentConfig, run_single_point

FULL_AND_PARTIAL = "8692"

# run id -> (argv without --out, sha256 of the written CSV)
GOLDEN = {
    "alpha-frobenius": (
        ["alpha-sweep", "--alpha", "0.2", "--alpha", "0.5", "--alpha", "0.8",
         "--snr-db", "6", "--snr-db", "9", "--snr-db", "12",
         "--trials", FULL_AND_PARTIAL, "--seed", "7"],
        "0153e2c3de4ae21db7329d58f95b21f67c6f64c64f97ff61247ccb55e38b5809"),
    "alpha-frobenius-m1-partial": (
        ["alpha-sweep", "--m", "1", "--alpha", "0.05", "--alpha", "0.2",
         "--alpha", "0.5", "--snr-db", "12", "--trials", "500",
         "--seed", "3"],
        "6b9311960f73ea9de3e1c3b9f3f979d367e0801b266d46a24c160d1e0307cca2"),
    "alpha-vector": (
        ["alpha-sweep", "--gain-mode", "vector", "--m", "4",
         "--alpha", "0.2", "--alpha", "0.8", "--snr-db", "4", "--snr-db", "10",
         "--trials", FULL_AND_PARTIAL, "--seed", "7"],
        "61a086ac92734fcc772fbc832914d335bda5e9a946af0fa92e7c1f8cd34e99d9"),
    "snr-mimo": (
        ["snr-sweep", "--snr-db-range", "2:12:5",
         "--trials", FULL_AND_PARTIAL, "--seed", "7"],
        "f2ec58319349c73c3438dd0e30f1ded1741ba2cc0be56310703876e3ce758b55"),
    "snr-mimo-m1": (
        ["snr-sweep", "--m", "1", "--snr-db", "4", "--snr-db", "10",
         "--trials", FULL_AND_PARTIAL, "--seed", "13"],
        "fc4d318ca63a35101c6a53c2a89b0518ed24b27daf2be569031aeb842b511558"),
    "snr-mimo-m2": (
        ["snr-sweep", "--m", "2", "--snr-db", "0", "--snr-db", "6",
         "--trials", FULL_AND_PARTIAL, "--seed", "17"],
        "e5ad1fff9f0b7d68425622d7204c6308c53823e6991713855f5702b76a372c5b"),
    "snr-mimo-m4": (
        ["snr-sweep", "--m", "4", "--snr-db", "-2", "--snr-db", "4",
         "--trials", FULL_AND_PARTIAL, "--seed", "19"],
        "4b2d8744177a9c103572f29abf9411b1ede3de7d8b984b0c10dfffaa2fb4c0b0"),
    "snr-mimo-m4-workers2": (
        ["snr-sweep", "--m", "4", "--snr-db", "0", "--snr-db", "3",
         "--trials", FULL_AND_PARTIAL, "--seed", "23", "--workers", "2"],
        "3d01b0827193887fceb24816e8f5b035524fa216da1401e839a0f5bfdfc527a7"),
    "snr-vector-workers2": (
        ["snr-sweep", "--gain-mode", "vector", "--snr-db", "3",
         "--snr-db", "9", "--trials", FULL_AND_PARTIAL, "--seed", "11",
         "--workers", "2"],
        "76d347fd248cba81ed63421089703917f10a385d6250e936932d1d4eb1cf8ce9"),
    # one thread alternates the vector and 4x4 MIMO kernels, which share
    # their "channel" buffer at different sizes
    "snr-vector-m4-workers1": (
        ["snr-sweep", "--gain-mode", "vector", "--m", "4", "--snr-db", "3",
         "--snr-db", "9", "--trials", FULL_AND_PARTIAL, "--seed", "29",
         "--workers", "1"],
        "a0b21dcb527a30d377a363c22ba33736cda77f54208fdc7656382b9dcf051e5c"),
    "corr-frobenius": (
        ["corr-sweep", "--snr-db", "4", "--snr-db", "8", "--corr", "0",
         "--corr", "0.5", "--corr", "0.9",
         "--trials", FULL_AND_PARTIAL, "--seed", "7"],
        "ef000520de90cbb8851f6b9ea89eef3521c8b98828f196710714cf524046b3b9"),
    "corr-frobenius-m4": (
        ["corr-sweep", "--m", "4", "--alpha", "0.5", "--snr-db", "8",
         "--corr", "0.3", "--trials", FULL_AND_PARTIAL, "--seed", "5"],
        "beb00fb05d5177592af0dd7fc2b3e873609ee66d17212c165ccb5c5c1a02b3d8"),
    "corr-vector": (
        ["corr-sweep", "--gain-mode", "vector", "--snr-db", "0",
         "--snr-db", "6", "--corr", "0.25", "--corr", "0.75",
         "--trials", FULL_AND_PARTIAL, "--seed", "7"],
        "1c8dd1d09c9723974637c5887f926decd65a4f9102a51892b0b0444dba132167"),
    # alphas 0.05 and 0.1 miss the broadcast bound at this rate and noise
    "alpha-infeasible-rbr": (
        ["alpha-sweep", "--alpha", "0.05", "--alpha", "0.1", "--alpha", "0.3",
         "--snr-db", "6", "--snr-db", "9", "--rbr", "2.5",
         "--sigma-nbr2", "0.7", "--trials", FULL_AND_PARTIAL, "--seed", "7"],
        "c8f0232e965de7016044106f308c6527881e1fa516d2a967a569260579e81d67"),
    # alpha 0.02 funds no node: its k = 0 rows print nan
    "alpha-zero-node": (
        ["alpha-sweep", "--alpha", "0.02", "--alpha", "0.3",
         "--snr-db", "6", "--snr-db", "9", "--trials", FULL_AND_PARTIAL],
        "44e45f2bee5bc25894b0f6a30c5e1c170961aa6e01fc115df42d78ec2af9b68a"),
    # a nan series runs in the loop of the MIMO series; its crossovers
    # read none
    "snr-zero-node": (
        ["snr-sweep", "--alpha", "0.02", "--alpha", "0.3",
         "--snr-db", "4", "--snr-db", "8", "--trials", FULL_AND_PARTIAL],
        "f8036bbbd33bb46da5a91e62e3c47ed7e6939788034348e09187f2c280fd791d"),
}


# point reports: run id -> (argv without --out, exit status, sha256 of the
# written report)
GOLDEN_POINT = {
    "point": (
        ["point", "--alpha", "0.4", "--snr-db", "4",
         "--trials", FULL_AND_PARTIAL, "--seed", "7"], 0,
        "237773c67eac6079ce1b9da50d7597dd0618e03dd2965289f29e72166fad0c72"),
    "point-infeasible": (
        ["point", "--alpha", "0.4", "--snr-db", "4", "--sigma-nbr2", "2",
         "--trials", FULL_AND_PARTIAL, "--seed", "7"], 1,
        "ff29130b1cdf7a0c7c631ce91e92d02472a4cc4430bcd97f2cd7c79375decaf3"),
    "point-rbr": (
        ["point", "--alpha", "0.4", "--snr-db", "4", "--rbr", "1.5",
         "--sigma-nbr2", "0.8", "--trials", FULL_AND_PARTIAL, "--seed", "7"],
        0,
        "a18dab131c778ac113190e788de21f64739f0abc4f275b2a933470cf2ef8b1e7"),
    # zero nodes: no threshold or estimate lines
    "point-zero-node": (
        ["point", "--alpha", "0.02", "--snr-db", "4",
         "--trials", FULL_AND_PARTIAL], 1,
        "d11fb371ff3bcdd4e2617c542165d8df30a5086c3d0c02778a9aee7fe3adaccd"),
}


def csv_sha256(argv, out) -> str:
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_golden_csv_sha256(run, tmp_path, capsys):
    argv, expected = GOLDEN[run]
    assert csv_sha256(argv, tmp_path / f"{run}.csv") == expected


@pytest.mark.parametrize("run", sorted(GOLDEN_POINT))
def test_golden_point_sha256(run, tmp_path, capsys):
    argv, status, expected = GOLDEN_POINT[run]
    out = tmp_path / f"{run}.txt"
    assert main([*argv, "--out", str(out)]) == status
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_library_point_writes_the_pinned_report(tmp_path):
    out = tmp_path / "point.txt"
    run_single_point(ExperimentConfig(
        experiment="single_point", alpha_grid=[0.4], snr_db_grid=[4.0],
        trials=int(FULL_AND_PARTIAL), seed=7, output_path=str(out)))
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == GOLDEN_POINT["point"][2])
