import argparse
import ast
import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from coopbeam import cli, harness
from coopbeam.cli import load_config_file, main, parse_range

SRC = Path(__file__).resolve().parent.parent / "src"


def test_parse_range_inclusive():
    assert parse_range("0.2:0.4:0.05") == [0.2, 0.25, 0.3, 0.35, 0.4]
    assert parse_range("2:12:1") == [float(s) for s in range(2, 13)]
    assert parse_range("4:4:1") == [4.0]


def test_parse_range_rejects_garbage():
    import argparse
    for bad in ("1:2", "2:1:0.5", "a:b:c", "1:5:0"):
        with pytest.raises((argparse.ArgumentTypeError, ValueError)):
            parse_range(bad)
    with pytest.raises(argparse.ArgumentTypeError,
                       match="expected lo:hi:step, got '1:2'"):
        parse_range("1:2")


# Ranges that an endless loop would not finish are run only in a
# subprocess, below.
@pytest.mark.parametrize("text", ["nan:1:0.1", "0:1:nan"])
def test_parse_range_rejects_non_finite(text):
    with pytest.raises(argparse.ArgumentTypeError, match="must be finite"):
        parse_range(text)


def test_parse_range_caps_its_length():
    cap = cli.MAX_RANGE_VALUES
    assert len(parse_range(f"1:{cap}:1")) == cap
    with pytest.raises(argparse.ArgumentTypeError, match="more than"):
        parse_range(f"0:{cap}:1")


def _one_gib_address_space():
    # a regression that grows an unbounded list fails here, not the host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("spec", ["0:inf:1", "0:1:inf", "1e17:2e17:1",
                                  "-1e308:1e308:1e-300"])
def test_cli_rejects_endless_range_without_hanging(spec, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "coopbeam.cli", "snr-sweep",
         f"--snr-db-range={spec}", "--out", str(tmp_path / "snr.csv")],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=_one_gib_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "--snr-db-range" in proc.stderr
    assert not (tmp_path / "snr.csv").exists()


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "trials = 5000\n"
        "alpha = 0.3,0.4   # inline comment\n"
        "\n"
        "seed=7\n"
    )
    values = load_config_file(str(path))
    assert values == {"trials": "5000", "alpha": "0.3,0.4", "seed": "7"}


def test_config_file_with_a_byte_order_mark_runs_as_the_plain_file(
        tmp_path, capsys):
    text = "trials = 500\nseed = 7\nalpha = 0.4\nsnr_db = 4\n"
    reports = []
    for name, encoding in (("plain.cfg", "utf-8"), ("bom.cfg", "utf-8-sig")):
        (tmp_path / name).write_text(text, encoding=encoding)
        assert load_config_file(str(tmp_path / name))["trials"] == "500"
        assert main(["point", "--config", str(tmp_path / name)]) == 0
        reports.append(capsys.readouterr().out)
    assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
    assert reports[0] == reports[1]
    assert "# trials = 500" in reports[0]


def test_load_config_file_rejects_bad_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("trials 5000\n")
    with pytest.raises(ValueError):
        load_config_file(str(path))


def test_point_command_success(tmp_path, capsys):
    rc = main(["point", "--alpha", "0.4", "--snr-db", "4",
               "--trials", "2000", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "k = 6" in out
    assert "feasible = True" in out
    assert "p_out_analytical_printed" in out
    assert "p_out_analytical_complex_convention" in out


def test_point_command_infeasible_exit_code(capsys):
    # broadcast noise doubled: bound 30 > p1 = 18 at alpha = 0.3
    rc = main(["point", "--alpha", "0.3", "--snr-db", "6",
               "--sigma-nbr2", "2.0", "--trials", "1000"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "feasible = False" in captured.out
    assert captured.err.endswith(
        "\ninfeasible: broadcast power bound unmet\n")


def test_point_requires_alpha_and_snr(capsys):
    assert main(["point", "--snr-db", "4", "--trials", "100"]) == 2
    assert main(["point", "--alpha", "0.4", "--trials", "100"]) == 2


def test_point_without_alpha_exits_before_any_draw(tmp_path, capsys,
                                                   no_draws):
    out = tmp_path / "never.txt"
    assert main(["point", "--snr-db", "4", "--out", str(out)]) == 2
    assert "single_point needs exactly one alpha" in capsys.readouterr().err
    assert not out.exists()


def test_every_experiment_has_a_runner():
    # bench/tracer.py and bench/child.py see a command through this table
    assert set(cli._RUNNERS) == set(harness.EXPERIMENTS)


def test_invalid_config_exit_code(capsys):
    rc = main(["alpha-sweep", "--alpha", "1.4", "--trials", "100"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--snr-db", "nan"], ["--seed", "-1"]])
def test_bad_snr_or_seed_exits_at_config_time(flags, tmp_path, capsys):
    out = tmp_path / "never.csv"
    rc = main(["alpha-sweep", *flags, "--trials", "100", "--out", str(out)])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["snr-sweep", "alpha-sweep", "corr-sweep"])
def test_overflowing_rate_exits_at_config_time(command, tmp_path, capsys):
    out = tmp_path / "never.csv"
    rc = main([command, "--rtr", "1100", "--trials", "100", "--out", str(out)])
    assert rc == 2
    assert "r_tr 1100.0 is too large" in capsys.readouterr().err
    assert not out.exists()


def test_alpha_sweep_writes_default_name_in_outdir(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setenv("COOPBEAM_OUTDIR", str(tmp_path))
    rc = main(["alpha-sweep", "--alpha", "0.3", "--snr-db", "6",
               "--trials", "1000", "--seed", "1"])
    assert rc == 0
    out_file = tmp_path / "alpha-sweep.csv"
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out_file} (1 rows)\n"
    assert re.fullmatch(r"wall_clock_s = \d+\.\d{3}\n", captured.err)
    assert out_file.exists()
    text = out_file.read_text()
    assert text.startswith("# coopbeam")
    assert "snr_db,alpha,k,feasible" in text


def test_out_flag_overrides_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COOPBEAM_OUTDIR", str(tmp_path / "unused"))
    target = tmp_path / "explicit.csv"
    rc = main(["corr-sweep", "--snr-db", "6", "--corr", "0",
               "--corr", "0.5", "--trials", "1000", "--out", str(target)])
    assert rc == 0
    assert target.exists()


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 1000\nseed = 5\nalpha = 0.3\nsnr_db = 6\n")
    out = tmp_path / "a.csv"
    rc = main(["alpha-sweep", "--config", str(cfg), "--seed", "9",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "# master_seed = 9" in text      # flag beats file
    assert "# trials = 1000" in text        # file value used
    assert "# alpha_grid = 0.3" in text


@pytest.mark.parametrize("command, line, flags, echo", [
    ("snr-sweep", "snr_db = 4,6", ["--snr-db-range", "8:10:1"],
     "# snr_db_grid = 8,9,10"),
    ("alpha-sweep", "alpha = 0.3", ["--alpha-range", "0.4:0.5:0.1"],
     "# alpha_grid = 0.4,0.5"),
    ("alpha-sweep", "alpha_range = 0.3:0.4:0.1", ["--alpha", "0.5"],
     "# alpha_grid = 0.5"),
    ("corr-sweep", "corr = 0,0.5", ["--corr", "0.25"],
     "# corr_r_grid = 0.25"),
], ids=["snr-db-range", "alpha-range", "alpha-over-alpha_range", "corr"])
def test_range_flag_beats_file_grid(command, line, flags, echo, tmp_path,
                                    capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"trials = 500\n{line}\n")
    out = tmp_path / "a.csv"
    rc = main([command, "--config", str(cfg), *flags, "--out", str(out)])
    assert rc == 0
    assert echo in out.read_text().splitlines()


@pytest.mark.parametrize("file, flags", [
    ("", ["--workers", "0"]),
    ("", ["--workers", "-3"]),
    ("workers = 0\n", []),
    ("", ["--alpha", "0.3", "--alpha", "0.3"]),
    ("", ["--snr-db", "4", "--snr-db", "4.00000000001"]),
], ids=["workers-0", "workers-negative", "workers-0-in-file",
        "repeated-alpha", "repeated-snr-as-written"])
def test_bad_workers_or_repeated_grid_exits_before_running(file, flags,
                                                           tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(file)
    out = tmp_path / "never.csv"
    rc = main(["snr-sweep", "--config", str(cfg), *flags, "--trials", "100",
               "--out", str(out)])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_snr_sweep_no_baseline_flag(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["snr-sweep", "--snr-db", "5", "--trials", "1000",
               "--no-baseline", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "mimo3x3" not in text


@pytest.mark.parametrize("value, include", [("yes", 0), ("0", 1)])
def test_no_baseline_config_key(value, include, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"no_baseline = {value}\n")
    out = tmp_path / "s.csv"
    rc = main(["snr-sweep", "--config", str(cfg), "--snr-db", "5",
               "--trials", "500", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert f"# include_baseline = {include}" in text
    assert ("mimo3x3" in text) == bool(include)


def test_workers_flag_output_identical(tmp_path, capsys):
    texts = []
    for workers, name in ((1, "w1.csv"), (8, "w8.csv")):
        out = tmp_path / name
        rc = main(["snr-sweep", "--snr-db-range", "4:6:1",
                   "--trials", "20000", "--seed", "11",
                   "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


# ExperimentConfig sorts every grid, so the order of the flags reaches
# neither the rows nor the manifest
@pytest.mark.parametrize("command, grids", [
    ("alpha-sweep", {"--snr-db": ["4", "6", "9"], "--alpha": ["0.3", "0.5"]}),
    ("snr-sweep", {"--snr-db": ["4", "6", "9"], "--alpha": ["0.3", "0.4"]}),
    ("corr-sweep", {"--snr-db": ["4", "6"], "--corr": ["0", "0.5", "0.9"]}),
])
def test_grid_order_does_not_change_output(command, grids, tmp_path, capsys):
    texts = []
    for step in (1, -1):
        out = tmp_path / f"{step}.csv"
        argv = [command, "--trials", "1000", "--seed", "3", "--out", str(out)]
        for flag, values in grids.items():
            for value in values[::step]:
                argv += [flag, value]
        assert main(argv) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fidelity = 11\n")
    rc = main(["alpha-sweep", "--config", str(cfg)])
    assert rc == 2


def test_load_config_file_rejects_repeated_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.3\nalpha_range = 0.5:0.6:0.1\nalpha = 0.7\n")
    with pytest.raises(ValueError, match=f"{path}:3: repeated key 'alpha'"):
        load_config_file(str(path))


@pytest.mark.parametrize("text, match", [
    ("alpha = 0.3\nalpha_range = 0.5:0.6:0.1\nalpha = 0.7\n",
     r":3: repeated key 'alpha'"),
    ("alpha = 0.3\nalpha_range = 0.5:0.6:0.1\n",
     "'alpha' and 'alpha_range' conflict"),
    ("snr_db_range = 2:4:1\nsnr_db = 6\n",
     "'snr_db_range' and 'snr_db' conflict"),
], ids=["repeated-key", "alpha-and-range", "snr-and-range"])
def test_conflicting_config_keys_exit_before_running(text, match, tmp_path,
                                                     capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "never.csv"
    rc = main(["alpha-sweep", "--config", str(cfg), "--snr-db", "6",
               "--trials", "100", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(cfg) in err
    assert re.search(match, err)
    assert not out.exists()


@pytest.mark.parametrize("argv, outdir, message", [
    (["alpha-sweep", "--out", "{missing}/a.csv"], "missing",
     "No such file or directory"),
    (["point", "--alpha", "0.4", "--snr-db", "4", "--out", "{missing}/p.txt"],
     "missing", "No such file or directory"),
    (["corr-sweep"], "missing", "No such file or directory"),
    (["snr-sweep", "--out", "{tmp}"], "missing", "Is a directory"),
    (["snr-sweep", "--snr-db", "4", "--trials", "2000",
      "--out", "{tmp}/" + "x" * 300 + ".csv"], "missing",
     "cannot write output path"),
    (["alpha-sweep", "--out", "{tmp}/afile/x.csv"], "missing",
     "Not a directory"),
    (["snr-sweep"], "afile", "Not a directory"),
], ids=["sweep-out", "point-out", "outdir-default", "out-is-directory",
        "out-name-too-long", "out-parent-is-file", "outdir-is-file"])
def test_bad_output_path_exits_before_any_draw(argv, outdir, message,
                                               tmp_path, monkeypatch, capsys,
                                               no_draws):
    afile = tmp_path / "afile"
    afile.write_bytes(b"not a directory\n")
    missing = tmp_path / "missing"
    monkeypatch.setenv("COOPBEAM_OUTDIR", str(tmp_path / outdir))
    rc = main([arg.format(missing=missing, tmp=tmp_path) for arg in argv])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert afile.read_bytes() == b"not a directory\n"


def test_output_path_is_probed_before_the_config_and_left_as_found(
        tmp_path, monkeypatch, capsys, no_draws):
    # a repeated alpha refuses the run after the probe has passed the path
    monkeypatch.chdir(tmp_path)

    def refused(path):
        assert main(["alpha-sweep", "--alpha", "0.3", "--alpha", "0.3",
                     "--out", path]) == 2
        err = capsys.readouterr().err
        assert "repeats a value" in err and "output path" not in err

    def rejected(path, message):
        assert main(["alpha-sweep", "--out", path]) == 2
        assert re.search(message, capsys.readouterr().err)

    rejected(str(tmp_path / "missing" / "a.csv"), "No such file or directory")
    rejected(str(tmp_path), "Is a directory")
    rejected(str(tmp_path / ("x" * 300 + ".csv")),
             "cannot write output path .*x{300}")
    for path in (str(tmp_path / "a.csv"), "a.csv"):
        refused(path)
    assert not any(tmp_path.iterdir())  # the check leaves no file behind
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "target.csv")
    refused(str(link))
    assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]
    assert not link.exists()  # still dangling
    link.unlink()
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"old bytes\n")
    refused(str(kept))
    assert kept.read_bytes() == b"old bytes\n"
    rejected(str(kept / "x.csv"), "Not a directory")  # parent a file
    assert kept.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]


def test_corr_sweep_with_two_alphas_exits_before_any_draw(tmp_path, capsys,
                                                          no_draws):
    out = tmp_path / "never.csv"
    rc = main(["corr-sweep", "--alpha", "0.3", "--alpha", "0.5",
               "--out", str(out)])
    assert rc == 2
    assert "corr_sweep needs exactly one alpha" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, include", [
    ("YES", 0), ("True", 0), ("1", 0), ("No", 1), ("false", 1),
])
def test_no_baseline_config_key_in_any_case(value, include, tmp_path,
                                            capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"no_baseline = {value}\n")
    out = tmp_path / "s.csv"
    rc = main(["snr-sweep", "--config", str(cfg), "--snr-db", "5",
               "--trials", "500", "--out", str(out)])
    assert rc == 0
    assert f"# include_baseline = {include}" in out.read_text()


@pytest.mark.parametrize("text, key", [
    ("no_baseline = banana\n", "no_baseline"),
    ("no_baseline =\n", "no_baseline"),
    ("alpha_range = 0.5:0.2:0.1\n", "alpha_range"),
    ("trials = many\n", "trials"),
], ids=["banana", "empty", "bad-range", "bad-int"])
def test_unparsable_config_value_exits_naming_file_and_key(text, key,
                                                           tmp_path, capsys,
                                                           no_draws):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "never.csv"
    rc = main(["snr-sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert f"{cfg}: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_broadcast_rate_exits_before_any_draw(tmp_path, capsys,
                                                          no_draws):
    out = tmp_path / "never.txt"
    rc = main(["point", "--alpha", "0.3", "--snr-db", "6", "--rbr", "2000",
               "--out", str(out)])
    assert rc == 2
    assert "r_br 2000" in capsys.readouterr().err
    assert not out.exists()


# P_s = 1e-300 / 1e300 underflows to 0, which cluster_size rejects
@pytest.mark.parametrize("command", ["point", "alpha-sweep"])
def test_underflowing_broadcast_power_exits_before_any_draw(command, tmp_path,
                                                            capsys, no_draws):
    out = tmp_path / "never.txt"
    rc = main([command, "--p-total", "1e-300", "--ratio-ptotal-ps", "1e300",
               "--alpha", "0.3", "--snr-db", "4", "--trials", "10",
               "--out", str(out)])
    assert rc == 2
    assert "p_s must be positive, got 0.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["point", "--alpha", "0.3", "--snr-db=4000"], "snr_db 4000.0 is not"),
    (["point", "--alpha", "0.3", "--snr-db=-4000"], "snr_db -4000.0 is not"),
    (["alpha-sweep", "--snr-db", "4", "--snr-db", "4000"],
     "snr_db 4000.0 is not"),
    (["snr-sweep", "--snr-db=-3200"], "snr_db -3200.0 is not"),
    (["alpha-sweep", "--rtr", "1020", "--snr-db=-20"], "threshold"),
    (["point", "--alpha", "0.3", "--rtr", "1020", "--snr-db=-20"],
     "threshold"),
], ids=["point-snr-4000", "point-snr-minus-4000", "sweep-snr-4000",
        "snr-sweep-minus-3200", "sweep-tau", "point-tau"])
def test_overflowing_noise_or_threshold_exits_before_any_draw(
        argv, message, tmp_path, capsys, no_draws):
    out = tmp_path / "never.txt"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "not finite" in err
    assert not out.exists()


# p_s = p_total / ratio is the subnormal 5e-324 in the first run, so its
# cluster size overflows; the second's 5,000,000 nodes would need a 305 GiB
# block buffer; the last three fund K = 1 from a p1 that rounds to 0.0
# (p2 = 1 - 1e-17 is 1.0), which used to fail mid-run in broadcast_feasible
_ZERO_P1 = ["--alpha", "1e-17", "--ratio-ptotal-ps", "1e17", "--p-total", "1",
            "--snr-db", "4"]


@pytest.mark.parametrize("argv, message", [
    (["point", "--alpha", "0.99", "--snr-db", "4", "--p-total", "1e-15",
      "--ratio-ptotal-ps", "1.7e308", "--trials", "10"], "is not finite"),
    (["point", "--alpha", "0.5", "--snr-db", "4",
      "--ratio-ptotal-ps", "1e7"], "over the limit"),
    (["point", *_ZERO_P1], "p1 must be positive, got 0.0"),
    (["alpha-sweep", *_ZERO_P1], "p1 must be positive, got 0.0"),
    (["snr-sweep", "--no-baseline", *_ZERO_P1],
     "p1 must be positive, got 0.0"),
], ids=["overflowing-k", "huge-k", "zero-p1-point", "zero-p1-alpha-sweep",
        "zero-p1-snr-sweep"])
def test_cluster_size_is_checked_before_any_draw(argv, message, tmp_path,
                                                 capsys, no_draws):
    out = tmp_path / "never.txt"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


# ints whose digits would swamp a message; K has 300 digits at a ratio of
# 1e300
_HUGE = str(10**400)


@pytest.mark.parametrize("argv, field", [
    (["alpha-sweep", "--ratio-ptotal-ps", "1e300"], "k"),
    (["alpha-sweep", "--m", _HUGE], "m"),
    (["corr-sweep", "--m", _HUGE], "m"),
    (["alpha-sweep", "--m", f"-{_HUGE}"], "m"),
    (["alpha-sweep", "--seed", f"-{_HUGE}"], "seed"),
], ids=["huge-k", "huge-m", "corr-sweep-huge-m", "negative-huge-m",
        "negative-huge-seed"])
def test_a_huge_int_exits_with_one_short_line_naming_the_field(
        argv, field, tmp_path, capsys, no_draws):
    out = tmp_path / "never.txt"
    assert main([*argv, "--out", str(out)]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and len(line) <= 200
    assert re.search(rf"\b{field}\b", line)
    assert not out.exists()


# values that argparse, int() or float() would repeat in full: 5000 digits
# are past int()'s 4300-digit limit, and float() takes them as inf
_DIGITS = "9" * 5000


@pytest.mark.parametrize("argv, flag", [
    (["alpha-sweep", "--m", _DIGITS], "--m"),
    (["alpha-sweep", "--seed", f"-{_DIGITS}"], "--seed"),
    (["alpha-sweep", "--alpha", "x" * 5000], "--alpha"),
    (["alpha-sweep", "--alpha-range", f"1:{_DIGITS}"], "--alpha-range"),
    (["snr-sweep", "--snr-db-range", f"1:{_DIGITS}:1"], "--snr-db-range"),
], ids=["huge-m", "negative-huge-seed", "long-alpha", "two-part-range",
        "infinite-range"])
def test_a_huge_argument_exits_with_one_short_line_naming_the_flag(
        argv, flag, tmp_path, capsys, monkeypatch, no_draws):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to fit
    out = tmp_path / "never.txt"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    line, = [ln for ln in err if "error:" in ln]  # under argparse's usage
    assert f"error: argument {flag}: " in line
    assert max(map(len, err)) <= 200
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("m", _DIGITS),
                                        ("alpha", "0.3," + "x" * 5000)],
                         ids=["huge-m", "long-alpha"])
def test_a_huge_config_value_exits_with_one_short_line_naming_the_key(
        key, value, tmp_path, capsys, no_draws):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "never.txt"
    assert main(["alpha-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {cfg}: {key}: ") and len(line) <= 200
    assert not out.exists()


@pytest.mark.parametrize("text", ["k" * 5000 + " = 1\n",
                                  ("k" * 5000 + " = 1\n") * 2],
                         ids=["unknown-key", "repeated-key"])
def test_a_long_config_key_exits_with_one_short_line(text, tmp_path, capsys,
                                                     no_draws):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "never.txt"
    assert main(["alpha-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {cfg}") and len(line) <= 200
    assert "key a str of 5,002 characters" in line
    assert not out.exists()


# --gain-mode and --bound-variant take any text, as their config keys do, so
# OutageConfig and ExperimentConfig are the one check of each and show a bad
# value through _shown; argparse's "invalid choice" line repeated all of it
@pytest.mark.parametrize("command, key, value, error", [
    ("snr-sweep", "gain_mode", "x" * 5000,
     "unknown gain mode a str of 5,002 characters"),
    ("snr-sweep", "gain_mode", "bogus", "unknown gain mode 'bogus'"),
    ("alpha-sweep", "bound_variant", "x" * 5000,
     "unknown bound variant a str of 5,002 characters"),
    ("alpha-sweep", "bound_variant", "bogus", "unknown bound variant 'bogus'"),
], ids=["long-gain-mode", "gain-mode", "long-bound-variant", "bound-variant"])
@pytest.mark.parametrize("by", ["flag", "config-key"])
def test_a_bad_choice_exits_with_one_short_line(by, command, key, value,
                                                error, tmp_path, capsys,
                                                no_draws):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    given = {"flag": ["--" + key.replace("_", "-"), value],
             "config-key": ["--config", str(cfg)]}[by]
    out = tmp_path / "never.txt"
    assert main([command, *given, "--out", str(out)]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert line == f"error: {error}" and len(line) <= 200
    assert not out.exists()


# argparse takes "-2" or "-2.5" as a value but any other word that starts
# with "-" as an option, so a negative range joins its flag with "=";
# -2:16:1 is bench/corr-vec-exact.conf's grid
def test_a_negative_range_joined_by_equals_runs_as_the_config_file(
        tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr_db_range = -2:16:1\n")
    run = ["corr-sweep", "--gain-mode", "vector", "--corr", "0.5",
           "--trials", "50"]
    by_file, by_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    assert main([*run, "--config", str(cfg), "--out", str(by_file)]) == 0
    assert main([*run, "--snr-db-range=-2:16:1", "--out", str(by_flag)]) == 0
    assert by_flag.read_bytes() == by_file.read_bytes()
    assert "# snr_db_grid = -2,-1,0,1," in by_flag.read_text()
    with pytest.raises(SystemExit) as info:
        main([*run, "--snr-db-range", "-2:16:1"])
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# tau is about 5.1e307 and 6.2e307: finite, with the chi-square bound at 1;
# the sweep used to exit 2 and the point to die in regularized_lower_gamma
@pytest.mark.parametrize("argv, code, line", [
    (["alpha-sweep", "--rtr", "1020", "--snr-db=-5", "--alpha", "0.3"], 0,
     "-5,0.3,5,1,1,0,1"),
    (["point", "--p-total", "2", "--alpha", "0.3", "--rtr", "1020.3",
      "--snr-db=-5"], 1, "p_out_analytical_printed = 1"),
], ids=["sweep", "infeasible-point"])
def test_threshold_near_the_float_maximum_runs(argv, code, line, tmp_path,
                                               capsys):
    out = tmp_path / "out.txt"
    assert main([*argv, "--trials", "100", "--out", str(out)]) == code
    assert "error" not in capsys.readouterr().err
    assert line in out.read_text().splitlines()


@pytest.mark.parametrize("command, line, key", [
    ("alpha-sweep", "corr = 0.5", "corr"),
    ("point", "no_baseline = yes", "no_baseline"),
    ("alpha-sweep", "fidelity = 11", "fidelity"),
])
def test_config_key_of_another_subcommand_exits_before_any_draw(
        command, line, key, tmp_path, capsys, no_draws):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "never.txt"
    rc = main([command, "--config", str(cfg), "--alpha", "0.3",
               "--snr-db", "4", "--out", str(out)])
    assert rc == 2
    assert (f"{cfg}: config key {key!r} is not an option of {command}"
            in capsys.readouterr().err)
    assert not out.exists()


# point prints both bound variants and the other sweeps none, so only the
# alpha sweep takes --bound-variant
@pytest.mark.parametrize("command", ["snr-sweep", "corr-sweep", "point"])
def test_bound_variant_is_an_alpha_sweep_flag(command, tmp_path, capsys,
                                              no_draws):
    out = tmp_path / "never.txt"
    with pytest.raises(SystemExit) as exc:
        main([command, "--bound-variant", "printed", "--alpha", "0.3",
              "--snr-db", "4", "--out", str(out)])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --bound-variant printed"
            in capsys.readouterr().err)
    assert not out.exists()


# at 3082 dB the baseline's p_mimo / (m * sigma_n2) is about 5.3e307, over
# MAX_MIMO_SCALE; the beamforming series alone still run
def test_snr_sweep_past_the_mimo_scale_cap_exits_before_any_draw(
        tmp_path, capsys, no_draws):
    out = tmp_path / "never.csv"
    rc = main(["snr-sweep", "--snr-db", "3082", "--alpha", "0.3",
               "--trials", "100", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be at most 1e+300" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["snr-sweep", "--no-baseline"], ["corr-sweep"], ["alpha-sweep"],
], ids=["snr-sweep-no-baseline", "corr-sweep", "alpha-sweep"])
def test_sweeps_without_the_baseline_run_past_the_mimo_scale_cap(
        argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--snr-db", "3082", "--alpha", "0.3",
                 "--trials", "100", "--out", str(out)]) == 0
    assert "error" not in capsys.readouterr().err
    assert out.read_text().splitlines()[-1].startswith("3082,")


COMMANDS = ("alpha-sweep", "snr-sweep", "corr-sweep", "point")

# the README's config keys: file line, the same value as flags, and the one
# subcommand that has the flag where not all of them do
DOCUMENTED_KEYS = {
    "m": ("4", ["--m", "4"], None),
    "ratio_ptotal_ps": ("12.5", ["--ratio-ptotal-ps", "12.5"], None),
    "rtr": ("1.5", ["--rtr", "1.5"], None),
    "rbr": ("2.5", ["--rbr", "2.5"], None),
    "p_total": ("30", ["--p-total", "30"], None),
    "sigma_nbr2": ("1.5", ["--sigma-nbr2", "1.5"], None),
    "trials": ("500", ["--trials", "500"], None),
    "seed": ("7", ["--seed", "7"], None),
    "gain_mode": ("vector", ["--gain-mode", "vector"], None),
    "bound_variant": ("complex_convention",
                      ["--bound-variant", "complex_convention"],
                      "alpha-sweep"),
    "workers": ("2", ["--workers", "2"], None),
    "out": ("x.csv", ["--out", "x.csv"], None),
    "alpha": ("0.3,0.4", ["--alpha", "0.3", "--alpha", "0.4"], None),
    "alpha_range": ("0.3:0.4:0.1", ["--alpha-range", "0.3:0.4:0.1"], None),
    "snr_db": ("4,6", ["--snr-db", "4", "--snr-db", "6"], None),
    "snr_db_range": ("4:6:1", ["--snr-db-range", "4:6:1"], None),
    "corr": ("0,0.5", ["--corr", "0", "--corr", "0.5"], "corr-sweep"),
    "no_baseline": ("yes", ["--no-baseline"], "snr-sweep"),
}


def test_config_keys_are_the_documented_ones():
    parser = cli.build_parser()
    keys = set()
    for command in COMMANDS:
        keys |= set(parser.parse_args([command]).config_keys)
    assert keys == set(DOCUMENTED_KEYS)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key", DOCUMENTED_KEYS)
def test_config_key_fills_what_its_flag_fills(key, command, tmp_path,
                                              capsys, no_draws):
    value, flags, only = DOCUMENTED_KEYS[key]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    from_file = [command, "--config", str(cfg)]
    if only not in (None, command):
        assert main([*from_file, "--alpha", "0.3", "--snr-db", "4"]) == 2
        assert (f"{cfg}: config key {key!r} is not an option of {command}"
                in capsys.readouterr().err)
        return
    parser = cli.build_parser()
    merged = cli._merge(parser.parse_args(from_file))
    assert merged == cli._merge(parser.parse_args([command, *flags]))
    assert len(merged) == 1


BENCH = SRC.parent / "bench"
TRACED_SWEEPS = [
    ["snr-sweep", "--alpha", "0.02", "--alpha", "0.3", "--snr-db", "4"],
    ["corr-sweep", "--corr", "0", "--corr", "0.5", "--snr-db", "4"],
    ["alpha-sweep", "--alpha", "0.3", "--snr-db", "4"],
]


def test_benchmark_trace_mode_spans_every_layer(tmp_path, capsys):
    # bench/child.py wraps harness's module globals; a rename there would
    # break `bench/run.py --trace 1` without failing any other test
    spec = importlib.util.spec_from_file_location("tracer",
                                                  BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    names = set()
    for i, sweep in enumerate(TRACED_SWEEPS):
        argv = [*sweep, "--trials", "500", "--seed", "1", "--workers", "1"]
        traced, record = tmp_path / f"traced{i}.csv", tmp_path / f"rec{i}"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "trace", str(record),
             "--", *argv, "--out", str(traced)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        names |= {span[2] for span in json.loads(record.read_text())["spans"]}
        plain = tmp_path / f"plain{i}.csv"
        assert main([*argv, "--out", str(plain)]) == 0
        assert traced.read_bytes() == plain.read_bytes()
    assert names == set(tracer.LAYER_OF) | {"block"}



def test_no_private_src_code_is_reached_only_by_the_tests():
    # a private top-level def or class that no other src/ code names (as a
    # name, an attribute or an import) runs in no experiment; the tests
    # should call the steps a kernel runs, not a seam kept for them
    defined, uses = {}, []
    for path in sorted((SRC / "coopbeam").glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                owner = top.name
                if owner.startswith("_"):
                    defined[owner] = path.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.append((path.name, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    uses.append((path.name, owner, node.attr))
                elif isinstance(node, ast.alias):
                    uses.append((path.name, owner, node.name))
    # a name used only inside its own definition is not reached
    reached = {name for where, owner, name in uses
               if (where, owner) != (defined.get(name), name)}
    assert {name: where for name, where in defined.items()
            if name not in reached} == {}
