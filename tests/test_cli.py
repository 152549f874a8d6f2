import csv
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from bpladmm import dcopf, engine
from bpladmm import cli
from bpladmm.cli import TRACE_FIELDS, _write_csv, main

RPCA_SMALL = ["rpca-bench", "--size", "30", "30", "--rank", "3", "--sparsity", "0.05",
              "--noise", "0.01", "--jobs", "1"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_rpca_bench_writes_run_and_summary_tables(tmp_path, capsys):
    rc = main(RPCA_SMALL + ["--seeds", "2", "--out", str(tmp_path)])
    assert rc == 0
    runs = read_csv(tmp_path / "rpca_runs.csv")
    assert len(runs) == 4  # two seeds, two algorithms
    assert {row["algorithm"] for row in runs} == {"bpl-admm", "admm3"}
    assert all(row["converged"] == "1" for row in runs)
    summary = read_csv(tmp_path / "rpca_summary.csv")
    assert len(summary) == 2
    assert summary[0]["rank_L_O"] == "3"
    assert summary[0]["sparsity_S_O"] == "45"
    # machine files carry full precision (at least 10 significant digits)
    assert len(summary[0]["RE"].replace(".", "").lstrip("0")) >= 10
    out = capsys.readouterr().out
    assert "bpl-admm" in out and "E-" in out


def test_rpca_bench_seed_list_and_trace(tmp_path):
    rc = main(RPCA_SMALL + ["--seed-list", "5,9", "--out", str(tmp_path), "--dump-trace"])
    assert rc == 0
    trace = read_csv(tmp_path / "trace_rpca_bpl-admm_seed5.csv")
    assert trace[0]["n"] == "0"
    assert "merit" in trace[0]
    assert (tmp_path / "trace_rpca_admm3_seed9.csv").exists()


def test_rpca_bench_empty_seed_list_is_usage_error(tmp_path, capsys):
    rc = main(RPCA_SMALL + ["--seed-list", "", "--out", str(tmp_path)])
    assert rc == 2
    assert "seed list is empty" in capsys.readouterr().err


def test_rpca_bench_rejects_rho_at_the_bound(tmp_path, capsys):
    rc = main(RPCA_SMALL + ["--seeds", "1", "--rho", "2.0", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "rho" in err and "2" in err
    assert not list(tmp_path.iterdir())


def test_rpca_bench_default_rho_follows_gamma(tmp_path):
    rc = main(["rpca-bench", "--size", "10", "10", "--rank", "2", "--seeds", "1", "--jobs", "1",
               "--gamma", "2", "--no-timing", "--out", str(tmp_path)])
    assert rc == 0
    assert all(row["converged"] == "1" for row in read_csv(tmp_path / "rpca_runs.csv"))


def test_rpca_bench_rejects_bad_rank(tmp_path, capsys):
    rc = main(RPCA_SMALL[:1] + ["--size", "10", "10", "--rank", "50", "--seeds", "1",
                                "--out", str(tmp_path)])
    assert rc == 2
    assert "rank" in capsys.readouterr().err


def test_verify_trace_accepts_good_and_rejects_tampered(tmp_path, capsys):
    rc = main(RPCA_SMALL + ["--seed-list", "3", "--out", str(tmp_path), "--dump-trace"])
    assert rc == 0
    trace_path = tmp_path / "trace_rpca_bpl-admm_seed3.csv"
    assert main(["verify-trace", str(trace_path)]) == 0
    assert "OK" in capsys.readouterr().out

    rows = trace_path.read_text().splitlines()
    header, body = rows[0], rows[1:]
    merit = header.split(",").index("merit")
    fields = body[3].split(",")
    fields[merit] = repr(float(body[2].split(",")[merit]) + 100.0)  # bump one merit value
    body[3] = ",".join(fields)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join([header] + body) + "\n")
    assert main(["verify-trace", str(tampered)]) == 1
    assert "merit increased" in capsys.readouterr().out


def test_verify_trace_counts_the_increases_the_engine_counts(tmp_path, capsys):
    from test_engine import Walker, toy_params

    toy = Walker()
    init = engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1))
    with pytest.warns(RuntimeWarning, match="merit increased"):
        result = engine.solve(toy, toy_params(max_iterations=12), init)
    path = tmp_path / "trace.csv"
    _write_csv(path, TRACE_FIELDS, map(astuple, result.reports))
    assert main(["verify-trace", str(path)]) == 1
    assert f"FAIL: {len(result.merit_increases)} merit increases" in capsys.readouterr().out
    assert len(result.merit_increases) == 11


def test_verify_trace_of_a_warm_started_run_counts_what_the_engine_counts(tmp_path, capsys):
    # the trace starts at n = 10, the state the run continued from, and its
    # first step is not a sweep of the run: 9 rises, not 10
    from test_engine import Walker, toy_params

    toy = Walker()
    with pytest.warns(RuntimeWarning, match="merit increased"):
        first = engine.solve(toy, toy_params(max_iterations=10),
                             engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1)))
    with pytest.warns(RuntimeWarning, match="merit increased"):
        continued = engine.solve(toy, toy_params(max_iterations=10), first.state)
    assert continued.reports[0].n == 10 and len(continued.merit_increases) == 9
    path = tmp_path / "trace.csv"
    _write_csv(path, TRACE_FIELDS, map(astuple, continued.reports))
    assert main(["verify-trace", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL: 9 merit increases" in out
    assert "at n = 11" not in out and "at n = 12" in out


@pytest.mark.parametrize("multiple, rc, verdict", [(0.5, 0, "OK"), (2.0, 1, "FAIL: 1 merit")],
                         ids=["half-the-slack", "twice-the-slack"])
def test_verify_trace_holds_rises_to_the_fixed_slack(tmp_path, capsys, multiple, rc, verdict):
    # the starting row is not checked, so the slack is MERIT_SLACK_SCALE * (1 + |3|)
    rise = multiple * engine.MERIT_SLACK_SCALE * 4.0
    path = tmp_path / "trace.csv"
    path.write_text(f"n,merit\n0,5\n1,3\n2,{3.0 + rise!r}\n")
    assert main(["verify-trace", str(path)]) == rc
    assert verdict in capsys.readouterr().out


def test_verify_trace_has_no_slack_scale_flag(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("n,merit\n0,5\n1,3\n2,3\n")
    with pytest.raises(SystemExit) as exited:
        main(["verify-trace", str(path), "--slack-scale", "1"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --slack-scale" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    ("n,L_rho\n0,1.0\n", "has no merit column"),
    ("L_rho,merit\n1.0,2.0\n", "has no n column"),
    ("n,merit\n0,1.0\n1,abc\n", "line 3"),
    ("n,merit\n0,1.0\n1\n", "line 3"),
    ("n,merit\n", "has no rows"),
    ("n,merit\n0,1.0\n1,0.5\n2,nan\n", "has a merit that is not finite"),
    # a repeated n would hide the rise from 3 to 9 if its rows were merged
    ("n,merit\n0,5\n1,3\n2,9\n2,1\n", "n = 2 after n = 2; n must strictly increase"),
    ("n,merit\n0,5\n2,3\n1,4\n", "n = 1 after n = 2; n must strictly increase"),
], ids=["no-merit", "no-n", "text-cell", "short-row", "no-rows", "nan-merit", "repeated-n",
        "decreasing-n"])
def test_malformed_trace_is_an_error_not_a_traceback(tmp_path, capsys, content, message):
    path = tmp_path / "trace.csv"
    path.write_text(content)
    assert main(["verify-trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_dcopf_trace_holds_every_report_at_full_precision(tmp_path):
    rc = main(["dcopf", "--fixture", "2bus", "--max-iter", "30", "--allow-maxiter",
               "--jobs", "1", "--dump-trace", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trace_dcopf_seed0.csv").read_text().splitlines()
    assert lines[0] == "n,merit,feasibility,objective,step_x,step_y,step_z"
    reports = dcopf.solve_dcopf(dcopf.two_bus_fixture(), max_iterations=30, seed=0).reports
    assert len(lines) == len(reports) + 1 == 32
    for line, report in zip(lines[1:], reports):
        n, *values = line.split(",")
        assert (int(n), *map(float, values)) == astuple(report)


@pytest.mark.parametrize("command, flag, message", [
    (["dcopf", "--fixture", "2bus"], "--max-iter=-3", "max_iterations must be non-negative"),
    (["dcopf", "--fixture", "2bus"], "--tol=-1e-6", "stop_tolerance must be non-negative"),
    (RPCA_SMALL, "--tol=nan", "stop_tolerance must be non-negative, got nan"),
    (RPCA_SMALL, "--max-iter=-1", "max_iterations must be non-negative"),
    *[(["dcopf", "--fixture", "2bus"], f"--jitter={value}",
       f"--jitter must be finite and non-negative, got {float(value)}")
      for value in ("-1", "nan", "inf")],
    *[(RPCA_SMALL, f"--noise={value}",
       f"--noise must be finite and non-negative, got {float(value)}")
      for value in ("-1", "nan", "inf")],
    (RPCA_SMALL, "--alpha=inf", "strong_convexity must be finite, got inf"),
    (RPCA_SMALL, "--rho=inf", "rho must be finite, got inf"),
    (["dcopf", "--fixture", "2bus"], "--rho=inf", "rho must be finite, got inf"),
    (RPCA_SMALL + ["--rho=5"], "--gamma=-1", "lipschitz_H must be finite and non-negative"),
], ids=["dcopf-max-iter", "dcopf-tol", "rpca-tol-nan", "rpca-max-iter",
        "dcopf-jitter-negative", "dcopf-jitter-nan", "dcopf-jitter-inf",
        "rpca-noise-negative", "rpca-noise-nan", "rpca-noise-inf",
        "rpca-alpha-inf", "rpca-rho-inf", "dcopf-rho-inf", "rpca-gamma-negative"])
def test_negative_cap_or_tolerance_is_usage_error(tmp_path, capsys, command, flag, message):
    out = tmp_path / "out"
    rc = main(command + [flag, "--seeds", "1", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_seed_pool_is_no_larger_than_the_seed_list(monkeypatch):
    sizes = []

    class RecordingPool:
        """Runs in-process and records the pool size it was asked for."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert cli._map_seeds(str, [3, 1], jobs=64) == ["3", "1"]
    assert cli._map_seeds(str, [0, 1, 2], jobs=2) == ["0", "1", "2"]
    assert cli._map_seeds(str, [5], jobs=64) == ["5"]  # one seed runs in-process
    assert sizes == [2, 2]


def test_dcopf_fixture_run(tmp_path, capsys):
    rc = main(["dcopf", "--fixture", "2bus", "--seeds", "1", "--jobs", "1",
               "--max-iter", "20000", "--out", str(tmp_path)])
    assert rc == 0
    solution = read_csv(tmp_path / "dcopf_solution.csv")
    assert len(solution) == 2
    assert {row["u_rounded"] for row in solution} == {"0", "1"}
    runs = read_csv(tmp_path / "dcopf_runs.csv")
    assert runs[0]["rounded_feasible"] == "1"
    summary = read_csv(tmp_path / "dcopf_summary.csv")
    assert float(summary[0]["best_objective"]) < 2.5
    assert "rounded-u feasible True" in capsys.readouterr().out


def test_dcopf_rho_gate_names_bound(tmp_path, capsys):
    rc = main(["dcopf", "--fixture", "2bus", "--seeds", "1", "--rho", "100",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "200000" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


CASE_SETTINGS_OUT_OF_RANGE = pytest.mark.parametrize("flag, message", [
    ("--eta=0", "eta must be positive"), ("--gamma=-1", "gamma must be nonnegative"),
    ("--eta=nan", "eta must be finite"), ("--gamma=inf", "gamma must be finite")])


@CASE_SETTINGS_OUT_OF_RANGE
def test_dcopf_case_setting_out_of_range_is_usage_error(tmp_path, capsys, flag, message):
    out = tmp_path / "out"
    rc = main(["dcopf", "--fixture", "2bus", flag, "--seeds", "1", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@CASE_SETTINGS_OUT_OF_RANGE
def test_case_file_setting_out_of_range_is_usage_error(tmp_path, capsys, flag, message):
    # a bad flag exits 2 with a case file too, which itself is valid
    from test_matpower import CASE3

    path = tmp_path / "case.m"
    path.write_text(CASE3)
    out = tmp_path / "out"
    rc = main(["dcopf", "--case", str(path), flag, "--seeds", "1", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_dcopf_parses_matpower_file(tmp_path):
    from test_matpower import CASE3

    path = tmp_path / "case3.m"
    path.write_text(CASE3)
    # eta small keeps this a smoke run; it may stop at the iteration cap
    rc = main(["dcopf", "--case", str(path), "--seeds", "1", "--jobs", "1",
               "--eta", "50", "--max-iter", "300", "--allow-maxiter",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "dcopf_solution.csv").exists()


def test_dcopf_ragged_case_file_fails_with_line_number(tmp_path, capsys):
    from test_matpower import CASE3

    bad = CASE3.replace("2  3  0.02  0.25  0  250  250  250  0  0  1  -360  360;",
                        "2  3  0.02;")
    path = tmp_path / "bad.m"
    path.write_text(bad)
    rc = main(["dcopf", "--case", str(path), "--seeds", "1", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line" in err and "ragged" in err


@pytest.mark.parametrize("old, new, message", [
    ("1  3  50  10", "1  3  Inf  10", "demand must be finite"),
    ("1  3  50  10", "1  3  NaN  10", "demand must be finite"),
    ("1  80  0;", "1  Inf  0;", "gen_capacity must be finite"),
    ("0.02  2.0  10;", "NaN  2.0  10;", "gen_cost_a must be finite"),
], ids=["demand-inf", "demand-nan", "pmax-inf", "cost-nan"])
def test_non_finite_case_data_is_a_case_error(tmp_path, capsys, old, new, message):
    from test_matpower import CASE3

    assert old in CASE3
    path = tmp_path / "case.m"
    path.write_text(CASE3.replace(old, new))
    out = tmp_path / "out"
    rc = main(["dcopf", "--case", str(path), "--seeds", "1", "--jobs", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_missing_case_file_is_reported(tmp_path, capsys):
    rc = main(["dcopf", "--case", str(tmp_path / "nope.m"), "--seeds", "1",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "nope.m" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["scalar-bus", "self-loop", "narrow-bus", "narrow-gen",
                                  "repeated-bus", "gen-without-gencost", "negative-ncost",
                                  "fractional-ncost", "nan-bus-number", "fractional-bus-number",
                                  "infinite-gen-bus", "directory", "not-utf-8"])
def test_malformed_case_input_is_an_error_not_a_traceback(tmp_path, capsys, name):
    from test_matpower import MALFORMED

    path = tmp_path / "case.m"
    if name == "directory":
        path.mkdir()
    elif name == "not-utf-8":
        path.write_bytes(b"\xff\xfe mpc.baseMVA = 100;")
    else:
        path.write_text(MALFORMED[name][0])
    out = tmp_path / "out"
    rc = main(["dcopf", "--case", str(path), "--seeds", "1", "--jobs", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_identical_manifests_produce_identical_csvs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    manifest = RPCA_SMALL + ["--seeds", "2", "--no-timing", "--dump-trace"]
    assert main(manifest + ["--out", str(out_a)]) == 0
    assert main(manifest + ["--out", str(out_b)]) == 0
    for name in ("rpca_runs.csv", "rpca_summary.csv", "trace_rpca_bpl-admm_seed0.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_parallel_jobs_match_serial_results(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = RPCA_SMALL[:-2]  # drop "--jobs 1"
    assert main(base + ["--jobs", "1", "--seeds", "3", "--no-timing",
                        "--out", str(serial)]) == 0
    assert main(base + ["--jobs", "3", "--seeds", "3", "--no-timing",
                        "--out", str(parallel)]) == 0
    assert (serial / "rpca_runs.csv").read_bytes() == (parallel / "rpca_runs.csv").read_bytes()


def test_seed_list_rows_keep_the_given_order_in_parallel(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = RPCA_SMALL[:-2] + ["--seed-list", "3,1,2", "--no-timing"]
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    runs = read_csv(parallel / "rpca_runs.csv")
    assert [row["seed"] for row in runs] == ["3", "3", "1", "1", "2", "2"]
    for name in ("rpca_runs.csv", "rpca_summary.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


@pytest.mark.parametrize("command", [RPCA_SMALL[:-2], ["dcopf", "--fixture", "2bus"]],
                         ids=["rpca-bench", "dcopf"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, command):
    rc = main(command + ["--seeds", "1", "--jobs", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [RPCA_SMALL[:-2], ["dcopf", "--fixture", "2bus"]],
                         ids=["rpca-bench", "dcopf"])
@pytest.mark.parametrize("seed_list, token", [("-1", "-1"), ("1,x", "x")],
                         ids=["negative", "non-integer"])
def test_bad_seed_list_entry_is_usage_error(tmp_path, capsys, command, seed_list, token):
    rc = main(command + [f"--seed-list={seed_list}", "--jobs", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert f"--seed-list entry {token!r} is not a non-negative integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [RPCA_SMALL[:-2], ["dcopf", "--fixture", "2bus"]],
                         ids=["rpca-bench", "dcopf"])
def test_seeds_and_seed_list_together_is_usage_error(tmp_path, capsys, command):
    # neither flag silently wins: argparse rejects the pair before any run
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--seeds", "3", "--seed-list", "7", "--max-iter", "5", "--jobs", "1",
                        "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--seed-list: not allowed with argument --seeds" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_the_cli_does_not_import_scipy():
    # the library is numpy only; scipy would add about 0.3 s and 30 MB to every start
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, bpladmm.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"
