"""The comparison of ``tools/same_answers.py``: CSV columns matched by
header name, float columns within ``--rtol`` and integer and text columns
exact; report columns keyed by field name and held to ``--rtol``, over the
sweeps both runs took when they stop apart; a CSV or report column that
one file holds listed and not compared."""

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_answers.py"
spec = importlib.util.spec_from_file_location("same_answers", TOOL)
same_answers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_answers)

OLD = b"seed,algorithm,RE,iterations\r\n0,bpl-admm,0.0125,83\r\n1,admm3,2,90\r\n"
KEY = "cli/rpca/rpca_runs.csv"


def compare_csv(new: bytes, rtol: float) -> tuple[list[str], list[str]]:
    """The differences and the columns not compared, OLD against ``new``."""
    as_array = lambda text: {KEY: np.frombuffer(text, dtype=np.uint8)}  # noqa: E731
    problems, _, only = same_answers.compare(as_array(OLD), as_array(new), rtol)
    return problems, only


def compare(new: bytes, rtol: float) -> list[str]:
    return compare_csv(new, rtol)[0]


def test_float_columns_are_held_to_rtol_and_equal_at_zero():
    # the RE column holds "2", an integer-looking float cell
    near = OLD.replace(b"0.0125", b"0.012500000000001").replace(b",2,", b",2.0000000000000004,")
    mismatch, gap, only = same_answers.csv_gap(OLD, near)
    assert mismatch is None and 0.0 < gap <= 1e-15 and only == []
    assert compare(near, 1e-10) == []
    assert compare(near, 1e-16) == [f"{KEY} csv: gap {gap:.2e} exceeds 1e-16"]
    assert compare(near, 0.0) == [f"{KEY} csv: gap {gap:.2e} exceeds 0e+00"]
    assert compare(OLD, 0.0) == []


@pytest.mark.parametrize("new, message", [
    (OLD.replace(b",83", b",84"), "column iterations differs"),
    (OLD.replace(b"bpl-admm", b"bpl"), "column algorithm differs"),
    (OLD + b"2,admm3,2,90\r\n", "the CSV files differ in row count"),
])
def test_integer_text_and_row_count_differences_fail_at_any_rtol(new, message):
    assert compare(new, 1e-3) == [f"{KEY}: {message}"]


def test_csv_columns_are_matched_by_name():
    reordered = b"iterations,seed,RE,algorithm\r\n83,0,0.0125,bpl-admm\r\n90,1,2,admm3\r\n"
    assert compare_csv(reordered, 0.0) == ([], [])
    # a dropped or renamed column is listed, and the others are still compared
    dropped = b"seed,algorithm,RE\r\n0,bpl-admm,0.0125\r\n1,admm3,2\r\n"
    assert compare_csv(dropped, 0.0) == ([], [f"{KEY}: column iterations only in the old file"])
    assert compare_csv(dropped.replace(b"0.0125", b"0.5"), 1e-3)[0] == [
        f"{KEY} csv: gap 2.44e-01 exceeds 1e-03"]
    assert compare_csv(OLD.replace(b"RE", b"re"), 0.0) == (
        [], [f"{KEY}: column RE only in the old file", f"{KEY}: column re only in the new file"])


@dataclass
class Report:
    n: int
    merit: float


@dataclass
class OldReport(Report):  # a report of a checkout that still carried L_rho twice
    augmented_lagrangian: float = 0.0


def test_report_columns_are_held_to_rtol_like_every_other_number():
    merits = [-637.25, -637.5]
    old = same_answers.report_columns("run", [Report(n, m) for n, m in enumerate(merits)])
    # the last merit one ulp nearer zero, about 1.8e-16 relative
    moved = same_answers.report_columns("run", [Report(0, merits[0]),
                                                Report(1, np.nextafter(merits[1], 0.0))])
    gap = (np.nextafter(merits[1], 0.0) - merits[1]) / 637.5
    assert same_answers.compare(old, moved, 0.0)[0] == [
        f"run report.merit: gap {gap:.2e} exceeds 0e+00"]
    assert same_answers.compare(old, moved, 1e-15)[0] == []
    renumbered = same_answers.report_columns("run", [Report(0, m) for m in merits])
    assert same_answers.compare(old, renumbered, 1.0)[0] == ["run/report.n: [0. 1.] vs [0. 0.]"]


def test_a_report_column_that_one_file_holds_is_listed_not_compared():
    old = same_answers.report_columns("run", [OldReport(0, -1.0, -1.0)])
    new = same_answers.report_columns("run", [Report(0, -1.0)])
    assert same_answers.compare(old, new) == (
        [], {"report.merit": (0.0, "run")}, ["report.augmented_lagrangian only in the old file"])
    # any other value that one file lacks is a difference
    old["run/x"] = np.zeros(2)
    assert same_answers.compare(old, new)[0] == ["run/x is only in the old file"]


def test_a_run_that_stops_one_sweep_later_is_named_once_by_its_iteration_counts():
    merits = [-637.25, -637.5, -637.625, -637.6875]
    old = same_answers.report_columns("run", [Report(n, m) for n, m in enumerate(merits[:3])])
    new = same_answers.report_columns("run", [Report(n, m) for n, m in enumerate(merits)])
    old["run/iterations"], new["run/iterations"] = np.array(2), np.array(3)
    assert same_answers.compare(old, new, 0.0)[0] == ["run: iterations 2 vs 3"]
    # without the saved count the reports give it, and the sweeps both took are still held
    # to rtol, scaled by the largest old merit, 637.625
    del old["run/iterations"], new["run/iterations"]
    new["run/report.merit"][1] = -637.0
    assert same_answers.compare(old, new, 1e-4)[0] == [
        f"run report.merit: gap {0.5 / 637.625:.2e} exceeds 1e-04", "run: iterations 2 vs 3"]
