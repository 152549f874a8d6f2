"""The CSV comparison of ``tools/same_answers.py``: float columns within
``--rtol``, integer and text columns exact, and byte-identical files at
``--rtol 0``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_answers.py"
spec = importlib.util.spec_from_file_location("same_answers", TOOL)
same_answers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_answers)

OLD = b"seed,algorithm,RE,iterations\r\n0,bpl-admm,0.0125,83\r\n1,admm3,2,90\r\n"
KEY = "cli/rpca/rpca_runs.csv"


def compare(new: bytes, rtol: float) -> list[str]:
    as_array = lambda text: {KEY: np.frombuffer(text, dtype=np.uint8)}  # noqa: E731
    return same_answers.compare(as_array(OLD), as_array(new), rtol)[0]


def test_float_columns_are_held_to_rtol_and_byte_equal_at_zero():
    # the RE column holds "2", an integer-looking float cell
    near = OLD.replace(b"0.0125", b"0.012500000000001").replace(b",2,", b",2.0000000000000004,")
    mismatch, gap = same_answers.csv_gap(OLD, near)
    assert mismatch is None and 0.0 < gap <= 1e-15
    assert compare(near, 1e-10) == []
    assert compare(near, 1e-16) == [f"{KEY} csv: gap {gap:.2e} exceeds 1e-16"]
    assert compare(near, 0.0) == [f"{KEY}: the CSV files differ"]
    assert compare(OLD, 0.0) == []


@pytest.mark.parametrize("new, message", [
    (OLD.replace(b",83", b",84"), "column iterations differs"),
    (OLD.replace(b"bpl-admm", b"bpl"), "column algorithm differs"),
    (OLD.replace(b"RE", b"re"), "the CSV headers differ"),
    (OLD + b"2,admm3,2,90\r\n", "the CSV files differ in shape"),
])
def test_integer_text_and_shape_differences_fail_at_any_rtol(new, message):
    assert compare(new, 1e-3) == [f"{KEY}: {message}"]
