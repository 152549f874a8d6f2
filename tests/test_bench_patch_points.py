"""The benchmark under ``bench/`` patches library functions by name; each
name it patches must still be defined on its owner, or the benchmark
breaks before it measures anything."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import sweepclock  # noqa: E402
import tracing  # noqa: E402

POINTS = list(dict.fromkeys(
    (owner, attr) for owner, attr, *_ in tracing.PATCH_POINTS + sweepclock.CLOCK_POINTS))


@pytest.mark.parametrize("owner, attr", POINTS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in POINTS])
def test_benchmark_patch_point_is_defined_on_its_owner(owner, attr):
    # the benchmark looks each one up as vars(owner)[attr], not by inheritance
    assert attr in vars(owner)
