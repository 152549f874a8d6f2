"""``tools/sweep_ab.py``: two checkouts imported side by side in one
process, stepped alternately, with their sweep quantiles, whether their
iterates stayed bit-equal and their worst scaled gap."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("sweep_ab", ROOT / "tools" / "sweep_ab.py")
sweep_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweep_ab)

PROBLEMS = ["radial141", "radial1000", "2bus", "2bus-frozen-u", "rpca-bpl", "rpca-plain"]
DCOPF = {"radial141", "radial1000", "2bus", "2bus-frozen-u"}


def test_a_tree_against_itself_stays_bit_equal(capsys):
    assert sweep_ab.main([str(ROOT / "src"), str(ROOT / "src"), "--sweeps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == PROBLEMS
    for line in lines[1:]:
        _, ms_a, ms_b, _, equal, gap = line.split()
        assert float(ms_a) > 0.0 and float(ms_b) > 0.0
        assert (equal, float(gap)) == ("yes", 0.0)


def test_a_tree_whose_slack_update_moves_one_ulp_is_not_bit_equal(tmp_path):
    shutil.copytree(ROOT / "src" / "bpladmm", tmp_path / "bpladmm")
    with open(tmp_path / "bpladmm" / "dcopf.py", "a") as module:
        module.write("\n_exact = DcOpfBlockProblem.solve_y_block\n\n\n"
                     "def _one_ulp_up(self, *args):\n"
                     "    return _exact(self, *args) * (1.0 + 2.0**-52)\n\n\n"
                     "DcOpfBlockProblem.solve_y_block = _one_ulp_up\n")
    rows = sweep_ab.compare(str(ROOT / "src"), str(tmp_path), 2)
    assert [row[0] for row in rows] == PROBLEMS
    assert all(np.isfinite(row[1:3]).all() for row in rows)
    # only the DC-OPF problems call the slack update, and it moves them by rounding
    assert {row[0]: row[3] for row in rows} == {name: name not in DCOPF for name in PROBLEMS}
    assert all((row[4] > 0.0) == (row[0] in DCOPF) and row[4] < 1e-13 for row in rows)


def test_a_tree_whose_stop_rule_differs_is_not_bit_equal(tmp_path):
    # the iterates stay bit-equal, but a sweep is a step and its stop decision
    shutil.copytree(ROOT / "src" / "bpladmm", tmp_path / "bpladmm")
    with open(tmp_path / "bpladmm" / "engine.py", "a") as module:
        module.write("\n\ndef stopped(params, previous, report):\n    return True\n")
    rows = sweep_ab.compare(str(ROOT / "src"), str(tmp_path), 2)
    assert [row[0] for row in rows] == PROBLEMS
    assert all(row[3] is False and row[4] == 0.0 for row in rows)
