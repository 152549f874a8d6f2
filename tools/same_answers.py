"""Check that two checkouts of the library give the same answers.

Runs a fixed set of solves with the ``bpladmm`` found under ``--src`` and
saves their final iterates, iteration counts and report columns:

    python3 tools/same_answers.py --src path/to/old/src old.npz
    python3 tools/same_answers.py --src src new.npz
    python3 tools/same_answers.py --compare [--rtol R] old.npz new.npz

The solves are the two-bus fixture (canonical run and jitter-0.1 seeds
0-4, 20000 sweeps at most, with the frozen-u recheck), 100 fixed sweeps on
the seeded radial 141-bus feeder of ``bench/radial.py`` (feeder seed 0) and
its frozen-u recheck, which runs the three-column chunk pass at N = 141,
BPL-ADMM and admm3 on the 100x100 RPCA instances of seeds 0-4, on a
rank-4 60x40 and 40x60 instance (one of each orientation of a non-square
matrix) and on the 100x100 instance of seed 0 with noise 0.05, and an
engine run of ``RpcaBlockProblem`` on a 12x10 instance.  The noise-0.05
instance is the one input here on which warm shrinkages
(``spaces._warm_shrink``) fail the theta c test and pass the c^2 one.
It also runs the two command line manifests of acceptance criterion 10
(``rpca-bench`` with ``--dump-trace`` and ``dcopf`` on the two-bus fixture,
both with ``--no-timing``) and saves every CSV they write.

Each report column is saved under its ``IterationReport`` field name.
``--compare`` requires the same runs, equal iteration counts and equal
report numbers n.  A run that stops at another sweep is named once, by its
two iteration counts, and its report columns are compared over the sweeps
both runs took.  Every other number (final iterates, recheck violation
and each report column) must satisfy max|a - b| <= R * max(1, max|a|),
with a the old values and R from ``--rtol`` (default 0: bit-equal).  A
report column that only one file holds, a field added or dropped between
the two checkouts, is listed and not compared.  The CLI CSVs are compared
column by column, matched by header name: they must have the same number
of rows, every text or integer column must match exactly, and each float
column is held to R like an array; a column that only one file holds is
listed and not compared, like a report column.  It prints the worst gap of
each kind of value over all runs and exits nonzero if any check fails.
"""

import argparse
import contextlib
import csv
import io
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

REPORT = "report."  # the kind of a report column: this prefix and its field name
# the manifests of acceptance criterion 10, as (label, argv)
CLI_MANIFESTS = (
    ("rpca", ["rpca-bench", "--size", "30", "30", "--rank", "3", "--sparsity", "0.05",
              "--seeds", "2", "--jobs", "1", "--no-timing", "--dump-trace"]),
    ("dcopf", ["dcopf", "--fixture", "2bus", "--eta", "10000", "--seeds", "1", "--jobs", "1",
               "--no-timing"]),
)


def report_columns(label: str, reports) -> dict:
    """One array per report field, keyed ``<label>/report.<field name>``."""
    return {f"{label}/{REPORT}{field.name}":
            np.array([getattr(r, field.name) for r in reports], dtype=float)
            for field in fields(reports[0])}


def collect(src: str) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from bpladmm import cli, dcopf, engine, matpower, rpca
    from radial import radial_case_text

    out = {}

    def keep(label, x, y, z, iterations, reports):
        out[f"{label}/x"] = np.concatenate([np.ravel(xi) for xi in x])
        out[f"{label}/y"] = np.asarray(y)
        out[f"{label}/z"] = np.asarray(z)
        out[f"{label}/iterations"] = np.array(iterations)
        out.update(report_columns(label, reports))

    def keep_dcopf(label, sol):
        keep(label, [sol.pv, sol.gen, sol.theta, sol.u], sol.y, sol.z, sol.iterations, sol.reports)
        out[f"{label}/recheck"] = np.array(
            [np.nan if sol.rounded_violation is None else sol.rounded_violation])

    case = dcopf.two_bus_fixture()
    keep_dcopf("2bus/canonical", dcopf.solve_dcopf(case, max_iterations=20000))
    for seed in range(5):
        keep_dcopf(f"2bus/jitter{seed}", dcopf.solve_dcopf(
            case, max_iterations=20000, init_jitter=0.1, seed=seed))

    radial = matpower.to_dcopf_case(matpower.parse_case(radial_case_text(141, 0)))
    keep_dcopf("radial141/seed0", dcopf.solve_dcopf(radial, tol=0.0, max_iterations=100))

    rpca_runs = [(f"{seed}", 100, 100, 10, 1e-2, seed) for seed in range(5)]
    rpca_runs += [("-60x40", 60, 40, 4, 1e-2, 0), ("-40x60", 40, 60, 4, 1e-2, 0),
                  ("0-noise0.05", 100, 100, 10, 0.05, 0)]
    for tag, m, d, r, noise, seed in rpca_runs:
        config = rpca.RpcaConfig(rows=m, cols=d)
        instance = rpca.generate_instance(m, d, r, 0.05, noise, seed=seed)
        for name, solver in (("bpl", rpca.bpl_admm_rpca), ("admm3", rpca.admm3_baseline)):
            sol = solver(instance, config, seed + cli.INIT_SEED_OFFSET)
            keep(f"rpca/{name}{tag}", [sol.L, sol.S], sol.T, sol.Z, sol.iterations, sol.reports)

    instance = rpca.generate_instance(12, 10, 3, 0.1, 1e-2, seed=1)
    small = rpca.RpcaConfig(rows=12, cols=10)
    problem = rpca.RpcaBlockProblem(instance, small)
    rng = np.random.default_rng(2)
    init = engine.initial_state(problem, [rng.standard_normal((12, 10)) for _ in range(2)],
                                instance.M.copy(), np.zeros((12, 10)))
    result = engine.solve(problem, small.solver_params(), init)
    keep("rpca/engine", result.state.x, result.state.y, result.state.z, result.iterations,
         result.reports)

    for label, argv in CLI_MANIFESTS:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv + ["--out", tmp]) != 0:
                raise RuntimeError(f"{' '.join(argv)} failed")
            for path in sorted(Path(tmp).iterdir()):
                out[f"cli/{label}/{path.name}"] = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    return out


def scaled_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| / max(1, max|a|) over the entries that are not NaN in
    both; infinite if the NaNs sit in different places."""
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return np.inf
    a, b = a[~nan], b[~nan]
    return float(np.max(np.abs(a - b), initial=0.0) / max(1.0, np.max(np.abs(a), initial=0.0)))


def _all_parse(kind, cells) -> bool:
    try:
        for cell in cells:
            kind(cell)
    except ValueError:
        return False
    return True


def csv_gap(a: bytes, b: bytes) -> tuple[str | None, float, list[str]]:
    """Compare two CSV files with a header row column by column, matching
    columns by header name: the first difference in their row count or in
    an integer or text column (None if there is none), the worst
    ``scaled_gap`` of their float columns, and the columns only one file
    holds.

    A column whose cells all parse as integers in both files is an integer
    column, one whose cells all parse as floats a float column, and any
    other column a text column.
    """
    old, new = (list(csv.reader(io.StringIO(f.decode()))) for f in (a, b))
    if len(old) != len(new):
        return "the CSV files differ in row count", 0.0, []
    columns = [{name: tuple(row[j] for row in rows[1:]) for j, name in enumerate(rows[0])}
               for rows in (old, new)]
    only = [f"column {name} only in the {side} file"
            for side, mine, other in (("old", *columns), ("new", *columns[::-1]))
            for name in mine if name not in other]
    worst = 0.0
    for name in (name for name in columns[0] if name in columns[1]):
        col_a, col_b = columns[0][name], columns[1][name]
        if _all_parse(float, col_a + col_b) and not _all_parse(int, col_a + col_b):
            worst = max(worst, scaled_gap(np.array(col_a, dtype=float),
                                          np.array(col_b, dtype=float)))
        elif col_a != col_b:
            return f"column {name} differs", 0.0, only
    return None, worst, only


def compare(old: dict, new: dict, rtol: float = 0.0) -> tuple[list[str], dict, list[str]]:
    """Differences beyond ``rtol``, the worst gap of each kind of value as
    kind -> (gap, run), and the report and CSV columns only one file holds."""
    problems = []
    worst = {}
    stops = {}  # run -> (old, new) iteration counts, for the runs that stop apart
    runs = [{key.rsplit("/", 1)[0] for key in saved} for saved in (old, new)]
    if runs[0] != runs[1]:
        return [f"different runs: {sorted(runs[0] ^ runs[1])}"], worst, []
    only = []
    for key in sorted(set(old) ^ set(new)):
        kind, side = key.rsplit("/", 1)[1], "old" if key in old else "new"
        if not kind.startswith(REPORT):
            problems.append(f"{key} is only in the {side} file")
        elif f"{kind} only in the {side} file" not in only:
            only.append(f"{kind} only in the {side} file")

    def check(run, kind, gap, limit):
        if gap > worst.get(kind, (-1.0,))[0]:
            worst[kind] = (gap, run)
        if not gap <= limit:
            problems.append(f"{run} {kind}: gap {gap:.2e} exceeds {limit:.0e}")

    for key in sorted(set(old) & set(new)):
        run, kind = key.rsplit("/", 1)
        a, b = old[key], new[key]
        if kind.startswith(REPORT) and len(a) != len(b):  # a report per sweep and the start's
            stops.setdefault(run, (len(a) - 1, len(b) - 1))
            a, b = a[:len(b)], b[:len(a)]
        if run.startswith("cli/"):
            mismatch, gap, columns_only = csv_gap(a.tobytes(), b.tobytes())
            only += [f"{key}: {line}" for line in columns_only]
            if mismatch is None:
                check(key, "csv", gap, rtol)
            else:
                problems.append(f"{key}: {mismatch}")
        elif kind == "iterations":
            if not np.array_equal(a, b):
                stops[run] = (int(a), int(b))
        elif a.shape != b.shape:
            problems.append(f"{key}: shape {a.shape} vs {b.shape}")
        elif kind == f"{REPORT}n":
            if not np.array_equal(a, b):
                problems.append(f"{key}: {a} vs {b}")
        else:
            check(run, kind, scaled_gap(a, b), rtol)
    problems += [f"{run}: iterations {a} vs {b}" for run, (a, b) in sorted(stops.items())]
    return problems, worst, only


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="directory holding the bpladmm package to run")
    parser.add_argument("--compare", action="store_true", help="compare two saved answer files")
    parser.add_argument("--rtol", type=float, default=0.0, metavar="R",
                        help="allowed max|a - b| / max(1, max|a|) of iterates, report "
                             "columns and CSV float columns (default 0: bit-equal)")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (dict(np.load(f)) for f in args.files)
        problems, worst, only = compare(old, new, args.rtol)
        runs = len({k.rsplit("/", 1)[0] for k in old})
        for kind, (gap, run) in sorted(worst.items()):
            print(f"{kind}: worst gap {gap:.2e} ({run})")
        for line in only:
            print("NOT COMPARED", line)
        for line in problems:
            print("DIFF", line)
        print(f"{runs} runs compared: {'same answers' if not problems else 'DIFFERENT'}")
        return 1 if problems else 0
    np.savez(args.files[0], **collect(args.src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
