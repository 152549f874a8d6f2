"""Check that two checkouts of the library give the same answers.

Runs a fixed set of solves with the ``bpladmm`` found under ``--src`` and
saves their final iterates, iteration counts and report columns:

    python3 tools/same_answers.py --src path/to/old/src old.npz
    python3 tools/same_answers.py --src src new.npz
    python3 tools/same_answers.py --compare [--rtol R] old.npz new.npz

The solves are the two-bus fixture (canonical run and jitter-0.1 seeds
0-4, 20000 sweeps at most, with the frozen-u recheck), 100 fixed sweeps on
the seeded radial 141-bus feeder of ``bench/radial.py`` (feeder seed 0),
BPL-ADMM and admm3 on the 100x100 RPCA instances of seeds 0-4 and on a
rank-4 60x40 and 40x60 instance (one of each orientation of a non-square
matrix), and an engine run of ``RpcaBlockProblem`` on a 12x10 instance.

``--compare`` requires equal iteration counts and report numbers n.  The
L_rho, merit and objective columns must agree to 1e-12 relative, entry by
entry.  Every other array (final iterates, recheck violation) and report
column (feasibility, steps) must satisfy max|a - b| <= R * max(1, max|a|),
with a the old values and R from ``--rtol`` (default 0: bit-equal).  It
prints the worst gap of each kind of value over all runs and exits
nonzero if any check fails.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

REPORT_COLUMNS = ("n", "L_rho", "merit", "feasibility", "objective", "step_x", "step_y", "step_z")
RELATIVE_COLUMNS = ("L_rho", "merit", "objective")
RTOL = 1e-12


def report_table(reports) -> np.ndarray:
    return np.array([r.csv_row() for r in reports], dtype=float)


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
        out[f"{label}/reports"] = report_table(reports)

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
    keep_dcopf("radial141/seed0",
               dcopf.solve_dcopf(radial, tol=0.0, max_iterations=100, recheck=False))

    rpca_runs = [(f"{seed}", 100, 100, 10, seed) for seed in range(5)]
    rpca_runs += [("-60x40", 60, 40, 4, 0), ("-40x60", 40, 60, 4, 0)]
    for tag, m, d, r, seed in rpca_runs:
        config = rpca.RpcaConfig(rows=m, cols=d)
        instance = rpca.generate_instance(m, d, r, 0.05, 1e-2, seed=seed)
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
    return out


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Worst entrywise |a - b| / max(|a|, |b|), 0 where both are 0."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0, scale, 1.0), initial=0.0))


def scaled_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| / max(1, max|a|) over the entries that are not NaN in
    both; infinite if the NaNs sit in different places."""
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return np.inf
    a, b = a[~nan], b[~nan]
    return float(np.max(np.abs(a - b), initial=0.0) / max(1.0, np.max(np.abs(a), initial=0.0)))


def compare(old: dict, new: dict, rtol: float = 0.0) -> tuple[list[str], dict]:
    """Differences beyond the tolerances, and the worst gap of each kind of
    value as kind -> (gap, run)."""
    problems = []
    worst = {}
    if sorted(old) != sorted(new):
        return [f"different runs: {sorted(set(old) ^ set(new))}"], worst

    def check(run, kind, gap, limit):
        if gap > worst.get(kind, (-1.0,))[0]:
            worst[kind] = (gap, run)
        if not gap <= limit:
            problems.append(f"{run} {kind}: gap {gap:.2e} exceeds {limit:.0e}")

    for key in sorted(old):
        run, kind = key.rsplit("/", 1)
        a, b = old[key], new[key]
        if a.shape != b.shape:
            problems.append(f"{key}: shape {a.shape} vs {b.shape}")
        elif kind == "iterations":
            if not np.array_equal(a, b):
                problems.append(f"{key}: {a} vs {b} iterations")
        elif kind != "reports":
            check(run, kind, scaled_gap(a, b), rtol)
        else:
            for k, column in enumerate(REPORT_COLUMNS):
                if column == "n":
                    check(run, column, scaled_gap(a[:, k], b[:, k]), 0.0)
                elif column in RELATIVE_COLUMNS:
                    check(run, column, relative_gap(a[:, k], b[:, k]), RTOL)
                else:
                    check(run, column, scaled_gap(a[:, k], b[:, k]), rtol)
    return problems, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="directory holding the bpladmm package to run")
    parser.add_argument("--compare", action="store_true", help="compare two saved answer files")
    parser.add_argument("--rtol", type=float, default=0.0, metavar="R",
                        help="allowed max|a - b| / max(1, max|a|) of iterates, feasibility "
                             "and steps (default 0: bit-equal)")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (dict(np.load(f)) for f in args.files)
        problems, worst = compare(old, new, args.rtol)
        runs = len({k.rsplit("/", 1)[0] for k in old})
        for kind, (gap, run) in sorted(worst.items()):
            print(f"{kind}: worst gap {gap:.2e} ({run})")
        for line in problems:
            print("DIFF", line)
        print(f"{runs} runs compared: {'same answers' if not problems else 'DIFFERENT'}")
        return 1 if problems else 0
    np.savez(args.files[0], **collect(args.src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
