"""Check that two checkouts of the library give the same answers.

Runs a fixed set of solves with the ``bpladmm`` found under ``--src`` and
saves their final iterates, iteration counts and report columns:

    python3 tools/same_answers.py --src path/to/old/src old.npz
    python3 tools/same_answers.py --src src new.npz
    python3 tools/same_answers.py --compare old.npz new.npz

The solves are the two-bus fixture (canonical run and jitter-0.1 seeds
0-4, 20000 sweeps at most, with the frozen-u recheck), 100 fixed sweeps on
the seeded radial 141-bus feeder of ``bench/radial.py`` (feeder seed 0),
BPL-ADMM and admm3 on the 100x100 RPCA instances of seeds 0-4, and an
engine run of ``RpcaBlockProblem`` on a 12x10 instance.  ``--compare``
requires equal iteration counts, bit-equal final iterates, feasibility
and step columns, and L_rho, merit and objective columns equal to 1e-12
relative; it exits nonzero on the first difference it reports.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

REPORT_COLUMNS = ("L_rho", "merit", "feasibility", "objective", "step_x", "step_y", "step_z")
EXACT_COLUMNS = ("n", "feasibility", "step_x", "step_y", "step_z")
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

    config = rpca.RpcaConfig(rows=100, cols=100)
    for seed in range(5):
        instance = rpca.generate_instance(100, 100, 10, 0.05, 1e-2, seed=seed)
        for name, solver in (("bpl", rpca.bpl_admm_rpca), ("admm3", rpca.admm3_baseline)):
            sol = solver(instance, config, seed + cli.INIT_SEED_OFFSET)
            keep(f"rpca/{name}{seed}", [sol.L, sol.S], sol.T, sol.Z, sol.iterations, sol.reports)

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


def compare(old: dict, new: dict) -> list[str]:
    problems = []
    if sorted(old) != sorted(new):
        return [f"different runs: {sorted(set(old) ^ set(new))}"]
    for key in sorted(old):
        a, b = old[key], new[key]
        if not key.endswith("/reports"):
            if not np.array_equal(a, b, equal_nan=True):
                problems.append(f"{key}: not bit-equal")
            continue
        if a.shape != b.shape:
            problems.append(f"{key}: {a.shape[0]} vs {b.shape[0]} reports")
            continue
        for k, column in enumerate(("n",) + REPORT_COLUMNS):
            if column in EXACT_COLUMNS:
                if not np.array_equal(a[:, k], b[:, k]):
                    problems.append(f"{key}: column {column} not bit-equal")
                continue
            gap = np.abs(a[:, k] - b[:, k])
            scale = np.maximum(np.abs(a[:, k]), np.abs(b[:, k]))
            worst = float(np.max(gap / np.where(scale > 0, scale, 1.0)))
            print(f"{key} {column}: worst relative gap {worst:.2e}")
            if worst > RTOL:
                problems.append(f"{key}: column {column} differs by {worst:.2e} relative")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="directory holding the bpladmm package to run")
    parser.add_argument("--compare", action="store_true", help="compare two saved answer files")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (dict(np.load(f)) for f in args.files)
        problems = compare(old, new)
        runs = len({k.rsplit("/", 1)[0] for k in old})
        for line in problems:
            print("DIFF", line)
        print(f"{runs} runs compared: {'same answers' if not problems else 'DIFFERENT'}")
        return 1 if problems else 0
    np.savez(args.files[0], **collect(args.src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
