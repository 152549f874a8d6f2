"""Command line front end for the benchmark experiments.

Subcommands:
  rpca-bench    seeded matrix-decomposition benchmark of the Bregman
                proximal solver against the three-block baseline
  dcopf         solve a power flow placement case (built-in fixture or a
                MATPOWER file)
  verify-trace  check that a dumped iteration trace has nonincreasing merit

Machine-readable CSVs carry full double precision; the stdout tables use
4-decimal E notation.  With ``--no-timing`` the wall-time columns are
written as 0.0 so that identical manifests produce byte-identical files.
"""

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, fields, replace
from functools import partial

import numpy as np

from . import dcopf as dcopf_app
from . import engine, matpower, rpca

# decorrelates the solver's random initialization stream from the
# instance-generation stream when both derive from the same seed
INIT_SEED_OFFSET = 500_000_011

RPCA_RUN_FIELDS = (
    "seed",
    "algorithm",
    "time_seconds",
    "RE",
    "iterations",
    "rank_L_hat",
    "sparsity_S_hat",
    "converged",
)
RPCA_SUMMARY_FIELDS = (
    "gamma_noise",
    "r",
    "s",
    "algorithm",
    "time_seconds",
    "RE",
    "iterations",
    "rank_L_hat",
    "sparsity_S_hat",
    "rank_L_O",
    "sparsity_S_O",
)
TRACE_FIELDS = tuple(field.name for field in fields(engine.IterationReport))
DCOPF_RUN_FIELDS = (
    "seed",
    "objective_opf1_rounded",
    "objective_opf1_raw",
    "objective_relaxed",
    "binary_violation",
    "feasibility_residual",
    "rounded_feasible",
    "iterations",
    "time_seconds",
    "converged",
)


class UsageError(Exception):
    pass


class TraceError(Exception):
    """A trace that verify-trace cannot check: a column, a number or any row is missing."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, fields, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _resolve_seeds(args, default=()) -> list[int]:
    """The requested seeds (``default`` when neither seed flag is given);
    rejects an empty or malformed seed list and a ``--jobs`` below 1."""
    if args.seed_list is not None:
        tokens = [tok.strip() for tok in args.seed_list.split(",") if tok.strip()]
        for tok in tokens:
            if not tok.isdecimal():
                raise UsageError(f"--seed-list entry {tok!r} is not a non-negative integer")
        seeds = [int(tok) for tok in tokens]
    elif args.seeds is not None:
        seeds = list(range(args.seeds))
    else:
        seeds = list(default)
    if not seeds:
        raise UsageError("seed list is empty; give --seeds K or --seed-list")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    return seeds


def _check_finite_non_negative(flag: str, value) -> None:
    """Reject a flag value that is negative or not finite (NaN included)."""
    if value is not None and not 0.0 <= value < np.inf:
        raise UsageError(f"{flag} must be finite and non-negative, got {value}")


def _map_seeds(worker, seeds, jobs) -> list:
    """``worker(seed)`` for each seed, in the order of ``seeds``; in a pool
    of ``min(jobs, len(seeds))`` processes when that is more than one."""
    if jobs > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            return list(pool.map(worker, seeds))
    return [worker(seed) for seed in seeds]


def _given(args, **flags) -> dict:
    """Library keyword -> value of the flag (an ``args`` attribute) named
    for it, for the flags the user gave; the library owns the defaults."""
    return {key: getattr(args, flag) for key, flag in flags.items()
            if getattr(args, flag) is not None}


def _add_common_flags(parser):
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", type=int, default=None, help="use seeds 0..K-1")
    seeds.add_argument("--seed-list", default=None, help="comma separated explicit seeds")
    parser.add_argument("--tol", type=float, help="stop tolerance")
    parser.add_argument("--max-iter", type=int, help="iteration cap")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel runs (default: core count)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--dump-trace", action="store_true",
                        help="write per-iteration trace CSVs")
    parser.add_argument("--allow-maxiter", action="store_true",
                        help="exit 0 even when runs stop at the iteration cap")
    parser.add_argument("--no-timing", action="store_true",
                        help="write 0.0 wall times for byte-reproducible output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bpladmm")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rpca = sub.add_parser("rpca-bench", help="seeded RPCA benchmark")
    p_rpca.add_argument("--size", type=int, nargs=2, default=[100, 100],
                        metavar=("M", "D"), help="matrix shape")
    p_rpca.add_argument("--rank", type=int, default=10, help="ground truth rank")
    p_rpca.add_argument("--sparsity", type=float, default=0.05,
                        help="ground truth sparsity ratio")
    p_rpca.add_argument("--noise", type=float, help="noise level")
    p_rpca.add_argument("--rho", type=float, help="penalty (default just above 2*gamma)")
    p_rpca.add_argument("--alpha", type=float)
    p_rpca.add_argument("--gamma", type=float)
    _add_common_flags(p_rpca)

    p_dcopf = sub.add_parser("dcopf", help="solve a placement case")
    src = p_dcopf.add_mutually_exclusive_group(required=True)
    src.add_argument("--case", default=None, help="MATPOWER .m case file")
    src.add_argument("--fixture", choices=["2bus"], default=None,
                     help="built-in case")
    p_dcopf.add_argument("--rho", type=float, help="penalty (default just above 2*eta)")
    p_dcopf.add_argument("--alpha", type=float)
    p_dcopf.add_argument("--gamma", type=float)
    p_dcopf.add_argument("--eta", type=float,
                         help="slack penalty (the fixture's and the case files' defaults differ)")
    p_dcopf.add_argument("--jitter", type=float, help="uniform init perturbation per seed")
    _add_common_flags(p_dcopf)

    p_verify = sub.add_parser("verify-trace", help="check a trace's merit column")
    p_verify.add_argument("trace", help="trace CSV written with --dump-trace")
    return parser


def _rpca_one_seed(config, rank, sparsity, out_dir, dump, seed):
    """Run both algorithms on one seeded instance; returns one
    ``RPCA_RUN_FIELDS`` row per algorithm."""
    instance = rpca.generate_instance(config.rows, config.cols, rank, sparsity, config.noise, seed)
    rows = []
    for name, solver in (("bpl-admm", rpca.bpl_admm_rpca), ("admm3", rpca.admm3_baseline)):
        solution = solver(instance, config, seed + INIT_SEED_OFFSET)
        if dump:
            path = os.path.join(out_dir, f"trace_rpca_{name}_seed{seed}.csv")
            _write_csv(path, TRACE_FIELDS, map(astuple, solution.reports))
        rows.append([seed, name, solution.wall_time, solution.relative_error,
                     solution.iterations, solution.rank_L, solution.sparsity_S,
                     solution.converged])
    return rows


def cmd_rpca_bench(args) -> int:
    seeds = _resolve_seeds(args)
    (m, d), r, s = args.size, args.rank, args.sparsity
    if not 1 <= r <= min(m, d):
        raise UsageError(f"rank {r} out of range for a {m}x{d} matrix")
    if not 0.0 < s < 1.0:
        raise UsageError(f"sparsity ratio {s} must lie in (0, 1)")
    _check_finite_non_negative("--noise", args.noise)
    config = rpca.RpcaConfig(rows=m, cols=d, **_given(
        args, noise="noise", gamma="gamma", alpha="alpha", rho="rho", tolerance="tol",
        max_iterations="max_iter"))
    engine.validate_parameters(config.solver_params())

    os.makedirs(args.out, exist_ok=True)
    worker = partial(_rpca_one_seed, config, r, s, args.out, args.dump_trace)
    run_rows = [row for rows in _map_seeds(worker, seeds, args.jobs) for row in rows]
    if args.no_timing:
        for row in run_rows:
            row[2] = 0.0
    _write_csv(os.path.join(args.out, "rpca_runs.csv"), RPCA_RUN_FIELDS, run_rows)

    summary_rows = []
    print(f"{'algorithm':>10} {'time':>10} {'RE':>12} {'iter':>8} {'rank':>7} {'sparsity':>10}")
    for name in ("bpl-admm", "admm3"):
        # time, RE, iterations, rank and sparsity, averaged over the seeds
        means = np.array([row[2:7] for row in run_rows if row[1] == name], dtype=float).mean(axis=0)
        summary_rows.append([config.noise, r, s, name, *means, r, int(round(s * m * d))])
        print(
            f"{name:>10} {means[0]:>10.4E} {means[1]:>12.4E} "
            f"{means[2]:>8.1f} {means[3]:>7.2f} {means[4]:>10.1f}"
        )
    _write_csv(os.path.join(args.out, "rpca_summary.csv"), RPCA_SUMMARY_FIELDS, summary_rows)
    all_converged = all(row[7] for row in run_rows)
    return 0 if (all_converged or args.allow_maxiter) else 1


def _dcopf_one_seed(case, settings, out_dir, dump, seed):
    solution = dcopf_app.solve_dcopf(case, seed=seed, **settings)
    if dump:
        path = os.path.join(out_dir, f"trace_dcopf_seed{seed}.csv")
        _write_csv(path, TRACE_FIELDS, map(astuple, solution.reports))
    return solution


def cmd_dcopf(args) -> int:
    if args.fixture == "2bus":
        case = dcopf_app.two_bus_fixture()
    else:
        with open(args.case, encoding="utf-8") as fh:
            text = fh.read()
        case = matpower.to_dcopf_case(matpower.parse_case(text))
    try:  # the case is valid, so only --eta and --gamma can fail here
        case = replace(case, **_given(args, gamma="gamma", eta="eta"))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    seeds = _resolve_seeds(args, default=[0])  # one canonical run unless seeds are requested
    _check_finite_non_negative("--jitter", args.jitter)
    solver_settings = _given(args, rho="rho", alpha="alpha", tol="tol",
                             max_iterations="max_iter")
    engine.validate_parameters(dcopf_app.solver_params_for(case, **solver_settings))

    os.makedirs(args.out, exist_ok=True)
    worker = partial(_dcopf_one_seed, case, solver_settings | _given(args, init_jitter="jitter"),
                     args.out, args.dump_trace)
    solutions = _map_seeds(worker, seeds, args.jobs)
    times = np.array([0.0 if args.no_timing else sol.wall_time for sol in solutions])

    run_rows = [
        [seed, sol.objective_opf1_rounded, sol.objective_opf1_raw, sol.objective_relaxed,
         sol.binary_violation, sol.feasibility_residual, bool(sol.rounded_feasible),
         sol.iterations, wall, sol.converged]
        for seed, sol, wall in zip(seeds, solutions, times.tolist())
    ]
    _write_csv(os.path.join(args.out, "dcopf_runs.csv"), DCOPF_RUN_FIELDS, run_rows)

    best = min(solutions, key=lambda sol: sol.objective_opf1_rounded)
    bus_rows = [
        [i, best.u_rounded[i], best.u[i], best.pv[i], best.gen[i], best.theta[i]]
        for i in range(len(best.u))
    ]
    _write_csv(os.path.join(args.out, "dcopf_solution.csv"),
               ("bus", "u_rounded", "u", "P_pv", "P_gen", "theta"), bus_rows)

    objectives = np.array([sol.objective_opf1_rounded for sol in solutions])
    iterations = np.array([sol.iterations for sol in solutions], dtype=float)
    _write_csv(
        os.path.join(args.out, "dcopf_summary.csv"),
        ("mean_objective", "best_objective", "mean_iterations", "mean_time_seconds", "runs"),
        [[objectives.mean(), objectives.min(), iterations.mean(), times.mean(), len(solutions)]],
    )
    print(
        f"objective mean {objectives.mean():.4E} best {objectives.min():.4E} "
        f"iterations mean {iterations.mean():.1f} "
        f"rounded-u feasible {all(bool(sol.rounded_feasible) for sol in solutions)}"
    )
    all_converged = all(sol.converged for sol in solutions)
    return 0 if (all_converged or args.allow_maxiter) else 1


def cmd_verify_trace(args) -> int:
    with open(args.trace, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in ("n", "merit") if name not in (reader.fieldnames or ())]
        if missing:
            raise TraceError(f"{args.trace} has no {' or '.join(missing)} column")
        try:
            rows = [(int(row["n"]), float(row["merit"])) for row in reader]
        except (TypeError, ValueError) as exc:  # a short row reads as None
            raise TraceError(f"{args.trace} line {reader.line_num}: {exc}") from exc
    if not rows:
        raise TraceError(f"{args.trace} has no rows")
    for (earlier, _), (later, _) in zip(rows, rows[1:]):
        if later <= earlier:
            raise TraceError(f"{args.trace} has n = {later} after n = {earlier}; "
                             "n must strictly increase")
    if not np.isfinite([merit for _, merit in rows]).all():
        raise TraceError(f"{args.trace} has a merit that is not finite")
    # the first row is the run's starting report, which the merit rule skips
    increases = engine.merit_increases(rows)
    for n, increase in increases:
        print(f"merit increased by {increase:.6e} at n = {n}")
    if increases:
        print(f"FAIL: {len(increases)} merit increases beyond slack scale "
              f"{engine.MERIT_SLACK_SCALE:g}")
        return 1
    print(f"OK: merit nonincreasing over {len(rows) - 1} sweeps "
          f"(slack scale {engine.MERIT_SLACK_SCALE:g})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rpca-bench":
            return cmd_rpca_bench(args)
        if args.command == "dcopf":
            return cmd_dcopf(args)
        if args.command == "verify-trace":
            return cmd_verify_trace(args)
    except (UsageError, engine.ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # reading --case or a trace
    except (matpower.MatpowerParseError, TraceError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
