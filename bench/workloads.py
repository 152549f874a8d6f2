"""The three benchmark workloads: their inputs, solver calls and output checks.

Every workload solves a fixed table of inputs plus one input drawn from the
benchmark seed.  The table keeps the work of a pass nearly the same for
every seed (iteration counts of converging solves vary by up to 2x between
inputs); the seeded input keeps each seed exercising inputs of its own.
Solves go through the same public entry points ``bpladmm.cli`` calls per
seed, and the library receives only the generated inputs.
"""

import csv
import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bpladmm import cli, dcopf, matpower, rpca

from radial import radial_case_text

SEEDED_OFFSET = 1000  # keeps the seeded input apart from the fixed table


@dataclass
class Item:
    """One input of a workload; ``args`` is whatever its solve needs."""

    label: str
    args: tuple


@dataclass
class Outcome:
    """What one solve produced: work done, answer fields, failed checks.

    ``answer`` holds the deterministic quality fields; the same input must
    give the same answer on every pass.
    """

    sweeps: dict
    answer: tuple
    problems: list = field(default_factory=list)


def merit_nonincreasing(reports) -> bool:
    """Merit monotonicity from sweep 1 on, with acceptance criterion 5's slack."""
    merits = [r.merit for r in reports]
    if len(merits) < 3:
        return True
    slack = 1e-8 * (1.0 + abs(merits[1]))
    return all(later - earlier <= slack for earlier, later in zip(merits[1:], merits[2:]))


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class RpcaDesk:
    """The paper's desk-scale table: 100x100, r = 10, s = 0.05, noise 1e-2.

    One solve is one seed as the CLI runs it: BPL-ADMM and the admm3
    baseline on the same instance, at the default tolerance 1e-6.
    """

    name = "rpca-desk"
    unreported_runs = 0
    size, rank, sparsity, noise = 100, 10, 0.05, 1e-2
    table_seeds = tuple(range(10))
    re_band = (1.0e-2, 1.9e-2)  # acceptance criterion 6

    def setup(self, seed: int) -> tuple[list[Item], dict]:
        config = rpca.RpcaConfig(rows=self.size, cols=self.size, noise=self.noise)
        seeds = self.table_seeds + (SEEDED_OFFSET + seed,)
        items = []
        for instance_seed in seeds:
            instance = rpca.generate_instance(
                self.size, self.size, self.rank, self.sparsity, self.noise, instance_seed
            )
            items.append(Item(f"instance {instance_seed}",
                              (instance, config, instance_seed + cli.INIT_SEED_OFFSET)))
        info = {"shape": [self.size, self.size], "rank": self.rank, "sparsity": self.sparsity,
                "noise": self.noise, "tolerance": config.tolerance, "instance_seeds": list(seeds)}
        return items, info

    def solve(self, item: Item):
        instance, config, init_seed = item.args
        return (rpca.bpl_admm_rpca(instance, config, init_seed),
                rpca.admm3_baseline(instance, config, init_seed))

    def check(self, item: Item, result) -> Outcome:
        bpl, admm3 = result
        problems = []
        for label, solution in (("bpl", bpl), ("admm3", admm3)):
            if not solution.converged:
                problems.append(f"{label} did not converge")
            if solution.rank_L != self.rank:
                problems.append(f"{label} rank {solution.rank_L} != {self.rank}")
            if not self.re_band[0] <= solution.relative_error <= self.re_band[1]:
                problems.append(f"{label} RE {solution.relative_error:.4e} outside {self.re_band}")
        # admm3 runs outside the parameter gates, so only BPL carries a descent guarantee
        if not merit_nonincreasing(bpl.reports):
            problems.append("bpl merit increased")
        answer = tuple((s.relative_error, s.iterations, s.rank_L, s.sparsity_S, s.converged)
                       for s in (bpl, admm3))
        return Outcome({"bpl": bpl.iterations, "admm3": admm3.iterations}, answer, problems)

    quality_name = "rpca.re_mean"

    def quality(self, outcomes: list[Outcome]) -> float:
        """rpca.re_mean: mean relative error of the BPL solves."""
        return float(np.mean([o.answer[0][0] for o in outcomes if o.answer is not None]))

    def cross_check(self, item: Item, answer: tuple, out_dir) -> list[str]:
        instance_seed = item.args[2] - cli.INIT_SEED_OFFSET
        code = _quiet_cli([
            "rpca-bench", "--size", str(self.size), str(self.size), "--rank", str(self.rank),
            "--sparsity", repr(self.sparsity), "--noise", repr(self.noise),
            "--seed-list", str(instance_seed), "--jobs", "1", "--no-timing", "--out", str(out_dir),
        ])
        if code != 0:
            return [f"rpca-bench exited with {code}"]
        problems = []
        rows = {row["algorithm"]: row for row in _read_rows(os.path.join(out_dir, "rpca_runs.csv"))}
        for name, mine in zip(("bpl-admm", "admm3"), answer):
            row = rows[name]
            theirs = (float(row["RE"]), int(row["iterations"]), int(row["rank_L_hat"]),
                      int(row["sparsity_S_hat"]), row["converged"] == "1")
            if theirs != mine:
                problems.append(f"CLI {name} row {theirs} != benchmark {mine}")
        return problems


class DcOpfTwoBus:
    """The two-bus fixture (gamma 80, eta 1e5, max_iter 20000) as in
    acceptance criterion 8: the canonical run plus jitter-0.1 runs, each
    followed by the frozen-u recheck."""

    name = "dcopf-2bus"
    unreported_runs = 1  # the frozen-u recheck
    max_iterations = 20000
    jitter = 0.1
    table_jitter_seeds = tuple(range(5))

    def setup(self, seed: int) -> tuple[list[Item], dict]:
        case = dcopf.two_bus_fixture()
        problem = dcopf.build_problem(case)
        if problem.p != dcopf.expected_row_count(case):
            raise RuntimeError(f"two-bus p = {problem.p} != {dcopf.expected_row_count(case)}")
        # the CLI's canonical run is seed 0 without jitter
        items = [Item("canonical", (case, 0.0, 0))]
        for jitter_seed in self.table_jitter_seeds + (SEEDED_OFFSET + seed,):
            items.append(Item(f"jitter seed {jitter_seed}", (case, self.jitter, jitter_seed)))
        return items, {"gamma": case.gamma, "eta": case.eta, "max_iterations": self.max_iterations,
                       "p": problem.p, **problem_size(problem)}

    def solve(self, item: Item):
        case, jitter, seed = item.args
        return dcopf.solve_dcopf(case, max_iterations=self.max_iterations,
                                 init_jitter=jitter, seed=seed)

    def check(self, item: Item, solution) -> Outcome:
        problems = []
        distance = np.minimum(np.abs(solution.u), np.abs(solution.u - 1.0))
        if not np.all(distance <= 1e-2):
            problems.append(f"u {solution.u.tolist()} not within 1e-2 of {{0, 1}}")
        if not solution.rounded_feasible:
            problems.append(f"rounded placement infeasible (violation {solution.rounded_violation})")
        if not solution.converged:
            problems.append("did not converge")
        if not merit_nonincreasing(solution.reports):
            problems.append("merit increased")
        return Outcome({"engine": solution.iterations}, dcopf_answer(solution), problems)

    quality_name = "dcopf.objective_rounded"

    def quality(self, outcomes: list[Outcome]) -> float:
        """dcopf.objective_rounded: mean OPF1 objective at the rounded placements."""
        return float(np.mean([o.answer[0] for o in outcomes if o.answer is not None]))

    def cross_check(self, item: Item, answer: tuple, out_dir) -> list[str]:
        _, jitter, seed = item.args
        code = _quiet_cli([
            "dcopf", "--fixture", "2bus", "--seed-list", str(seed), "--jitter", repr(jitter),
            "--max-iter", str(self.max_iterations), "--jobs", "1", "--no-timing",
            "--out", str(out_dir),
        ])
        if code != 0:
            return [f"dcopf exited with {code}"]
        (row,) = _read_rows(os.path.join(out_dir, "dcopf_runs.csv"))
        theirs = tuple(float(row[k]) for k in DCOPF_ANSWER_FIELDS[:5]) + (
            row["rounded_feasible"] == "1", int(row["iterations"]), row["converged"] == "1")
        if theirs != answer:
            return [f"CLI row {theirs} != benchmark {answer}"]
        return []


class DcOpfRadial141:
    """A seeded synthetic radial feeder with N = 141 (p = 1550), loaded
    through MATPOWER text, run for a fixed number of sweeps.

    The stop tolerance 0 cannot be reached and the recheck is off: the
    workload measures sweeps on dense p x 4 blocks, not convergence.  The
    table is one reference feeder whose final merit and feasibility must
    match ``reference.json``.
    """

    name = "dcopf-radial141"
    unreported_runs = 0
    num_buses = 141
    sweeps = 100
    reference_feeder_seed = 0
    reference_rtol = 1e-9

    def __init__(self):
        self.reference = json.loads((Path(__file__).parent / "reference.json").read_text())
        recorded = (self.reference["feeder_seed"], self.reference["N"], self.reference["sweeps"])
        if recorded != (self.reference_feeder_seed, self.num_buses, self.sweeps):
            raise RuntimeError(f"reference.json was recorded for (seed, N, sweeps) = {recorded}")

    def setup(self, seed: int) -> tuple[list[Item], dict]:
        items = []
        info = {"N": self.num_buses, "sweeps": self.sweeps, "feeders": []}
        for feeder_seed in (self.reference_feeder_seed, SEEDED_OFFSET + seed):
            text = radial_case_text(self.num_buses, feeder_seed)
            case = matpower.to_dcopf_case(matpower.parse_case(text))
            problem = dcopf.build_problem(case)
            expected = 9 * self.num_buses + 2 * len(case.lines) + 1
            if problem.p != expected or problem.p != dcopf.expected_row_count(case):
                raise RuntimeError(f"feeder {feeder_seed}: p = {problem.p}, expected {expected}")
            info["feeders"].append({"seed": feeder_seed, "N": case.num_buses,
                                    "edges": len(case.lines), "p": problem.p,
                                    **problem_size(problem)})
            items.append(Item(f"feeder seed {feeder_seed}", (case, feeder_seed)))
        info.update({k: info["feeders"][-1][k] for k in ("p", "edges", "A_nonzeros", "A_bytes")})
        return items, info

    def solve(self, item: Item):
        case, _ = item.args
        return dcopf.solve_dcopf(case, tol=0.0, max_iterations=self.sweeps, recheck=False)

    def check(self, item: Item, solution) -> Outcome:
        problems = []
        arrays = (solution.pv, solution.gen, solution.theta, solution.u, solution.y, solution.z)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append("non-finite iterate")
        if solution.iterations != self.sweeps:
            problems.append(f"ran {solution.iterations} sweeps, expected {self.sweeps}")
        if not merit_nonincreasing(solution.reports):
            problems.append("merit increased")
        final = {"final_merit": solution.reports[-1].merit,
                 "final_feasibility": solution.feasibility_residual}
        if item.args[1] == self.reference_feeder_seed:
            for key, value in final.items():
                expected = self.reference[key]
                if not math.isclose(value, expected, rel_tol=self.reference_rtol, abs_tol=0.0):
                    problems.append(f"{key} {value!r} != reference {expected!r}")
        answer = (final["final_merit"], final["final_feasibility"]) + dcopf_answer(solution)
        return Outcome({"engine": solution.iterations}, answer, problems)

    quality_name = "dcopf.reference_feasibility"

    def quality(self, outcomes: list[Outcome]) -> float:
        """Final feasibility residual of the reference feeder."""
        return float(outcomes[0].answer[1]) if outcomes[0].answer is not None else math.nan

    # the dcopf CLI always runs the frozen-u recheck, which does not
    # converge on this feeder, so there is no CLI run to compare against
    cross_check = None


DCOPF_ANSWER_FIELDS = ("objective_opf1_rounded", "objective_opf1_raw", "objective_relaxed",
                       "binary_violation", "feasibility_residual", "rounded_feasible",
                       "iterations", "converged")


def dcopf_answer(solution) -> tuple:
    return tuple(getattr(solution, k) for k in DCOPF_ANSWER_FIELDS)


def problem_size(problem) -> dict:
    """Nonzeros and bytes of the dense A_i blocks, computed from array sizes."""
    return {"A_nonzeros": int(sum(np.count_nonzero(a) for a in problem.A)),
            "A_bytes": int(sum(a.nbytes for a in problem.A))}


WORKLOADS = {cls.name: cls for cls in (RpcaDesk, DcOpfTwoBus, DcOpfRadial141)}
