"""Generic multi-block splitting iteration with Bregman proximal x steps.

The engine minimizes

    sum_i f_i(x_i) + H(y) + P(x) - G(x)   s.t.   sum_i A_i x_i + B y = b

over block variables x_1..x_m and y, where the f_i may be nonsmooth and
nonconvex, H and P are smooth, and G is weakly convex.  Each sweep
linearizes P and G at the current point, updates the x blocks in
Gauss-Seidel order by exact subproblem oracles supplied with the problem,
updates y, and then takes a multiplier ascent step:

    x_{i,n+1} = argmin f_i(x_i) + <grad_i P(x_n) - g_{i,n}, x_i>
                + <z_n, A_i x_i> + (rho/2)||A u_i(x_i) + B y_n - b||^2
                + mu D_phi(x_i, x_{i,n})
    y_{n+1}   = argmin H(y) + <z_n, B y> + (rho/2)||A x_{n+1} + B y - b||^2
    z_{n+1}   = z_n + rho (A x_{n+1} + B y_{n+1} - b)

with g_n a subgradient of G at x_n, u_i(x_i) the Gauss-Seidel splice of
fresh earlier blocks, x_i, and stale later blocks, and the proximal kernel
phi = (alpha/2)||.||^2 with alpha = ``strong_convexity``.  The y step has
no proximal term.

Validity of (mu, rho) is gated by ``validate_parameters``; a valid run
drives the merit function, which without a y-proximal term is the
augmented Lagrangian itself,

    merit_n = L_rho(x_n, y_n, z_n),

downhill by at least delta_x ||x_{n+1}-x_n||^2 + delta_y ||y_{n+1}-y_n||^2
per sweep, which the engine monitors at runtime.

Each block couples only through the rows of the constraint space where
A_i is nonzero.  ``BlockProblem.block_rows(i)`` names them (every row by
default); ``apply_A(i, .)`` returns A_i x on those rows only, and
``apply_A_transpose(i, .)`` takes a vector on those rows.  The state
carries its residual A x + B y - b from sweep to sweep; a block update
reads and rewrites it on the block's rows alone, so it costs the size of
the block's support rather than the size of the constraint space.

The x iterate is one array of shape (m, *block_shape): every block has the
same shape, and block i is ``x[i]``.  The blocks are still updated one at a
time in Gauss-Seidel order, but the per-sweep bookkeeping around them (the
linearization grad P(x_n) - g_n, the step and iterate norms, the objective
through ``BlockProblem.eval_f_sum`` and the finite check of the oracle
outputs) is one array operation per sweep instead of one per block.
"""

import csv
import math
import time
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .spaces import BregmanGenerator, bregman_distance, scaled_squared_norm, stacked_norm

STOP_SHIFTED = "shifted"  # ||delta|| / (||iterate|| + 1) <= tol
STOP_RELATIVE = "relative"  # ||delta|| / ||iterate|| < tol

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_ORACLE_FAILURE = "oracle_failure"


class ParameterError(ValueError):
    """A solver parameter violates its admissible range."""


class BlockOracleError(RuntimeError):
    """A block subproblem oracle raised or returned non-finite values;
    carries the offending block and the iteration it was computing."""

    def __init__(self, block: str, iteration: int, cause: Exception):
        super().__init__(f"{block} oracle failed at iteration {iteration}: {cause}")
        self.block = block
        self.iteration = iteration
        self.cause = cause


@dataclass(slots=True)
class XBlockContext:
    """Everything an x-block oracle needs for one exact subproblem solve.

    ``partial_residual`` is sum_{k<i} A_k x_{k,n+1} + sum_{k>i} A_k x_{k,n}
    + B y_n - b; it excludes exactly block i's own contribution, so the
    subproblem's coupling term is (rho/2)||A_i x_i + partial_residual||^2.
    ``partial_residual`` and ``multiplier`` (z_n) hold only the rows
    ``block_rows(block_index)``, the rows ``apply_A`` returns; the rows
    outside add a constant the minimizer does not depend on.
    ``linear_term`` is grad_i P(x_n) - g_{i,n}; ``bregman`` is the proximal
    kernel (alpha/2)||.||^2, weighted by ``mu``.

    One context is built per block and sweep, so it is a plain slotted
    dataclass (a frozen one costs several times more to build); oracles
    must treat it as read-only.
    """

    block_index: int
    current_iterate: np.ndarray
    linear_term: np.ndarray
    multiplier: np.ndarray
    partial_residual: np.ndarray
    rho: float
    mu: float
    bregman: BregmanGenerator


@dataclass(frozen=True)
class YBlockContext:
    """Inputs of the y subproblem; ``x_residual`` is A x_{n+1} - b."""

    current_iterate: np.ndarray
    multiplier: np.ndarray
    x_residual: np.ndarray
    rho: float


class BlockProblem(ABC):
    """A problem instance: block spaces, operators, and subproblem oracles.

    Subclasses must set ``block_shapes`` (one shape per x block, all of them
    equal), ``y_shape`` and ``rhs``, implement the linear operators with
    their adjoints, and supply exact argmin oracles for the block
    subproblems.  The smooth / coupling pieces H, P, G default to zero so
    simple problems only override what they use.

    The engine hands the x iterate to ``eval_f_sum``, ``eval_P``,
    ``grad_P``, ``eval_G`` and ``subgrad_G`` as one array of shape
    (m, *block_shape); the gradients return an array of that shape.
    ``eval_f_sum`` is sum_i f_i(x_i); it defaults to a loop over ``eval_f``
    and is the place to vectorize the objective across blocks.

    ``block_rows(i)`` indexes the constraint-space rows that A_i can make
    nonzero, as a slice or an integer index array without repeats; it
    defaults to every row.  ``apply_A(i, x)`` returns A_i x on those rows
    only, ``apply_A_transpose(i, v)`` takes v on those rows, and an x-block
    oracle receives the partial residual and the multiplier on those rows.
    The engine adds block products into full constraint-space vectors.
    """

    block_shapes: list[tuple]
    y_shape: tuple
    rhs: np.ndarray

    @property
    def num_blocks(self) -> int:
        return len(self.block_shapes)

    def block_rows(self, i: int):
        """Index of the constraint-space rows block i couples through."""
        return slice(None)

    @abstractmethod
    def apply_A(self, i: int, x: np.ndarray) -> np.ndarray:
        """A_i x on the rows ``block_rows(i)`` of the constraint space."""

    @abstractmethod
    def apply_A_transpose(self, i: int, v: np.ndarray) -> np.ndarray:
        """A_i^T v for v on the rows ``block_rows(i)``; lives in block space i."""

    @abstractmethod
    def apply_B(self, y: np.ndarray) -> np.ndarray:
        """B y, living in the constraint space."""

    @abstractmethod
    def apply_B_transpose(self, v: np.ndarray) -> np.ndarray:
        """B^T v, living in the y space."""

    @abstractmethod
    def solve_x_block(self, i: int, ctx: XBlockContext) -> np.ndarray:
        """Exact minimizer of the block-i subproblem described by ``ctx``."""

    @abstractmethod
    def solve_y_block(self, ctx: YBlockContext) -> np.ndarray:
        """Exact minimizer of the y subproblem described by ``ctx``."""

    def eval_f(self, i: int, x: np.ndarray) -> float:
        return 0.0

    def eval_f_sum(self, x: np.ndarray) -> float:
        """sum_i f_i(x_i) over the stacked blocks."""
        return sum(self.eval_f(i, xi) for i, xi in enumerate(x))

    def eval_H(self, y: np.ndarray) -> float:
        return 0.0

    def grad_H(self, y: np.ndarray) -> np.ndarray:
        return np.zeros_like(y)

    def eval_P(self, x: np.ndarray) -> float:
        return 0.0

    def grad_P(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    def eval_G(self, x: np.ndarray) -> float:
        return 0.0

    def subgrad_G(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)


@dataclass(frozen=True)
class SolverParams:
    """Penalty, proximal weight, the constants gating them, and the stop rule.

    ``mu`` weighs the x proximal term mu D_phi with phi = (alpha/2)||.||^2,
    where alpha is ``strong_convexity``; ``lambda_min_BtB`` is the smallest
    eigenvalue of B^T B and must be positive (full column rank of B).
    """

    rho: float
    mu: float = 1.0
    lipschitz_H: float = 0.0
    lipschitz_P: float = 0.0
    weak_convexity_G: float = 0.0
    strong_convexity: float = 1.0
    lambda_min_BtB: float = 1.0
    max_iterations: int = 4000
    stop_tolerance: float = 1e-6
    stop_rule: str = STOP_SHIFTED

    @property
    def delta_x(self) -> float:
        """Guaranteed x descent weight (mu*alpha - l_P - beta)/2."""
        return (self.mu * self.strong_convexity - self.lipschitz_P - self.weak_convexity_G) / 2.0

    @property
    def delta_y(self) -> float:
        """Guaranteed y descent weight lambda*rho/2 - l_H^2/(lambda*rho) - l_H/2."""
        lam_rho = self.lambda_min_BtB * self.rho
        l_h = self.lipschitz_H
        return lam_rho / 2.0 - l_h * l_h / lam_rho - l_h / 2.0


def validate_parameters(params: SolverParams) -> tuple[float, float]:
    """Check the stop rule and the admissibility gates; return (mu bound,
    rho bound) on success.

    Both bounds are strict: a mu or rho sitting exactly at its bound is
    rejected.
    """
    rules = (STOP_SHIFTED, STOP_RELATIVE)
    if params.stop_rule not in rules:
        raise ParameterError(f"stop_rule {params.stop_rule!r} is not one of {rules}")
    if params.strong_convexity <= 0:
        raise ParameterError("strong convexity modulus alpha must be positive")
    if params.lambda_min_BtB <= 0:
        raise ParameterError(
            "B lacks full column rank: lambda_min(B^T B) must be positive, "
            f"got {params.lambda_min_BtB}"
        )
    mu_bound = (params.lipschitz_P + params.weak_convexity_G) / params.strong_convexity
    l_h = params.lipschitz_H
    rho_bound = (l_h + math.sqrt(l_h * l_h + 8.0 * l_h * l_h)) / (2.0 * params.lambda_min_BtB)
    if not params.mu > mu_bound:
        raise ParameterError(
            f"mu = {params.mu} must strictly exceed (l_P + beta)/alpha = {mu_bound}"
        )
    if not params.rho > rho_bound:
        raise ParameterError(
            f"rho = {params.rho} must strictly exceed "
            f"(l_H + sqrt(l_H^2 + 8*l_H^2))/(2*lambda) = {rho_bound}"
        )
    return mu_bound, rho_bound


def smallest_eigenvalue_btb(B: np.ndarray) -> float:
    """Smallest eigenvalue of B^T B via a symmetric eigendecomposition."""
    B = np.asarray(B, dtype=float)
    gram = B.T @ B
    return float(np.linalg.eigvalsh(gram)[0])


@dataclass(frozen=True)
class IterationReport:
    """Scalar diagnostics of one iterate, exportable as a CSV row."""

    n: int
    augmented_lagrangian: float
    merit: float
    feasibility: float
    objective: float
    step_x: float
    step_y: float
    step_z: float

    CSV_FIELDS = ("n", "L_rho", "merit", "feasibility", "objective", "step_x", "step_y", "step_z")

    def csv_row(self) -> list:
        return [
            self.n,
            self.augmented_lagrangian,
            self.merit,
            self.feasibility,
            self.objective,
            self.step_x,
            self.step_y,
            self.step_z,
        ]


@dataclass
class SolverState:
    """Current iterate (x, y, z), its residual A x + B y - b, and the
    report history.

    ``x`` stacks the blocks into one array of shape (m, *block_shape).
    ``step`` updates copies of ``x`` and ``residual`` block by block instead
    of recomputing them, so neither is ever shared with another state.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    residual: np.ndarray
    n: int = 0
    history: list[IterationReport] = field(default_factory=list)


@dataclass
class SolveResult:
    state: SolverState
    reports: list[IterationReport]
    status: str
    iterations: int
    wall_time: float
    merit_increase_count: int = 0
    max_merit_increase: float = 0.0
    oracle_error: BlockOracleError | None = None


def objective_value(problem: BlockProblem, x: np.ndarray, y: np.ndarray) -> float:
    """F(x, y) = sum_i f_i(x_i) + H(y) + P(x) - G(x)."""
    return float(problem.eval_f_sum(x) + problem.eval_H(y) + problem.eval_P(x) - problem.eval_G(x))


def constraint_residual(problem: BlockProblem, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A x + B y - b, each block's product added on its own rows."""
    r = problem.apply_B(y) - problem.rhs
    for i, xi in enumerate(x):
        r[problem.block_rows(i)] += problem.apply_A(i, xi)
    return r


def augmented_lagrangian(
    problem: BlockProblem, rho: float, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> float:
    """F(x, y) + <z, Ax + By - b> + (rho/2)||Ax + By - b||^2."""
    r = constraint_residual(problem, x, y)
    return objective_value(problem, x, y) + float(np.vdot(z, r)) + 0.5 * rho * float(np.vdot(r, r))


def merit(problem: BlockProblem, params: SolverParams, state: SolverState) -> float:
    """The monitored quantity: L_rho at the state (there is no y-displacement term)."""
    return augmented_lagrangian(problem, params.rho, state.x, state.y, state.z)


def _report(
    problem: BlockProblem,
    rho: float,
    state: SolverState,
    residual: np.ndarray,
    previous: SolverState | None = None,
) -> IterationReport:
    """Report of ``state`` given its residual A x + B y - b, with steps
    measured from ``previous`` (zero without one).  The objective is
    evaluated once and L_rho, which is also the merit, is formed from it.
    """
    objective = objective_value(problem, state.x, state.y)
    l_rho = (objective + float(np.vdot(state.z, residual))
             + 0.5 * rho * float(np.vdot(residual, residual)))
    step_x = step_y = step_z = 0.0
    if previous is not None:
        step_x = float(np.linalg.norm(state.x - previous.x))
        step_y = float(np.linalg.norm(state.y - previous.y))
        step_z = float(np.linalg.norm(state.z - previous.z))
    return IterationReport(
        n=state.n, augmented_lagrangian=l_rho, merit=l_rho,
        feasibility=float(np.linalg.norm(residual)), objective=objective,
        step_x=step_x, step_y=step_y, step_z=step_z,
    )


def x_subproblem_value(
    problem: BlockProblem, ctx: XBlockContext, x: np.ndarray
) -> float:
    """Objective of the block subproblem described by ``ctx`` at the point x,
    with the coupling term summed over the block's rows only (the rows
    outside add a constant).

    Useful for testing oracles: an exact oracle's output never evaluates
    worse than any other point, in particular the incumbent iterate.
    """
    coupling = ctx.partial_residual + problem.apply_A(ctx.block_index, x)
    value = (
        problem.eval_f(ctx.block_index, x)
        + float(np.vdot(ctx.linear_term, x))
        + float(np.vdot(ctx.multiplier, problem.apply_A(ctx.block_index, x)))
        + 0.5 * ctx.rho * float(np.vdot(coupling, coupling))
    )
    if ctx.mu != 0.0:
        value += ctx.mu * bregman_distance(ctx.bregman, x, ctx.current_iterate)
    return value


def y_subproblem_value(problem: BlockProblem, ctx: YBlockContext, y: np.ndarray) -> float:
    """Objective of the y subproblem described by ``ctx`` at the point y."""
    coupling = ctx.x_residual + problem.apply_B(y)
    return (
        problem.eval_H(y)
        + float(np.vdot(ctx.multiplier, problem.apply_B(y)))
        + 0.5 * ctx.rho * float(np.vdot(coupling, coupling))
    )


def initial_state(problem: BlockProblem, x, y: np.ndarray, z: np.ndarray) -> SolverState:
    """Package an initial iterate with its residual and an empty report history.

    ``x`` holds the m blocks (a sequence of arrays or an array of shape
    (m, *block_shape)); they are copied into one stacked array, so the
    problem's ``block_shapes`` and the given blocks must all be one shape.
    """
    shapes = [tuple(s) for s in problem.block_shapes]
    given = [np.shape(xi) for xi in x]
    if len(set(shapes)) > 1 or given != shapes:
        raise ValueError(f"x blocks of shapes {given} cannot be stacked for block_shapes "
                         f"{shapes}: the two must match and hold one shape")
    x = np.array(x, dtype=float)
    y = np.asarray(y, dtype=float).copy()
    z = np.asarray(z, dtype=float).copy()
    return SolverState(x=x, y=y, z=z, residual=constraint_residual(problem, x, y), n=0)


def _not_finite(block: str, iteration: int) -> BlockOracleError:
    return BlockOracleError(block, iteration, FloatingPointError("output is not finite"))


def _oracle_output(block: str, iteration: int, oracle, *args) -> np.ndarray:
    """Run one block oracle; a raise or a non-finite output names the block."""
    try:
        out = np.asarray(oracle(*args), dtype=float)
    except Exception as exc:  # noqa: BLE001 - diagnostic must name the block
        raise BlockOracleError(block, iteration, exc) from exc
    if not np.isfinite(out).all():
        raise _not_finite(block, iteration)
    return out


def _first_non_finite_block(x: np.ndarray, iteration: int) -> BlockOracleError | None:
    """The error naming the first block of ``x`` that is not finite, if any."""
    if np.isfinite(x).all():
        return None
    finite = np.isfinite(x).all(axis=tuple(range(1, x.ndim)))
    return _not_finite(f"x-block {int(np.argmin(finite))}", iteration)


def _x_sweep(
    problem: BlockProblem, params: SolverParams, state: SolverState, mu_n: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Seidel pass over the x blocks; returns (x_new, A x_new + B y - b).

    The iterate and the residual start as copies of the state's, and each
    block rewrites its own entry and its own rows.  grad P and the G
    subgradient are evaluated once at the sweep start, not refreshed
    mid-sweep.  The oracle outputs are checked finite once, after the
    sweep; when an oracle raises, the blocks before it are checked first,
    so an error always names the first block that failed.
    """
    linear = problem.grad_P(state.x) - problem.subgrad_G(state.x)
    kernel = scaled_squared_norm(params.strong_convexity)
    iteration = state.n + 1
    residual = state.residual.copy()
    x_new = state.x.copy()
    for i in range(len(x_new)):
        rows = problem.block_rows(i)
        partial = residual[rows] - problem.apply_A(i, x_new[i])
        # positional, in field order: keyword arguments double the build time
        ctx = XBlockContext(i, x_new[i], linear[i], state.z[rows], partial, params.rho, mu_n,
                            kernel)
        try:
            x_new[i] = problem.solve_x_block(i, ctx)
        except Exception as exc:  # noqa: BLE001 - diagnostic must name the block
            earlier = _first_non_finite_block(x_new[:i], iteration)
            raise earlier or BlockOracleError(f"x-block {i}", iteration, exc) from exc
        residual[rows] = partial + problem.apply_A(i, x_new[i])
    failed = _first_non_finite_block(x_new, iteration)
    if failed is not None:
        raise failed
    return x_new, residual


def step(problem: BlockProblem, params: SolverParams, state: SolverState) -> SolverState:
    """One full sweep: x blocks in order, then y, then the multiplier ascent.

    Appends the new iterate's report to the (shared) history list and
    returns the advanced state.
    """
    x_new, residual_xy = _x_sweep(problem, params, state, params.mu)
    x_residual = residual_xy - problem.apply_B(state.y)
    y_ctx = YBlockContext(
        current_iterate=state.y,
        multiplier=state.z,
        x_residual=x_residual,
        rho=params.rho,
    )
    y_new = _oracle_output("y-block", state.n + 1, problem.solve_y_block, y_ctx)
    residual = x_residual + problem.apply_B(y_new)
    z_new = state.z + params.rho * residual

    new_state = SolverState(x=x_new, y=y_new, z=z_new, residual=residual, n=state.n + 1,
                            history=state.history)
    new_state.history.append(_report(problem, params.rho, new_state, residual, state))
    return new_state


def _stop_metric(params: SolverParams, delta: float, base: float) -> bool:
    if params.stop_rule == STOP_SHIFTED:
        return delta / (base + 1.0) <= params.stop_tolerance
    if base == 0.0:
        return delta == 0.0
    return delta / base < params.stop_tolerance


def solve(problem: BlockProblem, params: SolverParams, init: SolverState) -> SolveResult:
    """Iterate ``step`` until the stop rule fires or max_iterations is hit.

    The stop rule compares the norm of the whole step (x, y, z), formed
    from the report's step_x, step_y and step_z, with the norm of the
    iterate the step started from.

    A merit increase beyond 1e-8*(1 + |merit_1|) is a warning, not an error:
    the descent guarantee assumes exact oracles and honest constants, and
    user-supplied constants may be underestimates.  The count and worst
    violation are recorded on the result.
    """
    validate_parameters(params)
    state = init
    if not state.history:
        state.history.append(_report(problem, params.rho, state, state.residual))
    status = STATUS_MAX_ITERATIONS
    oracle_error = None
    merit_increase_count = 0
    max_merit_increase = 0.0
    merit_slack = None
    start = time.perf_counter()
    iterations = 0
    for _ in range(params.max_iterations):
        base = stacked_norm([state.x, state.y, state.z])
        try:
            new_state = step(problem, params, state)
        except BlockOracleError as exc:
            status = STATUS_ORACLE_FAILURE
            oracle_error = exc
            break
        iterations += 1
        report = new_state.history[-1]
        if report.n == 1:
            merit_slack = 1e-8 * (1.0 + abs(report.merit))
        elif merit_slack is not None:
            increase = report.merit - new_state.history[-2].merit
            if increase > merit_slack:
                merit_increase_count += 1
                max_merit_increase = max(max_merit_increase, increase)
                if merit_increase_count == 1:
                    warnings.warn(
                        f"merit increased by {increase:.3e} at iteration {report.n}; "
                        "supplied constants may underestimate the true ones",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        delta = math.sqrt(report.step_x**2 + report.step_y**2 + report.step_z**2)
        state = new_state
        if _stop_metric(params, delta, base):
            status = STATUS_CONVERGED
            break
    wall = time.perf_counter() - start

    return SolveResult(
        state=state,
        reports=state.history,
        status=status,
        iterations=iterations,
        wall_time=wall,
        merit_increase_count=merit_increase_count,
        max_merit_increase=max_merit_increase,
        oracle_error=oracle_error,
    )


@dataclass(frozen=True)
class StationarityReport:
    """Computable first-order residuals at a point.

    ``dual_y`` and ``feasibility`` are the two equation residuals of the
    stationarity system; ``x_fixed_point`` is the displacement of one more
    x sweep, a proxy for the subdifferential inclusion in x (which involves
    a limiting subdifferential and is not directly computable).
    """

    dual_y: float
    feasibility: float
    x_fixed_point: float


def stationarity_report(
    problem: BlockProblem, params: SolverParams, state: SolverState
) -> StationarityReport:
    dual_y = float(
        np.linalg.norm(problem.grad_H(state.y) + problem.apply_B_transpose(state.z))
    )
    feasibility = float(
        np.linalg.norm(constraint_residual(problem, state.x, state.y))
    )
    # the sweep starts from the state's carried residual, not a fresh one
    x_new, _ = _x_sweep(problem, params, state, params.mu)
    x_fixed_point = float(np.linalg.norm(x_new - state.x))
    return StationarityReport(dual_y=dual_y, feasibility=feasibility, x_fixed_point=x_fixed_point)


def write_reports_csv(reports: list[IterationReport], path) -> None:
    """Dump iteration reports as CSV with full double precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(IterationReport.CSV_FIELDS)
        for report in reports:
            writer.writerow(
                [report.n] + [f"{v:.17g}" for v in report.csv_row()[1:]]
            )


def check_adjoints(problem: BlockProblem, rng: np.random.Generator, tol: float = 1e-10) -> float:
    """Probe <A_i u, v> = <u, A_i^T v> and the B analogue on random inputs,
    with A_i u placed on its rows of the constraint space.

    Returns the worst relative mismatch; raises if it exceeds ``tol``.
    """
    worst = 0.0
    v = rng.standard_normal(problem.rhs.shape)
    for i, shape in enumerate(problem.block_shapes):
        u = rng.standard_normal(shape)
        rows = problem.block_rows(i)
        au = np.zeros_like(v)
        au[rows] = problem.apply_A(i, u)
        lhs = float(np.vdot(au, v))
        rhs = float(np.vdot(u, problem.apply_A_transpose(i, v[rows])))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    u = rng.standard_normal(problem.y_shape)
    lhs = float(np.vdot(problem.apply_B(u), v))
    rhs = float(np.vdot(u, problem.apply_B_transpose(v)))
    worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    if worst > tol:
        raise ValueError(f"adjoint identity violated: relative error {worst:.3e}")
    return worst
