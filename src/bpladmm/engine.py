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
                + D_phi(x_i, x_{i,n})
    y_{n+1}   = argmin H(y) + <z_n, B y> + (rho/2)||A x_{n+1} + B y - b||^2
    z_{n+1}   = z_n + rho (A x_{n+1} + B y_{n+1} - b)

with g_n a subgradient of G at x_n, u_i(x_i) the Gauss-Seidel splice of
fresh earlier blocks, x_i, and stale later blocks, and the proximal kernel
phi = (alpha/2)||.||^2 with alpha = ``strong_convexity``, so that the
proximal term is (alpha/2)||x_i - x_{i,n}||^2 with the one weight alpha.
The y step has no proximal term.

Validity of (alpha, rho) is gated by ``validate_parameters``; a valid run
drives the merit function, which without a y-proximal term is the
augmented Lagrangian itself,

    merit_n = L_rho(x_n, y_n, z_n),

downhill by at least delta_x ||x_{n+1}-x_n||^2 + delta_y ||y_{n+1}-y_n||^2
per sweep.  ``merit_increases`` checks this, in ``solve`` on the run's
sweeps and in ``verify-trace`` on a dumped trace.

The state carries its residual A x + B y - b from sweep to sweep, and a
block update swaps its own product A_i x_i in that residual instead of
recomputing the sum.  ``apply_A(i, .)`` and every vector of the contract
live in the whole constraint space.

The x iterate is one array of shape (m, *block_shape): every block has the
same shape, and block i is ``x[i]``.  The blocks are still updated one at a
time in Gauss-Seidel order, but the per-sweep bookkeeping around them (the
linearization grad P(x_n) - g_n, the step and iterate norms, the objective
through ``BlockProblem.eval_f`` and the finite check of the oracle
outputs) is one array operation per sweep instead of one per block.

The Gauss-Seidel pass itself is ``BlockProblem.x_sweep``.  Its default
calls ``solve_x_block`` once per block; a problem whose block updates have
a closed form may override it with a pass of its own, which must give the
same iterate up to rounding.  The engine checks the pass's output finite
either way.

``run`` is the one sweep loop of every run: it iterates ``step`` until
the stop rule fires (``converged`` on its result) or the iteration cap,
and checks no gate and no merit.  ``solve`` is ``validate_parameters``,
``run`` and then the merit rule; a run outside the gates, such as the RPCA
admm3 baseline, calls ``run`` itself.  A state carries only the report of
its own iterate.  A block oracle that raises or returns non-finite values
ends the run with a ``BlockOracleError``.
"""

import math
import time
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .spaces import stacked_norm

STOP_SHIFTED = "shifted"  # ||delta (x, y)|| / (||(x, y)|| + 1) <= tol, z left out
STOP_RELATIVE = "relative"  # ||delta (x, y, z)|| / ||(x, y, z)|| < tol
MERIT_SLACK_SCALE = 1e-8  # the merit rule's slack scale, for solve and verify-trace alike


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
    It and ``multiplier`` (z_n) hold every row of the constraint space.
    ``linear_term`` is grad_i P(x_n) - g_{i,n}.  With phi = (alpha/2)||.||^2
    the proximal term D_phi(x_i, x_{i,n}) is (alpha/2)||x_i - x_{i,n}||^2,
    and ``prox_weight`` is alpha.

    One context is built per block and sweep, so it is a plain slotted
    dataclass (a frozen one costs several times more to build); oracles
    must treat it as read-only.
    """

    current_iterate: np.ndarray
    linear_term: np.ndarray
    multiplier: np.ndarray
    partial_residual: np.ndarray
    rho: float
    prox_weight: float


@dataclass(slots=True)
class YBlockContext:
    """Inputs of the y subproblem; ``x_residual`` is A x_{n+1} - b.  The y
    step has no proximal term, so the current y is not among them.  One is
    built per sweep, so it is a plain slotted dataclass like
    ``XBlockContext``; the oracle must treat it as read-only."""

    multiplier: np.ndarray
    x_residual: np.ndarray
    rho: float


class BlockProblem(ABC):
    """A problem instance: block spaces, operators, and subproblem oracles.

    Subclasses must set ``num_blocks`` and ``block_shape`` (the one shape
    of every x block), ``y_shape`` and the right-hand side ``b``, implement
    A and B, and supply exact argmin oracles for the block subproblems.
    The pieces f, H, P, G default to zero so simple problems only override
    what they use.

    The engine hands the x iterate to ``eval_f``, ``eval_P``, ``grad_P``,
    ``eval_G`` and ``subgrad_G`` as one array of shape (m, *block_shape);
    the gradients return an array of that shape.  ``eval_f`` is the
    separable sum_i f_i(x_i).
    """

    num_blocks: int
    block_shape: tuple
    y_shape: tuple
    b: np.ndarray

    @abstractmethod
    def apply_A(self, i: int, x: np.ndarray) -> np.ndarray:
        """A_i x, living in the constraint space."""

    @abstractmethod
    def apply_B(self, y: np.ndarray) -> np.ndarray:
        """B y, living in the constraint space."""

    @abstractmethod
    def solve_x_block(self, i: int, ctx: XBlockContext) -> np.ndarray:
        """Exact minimizer of the block-i subproblem described by ``ctx``."""

    @abstractmethod
    def solve_y_block(self, ctx: YBlockContext) -> np.ndarray:
        """Exact minimizer of the y subproblem described by ``ctx``."""

    def x_sweep(
        self, state: "SolverState", linear: np.ndarray, rho: float, prox_weight: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Seidel pass over the x blocks; returns (x_new, A x_new + B y - b).

        ``linear`` is grad P(x_n) - g_n, stacked like x.  The iterate
        starts as a copy of the state's and each block rewrites its own
        entry; the residual is rebound, never written into, so the state
        is left as it was.  This default calls ``solve_x_block`` once per
        block; when an oracle raises, the blocks before it are checked
        finite first, so the ``BlockOracleError`` names the first block that
        failed.  An override is checked finite after it returns, and any
        other error it raises is reported as the block "x-sweep".
        """
        iteration = state.n + 1
        residual = state.residual
        x_new = state.x.copy()
        for i in range(len(x_new)):
            partial = residual - self.apply_A(i, x_new[i])
            # positional, in field order: keyword arguments double the build time
            ctx = XBlockContext(x_new[i], linear[i], state.z, partial, rho, prox_weight)
            try:
                x_new[i] = self.solve_x_block(i, ctx)
            except Exception as exc:  # noqa: BLE001 - diagnostic must name the block
                earlier = _first_non_finite_block(x_new[:i], iteration)
                raise earlier or BlockOracleError(f"x-block {i}", iteration, exc) from exc
            residual = partial + self.apply_A(i, x_new[i])
        return x_new, residual

    def eval_f(self, x: np.ndarray) -> float:
        """sum_i f_i(x_i) over the stacked blocks."""
        return 0.0

    def eval_H(self, y: np.ndarray) -> float:
        return 0.0

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

    ``strong_convexity`` is alpha, the modulus of the kernel
    phi = (alpha/2)||.||^2 and so the weight of the x proximal term;
    ``lambda_min_BtB`` is the smallest eigenvalue of B^T B and must be
    positive (full column rank of B).
    """

    rho: float
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
        """Guaranteed x descent weight (alpha - l_P - beta)/2."""
        return (self.strong_convexity - self.lipschitz_P - self.weak_convexity_G) / 2.0

    @property
    def delta_y(self) -> float:
        """Guaranteed y descent weight lambda*rho/2 - l_H^2/(lambda*rho) - l_H/2."""
        lam_rho = self.lambda_min_BtB * self.rho
        l_h = self.lipschitz_H
        return lam_rho / 2.0 - l_h * l_h / lam_rho - l_h / 2.0


def rho_above_gate(lipschitz_H: float) -> float:
    """2 l_H + 1e-10: a penalty just above the rho gate 2 l_H / lambda for
    lambda_min(B^T B) = 1, the default of both applications."""
    return 2.0 * lipschitz_H + 1e-10


def validate_parameters(params: SolverParams) -> tuple[float, float]:
    """Check the stop rule, the iteration cap, the stop tolerance, that every
    constant is finite and every Lipschitz or weak convexity constant
    non-negative, and the admissibility gates; return (alpha bound, rho
    bound) on success.

    Both bounds are strict: an alpha or rho sitting exactly at its bound is
    rejected.  They are where ``delta_x`` and ``delta_y`` change sign: the
    rho bound 2 l_H / lambda is the positive root of ``delta_y``.
    """
    rules = (STOP_SHIFTED, STOP_RELATIVE)
    if params.stop_rule not in rules:
        raise ParameterError(f"stop_rule {params.stop_rule!r} is not one of {rules}")
    if params.max_iterations < 0:
        raise ParameterError(f"max_iterations must be non-negative, got {params.max_iterations}")
    if not params.stop_tolerance >= 0:  # NaN fails this too
        raise ParameterError(f"stop_tolerance must be non-negative, got {params.stop_tolerance}")
    for name in ("lipschitz_H", "lipschitz_P", "weak_convexity_G"):
        value = getattr(params, name)
        if not 0.0 <= value < math.inf:
            raise ParameterError(f"{name} must be finite and non-negative, got {value}")
    for name in ("rho", "strong_convexity", "lambda_min_BtB"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    if params.lambda_min_BtB <= 0:
        raise ParameterError(
            "B lacks full column rank: lambda_min(B^T B) must be positive, "
            f"got {params.lambda_min_BtB}"
        )
    alpha_bound = params.lipschitz_P + params.weak_convexity_G
    rho_bound = 2.0 * params.lipschitz_H / params.lambda_min_BtB
    if not params.strong_convexity > alpha_bound:
        raise ParameterError(
            f"alpha = {params.strong_convexity} must strictly exceed l_P + beta = {alpha_bound}"
        )
    if not params.rho > rho_bound:
        raise ParameterError(
            f"rho = {params.rho} must strictly exceed 2*l_H/lambda = {rho_bound}"
        )
    return alpha_bound, rho_bound


@dataclass(frozen=True)
class IterationReport:
    """Scalar diagnostics of one iterate; ``merit`` is L_rho there."""

    n: int
    merit: float
    feasibility: float
    objective: float
    step_x: float
    step_y: float
    step_z: float


@dataclass
class SolverState:
    """Current iterate (x, y, z), its residual A x + B y - b, and the
    report of that iterate.

    ``x`` stacks the blocks into one array of shape (m, *block_shape).
    ``step`` updates copies of ``x`` and ``residual`` block by block instead
    of recomputing them, so neither is ever shared with another state.
    ``report`` is set by ``step``, with the step norms measured from the
    state it started from; ``initial_state`` leaves it None.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    residual: np.ndarray
    n: int = 0
    report: IterationReport | None = None


@dataclass
class SolveResult:
    state: SolverState
    reports: list[IterationReport]
    converged: bool  # the stop rule fired; False at the iteration cap
    iterations: int
    wall_time: float
    merit_increases: list[tuple[int, float]] | None  # None from ``run``, which checks no merit


def objective_value(problem: BlockProblem, x: np.ndarray, y: np.ndarray) -> float:
    """F(x, y) = sum_i f_i(x_i) + H(y) + P(x) - G(x)."""
    return float(problem.eval_f(x) + problem.eval_H(y) + problem.eval_P(x) - problem.eval_G(x))


def constraint_residual(problem: BlockProblem, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A x + B y - b."""
    r = problem.apply_B(y) - problem.b
    for i, xi in enumerate(x):
        r += problem.apply_A(i, xi)
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


def iteration_report(
    problem: BlockProblem, rho: float, state: SolverState, previous: SolverState | None = None
) -> IterationReport:
    """Report of ``state``, from its carried residual A x + B y - b, with
    steps measured from ``previous`` (zero without one).  The objective is
    evaluated once and the merit L_rho is formed from it.
    """
    residual = state.residual
    objective = objective_value(problem, state.x, state.y)
    squared = float(np.vdot(residual, residual))
    l_rho = objective + float(np.vdot(state.z, residual)) + 0.5 * rho * squared
    step_x = step_y = step_z = 0.0
    if previous is not None:  # np.linalg.norm's own sqrt(d . d), without its dispatch
        step_x, step_y, step_z = (math.sqrt(np.vdot(d, d)) for d in (
            state.x - previous.x, state.y - previous.y, state.z - previous.z))
    return IterationReport(
        n=state.n, merit=l_rho,
        feasibility=math.sqrt(squared), objective=objective,
        step_x=step_x, step_y=step_y, step_z=step_z,
    )


def initial_state(problem: BlockProblem, x, y: np.ndarray, z: np.ndarray) -> SolverState:
    """Package an initial iterate with its residual; it has no report yet.

    ``x`` holds the m blocks (a sequence of arrays or an array of shape
    (m, *block_shape)); they are copied into one stacked array, which must
    have the problem's shape (num_blocks, *block_shape).  y must have the
    shape ``y_shape`` and z the shape of ``b``, and all three must be finite.
    """
    shape = (problem.num_blocks, *problem.block_shape)
    given = [np.shape(xi) for xi in x]
    if given != [shape[1:]] * shape[0]:
        raise ValueError(f"x blocks of shapes {given} do not stack to {shape}")
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    z = np.array(z, dtype=float)
    for name, value, expected in (("y", y, problem.y_shape), ("z", z, problem.b.shape)):
        if value.shape != expected:
            raise ValueError(f"{name} of shape {value.shape} is not of shape {expected}")
    for name, value in (("x", x), ("y", y), ("z", z)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has an entry that is not finite")
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
    problem: BlockProblem, params: SolverParams, state: SolverState
) -> tuple[np.ndarray, np.ndarray]:
    """The x pass of one sweep, ``problem.x_sweep``; returns (x_new, A x_new + B y - b).

    grad P and the G subgradient are evaluated once at the sweep start, not
    refreshed mid-sweep.  The pass's output is checked finite once, after
    the sweep, and an error names the first block that is not.  An
    override of ``x_sweep`` that raises anything but a ``BlockOracleError``
    fails as the block "x-sweep".
    """
    linear = problem.grad_P(state.x) - problem.subgrad_G(state.x)
    try:
        x_new, residual = problem.x_sweep(state, linear, params.rho, params.strong_convexity)
    except BlockOracleError:
        raise
    except Exception as exc:  # noqa: BLE001 - an override's raise names the pass
        raise BlockOracleError("x-sweep", state.n + 1, exc) from exc
    failed = _first_non_finite_block(x_new, state.n + 1)
    if failed is not None:
        raise failed
    return x_new, residual


def step(problem: BlockProblem, params: SolverParams, state: SolverState) -> SolverState:
    """One full sweep: x blocks in order, then y, then the multiplier ascent.

    Returns the advanced state, carrying its own report.
    """
    x_new, residual_xy = _x_sweep(problem, params, state)
    x_residual = residual_xy - problem.apply_B(state.y)
    y_ctx = YBlockContext(state.z, x_residual, params.rho)  # positional, as in x_sweep
    y_new = _oracle_output("y-block", state.n + 1, problem.solve_y_block, y_ctx)
    residual = x_residual + problem.apply_B(y_new)
    z_new = state.z + params.rho * residual

    new_state = SolverState(x=x_new, y=y_new, z=z_new, residual=residual, n=state.n + 1)
    new_state.report = iteration_report(problem, params.rho, new_state, state)
    return new_state


def stopped(params: SolverParams, previous: SolverState, report: IterationReport) -> bool:
    """The stop rule on the step from ``previous`` to the iterate of ``report``."""
    if params.stop_rule == STOP_SHIFTED:
        delta = math.sqrt(report.step_x**2 + report.step_y**2)
        return delta / (stacked_norm([previous.x, previous.y]) + 1.0) <= params.stop_tolerance
    delta = math.sqrt(report.step_x**2 + report.step_y**2 + report.step_z**2)
    base = stacked_norm([previous.x, previous.y, previous.z])
    if base == 0.0:
        return delta == 0.0
    return delta / base < params.stop_tolerance


def merit_increases(merits) -> list[tuple[int, float]]:
    """Each (k, merits[k] - merits[k-1]) above MERIT_SLACK_SCALE * (1 + |merits[0]|).

    The merit rule of ``solve`` and of ``verify-trace``: a valid run with
    exact oracles has none.
    """
    if len(merits) < 2:
        return []
    slack = MERIT_SLACK_SCALE * (1.0 + abs(merits[0]))
    return [(k, later - earlier)
            for k, (earlier, later) in enumerate(zip(merits, merits[1:]), start=1)
            if later - earlier > slack]


def run(problem: BlockProblem, params: SolverParams, init: SolverState,
        reports: list[IterationReport]) -> SolveResult:
    """The sweep loop: iterate ``step`` from ``init`` until the stop rule
    fires or max_iterations is hit, checking no gate and no merit (the
    result's ``merit_increases`` is None).

    Appends to ``reports`` the report of ``init`` (built here when it has
    none) and one per sweep, so a run that raises leaves the reports of its
    earlier sweeps there; ``init`` is left as it was.  The stop rule
    compares the norm of the step with the norm of the iterate it started
    from: over (x, y) for ``STOP_SHIFTED``, over (x, y, z) for
    ``STOP_RELATIVE``.  A failing oracle ends the run with the
    ``BlockOracleError`` naming the first block that failed; the rest of
    that sweep computes on non-finite values, so numpy's invalid and
    overflow warnings are silenced for the run.
    """
    state = init
    reports.append(init.report or iteration_report(problem, params.rho, init))
    converged = False
    start = time.perf_counter()
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(params.max_iterations):
            new_state = step(problem, params, state)
            reports.append(new_state.report)
            converged = stopped(params, state, new_state.report)
            state = new_state
            if converged:
                break
    return SolveResult(state=state, reports=reports, converged=converged,
                       iterations=state.n - init.n, wall_time=time.perf_counter() - start,
                       merit_increases=None)


def solve(problem: BlockProblem, params: SolverParams, init: SolverState) -> SolveResult:
    """``validate_parameters``, ``run`` on a new list of reports, then the
    merit rule on the run's own sweeps, whatever ``init.n`` is, also when
    the run raises.

    An increase is a warning (the first one only), not an error: the
    descent guarantee assumes exact oracles and honest constants, and
    user-supplied constants may be underestimates.  Each increase is
    recorded on the result as (report n, rise).
    """
    validate_parameters(params)
    reports = []
    try:
        result = run(problem, params, init, reports)
    finally:
        increases = [(reports[k + 1].n, rise)
                     for k, rise in merit_increases([report.merit for report in reports[1:]])]
        if increases:
            n, increase = increases[0]
            warnings.warn(
                f"merit increased by {increase:.3e} at iteration {n}; "
                "supplied constants may underestimate the true ones",
                RuntimeWarning,
                stacklevel=2,
            )
    result.merit_increases = increases
    return result
