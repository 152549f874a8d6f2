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
per sweep.  ``merit_increases`` checks this on the (n, merit) rows of a
run, in ``solve`` and in ``verify-trace`` on a dumped trace.

The state carries its residual A x + B y - b from sweep to sweep, and a
block update swaps its own product A_i x_i in that residual instead of
recomputing the sum; ``BlockProblem.residual`` forms it whole for a
start.  ``apply_A(i, .)`` and every vector of the contract live in the
whole constraint space.

The x iterate is one array of shape (m, *block_shape): every block has the
same shape, and block i is ``x[i]``.  The blocks are still updated one at a
time in Gauss-Seidel order, but the per-sweep bookkeeping around them (the
step and iterate norms, the objective through ``BlockProblem.eval_f`` and
the finite check of the new iterate, read from the step norms) is one
array operation per sweep instead of one per block.

The Gauss-Seidel pass itself is ``BlockProblem.x_sweep``, which forms its
own linearization grad P(x_n) - g_n.  Its default calls ``solve_x_block``
once per block; a problem whose block updates have a closed form may
override it with a pass of its own, which must give the same iterate up to
rounding.

``run`` is the one sweep loop of every run: it iterates ``step`` until
the one stop rule ``stopped``, on the relative change of (x, y, z), fires
(``converged`` on its result) or the iteration cap, and checks no gate and
no merit (``SolverParams`` checks itself when built).  ``solve`` is
``validate_parameters``, ``run`` and then the merit rule; a run outside the
gates, such as the RPCA admm3 baseline, calls ``run`` itself.  A state
carries only the report of its own iterate.  A block oracle that raises or
returns non-finite values ends the run with a ``BlockOracleError``, as
does a multiplier that is not finite (the block "multiplier").
"""

import math
import time
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .spaces import stacked_norm

MERIT_SLACK_SCALE = 1e-8  # the merit rule's slack scale, for solve and verify-trace alike


class ParameterError(ValueError):
    """A solver parameter violates its admissible range."""


class BlockOracleError(RuntimeError):
    """A block subproblem oracle raised or returned non-finite values, or
    the multiplier is not finite; carries the offending block ("multiplier"
    for z) and the iteration it was computing."""

    def __init__(self, block: str, iteration: int, cause: Exception):
        super().__init__(f"{block} oracle failed at iteration {iteration}: {cause}")
        self.block = block
        self.iteration = iteration
        self.cause = cause


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
    def solve_x_block(self, i: int, x_i: np.ndarray, linear_i: np.ndarray, z: np.ndarray,
                      partial_residual: np.ndarray, rho: float, prox_weight: float) -> np.ndarray:
        """Exact minimizer over x of the block-i subproblem

            f_i(x) + <linear_i, x> + <z, A_i x> + (rho/2)||A_i x + partial_residual||^2
                   + (prox_weight/2)||x - x_i||^2,

        with x_i = x_{i,n}, linear_i = grad_i P(x_n) - g_{i,n}, z = z_n and
        prox_weight = alpha.  ``partial_residual`` is sum_{k<i} A_k x_{k,n+1}
        + sum_{k>i} A_k x_{k,n} + B y_n - b, the residual without block i's
        own product; it and z hold every row of the constraint space.  The
        arrays are the engine's: read them, never write into them.
        """

    @abstractmethod
    def solve_y_block(self, z: np.ndarray, x_residual: np.ndarray, rho: float) -> np.ndarray:
        """Exact minimizer over y of H(y) + <z, B y> + (rho/2)||x_residual + B y||^2,
        with z = z_n and x_residual = A x_{n+1} - b; the y step has no
        proximal term.  The arrays are the engine's: read them, never write
        into them."""

    def x_sweep(
        self, state: "SolverState", rho: float, prox_weight: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Seidel pass over the x blocks; returns (x_new, A x_new + B y - b).

        grad P and the G subgradient are evaluated once, at the sweep
        start, as the linear term grad P(x_n) - g_n of every block.  The
        iterate starts as a copy of the state's and each block rewrites its
        own entry; the residual is rebound, never written into, so the state
        is left as it was.  This default calls ``solve_x_block`` once per
        block; when an oracle raises, the blocks before it are checked
        finite first, so the ``BlockOracleError`` names the first block that
        failed.  Any other error an override raises is reported as the
        block "x-sweep".
        """
        iteration = state.n + 1
        linear = self.grad_P(state.x) - self.subgrad_G(state.x)
        residual = state.residual
        x_new = state.x.copy()
        for i in range(len(x_new)):
            partial = residual - self.apply_A(i, x_new[i])
            try:
                x_new[i] = self.solve_x_block(i, x_new[i], linear[i], state.z, partial, rho,
                                              prox_weight)
            except Exception as exc:  # noqa: BLE001 - diagnostic must name the block
                earlier = first_non_finite_block(x_new[:i], iteration)
                raise earlier or BlockOracleError(f"x-block {i}", iteration, exc) from exc
            residual = partial + self.apply_A(i, x_new[i])
        return x_new, residual

    def residual(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """A x + B y - b; this default adds the blocks' whole-space products to B y - b."""
        return sum((self.apply_A(i, xi) for i, xi in enumerate(x)), self.apply_B(y) - self.b)

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
    """Penalty, proximal weight, the constants gating them, and the loop's cap and tolerance.

    ``strong_convexity`` is alpha, the modulus of the kernel
    phi = (alpha/2)||.||^2 and so the weight of the x proximal term;
    ``lambda_min_BtB`` is the smallest eigenvalue of B^T B and must be
    positive (full column rank of B), which ``validate_parameters`` checks
    with the gates.  The parameters check the rest when built, also by
    ``dataclasses.replace``, so every run, gated or not, has a non-negative
    integer cap, a finite non-negative tolerance and finite constants, the
    Lipschitz and weak convexity ones non-negative, or a ``ParameterError``.
    """

    rho: float
    lipschitz_H: float = 0.0
    lipschitz_P: float = 0.0
    weak_convexity_G: float = 0.0
    strong_convexity: float = 1.0
    lambda_min_BtB: float = 1.0
    max_iterations: int = 4000
    stop_tolerance: float = 1e-6

    def __post_init__(self):
        cap = self.max_iterations
        if not isinstance(cap, (int, np.integer)) or isinstance(cap, bool):  # bool is an int
            raise ParameterError(f"max_iterations must be an integer, got {cap}")
        if cap < 0:
            raise ParameterError(f"max_iterations must be non-negative, got {cap}")
        if not self.stop_tolerance >= 0:  # NaN fails this too
            raise ParameterError(f"stop_tolerance must be non-negative, got {self.stop_tolerance}")
        if self.stop_tolerance == math.inf:
            raise ParameterError(f"stop_tolerance must be finite, got {self.stop_tolerance}")
        for name in ("lipschitz_H", "lipschitz_P", "weak_convexity_G"):
            if not 0.0 <= (value := getattr(self, name)) < math.inf:
                raise ParameterError(f"{name} must be finite and non-negative, got {value}")
        for name in ("rho", "strong_convexity", "lambda_min_BtB"):
            if not math.isfinite(value := getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {value}")

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
    """2 l_H + 1e-10, or the next float above 2 l_H where that rounds to
    2 l_H (l_H >= 2^19): a penalty just above the rho gate 2 l_H / lambda
    for lambda_min(B^T B) = 1, the default of both applications."""
    return max(2.0 * lipschitz_H + 1e-10, math.nextafter(2.0 * lipschitz_H, math.inf))


def validate_parameters(params: SolverParams) -> tuple[float, float]:
    """Check that lambda_min(B^T B) is positive and the admissibility
    gates hold; return (alpha bound, rho bound) on success.

    Both bounds are strict: an alpha or rho sitting exactly at its bound is
    rejected.  They are where ``delta_x`` and ``delta_y`` change sign: the
    rho bound 2 l_H / lambda is the positive root of ``delta_y``.
    """
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


@dataclass(frozen=True, slots=True)
class IterationReport:
    """Scalar diagnostics of one iterate; ``merit`` is L_rho there."""

    n: int
    merit: float
    feasibility: float
    objective: float
    step_x: float
    step_y: float
    step_z: float


@dataclass(slots=True)
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
    """A x + B y - b, as ``problem.residual`` forms it."""
    return problem.residual(x, y)


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
    evaluated once and the merit L_rho is formed from it.  ``previous`` is
    finite, so the step norms check the iterate finite before the objective
    reads it: a step that is not finite names the first x block that is
    not, else the y block, else the multiplier, and one that only
    overflowed names nothing.
    """
    step_x = step_y = step_z = 0.0
    if previous is not None:  # np.linalg.norm's own sqrt(d . d), without its dispatch
        step_x, step_y, step_z = (math.sqrt(np.vdot(d, d)) for d in (
            state.x - previous.x, state.y - previous.y, state.z - previous.z))
        if not math.isfinite(step_x + step_y + step_z):
            failed = first_non_finite_block(state.x, state.n)
            if failed is not None or not np.isfinite(state.y).all():
                raise failed or _not_finite("y-block", state.n)
            if not np.isfinite(state.z).all():
                raise _not_finite("multiplier", state.n)
    residual = state.residual
    objective = objective_value(problem, state.x, state.y)
    squared = float(np.vdot(residual, residual))
    l_rho = objective + float(np.vdot(state.z, residual)) + 0.5 * rho * squared
    # positional, in field order: one is built per sweep, and keywords cost more
    return IterationReport(state.n, l_rho, math.sqrt(squared), objective, step_x, step_y, step_z)


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
    x, y, z = (np.array(value, dtype=float) for value in (x, y, z))
    for name, value, expected in (("y", y, problem.y_shape), ("z", z, problem.b.shape)):
        if value.shape != expected:
            raise ValueError(f"{name} of shape {value.shape} is not of shape {expected}")
    for name, value in (("x", x), ("y", y), ("z", z)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has an entry that is not finite")
    return SolverState(x=x, y=y, z=z, residual=constraint_residual(problem, x, y), n=0)


def _not_finite(block: str, iteration: int) -> BlockOracleError:
    return BlockOracleError(block, iteration, FloatingPointError("output is not finite"))


def first_non_finite_block(x: np.ndarray, iteration: int) -> BlockOracleError | None:
    """The error naming the first block of ``x`` that is not finite, if any."""
    if np.isfinite(x).all():
        return None
    finite = np.isfinite(x).all(axis=tuple(range(1, x.ndim)))
    return _not_finite(f"x-block {int(np.argmin(finite))}", iteration)


def _x_sweep(
    problem: BlockProblem, params: SolverParams, state: SolverState
) -> tuple[np.ndarray, np.ndarray]:
    """The x pass of one sweep, ``problem.x_sweep``; returns (x_new, A x_new + B y - b).

    An override of ``x_sweep`` that raises anything but a
    ``BlockOracleError`` fails as the block "x-sweep".  The output is
    checked finite by the sweep's report.
    """
    try:
        return problem.x_sweep(state, params.rho, params.strong_convexity)
    except BlockOracleError:
        raise
    except Exception as exc:  # noqa: BLE001 - an override's raise names the pass
        raise BlockOracleError("x-sweep", state.n + 1, exc) from exc


def step(problem: BlockProblem, params: SolverParams, state: SolverState) -> SolverState:
    """One full sweep: x blocks in order, then y, then the multiplier ascent.

    Returns the advanced state, carrying its own report.  A y oracle that
    raises fails as the first non-finite x block, whose NaN it met, if any.
    """
    x_new, residual_xy = _x_sweep(problem, params, state)
    x_residual = residual_xy - problem.apply_B(state.y)
    try:
        y_new = problem.solve_y_block(state.z, x_residual, params.rho)
    except Exception as exc:  # noqa: BLE001 - diagnostic must name the block
        raise (first_non_finite_block(x_new, state.n + 1)
               or BlockOracleError("y-block", state.n + 1, exc)) from exc
    residual = x_residual + problem.apply_B(y_new)
    z_new = state.z + params.rho * residual

    new_state = SolverState(x_new, y_new, z_new, residual, state.n + 1)
    new_state.report = iteration_report(problem, params.rho, new_state, state)
    return new_state


def stopped(params: SolverParams, previous: SolverState, report: IterationReport) -> bool:
    """The stop rule on the step from ``previous`` to the iterate of ``report``:
    ||delta (x, y, z)|| < tol ||(x, y, z)_n||, and at a zero iterate a zero step."""
    delta = math.sqrt(report.step_x**2 + report.step_y**2 + report.step_z**2)
    base = stacked_norm([previous.x, previous.y, previous.z])
    if base == 0.0:
        return delta == 0.0
    return delta / base < params.stop_tolerance


def merit_increases(rows) -> list[tuple[int, float]]:
    """Each (n, rise) of a run's (n, merit) rows, its start first, where the
    merit rose from the sweep before by more than MERIT_SLACK_SCALE * (1 +
    |merit of the first sweep|); the step from the start is not checked.

    The merit rule of ``solve`` and of ``verify-trace``: a valid run with
    exact oracles has none.  A rise that is not a number, from or to a
    non-finite merit, counts as an increase.
    """
    increases = []
    for k, (n, merit) in enumerate(rows):  # an iterable: solve builds no list of its rows
        if k == 1:
            slack = MERIT_SLACK_SCALE * (1.0 + abs(merit))
        elif k > 1 and not merit - earlier <= slack:
            increases.append((n, merit - earlier))
        earlier = merit
    return increases


def run(problem: BlockProblem, params: SolverParams, init: SolverState,
        reports: list[IterationReport]) -> SolveResult:
    """The sweep loop: iterate ``step`` from ``init`` until the stop rule
    fires or max_iterations is hit.  It checks no gate and no merit (the
    result's ``merit_increases`` is None).

    Appends to ``reports`` the report of ``init`` (built here when it has
    none) and one per sweep, so a run that raises leaves the reports of its
    earlier sweeps there; ``init`` is left as it was.  The stop rule,
    ``stopped``, is the one rule of every run: the norm of the step in
    (x, y, z) below ``stop_tolerance`` times the norm of the iterate it
    started from.  A failing oracle ends the run with the
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
        increases = merit_increases((report.n, report.merit) for report in reports)
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
