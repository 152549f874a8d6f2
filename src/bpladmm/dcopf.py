"""DC optimal power flow with optimal photovoltaic placement.

Each bus i owns four variables x_i = [P_i^pv, P_i^gen, theta_i, u_i]: PV
output, conventional generation, voltage angle, and a placement indicator.
The binary placement decision u_i in {0, 1} is relaxed to [0, 1] and pushed
back to the vertices by subtracting the concave penalty gamma * sum(u_i^2 -
u_i) from the objective.  All inequality constraints A x <= b (power
balance, a 50 percent PV penetration floor, thermal line limits, PV
linking, generator bounds, and the u and theta boxes) become A x + y = b
with slack y whose negativity is penalized by (eta/2) dist^2(y, R^p_+).

The resulting model is solved by the generic engine with closed-form
oracles: each x block solves a 4x4 symmetric positive definite system whose
matrix is iteration independent (factored once), and the y update is a
componentwise two-branch formula.  A bus block touches only its own rows,
the rows of its neighbours' balance and line limits and the penetration
floor, so the engine works on those rows alone and a block update costs
O(nnz(A_i)), not O(p).  The engine stacks the bus blocks into one N x 4
array, so the placement penalty, its gradient, the quadratic costs and the
per-bus result columns are column operations on it.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import (
    BlockProblem,
    IterationReport,
    SolverParams,
    XBlockContext,
    YBlockContext,
)
from .spaces import dist_sq_nonneg_orthant

PV, GEN, THETA, U = 0, 1, 2, 3  # column layout of a bus block
BLOCK_DIM = 4


@dataclass(frozen=True)
class DcOpfCase:
    """Grid data in per-unit: demands, lines, costs, and capacities.

    ``lines`` holds undirected edges (i, j, susceptance) with 0-based bus
    indices; susceptance is stored once per edge and used symmetrically.
    """

    demand: np.ndarray
    lines: tuple
    pv_cost: float
    gen_cost_a: np.ndarray
    gen_cost_b: np.ndarray
    gen_cost_c: np.ndarray
    pv_capacity: float
    gen_capacity: np.ndarray
    line_limit: float
    gamma: float
    eta: float

    @property
    def num_buses(self) -> int:
        return len(self.demand)

    def neighbors(self) -> list[list[int]]:
        """Sorted neighbor lists; symmetric by construction."""
        adj: list[set] = [set() for _ in range(self.num_buses)]
        for i, j, _ in self.lines:
            adj[i].add(j)
            adj[j].add(i)
        return [sorted(s) for s in adj]

    def susceptance(self) -> dict:
        """Map (i, j) -> b_ij for both orientations; parallel edges sum."""
        table: dict = {}
        for i, j, b in self.lines:
            table[(i, j)] = table.get((i, j), 0.0) + b
            table[(j, i)] = table.get((j, i), 0.0) + b
        return table

    def validate(self) -> None:
        n = self.num_buses
        for i, j, b in self.lines:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"line ({i}, {j}) has an invalid endpoint")
            if b == 0.0:
                raise ValueError(f"line ({i}, {j}) has zero susceptance")
        for name, arr in (
            ("gen_capacity", self.gen_capacity),
            ("demand", self.demand),
        ):
            if len(arr) != n:
                raise ValueError(f"{name} length {len(arr)} != bus count {n}")
        if self.pv_capacity < 0 or self.line_limit < 0 or np.any(self.gen_capacity < 0):
            raise ValueError("capacities must be nonnegative")
        if self.eta <= 0:
            raise ValueError("slack penalty eta must be positive")
        if self.gamma < 0:
            raise ValueError("relaxation weight gamma must be nonnegative")


@dataclass(frozen=True)
class DcOpfProblem:
    """Assembled constraint matrices A_i (p x 4), right-hand side b, and the
    per-bus quadratic cost data."""

    case: DcOpfCase
    A: list
    b: np.ndarray
    Q: list
    q: list
    p: int


def expected_row_count(case: DcOpfCase) -> int:
    """p = 9|N| + sum_i |M_i| + 1."""
    degree_sum = sum(len(m) for m in case.neighbors())
    return 9 * case.num_buses + degree_sum + 1


def build_problem(case: DcOpfCase) -> DcOpfProblem:
    """Assemble A x <= b row by row.

    Row order: power balance per bus, the penetration floor, thermal limits
    per directed line (grouped by source bus), then per bus the PV linking
    pair, generator bound pair, u box pair, and theta box pair (upper row
    before lower row in each pair).
    """
    case.validate()
    n = case.num_buses
    adjacency = case.neighbors()
    b_table = case.susceptance()
    p = expected_row_count(case)
    A = [np.zeros((p, BLOCK_DIM)) for _ in range(n)]
    b = np.zeros(p)
    row = 0

    # demand coverage: -P_pv - P_gen + sum_j b_ij (theta_i - theta_j) <= -D_i
    for i in range(n):
        A[i][row, PV] = -1.0
        A[i][row, GEN] = -1.0
        for j in adjacency[i]:
            A[i][row, THETA] += b_table[(i, j)]
            A[j][row, THETA] = -b_table[(i, j)]
        b[row] = -case.demand[i]
        row += 1

    # penetration floor: total PV output covers half of total demand
    for i in range(n):
        A[i][row, PV] = -1.0
    b[row] = -float(np.sum(case.demand)) / 2.0
    row += 1

    # thermal limit of each directed line: b_ij (theta_i - theta_j) <= limit
    for i in range(n):
        for j in adjacency[i]:
            A[i][row, THETA] = b_table[(i, j)]
            A[j][row, THETA] = -b_table[(i, j)]
            b[row] = case.line_limit
            row += 1

    # PV output linked to placement: 0 <= P_pv <= u * capacity
    for i in range(n):
        A[i][row, PV] = 1.0
        A[i][row, U] = -case.pv_capacity
        row += 1
        A[i][row, PV] = -1.0
        row += 1

    # generator bounds: 0 <= P_gen <= capacity_i
    for i in range(n):
        A[i][row, GEN] = 1.0
        b[row] = case.gen_capacity[i]
        row += 1
        A[i][row, GEN] = -1.0
        row += 1

    # placement box: u in [0, 1]
    for i in range(n):
        A[i][row, U] = 1.0
        b[row] = 1.0
        row += 1
        A[i][row, U] = -1.0
        row += 1

    # angle box: theta in [0, 2*pi]
    for i in range(n):
        A[i][row, THETA] = 1.0
        b[row] = 2.0 * np.pi
        row += 1
        A[i][row, THETA] = -1.0
        row += 1

    assert row == p
    Q = [np.diag([0.0, 2.0 * case.gen_cost_a[i], 0.0, 0.0]) for i in range(n)]
    q = [np.array([0.0, case.gen_cost_b[i], 0.0, case.pv_cost]) for i in range(n)]
    return DcOpfProblem(case=case, A=A, b=b, Q=Q, q=q, p=p)


def g_gradient(x: np.ndarray, gamma: float) -> np.ndarray:
    """Gradient of the placement penalty gamma * sum_i (u_i^2 - u_i) at the
    stacked bus blocks x (N x 4, or a sequence of N 4-vectors).

    Zero except the u column, which is gamma*(2 u_i - 1).  The penalty is
    convex, so this gradient is also the (unique) subgradient and the weak
    convexity modulus is zero.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[:, U] = gamma * (2.0 * x[:, U] - 1.0)
    return out


def x_block_update(
    ctx: XBlockContext, Q: np.ndarray, q: np.ndarray, A: np.ndarray, alpha: float,
    solver: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form block update: solve the SPD system

        (Q + rho A^T A + w I) x = w x_cur - q - linear_term - A^T (z + rho r)

    with proximal weight w = mu * alpha and r the partial residual.  ``A``
    may hold only some rows of A_i (all its nonzero ones) when the
    context's multiplier and partial residual hold the same rows.  When
    ``solver`` (the precomputed inverse of the system matrix) is given it
    is applied directly; it must have been built for the same rho and w.
    """
    w = ctx.mu * alpha
    rhs = (
        w * ctx.current_iterate
        - q
        - ctx.linear_term
        - A.T @ (ctx.multiplier + ctx.rho * ctx.partial_residual)
    )
    if solver is not None:
        return solver @ rhs
    matrix = Q + ctx.rho * (A.T @ A) + w * np.eye(len(q))
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular block system for bus {ctx.block_index}") from exc


def y_block_update(x_residual: np.ndarray, z: np.ndarray, eta: float, rho: float) -> np.ndarray:
    """Closed-form slack update, componentwise

        y_j = max(0, v_j) + rho/(eta + rho) * min(0, v_j),
        v = -(A x - b) - z / rho.
    """
    v = -x_residual - z / rho
    return np.maximum(v, 0.0) + (rho / (eta + rho)) * np.minimum(v, 0.0)


class DcOpfBlockProblem(BlockProblem):
    """Engine adapter with cached per-bus factorizations.

    Each bus couples through the rows where its A_i has a nonzero entry;
    those row indices and the compact A_i restricted to them are kept, and
    the operators and the block oracle work on them.  The block system
    matrix Q_i + rho A_i^T A_i + alpha I does not change across iterations
    (the penalty gradient enters only the right-hand side), so its inverse
    is computed once per bus.  The cost matrices Q_i are diagonal (as
    ``build_problem`` makes them), so sum_i f_i is evaluated from their
    stacked diagonals and the stacked q_i in one pass.
    """

    def __init__(self, problem: DcOpfProblem, rho: float, alpha: float,
                 gamma: float | None = None):
        case = problem.case
        self.problem = problem
        self.alpha = alpha
        self.rho = rho
        self.gamma = case.gamma if gamma is None else gamma
        self.eta = case.eta
        n = len(problem.A)
        dim = problem.A[0].shape[1]
        self.block_shapes = [(dim,) for _ in range(n)]
        self.y_shape = (problem.p,)
        self.rhs = problem.b
        self._rows = [np.flatnonzero(np.any(Ai != 0.0, axis=1)) for Ai in problem.A]
        self._A = [Ai[rows] for Ai, rows in zip(problem.A, self._rows)]
        self._solvers = [
            np.linalg.inv(problem.Q[i] + rho * (self._A[i].T @ self._A[i]) + alpha * np.eye(dim))
            for i in range(n)
        ]
        self._cost_const = [float(c) for c in case.gen_cost_c]
        Q = np.array(problem.Q, dtype=float)
        self._Q_diag = np.diagonal(Q, axis1=1, axis2=2).copy()
        if np.count_nonzero(Q) != np.count_nonzero(self._Q_diag):
            raise ValueError("the per-bus cost matrices Q_i must be diagonal")
        self._q = np.array(problem.q, dtype=float)
        self._cost_const_total = float(np.sum(case.gen_cost_c))

    def block_rows(self, i):
        return self._rows[i]

    def apply_A(self, i, x):
        return self._A[i] @ x

    def apply_A_transpose(self, i, v):
        return self._A[i].T @ v

    def apply_B(self, y):
        return y

    def apply_B_transpose(self, v):
        return v

    def eval_f(self, i, x):
        return float(0.5 * x @ self.problem.Q[i] @ x + self.problem.q[i] @ x) + self._cost_const[i]

    def eval_f_sum(self, x):
        quadratic = 0.5 * float(np.vdot(self._Q_diag * x, x))
        return quadratic + float(np.vdot(self._q, x)) + self._cost_const_total

    def eval_H(self, y):
        value, _ = dist_sq_nonneg_orthant(y)
        return 0.5 * self.eta * value

    def grad_H(self, y):
        _, grad = dist_sq_nonneg_orthant(y)
        return 0.5 * self.eta * grad

    def eval_G(self, x):
        if self.gamma == 0.0:
            return 0.0
        u = x[:, U]
        return self.gamma * float(np.sum(u * u - u))

    def subgrad_G(self, x):
        if self.gamma == 0.0:
            return np.zeros_like(x)
        return g_gradient(x, self.gamma)

    def solve_x_block(self, i, ctx: XBlockContext):
        solver = self._solvers[i] if ctx.mu * self.alpha == self.alpha and ctx.rho == self.rho else None
        return x_block_update(
            ctx, self.problem.Q[i], self.problem.q[i], self._A[i], self.alpha, solver
        )

    def solve_y_block(self, ctx: YBlockContext):
        return y_block_update(ctx.x_residual, ctx.multiplier, self.eta, ctx.rho)


@dataclass
class DcOpfSolution:
    """Per-bus decisions plus objective and feasibility diagnostics.

    ``objective_opf1_rounded`` evaluates the original binary-placement cost
    at u rounded to the nearest vertex (ties round up); the raw-u value is
    reported alongside since either reading of the model is defensible.
    """

    pv: np.ndarray
    gen: np.ndarray
    theta: np.ndarray
    u: np.ndarray
    u_rounded: np.ndarray
    y: np.ndarray
    z: np.ndarray
    objective_opf1_rounded: float
    objective_opf1_raw: float
    objective_relaxed: float
    binary_violation: float
    feasibility_residual: float
    iterations: int
    wall_time: float
    converged: bool
    rounded_feasible: bool | None
    rounded_violation: float | None
    reports: list[IterationReport]


def opf1_objective(case: DcOpfCase, u: np.ndarray, gen: np.ndarray) -> float:
    """Installation plus generation cost of the original placement model."""
    return float(
        case.pv_cost * np.sum(u)
        + np.sum(case.gen_cost_a * gen**2 + case.gen_cost_b * gen + case.gen_cost_c)
    )


def solver_params_for(case: DcOpfCase, rho: float, alpha: float, tol: float,
                      max_iterations: int) -> SolverParams:
    """Engine parameters for a case: l_H = eta, lambda = 1, beta = 0."""
    return SolverParams(
        rho=rho,
        mu=1.0,
        lipschitz_H=case.eta,
        lipschitz_P=0.0,
        weak_convexity_G=0.0,
        strong_convexity=alpha,
        lambda_min_BtB=1.0,
        max_iterations=max_iterations,
        stop_tolerance=tol,
        stop_rule=engine.STOP_RELATIVE,
    )


def _stacked_product(block_problem: DcOpfBlockProblem, x: np.ndarray) -> np.ndarray:
    """sum_i A_i x_i in the full constraint space, each block added on its rows."""
    ax = np.zeros(block_problem.problem.p)
    for i, xi in enumerate(x):
        ax[block_problem.block_rows(i)] += block_problem.apply_A(i, xi)
    return ax


def lower_bound_init(block_problem: DcOpfBlockProblem, jitter: float = 0.0,
                     seed: int | None = None):
    """All variables at their lower bound (zero), slack absorbing b.

    A positive ``jitter`` adds uniform [0, jitter) noise to the x blocks so
    seeded repetitions explore different basins.
    """
    shape = (len(block_problem.block_shapes),) + tuple(block_problem.block_shapes[0])
    if jitter > 0.0:
        x = jitter * np.random.default_rng(seed).random(shape)
    else:
        x = np.zeros(shape)
    y = np.maximum(block_problem.rhs - _stacked_product(block_problem, x), 0.0)
    z = np.zeros(block_problem.problem.p)
    return engine.initial_state(block_problem, x, y, z)


def frozen_u_problem(problem: DcOpfProblem, u_rounded: np.ndarray) -> DcOpfProblem:
    """The model with the placement frozen at ``u_rounded``.

    The u column moves into the right-hand side (b' = b - sum_i A_i[:, u]
    u_i), leaving a convex three-variable-per-bus power flow.
    """
    n = problem.case.num_buses
    return DcOpfProblem(
        case=problem.case,
        A=[Ai[:, :U] for Ai in problem.A],
        b=problem.b - sum(problem.A[i][:, U] * u_rounded[i] for i in range(n)),
        Q=[Qi[:U, :U] for Qi in problem.Q],
        q=[qi[:U] for qi in problem.q],
        p=problem.p,
    )


def frozen_u_recheck(
    problem: DcOpfProblem,
    u_rounded: np.ndarray,
    warm_x: np.ndarray | None = None,
    *,
    rho: float,
    alpha: float,
    tol: float = 1e-6,
    max_iterations: int = 4000,
    feasibility_tolerance: float = 1e-3,
) -> tuple[bool, float, np.ndarray]:
    """Re-solve ``frozen_u_problem(problem, u_rounded)``, from the first
    three columns of ``warm_x`` when given.

    Returns (feasible, worst constraint violation, refined N x 3 blocks);
    the solution is declared feasible when max(A x - b') does not exceed
    the tolerance.
    """
    case = problem.case
    reduced = frozen_u_problem(problem, u_rounded)
    b_frozen = reduced.b
    block_problem = DcOpfBlockProblem(reduced, rho=rho, alpha=alpha, gamma=0.0)
    if warm_x is not None:
        x0 = np.asarray(warm_x, dtype=float)[:, :U]
    else:
        x0 = np.zeros((case.num_buses, U))
    y0 = np.maximum(b_frozen - _stacked_product(block_problem, x0), 0.0)
    init = engine.initial_state(block_problem, x0, y0, np.zeros(problem.p))
    params = solver_params_for(case, rho=rho, alpha=alpha, tol=tol, max_iterations=max_iterations)
    result = engine.solve(block_problem, params, init)
    x = result.state.x
    violation = float(np.max(_stacked_product(block_problem, x) - b_frozen))
    return violation <= feasibility_tolerance, max(violation, 0.0), x


def solve_dcopf(
    case: DcOpfCase,
    *,
    rho: float | None = None,
    alpha: float = 1e-2,
    tol: float = 1e-5,
    max_iterations: int = 4000,
    init_jitter: float = 0.0,
    seed: int | None = None,
    recheck: bool = True,
) -> DcOpfSolution:
    """Build the model, run the engine, and report the placement solution.

    The default penalty rho = 2*eta + 1e-10 sits just above its admissible
    bound.  Termination uses the unshifted relative change of the stacked
    iterate (x, y, z) against ``tol``.
    """
    problem = build_problem(case)
    if rho is None:
        rho = 2.0 * case.eta + 1e-10
    params = solver_params_for(case, rho=rho, alpha=alpha, tol=tol, max_iterations=max_iterations)
    engine.validate_parameters(params)
    block_problem = DcOpfBlockProblem(problem, rho=rho, alpha=alpha)
    init = lower_bound_init(block_problem, jitter=init_jitter, seed=seed)
    start = time.perf_counter()
    result = engine.solve(block_problem, params, init)
    wall = time.perf_counter() - start
    if result.status == engine.STATUS_ORACLE_FAILURE:
        raise result.oracle_error

    x = result.state.x
    pv, gen, theta, u = x.T.copy()  # the PV, GEN, THETA and U columns
    u_rounded = np.where(u >= 0.5, 1.0, 0.0)

    rounded_feasible = None
    rounded_violation = None
    if recheck:
        rounded_feasible, rounded_violation, _ = frozen_u_recheck(
            problem, u_rounded, warm_x=x, rho=rho, alpha=alpha
        )
    return DcOpfSolution(
        pv=pv,
        gen=gen,
        theta=theta,
        u=u,
        u_rounded=u_rounded,
        y=result.state.y,
        z=result.state.z,
        objective_opf1_rounded=opf1_objective(case, u_rounded, gen),
        objective_opf1_raw=opf1_objective(case, u, gen),
        objective_relaxed=engine.objective_value(block_problem, x, result.state.y),
        binary_violation=float(np.sum(u - u * u)),
        feasibility_residual=result.reports[-1].feasibility,
        iterations=result.iterations,
        wall_time=wall,
        converged=result.status == engine.STATUS_CONVERGED,
        rounded_feasible=rounded_feasible,
        rounded_violation=rounded_violation,
        reports=result.reports,
    )


def two_bus_fixture(gamma: float = 80.0, eta: float = 1e5) -> DcOpfCase:
    """A two-bus case whose sensible placements are all binary.

    The penetration floor (half of 1.6 pu total demand) equals exactly one
    full PV unit, and each bus can absorb a full unit without curtailment
    (local demand plus the 0.3 pu line leaves no PV stranded), so the
    linking rows never pin a placement variable at a fractional value.
    Both buses carry generators, the second one pricier.

    Solving the fixture to the default tolerance takes roughly 1e4 sweeps
    at eta = 1e5: the vertex gap of u and the worst slack negativity both
    scale like gamma/eta, so loosening eta speeds the run up but leaves u
    further from {0, 1}.
    """
    return DcOpfCase(
        demand=np.array([1.0, 0.6]),
        lines=((0, 1, 5.0),),
        pv_cost=1.0,
        gen_cost_a=np.array([0.2, 0.4]),
        gen_cost_b=np.array([0.05, 0.05]),
        gen_cost_c=np.array([0.433, 0.433]),
        pv_capacity=0.8,
        gen_capacity=np.array([5.0, 5.0]),
        line_limit=0.3,
        gamma=gamma,
        eta=eta,
    )
