"""DC optimal power flow with optimal photovoltaic placement.

Each bus i owns four variables x_i = [P_i^pv, P_i^gen, theta_i, u_i]: PV
output, conventional generation, voltage angle, and a placement indicator.
The binary placement decision u_i in {0, 1} is relaxed to [0, 1] and pushed
back to the vertices by subtracting the concave penalty gamma * sum(u_i^2 -
u_i) from the objective.  All inequality constraints A x <= b (power
balance, a 50 percent PV penetration floor, thermal line limits, PV
linking, generator bounds, and the u and theta boxes) become A x + y = b
with slack y whose negativity is penalized by (eta/2) dist^2(y, R^p_+).

The resulting model is one object, the ``DcOpfBlockProblem`` that
``build_problem`` returns: the case, A, b and the costs, with the
closed-form oracles the generic engine calls.  Each x block solves a 4x4
symmetric positive definite system K_i whose matrix is iteration
independent, and the y update is a componentwise two-branch formula.  A
bus block touches only its own rows, the rows of its neighbours' balance
and line limits and the penetration floor.  ``build_problem`` writes each
A_i on those rows alone (the dense p x 4 blocks are built one by one when
read), so the x sweep and the start's residual cost O(nnz(A)), not O(N p);
the engine sees the blocks in the whole constraint space.
The engine stacks the bus blocks into one N x 4 array, so the placement
penalty, its gradient, the quadratic costs and the per-bus result columns
are column operations on it.

The x sweep is one block Gauss-Seidel pass in natural bus order (Saad,
Iterative Methods for Sparse Linear Systems, 2nd ed., ch. 4).  On this
quadratic subproblem the pass is a block forward substitution, which
``DcOpfBlockProblem`` takes eight buses at a time through a dense operator
per run of eight, cached like a factorization (Boyd et al., Distributed
Optimization and Statistical Learning via ADMM, 2011, sec. 4.2).  It
carries the multiplier in its scaled form (ibid., sec. 3.1.1), z/rho added
to the residual, so no sweep forms A^T z.  The blocks are small, so
numpy's per-call overhead, not arithmetic, is the cost of a sweep, and a
run of eight buses makes about as many calls as one bus would alone.
"""

from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import engine
from .engine import BlockProblem, IterationReport, SolverParams
from .spaces import dist_sq_nonneg_orthant

PV, GEN, THETA, U = 0, 1, 2, 3  # column layout of a bus block
BLOCK_DIM = 4

# the frozen-u recheck: its stop tolerance and sweep cap, and the largest
# constraint violation it still calls feasible
RECHECK_TOLERANCE = 1e-6
RECHECK_MAX_ITERATIONS = 4000
RECHECK_FEASIBILITY_TOLERANCE = 1e-3
_CHUNK_BUSES = 8  # buses per block row of the x sweep's forward substitution


@dataclass(frozen=True)
class DcOpfCase:
    """Grid data in per-unit: demands, lines, costs, and capacities.

    ``lines`` holds undirected edges (i, j, susceptance) with 0-based integer
    bus indices; susceptance is stored once per edge and used symmetrically.
    A case checks itself when built, also by ``dataclasses.replace``, and
    raises a ``ValueError`` naming the bad line or field.
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

    def susceptance(self) -> dict:
        """Map (i, j) -> b_ij for both orientations, parallel edges summed: the directed lines."""
        table: dict = {}
        for i, j, b in self.lines:
            table[(i, j)] = table.get((i, j), 0.0) + b
            table[(j, i)] = table.get((j, i), 0.0) + b
        return table

    def __post_init__(self):
        n = self.num_buses
        for i, j, b in self.lines:
            # bool is an int, and a float would index by truncation
            if any(isinstance(e, bool) or not isinstance(e, (int, np.integer)) for e in (i, j)):
                raise ValueError(f"line ({i}, {j}) has an endpoint that is not a bus index")
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"line ({i}, {j}) has an invalid endpoint")
            if not np.isfinite(b) or b == 0.0:
                raise ValueError(f"line ({i}, {j}) susceptance {b} must be finite and nonzero")
        for field in fields(self):
            if field.name != "lines" and not np.isfinite(getattr(self, field.name)).all():
                raise ValueError(f"{field.name} must be finite")
        for name in ("demand", "gen_capacity", "gen_cost_a", "gen_cost_b", "gen_cost_c"):
            shape = np.shape(getattr(self, name))
            if shape != (n,):
                raise ValueError(f"{name} of shape {shape} does not hold one entry per bus ({n})")
        if self.pv_capacity < 0 or self.line_limit < 0 or np.any(self.gen_capacity < 0):
            raise ValueError("capacities must be nonnegative")
        if self.eta <= 0:
            raise ValueError("slack penalty eta must be positive")
        if self.gamma < 0:
            raise ValueError("relaxation weight gamma must be nonnegative")


def expected_row_count(case: DcOpfCase) -> int:
    """p = 9|N| + sum_i |M_i| + 1, the degree sum being the directed lines of ``susceptance``."""
    return 9 * case.num_buses + len(case.susceptance()) + 1


def _compact_blocks(n: int, entries: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group (bus array, row, column, value) entries, scalars filled out to
    the bus length, into all blocks A_i end to end in bus order (each on its
    sorted nonzero rows) and the N + 1 bounds of the buses' runs; repeats
    sum in order."""
    bus, row, col, value = (np.concatenate(part) for part in zip(
        *([np.full(len(entry[0]), field) for field in entry] for entry in entries)))
    order = np.lexsort((row, bus))
    bus, row, col, value = bus[order], row[order], col[order], value[order]
    first = (np.diff(bus, prepend=-1) != 0) | (np.diff(row, prepend=-1) != 0)
    compact = np.zeros((int(np.count_nonzero(first)), BLOCK_DIM))
    np.add.at(compact, (np.cumsum(first) - 1, col), value)
    keep = np.any(compact != 0.0, axis=1)
    bus, row, compact = bus[first][keep], row[first][keep], compact[keep]
    return row, compact, np.searchsorted(bus, np.arange(n + 1))


def build_problem(case: DcOpfCase) -> "DcOpfBlockProblem":
    """Assemble A x <= b as compact per-bus blocks, as the engine problem.

    Row order: power balance per bus, the penetration floor, thermal limits
    per directed line (grouped by source bus), then per bus the PV linking
    pair, generator bound pair, u box pair, and theta box pair (upper row
    before lower row in each pair).
    """
    n = case.num_buses
    b_table = case.susceptance()
    buses = np.arange(n)
    edges = sorted(b_table)  # the directed lines, grouped by source bus
    source, target = np.array(edges, dtype=int).reshape(-1, 2).T
    weight = np.array([b_table[e] for e in edges])
    line_rows = n + 1 + np.arange(len(edges))
    p = line_rows.size + n + 1 + 8 * n  # line, balance and floor rows, four pairs per bus
    # upper rows of the per-bus pairs; each lower row follows its upper row
    link, gen, u_box, theta_box = line_rows.size + n + 1 + 2 * (n * np.arange(4)[:, None] + buses)
    stacked = _compact_blocks(n, [
        # demand coverage: -P_pv - P_gen + sum_j b_ij (theta_i - theta_j) <= -D_i
        (buses, buses, PV, -1.0), (buses, buses, GEN, -1.0),
        (source, source, THETA, weight), (target, source, THETA, -weight),
        # penetration floor: total PV output covers half of total demand
        (buses, n, PV, -1.0),
        # thermal limit of each directed line: b_ij (theta_i - theta_j) <= limit
        (source, line_rows, THETA, weight), (target, line_rows, THETA, -weight),
        # PV output linked to placement: 0 <= P_pv <= u * capacity
        (buses, link, PV, 1.0), (buses, link, U, -case.pv_capacity), (buses, link + 1, PV, -1.0),
        # generator bounds, placement box u in [0, 1], angle box theta in [0, 2*pi]
        (buses, gen, GEN, 1.0), (buses, gen + 1, GEN, -1.0),
        (buses, u_box, U, 1.0), (buses, u_box + 1, U, -1.0),
        (buses, theta_box, THETA, 1.0), (buses, theta_box + 1, THETA, -1.0),
    ])
    b = np.zeros(p)
    b[:n] = -case.demand
    b[n] = -float(np.sum(case.demand)) / 2.0
    b[line_rows] = case.line_limit
    b[gen] = case.gen_capacity
    b[u_box] = 1.0
    b[theta_box] = 2.0 * np.pi
    Q_diag, q = np.zeros((n, BLOCK_DIM)), np.zeros((n, BLOCK_DIM))
    Q_diag[:, GEN] = 2.0 * case.gen_cost_a
    q[:, GEN], q[:, U] = case.gen_cost_b, case.pv_cost
    return DcOpfBlockProblem(case, *stacked, b, Q_diag, q)


@dataclass
class DenseBlocks(Sequence):
    """The dense blocks A_i (p x k), each scattered from its compact one when read:
    a pass holds one, not all N, whose freed heap stays resident by chance."""

    problem: "DcOpfBlockProblem"

    def __len__(self):
        return self.problem.num_blocks

    def __getitem__(self, i):
        dense = np.zeros((self.problem.p, *self.problem.block_shape))
        dense[self.problem.rows[i]] = self.problem.blocks[i]
        return dense


class DcOpfBlockProblem(BlockProblem):
    """The model A x + y = b for the engine.

    Each A_i is kept on ``rows[i]``, the sorted rows where it has a nonzero
    entry, as ``blocks[i]`` (len(rows[i]) x k), both views of one copy of
    all blocks end to end in bus order; the dense p x k blocks ``A`` are
    built one by one when read.  ``Q_diag`` and ``q`` are N x k arrays of
    the per-bus cost diagonals and linear terms.  ``apply_A`` scatters a
    compact product into the whole constraint space, and ``solve_x_block``
    gathers z and the partial residual on ``rows[i]``.
    ``build_problem`` builds the whole model (k = 4) and
    ``frozen_u_problem`` the model of a frozen placement (k = 3).

    The x oracle is the closed-form update

        x = K_i^-1 (w x_i - q_i - linear_i - A_i^T (z + rho r)),
        K_i = diag(Q_diag[i]) + rho A_i^T A_i + w I,

    with w the proximal weight alpha and r the partial residual, one 4x4
    solve per call with nothing cached.  A problem without the u
    column (the frozen-u recheck) has no placement penalty, so gamma is the
    case's with four columns and 0 with three.

    ``x_sweep`` runs the same updates without an oracle call per bus, with
    the multiplier in scaled form, A_i^T (z + rho r) = rho A_i^T (z/rho
    + r).  With c = z/rho + res carried through the sweep, res the
    residual, the update above is x_i+ = x_i + dx_i with

        K_i dx_i = -(g_i + rho A_i^T c[rows_i]),
        g_i = Q_i x_i + q_i - gamma (2 u_i - 1) e_u,

    where g, at the sweep start, is one column operation on the N x k
    iterate: the placement penalty's gradient (there is no P) is
    subtracted from its u column in place.  c is z/rho plus the sweep-start
    residual res0 plus sum_{j<i} A_j dx_j, so the pass solves (D + L) dx =
    -(g + rho A^T (z/rho + res0)) with D = blockdiag(K_i) and L the
    strictly block-lower part of rho A^T A: a block forward substitution.
    It runs one chunk C of ``_CHUNK_BUSES`` consecutive buses at a time,

        dx_C = -(D + L)_CC^-1 (g_C + rho Abar_C^T c[R_C]),
        c[R_C] += Abar_C dx_C,

    with R_C the sorted union of the chunk's rows and Abar_C the dense
    |R_C| x 8k block of A on them.  A bus meets the earlier buses of its
    chunk through the chunk inverse and earlier chunks through c, so this
    is the natural-order pass up to rounding; it returns c - z/rho as the
    new residual, with rounding of the size of z/rho.  A chunk costs a
    gather, three ``ndarray.dot`` products and a scatter whatever its size,
    while its dense products and memory grow with it, so its size trades
    calls against arithmetic.  Each chunk keeps R_C, Abar_C and the scaled
    inverse -rho (D + L)_CC^-1 (the sweep scales g by 1/rho to match),
    about 28 floats per nonzero of A, so they grow with nnz(A), not N p.
    The CHANGES.md entry "Chunked exact Gauss-Seidel for the DC-OPF x
    sweep" times the sizes tried and gives this memory.  The operators do
    not depend on the iterate, so the sweep builds them for the first
    (rho, w) and rebuilds them for another pair.  A chunk inverse mixes its
    buses (0 x inf is NaN), so the sweep first checks g finite and names
    the first bus that is not; a z that is not finite is named by the
    report of the sweep that made it (the block "multiplier"), so no sweep
    of a run meets one.
    """

    def __init__(self, case: DcOpfCase, stacked_rows: np.ndarray, stacked_A: np.ndarray,
                 bounds: np.ndarray, b: np.ndarray, Q_diag: np.ndarray, q: np.ndarray):
        self.case, self.b, self.Q_diag, self.q = case, b, Q_diag, q
        self.p = len(b)
        self.num_blocks, width = q.shape
        self.gamma = case.gamma if width > U else 0.0
        self.eta = case.eta
        self.block_shape = (width,)
        self.y_shape = (self.p,)
        # the blocks end to end, for the products of all buses at once; bus
        # i's run of them is bounds[i]:bounds[i + 1]
        self._stacked_rows, self._stacked_A, self._bounds = stacked_rows, stacked_A, bounds
        self.rows = np.split(stacked_rows, bounds[1:-1])
        self.blocks = np.split(stacked_A, bounds[1:-1])
        self._factor_pair = self._chunks = None  # built by the first sweep
        self._cost_const_total = float(np.sum(case.gen_cost_c))

    A = property(DenseBlocks)

    def _chunk_operator(self, first, rho, w):
        """(R_C, A_C, -rho (D + L)_CC^-1) of the chunk of buses from ``first``."""
        bounds = self._bounds[first:first + _CHUNK_BUSES + 1]
        k, count = self.block_shape[0], len(bounds) - 1
        span = slice(bounds[0], bounds[-1])
        rows = self._stacked_rows[span]
        # the sorted union of the buses' rows; np.unique would import numpy.ma
        ordered = np.sort(rows)
        union = ordered[np.diff(ordered, prepend=-1) != 0]
        bus = np.repeat(np.arange(count), np.diff(bounds))
        dense = np.zeros((len(union), count * k))
        dense[np.searchsorted(union, rows)[:, None], k * bus[:, None] + np.arange(k)] = \
            self._stacked_A[span]
        block = np.arange(count * k) // k
        sweep = np.where(block[:, None] >= block, rho * (dense.T @ dense), 0.0)
        sweep[np.diag_indices_from(sweep)] += self.Q_diag[first:first + count].ravel() + w
        return union, dense, -rho * np.linalg.inv(sweep)

    def apply_A(self, i, x):
        out = np.zeros(self.p)
        out[self.rows[i]] = self.blocks[i] @ x
        return out

    def apply_B(self, y):
        return y

    def residual(self, x, y):
        """A x + y - b as one product: each stacked row of A times its bus's x."""
        terms = np.einsum("ij,ij->i", self._stacked_A, np.repeat(x, np.diff(self._bounds), axis=0))
        return np.bincount(self._stacked_rows, terms, self.p) + y - self.b

    def eval_f(self, x):
        quadratic = 0.5 * float(np.vdot(self.Q_diag * x, x))
        return quadratic + float(np.vdot(self.q, x)) + self._cost_const_total

    def eval_H(self, y):
        return 0.5 * self.eta * dist_sq_nonneg_orthant(y)

    def eval_G(self, x):
        if self.gamma == 0.0:
            return 0.0
        u = x[:, U]
        return self.gamma * float((u * u - u).sum())

    def subgrad_G(self, x):
        """Gradient of the placement penalty gamma * sum_i (u_i^2 - u_i): zero
        except the u column, gamma (2 u_i - 1).  The penalty is convex, so
        this is its unique subgradient and the weak convexity modulus is 0."""
        out = np.zeros_like(x)
        if self.gamma != 0.0:
            out[:, U] = self.gamma * (2.0 * x[:, U] - 1.0)
        return out

    def solve_x_block(self, i, x_i, linear_i, z, partial_residual, rho, prox_weight):
        w, rows, A = prox_weight, self.rows[i], self.blocks[i]
        rhs = w * x_i - self.q[i] - linear_i - A.T @ (z[rows] + rho * partial_residual[rows])
        return np.linalg.solve(np.diag(self.Q_diag[i] + w) + rho * (A.T @ A), rhs)

    def x_sweep(self, state, rho, prox_weight):
        if self._factor_pair != (rho, prox_weight):
            self._chunks = [self._chunk_operator(first, rho, prox_weight)
                            for first in range(0, self.num_blocks, _CHUNK_BUSES)]
            self._factor_pair = (rho, prox_weight)
        gradient = self.Q_diag * state.x + self.q
        if self.gamma != 0.0:
            gradient[:, U] -= self.gamma * (2.0 * state.x[:, U] - 1.0)
        failed = engine.first_non_finite_block(gradient, state.n + 1)
        if failed is not None:  # a chunk inverse would spread it to the chunk's earlier buses
            raise failed
        # each chunk's correction, against z/rho plus the residual carried so far
        scaled, width = (gradient / rho).ravel(), _CHUNK_BUSES * gradient.shape[1]
        shift = state.z / rho
        carried = state.residual + shift
        steps = []
        for start, (rows, A, S) in zip(range(0, scaled.size, width), self._chunks):
            c = carried[rows]
            dx = S.dot(A.T.dot(c) + scaled[start:start + width])
            carried[rows] = c + A.dot(dx)
            steps.append(dx)
        return state.x + np.concatenate(steps).reshape(state.x.shape), carried - shift

    def solve_y_block(self, z, x_residual, rho):
        """Closed-form slack update, componentwise (one call, as 0 < k < 1):

            y_j = max(0, v_j) + k min(0, v_j) = max(v_j, k v_j),
            k = rho/(eta + rho),  v = -(A x - b) - z / rho.
        """
        v = -x_residual - z / rho
        return np.maximum(v, (rho / (self.eta + rho)) * v)


@dataclass
class DcOpfSolution:
    """Per-bus decisions plus objective and feasibility diagnostics.

    The cost of the original placement model, PV installation plus
    generation, is f (``DcOpfBlockProblem.eval_f``): ``objective_opf1_raw``
    is f at the solved u and ``objective_opf1_rounded`` at u rounded to the
    nearest vertex (ties round up), since either reading of the model is
    defensible.  ``feasibility_residual`` is ||A x + y - b||, the splitting
    residual between the constraints and their slacks, not the worst
    violation max(A x - b)_+: a slack may stay negative, so the residual can
    be small while a constraint is far from met (the CHANGES.md entry "The
    DC-OPF x step caches one operator" measures both on the seeded 141-bus
    feeder).
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


def solver_params_for(case: DcOpfCase, rho: float | None = None, alpha: float = 1e-2,
                      tol: float = 1e-5, max_iterations: int = 4000) -> SolverParams:
    """Engine parameters for a case: l_H = eta and the engine's lambda = 1
    and l_P = beta = 0.  The default penalty ``rho_above_gate(eta)`` sits
    just above its admissible bound.  ``tol`` is the engine's stop
    tolerance on the relative change of the stacked iterate (x, y, z)."""
    return SolverParams(
        rho=engine.rho_above_gate(case.eta) if rho is None else rho,
        lipschitz_H=case.eta,
        strong_convexity=alpha,
        max_iterations=max_iterations,
        stop_tolerance=tol,
    )


def _init_from_blocks(problem: DcOpfBlockProblem, x: np.ndarray):
    """The x blocks with the slack absorbing b - sum_i A_i x_i, clipped at
    zero, and a zero multiplier.  From r = A x - b, formed once, y = max(-r,
    0) and the residual is r + y = max(r, 0), exactly in floating point."""
    zeros = np.zeros(problem.p)
    state = engine.initial_state(problem, x, zeros, zeros)  # its residual is r
    state.y, state.residual = np.maximum(-state.residual, 0.0), np.maximum(state.residual, 0.0)
    return state


def lower_bound_init(problem: DcOpfBlockProblem, jitter: float = 0.0,
                     seed: int | None = None):
    """All variables at their lower bound (zero), slack absorbing b.

    Uniform [0, jitter) noise on the x blocks lets seeded repetitions
    explore different basins; jitter 0 starts at exactly zero, and a
    negative or non-finite jitter raises a ``ValueError``.
    """
    if not 0.0 <= jitter < np.inf:  # NaN fails this too
        raise ValueError(f"jitter must be finite and non-negative, got {jitter}")
    shape = (problem.num_blocks, *problem.block_shape)
    return _init_from_blocks(problem, jitter * np.random.default_rng(seed).random(shape))


def frozen_u_problem(problem: DcOpfBlockProblem, u_rounded: np.ndarray) -> DcOpfBlockProblem:
    """The model with the placement frozen at ``u_rounded``.

    The u column moves into the right-hand side (b' = b - sum_i A_i[:, u]
    u_i), leaving a convex three-variable-per-bus power flow; one mask keeps
    the stacked rows where the first three columns are nonzero.  A
    ``u_rounded`` that is not one 0 or 1 per bus raises a ``ValueError``.
    """
    u = np.asarray(u_rounded)
    if u.shape != (problem.num_blocks,) or not np.all((u == 0.0) | (u == 1.0)):
        raise ValueError(f"u_rounded must hold one 0 or 1 per bus ({problem.num_blocks}), got {u}")
    rows, A, bounds = problem._stacked_rows, problem._stacked_A, problem._bounds
    b = problem.b.copy()
    np.subtract.at(b, rows, A[:, U] * np.repeat(u, np.diff(bounds)))
    keep = np.any(A[:, :U] != 0.0, axis=1)
    return DcOpfBlockProblem(problem.case, rows[keep], A[keep, :U],
                             np.searchsorted(np.flatnonzero(keep), bounds), b,
                             problem.Q_diag[:, :U], problem.q[:, :U])


def frozen_u_recheck(problem: DcOpfBlockProblem, u_rounded: np.ndarray, params: SolverParams,
                     warm_x: np.ndarray) -> tuple[bool, float]:
    """Re-solve ``frozen_u_problem(problem, u_rounded)``, from the first
    three columns of ``warm_x``, with the penalty and proximal weight of
    ``params`` and the ``RECHECK_*`` tolerance and sweep cap.

    Returns (feasible, worst constraint violation): max(A x - b'), read
    from the final state's carried residual A x + y - b' less its slack y,
    is feasible when it does not exceed ``RECHECK_FEASIBILITY_TOLERANCE``.
    An oracle failure raises the engine's ``BlockOracleError``, and a
    ``warm_x`` that is not one row of x per bus raises a ``ValueError``.
    """
    frozen = frozen_u_problem(problem, u_rounded)
    x0, shape = np.asarray(warm_x, dtype=float), (problem.num_blocks, *problem.block_shape)
    if x0.shape != shape:
        raise ValueError(f"warm_x of shape {x0.shape} is not of shape {shape}")
    params = replace(params, stop_tolerance=RECHECK_TOLERANCE,
                     max_iterations=RECHECK_MAX_ITERATIONS)
    state = engine.solve(frozen, params, _init_from_blocks(frozen, x0[:, :U])).state
    violation = float(np.max(state.residual - state.y))
    return violation <= RECHECK_FEASIBILITY_TOLERANCE, max(violation, 0.0)


def solve_dcopf(
    case: DcOpfCase,
    *,
    init_jitter: float = 0.0,
    seed: int | None = None,
    recheck: bool = True,
    **settings,
) -> DcOpfSolution:
    """Build the model, run the engine, and report the placement solution.

    ``settings`` are the keywords of ``solver_params_for`` (rho, alpha, tol,
    max_iterations), which owns their defaults; the frozen-u recheck runs
    with the same rho and alpha.  An oracle failure, in the solve or in
    the recheck, raises the engine's ``BlockOracleError``.
    """
    problem = build_problem(case)
    params = solver_params_for(case, **settings)
    result = engine.solve(problem, params, lower_bound_init(problem, jitter=init_jitter, seed=seed))

    x = result.state.x
    pv, gen, theta, u = x.T.copy()  # the PV, GEN, THETA and U columns
    u_rounded = np.where(u >= 0.5, 1.0, 0.0)

    rounded_feasible = None
    rounded_violation = None
    if recheck:
        rounded_feasible, rounded_violation = frozen_u_recheck(problem, u_rounded, params, x)
    return DcOpfSolution(
        pv=pv,
        gen=gen,
        theta=theta,
        u=u,
        u_rounded=u_rounded,
        y=result.state.y,
        z=result.state.z,
        objective_opf1_rounded=problem.eval_f(np.column_stack((x[:, :U], u_rounded))),
        objective_opf1_raw=problem.eval_f(x),
        objective_relaxed=result.reports[-1].objective,
        binary_violation=float(np.sum(u - u * u)),
        feasibility_residual=result.reports[-1].feasibility,
        iterations=result.iterations,
        wall_time=result.wall_time,
        converged=result.converged,
        rounded_feasible=rounded_feasible,
        rounded_violation=rounded_violation,
        reports=result.reports,
    )


def two_bus_fixture() -> DcOpfCase:
    """A two-bus case whose sensible placements are all binary, with
    gamma = 80 and eta = 1e5 (``dataclasses.replace`` sets others).

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
        gamma=80.0,
        eta=1e5,
    )
