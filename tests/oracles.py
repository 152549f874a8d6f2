"""Independent numerical oracles used to cross-check closed-form operators.

The minimization oracles judge points only through objective evaluations,
so a formula bug in the package cannot leak into its own check.  The
pieces the package minimizes are piecewise quadratic, for which central
finite differences are truncation-free; that pushes the oracles well past
the sqrt(eps) accuracy floor of plain value-comparison searches.

``opf1_cost`` is the cost of the original placement model, a reference
for ``DcOpfBlockProblem.eval_f`` and the costs ``dcopf.solve_dcopf``
reports.  ``dense_reference_problem`` assembles the DC-OPF constraints row
by row into dense blocks, a reference for ``dcopf.build_problem``, and
``dense_frozen_problem`` shifts them to a frozen placement.
``dcopf_x_block_solve`` is the DC-OPF block update as a fresh linear solve
on every row, a reference for ``DcOpfBlockProblem.solve_x_block``.
``dcopf_reference_sweep`` and ``rpca_reference_sweep`` are references for
the engine's bookkeeping rather than for an operator: the plain loop, and
the closed-form recursion, that the engine's sweep must reproduce.
``x_subproblem_value`` and ``y_subproblem_value`` evaluate the engine's
block subproblems, so an oracle's output can be compared with other
points.  ``random_radial_case`` draws the seeded radial DC-OPF cases that
the tests run these references on.
"""

import numpy as np

from bpladmm import dcopf
from bpladmm.engine import BlockProblem
from bpladmm.spaces import singular_value_shrink, soft_shrink

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, iterations=90):
    """Minimize a unimodal scalar function on [lo, hi] by golden section.

    Accuracy is limited to about sqrt(eps) times the argument scale because
    the objective flattens quadratically at the minimum.
    """
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def bisect_fd_root(f, lo, hi, h=1e-5, iterations=80):
    """Root of the central finite difference of f on [lo, hi].

    The difference quotient of a convex piecewise quadratic is increasing,
    so plain bisection applies.
    """

    def slope(s):
        return (f(s + h) - f(s - h)) / (2.0 * h)

    a, b = float(lo), float(hi)
    for _ in range(iterations):
        mid = 0.5 * (a + b)
        if slope(mid) > 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def minimize_scalar_candidates(f, candidates):
    """The candidate with the smallest objective value."""
    best = None
    best_value = np.inf
    for s in candidates:
        value = f(s)
        if value < best_value:
            best, best_value = s, value
    return best


def scalar_prox_l1(t, c):
    """argmin_s c|s| + (s - t)^2 / 2, judged purely by objective values.

    Candidates: the finite-difference stationary point plus the kink and
    both smooth-branch stationary points; f picks the winner, so a wrong
    closed form cannot win against the bisection root.
    """

    def f(s):
        return c * abs(s) + 0.5 * (s - t) ** 2

    radius = abs(t) + c + 1.0
    root = bisect_fd_root(f, -radius, radius)
    return minimize_scalar_candidates(f, [0.0, root, t - c, t + c])


def fd_gradient(f, x, h=1e-5):
    """Central differences; exact (up to rounding) for quadratics."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        bump = np.zeros_like(x)
        bump.flat[k] = h
        grad.flat[k] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return grad


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            value = (f(x + ei + ej) - f(x + ei) - f(x + ej) + f0) / (h * h)
            hess[i, j] = hess[j, i] = value
    return hess


def newton_fd(f, x0, iterations=3):
    """Minimize a smooth convex quadratic through objective values only.

    One exact Newton step solves a quadratic; repeating washes out the
    rounding noise of the finite-difference Hessian.
    """
    x = np.array(x0, dtype=float)
    for _ in range(iterations):
        grad = fd_gradient(f, x)
        hess = fd_hessian(f, x)
        x = x - np.linalg.solve(hess, grad)
    return x


def finite_difference_gradient(f, x, step=1e-6):
    """Central differences of a scalar function of a vector."""
    return fd_gradient(f, x, h=step)


def spectral_norm_eig(S):
    """Largest singular value via an eigendecomposition of S^T S."""
    S = np.asarray(S, dtype=float)
    return float(np.sqrt(max(np.linalg.eigvalsh(S.T @ S)[-1], 0.0)))


def nuclear_norm(M):
    return float(np.linalg.svd(M, compute_uv=False).sum())


def opf1_cost(case, u, gen):
    """Installation plus generation cost of the original placement model:
    pv_cost sum_i u_i + sum_i (a_i gen_i^2 + b_i gen_i + c_i)."""
    return float(
        case.pv_cost * np.sum(u)
        + np.sum(case.gen_cost_a * gen**2 + case.gen_cost_b * gen + case.gen_cost_c)
    )


def dense_reference_problem(case):
    """The constraints A x <= b of a ``DcOpfCase`` as dense p x 4 blocks,
    written row by row; returns (A, b).  The adjacency and the line weights
    are read from ``case.lines`` here, parallel lines summed, and p is the
    number of rows written.

    Row order: power balance per bus, the penetration floor, thermal limits
    per directed line (grouped by source bus), then per bus the PV linking
    pair, generator bound pair, u box pair, and theta box pair (upper row
    before lower row in each pair).
    """
    PV, GEN, THETA, U = dcopf.PV, dcopf.GEN, dcopf.THETA, dcopf.U
    n = case.num_buses
    weight = [{} for _ in range(n)]  # weight[i][j] = b_ij, for both orientations
    for i, j, b_ij in case.lines:
        weight[i][j] = weight[i].get(j, 0.0) + b_ij
        weight[j][i] = weight[j].get(i, 0.0) + b_ij
    rows, b = [], []

    def new_row(bound=0.0):
        """A new all-zero row, as its n x 4 entries over the blocks, with its bound."""
        rows.append(np.zeros((n, dcopf.BLOCK_DIM)))
        b.append(bound)
        return rows[-1]

    # demand coverage: -P_pv - P_gen + sum_j b_ij (theta_i - theta_j) <= -D_i
    for i in range(n):
        row = new_row(-case.demand[i])
        row[i, PV] = -1.0
        row[i, GEN] = -1.0
        for j in sorted(weight[i]):
            row[i, THETA] += weight[i][j]
            row[j, THETA] = -weight[i][j]

    # penetration floor: total PV output covers half of total demand
    row = new_row(-float(np.sum(case.demand)) / 2.0)
    row[:, PV] = -1.0

    # thermal limit of each directed line: b_ij (theta_i - theta_j) <= limit
    for i in range(n):
        for j in sorted(weight[i]):
            row = new_row(case.line_limit)
            row[i, THETA] = weight[i][j]
            row[j, THETA] = -weight[i][j]

    # PV output linked to placement: 0 <= P_pv <= u * capacity
    for i in range(n):
        row = new_row()
        row[i, PV] = 1.0
        row[i, U] = -case.pv_capacity
        new_row()[i, PV] = -1.0

    # generator bounds: 0 <= P_gen <= capacity_i
    for i in range(n):
        new_row(case.gen_capacity[i])[i, GEN] = 1.0
        new_row()[i, GEN] = -1.0

    # placement box: u in [0, 1]
    for i in range(n):
        new_row(1.0)[i, U] = 1.0
        new_row()[i, U] = -1.0

    # angle box: theta in [0, 2*pi]
    for i in range(n):
        new_row(2.0 * np.pi)[i, THETA] = 1.0
        new_row()[i, THETA] = -1.0

    return [np.array(block) for block in np.stack(rows, axis=1)], np.array(b)


def dense_frozen_problem(case, u_frozen):
    """``dense_reference_problem`` with the placement frozen at ``u_frozen``:
    three columns per block and b' = b - sum_i A_i[:, u] u_i; returns (A', b')."""
    A, b = dense_reference_problem(case)
    b = b - sum(Ai[:, dcopf.U] * ui for Ai, ui in zip(A, u_frozen))
    return [Ai[:, :dcopf.U] for Ai in A], b


def dcopf_x_block_solve(Q_diag, q, A, x_i, linear_i, z, partial_residual, rho, w):
    """The DC-OPF block update as one fresh solve of the SPD system

        (diag(Q_diag) + rho A^T A + w I) x = w x_i - q - linear_i - A^T (z + rho r)

    with w the proximal weight, z the multiplier and r the partial
    residual, both on every row, and A the dense block A_i; the arguments
    after A are those of ``solve_x_block`` after i.
    """
    matrix = np.diag(Q_diag) + rho * (A.T @ A) + w * np.eye(len(q))
    rhs = w * x_i - q - linear_i - A.T @ (z + rho * partial_residual)
    return np.linalg.solve(matrix, rhs)


def dcopf_reference_sweep(problem, params, x, y, z, u_frozen=None):
    """One sweep of the method on a ``DcOpfBlockProblem``, written as the
    plain Gauss-Seidel loop: blocks in a list, updated one by one.

    The problem is that of a whole case, or with ``u_frozen`` given, the
    frozen-u problem of that placement.  Every block sees the partial
    residual recomputed from scratch with the dense A_i of
    ``dense_reference_problem`` (``dense_frozen_problem`` for a frozen
    placement) on every row, and on a whole case the linear
    term -gamma (2 u_i - 1) on its u entry, from the placement penalty at the
    sweep start.  The block oracle is ``dcopf_x_block_solve`` on all rows,
    with the penalty and proximal weight of ``params`` and the generation
    and installation costs of the case, the slack minimizes the y
    subproblem componentwise at the dense A x - b, and the multiplier
    ascends by rho times the dense residual.  Only ``problem.case`` is
    read.  Returns the new (x, y, z), with x a list of blocks.
    """
    case = problem.case
    if u_frozen is None:
        A, b = dense_reference_problem(case)
    else:
        A, b = dense_frozen_problem(case, u_frozen)
    # f_i = a_i gen_i^2 + b_i gen_i + pv_cost u_i, as (1/2) x Q_i x + q_i x, on A's columns
    Q_diag, q = (np.zeros((case.num_buses, dcopf.BLOCK_DIM)) for _ in range(2))
    Q_diag[:, dcopf.GEN] = 2.0 * case.gen_cost_a
    q[:, dcopf.GEN], q[:, dcopf.U] = case.gen_cost_b, case.pv_cost
    Q_diag, q = Q_diag[:, :A[0].shape[1]], q[:, :A[0].shape[1]]
    rho, alpha, gamma, eta = params.rho, params.strong_convexity, case.gamma, case.eta
    x = [np.array(xi, dtype=float) for xi in x]
    linear = []
    for xi in x:
        term = np.zeros_like(xi)
        if u_frozen is None:
            term[dcopf.U] = -gamma * (2.0 * xi[dcopf.U] - 1.0)
        linear.append(term)
    for i in range(len(x)):
        partial = y - b
        for k in range(len(x)):
            if k != i:
                partial = partial + A[k] @ x[k]
        x[i] = dcopf_x_block_solve(Q_diag[i], q[i], A[i], x[i], linear[i], z, partial, rho, alpha)
    ax_minus_b = sum(A[k] @ x[k] for k in range(len(x))) - b
    # slack j minimizes (eta/2) min(y_j, 0)^2 + z_j y_j + (rho/2)(r_j + y_j)^2, r = A x - b:
    # the stationary point -(z_j + rho r_j)/rho where that is non-negative, else
    # -(z_j + rho r_j)/(eta + rho), which is then negative
    pull = z + rho * ax_minus_b
    y = np.where(pull <= 0.0, -pull / rho, -pull / (eta + rho))
    return x, y, z + rho * (ax_minus_b + y)


def rpca_reference_sweep(L, S, T, Z, M, tau, gamma, rho, alpha, g2):
    """One sweep of the robust PCA method as its closed-form recursion, with
    the matrices written out: L by singular value shrinkage, S by soft
    shrinkage shifted by tau g2 (g2 a spectral-norm subgradient of S, or 0),
    T by averaging, then the multiplier ascent.  The proximal weight is
    alpha; alpha = 0 and g2 = 0 give the plain three-block ADMM.  Returns
    the new (L, S, T, Z).
    """
    L_new = singular_value_shrink(
        (-Z - rho * S + rho * T + alpha * L) / (rho + alpha), 1.0 / (rho + alpha))
    S_new = soft_shrink((tau * g2 - Z - rho * L_new + rho * T + alpha * S) / (rho + alpha),
                        tau / (rho + alpha))
    T_new = (gamma * M + Z + rho * (L_new + S_new)) / (gamma + rho)
    return L_new, S_new, T_new, Z + rho * (L_new + S_new - T_new)


def x_subproblem_value(problem: BlockProblem, i: int, x: np.ndarray, x_i, linear_i, z,
                       partial_residual, rho, prox_weight) -> float:
    """Objective at the point x of the block-i subproblem that
    ``solve_x_block`` is given by the arguments after x, up to a constant:
    f_i(x) is ``eval_f`` of a stack that is zero outside block i, which
    adds sum_{k != i} f_k(0) (f is separable).

    An exact oracle's output never evaluates worse than any other point,
    in particular the incumbent iterate.
    """
    stack = np.zeros((problem.num_blocks, *problem.block_shape))
    stack[i] = x
    coupling = partial_residual + problem.apply_A(i, x)
    value = (
        problem.eval_f(stack)
        + float(np.vdot(linear_i, x))
        + float(np.vdot(z, problem.apply_A(i, x)))
        + 0.5 * rho * float(np.vdot(coupling, coupling))
    )
    step = x - x_i
    return value + 0.5 * prox_weight * float(np.vdot(step, step))


def y_subproblem_value(problem: BlockProblem, y: np.ndarray, z, x_residual, rho) -> float:
    """Objective at the point y of the y subproblem that ``solve_y_block``
    is given by the arguments after y."""
    coupling = x_residual + problem.apply_B(y)
    return (
        problem.eval_H(y)
        + float(np.vdot(z, problem.apply_B(y)))
        + 0.5 * rho * float(np.vdot(coupling, coupling))
    )


def random_radial_case(num_buses, seed):
    """A seeded radial feeder: bus k > 0 hangs off a uniformly drawn earlier bus."""
    rng = np.random.default_rng(seed)
    lines = tuple((int(rng.integers(0, k)), k, float(rng.uniform(2.0, 10.0)))
                  for k in range(1, num_buses))
    return dcopf.DcOpfCase(
        demand=rng.uniform(0.1, 0.8, num_buses),
        lines=lines,
        pv_cost=float(rng.uniform(0.5, 2.0)),
        gen_cost_a=rng.uniform(0.1, 0.5, num_buses),
        gen_cost_b=rng.uniform(0.01, 0.1, num_buses),
        gen_cost_c=rng.uniform(0.0, 0.5, num_buses),
        pv_capacity=float(rng.uniform(0.3, 1.0)),
        gen_capacity=rng.uniform(0.5, 5.0, num_buses),
        line_limit=float(rng.uniform(0.3, 2.0)),
        gamma=float(rng.uniform(1.0, 80.0)),
        eta=float(10.0 ** rng.uniform(3.0, 5.0)),
    )
