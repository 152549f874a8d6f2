"""Independent numerical oracles used to cross-check closed-form operators.

The minimization oracles judge points only through objective evaluations,
so a formula bug in the package cannot leak into its own check.  The
pieces the package minimizes are piecewise quadratic, for which central
finite differences are truncation-free; that pushes the oracles well past
the sqrt(eps) accuracy floor of plain value-comparison searches.

``dense_reference_problem`` assembles the DC-OPF constraints row by row
into dense blocks, a reference for ``dcopf.build_problem``.
``dcopf_reference_sweep`` and ``rpca_reference_sweep`` are references for
the engine's bookkeeping rather than for an operator: the plain loop, and
the closed-form recursion, that the engine's sweep must reproduce.
"""

import numpy as np

from bpladmm import dcopf
from bpladmm.engine import XBlockContext
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


def dense_reference_problem(case):
    """The constraints A x <= b of a ``DcOpfCase`` as dense p x 4 blocks,
    written row by row with a running row counter; returns (A, b).

    Row order: power balance per bus, the penetration floor, thermal limits
    per directed line (grouped by source bus), then per bus the PV linking
    pair, generator bound pair, u box pair, and theta box pair (upper row
    before lower row in each pair).
    """
    PV, GEN, THETA, U = dcopf.PV, dcopf.GEN, dcopf.THETA, dcopf.U
    n = case.num_buses
    adjacency = case.neighbors()
    b_table = case.susceptance()
    p = dcopf.expected_row_count(case)
    A = [np.zeros((p, dcopf.BLOCK_DIM)) for _ in range(n)]
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
    return A, b


def dcopf_reference_sweep(block_problem, x, y, z):
    """One sweep of the method on a ``DcOpfBlockProblem`` of a whole (not
    frozen-u) case, written as the plain Gauss-Seidel loop: blocks in a
    list, updated one by one.

    Every block sees the partial residual recomputed from scratch with the
    dense A_i of ``dense_reference_problem`` on every row, and the linear term
    -gamma (2 u_i - 1) on its u entry, from the placement penalty at the
    sweep start.  The block oracle is the closed form ``x_block_update``
    with a fresh solve on all rows, the slack is ``y_block_update`` of the
    dense A x - b, and the multiplier ascends by rho times the dense
    residual.  Returns the new (x, y, z), with x a list of blocks.
    """
    A, b = dense_reference_problem(block_problem.problem.case)
    Q_diag, q = block_problem.problem.Q_diag, block_problem.problem.q
    rho, alpha, gamma = block_problem.rho, block_problem.alpha, block_problem.gamma
    x = [np.array(xi, dtype=float) for xi in x]
    linear = []
    for xi in x:
        term = np.zeros_like(xi)
        term[dcopf.U] = -gamma * (2.0 * xi[dcopf.U] - 1.0)
        linear.append(term)
    for i in range(len(x)):
        partial = y - b
        for k in range(len(x)):
            if k != i:
                partial = partial + A[k] @ x[k]
        ctx = XBlockContext(block_index=i, current_iterate=x[i], linear_term=linear[i],
                            multiplier=z, partial_residual=partial, rho=rho, prox_weight=alpha)
        x[i] = dcopf.x_block_update(ctx, Q_diag[i], q[i], A[i])
    ax_minus_b = sum(A[k] @ x[k] for k in range(len(x))) - b
    y = dcopf.y_block_update(ax_minus_b, z, block_problem.eta, rho)
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
