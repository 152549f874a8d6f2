"""Robust PCA with an l1-minus-spectral sparse regularizer.

Decomposes an observed matrix M into low-rank L, sparse S, and denoised
T = L + S by solving

    min ||L||_* + tau ||S||_1 - tau ||S|| + (gamma/2) ||T - M||_F^2
    s.t. L + S - T = 0,

where ||.|| is the spectral norm.  The subtracted spectral norm sharpens
the sparsity pattern of S relative to plain l1.  Every block update has a
closed form: singular value shrinkage for L, entrywise shrinkage for S
(shifted by a spectral-norm subgradient of the current S), and an
averaging step for T.

``bpl_admm_rpca`` is one ``engine.solve`` on ``RpcaBlockProblem``, with
x = (L, S) and y = T.  The engine checks every oracle output finite,
monitors the merit (the augmented Lagrangian L_rho) at runtime, and stops
by its shifted rule, which leaves the multiplier out.  A failure raises
the engine's ``BlockOracleError`` naming x-block 0 (L), x-block 1 (S) or
the y-block (T), and the iteration.

The two spectral kernels come from ``spaces``: the shrinkage and the
leading singular pair of S each take one eigendecomposition of the
smaller Gram matrix, not a full SVD; the shrinkage falls back to the SVD
when its error certificate fails.  The shrinkage also returns the nuclear
norm of L for the objective, and one leading pair per iterate gives both
the spectral term of its objective and the subgradient of the next sweep.
Full SVDs remain only once per solve: the nuclear norm of the random
starting L and the numerical rank of the result, where the Gram matrix
would square the condition number and lose the small singular values.

``admm3_baseline`` runs the classical three-block ADMM on the plain l1
model (no spectral term, no proximal regularization, penalty rho = 2) for
side-by-side comparison, in a closed-form loop of its own.  Its alpha = 0
lies outside the parameter gates, so no descent guarantee applies and the
loop records its merit without checking it.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import engine, spaces
from .engine import (
    BlockProblem,
    IterationReport,
    SolverParams,
    XBlockContext,
    YBlockContext,
)
from .spaces import (
    leading_singular_pair,
    singular_value_shrink_with_norm,
    soft_shrink,
    stacked_norm,
)


@dataclass(frozen=True)
class RpcaConfig:
    """Solver configuration; defaults follow the standard benchmark setup."""

    rows: int
    cols: int
    noise: float = 1e-2
    gamma: float = 1.0
    alpha: float = 1e-2
    rho: float = 2.0 + 1e-10
    tolerance: float = 1e-6
    max_iterations: int = 4000

    @property
    def tau_value(self) -> float:
        """Sparsity weight 1/sqrt(max(m, d))."""
        return 1.0 / np.sqrt(max(self.rows, self.cols))

    def solver_params(self) -> SolverParams:
        """Equivalent generic-engine parameters (l_H = gamma, lambda = 1)."""
        return SolverParams(
            rho=self.rho,
            mu=1.0,
            lipschitz_H=self.gamma,
            lipschitz_P=0.0,
            weak_convexity_G=0.0,
            strong_convexity=self.alpha,
            lambda_min_BtB=1.0,
            max_iterations=self.max_iterations,
            stop_tolerance=self.tolerance,
        )


@dataclass(frozen=True)
class RpcaInstance:
    """A synthetic observation M = L_O + S_O + noise with known ground truth."""

    M: np.ndarray
    L_O: np.ndarray
    S_O: np.ndarray
    T_O: np.ndarray
    rank: int
    sparsity_count: int
    noise: float
    seed: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.M.shape


@dataclass
class RpcaSolution:
    L: np.ndarray
    S: np.ndarray
    T: np.ndarray
    Z: np.ndarray
    iterations: int
    wall_time: float
    converged: bool
    relative_error: float
    rank_L: int
    sparsity_S: int
    reports: list[IterationReport]


def generate_instance(
    m: int, d: int, r: int, s: float, noise: float, seed: int
) -> RpcaInstance:
    """Draw a rank-r plus sparse ground truth and its noisy observation.

    L_O is a product of two i.i.d. standard normal factors, S_O places
    standard normal values on round(s*m*d) uniformly random entries, and
    the observation adds i.i.d. normal noise scaled by ``noise``.
    """
    if not 1 <= r <= min(m, d):
        raise ValueError(f"rank r must lie in [1, {min(m, d)}], got {r}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"sparsity ratio s must lie in (0, 1), got {s}")
    rng = np.random.default_rng(seed)
    low_rank = rng.standard_normal((m, r)) @ rng.standard_normal((r, d))
    sparse = np.zeros((m, d))
    count = int(round(s * m * d))
    support = rng.permutation(m * d)[:count]
    sparse.flat[support] = rng.standard_normal(count)
    noise_matrix = rng.standard_normal((m, d)) * noise
    clean = low_rank + sparse
    return RpcaInstance(
        M=clean + noise_matrix,
        L_O=low_rank,
        S_O=sparse,
        T_O=clean,
        rank=r,
        sparsity_count=count,
        noise=noise,
        seed=seed,
    )


def relative_error(
    estimate: tuple[np.ndarray, np.ndarray, np.ndarray],
    truth: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> float:
    """||estimate - truth||_F / (||truth||_F + 1) over the stacked triple."""
    num = stacked_norm([a - b for a, b in zip(estimate, truth)])
    den = stacked_norm(list(truth))
    return num / (den + 1.0)


def numerical_rank(M: np.ndarray) -> int:
    """Singular values above max(m, d) * eps * sigma_1 count toward the rank."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    threshold = max(M.shape) * np.finfo(float).eps * s[0]
    return int(np.count_nonzero(s > threshold))


def recovery_metrics(
    solution: RpcaSolution, instance: RpcaInstance
) -> tuple[float, int, int]:
    """(relative error, numerical rank of L, exact nonzero count of S).

    Entrywise shrinkage produces exact zeros, so sparsity is a plain
    nonzero count with no thresholding epsilon.
    """
    if solution.L.shape != instance.M.shape:
        raise ValueError("solution and instance shapes differ")
    re = relative_error(
        (solution.L, solution.S, solution.T),
        (instance.L_O, instance.S_O, instance.T_O),
    )
    return re, numerical_rank(solution.L), int(np.count_nonzero(solution.S))


def _initial_blocks(shape, init_seed) -> tuple[np.ndarray, np.ndarray]:
    """L and S, in that order, drawn i.i.d. standard normal from ``init_seed``."""
    rng = np.random.default_rng(init_seed)
    return rng.standard_normal(shape), rng.standard_normal(shape)


def _solution(instance, L, S, T, Z, iterations, wall_time, converged, reports) -> RpcaSolution:
    solution = RpcaSolution(
        L=L, S=S, T=T, Z=Z, iterations=iterations, wall_time=wall_time, converged=converged,
        relative_error=0.0, rank_L=0, sparsity_S=0, reports=reports,
    )
    metrics = recovery_metrics(solution, instance)
    solution.relative_error, solution.rank_L, solution.sparsity_S = metrics
    return solution


def bpl_admm_rpca(instance: RpcaInstance, config: RpcaConfig, init_seed: int) -> RpcaSolution:
    """Solve the modified-regularizer model with Bregman proximal updates:
    one ``engine.solve`` on ``RpcaBlockProblem``.

    L and S start from i.i.d. standard normal draws of ``init_seed``, T
    starts at the observation, and the multiplier starts at zero.  Stops
    when ||(L,S,T)_{n+1} - (L,S,T)_n||_F / (||(L,S,T)_n||_F + 1) falls to
    the configured tolerance (the engine's shifted rule).  An oracle
    failure raises the engine's ``BlockOracleError``.
    """
    problem = RpcaBlockProblem(instance, config)
    M = instance.M
    init = engine.initial_state(problem, _initial_blocks(M.shape, init_seed), M,
                                np.zeros_like(M))
    result = engine.solve(problem, config.solver_params(), init)
    if result.oracle_error is not None:
        raise result.oracle_error
    state = result.state
    return _solution(instance, state.x[0], state.x[1], state.y, state.z, result.iterations,
                     result.wall_time, result.status == engine.STATUS_CONVERGED, result.reports)


def admm3_baseline(instance: RpcaInstance, config: RpcaConfig, init_seed: int) -> RpcaSolution:
    """Three-block ADMM on the plain l1 model: no spectral shift, no
    proximal terms, shrinkage thresholds 1/rho and tau/rho with rho = 2.

    A closed-form loop of its own, started and stopped as ``bpl_admm_rpca``
    is.  Its alpha = 0 lies outside the parameter gates (they require
    alpha > 0), so no descent guarantee applies: each report records the
    merit L_rho, and nothing checks it.  Non-finite input to a shrinkage
    raises ``engine.BlockOracleError`` naming x-block 0 (L) or x-block 1
    (S) and the iteration, the names BPL's engine run uses; as in
    ``engine.solve``, numpy's invalid and overflow warnings are silenced.
    """
    M, tau, gamma, rho = instance.M, config.tau_value, config.gamma, 2.0
    L, S = _initial_blocks(M.shape, init_seed)
    T = M.copy()
    Z = np.zeros_like(M)
    nuclear_l = float(np.linalg.svd(L, compute_uv=False).sum())

    reports: list[IterationReport] = []
    step_l = step_s = step_t = step_z = 0.0
    rel_change = np.inf
    n = 0
    start = time.perf_counter()
    with np.errstate(invalid="ignore", over="ignore"):
        while True:
            residual = L + S - T
            diff = T - M
            objective = (nuclear_l + tau * float(np.abs(S).sum())
                         + 0.5 * gamma * float(np.vdot(diff, diff)))
            l_rho = (objective + float(np.vdot(Z, residual))
                     + 0.5 * rho * float(np.vdot(residual, residual)))
            # the merit is recorded, not checked: no descent guarantee applies
            reports.append(IterationReport(
                n=n, augmented_lagrangian=l_rho, merit=l_rho,
                feasibility=float(np.linalg.norm(residual)), objective=objective,
                step_x=float(np.sqrt(step_l**2 + step_s**2)), step_y=step_t, step_z=step_z,
            ))
            if rel_change <= config.tolerance or n >= config.max_iterations:
                break

            n += 1
            try:
                L_new, nuclear_l = singular_value_shrink_with_norm(
                    (-Z - rho * S + rho * T) / rho, 1.0 / rho)
            except ValueError as exc:  # the shrinkage rejects non-finite input
                raise engine.BlockOracleError("x-block 0", n, exc) from exc
            s_input = (-Z - rho * L_new + rho * T) / rho
            if not np.isfinite(s_input).all():
                raise engine.BlockOracleError(
                    "x-block 1", n, FloatingPointError("shrinkage input is not finite"))
            S_new = soft_shrink(s_input, tau / rho)
            T_new = (gamma * M + Z + rho * (L_new + S_new)) / (gamma + rho)
            Z_new = Z + rho * (L_new + S_new - T_new)
            base = stacked_norm([L, S, T])
            step_l = float(np.linalg.norm(L_new - L))
            step_s = float(np.linalg.norm(S_new - S))
            step_t = float(np.linalg.norm(T_new - T))
            step_z = float(np.linalg.norm(Z_new - Z))
            rel_change = np.sqrt(step_l**2 + step_s**2 + step_t**2) / (base + 1.0)
            L, S, T, Z = L_new, S_new, T_new, Z_new
    wall = time.perf_counter() - start
    return _solution(instance, L, S, T, Z, n, wall, bool(rel_change <= config.tolerance), reports)


class RpcaBlockProblem(BlockProblem):
    """The model for the generic engine, as ``bpl_admm_rpca`` runs it.

    Blocks are x = (L, S) with identity couplings, stacked by the engine
    into one 2 x m x d array, y = T with B = -I and b = 0.  The oracles are
    the closed forms of the module docstring.

    Two by-products are kept, each with a copy of the block it came from,
    and reused only for a block equal to that copy: the nuclear norm of the
    L oracle's output, for ``eval_f``, and the leading singular pair of S,
    for both ``eval_G`` (the report of an iterate) and ``subgrad_G`` (the
    sweep that starts from it).  A solve of n sweeps thus computes n + 1
    leading pairs and one SVD, of the starting L.
    """

    def __init__(self, instance: RpcaInstance, config: RpcaConfig):
        self.instance = instance
        self.config = config
        self.num_blocks = 2
        self.block_shape = self.y_shape = instance.M.shape
        self.rhs = np.zeros(instance.M.shape)
        self.tau = config.tau_value
        self._gamma_M = config.gamma * instance.M
        self._nuclear = (None, 0.0)  # (L, ||L||_*)
        self._pair = (None, None)  # (S, leading_singular_pair(S))

    def apply_A(self, i, x):
        return x

    def apply_B(self, y):
        return -y

    def apply_B_transpose(self, v):
        return -v

    def eval_f(self, i, x):
        if i == 1:
            return self.tau * float(np.abs(x).sum())
        block, nuclear = self._nuclear
        if not np.array_equal(x, block):
            nuclear = float(np.linalg.svd(x, compute_uv=False).sum())
        return nuclear

    def eval_H(self, y):
        diff = y - self.instance.M
        return 0.5 * self.config.gamma * float(np.vdot(diff, diff))

    def grad_H(self, y):
        return self.config.gamma * (y - self.instance.M)

    def _leading_pair(self, S):
        block, pair = self._pair
        if not np.array_equal(S, block):
            pair = leading_singular_pair(S)
            self._pair = (S.copy(), pair)
        return pair

    def eval_G(self, x):
        return self.tau * self._leading_pair(x[1])[1]

    def subgrad_G(self, x):
        u, sigma, v = self._leading_pair(x[1])
        out = np.zeros_like(x)
        if sigma > 0.0:  # else zero, a subgradient of the norm at S = 0
            out[1] = self.tau * np.outer(u, v)
        return out

    def solve_x_block(self, i, ctx: XBlockContext):
        weight = ctx.rho + ctx.prox_weight
        target = ctx.prox_weight * ctx.current_iterate
        target -= ctx.linear_term
        target -= ctx.multiplier
        target -= ctx.rho * ctx.partial_residual
        target /= weight
        if i == 0:
            L, nuclear = singular_value_shrink_with_norm(target, 1.0 / weight)
            self._nuclear = (L.copy(), nuclear)
            return L
        # through spaces: the benchmark's sweep clock stamps every call of
        # rpca.soft_shrink (admm3's one per sweep) as well as engine.step
        return spaces.soft_shrink(target, self.tau / weight)

    def solve_y_block(self, ctx: YBlockContext):
        out = self._gamma_M + ctx.multiplier
        out += ctx.rho * ctx.x_residual
        out /= self.config.gamma + ctx.rho
        return out
