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

The two spectral kernels come from ``spaces``: the shrinkage and the
leading singular pair of S (which gives both the subgradient and the
spectral term of the objective) each take one eigendecomposition of the
smaller Gram matrix per sweep, not a full SVD; the shrinkage falls back to
the SVD when its error certificate fails.  Full SVDs remain only once per
solve: the nuclear norm of the random starting L and the numerical rank
of the result, where the Gram matrix would square the condition number
and lose the small singular values.

Both solvers run their own closed-form loop rather than ``engine.solve``.
Each report records the merit, which is the augmented Lagrangian L_rho,
but unlike the engine the loop does not check its descent at runtime.  A
shrinkage that receives non-finite input ends the run with an
``engine.BlockOracleError`` naming the block (L or S) and the iteration, as
an engine oracle failure does.

``admm3_baseline`` runs the classical three-block ADMM on the plain l1
model (no spectral term, no proximal regularization, penalty rho = 2) for
side-by-side comparison.
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
from .spaces import (
    leading_singular_pair,
    singular_value_shrink_with_norm,
    soft_shrink,
    spectral_norm_subgradient,
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
    tau: float | None = None

    @property
    def tau_value(self) -> float:
        """Sparsity weight; 1/sqrt(max(m, d)) unless overridden."""
        if self.tau is not None:
            return self.tau
        return 1.0 / np.sqrt(max(self.rows, self.cols))

    @property
    def l_threshold(self) -> float:
        """Singular value shrinkage threshold of the L update, 1/(rho+alpha)."""
        return 1.0 / (self.rho + self.alpha)

    @property
    def s_threshold(self) -> float:
        """Entrywise shrinkage threshold of the S update, tau/(rho+alpha)."""
        return self.tau_value / (self.rho + self.alpha)

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


def _sweep(L, S, T, Z, M, tau, gamma, rho, alpha, g2, *, iteration=0):
    """One closed-form sweep shared by both solver variants.

    The baseline is recovered with alpha = 0 and g2 = 0.  Returns the new
    iterate and the nuclear norm of the new L (free from the shrinkage).
    Non-finite input to either shrinkage raises ``engine.BlockOracleError``
    naming the block and ``iteration``, the number of the iterate the sweep
    computes.
    """
    try:
        L_new, nuclear = singular_value_shrink_with_norm(
            (-Z - rho * S + rho * T + alpha * L) / (rho + alpha), 1.0 / (rho + alpha)
        )
    except ValueError as exc:  # the shrinkage rejects non-finite input
        raise engine.BlockOracleError("L", iteration, exc) from exc
    s_input = (tau * g2 - Z - rho * L_new + rho * T + alpha * S) / (rho + alpha)
    if not np.isfinite(s_input).all():
        raise engine.BlockOracleError(
            "S", iteration, FloatingPointError("shrinkage input is not finite"))
    S_new = soft_shrink(s_input, tau / (rho + alpha))
    T_new = (gamma * M + Z + rho * (L_new + S_new)) / (gamma + rho)
    Z_new = Z + rho * (L_new + S_new - T_new)
    return L_new, S_new, T_new, Z_new, nuclear


def _run(instance, config, init_seed, *, rho, alpha, with_spectral_term):
    M = instance.M
    tau = config.tau_value
    gamma = config.gamma
    rng = np.random.default_rng(init_seed)
    L = rng.standard_normal(M.shape)
    S = rng.standard_normal(M.shape)
    T = M.copy()
    Z = np.zeros_like(M)
    nuclear_l = float(np.linalg.svd(L, compute_uv=False).sum())

    reports: list[IterationReport] = []
    step_l = step_s = step_t = step_z = 0.0
    rel_change = np.inf
    converged = False
    n = 0
    start = time.perf_counter()
    while True:
        if with_spectral_term:
            u, spectral, v = leading_singular_pair(S)
            g2 = np.outer(u, v) if spectral > 0.0 else np.zeros_like(S)
        else:
            g2 = 0.0
            spectral = 0.0
        residual = L + S - T
        objective = (
            nuclear_l
            + tau * float(np.abs(S).sum())
            - tau * spectral
            + 0.5 * gamma * float(np.vdot(T - M, T - M))
        )
        l_rho = objective + float(np.vdot(Z, residual)) + 0.5 * rho * float(np.vdot(residual, residual))
        reports.append(
            IterationReport(
                n=n,
                augmented_lagrangian=l_rho,
                merit=l_rho,  # the merit is L_rho; recorded here, not checked
                feasibility=float(np.linalg.norm(residual)),
                objective=objective,
                step_x=float(np.sqrt(step_l**2 + step_s**2)),
                step_y=step_t,
                step_z=step_z,
            )
        )
        if n > 0 and rel_change <= config.tolerance:
            converged = True
            break
        if n >= config.max_iterations:
            break

        base = stacked_norm([L, S, T])
        L_new, S_new, T_new, Z_new, nuclear_l = _sweep(
            L, S, T, Z, M, tau, gamma, rho, alpha, g2, iteration=n + 1
        )
        step_l = float(np.linalg.norm(L_new - L))
        step_s = float(np.linalg.norm(S_new - S))
        step_t = float(np.linalg.norm(T_new - T))
        step_z = float(np.linalg.norm(Z_new - Z))
        rel_change = np.sqrt(step_l**2 + step_s**2 + step_t**2) / (base + 1.0)
        L, S, T, Z = L_new, S_new, T_new, Z_new
        n += 1
    wall = time.perf_counter() - start

    solution = RpcaSolution(
        L=L,
        S=S,
        T=T,
        Z=Z,
        iterations=n,
        wall_time=wall,
        converged=converged,
        relative_error=0.0,
        rank_L=0,
        sparsity_S=0,
        reports=reports,
    )
    re, rank_l, sparsity_s = recovery_metrics(solution, instance)
    solution.relative_error = re
    solution.rank_L = rank_l
    solution.sparsity_S = sparsity_s
    return solution


def bpl_admm_rpca(instance: RpcaInstance, config: RpcaConfig, init_seed: int) -> RpcaSolution:
    """Solve the modified-regularizer model with Bregman proximal updates.

    L and S start from i.i.d. standard normal draws of ``init_seed``, T
    starts at the observation, and the multiplier starts at zero.  Stops
    when ||(L,S,T)_{n+1} - (L,S,T)_n||_F / (||(L,S,T)_n||_F + 1) falls
    below the configured tolerance.
    """
    engine.validate_parameters(config.solver_params())
    return _run(
        instance,
        config,
        init_seed,
        rho=config.rho,
        alpha=config.alpha,
        with_spectral_term=True,
    )


def admm3_baseline(
    instance: RpcaInstance, config: RpcaConfig, init_seed: int, rho: float = 2.0
) -> RpcaSolution:
    """Three-block ADMM on the plain l1 model: no spectral shift, no
    proximal terms, shrinkage thresholds 1/rho and tau/rho with rho = 2."""
    return _run(
        instance,
        config,
        init_seed,
        rho=rho,
        alpha=0.0,
        with_spectral_term=False,
    )


class RpcaBlockProblem(BlockProblem):
    """The same model expressed for the generic engine.

    Blocks are x = (L, S) with identity couplings, stacked by the engine
    into one 2 x m x d array, y = T with B = -I and b = 0.  Block oracles
    are the closed forms above, so a generic-engine sweep and a direct
    sweep must agree to rounding error.
    """

    def __init__(self, instance: RpcaInstance, config: RpcaConfig):
        self.instance = instance
        self.config = config
        shape = instance.M.shape
        self.block_shapes = [shape, shape]
        self.y_shape = shape
        self.rhs = np.zeros(shape)
        self.tau = config.tau_value

    def apply_A(self, i, x):
        return x

    def apply_A_transpose(self, i, v):
        return v

    def apply_B(self, y):
        return -y

    def apply_B_transpose(self, v):
        return -v

    def eval_f(self, i, x):
        if i == 0:
            return float(np.linalg.svd(x, compute_uv=False).sum())
        return self.tau * float(np.abs(x).sum())

    def eval_H(self, y):
        diff = y - self.instance.M
        return 0.5 * self.config.gamma * float(np.vdot(diff, diff))

    def grad_H(self, y):
        return self.config.gamma * (y - self.instance.M)

    def eval_G(self, x):
        return self.tau * leading_singular_pair(x[1])[1]

    def subgrad_G(self, x):
        out = np.zeros_like(x)
        out[1] = self.tau * spectral_norm_subgradient(x[1])
        return out

    def solve_x_block(self, i, ctx: XBlockContext):
        weight = ctx.rho + ctx.mu * self.config.alpha
        target = (
            ctx.mu * self.config.alpha * ctx.current_iterate
            - ctx.linear_term
            - ctx.multiplier
            - ctx.rho * ctx.partial_residual
        ) / weight
        if i == 0:
            return singular_value_shrink_with_norm(target, 1.0 / weight)[0]
        return soft_shrink(target, self.tau / weight)

    def solve_y_block(self, ctx: YBlockContext):
        gamma = self.config.gamma
        return (
            gamma * self.instance.M + ctx.multiplier + ctx.rho * ctx.x_residual
        ) / (gamma + ctx.rho)


def save_instance(path, instance: RpcaInstance) -> None:
    """Write an instance as a flat binary archive with its generation header."""
    np.savez(
        path,
        M=instance.M,
        L_O=instance.L_O,
        S_O=instance.S_O,
        T_O=instance.T_O,
        header=np.array(
            [
                instance.M.shape[0],
                instance.M.shape[1],
                instance.rank,
                instance.sparsity_count,
                instance.seed,
            ],
            dtype=np.int64,
        ),
        noise=np.array([instance.noise]),
    )


def load_instance(path) -> RpcaInstance:
    with np.load(path) as data:
        header = data["header"]
        return RpcaInstance(
            M=data["M"],
            L_O=data["L_O"],
            S_O=data["S_O"],
            T_O=data["T_O"],
            rank=int(header[2]),
            sparsity_count=int(header[3]),
            noise=float(data["noise"][0]),
            seed=int(header[4]),
        )
