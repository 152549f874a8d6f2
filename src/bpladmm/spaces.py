"""Inner-product-space primitives shared by the solver and its applications.

Block elements are plain numpy arrays: flat vectors, or matrices treated as
vectors under the Frobenius inner product.  One set of helpers therefore
serves both the matrix-decomposition and the power-flow applications.

The module also provides Bregman distances and the three proximal /
subgradient operators the applications need: entrywise soft shrinkage,
singular value shrinkage, and the leading singular pair subgradient of the
spectral norm.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _check_same_shape(u, v):
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")


def stacked_norm(parts) -> float:
    """Norm of a tuple of arrays viewed as one long stacked vector."""
    return float(np.sqrt(sum(float(np.vdot(p, p)) for p in parts)))


@dataclass(frozen=True)
class BregmanGenerator:
    """A differentiable convex generator phi and what is known about it.

    ``strong_convexity`` is a modulus alpha >= 0 such that
    phi - (alpha/2)||.||^2 is convex; ``grad_lipschitz`` is a Lipschitz
    constant of the gradient, or None when unknown.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    strong_convexity: float = 0.0
    grad_lipschitz: float | None = None


def bregman_distance(gen: BregmanGenerator, u: np.ndarray, v: np.ndarray) -> float:
    """phi(u) - phi(v) - <grad phi(v), u - v>; nonnegative for convex phi."""
    _check_same_shape(u, v)
    return float(gen.value(u) - gen.value(v) - np.vdot(gen.grad(v), u - v))


def squared_norm() -> BregmanGenerator:
    """Generator phi(x) = ||x||^2, whose distance is ||u - v||^2."""
    return BregmanGenerator(
        value=lambda x: float(np.vdot(x, x)),
        grad=lambda x: 2.0 * x,
        strong_convexity=2.0,
        grad_lipschitz=2.0,
    )


def scaled_squared_norm(alpha: float) -> BregmanGenerator:
    """Generator phi(x) = (alpha/2)||x||^2, whose distance is (alpha/2)||u - v||^2.

    This is the generator both applications use for their proximal terms.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return BregmanGenerator(
        value=lambda x: 0.5 * alpha * float(np.vdot(x, x)),
        grad=lambda x: alpha * x,
        strong_convexity=alpha,
        grad_lipschitz=alpha,
    )


def quadratic_form(M: np.ndarray) -> BregmanGenerator:
    """Generator phi(x) = x^T M x for symmetric positive semidefinite M.

    The induced distance is the M-weighted squared norm (u-v)^T M (u-v).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    if not np.allclose(M, M.T):
        raise ValueError("M must be symmetric")
    eigenvalues = np.linalg.eigvalsh(M)
    if eigenvalues[0] < -1e-12 * max(1.0, abs(eigenvalues[-1])):
        raise ValueError("M must be positive semidefinite")
    return BregmanGenerator(
        value=lambda x: float(x @ M @ x),
        grad=lambda x: 2.0 * (M @ x),
        strong_convexity=2.0 * max(float(eigenvalues[0]), 0.0),
        grad_lipschitz=2.0 * float(eigenvalues[-1]),
    )


def soft_shrink(v: np.ndarray, c: float) -> np.ndarray:
    """Entrywise sign(t) * max(|t| - c, 0); the proximal map of c*||.||_1."""
    if c < 0:
        raise ValueError("shrinkage threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - c, 0.0)


def singular_value_shrink_with_norm(M: np.ndarray, c: float) -> tuple[np.ndarray, float]:
    """Soft shrinkage of the singular values, the proximal map of c*||.||_*,
    together with the nuclear norm of its output (free from the shrinkage)."""
    if c < 0:
        raise ValueError("shrinkage threshold must be nonnegative")
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("input matrix must be finite")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    shrunk = np.maximum(s - c, 0.0)
    return (U * shrunk) @ Vt, float(shrunk.sum())


def singular_value_shrink(M: np.ndarray, c: float) -> np.ndarray:
    """Soft shrinkage of the singular values; the proximal map of c*||.||_*."""
    return singular_value_shrink_with_norm(M, c)[0]


def spectral_norm_subgradient(S: np.ndarray) -> np.ndarray:
    """u1 v1^T from the SVD of S, a subgradient of the spectral norm at S.

    Returns the zero matrix when S = 0 (zero is a valid subgradient of any
    norm at the origin).  When the leading singular value is degenerate the
    pair the SVD routine lists first is used; any such pair is valid.
    """
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise ValueError("input matrix must be finite")
    if not S.any():
        return np.zeros_like(S)
    U, _, Vt = np.linalg.svd(S, full_matrices=False)
    return np.outer(U[:, 0], Vt[0, :])


def dist_sq_nonneg_orthant(y: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared distance of y to the nonnegative orthant and its gradient.

    Returns (sum_j min(y_j, 0)^2, 2*min(y, 0)); the gradient is 2-Lipschitz.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("input must be finite")
    negative_part = np.minimum(y, 0.0)
    return float(np.vdot(negative_part, negative_part)), 2.0 * negative_part
