"""Inner-product-space primitives shared by the solver and its applications.

Block elements are plain numpy arrays: flat vectors, or matrices treated as
vectors under the Frobenius inner product.  One set of helpers therefore
serves both the matrix-decomposition and the power-flow applications.

The module also provides Bregman distances and the three proximal /
subgradient operators the applications need: entrywise soft shrinkage,
singular value shrinkage, and the leading singular pair subgradient of the
spectral norm.  The last two work from one symmetric eigendecomposition of
the smaller Gram matrix instead of a full SVD; the shrinkage certifies that
route by a bound on the eigenvalue error and falls back to the SVD where the
bound fails.
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


def _tall(M: np.ndarray) -> tuple[np.ndarray, bool]:
    """M, or its transpose when M has more columns than rows, so that the
    Gram matrix N^T N of the result is the smaller of the two."""
    return (M.T, True) if M.shape[0] < M.shape[1] else (M, False)


def singular_value_shrink_with_norm(M: np.ndarray, c: float) -> tuple[np.ndarray, float]:
    """Soft shrinkage of the singular values, the proximal map of c*||.||_*,
    together with the nuclear norm of its output (free from the shrinkage).

    For c > 0 it works from one symmetric eigendecomposition of the smaller
    Gram matrix N^T N (N = M or M^T, whichever is tall), whose eigenvalues
    lam are the squared singular values: with V_k the eigenvectors of the
    sigma = sqrt(lam) above c, the output is
    N V_k diag((sigma_k - c)/sigma_k) V_k^T.  The map lam -> (1 - c/sqrt(lam))_+
    is Lipschitz with constant 1/(2c^2), and the eigenvalues carry an
    absolute error of about eps * lam_max, so this route is taken only when
    eps * lam_max <= 1e-8 * c^2, which keeps the output's relative error at
    about 1e-8 or below.  Otherwise (c = 0, a threshold tiny against
    sigma_1, or a Gram matrix that overflows) it shrinks the values of a
    full SVD.
    """
    if c < 0:
        raise ValueError("shrinkage threshold must be nonnegative")
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("input matrix must be finite")
    if c > 0:
        N, transposed = _tall(M)
        lam, V = np.linalg.eigh(N.T @ N)
        if np.finfo(float).eps * lam[-1] <= 1e-8 * c * c:  # the certificate
            keep = lam > c * c
            sigma, V_k = np.sqrt(lam[keep]), V[:, keep]
            out = (N @ (V_k * ((sigma - c) / sigma))) @ V_k.T
            return (out.T if transposed else out), float((sigma - c).sum())
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    shrunk = np.maximum(s - c, 0.0)
    return (U * shrunk) @ Vt, float(shrunk.sum())


def singular_value_shrink(M: np.ndarray, c: float) -> np.ndarray:
    """Soft shrinkage of the singular values; the proximal map of c*||.||_*."""
    return singular_value_shrink_with_norm(M, c)[0]


def leading_singular_pair(S: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Unit vectors u, v and sigma = ||S||_2 with S v = sigma u.

    v is the top eigenvector of the smaller Gram matrix (of S or S^T),
    sigma = ||S v|| and u = S v / sigma.  Since sigma^2 is the Rayleigh
    quotient of v, it matches sigma_1 to rounding even where the top
    singular value is degenerate and v is one of many valid choices; then
    u^T S v = sigma_1 and u v^T is still a spectral-norm subgradient.  S is
    first divided, exactly, by a power of two that brings its largest entry
    into [1, 2), so the Gram product can neither overflow nor underflow the
    leading pair.  For S = 0 it returns sigma = 0 and the unit vectors e_1.
    """
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise ValueError("input matrix must be finite")
    peak = float(np.max(np.abs(S), initial=0.0))
    if peak == 0.0:
        u, v = np.zeros(S.shape[0]), np.zeros(S.shape[1])
        u[0] = v[0] = 1.0
        return u, 0.0, v
    scale = np.ldexp(1.0, int(np.frexp(peak)[1]) - 1)  # a power of two <= peak: exact
    N, transposed = _tall(S / scale)
    v = np.linalg.eigh(N.T @ N)[1][:, -1]
    Nv = N @ v
    norm = float(np.linalg.norm(Nv))
    u = Nv / norm
    return (v, scale * norm, u) if transposed else (u, scale * norm, v)


def spectral_norm_subgradient(S: np.ndarray) -> np.ndarray:
    """u v^T from ``leading_singular_pair(S)``, a subgradient of the spectral
    norm at S.

    Returns the zero matrix when S = 0 (zero is a valid subgradient of any
    norm at the origin).  When the leading singular value is degenerate the
    pair is whichever top eigenvector the Gram eigendecomposition returns;
    any such pair is valid.
    """
    u, sigma, v = leading_singular_pair(S)
    if sigma == 0.0:
        return np.zeros(np.shape(S))
    return np.outer(u, v)


def dist_sq_nonneg_orthant(y: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared distance of y to the nonnegative orthant and its gradient.

    Returns (sum_j min(y_j, 0)^2, 2*min(y, 0)); the gradient is 2-Lipschitz.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("input must be finite")
    negative_part = np.minimum(y, 0.0)
    return float(np.vdot(negative_part, negative_part)), 2.0 * negative_part
