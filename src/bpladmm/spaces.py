"""Inner-product-space primitives shared by the solver and its applications.

Block elements are plain numpy arrays: flat vectors, or matrices treated as
vectors under the Frobenius inner product.  One set of helpers therefore
serves both the matrix-decomposition and the power-flow applications.

The module also provides Bregman distances and the three proximal /
subgradient operators the applications need: entrywise soft shrinkage,
singular value shrinkage and the leading singular pair behind the
spectral-norm subgradient.  ``singular_value_shrink_with_norm`` returns
the shrinkage to about 1e-8 relative or better, and
``leading_singular_pair`` the top singular value to rounding.  Neither
takes a full SVD where it can certify a cheaper route, and each starts
from what its previous call returned; their docstrings give the routes
and the tests that certify them.
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
    if not c >= 0:  # NaN fails this too
        raise ValueError("shrinkage threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - c, 0.0)


def _tall(M: np.ndarray) -> tuple[np.ndarray, bool]:
    """M, or its transpose when M has more columns than rows, so that the
    Gram matrix N^T N of the result is the smaller of the two."""
    return (M.T, True) if M.shape[0] < M.shape[1] else (M, False)


# the widest start basis the shrinkage refines, as a fraction of the Gram
# size.  A start fails while the kept count still falls, in a solve's first
# sweeps, and a failed start of width w costs the subspace steps at w; on
# the 100x100 and 400x400 RPCA solves, fractions of 0.1 to 0.25 saved the most
_WARM_WIDTH_CAP = 0.2


def _eigenvalues_below(A: np.ndarray, bound: float) -> bool:
    """Whether a Cholesky factorization of bound * I - A succeeds, which
    shows that every eigenvalue of the symmetric A lies below ``bound``."""
    shifted = -A
    shifted.flat[:: len(A) + 1] += bound
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _certified(lam_max: float, c: float) -> bool:
    """The shrinkage's certificate on a Gram spectrum, whose eigenvalues
    carry an absolute error of about eps * lam_max: eps * lam_max <= 1e-8 c^2."""
    return bool(np.finfo(float).eps * lam_max <= 1e-8 * c * c)


def _gram_shrink(N: np.ndarray, c: float):
    """(output, kept singular values, kept right singular vectors) of the
    shrinkage of N by c from one eigendecomposition of N^T N, or None
    outside the certificate."""
    lam, V = np.linalg.eigh(N.T @ N)
    if not _certified(lam[-1], c):
        return None
    keep = lam > c * c
    sigma, V_k = np.sqrt(lam[keep]), V[:, keep]
    return (N @ (V_k * ((sigma - c) / sigma))) @ V_k.T, sigma, V_k


def _warm_shrink(N: np.ndarray, c: float, start: np.ndarray):
    """What ``_gram_shrink`` returns, refined from a start basis of the kept
    right singular vectors, or None when the start cannot certify it.

    Two subspace steps Q <- qr(N^T (N Q)) refine the start.  The Ritz pairs
    of N on range(Q) come from the k x k Gram matrix of Y = N Q: with
    Y^T Y = W diag(sigma^2) W^T, V = Q W and U = Y W / sigma, N is
    U Sigma V^T + E with E = N (I - Q Q^T) and E V = 0.  Without the cross
    term U U^T E, N is the direct sum of U Sigma V^T and (I - U U^T) E.  If
    every sigma exceeds c and every singular value of E lies below c (a
    Cholesky factorization of c^2 I - E^T E succeeds), the shrinkage of
    that sum is U (Sigma - c) V^T.  The shrinkage is nonexpansive, so this
    differs from the shrinkage of N by at most ||U^T E||_F, which must be
    at most 1e-12 ||Sigma - c||_F.  The Ritz values carry the Gram
    certificate.
    """
    if start.shape[0] != N.shape[1] or not 0 < start.shape[1] <= _WARM_WIDTH_CAP * N.shape[1]:
        return None
    Q = start
    for _ in range(2):
        Q = np.linalg.qr(N.T @ (N @ Q))[0]
    Y = N @ Q
    lam, W = np.linalg.eigh(Y.T @ Y)
    if not (_certified(lam[-1], c) and lam[0] > c * c):
        return None
    sigma = np.sqrt(lam)
    U = (Y @ W) / sigma
    E = N - Y @ Q.T
    if not (np.linalg.norm(U.T @ E) <= 1e-12 * np.linalg.norm(sigma - c)
            and _eigenvalues_below(E.T @ E, c * c)):
        return None
    V = Q @ W
    return (U * (sigma - c)) @ V.T, sigma, V


def singular_value_shrink_with_norm(
    M: np.ndarray, c: float, start: np.ndarray | None = None
) -> tuple[np.ndarray, float, np.ndarray]:
    """Soft shrinkage of the singular values, the proximal map of c*||.||_*,
    with the nuclear norm of its output and the kept right singular vectors
    V_k of N (N = M or M^T, whichever is tall), both free from the
    shrinkage.  V_k is the ``start`` of a next call on a nearby matrix.

    For c > 0 and a ``start`` of at most ``_WARM_WIDTH_CAP`` times the
    columns of N, it first tries ``_warm_shrink``, which certifies its
    output to 1e-12 relative or gives up.  Otherwise it works from one
    symmetric eigendecomposition of the Gram matrix N^T N, whose
    eigenvalues lam are the squared singular values: with V_k the
    eigenvectors of the sigma = sqrt(lam) above c, the output is
    N V_k diag((sigma_k - c)/sigma_k) V_k^T.  The map
    lam -> (1 - c/sqrt(lam))_+ is Lipschitz with constant 1/(2c^2), and the
    eigenvalues carry an absolute error of about eps * lam_max, so this
    route is taken only when eps * lam_max <= 1e-8 * c^2, which keeps the
    output's relative error at about 1e-8 or below.  Otherwise (c = 0, a
    threshold tiny against sigma_1, or a Gram product that overflows) it
    shrinks the values of a full SVD.
    """
    if not c >= 0:  # NaN fails this too
        raise ValueError("shrinkage threshold must be nonnegative")
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("input matrix must be finite")
    N, transposed = _tall(M)
    if c > 0:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                shrunk = None if start is None else _warm_shrink(N, c, start)
                if shrunk is None:
                    shrunk = _gram_shrink(N, c)
        except np.linalg.LinAlgError:  # an eigh of an overflowed Gram product
            shrunk = None
        if shrunk is not None:
            out, sigma, V_k = shrunk
            return (out.T if transposed else out), float((sigma - c).sum()), V_k
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    shrunk = np.maximum(s - c, 0.0)
    return (U * shrunk) @ Vt, float(shrunk.sum()), (U if transposed else Vt.T)[:, s > c]


def singular_value_shrink(M: np.ndarray, c: float) -> np.ndarray:
    """Soft shrinkage of the singular values; the proximal map of c*||.||_*."""
    return singular_value_shrink_with_norm(M, c)[0]


# the most Rayleigh quotient iteration solves a warm leading pair takes, and
# the relative margin of every pair's residual test and a warm pair's top test
_RQI_STEPS = 3
_PAIR_MARGIN = 1e-12


def _unit(w: np.ndarray) -> np.ndarray | None:
    """w / ||w||, or None for a w that is zero or not finite."""
    peak = np.max(np.abs(w))
    if not 0.0 < peak < np.inf:  # NaN fails this too
        return None
    w = w / peak  # first, so that its norm cannot overflow
    return w / np.linalg.norm(w)


def _inverse_iteration(G: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray | None:
    """The unit vector along the solution of (G - shift I) w = rhs, or None
    where the solve is singular or not finite."""
    shifted = G.copy()
    shifted.flat[:: len(G) + 1] -= shift
    try:
        return _unit(np.linalg.solve(shifted, rhs))
    except np.linalg.LinAlgError:
        return None


def _warm_top_eigenvector(G: np.ndarray, start: np.ndarray) -> np.ndarray | None:
    """A unit top eigenvector of the symmetric positive semidefinite G by
    Rayleigh quotient iteration from ``start``, or None where it cannot be
    certified.  After testing the start, up to ``_RQI_STEPS`` solves
    (G - mu I) w = v at mu = v^T G v follow.  A v is accepted once
    ||G v - lam v|| <= 1e-12 lam at its quotient lam, and only if a
    Cholesky test shows every eigenvalue of G below lam (1 + 1e-12): an
    eigenpair below the top, where the iteration may also converge, fails
    it."""
    v = _unit(start)
    for solves in range(_RQI_STEPS + 1):
        if v is None:  # a zero or non-finite start, or a failed solve
            return None
        Gv = G @ v
        lam = float(v @ Gv)
        if np.linalg.norm(Gv - lam * v) <= _PAIR_MARGIN * lam:
            return v if _eigenvalues_below(G, lam * (1.0 + _PAIR_MARGIN)) else None
        v = _inverse_iteration(G, lam, v) if solves < _RQI_STEPS else None
    return None


def _top_eigenvector(G: np.ndarray, lam_max: float) -> np.ndarray:
    """A unit eigenvector of the symmetric G for its largest eigenvalue
    lam_max: one inverse-iteration solve (G - lam_max I) w = 1, kept when
    its residual ||G v - lam_max v|| is at most 1e-12 lam_max, else the top
    eigenvector of a full eigendecomposition (an exactly singular shift, as
    on an exactly degenerate top, or a start orthogonal to the top
    eigenvector)."""
    v = _inverse_iteration(G, lam_max, np.ones(len(G)))
    if v is not None and np.linalg.norm(G @ v - lam_max * v) <= _PAIR_MARGIN * lam_max:
        return v
    return np.linalg.eigh(G)[1][:, -1]


def leading_singular_pair(
    S: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, float, np.ndarray]:
    """Unit vectors u, v and sigma = ||S||_2 with S v = sigma u.

    v comes from a top eigenvector of the smaller Gram matrix G (of S or
    S^T).  With a ``start``, a guess of v such as the v of a call on a
    nearby matrix, ``_warm_top_eigenvector`` first refines it by Rayleigh
    quotient iteration and certifies it by its residual and a Cholesky test
    that its eigenvalue is the top one.  Without a start, or where that
    fails, ``np.linalg.eigvalsh`` gives the largest eigenvalue of G and
    ``_top_eigenvector`` the vector: one solve, checked by its residual,
    else a full eigendecomposition.  Then sigma = ||S v|| and
    u = S v / sigma.  Since sigma^2 is the Rayleigh quotient of v, it
    matches sigma_1 to rounding even where the top singular value is
    degenerate and v is one of many valid choices; then u^T S v = sigma_1
    and u v^T is still a spectral-norm subgradient.  S is first divided,
    exactly, by a power of two that brings its largest entry into [1, 2),
    so the Gram product can neither overflow nor underflow the leading
    pair.  For S = 0 it returns sigma = 0 and the unit vectors e_1.
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
    G = N.T @ N
    v = None
    if start is not None:  # for a wide S, S start guesses the vector of G
        v = _warm_top_eigenvector(G, N.T @ start if transposed else start)
    if v is None:
        v = _top_eigenvector(G, float(np.linalg.eigvalsh(G)[-1]))
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


def dist_sq_nonneg_orthant(y: np.ndarray) -> float:
    """Squared distance sum_j min(y_j, 0)^2 of y to the nonnegative orthant;
    its gradient 2 min(y, 0) is 2-Lipschitz.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("input must be finite")
    negative_part = np.minimum(y, 0.0)
    return float(np.vdot(negative_part, negative_part))
