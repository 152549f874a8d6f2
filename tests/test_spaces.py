import numpy as np
import pytest

from bpladmm import spaces
from oracles import (
    finite_difference_gradient,
    golden_section,
    nuclear_norm,
    scalar_prox_l1,
    spectral_norm_eig,
)

REL = 1e-10  # equality tolerance; 1e-8 where an SVD is involved
SVD_REL = 1e-8


def test_bregman_squared_norm_example():
    gen = spaces.squared_norm()
    d = spaces.bregman_distance(gen, np.array([1.0, 2.0]), np.zeros(2))
    assert d == pytest.approx(5.0, rel=REL)


def test_bregman_zero_at_equal_points(rng):
    for gen in (spaces.squared_norm(), spaces.quadratic_form(np.diag([2.0, 3.0]))):
        u = rng.standard_normal(2)
        assert spaces.bregman_distance(gen, u, u) == pytest.approx(0.0, abs=1e-12)


def test_bregman_quadratic_form_example():
    gen = spaces.quadratic_form(np.diag([2.0, 3.0]))
    d = spaces.bregman_distance(gen, np.array([1.0, 1.0]), np.zeros(2))
    assert d == pytest.approx(5.0, rel=REL)


def test_bregman_distance_rejects_mismatched_shapes():
    gen = spaces.squared_norm()
    with pytest.raises(ValueError):
        spaces.bregman_distance(gen, np.zeros(2), np.zeros(3))


@pytest.mark.parametrize(
    "gen",
    [spaces.squared_norm(), spaces.quadratic_form(np.array([[2.0, 0.5], [0.5, 3.0]]))],
    ids=["squared", "quadratic_form"],
)
def test_bregman_property_suite(gen, rng):
    # nonnegativity, two-sided quadratic bounds, convexity in the first slot
    for _ in range(200):
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        d = spaces.bregman_distance(gen, u, v)
        gap = float(np.vdot(u - v, u - v))
        assert d >= -1e-12
        assert d >= 0.5 * gen.strong_convexity * gap - 1e-9 * (1 + gap)
        assert d <= 0.5 * gen.grad_lipschitz * gap + 1e-9 * (1 + gap)
        w = rng.standard_normal(2)
        t = rng.random()
        mix = spaces.bregman_distance(gen, t * u + (1 - t) * w, v)
        split = t * spaces.bregman_distance(gen, u, v) + (1 - t) * spaces.bregman_distance(gen, w, v)
        assert mix <= split + 1e-10 * (1 + abs(split))


def test_quadratic_form_rejects_bad_matrices():
    with pytest.raises(ValueError):
        spaces.quadratic_form(np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        spaces.quadratic_form(np.diag([1.0, -1.0]))  # indefinite
    with pytest.raises(ValueError):
        spaces.quadratic_form(np.zeros((2, 3)))  # not square


def test_soft_shrink_examples():
    out = spaces.soft_shrink(np.array([1.2, -0.3]), 0.5)
    assert np.allclose(out, [0.7, 0.0], rtol=REL, atol=1e-12)
    v = np.array([[0.4, -2.0], [1.0, 0.0]])
    assert np.array_equal(spaces.soft_shrink(v, 0.0), v)
    out = spaces.soft_shrink(np.array([2.0, -2.0, 0.1]), 1.0)
    assert np.allclose(out, [1.0, -1.0, 0.0], rtol=REL, atol=1e-12)


def test_soft_shrink_matches_scalar_minimization_oracle(rng):
    for _ in range(25):
        t = float(rng.standard_normal() * 3)
        c = float(rng.random() * 2)
        assert spaces.soft_shrink(np.array([t]), c)[0] == pytest.approx(
            scalar_prox_l1(t, c), abs=1e-8
        )


def test_soft_shrink_rejects_negative_threshold():
    with pytest.raises(ValueError):
        spaces.soft_shrink(np.zeros(2), -0.1)


def test_soft_shrink_rejects_a_nan_threshold():
    with pytest.raises(ValueError, match="shrinkage threshold must be nonnegative"):
        spaces.soft_shrink(np.eye(3), float("nan"))


def test_singular_value_shrink_examples(rng):
    out = spaces.singular_value_shrink(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=SVD_REL)
    m = rng.standard_normal((4, 6))
    assert np.allclose(spaces.singular_value_shrink(m, 0.0), m, atol=SVD_REL)
    # the paired form also returns the output's nuclear norm
    shrunk, nuclear, _ = spaces.singular_value_shrink_with_norm(m, 0.5)
    assert np.array_equal(shrunk, spaces.singular_value_shrink(m, 0.5))
    assert nuclear == pytest.approx(nuclear_norm(shrunk), rel=SVD_REL)


def test_singular_value_shrink_local_minimality_probe(rng):
    m = rng.standard_normal((5, 4))
    c = 0.3
    out = spaces.singular_value_shrink(m, c)

    def objective(x):
        return c * nuclear_norm(x) + 0.5 * float(np.vdot(x - m, x - m))

    base = objective(out)
    for _ in range(100):
        direction = rng.standard_normal((5, 4))
        direction /= np.linalg.norm(direction)
        assert base <= objective(out + 1e-3 * direction) + 1e-8


def test_singular_value_shrink_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        spaces.singular_value_shrink(bad, 0.5)
    with pytest.raises(ValueError):
        spaces.singular_value_shrink(np.array([[np.inf]]), 0.0)


def test_singular_value_shrink_rejects_a_nan_threshold():
    with pytest.raises(ValueError, match="shrinkage threshold must be nonnegative"):
        spaces.singular_value_shrink(np.eye(3), float("nan"))


def test_shrink_operators_never_increase_their_objectives(rng):
    for _ in range(20):
        v = rng.standard_normal((4, 5)) * 2
        c = float(rng.random())
        soft = spaces.soft_shrink(v, c)
        assert (
            c * np.abs(soft).sum() + 0.5 * np.vdot(soft - v, soft - v)
            <= c * np.abs(v).sum() + 1e-12
        )
        svt = spaces.singular_value_shrink(v, c)
        assert (
            c * nuclear_norm(svt) + 0.5 * np.vdot(svt - v, svt - v)
            <= c * nuclear_norm(v) + 1e-8
        )


def with_singular_values(rng, m, d, values):
    """An m x d matrix with the given nonzero singular values and random
    orthonormal singular vectors."""
    k = len(values)
    U, _ = np.linalg.qr(rng.standard_normal((m, k)))
    V, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return (U * np.asarray(values, dtype=float)) @ V.T


def svd_shrink(M, c):
    """Reference singular value shrinkage and nuclear norm from a full SVD."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    shrunk = np.maximum(s - c, 0.0)
    return (U * shrunk) @ Vt, float(shrunk.sum())


def counting(monkeypatch, name, size=None):
    """Count the calls of ``np.linalg.<name>`` that ``spaces`` makes from here
    on: all of them, or those on a size x size matrix."""
    calls = []
    fn = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        if size is None or a.shape == (size, size):
            calls.append(1)
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(spaces.np.linalg, name, counted)
    return calls


SHRINK_CASES = {
    "random": None,
    "repeated": [3.0, 3.0, 3.0, 0.5],
    "clustered": [2.0, 2.0 + 1e-9, 2.0 - 1e-9, 0.2],
    "rank_deficient": [4.0, 2.0],
    "straddling": [2.5, 1.0 + 1e-6, 1.0, 1.0 - 1e-6],
}


@pytest.mark.parametrize("shape", [(7, 4), (4, 7), (5, 5)], ids=["tall", "wide", "square"])
@pytest.mark.parametrize("case", sorted(SHRINK_CASES))
def test_gram_shrinkage_matches_the_svd(case, shape, rng, monkeypatch):
    c = 1.0
    values = SHRINK_CASES[case]
    M = 2.0 * rng.standard_normal(shape) if values is None else with_singular_values(
        rng, *shape, values)
    expected, expected_nuclear = svd_shrink(M, c)
    calls = counting(monkeypatch, "svd")
    out, nuclear, _ = spaces.singular_value_shrink_with_norm(M, c)
    assert not calls  # the Gram route, no SVD
    assert np.linalg.norm(out - expected) <= REL * np.linalg.norm(expected)
    assert nuclear == pytest.approx(expected_nuclear, rel=REL)


@pytest.mark.parametrize("shape", [(7, 4), (4, 7)], ids=["tall", "wide"])
def test_shrinkage_falls_back_to_the_svd_outside_the_certificate(shape, rng, monkeypatch):
    M = with_singular_values(rng, *shape, [1e4, 3.0, 0.5])
    c = 0.1  # eps * sigma_1^2 = 2.2e-8 > 1e-8 * c^2
    cases = [(M, c, svd_shrink(M, c)), (M, 0.0, svd_shrink(M, 0.0))]
    calls = counting(monkeypatch, "svd")
    for k, (matrix, threshold, (expected, expected_nuclear)) in enumerate(cases, start=1):
        out, nuclear, _ = spaces.singular_value_shrink_with_norm(matrix, threshold)
        assert len(calls) == k
        assert np.linalg.norm(out - expected) <= REL * np.linalg.norm(expected)
        assert nuclear == pytest.approx(expected_nuclear, rel=REL)


def kept_basis(M, k):
    """The top k right singular vectors of N, M or M^T whichever is tall."""
    N = M.T if M.shape[0] < M.shape[1] else M
    return np.linalg.svd(N)[2][:k].T


def projector(V):
    return V @ V.T


@pytest.mark.parametrize("shape", [(7, 4), (4, 7)], ids=["tall", "wide"])
@pytest.mark.parametrize("c, values, kept", [
    (1.0, [3.0, 2.0, 0.5, 0.2], 2),
    (0.1, [1e4, 3.0, 0.5, 0.05], 3),  # outside the Gram certificate, as above
    (0.0, [3.0, 2.0, 0.5, 0.2], 4),
], ids=["gram", "svd", "zero"])
def test_every_route_returns_the_kept_right_singular_vectors(c, values, kept, shape, rng):
    M = with_singular_values(rng, *shape, values)
    V_k = spaces.singular_value_shrink_with_norm(M, c)[2]
    assert V_k.shape == (4, kept)
    assert np.allclose(projector(V_k), projector(kept_basis(M, kept)), rtol=0.0, atol=1e-10)


def test_shrinkage_of_an_overflowing_gram_product_falls_back_to_the_svd(rng, monkeypatch):
    M = 1e200 * rng.standard_normal((8, 6))
    expected, expected_nuclear = svd_shrink(M, 1.0)
    starts = (None, kept_basis(M, 1))
    calls = counting(monkeypatch, "svd")
    for start in starts:  # no warning either way
        out, nuclear, _ = spaces.singular_value_shrink_with_norm(M, 1.0, start)
        assert np.abs(out - expected).max() <= REL * np.abs(expected).max()
        assert nuclear == pytest.approx(expected_nuclear, rel=REL)
    assert len(calls) == 2


@pytest.mark.parametrize("shape", [(30, 20), (20, 30)], ids=["tall", "wide"])
def test_warm_shrinkage_from_a_good_start_takes_no_gram_eigendecomposition(shape, rng,
                                                                           monkeypatch):
    M = with_singular_values(rng, *shape, [100.0, 50.0, 30.0, 0.3, 0.2, 0.1])
    # the kept vectors of a nearby matrix, as the previous sweep leaves them
    start = kept_basis(M + 1e-6 * rng.standard_normal(shape), 3)
    expected, expected_nuclear = svd_shrink(M, 1.0)
    kept = projector(kept_basis(M, 3))
    eighs, svds = counting(monkeypatch, "eigh", 20), counting(monkeypatch, "svd")
    out, nuclear, V_k = spaces.singular_value_shrink_with_norm(M, 1.0, start)
    again = spaces.singular_value_shrink_with_norm(M, 1.0, V_k)[0]  # V_k starts the next call
    assert not eighs and not svds
    assert np.linalg.norm(out - expected) <= REL * np.linalg.norm(expected)
    assert np.linalg.norm(again - expected) <= REL * np.linalg.norm(expected)
    assert nuclear == pytest.approx(expected_nuclear, rel=REL)
    assert np.allclose(projector(V_k), kept, rtol=0.0, atol=1e-10)


VALUES = [8.0, 5.0, 3.0, 0.9, 0.5, 0.2]  # three above c = 1, a tail close below it


def third_value_below_c(M):
    """M with its third singular value lowered from 3 to 0.7."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    s[2] = 0.7
    return (U * s) @ Vt


# (input, start) from M and its right singular vectors V
BAD_STARTS = {
    "orthogonal_to_a_kept_direction": lambda M, V, rng: (M, V[:, :2]),
    "wider_than_the_kept_set": lambda M, V, rng: (M, V[:, :4]),
    "rank_deficient": lambda M, V, rng: (M, V[:, [0, 1, 1]]),
    "from_a_different_matrix": lambda M, V, rng: (
        M, kept_basis(with_singular_values(rng, *M.shape, VALUES), 3)),
    "kept_count_falls_below_its_width": lambda M, V, rng: (third_value_below_c(M), V[:, :3]),
}


@pytest.mark.parametrize("shape", [(30, 20), (20, 30)], ids=["tall", "wide"])
@pytest.mark.parametrize("kind", sorted(BAD_STARTS))
def test_shrinkage_from_a_start_that_cannot_certify_takes_the_gram_route(kind, shape, rng,
                                                                         monkeypatch):
    M = with_singular_values(rng, *shape, VALUES)
    matrix, start = BAD_STARTS[kind](M, kept_basis(M, 6), rng)
    expected, expected_nuclear = svd_shrink(matrix, 1.0)
    kept = int(np.sum(np.linalg.svd(matrix, compute_uv=False) > 1.0))
    eighs, svds = counting(monkeypatch, "eigh", 20), counting(monkeypatch, "svd")
    out, nuclear, V_k = spaces.singular_value_shrink_with_norm(matrix, 1.0, start)
    assert (len(eighs), len(svds)) == (1, 0)
    assert np.linalg.norm(out - expected) <= REL * np.linalg.norm(expected)
    assert nuclear == pytest.approx(expected_nuclear, rel=REL)
    assert V_k.shape == (20, kept)


def assert_top_pair(S, pair):
    u, sigma, v = pair
    assert u.shape == (S.shape[0],) and v.shape == (S.shape[1],)
    sigma_1 = np.linalg.svd(S, compute_uv=False)[0]
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert sigma == pytest.approx(sigma_1, rel=1e-12)
    assert u @ S @ v == pytest.approx(sigma_1, rel=1e-12)


@pytest.mark.parametrize("shape", [(7, 4), (4, 7), (5, 5)], ids=["tall", "wide", "square"])
@pytest.mark.parametrize("magnitude", [1.0, 1e200, 1e-200])
def test_leading_singular_pair_matches_the_svd(shape, magnitude, rng):
    for _ in range(10):
        S = magnitude * rng.standard_normal(shape)
        assert_top_pair(S, spaces.leading_singular_pair(S))


# a warm start changes none of the answers on a zero, degenerate or non-finite S
STARTS = pytest.mark.parametrize("start", [None, np.ones(3) / np.sqrt(3.0)],
                                 ids=["cold", "warm"])


@STARTS
def test_leading_singular_pair_on_a_degenerate_top(start, rng):
    S = np.diag([2.0, 2.0, 1.0])
    u, sigma, v = spaces.leading_singular_pair(S, start)
    assert sigma == pytest.approx(2.0, rel=1e-12)
    assert u @ S @ v == pytest.approx(2.0, rel=1e-12)
    g = spaces.spectral_norm_subgradient(S)
    assert np.linalg.svd(g, compute_uv=False).sum() == pytest.approx(1.0, rel=1e-12)
    for _ in range(100):
        T = 2.0 * rng.standard_normal((3, 3))
        assert np.linalg.norm(T, 2) >= 2.0 + np.vdot(g, T - S) - 1e-12


def top_orthogonal_to_ones(rng):
    """A 6 x 5 matrix whose top right singular vector is (1, -1, 0, 0, 0)/sqrt(2),
    orthogonal to the all-ones vector, with random other singular vectors."""
    U = np.linalg.qr(rng.standard_normal((6, 5)))[0]
    V = np.linalg.qr(np.column_stack([[1.0, -1.0, 0.0, 0.0, 0.0],
                                      rng.standard_normal((5, 4))]))[0]
    return (U * [3.0, 2.0, 1.0, 0.5, 0.2]) @ V.T


@pytest.mark.parametrize("S", [
    np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 0.5]]),
    np.array([[2.0, -1.0, 0.0, 0.0], [-1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.1]]),
    top_orthogonal_to_ones(np.random.default_rng(0)),
    np.diag([2.0, 2.0, 1.0]),
], ids=["top_orthogonal_to_ones", "wide_top_orthogonal_to_ones", "rotated_top_orthogonal_to_ones",
        "degenerate_top"])
def test_leading_singular_pair_falls_back_to_the_eigendecomposition(S, monkeypatch):
    # the all-ones right-hand side has no part along the top eigenvector of
    # the Gram matrix: the shifted Gram matrix is exactly singular (the two
    # block matrices), or the solve misses the top eigenvector and fails the
    # residual check (the rotated one); a degenerate top makes the shifted
    # Gram matrix exactly singular
    size = min(S.shape)
    eighs = counting(monkeypatch, "eigh", size)
    pair = spaces.leading_singular_pair(S)
    assert len(eighs) == 1
    assert_top_pair(S, pair)


@STARTS
def test_leading_singular_pair_of_zero_and_of_nonfinite_input(start):
    u, sigma, v = spaces.leading_singular_pair(np.zeros((2, 3)), start)
    assert sigma == 0.0
    assert np.linalg.norm(u) == 1.0 and np.linalg.norm(v) == 1.0
    for bad in (np.nan, np.inf, -np.inf):
        S = np.eye(3)
        S[1, 2] = bad
        with pytest.raises(ValueError):
            spaces.leading_singular_pair(S, start)


PAIR_SHAPES = pytest.mark.parametrize("shape", [(30, 20), (20, 30), (25, 25)],
                                      ids=["tall", "wide", "square"])


@PAIR_SHAPES
@pytest.mark.parametrize("step", [0.0, 1e-6, 1e-3])
def test_leading_pair_from_the_previous_pair_takes_the_warm_route(shape, step, rng,
                                                                   monkeypatch):
    for _ in range(5):
        S = rng.standard_normal(shape)
        previous = spaces.leading_singular_pair(S)
        S = S + step * np.linalg.norm(S) * rng.standard_normal(shape)
        eigvalshs, eighs = counting(monkeypatch, "eigvalsh"), counting(monkeypatch, "eigh")
        pair = spaces.leading_singular_pair(S, previous[2])
        assert (len(eigvalshs), len(eighs)) == (0, 0)  # the Cholesky test passed
        assert_top_pair(S, pair)


@PAIR_SHAPES
def test_a_start_at_the_second_singular_vector_fails_the_top_test(shape, rng, monkeypatch):
    # Rayleigh quotient iteration from v_2 stays at sigma_2, whose residual
    # passes; only the Cholesky test sends it to the cold route
    U = np.linalg.qr(rng.standard_normal((shape[0], 4)))[0]
    V = np.linalg.qr(rng.standard_normal((shape[1], 4)))[0]
    S = (U * [4.0, 2.0, 1.0, 0.5]) @ V.T
    eigvalshs = counting(monkeypatch, "eigvalsh")
    pair = spaces.leading_singular_pair(S, V[:, 1])
    assert len(eigvalshs) == 1
    assert_top_pair(S, pair)


@pytest.mark.parametrize("start", [np.zeros(3), np.full(3, np.nan), np.full(3, np.inf)],
                         ids=["zero", "nan", "inf"])
def test_a_start_that_is_not_a_direction_takes_the_cold_route(start, monkeypatch):
    S = np.diag([3.0, 2.0, 1.0])
    eigvalshs = counting(monkeypatch, "eigvalsh")
    assert_top_pair(S, spaces.leading_singular_pair(S, start))
    assert len(eigvalshs) == 1


def test_spectral_subgradient_diagonal_example():
    s = np.diag([5.0, 2.0])
    g = spaces.spectral_norm_subgradient(s)
    assert np.vdot(g, s) == pytest.approx(5.0, rel=REL)
    assert np.linalg.norm(g) == pytest.approx(1.0, rel=SVD_REL)
    assert abs(g[0, 0]) == pytest.approx(1.0, rel=SVD_REL)
    assert abs(g[0, 1]) + abs(g[1, 0]) + abs(g[1, 1]) < SVD_REL


def test_spectral_subgradient_rank_one_case(rng):
    u = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    g = spaces.spectral_norm_subgradient(4.2 * np.outer(u, v))
    assert np.allclose(g, np.outer(u, v), atol=SVD_REL) or np.allclose(
        g, -np.outer(u, v), atol=SVD_REL
    )
    # joint sign flips cancel in the inner product
    assert np.vdot(g, np.outer(u, v)) == pytest.approx(1.0, rel=SVD_REL)


def test_spectral_subgradient_matches_eigenvalue_oracle(rng):
    for _ in range(20):
        s = rng.standard_normal((6, 3))
        g = spaces.spectral_norm_subgradient(s)
        assert np.vdot(g, s) == pytest.approx(spectral_norm_eig(s), abs=1e-10)
        assert np.linalg.norm(g) == pytest.approx(1.0, rel=SVD_REL)


def test_spectral_subgradient_zero_matrix():
    assert np.array_equal(spaces.spectral_norm_subgradient(np.zeros((3, 2))), np.zeros((3, 2)))


def test_spectral_subgradient_inequality(rng):
    s = rng.standard_normal((5, 4))
    g = spaces.spectral_norm_subgradient(s)
    norm_s = spectral_norm_eig(s)
    for _ in range(100):
        t = rng.standard_normal((5, 4)) * 2
        assert spectral_norm_eig(t) >= norm_s + np.vdot(g, t - s) - 1e-9


def test_dist_sq_nonneg_orthant_examples():
    assert spaces.dist_sq_nonneg_orthant(np.array([1.0, 2.0])) == 0.0
    assert spaces.dist_sq_nonneg_orthant(np.array([-1.0, 3.0])) == pytest.approx(1.0, rel=REL)


def test_dist_sq_gradient_matches_finite_differences(rng):
    # 2 min(y, 0), 2-Lipschitz: the gradient the DC-OPF gate l_H = eta assumes
    y = rng.standard_normal(8)
    numeric = finite_difference_gradient(spaces.dist_sq_nonneg_orthant, y)
    assert np.allclose(2.0 * np.minimum(y, 0.0), numeric, atol=1e-6)


def test_dist_sq_rejects_nonfinite():
    with pytest.raises(ValueError):
        spaces.dist_sq_nonneg_orthant(np.array([1.0, np.nan]))


def test_golden_section_oracle_self_check():
    # the oracle itself must locate an easy minimum accurately
    assert golden_section(lambda s: (s - 1.75) ** 2, -10, 10) == pytest.approx(1.75, abs=1e-10)
