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
    [spaces.squared_norm(), spaces.scaled_squared_norm(0.01),
     spaces.quadratic_form(np.array([[2.0, 0.5], [0.5, 3.0]]))],
    ids=["squared", "scaled", "quadratic_form"],
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


def test_singular_value_shrink_examples(rng):
    out = spaces.singular_value_shrink(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=SVD_REL)
    m = rng.standard_normal((4, 6))
    assert np.allclose(spaces.singular_value_shrink(m, 0.0), m, atol=SVD_REL)
    # the paired form also returns the output's nuclear norm
    shrunk, nuclear = spaces.singular_value_shrink_with_norm(m, 0.5)
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


def counting_svd(monkeypatch):
    """Count the full SVDs ``spaces`` runs from here on."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(spaces.np.linalg, "svd", counted)
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
    calls = counting_svd(monkeypatch)
    out, nuclear = spaces.singular_value_shrink_with_norm(M, c)
    assert not calls  # the Gram route, no SVD
    assert np.linalg.norm(out - expected) <= REL * np.linalg.norm(expected)
    assert nuclear == pytest.approx(expected_nuclear, rel=REL)


@pytest.mark.parametrize("shape", [(7, 4), (4, 7)], ids=["tall", "wide"])
def test_shrinkage_falls_back_to_the_svd_outside_the_certificate(shape, rng, monkeypatch):
    M = with_singular_values(rng, *shape, [1e4, 3.0, 0.5])
    c = 0.1  # eps * sigma_1^2 = 2.2e-8 > 1e-8 * c^2
    cases = [(M, c, svd_shrink(M, c)), (M, 0.0, svd_shrink(M, 0.0))]
    calls = counting_svd(monkeypatch)
    for k, (matrix, threshold, (expected, expected_nuclear)) in enumerate(cases, start=1):
        out, nuclear = spaces.singular_value_shrink_with_norm(matrix, threshold)
        assert len(calls) == k
        assert np.linalg.norm(out - expected) <= REL * np.linalg.norm(expected)
        assert nuclear == pytest.approx(expected_nuclear, rel=REL)


@pytest.mark.parametrize("shape", [(7, 4), (4, 7), (5, 5)], ids=["tall", "wide", "square"])
@pytest.mark.parametrize("magnitude", [1.0, 1e200, 1e-200])
def test_leading_singular_pair_matches_the_svd(shape, magnitude, rng):
    for _ in range(10):
        S = magnitude * rng.standard_normal(shape)
        sigma_1 = np.linalg.svd(S, compute_uv=False)[0]
        u, sigma, v = spaces.leading_singular_pair(S)
        assert u.shape == (shape[0],) and v.shape == (shape[1],)
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert sigma == pytest.approx(sigma_1, rel=1e-12)
        assert u @ S @ v == pytest.approx(sigma_1, rel=1e-12)


def test_leading_singular_pair_on_a_degenerate_top(rng):
    S = np.diag([2.0, 2.0, 1.0])
    u, sigma, v = spaces.leading_singular_pair(S)
    assert sigma == pytest.approx(2.0, rel=1e-12)
    assert u @ S @ v == pytest.approx(2.0, rel=1e-12)
    g = spaces.spectral_norm_subgradient(S)
    assert np.linalg.svd(g, compute_uv=False).sum() == pytest.approx(1.0, rel=1e-12)
    for _ in range(100):
        T = 2.0 * rng.standard_normal((3, 3))
        assert np.linalg.norm(T, 2) >= 2.0 + np.vdot(g, T - S) - 1e-12


def test_leading_singular_pair_of_zero_and_of_nonfinite_input():
    u, sigma, v = spaces.leading_singular_pair(np.zeros((3, 2)))
    assert sigma == 0.0
    assert np.linalg.norm(u) == 1.0 and np.linalg.norm(v) == 1.0
    for bad in (np.nan, np.inf, -np.inf):
        S = np.eye(3)
        S[1, 2] = bad
        with pytest.raises(ValueError):
            spaces.leading_singular_pair(S)


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
    value, grad = spaces.dist_sq_nonneg_orthant(np.array([1.0, 2.0]))
    assert value == 0.0
    assert np.array_equal(grad, np.zeros(2))
    value, grad = spaces.dist_sq_nonneg_orthant(np.array([-1.0, 3.0]))
    assert value == pytest.approx(1.0, rel=REL)
    assert np.allclose(grad, [-2.0, 0.0], rtol=REL)


def test_dist_sq_gradient_matches_finite_differences(rng):
    y = rng.standard_normal(8)
    _, grad = spaces.dist_sq_nonneg_orthant(y)
    numeric = finite_difference_gradient(lambda v: spaces.dist_sq_nonneg_orthant(v)[0], y)
    assert np.allclose(grad, numeric, atol=1e-6)


def test_dist_sq_rejects_nonfinite():
    with pytest.raises(ValueError):
        spaces.dist_sq_nonneg_orthant(np.array([1.0, np.nan]))


def test_golden_section_oracle_self_check():
    # the oracle itself must locate an easy minimum accurately
    assert golden_section(lambda s: (s - 1.75) ** 2, -10, 10) == pytest.approx(1.75, abs=1e-10)
