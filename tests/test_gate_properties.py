"""Property test of the parameter gates: ``validate_parameters`` accepts
exactly the parameters whose guaranteed descent weights ``delta_x`` and
``delta_y`` are both positive, and the bounds it returns are where those
weights change sign."""

from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bpladmm import engine  # noqa: E402

GAP = 1e-9  # least relative distance of a sampled alpha or rho from its bound

POSITIVE = st.floats(1e-3, 1e3)
# alpha = (l_P + beta)(1 + s) and rho = (2 l_H / lambda)(1 + t), on either side
OFFSET = st.one_of(st.floats(GAP, 1.0), st.floats(-0.9, -GAP))


def accepted(params) -> bool:
    try:
        engine.validate_parameters(params)
    except engine.ParameterError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(l_H=POSITIVE, l_P=POSITIVE, beta=POSITIVE, lam=POSITIVE, s=OFFSET, t=OFFSET)
def test_gates_accept_exactly_the_positive_descent_weights(l_H, l_P, beta, lam, s, t):
    params = engine.SolverParams(
        rho=2.0 * l_H / lam * (1.0 + t), lipschitz_H=l_H, lipschitz_P=l_P,
        weak_convexity_G=beta, strong_convexity=(l_P + beta) * (1.0 + s), lambda_min_BtB=lam,
    )
    assert accepted(params) == (params.delta_x > 0.0 and params.delta_y > 0.0)

    alpha_bound, rho_bound = engine.validate_parameters(
        replace(params, strong_convexity=2.0 * (l_P + beta), rho=4.0 * l_H / lam))
    # both gates are strict: a parameter at its bound is rejected
    assert not accepted(replace(params, strong_convexity=alpha_bound, rho=2.0 * rho_bound))
    assert not accepted(replace(params, strong_convexity=2.0 * alpha_bound, rho=rho_bound))
    # each weight changes sign at its bound, within GAP of it
    for scale, sign in ((1.0 + GAP, 1.0), (1.0 - GAP, -1.0)):
        assert sign * replace(params, strong_convexity=scale * alpha_bound).delta_x > 0.0
        assert sign * replace(params, rho=scale * rho_bound).delta_y > 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(l_H=st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, 2.0**19, 1e6, 1e300])))
def test_the_default_rho_passes_its_gate(l_H):
    # 2 l_H + 1e-10 alone rounds to 2 l_H for l_H >= 2^19
    rho = engine.rho_above_gate(l_H)
    assert accepted(engine.SolverParams(rho=rho, lipschitz_H=l_H))
    if l_H < 2.0**19:
        assert rho == 2.0 * l_H + 1e-10
