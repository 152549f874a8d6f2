"""Property test on short BPL-ADMM runs on random tall, wide and square
robust PCA instances: the merit never rises by more than acceptance
criterion 5's slack, and no RuntimeWarning is raised (neither the engine's
merit monitor nor numpy)."""

import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bpladmm import rpca  # noqa: E402

SWEEPS = 30


def shape(orientation, short, extra):
    return {"tall": (short + extra, short), "wide": (short, short + extra),
            "square": (short, short)}[orientation]


@pytest.mark.parametrize("orientation", ["tall", "wide", "square"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(short=st.integers(2, 10), extra=st.integers(1, 8), rank_share=st.floats(0.0, 1.0),
       sparsity=st.floats(0.02, 0.3), noise=st.sampled_from([0.0, 1e-2, 1e-1]),
       seed=st.integers(0, 2**32 - 1))
def test_short_runs_have_a_nonincreasing_merit(orientation, short, extra, rank_share,
                                               sparsity, noise, seed):
    m, d = shape(orientation, short, extra)
    rank = 1 + int(rank_share * (min(m, d) - 1))
    instance = rpca.generate_instance(m, d, rank, sparsity, noise, seed)
    config = rpca.RpcaConfig(rows=m, cols=d, noise=noise, max_iterations=SWEEPS)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solution = rpca.bpl_admm_rpca(instance, config, init_seed=seed + 1)
    merits = [r.merit for r in solution.reports]
    slack = 1e-8 * (1.0 + abs(merits[1]))
    assert all(later - earlier <= slack for earlier, later in zip(merits[1:], merits[2:]))
