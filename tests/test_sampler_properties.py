"""Property tests of the shape step's carried term (needs hypothesis)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lomaxbayes import PriorKind  # noqa: E402
from lomaxbayes.sampler import _alpha_term, _mh_step_alpha  # noqa: E402


@settings(max_examples=200, deadline=None, database=None)
@given(
    kind=st.sampled_from(list(PriorKind)),
    n=st.integers(1, 5000),
    # run_chain's scale 1.5/sqrt(n) is at most 1.5
    scale=st.floats(0.01, 1.5),
    alpha=st.floats(0.01, 50.0),
    # the mean log latent of each step; sum log lambda is n times it
    log_levels=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=30),
    seed=st.integers(0, 2**64 - 1),
)
def test_carried_term_is_that_of_the_current_alpha(kind, n, scale, alpha, log_levels, seed):
    steps = np.random.default_rng(seed)
    term = _alpha_term(kind, alpha, n)
    for level in log_levels:
        sum_log_lam = float(np.log(np.full(n, math.exp(level))).sum())
        z, log_u = steps.standard_normal(), math.log1p(-steps.random())
        # the same step with the term recomputed for the current alpha
        fresh_term = _alpha_term(kind, alpha, n)
        want, _, want_accepted = _mh_step_alpha(
            alpha, fresh_term, kind, n, sum_log_lam, scale, z, log_u
        )
        alpha, term, accepted = _mh_step_alpha(alpha, term, kind, n, sum_log_lam, scale, z, log_u)
        assert (alpha, accepted) == (want, want_accepted)
        assert term == _alpha_term(kind, alpha, n)
