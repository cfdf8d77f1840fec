"""Property tests of the shape step's carried terms (needs hypothesis)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lomaxbayes import PriorKind  # noqa: E402
from lomaxbayes.sampler import _alpha_terms, _mh_step_alpha  # noqa: E402


@settings(max_examples=200, deadline=None, database=None)
@given(
    kind=st.sampled_from(list(PriorKind)),
    n=st.integers(1, 5000),
    tuning=st.floats(0.01, 10.0),
    alpha=st.floats(0.01, 50.0),
    # the mean log latent of each step; sum log lambda is n times it
    log_levels=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=30),
    seed=st.integers(0, 2**64 - 1),
)
def test_carried_terms_are_those_of_the_current_alpha(kind, n, tuning, alpha, log_levels, seed):
    carried, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
    steps = np.random.default_rng([seed, 1])
    terms = _alpha_terms(kind, alpha, n, tuning)
    for level in log_levels:
        sum_log_lam = float(np.log(np.full(n, math.exp(level))).sum())
        z, log_u = steps.standard_normal(), math.log1p(-steps.random())
        # the same step with every term recomputed for the current alpha
        fresh_terms = _alpha_terms(kind, alpha, n, tuning)
        want, _, want_accepted = _mh_step_alpha(
            alpha, fresh_terms, kind, n, sum_log_lam, tuning, z, log_u, fresh
        )
        alpha, terms, accepted = _mh_step_alpha(
            alpha, terms, kind, n, sum_log_lam, tuning, z, log_u, carried
        )
        assert (alpha, accepted) == (want, want_accepted)
        assert terms == _alpha_terms(kind, alpha, n, tuning)
