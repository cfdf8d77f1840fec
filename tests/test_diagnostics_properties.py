"""Property tests: summaries and the PSRF are scale-equivariant (needs hypothesis)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lomaxbayes import gelman_rubin, summarize  # noqa: E402

_POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def _betas(draw):
    """Two chains of equal length."""
    length = draw(st.integers(2, 20))
    chain = st.lists(_POSITIVE, min_size=length, max_size=length)
    return [draw(chain) for _ in range(2)]


@settings(max_examples=200, deadline=None, database=None)
@given(betas=_betas(), j=st.integers(-900, 900))
def test_scaling_beta_by_a_power_of_two(betas, j):
    scaled_betas = [np.ldexp(b, j) for b in betas]

    base = summarize(np.concatenate(betas))
    s = summarize(np.concatenate(scaled_betas))
    want = [np.ldexp(f, j) for f in (base.mean, base.sd, base.ci_low, base.ci_high)]
    assert [s.mean, s.sd, s.ci_low, s.ci_high] == want

    psrf, scaled_psrf = gelman_rubin(betas), gelman_rubin(scaled_betas)
    assert scaled_psrf == psrf or (math.isnan(psrf) and math.isnan(scaled_psrf))
