"""Property tests: fit post-processing is scale-equivariant (needs hypothesis)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lomaxbayes import Chain, Dataset, McmcConfig, gelman_rubin, outlier_scores, summarize  # noqa: E402

_POSITIVE = st.floats(1e-3, 1e3)


def _chains(alphas, betas):
    cfg = McmcConfig(iterations=len(alphas[0]), burn_in=0, thin=1, chains=len(alphas))
    return tuple(
        Chain(alpha=np.array(a), beta=np.array(b), accepted=0, proposed=cfg.iterations,
              chain_index=i, config=cfg)
        for i, (a, b) in enumerate(zip(alphas, betas))
    )


@st.composite
def _draws(draw):
    """Two chains of equal length: (alphas, betas)."""
    length = draw(st.integers(2, 20))
    chain = st.lists(_POSITIVE, min_size=length, max_size=length)
    return [draw(chain) for _ in range(2)], [draw(chain) for _ in range(2)]


@settings(max_examples=200, deadline=None, database=None)
@given(
    draws=_draws(),
    x=st.lists(_POSITIVE, min_size=1, max_size=30),
    j=st.integers(-900, 900),
)
def test_scaling_x_and_beta_by_a_power_of_two(draws, x, j):
    alphas, betas = draws
    scaled_betas = [np.ldexp(b, j) for b in betas]

    result = outlier_scores(_chains(alphas, betas), Dataset(x))
    np.testing.assert_array_equal(result.flagged, np.array(x) > np.percentile(x, 95.0))
    scaled = outlier_scores(_chains(alphas, scaled_betas), Dataset(np.ldexp(x, j))).scores
    np.testing.assert_allclose(scaled, result.scores, rtol=1e-12, atol=0.0)

    base = summarize(np.concatenate(betas))
    s = summarize(np.concatenate(scaled_betas))
    want = [np.ldexp(f, j) for f in (base.mean, base.sd, base.ci_low, base.ci_high)]
    assert [s.mean, s.sd, s.ci_low, s.ci_high] == want

    psrf, scaled_psrf = gelman_rubin(betas), gelman_rubin(scaled_betas)
    assert scaled_psrf == psrf or (math.isnan(psrf) and math.isnan(scaled_psrf))
