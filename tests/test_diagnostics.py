"""Summaries, PSRF and acceptance rate."""

import math

import numpy as np
import pytest

from lomaxbayes import Chain, McmcConfig, acceptance_rate, gelman_rubin, summarize


def _chain(alpha, beta=None, accepted=0, proposed=1):
    alpha = np.asarray(alpha, dtype=float)
    beta = alpha.copy() if beta is None else np.asarray(beta, dtype=float)
    cfg = McmcConfig(iterations=max(proposed, 2), burn_in=0, thin=1)
    return Chain(
        alpha=alpha,
        beta=beta,
        accepted=accepted,
        proposed=proposed,
        chain_index=0,
        config=cfg,
    )


class TestSummarize:
    def test_constant_vector(self):
        s = summarize(np.full(10, 3.25))
        assert (s.mean, s.sd, s.ci_low, s.ci_high) == (3.25, 0.0, 3.25, 3.25)

    def test_small_vector(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.sd == pytest.approx(1.2909944, abs=1e-7)
        assert s.ci_low <= s.mean <= s.ci_high

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            summarize([1.0])

    def test_uniform_quantile_convergence(self):
        draws = np.random.default_rng(8).random(100_000)
        s = summarize(draws)
        assert s.ci_low == pytest.approx(0.025, abs=0.005)
        assert s.ci_high == pytest.approx(0.975, abs=0.005)

    def test_exact_under_power_of_two_scaling(self):
        # at 2^-1000 the unscaled squared deviations underflow to 0 and at
        # 2^900 they overflow
        v = np.random.default_rng(4).gamma(3.0, 1.0, 1000)
        base = summarize(v)
        for j in (-1000, -500, 500, 900):
            s = summarize(np.ldexp(v, j))
            want = [np.ldexp(f, j) for f in (base.mean, base.sd, base.ci_low, base.ci_high)]
            assert [s.mean, s.sd, s.ci_low, s.ci_high] == want, j

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        draws = rng.gamma(2.0, 1.0, 500)
        shuffled = rng.permutation(draws)
        a, b = summarize(draws), summarize(shuffled)
        assert a == b


class TestGelmanRubin:
    def test_hand_computed_example(self):
        # W = 1, B = 1.5, PSRF = sqrt(((2/3)*1 + 0.5) / 1) = sqrt(7/6)
        psrf = gelman_rubin([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        assert psrf == pytest.approx(math.sqrt(7.0 / 6.0), rel=1e-12)

    def test_identical_chains_below_one(self):
        draws = np.random.default_rng(1).normal(size=50)
        psrf = gelman_rubin([draws, draws.copy()])
        assert psrf == pytest.approx(math.sqrt(49.0 / 50.0), rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(3, 200))
        assert gelman_rubin(mat) == pytest.approx(gelman_rubin(-2.5 * mat + 7.0), rel=1e-12)

    def test_exact_under_power_of_two_scaling(self):
        mat = np.random.default_rng(6).gamma(3.0, 1.0, (2, 500))
        base = gelman_rubin(mat)
        assert math.isfinite(base)
        for j in (-1000, -500, 500, 900):
            assert gelman_rubin(np.ldexp(mat, j)) == base, j

    def test_constant_chains(self):
        # W = 0: equal chain means give NaN, different ones +inf, never a crash
        assert math.isnan(gelman_rubin([np.full(5, 2.0), np.full(5, 2.0)]))
        assert gelman_rubin([np.full(5, 2.0), np.full(5, 3.0)]) == math.inf

    def test_input_validation(self):
        with pytest.raises(ValueError, match="unequal"):
            gelman_rubin([[1.0, 2.0], [1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="2 chains"):
            gelman_rubin([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="2 chains"):
            gelman_rubin([])
        with pytest.raises(ValueError, match="2 draws"):
            gelman_rubin([[1.0], [2.0]])


class TestAcceptanceRate:
    def test_ratio(self):
        assert acceptance_rate(_chain([1.0, 2.0], accepted=931, proposed=1000)) == 0.931

    def test_all_rejected(self):
        assert acceptance_rate(_chain([1.0, 2.0], accepted=0, proposed=50)) == 0.0

    def test_zero_proposals(self):
        with pytest.raises(ValueError):
            acceptance_rate(_chain([1.0, 2.0], accepted=0, proposed=0))
