"""Summaries, PSRF, acceptance rate and outlier scoring."""

import math

import numpy as np
import pytest

from lomaxbayes import (
    Chain,
    Dataset,
    LomaxParams,
    McmcConfig,
    PriorKind,
    acceptance_rate,
    gelman_rubin,
    outlier_scores,
    run_chains,
    sample,
    summarize,
)


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


class TestOutlierScores:
    @staticmethod
    def _fit(x, seed=0):
        d = Dataset(x)
        cfg = McmcConfig(iterations=3000, burn_in=500, thin=5, chains=2, seed=seed)
        return d, run_chains(d, PriorKind.REFERENCE, cfg)

    def test_homogeneous_data_rarely_flagged(self):
        x = sample(LomaxParams(2.0, 1.5), np.random.default_rng(55), 100).x
        d, cs = self._fit(x)
        result = outlier_scores(cs, d)
        assert result.flagged.mean() <= 0.10

    def test_gross_outlier_gets_minimum_score(self):
        base = sample(LomaxParams(2.0, 1.5), np.random.default_rng(56), 60).x
        x = np.append(base, 100.0 * base.max())
        d, cs = self._fit(x, seed=1)
        result = outlier_scores(cs, d)
        assert int(np.argmin(result.scores)) == d.n - 1
        assert result.flagged[-1]

    def test_single_observation_never_flagged(self):
        d = Dataset([4.0])
        cfg = McmcConfig(iterations=500, burn_in=100, thin=2, chains=2, seed=2)
        cs = run_chains(d, PriorKind.JEFFREYS_DEPENDENT, cfg)
        result = outlier_scores(cs, d)
        assert result.scores.shape == (1,)
        assert not result.flagged.any()

    def test_conditional_latent_mean_decreases_in_x(self):
        # E[lambda | x] = (alpha+1)/(1 + x/beta) must fall as x grows
        alpha, beta = 1.5, 2.0
        xs = np.linspace(0.0, 50.0, 200)
        means = (alpha + 1.0) / (1.0 + xs / beta)
        assert np.all(np.diff(means) < 0)

    def test_flags_are_the_x_above_their_95th_percentile(self):
        # at n = 101 the 95th percentile is the order statistic x = 95, so
        # moving the cut by one percentile point changes the flagged set
        x = np.random.default_rng(5).permutation(101).astype(float)  # a permutation of 0..100
        result = outlier_scores((_chain([1.5, 2.5], [2.0, 3.0], proposed=2),), Dataset(x))
        assert sorted(x[result.flagged].tolist()) == [96.0, 97.0, 98.0, 99.0, 100.0]

    def test_rao_blackwell_mean_over_pooled_draws(self):
        x = sample(LomaxParams(2.0, 1.5), np.random.default_rng(57), 40).x
        d, cs = self._fit(x, seed=3)
        a = np.concatenate([c.alpha for c in cs])[:, None]
        b = np.concatenate([c.beta for c in cs])[:, None]
        want = np.mean((a + 1.0) / (1.0 + d.x / b), axis=0)
        np.testing.assert_allclose(outlier_scores(cs, d).scores, want, rtol=1e-12, atol=0.0)

    def test_tied_observations_get_identical_scores(self):
        d = Dataset([5.0] * 10 + [1.0, 9.0, 1.0])
        cfg = McmcConfig(iterations=3000, burn_in=1000, thin=20, chains=2, seed=0)
        scores = outlier_scores(run_chains(d, PriorKind.JEFFREYS_DEPENDENT, cfg), d).scores
        assert np.unique(scores[:10]).size == 1
        assert scores[10] == scores[12]

    def test_scores_fall_as_x_grows_and_flags_are_the_top_of_x(self):
        x = sample(LomaxParams(2.0, 1.5), np.random.default_rng(42), 500).x
        d, cs = self._fit(x, seed=4)
        result = outlier_scores(cs, d)
        assert np.all(np.diff(result.scores[np.argsort(x)]) < 0)
        np.testing.assert_array_equal(result.flagged, x > np.percentile(x, 95.0))
        assert result.flagged.sum() == 25
