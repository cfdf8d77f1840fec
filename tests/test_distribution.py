"""Distribution closed forms, normalization, mixture identity and samplers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist, ks_2samp

from lomaxbayes import (
    Dataset,
    LomaxParams,
    hazard,
    log_pdf,
    mean,
    median,
    sample,
    sample_hierarchical,
    survival,
    variance,
)

GRID = [LomaxParams(beta=b, alpha=a) for b in (0.5, 1.0, 2.0, 5.0) for a in (0.5, 1.0, 2.0, 5.0)]


class TestLomaxParams:
    @pytest.mark.parametrize("beta,alpha", [
        (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
        (math.nan, 1.0), (1.0, math.inf), (math.inf, 1.0),
    ])
    def test_invalid_construction(self, beta, alpha):
        with pytest.raises(ValueError):
            LomaxParams(beta=beta, alpha=alpha)

    def test_fields_are_floats(self):
        p = LomaxParams(beta=2, alpha=3)
        assert isinstance(p.beta, float) and isinstance(p.alpha, float)


class TestDataset:
    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            Dataset(np.array([]))

    def test_keeps_order_and_is_readonly(self):
        d = Dataset([3.0, 1.0, 2.0])
        assert d.n == 3
        np.testing.assert_array_equal(d.x, [3.0, 1.0, 2.0])
        assert not d.x.flags.writeable

    def test_zeros_counts_observations_equal_to_0(self):
        assert Dataset([0.0, 1.5, -0.0, 2.0]).zeros == 2  # -0.0 passes as >= 0
        assert Dataset([1e-300, 3.0]).zeros == 0


class TestLogPdf:
    def test_values(self):
        assert log_pdf(LomaxParams(1, 1), 0.0) == pytest.approx(0.0, abs=1e-15)
        assert log_pdf(LomaxParams(2, 1.5), 0.0) == pytest.approx(math.log(0.75), rel=1e-12)
        assert log_pdf(LomaxParams(1, 2), 1.0) == pytest.approx(math.log(0.25), rel=1e-12)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            log_pdf(LomaxParams(1, 1), -0.1)

    def test_vectorized(self):
        out = log_pdf(LomaxParams(2, 1.5), np.array([0.0, 1.0, 10.0]))
        assert out.shape == (3,)
        assert out[0] == pytest.approx(math.log(0.75))


class TestSurvival:
    def test_values(self):
        assert survival(LomaxParams(3, 0.7), 0.0) == 1.0
        assert survival(LomaxParams(1, 1), 1.0) == pytest.approx(0.5, rel=1e-14)
        assert survival(LomaxParams(2, 2), 2.0) == pytest.approx(0.25, rel=1e-14)

    def test_monotone_nonincreasing(self):
        p = LomaxParams(2, 1.5)
        xs = np.linspace(0, 50, 200)
        s = survival(p, xs)
        assert np.all(np.diff(s) <= 0)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            survival(LomaxParams(1, 1), -1.0)


class TestHazard:
    def test_values(self):
        assert hazard(LomaxParams(2, 1.5), 0.0) == pytest.approx(0.75, rel=1e-14)
        assert hazard(LomaxParams(1, 1), 1.0) == pytest.approx(0.5, rel=1e-14)
        assert hazard(LomaxParams(1, 3), 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_strictly_decreasing(self):
        p = LomaxParams(1, 2)
        xs = np.linspace(0, 20, 100)
        assert np.all(np.diff(hazard(p, xs)) < 0)

    @pytest.mark.parametrize("p", GRID)
    def test_equals_pdf_over_survival(self, p):
        xs = np.array([0.0, 0.1, 1.0, 10.0, 100.0])
        np.testing.assert_allclose(
            hazard(p, xs), np.exp(log_pdf(p, xs)) / survival(p, xs), rtol=1e-13
        )


class TestMedian:
    def test_values(self):
        assert median(LomaxParams(2, 1)) == pytest.approx(2.0, rel=1e-14)
        assert median(LomaxParams(1, 1)) == pytest.approx(1.0, rel=1e-14)
        assert median(LomaxParams(3, 0.5)) == pytest.approx(9.0, rel=1e-14)

    @pytest.mark.parametrize("p", GRID)
    def test_survival_round_trip(self, p):
        assert survival(p, median(p)) == pytest.approx(0.5, abs=1e-12)


class TestMoments:
    def test_mean(self):
        assert mean(LomaxParams(2, 1.5)) == pytest.approx(4.0)
        assert mean(LomaxParams(1, 2)) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="mean undefined"):
            mean(LomaxParams(2, 1))

    def test_variance(self):
        assert variance(LomaxParams(1, 3)) == pytest.approx(0.75)
        assert variance(LomaxParams(2, 4)) == pytest.approx(8.0 / 9.0)
        with pytest.raises(ValueError, match="variance undefined"):
            variance(LomaxParams(1, 2))


class TestNormalization:
    @pytest.mark.parametrize("p", GRID)
    def test_density_plus_tail_is_one(self, p):
        # integrate to the 10% survival quantile, add the closed-form tail
        x_max = p.beta * math.expm1(math.log(10.0) / p.alpha)
        total, err = quad(
            lambda x: math.exp(log_pdf(p, x)), 0.0, x_max,
            epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        assert total + survival(p, x_max) == pytest.approx(1.0, abs=1e-9)


class TestPdfSurvivalConsistency:
    @pytest.mark.parametrize("p", [LomaxParams(1, 1), LomaxParams(2, 1.5), LomaxParams(0.5, 3)])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_negative_survival_slope_matches_pdf(self, p, x):
        h = 1e-5 * max(1.0, x)
        slope = (survival(p, x - h) - survival(p, x + h)) / (2.0 * h)
        assert slope == pytest.approx(math.exp(log_pdf(p, x)), abs=1e-6)


class TestMixtureIdentity:
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_latent_quadrature_matches_density(self, x):
        p = LomaxParams(beta=2.0, alpha=1.5)
        rate = 1.0 + x / p.beta
        # upper limit where the Gamma(alpha+1, rate) mass beyond is < 1e-12
        lam_hi = gamma_dist.ppf(1.0 - 1e-12, a=p.alpha + 1.0, scale=1.0 / rate)

        def joint(lam):
            return (
                lam**p.alpha * math.exp(-lam * rate) / (p.beta * math.gamma(p.alpha))
            )

        val, err = quad(joint, 0.0, lam_hi, epsabs=1e-14, epsrel=1e-12, limit=200)
        assert val == pytest.approx(math.exp(log_pdf(p, x)), rel=1e-6)


class _ConstantUniformRng:
    """random() stub returning a fixed value; other methods unsupported."""

    def __init__(self, value):
        self.value = value

    def random(self, n=None):
        if n is None:
            return self.value
        return np.full(int(n), self.value)


class TestInverseCdfSampler:
    def test_u_half_gives_median(self):
        p = LomaxParams(beta=2.0, alpha=1.5)
        d = sample(p, _ConstantUniformRng(0.5), 4)
        np.testing.assert_allclose(d.x, median(p), rtol=1e-14)

    def test_u_one_gives_zero(self):
        # rng.random() == 0 maps to u = 1, the closed end of (0, 1]
        d = sample(LomaxParams(1, 1), _ConstantUniformRng(0.0), 3)
        np.testing.assert_array_equal(d.x, 0.0)

    def test_deterministic_given_seed(self):
        p = LomaxParams(beta=2.0, alpha=3.0)
        d1 = sample(p, np.random.default_rng(99), 100)
        d2 = sample(p, np.random.default_rng(99), 100)
        np.testing.assert_array_equal(d1.x, d2.x)

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            sample(LomaxParams(1, 1), np.random.default_rng(0), 0)
        # 2.5 once drew 2 observations; a numpy integer is a count
        with pytest.raises(TypeError, match="^n must be an integer, got 2.5$"):
            sample(LomaxParams(1, 1), np.random.default_rng(0), 2.5)
        assert sample(LomaxParams(1, 1), np.random.default_rng(0), np.int64(2)).n == 2

    def test_sample_mean_within_three_se(self):
        p = LomaxParams(beta=2.0, alpha=3.0)
        n = 100_000
        d = sample(p, np.random.default_rng(7), n)
        se = math.sqrt(variance(p) / n)
        assert abs(d.x.mean() - mean(p)) < 3 * se


class _UnitGammaRng:
    """gamma() pinned to 1 so X | lambda is a plain exponential."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def gamma(self, shape, scale=1.0, size=None):
        return np.ones(int(size))

    def exponential(self, scale=1.0, size=None):
        return self._rng.exponential(scale, size)


class TestHierarchicalSampler:
    def test_unit_lambda_reduces_to_exponential(self):
        beta, n = 2.0, 100_000
        d = sample_hierarchical(LomaxParams(beta, 1.5), _UnitGammaRng(3), n)
        se = beta / math.sqrt(n)  # Exponential(rate 1/beta): mean and sd both beta
        assert abs(d.x.mean() - beta) < 3 * se

    def test_sample_mean_within_three_se(self):
        p = LomaxParams(beta=1.0, alpha=3.0)
        n = 100_000
        d = sample_hierarchical(p, np.random.default_rng(11), n)
        se = math.sqrt(variance(p) / n)
        assert abs(d.x.mean() - 0.5) < 3 * se

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            sample_hierarchical(LomaxParams(1, 1), np.random.default_rng(0), 0)
        # 3.9 once drew 3 observations; a numpy integer is a count
        with pytest.raises(TypeError, match="^n must be an integer, got 3.9$"):
            sample_hierarchical(LomaxParams(1, 1), np.random.default_rng(0), 3.9)
        assert sample_hierarchical(LomaxParams(1, 1), np.random.default_rng(0), np.int32(3)).n == 3

    def test_matches_inverse_cdf_sampler_by_ks(self):
        p = LomaxParams(beta=2.0, alpha=1.5)
        n = 100_000
        a = sample(p, np.random.default_rng(21), n)
        b = sample_hierarchical(p, np.random.default_rng(22), n)
        stat = ks_2samp(a.x, b.x).statistic
        critical_1pct = 1.6276 * math.sqrt(2.0 / n)
        assert stat < critical_1pct
