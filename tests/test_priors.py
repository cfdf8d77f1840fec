"""Fisher information algebra, the two log priors and the log posterior."""

import math

import numpy as np
import pytest

from lomaxbayes import (
    Dataset,
    ImproperPosteriorError,
    LomaxParams,
    McmcConfig,
    PriorKind,
    StudyConfig,
    check_propriety,
    fisher_information,
    fisher_inverse,
    log_pdf,
    log_posterior,
    log_prior,
    run_chains,
    sample,
)
from lomaxbayes.sampler import run_chain

GRID = [LomaxParams(beta=b, alpha=a) for b in (0.2, 1.0, 5.0) for a in (0.2, 1.0, 5.0)]


class TestPriorKind:
    def test_two_kinds_with_cli_labels(self):
        assert {k.value for k in PriorKind} == {"jeffreys", "reference"}

    @pytest.mark.parametrize("call", [
        lambda kind: run_chains(Dataset([1.0, 2.0]), kind, McmcConfig(iterations=4, burn_in=0, thin=1)),
        lambda kind: run_chain(Dataset([1.0, 2.0]), kind, McmcConfig(iterations=4, burn_in=0, thin=1)),
        lambda kind: log_prior(kind, LomaxParams(1, 1)),
        lambda kind: log_posterior(kind, LomaxParams(1, 1), Dataset([1.0, 2.0])),
        lambda kind: StudyConfig(LomaxParams(2.0, 1.5), priors=(kind,)),
    ], ids=["run_chains", "run_chain", "log_prior", "log_posterior", "StudyConfig"])
    def test_label_is_not_taken_for_a_prior(self, call):
        # the fall-through of log_prior_alpha once ran 1/(alpha beta) for "jeffreys"
        with pytest.raises(TypeError, match="prior must be a PriorKind, got 'jeffreys'"):
            call("jeffreys")


def _assert_symmetric_2x2(m):
    assert isinstance(m, np.ndarray)
    assert m.dtype == np.float64 and m.shape == (2, 2)
    assert m[0, 1] == m[1, 0]


class TestFisherInformation:
    def test_unit_case(self):
        m = fisher_information(LomaxParams(1, 1))
        _assert_symmetric_2x2(m)
        assert m.tolist() == [[1 / 3, -1 / 2], [-1 / 2, 1.0]]

    def test_two_two_case(self):
        m = fisher_information(LomaxParams(2, 2))
        _assert_symmetric_2x2(m)
        np.testing.assert_allclose(m, [[1 / 8, -1 / 6], [-1 / 6, 1 / 4]], rtol=1e-15)

    def test_scales_linearly_in_n(self):
        p = LomaxParams(2.0, 1.5)
        m = fisher_information(p, 10)
        _assert_symmetric_2x2(m)
        np.testing.assert_allclose(m, 10.0 * fisher_information(p, 1), rtol=1e-15)

    @pytest.mark.parametrize("p", GRID)
    def test_symmetric_positive_definite(self, p):
        m = fisher_information(p)
        _assert_symmetric_2x2(m)
        assert m[0, 0] > 0 and np.linalg.det(m) > 0
        assert np.all(np.linalg.eigvalsh(m) > 0)

    @pytest.mark.parametrize("f", [fisher_information, fisher_inverse])
    def test_rejects_nonpositive_n(self, f):
        with pytest.raises(ValueError, match="n must be >= 1"):
            f(LomaxParams(1, 1), 0)
        # not the information of 2.5 observations; a numpy integer is a count
        with pytest.raises(TypeError, match="^n must be an integer, got 2.5$"):
            f(LomaxParams(1, 1), 2.5)
        np.testing.assert_array_equal(f(LomaxParams(1, 1), np.int64(3)), f(LomaxParams(1, 1), 3))


class TestFisherInverse:
    def test_unit_case_exact(self):
        m = fisher_inverse(LomaxParams(1, 1))
        _assert_symmetric_2x2(m)
        assert m.tolist() == [[12.0, 6.0], [6.0, 4.0]]

    def test_two_two_case_matches_numerical_inverse(self):
        # closed form gives [[72, 48], [48, 36]]; cross-check against
        # direct numerical inversion of the information matrix
        p = LomaxParams(2, 2)
        closed = fisher_inverse(p)
        _assert_symmetric_2x2(closed)
        np.testing.assert_allclose(closed, [[72.0, 48.0], [48.0, 36.0]], rtol=1e-14)
        np.testing.assert_allclose(closed, np.linalg.inv(fisher_information(p)), rtol=1e-12)

    def test_identity_product_with_sample_size(self):
        p = LomaxParams(5.0, 0.7)
        prod = fisher_information(p, 3) @ fisher_inverse(p, 3)
        np.testing.assert_allclose(prod, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("p", GRID)
    def test_identity_product_on_grid(self, p):
        m = fisher_inverse(p)
        _assert_symmetric_2x2(m)
        np.testing.assert_allclose(fisher_information(p) @ m, np.eye(2), atol=1e-12)


class TestLogPrior:
    def test_reference_values(self):
        assert log_prior(PriorKind.REFERENCE, LomaxParams(1, 1)) == 0.0
        assert log_prior(PriorKind.REFERENCE, LomaxParams(2, 4)) == pytest.approx(
            -math.log(8.0), rel=1e-14
        )

    def test_dependent_jeffreys_value(self):
        expected = -math.log(2.0) - 0.5 * math.log(3.0)
        assert log_prior(PriorKind.JEFFREYS_DEPENDENT, LomaxParams(1, 1)) == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("p", GRID)
    def test_sqrt_fisher_det_proportional_to_dependent_jeffreys(self, p):
        # log sqrt(det I) - log prior must be constant over the grid
        gap = 0.5 * math.log(np.linalg.det(fisher_information(p))) - log_prior(
            PriorKind.JEFFREYS_DEPENDENT, p
        )
        ref = 0.5 * math.log(np.linalg.det(fisher_information(GRID[0]))) - log_prior(
            PriorKind.JEFFREYS_DEPENDENT, GRID[0]
        )
        assert gap == pytest.approx(ref, abs=1e-12)


class TestLogPosterior:
    def test_reference_value(self):
        d = Dataset([1.0, 1.0])
        got = log_posterior(PriorKind.REFERENCE, LomaxParams(1, 1), d)
        assert got == pytest.approx(-4.0 * math.log(2.0), rel=1e-14)

    def test_improper_for_single_observation(self):
        d = Dataset([1.0])
        with pytest.raises(ImproperPosteriorError, match="improper posterior"):
            log_posterior(PriorKind.REFERENCE, LomaxParams(1, 1), d)

    def test_dependent_jeffreys_allows_single_observation(self):
        got = log_posterior(PriorKind.JEFFREYS_DEPENDENT, LomaxParams(1, 1), Dataset([1.0]))
        assert math.isfinite(got)

    @pytest.mark.parametrize("kind, need", [
        (PriorKind.JEFFREYS_DEPENDENT, 1),  # n + nu > 0 with nu = -1/2
        (PriorKind.REFERENCE, 2),  # nu = -1
    ], ids=lambda v: v.value if isinstance(v, PriorKind) else str(v))
    def test_check_propriety_minimum_n(self, kind, need):
        check_propriety(kind, need)
        msg = f"improper posterior: prior '{kind.value}' requires n >= {need}, got n={need - 1}"
        with pytest.raises(ImproperPosteriorError) as info:
            check_propriety(kind, need - 1)
        assert str(info.value) == msg
        # a zero observation makes the posterior of log beta grow as beta -> 0, at any n
        for zeros, text in ((1, "1 observation is 0"), (3, "3 observations are 0")):
            msg = f"improper posterior: {text}, and the likelihood is unbounded as beta -> 0"
            with pytest.raises(ImproperPosteriorError) as info:
                check_propriety(kind, 50, zeros)
            assert str(info.value) == msg
            d = Dataset([0.0] * zeros + [1.0] * (50 - zeros))
            with pytest.raises(ImproperPosteriorError, match=text):
                log_posterior(kind, LomaxParams(1, 1), d)
        # counts, not fractions or flags: 2.5 once passed, and zeros=0.5 or
        # True was reported as "0.5 observations are 0" / "True observation is 0"
        for n, zeros, name in ((2.5, 0, "n"), (True, 0, "n"), (50, 0.5, "zeros"), (50, True, "zeros")):
            bad = n if name == "n" else zeros
            with pytest.raises(TypeError, match=f"^{name} must be an integer, got {bad}$"):
                check_propriety(kind, n, zeros)
        with pytest.raises(ValueError, match="^zeros must be >= 0, got -1$"):
            check_propriety(kind, 50, -1)
        check_propriety(kind, np.int64(50), np.int64(0))

    @pytest.mark.parametrize("kind", list(PriorKind))
    def test_equals_loglik_plus_logprior_up_to_constant(self, kind):
        d = Dataset([0.4, 1.3, 2.7, 0.9])
        gaps = []
        for b in np.linspace(0.5, 4.0, 5):
            for a in np.linspace(0.3, 3.0, 5):
                p = LomaxParams(b, a)
                gaps.append(
                    log_posterior(kind, p, d)
                    - float(np.sum(log_pdf(p, d.x)))
                    - log_prior(kind, p)
                )
        np.testing.assert_allclose(gaps, gaps[0], atol=1e-10)

    def test_reference_argmax_is_scale_equivariant(self):
        d = sample(LomaxParams(2.0, 1.5), np.random.default_rng(17), 20)
        betas = np.linspace(0.5, 6.0, 40)
        alphas = np.linspace(0.3, 4.0, 40)

        def argmax_indices(data, beta_grid):
            surface = np.array([
                [log_posterior(PriorKind.REFERENCE, LomaxParams(b, a), data) for a in alphas]
                for b in beta_grid
            ])
            return np.unravel_index(np.argmax(surface), surface.shape)

        c = 7.5
        scaled = Dataset(c * d.x)
        assert argmax_indices(d, betas) == argmax_indices(scaled, c * betas)
