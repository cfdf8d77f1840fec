"""Gibbs conditionals, the MH shape update and full-chain behavior."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from lomaxbayes import (
    Dataset,
    DegenerateDataError,
    ImproperPosteriorError,
    LomaxParams,
    McmcConfig,
    PriorKind,
    run_chains,
    sample,
)
from lomaxbayes import sampler
from lomaxbayes.priors import log_prior_alpha
from lomaxbayes.sampler import (
    _alpha_terms,
    _log_conditional,
    _log_phi,
    _mh_step_alpha,
    run_chain,
    sample_beta,
    sample_lambda,
)

N_DRAWS = 100_000


def _assert_moments_within_3se(draws, mean, var, excess_kurtosis):
    """Check empirical mean and variance against analytic 3-SE bands."""
    n = draws.size
    se_mean = math.sqrt(var / n)
    assert abs(draws.mean() - mean) < 3 * se_mean
    se_var = var * math.sqrt(2.0 / (n - 1) + excess_kurtosis / n)
    assert abs(draws.var(ddof=1) - var) < 3 * se_var


def _batch_means_se(chain, n_batches=400):
    usable = chain[: n_batches * (chain.size // n_batches)]
    batch_means = usable.reshape(n_batches, -1).mean(axis=1)
    return batch_means.std(ddof=1) / math.sqrt(n_batches)


class TestMcmcConfig:
    def test_retained_arithmetic(self):
        assert McmcConfig(iterations=11000, burn_in=1000, thin=10).retained == 1000
        assert McmcConfig(iterations=80000, burn_in=20000, thin=20).retained == 3000
        # floor division when the post-burn-in stretch is not a multiple
        assert McmcConfig(iterations=1101, burn_in=100, thin=10).retained == 100

    @pytest.mark.parametrize("kwargs", [
        dict(iterations=100, burn_in=100, thin=1),
        dict(iterations=100, burn_in=-1, thin=1),
        dict(iterations=100, burn_in=0, thin=0),
        dict(iterations=100, burn_in=0, thin=1, chains=0),
        dict(iterations=100, burn_in=0, thin=1, tuning=0.0),
        # McmcConfig is the only guard on the shape step's tuning: unchecked,
        # NaN would redraw forever, 0 divide by zero and -1 flip the walk
        dict(iterations=100, burn_in=0, thin=1, tuning=-1.0),
        dict(iterations=100, burn_in=0, thin=1, tuning=math.nan),
        dict(iterations=100, burn_in=0, thin=1, tuning=math.inf),
        dict(iterations=100, burn_in=99, thin=2),  # zero retained draws
        dict(iterations=100, burn_in=99, thin=1),  # one retained draw
        dict(iterations=100, burn_in=0, thin=1, seed=-1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            McmcConfig(**kwargs)

    # each would pass the range checks and fail later inside run_chains
    @pytest.mark.parametrize("kwargs", [
        dict(iterations=3000.0, burn_in=1000),
        dict(burn_in=1000.0),
        dict(thin=2.5),
        dict(chains=2.0),
        dict(seed=1.5),
    ])
    def test_non_integer_count_names_the_field(self, kwargs):
        (name, value), = [(k, v) for k, v in kwargs.items() if isinstance(v, float)]
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value}$"):
            McmcConfig(**kwargs)

    def test_numpy_integers_are_counts(self):
        cfg = McmcConfig(
            iterations=np.int64(300), burn_in=np.int32(100), thin=np.int64(2), seed=np.uint64(3)
        )
        assert cfg.retained == 100


class TestSampleLambda:
    # (alpha, beta, x) -> latent conditional Gamma(alpha+1, 1 + x/beta)
    @pytest.mark.parametrize("alpha,beta,x", [
        (1.0, 1.0, 1.0),
        (1.5, 2.0, 3.0),
        (2.5, 0.5, 0.2),
    ])
    def test_moments_within_3se(self, alpha, beta, x):
        shape = alpha + 1.0
        rate = 1.0 + x / beta
        d = Dataset(np.full(N_DRAWS, x))
        draws = sample_lambda(
            alpha, beta, d, np.random.default_rng(101), np.empty(N_DRAWS), np.empty(N_DRAWS)
        )
        assert draws.shape == (N_DRAWS,)
        _assert_moments_within_3se(
            draws, mean=shape / rate, var=shape / rate**2, excess_kurtosis=6.0 / shape
        )

    def test_buffers_are_filled_and_returned(self):
        d = _data(40)
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        out, work = np.empty(40), np.empty(40)
        got = sample_lambda(1.3, 0.8, d, rng, out, work)
        assert got is out
        np.testing.assert_array_equal(work, 1.0 / (1.0 + d.x / 0.8))
        # the docstring's claim: rng.gamma's bits, and the same stream position
        want = ref.gamma(1.3 + 1.0, 1.0 / (1.0 + d.x / 0.8))
        assert out.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    # a shape just above 1, scales far below and above the data, and zeros
    # in x, where the scale is exactly 1
    @pytest.mark.parametrize("alpha,beta", [(1e-3, 1e-3), (0.5, 1.0), (40.0, 1e4)])
    def test_draw_equals_rng_gamma_bitwise(self, alpha, beta):
        d = Dataset(np.array([0.0, 1e-6, 0.3, 2.0, 0.0, 75.0, 1e5]))
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        out = sample_lambda(alpha, beta, d, rng, np.empty(d.n), np.empty(d.n))
        want = ref.gamma(alpha + 1.0, 1.0 / (1.0 + d.x / beta))
        assert out.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_trivial_conditional_moments(self):
        # alpha=1, beta=1, x=1: Gamma(2, 2) has mean 1 and variance 0.5
        shape, rate = 2.0, 2.0
        assert shape / rate == 1.0
        assert shape / rate**2 == 0.5


class TestSampleBeta:
    @staticmethod
    def _draws(n, total, n_draws, seed):
        # lam @ x = total with x = 1 and lam = total/n
        d = Dataset(np.ones(n))
        lam = np.full(n, total / n)
        gammas = np.random.default_rng(seed).standard_gamma(n, n_draws)
        return np.array([sample_beta(lam, d, g) for g in gammas])

    @pytest.mark.parametrize("n,total", [(5, 8.0), (8, 4.0), (12, 18.0)])
    def test_moments_within_3se(self, n, total):
        draws = self._draws(n, total, N_DRAWS, seed=202)
        mean = total / (n - 1)
        var = total**2 / ((n - 1) ** 2 * (n - 2))
        kurt = (30 * n - 66.0) / ((n - 3) * (n - 4))
        _assert_moments_within_3se(draws, mean=mean, var=var, excess_kurtosis=kurt)

    def test_small_shape_mean(self):
        # InverseGamma(3, 4): mean 4/(3-1) = 2
        draws = self._draws(3, 4.0, N_DRAWS, seed=203)
        var = 16.0 / (4.0 * 1.0)
        assert abs(draws.mean() - 2.0) < 3 * math.sqrt(var / N_DRAWS)

    def test_degenerate_data(self):
        d = Dataset(np.zeros(4))
        with pytest.raises(DegenerateDataError):
            sample_beta(np.ones(4), d, 4.0)


def _shape_log_density(kind, a, lam):
    # the density's terms do not involve the tuning, so any value will do
    return _log_conditional(_alpha_terms(kind, a, len(lam), 1.0), a, float(np.log(lam).sum()))


class TestAlphaConditional:
    def test_reference_values(self):
        assert _shape_log_density(PriorKind.REFERENCE, 1.0, [1.0, 1.0]) == 0.0
        assert _shape_log_density(PriorKind.REFERENCE, 2.0, [1.0, 1.0]) == pytest.approx(
            -math.log(2.0), rel=1e-14
        )

    def test_dependent_value(self):
        expected = -math.log(2.0) - 0.5 * math.log(3.0)
        got = _shape_log_density(PriorKind.JEFFREYS_DEPENDENT, 1.0, [1.0, 1.0])
        assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("kind", list(PriorKind))
    @pytest.mark.parametrize("a1,a2", [(0.4, 2.5), (1.0, 9.0)])
    def test_differences_match_gamma_latents_times_prior(self, kind, a1, a2):
        # lambda_i | alpha ~ Gamma(alpha, 1), so the conditional is, up to a
        # constant in alpha, the latents' gamma likelihood times the prior
        lam = np.array([0.3, 1.7, 4.0, 0.05])

        def oracle(a):
            return gamma_dist.logpdf(lam, a).sum() + log_prior_alpha(kind, a)

        got = _shape_log_density(kind, a2, lam) - _shape_log_density(kind, a1, lam)
        assert got == pytest.approx(oracle(a2) - oracle(a1), rel=1e-12)


class TestMhStepAlpha:
    # a positive first proposal draws nothing from rng, so these steps get None

    def test_proposal_equal_to_current_always_accepted(self):
        kind, sum_log = PriorKind.REFERENCE, math.log(0.5) + math.log(2.0)
        new, _, accepted = _mh_step_alpha(
            1.7, _alpha_terms(kind, 1.7, 2, 1.0), kind, 2, sum_log, 1.0,
            0.0, math.log1p(-0.999), None,
        )
        assert accepted and new == 1.7

    @pytest.mark.parametrize("kind", list(PriorKind))
    @pytest.mark.parametrize("step,uniform,accept", [
        (0.3, 1.0 - 1e-6, True),  # log u = -13.8 is below any ratio near 1.7
        (30.0, 0.0, False),  # log u = 0 and alpha = 31.7 is far less likely
    ])
    def test_returns_the_terms_of_the_alpha_it_returns(self, kind, step, uniform, accept):
        n, sum_log, tuning = 2, math.log(0.5) + math.log(2.0), 1.0
        terms = _alpha_terms(kind, 1.7, n, tuning)
        new, new_terms, accepted = _mh_step_alpha(
            1.7, terms, kind, n, sum_log, tuning, step, math.log1p(-uniform), None
        )
        assert accepted is accept
        assert new == (1.7 + step if accept else 1.7)
        assert new_terms == _alpha_terms(kind, new, n, tuning)

    def test_nonpositive_first_proposal_redraws_from_rng(self):
        kind, n, sum_log, tuning = PriorKind.REFERENCE, 2, math.log(0.5) + math.log(2.0), 1.0
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        new, _, accepted = _mh_step_alpha(
            0.5, _alpha_terms(kind, 0.5, n, tuning), kind, n, sum_log, tuning, -10.0, -math.inf, rng
        )
        # the first increment is given; later ones come from rng until positive
        while (want := 0.5 + tuning * ref.standard_normal()) <= 0.0:
            pass
        assert accepted and new == want
        assert rng.bit_generator.state == ref.bit_generator.state

    @staticmethod
    def _truncation_log_correction(current, proposal, tuning):
        # the Hastings term of a step from current to proposal
        return (_alpha_terms(PriorKind.REFERENCE, current, 3, tuning)[2]
                - _alpha_terms(PriorKind.REFERENCE, proposal, 3, tuning)[2])

    def test_truncation_correction_matches_normal_logcdf(self):
        got = self._truncation_log_correction(0.4, 1.1, 0.7)
        want = norm.logcdf(0.4 / 0.7) - norm.logcdf(1.1 / 0.7)
        assert got == pytest.approx(want, rel=1e-12)

    def test_truncation_correction_vanishes_far_from_zero(self):
        # both current and proposal many tuning sds above 0: Phi -> 1
        assert self._truncation_log_correction(40.0, 41.0, 1.0) == 0.0

    def test_stationary_mean_matches_quadrature(self):
        # fixed latents: the chain must hold the conditional's mean
        lam = np.array([0.5, 2.0])
        sum_log = float(np.log(lam).sum())

        def dens(a):
            return math.exp(-math.log(a) - 2.0 * math.lgamma(a) + (a - 1.0) * sum_log)

        z, _ = quad(dens, 0.0, 50.0, limit=200)
        m1, _ = quad(lambda a: a * dens(a), 0.0, 50.0, limit=200)
        target_mean = m1 / z

        rng = np.random.default_rng(123)
        steps = 200_000
        normals = rng.standard_normal(steps).tolist()
        log_us = np.log1p(-rng.random(steps)).tolist()
        out = np.empty(steps)
        alpha = 1.0
        terms = _alpha_terms(PriorKind.REFERENCE, alpha, 2, 1.0)
        for i in range(steps):
            alpha, terms, _ = _mh_step_alpha(
                alpha, terms, PriorKind.REFERENCE, 2, sum_log, 1.0, normals[i], log_us[i], rng
            )
            out[i] = alpha
        se = _batch_means_se(out)
        assert abs(out.mean() - target_mean) < 3 * se


class TestLogPhi:
    """The stdlib log Phi against scipy's log_ndtr, a test-only dependency."""

    GRID = np.geomspace(1e-8, 1e3, 2001)

    def test_relative_error_up_to_6(self):
        z = self.GRID[self.GRID <= 6.0]
        got = np.array([_log_phi(float(v)) for v in z])
        np.testing.assert_allclose(got, log_ndtr(z), rtol=1e-14, atol=0.0)

    def test_absolute_error_beyond_6(self):
        # log Phi(z) ~ -Phi(-z) here, far below 1: an absolute bound
        z = self.GRID[self.GRID > 6.0]
        got = np.array([_log_phi(float(v)) for v in z])
        np.testing.assert_allclose(got, log_ndtr(z), rtol=0.0, atol=1e-22)

    def test_endpoints(self):
        assert _log_phi(5e-324) == math.log(0.5)
        assert _log_phi(math.inf) == 0.0


def _data(n, seed=0, params=LomaxParams(2.0, 1.5)):
    return sample(params, np.random.default_rng(seed), n)


class TestRunChain:
    def test_retained_draw_counts(self):
        d = _data(5)
        c = run_chain(d, PriorKind.REFERENCE, McmcConfig(iterations=1101, burn_in=100, thin=10, seed=1))
        assert c.alpha.size == c.beta.size == 100
        c = run_chain(d, PriorKind.REFERENCE, McmcConfig(iterations=1100, burn_in=100, thin=10, seed=1))
        assert c.alpha.size == 100

    def test_deterministic_given_seed_and_index(self):
        d = _data(10)
        cfg = McmcConfig(iterations=500, burn_in=100, thin=2, seed=42)
        c1 = run_chain(d, PriorKind.REFERENCE, cfg, chain_index=0)
        c2 = run_chain(d, PriorKind.REFERENCE, cfg, chain_index=0)
        np.testing.assert_array_equal(c1.alpha, c2.alpha)
        np.testing.assert_array_equal(c1.beta, c2.beta)
        np.testing.assert_array_equal(c1.lambda_means, c2.lambda_means)
        assert c1.accepted == c2.accepted

    @pytest.mark.parametrize("iterations", [1000, 1024, 1025])
    def test_chain_is_a_prefix_of_a_longer_chain(self, monkeypatch, iterations):
        # the longer chain crosses the end of the first block of variates
        flags, orig = [], sampler._mh_step_alpha

        def spy(*args):
            out = orig(*args)
            flags.append(out[2])
            return out

        d = _data(10)
        cfg = McmcConfig(iterations=3000, burn_in=0, thin=1, chains=1, seed=8)
        short = run_chain(d, PriorKind.REFERENCE, replace(cfg, iterations=iterations))
        monkeypatch.setattr(sampler, "_mh_step_alpha", spy)
        long = run_chain(d, PriorKind.REFERENCE, cfg)
        assert short.alpha.tobytes() == long.alpha[:iterations].tobytes()
        assert short.beta.tobytes() == long.beta[:iterations].tobytes()
        assert short.accepted == sum(flags[:iterations])

    def test_chain_index_changes_stream(self):
        d = _data(10)
        cfg = McmcConfig(iterations=500, burn_in=100, thin=2, seed=42)
        c0 = run_chain(d, PriorKind.REFERENCE, cfg, chain_index=0)
        c1 = run_chain(d, PriorKind.REFERENCE, cfg, chain_index=1)
        assert not np.array_equal(c0.alpha, c1.alpha)

    def test_state_positivity_and_counts(self):
        d = _data(20)
        cfg = McmcConfig(iterations=800, burn_in=200, thin=3, seed=5)
        c = run_chain(d, PriorKind.JEFFREYS_DEPENDENT, cfg)
        assert np.all(c.alpha > 0) and np.all(c.beta > 0)
        assert c.proposed == 800 and 0 <= c.accepted <= 800
        assert c.lambda_means.shape == (20,)
        assert np.all(c.lambda_means > 0)

    def test_propriety_guard(self):
        d = Dataset([1.0])
        cfg = McmcConfig(iterations=100, burn_in=10, thin=1, seed=0)
        with pytest.raises(ImproperPosteriorError):
            run_chain(d, PriorKind.REFERENCE, cfg)
        with pytest.raises(ImproperPosteriorError):
            run_chain(d, PriorKind.JEFFREYS_INDEPENDENT, cfg)
        c = run_chain(d, PriorKind.JEFFREYS_DEPENDENT, cfg)
        assert c.alpha.size == 90

    def test_all_zero_data_rejected(self):
        d = Dataset(np.zeros(5))
        cfg = McmcConfig(iterations=100, burn_in=10, thin=1, seed=0)
        with pytest.raises(DegenerateDataError):
            run_chain(d, PriorKind.REFERENCE, cfg)


class TestRunChains:
    def test_pooled_counts_and_distinct_streams(self):
        d = _data(10)
        cfg = McmcConfig(iterations=400, burn_in=100, thin=3, chains=2, seed=9)
        cs = run_chains(d, PriorKind.REFERENCE, cfg)
        assert len(cs) == 2
        assert cs.pooled("alpha").size == 2 * cfg.retained
        assert not np.array_equal(cs[0].alpha, cs[1].alpha)

    @pytest.mark.parametrize("in_worker", [False, True])
    @pytest.mark.parametrize("iterations", [sampler._FORK_MIN_ITERATIONS - 1, sampler._FORK_MIN_ITERATIONS])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("chains", [1, 2, 3])
    def test_forks_only_when_every_condition_holds(
        self, monkeypatch, process_pools, chains, cpus, iterations, in_worker
    ):
        # the spy is a local closure, which pickle cannot send: the pool
        # must be handed a module-level task, not run_chain
        seen, orig = [], sampler.run_chain

        def spy(d, kind, cfg, chain_index=0):
            seen.append(chain_index)
            return orig(d, kind, cfg, chain_index)

        monkeypatch.setattr(sampler, "run_chain", spy)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        if in_worker:
            monkeypatch.setattr(sampler.multiprocessing, "parent_process", lambda: object())
        d = _data(12)
        cfg = McmcConfig(iterations=iterations, burn_in=100, thin=50, chains=chains, seed=9)
        cs = run_chains(d, PriorKind.REFERENCE, cfg)
        w = min(chains, cpus)
        forks = w > 1 and iterations >= sampler._FORK_MIN_ITERATIONS and not in_worker
        assert process_pools == ([w - 1] if forks else [])
        # with 3 chains on 2 CPUs the caller runs chains 0 and 2
        assert seen == [i for i in range(chains) if not forks or i % w == 0]
        _assert_chains_equal_run_chain(cs, d, PriorKind.REFERENCE, cfg)

    def test_serial_while_another_thread_runs(self, monkeypatch, process_pools):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            d = _data(12)
            cfg = McmcConfig(iterations=sampler._FORK_MIN_ITERATIONS, burn_in=100, thin=50, seed=9)
            cs = run_chains(d, PriorKind.REFERENCE, cfg)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert process_pools == []
        _assert_chains_equal_run_chain(cs, d, PriorKind.REFERENCE, cfg)


def _assert_chains_equal_run_chain(cs, d, kind, cfg):
    assert len(cs) == cfg.chains
    for i, c in enumerate(cs):
        ref = run_chain(d, kind, cfg, i)
        assert (c.chain_index, c.accepted) == (i, ref.accepted)
        for field in ("alpha", "beta", "lambda_means"):
            assert getattr(c, field).tobytes() == getattr(ref, field).tobytes()


def _allocating_chain(d, kind, cfg, chain_index=0):
    """The Gibbs loop in its allocating form: fresh arrays every iteration,
    and every term of the shape's log ratio computed afresh at every step.

    At iterations 0, 1024, 2048, ... it draws 1024 Gamma(n) variates, then
    1024 normals, then 1024 uniforms, all from the chain's generator; each
    iteration takes its scale divisor, first proposal increment and
    acceptance uniform from them and draws its latents and any redrawn
    proposal increments from the generator as it goes."""
    block = 1024

    def log_conditional(a, sum_log_lam):
        return -d.n * math.lgamma(a) + (a - 1.0) * sum_log_lam + log_prior_alpha(kind, a)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(cfg.chains)[chain_index])
    alpha = float(rng.gamma(1.0))
    beta = float(rng.gamma(1.0))
    tuning = cfg.tuning
    alphas, betas, lam_sum = [], [], np.zeros(d.n)
    accepted = 0
    for it in range(cfg.iterations):
        j = it % block
        if j == 0:
            gammas = rng.gamma(d.n, 1.0, block)
            increments = rng.normal(0.0, 1.0, block)
            log_us = np.log1p(-rng.random(block))
        lam = rng.gamma(alpha + 1.0, 1.0 / (1.0 + d.x / beta))
        beta = float(lam @ d.x) / float(gammas[j])
        sum_log_lam = float(np.log(lam).sum())
        proposal = alpha + tuning * float(increments[j])
        while proposal <= 0.0:
            proposal = alpha + rng.normal(0.0, tuning)
        log_ratio = (
            log_conditional(proposal, sum_log_lam)
            - log_conditional(alpha, sum_log_lam)
            + float(log_ndtr(alpha / tuning) - log_ndtr(proposal / tuning))
        )
        acc = float(log_us[j]) <= log_ratio
        if acc:
            alpha = proposal
        accepted += acc
        if it >= cfg.burn_in and (it - cfg.burn_in + 1) % cfg.thin == 0:
            alphas.append(alpha)
            betas.append(beta)
            lam_sum += lam
    return np.array(alphas), np.array(betas), lam_sum / len(alphas), accepted


# the 1/(alpha beta) density needs n >= 2, so n = 1 runs only under dependent Jeffreys
_IDENTITY_CASES = [
    (kind, n)
    for kind in (PriorKind.REFERENCE, PriorKind.JEFFREYS_DEPENDENT)
    for n in (1, 50, 500)
    if n >= 2 or kind is PriorKind.JEFFREYS_DEPENDENT
]


class TestBufferedKernelIdentity:
    """run_chain's in-place kernel gives the allocating loop's bits exactly."""

    @pytest.mark.parametrize("tuning", [1.0, 0.3])
    @pytest.mark.parametrize("thin", [5, 1])
    @pytest.mark.parametrize("chain_index", [1, 0])
    @pytest.mark.parametrize("kind,n", _IDENTITY_CASES)
    def test_matches_allocating_loop_bitwise(self, kind, n, chain_index, thin, tuning):
        d = _data(n, seed=n)
        cfg = McmcConfig(iterations=600, burn_in=100, thin=thin, seed=2718, tuning=tuning)
        c = run_chain(d, kind, cfg, chain_index=chain_index)
        alpha, beta, lam_means, accepted = _allocating_chain(d, kind, cfg, chain_index)
        assert 0 < accepted < cfg.iterations
        assert c.accepted == accepted
        assert c.alpha.tobytes() == alpha.tobytes()
        assert c.beta.tobytes() == beta.tobytes()
        assert c.lambda_means.tobytes() == lam_means.tobytes()

    def test_matches_allocating_loop_across_blocks(self):
        d = _data(50, seed=50)
        cfg = McmcConfig(iterations=2100, burn_in=100, thin=5, seed=2718)
        c = run_chain(d, PriorKind.JEFFREYS_DEPENDENT, cfg)
        alpha, beta, lam_means, accepted = _allocating_chain(d, PriorKind.JEFFREYS_DEPENDENT, cfg)
        assert c.accepted == accepted
        assert c.alpha.tobytes() == alpha.tobytes()
        assert c.beta.tobytes() == beta.tobytes()
        assert c.lambda_means.tobytes() == lam_means.tobytes()

    def test_retained_draws_do_not_alias_the_buffer(self, monkeypatch):
        buffers = []
        orig = sampler.sample_lambda

        def spy(alpha, beta, d, rng, out, work):
            buffers.append((out, work))
            return orig(alpha, beta, d, rng, out, work)

        monkeypatch.setattr(sampler, "sample_lambda", spy)
        d = _data(8)
        cfg = McmcConfig(iterations=60, burn_in=10, thin=5, seed=4)
        c = run_chain(d, PriorKind.REFERENCE, cfg)
        # one pair of buffers for the whole chain
        assert len(buffers) == 60
        assert all(b[0] is buffers[0][0] and b[1] is buffers[0][1] for b in buffers)
        for buf in buffers[0]:
            assert not np.shares_memory(c.lambda_means, buf)


class TestMixingBehavior:
    def test_reference_acceptance_bracket_small_proposal(self):
        # The shape conditional tightens like sqrt(alpha/n), so a unit
        # proposal overshoots at moderate n; a 0.1-scale walk stays in
        # the high-acceptance zone (0.5, 1).
        d = _data(50, seed=31)
        cfg = McmcConfig(iterations=6000, burn_in=500, thin=10, chains=1, seed=7, tuning=0.1)
        c = run_chain(d, PriorKind.REFERENCE, cfg)
        assert 0.5 < c.accepted / c.proposed < 1.0

    def test_posterior_recovery_at_n500(self):
        d = _data(500, seed=2024)
        cfg = McmcConfig(iterations=11000, burn_in=1000, thin=10, chains=2, seed=12)
        cs = run_chains(d, PriorKind.REFERENCE, cfg)
        for param, truth in (("beta", 2.0), ("alpha", 1.5)):
            pooled = cs.pooled(param)
            assert abs(pooled.mean() - truth) < 3 * pooled.std(ddof=1)
