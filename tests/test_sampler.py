"""Gibbs conditionals, the MH shape update and full-chain behavior."""

import contextlib
import math
import os
import signal
import sys
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

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
from lomaxbayes.priors import log_posterior, log_prior_alpha
from lomaxbayes.sampler import (
    _alpha_term,
    _mh_step_alpha,
    run_chain,
    sample_beta,
    sample_lambda,
)
from mh_oracle import ACCEPT_BRACKET, stationary_mean, target_mean
import posterior_oracle

N_DRAWS = 100_000


def _assert_moments_within_3se(draws, mean, var, excess_kurtosis):
    """Check empirical mean and variance against analytic 3-SE bands."""
    n = draws.size
    se_mean = math.sqrt(var / n)
    assert abs(draws.mean() - mean) < 3 * se_mean
    se_var = var * math.sqrt(2.0 / (n - 1) + excess_kurtosis / n)
    assert abs(draws.var(ddof=1) - var) < 3 * se_var


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
        dict(iterations=100, burn_in=99, thin=2),  # zero retained draws
        dict(iterations=100, burn_in=99, thin=1),  # one retained draw
        dict(iterations=100, burn_in=0, thin=1, seed=-1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            McmcConfig(**kwargs)

    def test_has_no_proposal_scale_field(self):
        # run_chain derives the shape step's scale from n
        assert [f.name for f in fields(McmcConfig)] == ["iterations", "burn_in", "thin", "chains", "seed"]
        with pytest.raises(TypeError):
            McmcConfig(iterations=100, burn_in=0, thin=1, tuning=1.0)

    # each would pass the range checks and fail later inside run_chains
    @pytest.mark.parametrize("kwargs", [
        dict(iterations=3000.0, burn_in=1000),
        dict(burn_in=1000.0),
        dict(thin=2.5),
        dict(chains=2.0),
        dict(seed=1.5),
        dict(chains=True),  # a bool is not a count
    ])
    def test_non_integer_count_names_the_field(self, kwargs):
        (name, value), = [(k, v) for k, v in kwargs.items() if isinstance(v, (float, bool))]
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value}$"):
            McmcConfig(**kwargs)

    def test_numpy_integers_are_counts(self):
        cfg = McmcConfig(
            iterations=np.int64(300), burn_in=np.int32(100), thin=np.int64(2), seed=np.uint64(3)
        )
        assert cfg.retained == 100


class TestSampleLambda:
    # (alpha, beta, x) -> latent over beta, u = lambda/beta ~ Gamma(alpha+1, rate beta + x)
    @pytest.mark.parametrize("alpha,beta,x", [
        (1.0, 1.0, 1.0),
        (1.5, 2.0, 3.0),
        (2.5, 0.5, 0.2),
    ])
    def test_moments_within_3se(self, alpha, beta, x):
        shape = alpha + 1.0
        rate = beta + x
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
        np.testing.assert_array_equal(work, 0.8 + d.x)
        # the docstring's claim: standard gammas over the rate, and the same stream position
        want = ref.standard_gamma(1.3 + 1.0, d.n) / (0.8 + d.x)
        assert out.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    # a shape just above 1, scales far below and above the data, and zeros
    # in x, where the rate is beta itself
    @pytest.mark.parametrize("alpha,beta", [(1e-3, 1e-3), (0.5, 1.0), (40.0, 1e4)])
    def test_draw_equals_standard_gamma_over_rate_bitwise(self, alpha, beta):
        d = Dataset(np.array([0.0, 1e-6, 0.3, 2.0, 0.0, 75.0, 1e5]))
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        out = sample_lambda(alpha, beta, d, rng, np.empty(d.n), np.empty(d.n))
        want = ref.standard_gamma(alpha + 1.0, d.n) / (beta + d.x)
        assert out.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_trivial_conditional_moments(self):
        # alpha=1, beta=1, x=1: Gamma(2, rate 2) has mean 1 and variance 0.5
        shape, rate = 2.0, 2.0
        assert shape / rate == 1.0
        assert shape / rate**2 == 0.5


class TestSampleBeta:
    BETA = 2.0

    @classmethod
    def _draws(cls, n, total, n_draws, seed):
        # beta * (u @ x) = total with x = 1 and u = total/(n beta)
        d = Dataset(np.ones(n))
        u = np.full(n, total / (n * cls.BETA))
        gammas = np.random.default_rng(seed).standard_gamma(n, n_draws)
        return np.array([sample_beta(u, d, g, cls.BETA) for g in gammas])

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
        with pytest.raises(DegenerateDataError, match=r"^beta \* sum\(u_i x_i\) / g underflowed to 0 at beta=1.5$"):
            sample_beta(np.ones(4), d, 4.0, 1.5)

    def test_draw_is_beta_times_the_sum_over_g(self):
        d = Dataset(np.array([0.5, 2.0, 7.0]))
        u = np.array([0.3, 1.1, 0.02])
        assert sample_beta(u, d, 2.5, 3.0) == 3.0 * float(u @ d.x) / 2.5


def _shape_log_density(kind, a, lam):
    return _alpha_term(kind, a, len(lam)) + (a - 1.0) * float(np.log(lam).sum())


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
    N, SUM_LOG = 2, math.log(0.5) + math.log(2.0)
    SCALE = 1.5 / math.sqrt(N)

    def test_proposal_equal_to_current_always_accepted(self):
        kind = PriorKind.REFERENCE
        new, _, accepted = _mh_step_alpha(
            1.7, _alpha_term(kind, 1.7, self.N), kind, self.N, self.SUM_LOG, self.SCALE,
            0.0, math.log1p(-0.999),
        )
        assert accepted and new == 1.7

    @pytest.mark.parametrize("kind", list(PriorKind))
    @pytest.mark.parametrize("step,uniform,accept", [
        (0.3, 1.0 - 1e-6, True),  # log u = -13.8 is below any ratio near 1.7
        (30.0, 0.0, False),  # log u = 0 and alpha = 1.7 e^31.8 is far less likely
    ])
    def test_returns_the_term_of_the_alpha_it_returns(self, kind, step, uniform, accept):
        s = self.SCALE
        term = _alpha_term(kind, 1.7, self.N)
        new, new_term, accepted = _mh_step_alpha(
            1.7, term, kind, self.N, self.SUM_LOG, s, step, math.log1p(-uniform)
        )
        assert accepted is accept
        assert new == (1.7 * math.exp(s * step) if accept else 1.7)
        assert new_term == _alpha_term(kind, new, self.N)

    @pytest.mark.parametrize("kind", list(PriorKind))
    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_hastings_term_is_the_log_jacobian(self, kind, z):
        # log u halfway between the target ratio and the ratio plus
        # log(proposal / current): accepted up the walk, rejected down it
        lam = [0.5, 2.0]  # the latents of SUM_LOG
        proposal = 1.7 * math.exp(self.SCALE * z)
        target = _shape_log_density(kind, proposal, lam) - _shape_log_density(kind, 1.7, lam)
        log_u = target + (math.log(proposal) - math.log(1.7)) / 2
        assert log_u < 0.0  # the log of some 1 - u
        _, _, accepted = _mh_step_alpha(
            1.7, _alpha_term(kind, 1.7, self.N), kind, self.N, self.SUM_LOG, self.SCALE, z, log_u
        )
        assert accepted is (z > 0)

    def test_far_negative_increment_gives_a_positive_proposal_and_draws_nothing(self, monkeypatch):
        # 40 sds below the current log alpha: a walk on log alpha stays positive
        kind = PriorKind.REFERENCE
        new, _, accepted = _mh_step_alpha(
            0.5, _alpha_term(kind, 0.5, self.N), kind, self.N, self.SUM_LOG, self.SCALE,
            -40.0, -math.inf,
        )
        assert accepted and new == 0.5 * math.exp(-40.0 * self.SCALE) > 0.0

        # within a block of variates, the generator a chain passes to the
        # latent draw moves only by that draw
        states, orig = [], sampler.sample_lambda

        def spy(alpha, beta, d, rng, out, work):
            before = rng.bit_generator.state
            got = orig(alpha, beta, d, rng, out, work)
            states.append((before, rng.bit_generator.state))
            return got

        monkeypatch.setattr(sampler, "sample_lambda", spy)
        run_chain(_data(10), kind, McmcConfig(iterations=300, burn_in=0, thin=1, seed=3))
        assert all(prev[1] == cur[0] for prev, cur in zip(states, states[1:]))

    def test_stationary_mean_matches_quadrature(self):
        # fixed latents: independent chains of the step must hold the conditional's mean
        mean, se = stationary_mean()
        assert abs(mean - target_mean()) < 3 * se


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

    @pytest.mark.parametrize("n", [2, 50, 5000])
    def test_walk_scale_is_derived_from_n(self, monkeypatch, n):
        scales, orig = [], sampler._mh_step_alpha

        def spy(*args):
            scales.append(args[5])
            return orig(*args)

        monkeypatch.setattr(sampler, "_mh_step_alpha", spy)
        run_chain(_data(n), PriorKind.REFERENCE, McmcConfig(iterations=3, burn_in=0, thin=1, seed=1))
        assert scales == [1.5 / math.sqrt(n)] * 3

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

    def test_propriety_guard(self):
        d = Dataset([1.0])
        cfg = McmcConfig(iterations=100, burn_in=10, thin=1, seed=0)
        with pytest.raises(ImproperPosteriorError):
            run_chain(d, PriorKind.REFERENCE, cfg)
        c = run_chain(d, PriorKind.JEFFREYS_DEPENDENT, cfg)
        assert c.alpha.size == 90

    def test_all_zero_data_rejected(self):
        d = Dataset(np.zeros(5))
        cfg = McmcConfig(iterations=100, burn_in=10, thin=1, seed=0)
        with pytest.raises(ImproperPosteriorError, match="5 observations are 0"):
            run_chain(d, PriorKind.REFERENCE, cfg)

    @pytest.mark.parametrize("zeroed,what", [
        # every x_i > 0, so sum(u_i x_i) is 0 only if every latent underflowed
        (slice(None), "beta * sum(u_i x_i) / g"),
        # the rest keep the sum positive; sum(log u_i) is -inf
        (slice(3, 4), "a latent u_i"),
    ])
    def test_zeroed_latents_name_beta(self, monkeypatch, zeroed, what):
        drawn_with, orig = [], sampler.sample_lambda

        def zero_latents(alpha, beta, d, rng, out, work):
            drawn_with.append(beta)
            orig(alpha, beta, d, rng, out, work)
            out[zeroed] = 0.0
            return out

        monkeypatch.setattr(sampler, "sample_lambda", zero_latents)
        cfg = McmcConfig(iterations=100, burn_in=10, thin=1, seed=0)
        with pytest.raises(DegenerateDataError) as info:
            run_chain(_data(10), PriorKind.JEFFREYS_DEPENDENT, cfg)
        (beta,) = drawn_with  # the first iteration stops the chain, naming its beta
        assert str(info.value) == f"{what} underflowed to 0 at beta={beta!r}"


class TestRunChains:
    def test_pooled_counts_and_distinct_streams(self):
        d = _data(10)
        cfg = McmcConfig(iterations=400, burn_in=100, thin=3, chains=2, seed=9)
        cs = run_chains(d, PriorKind.REFERENCE, cfg)
        assert len(cs) == 2
        assert isinstance(cs, tuple)
        assert np.concatenate([c.alpha for c in cs]).size == 2 * cfg.retained
        assert not np.array_equal(cs[0].alpha, cs[1].alpha)

    @pytest.mark.parametrize("in_worker", [False, True])
    # the chain length does not enter: a short chain, and either side of
    # the 2,000 iterations below which chains once ran serially
    @pytest.mark.parametrize("iterations", [300, 1999, 2000])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("chains", [1, 2, 3])
    def test_forks_only_when_every_condition_holds(
        self, monkeypatch, process_pools, chains, cpus, iterations, in_worker
    ):
        # a forked worker inherits the spy and records in its own copy of
        # seen, so seen lists the chains that the caller ran
        seen, orig = [], sampler.run_chain

        def spy(d, kind, cfg, chain_index=0):
            seen.append(chain_index)
            return orig(d, kind, cfg, chain_index)

        monkeypatch.setattr(sampler, "run_chain", spy)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        if in_worker:
            monkeypatch.setattr(sampler, "_in_map", True)
        d = _data(12)
        # a short chain forks as a long one does: 2 chains of 300 iterations
        # on 2 CPUs fork one worker
        cfg = McmcConfig(iterations=iterations, burn_in=100, thin=50, chains=chains, seed=9)
        cs = run_chains(d, PriorKind.REFERENCE, cfg)
        w = min(chains, cpus)
        forks = w > 1 and not in_worker
        assert process_pools == ([w] if forks else [])
        _assert_no_child()
        # a forking caller runs chain 0 only: with 3 chains on 2 CPUs it forks
        # a second worker for chain 2 once chain 0 is done
        assert seen == ([0] if forks else list(range(chains)))
        _assert_chains_equal_run_chain(cs, d, PriorKind.REFERENCE, cfg)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
    def test_no_pipe_left_open_after_a_forked_fit(self, monkeypatch, process_pools):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        before = _open_fds()
        run_chains(_data(12), PriorKind.REFERENCE, McmcConfig(300, 100, 10, seed=9))
        assert process_pools == [2]
        assert _open_fds() == before
        _assert_no_child()

    def test_serial_while_another_thread_runs(self, monkeypatch, process_pools):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            d = _data(12)
            cfg = McmcConfig(iterations=300, burn_in=100, thin=50, seed=9)
            cs = run_chains(d, PriorKind.REFERENCE, cfg)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert process_pools == []
        _assert_chains_equal_run_chain(cs, d, PriorKind.REFERENCE, cfg)


class TestForkMap:
    """Failures that the fork map itself must turn into errors, without leaving
    a worker process or a pipe behind."""

    def test_a_dead_worker_fails_its_item(self):
        def exit_on_1(i):
            if i == 1:
                os._exit(1)
            return i

        before = _open_fds()
        with _deadline(60), pytest.raises(RuntimeError, match="^item 1: no outcome from its worker"):
            list(sampler._fork_map(exit_on_1, range(4), 2))
        assert _open_fds() == before
        _assert_no_child()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_an_error_in_the_callers_item_kills_the_workers(self, error):
        def fail_0(i):
            if i == 0:
                raise error("item 0 failed")
            time.sleep(60)

        before, start = _open_fds(), time.monotonic()
        with _deadline(60), pytest.raises(error, match="item 0 failed"):
            list(sampler._fork_map(fail_0, range(3), 2))
        assert time.monotonic() - start < 30  # the worker's sleep was cut short
        assert _open_fds() == before
        _assert_no_child()

    def test_an_error_a_worker_cannot_pickle_arrives_as_its_repr(self):
        class Local(Exception):  # pickle sends a class by name, and this one has none
            pass

        def fail_1(i):
            if i == 1:
                raise Local("cannot travel")
            return i

        before = _open_fds()
        with _deadline(60), pytest.raises(RuntimeError, match=r"^item 1: cannot send Local\('cannot travel'\) back"):
            list(sampler._fork_map(fail_1, range(3), 2))
        assert _open_fds() == before
        _assert_no_child()


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the test if its block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _open_fds() -> set[str]:
    """This process's open file descriptors, where /proc lists them."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def _assert_no_child():
    # every forked worker has been reaped: this process has no child left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_chains_equal_run_chain(cs, d, kind, cfg):
    assert len(cs) == cfg.chains
    for i, c in enumerate(cs):
        ref = run_chain(d, kind, cfg, i)
        assert (c.chain_index, c.accepted) == (i, ref.accepted)
        for field in ("alpha", "beta"):
            assert getattr(c, field).tobytes() == getattr(ref, field).tobytes()


def _allocating_chain(d, kind, cfg, chain_index=0, lambda_form=False):
    """The Gibbs loop in its allocating form: fresh arrays every iteration,
    and every term of the shape's log ratio computed afresh at every step.

    At iterations 0, 1024, 2048, ... it draws 1024 Gamma(n) variates, then
    1024 normals, then 1024 uniforms, all from the chain's generator; each
    iteration takes its scale divisor, proposal increment and acceptance
    uniform from them and draws only its latents from the generator.  The
    latents over beta, u = lambda/beta, are standard gammas over the rate
    beta + x, the new beta is beta times their sum against x over the
    Gamma(n) variate, and sum(log lambda) is n log beta + sum(log u), summed
    as a dot product with ones.  The shape proposal is a normal step of sd
    1.5/sqrt(n) on log alpha, whose Hastings term is log(proposal) -
    log(alpha).

    With ``lambda_form`` it holds the latents themselves, drawn as
    rng.gamma(alpha + 1, 1/(1 + x/beta)), with beta = sum(lambda x) over the
    Gamma(n) variate and sum(log lambda) as numpy's pairwise sum: the form
    the sampler had before it held u.  It takes the same variates in the
    same order, so only the rounding of beta differs."""
    block = 1024

    def log_conditional(a, sum_log_lam):
        return -d.n * math.lgamma(a) + (a - 1.0) * sum_log_lam + log_prior_alpha(kind, a)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(cfg.chains)[chain_index])
    alpha = float(rng.gamma(1.0))
    beta = float(rng.gamma(1.0))
    sd = 1.5 / math.sqrt(d.n)
    alphas, betas = [], []
    accepted = 0
    for it in range(cfg.iterations):
        j = it % block
        if j == 0:
            gammas = rng.gamma(d.n, 1.0, block)
            increments = rng.normal(0.0, 1.0, block)
            log_us = np.log1p(-rng.random(block))
        if lambda_form:
            lam = rng.gamma(alpha + 1.0, 1.0 / (1.0 + d.x / beta))
            sum_log_lam = float(np.log(lam).sum())
            beta = float(lam @ d.x) / float(gammas[j])
        else:
            u = rng.standard_gamma(alpha + 1.0, d.n) / (beta + d.x)
            sum_log_lam = d.n * math.log(beta) + float(np.log(u) @ np.ones(d.n))
            beta = beta * float(u @ d.x) / float(gammas[j])
        proposal = alpha * math.exp(sd * float(increments[j]))
        log_ratio = (
            log_conditional(proposal, sum_log_lam)
            - log_conditional(alpha, sum_log_lam)
            + (math.log(proposal) - math.log(alpha))
        )
        acc = float(log_us[j]) <= log_ratio
        if acc:
            alpha = proposal
        accepted += acc
        if it >= cfg.burn_in and (it - cfg.burn_in + 1) % cfg.thin == 0:
            alphas.append(alpha)
            betas.append(beta)
    return np.array(alphas), np.array(betas), accepted


# the 1/(alpha beta) density needs n >= 2, so n = 1 runs only under dependent Jeffreys
_IDENTITY_CASES = [
    (kind, n)
    for kind in (PriorKind.REFERENCE, PriorKind.JEFFREYS_DEPENDENT)
    for n in (1, 50, 500)
    if n >= 2 or kind is PriorKind.JEFFREYS_DEPENDENT
]


# 1100 iterations cross the end of the first block of variates
_IDENTITY_CHAINS = pytest.mark.parametrize(
    "kind,n,chain_index,thin,iterations",
    [
        (kind, n, chain_index, thin, iterations)
        for kind, n in _IDENTITY_CASES
        for chain_index in (1, 0)
        for thin in (5, 1)
        for iterations in (600, 1100)
    ],
)

# The most ulps by which a beta of run_chain and of the lambda form may
# differ.  At n = 50 and 500 each beta' mixes a share of its beta with the
# data, so rounding gaps shrink as they pass on: 6 ulp is the most seen here.
# At n = 1, while beta << x, beta' is about beta G/g whatever x is, so a gap
# passes on whole and the gaps add up as a random walk: 20 ulp is the most
# seen here, 65 after 5,000 iterations.
_LAMBDA_FORM_MAX_ULP = {1: 32, 50: 16, 500: 16}


class TestBufferedKernelIdentity:
    """run_chain's in-place kernel gives the allocating loop's bits exactly."""

    @_IDENTITY_CHAINS
    def test_matches_allocating_loop_bitwise(self, kind, n, chain_index, thin, iterations):
        d = _data(n, seed=n)
        cfg = McmcConfig(iterations=iterations, burn_in=100, thin=thin, seed=2718)
        c = run_chain(d, kind, cfg, chain_index=chain_index)
        alpha, beta, accepted = _allocating_chain(d, kind, cfg, chain_index)
        assert 0 < accepted < cfg.iterations
        assert c.accepted == accepted
        assert c.alpha.tobytes() == alpha.tobytes()
        assert c.beta.tobytes() == beta.tobytes()

    def test_matches_allocating_loop_across_blocks(self):
        d = _data(50, seed=50)
        cfg = McmcConfig(iterations=2100, burn_in=100, thin=5, seed=2718)
        c = run_chain(d, PriorKind.JEFFREYS_DEPENDENT, cfg)
        alpha, beta, accepted = _allocating_chain(d, PriorKind.JEFFREYS_DEPENDENT, cfg)
        assert c.accepted == accepted
        assert c.alpha.tobytes() == alpha.tobytes()
        assert c.beta.tobytes() == beta.tobytes()

    @_IDENTITY_CHAINS
    def test_is_the_lambda_form_chain(self, kind, n, chain_index, thin, iterations):
        # the same variates in the same order: the same alphas and accepts,
        # and betas that differ only in rounding
        d = _data(n, seed=n)
        cfg = McmcConfig(iterations=iterations, burn_in=100, thin=thin, seed=2718)
        c = run_chain(d, kind, cfg, chain_index=chain_index)
        alpha, beta, accepted = _allocating_chain(d, kind, cfg, chain_index, lambda_form=True)
        assert c.accepted == accepted
        assert c.alpha.tobytes() == alpha.tobytes()
        np.testing.assert_array_max_ulp(c.beta, beta, _LAMBDA_FORM_MAX_ULP[n])

    def test_is_the_lambda_form_chain_across_blocks(self):
        d = _data(50, seed=50)
        cfg = McmcConfig(iterations=2100, burn_in=100, thin=5, seed=2718)
        c = run_chain(d, PriorKind.JEFFREYS_DEPENDENT, cfg)
        alpha, beta, accepted = _allocating_chain(
            d, PriorKind.JEFFREYS_DEPENDENT, cfg, lambda_form=True
        )
        assert c.accepted == accepted
        assert c.alpha.tobytes() == alpha.tobytes()
        np.testing.assert_array_max_ulp(c.beta, beta, _LAMBDA_FORM_MAX_ULP[50])

    def test_one_pair_of_buffers_per_chain(self, monkeypatch):
        buffers = []
        orig = sampler.sample_lambda

        def spy(alpha, beta, d, rng, out, work):
            buffers.append((out, work))
            return orig(alpha, beta, d, rng, out, work)

        monkeypatch.setattr(sampler, "sample_lambda", spy)
        d = _data(8)
        cfg = McmcConfig(iterations=60, burn_in=10, thin=5, seed=4)
        run_chain(d, PriorKind.REFERENCE, cfg)
        assert len(buffers) == 60
        assert all(b[0] is buffers[0][0] and b[1] is buffers[0][1] for b in buffers)


class TestMixingBehavior:
    @pytest.mark.parametrize("n", [50, 500, 5000])
    def test_reference_acceptance_bracket(self, n):
        # the walk's scale follows the conditional's sd (mh_oracle.ACCEPT_BRACKET),
        # so the rate does not drift with n
        d = _data(n, seed=31)
        cfg = McmcConfig(iterations=6000, burn_in=500, thin=10, chains=1, seed=7)
        c = run_chain(d, PriorKind.REFERENCE, cfg)
        low, high = ACCEPT_BRACKET
        assert low < c.accepted / c.proposed < high

    def test_posterior_recovery_at_n500(self):
        d = _data(500, seed=2024)
        cfg = McmcConfig(iterations=11000, burn_in=1000, thin=10, chains=2, seed=12)
        cs = run_chains(d, PriorKind.REFERENCE, cfg)
        for param, truth in (("beta", 2.0), ("alpha", 1.5)):
            pooled = np.concatenate([getattr(c, param) for c in cs])
            assert abs(pooled.mean() - truth) < 3 * pooled.std(ddof=1)


class TestExactPosterior:
    """The whole sampler against the dependent-Jeffreys posterior on a grid (posterior_oracle)."""

    @pytest.mark.parametrize("n", list(posterior_oracle.RUNS))
    def test_density_is_the_packages_posterior_in_log_coordinates(self, n):
        # the oracle writes the density out itself; up to a constant it is the
        # package's log posterior plus the Jacobian t + s
        x = posterior_oracle.data(n)
        t, s = np.array([0.2, 1.4, 3.0]), np.array([-0.5, 0.8, 2.0])
        grid = np.array(list(posterior_oracle._rows(x, t, s)))
        package = np.array([[log_posterior(PriorKind.JEFFREYS_DEPENDENT,
                                           LomaxParams(math.exp(ti), math.exp(si)), Dataset(x)) + ti + si
                             for si in s] for ti in t])
        assert np.ptp(grid - package) < 1e-9

    @pytest.mark.parametrize("n", list(posterior_oracle.RUNS))
    def test_quantiles_move_less_than_1e_3_on_a_grid_twice_as_fine(self, n):
        x = posterior_oracle.data(n)
        grid, finer = posterior_oracle.quantiles(x), posterior_oracle.quantiles(x, 2 * posterior_oracle.POINTS)
        assert np.abs(np.subtract(grid, finer)).max() < 1e-3

    def test_chains_hold_the_exact_quantiles(self):
        z = posterior_oracle.gate(posterior_oracle.MASTER)
        assert np.abs(z).max() < posterior_oracle.THRESHOLD, z
