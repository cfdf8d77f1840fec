"""Monte Carlo harness: bias/rmse formulas, aggregation and determinism."""

import io

import numpy as np
import pytest

from lomaxbayes import (
    LomaxParams,
    McmcConfig,
    PriorKind,
    ReplicateFit,
    StudyConfig,
    SummaryStats,
    bias,
    rmse,
    run_study,
    sampler,
    simulation,
)
from lomaxbayes.simulation import CSV_COLUMNS

TRUTH = LomaxParams(beta=2.0, alpha=1.5)

FAST_MCMC = McmcConfig(iterations=400, burn_in=100, thin=3, chains=2, seed=0)


def _stub_fit(beta_mean, alpha_mean):
    stats_b = SummaryStats(mean=beta_mean, sd=0.1, ci_low=beta_mean - 0.2, ci_high=beta_mean + 0.2)
    stats_a = SummaryStats(mean=alpha_mean, sd=0.1, ci_low=alpha_mean - 0.2, ci_high=alpha_mean + 0.2)
    return ReplicateFit(beta=stats_b, alpha=stats_a, accept_rate=0.9, psrf_beta=1.0, psrf_alpha=1.0)


class TestBiasRmse:
    def test_bias(self):
        assert bias([1.5], 1.5) == 0.0
        assert bias([2.5, 0.5], 1.5) == 0.0
        assert bias([3.0, 4.0], 2.0) == 1.5

    def test_rmse(self):
        assert rmse(np.full(5, 1.5), 1.5) == 0.0
        assert rmse([2.5, 0.5], 1.5) == 1.0
        assert rmse([3.0, 4.0], 2.0) == pytest.approx(np.sqrt(2.5), rel=1e-14)

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            bias([], 1.0)
        with pytest.raises(ValueError):
            rmse([], 1.0)

    def test_rmse_squared_decomposition(self):
        rng = np.random.default_rng(12)
        est = rng.normal(2.0, 0.7, 200)
        assert rmse(est, 1.5) ** 2 == pytest.approx(
            bias(est, 1.5) ** 2 + est.var(), rel=1e-12
        )


class TestStudyConfig:
    def test_invalid(self):
        with pytest.raises(ValueError):
            StudyConfig(true_params=TRUTH, replications=0)
        with pytest.raises(ValueError):
            StudyConfig(true_params=TRUTH, sample_sizes=(1,))
        with pytest.raises(ValueError):
            StudyConfig(true_params=TRUTH, priors=())
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            StudyConfig(true_params=TRUTH, seed=-1)
        # a repeated cell would fit every replicate and write its rows again
        with pytest.raises(ValueError, match=r"sample sizes must be distinct, got \(5, 5\)"):
            StudyConfig(true_params=TRUTH, sample_sizes=(5, 5))
        with pytest.raises(ValueError, match="priors must be distinct"):
            StudyConfig(true_params=TRUTH, priors=(PriorKind.REFERENCE, PriorKind.REFERENCE))

    @pytest.mark.parametrize("name,kwargs", [
        ("replications", dict(replications=2.5)),
        # was truncated to n = 50
        ("sample_sizes", dict(sample_sizes=(50.7,))),
        ("seed", dict(seed=1.5)),
    ])
    def test_non_integer_count_names_the_field(self, name, kwargs):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            StudyConfig(true_params=TRUTH, **kwargs)

    def test_defaults_follow_study_design(self):
        cfg = StudyConfig(true_params=TRUTH)
        assert cfg.sample_sizes == (50, 100, 150, 200, 300, 500)
        assert cfg.replications == 500
        assert cfg.priors == (PriorKind.JEFFREYS_DEPENDENT, PriorKind.REFERENCE)
        assert (cfg.mcmc.iterations, cfg.mcmc.burn_in, cfg.mcmc.thin) == (11000, 1000, 10)


class TestRunStudyHarness:
    def test_exact_stub_gives_zero_bias_and_rmse(self):
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(5,), replications=1,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=1,
        )
        report = run_study(cfg, fit_fn=lambda d, k, m: _stub_fit(2.0, 1.5))
        for row in report.rows:
            assert row.bias == 0.0 and row.rmse == 0.0

    def test_injected_plus_minus_one(self):
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(5,), replications=2,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=1,
        )
        calls = iter([1.0, -1.0])

        def fit(d, kind, mcmc):
            off = next(calls)
            return _stub_fit(2.0 + off, 1.5 + off)

        report = run_study(cfg, fit_fn=fit)
        for row in report.rows:
            assert row.bias == pytest.approx(0.0, abs=1e-15)
            assert row.rmse == pytest.approx(1.0, rel=1e-15)

    def test_stub_sees_replicate_data_and_config(self):
        seen = []

        def fit(d, kind, mcmc):
            seen.append((d.n, kind, mcmc.seed))
            return _stub_fit(2.0, 1.5)

        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(5, 7), replications=2,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=3,
        )
        run_study(cfg, fit_fn=fit)
        assert [s[0] for s in seen] == [5, 5, 7, 7]
        assert len({s[2] for s in seen}) == 4  # distinct derived seeds

    def test_failed_replicate_aborts_with_context(self):
        def fit(d, kind, mcmc):
            raise RuntimeError("boom")

        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(5,), replications=1,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=1,
        )
        with pytest.raises(RuntimeError, match="replicate 0 failed .*n=5"):
            run_study(cfg, fit_fn=fit)

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_rejects_fewer_than_one_job(self, n_jobs):
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(5,), replications=1,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=1,
        )
        with pytest.raises(ValueError, match="n_jobs"):
            run_study(cfg, n_jobs=n_jobs)


class TestRunStudyEndToEnd:
    @staticmethod
    def _small_cfg(seed=11):
        return StudyConfig(
            true_params=TRUTH, sample_sizes=(6,), replications=2,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=seed,
        )

    def test_deterministic_given_master_seed(self):
        r1 = run_study(self._small_cfg())
        r2 = run_study(self._small_cfg())
        assert r1.rows == r2.rows
        for key in r1.estimates:
            np.testing.assert_array_equal(r1.estimates[key], r2.estimates[key])

    def test_parallel_matches_serial(self):
        r1 = run_study(self._small_cfg(), n_jobs=1)
        r2 = run_study(self._small_cfg(), n_jobs=2)
        assert r1.rows == r2.rows

    @pytest.mark.parametrize("n_jobs,cpus,replications,pools", [
        (64, 2, 3, [2]),  # capped by the usable CPUs
        (64, 8, 2, [2]),  # capped by the replicates
        (4, 1, 3, []),  # one worker: the caller fits every replicate
    ])
    def test_workers_capped_by_cpus_and_replicates(
        self, monkeypatch, n_jobs, cpus, replications, pools
    ):
        seen = []

        class SpyPool(simulation.ProcessPoolExecutor):
            # records the request but starts at most 2 processes
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2))

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", SpyPool)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(6,), replications=replications,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=11,
        )
        report = run_study(cfg, n_jobs=n_jobs)
        assert seen == pools
        assert report.rows == run_study(cfg).rows

    def test_forked_chains_match_serial_workers(self, monkeypatch, process_pools):
        # n_jobs=1 forks each replicate's chains; n_jobs=2 workers run theirs serially
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        mcmc = McmcConfig(iterations=sampler._FORK_MIN_ITERATIONS, burn_in=500, thin=10, seed=5)
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(20,), replications=2,
            priors=(PriorKind.JEFFREYS_DEPENDENT,), mcmc=mcmc, seed=3,
        )
        csvs = []
        for n_jobs in (1, 2):
            buf = io.StringIO()
            run_study(cfg, n_jobs=n_jobs).to_csv(buf)
            csvs.append(buf.getvalue())
        assert process_pools == [1, 1]
        assert csvs[0] == csvs[1]

    def test_rows_shape_and_jensen(self):
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(6, 10), replications=2,
            priors=(PriorKind.REFERENCE, PriorKind.JEFFREYS_DEPENDENT),
            mcmc=FAST_MCMC, seed=4,
        )
        report = run_study(cfg)
        assert len(report.rows) == 2 * 2 * 2  # priors x sizes x parameters
        for row in report.rows:
            assert row.rmse >= abs(row.bias)
            assert 0.0 <= row.accept_rate <= 1.0

    def test_rmse_bias_variance_identity_per_cell(self):
        report = run_study(self._small_cfg())
        for row in report.rows:
            est = report.estimates[(row.prior.value, row.n, row.parameter)]
            assert row.rmse**2 == pytest.approx(row.bias**2 + est.var(), rel=1e-12)

    def test_csv_output(self):
        report = run_study(self._small_cfg())
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert first[0] == "reference" and first[1] == "6" and first[2] == "beta"
        assert float(first[3]) == pytest.approx(report.rows[0].mean)

    def test_table_renders_all_rows(self):
        report = run_study(self._small_cfg())
        table = report.table()
        assert "prior" in table and "rmse" in table
        assert len(table.splitlines()) == 2 + len(report.rows)
