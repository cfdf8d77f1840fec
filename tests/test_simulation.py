"""Monte Carlo harness: bias/rmse formulas, aggregation and determinism."""

import io
import multiprocessing
import threading
import time
from dataclasses import fields

import numpy as np
import pytest

from lomaxbayes import (
    ImproperPosteriorError,
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
from lomaxbayes.simulation import CSV_COLUMNS, CellStats

TRUTH = LomaxParams(beta=2.0, alpha=1.5)

FAST_MCMC = McmcConfig(iterations=400, burn_in=100, thin=3, chains=2, seed=0)


def _stub_fit(beta_mean, alpha_mean):
    stats_b = SummaryStats(mean=beta_mean, sd=0.1, ci_low=beta_mean - 0.2, ci_high=beta_mean + 0.2)
    stats_a = SummaryStats(mean=alpha_mean, sd=0.1, ci_low=alpha_mean - 0.2, ci_high=alpha_mean + 0.2)
    return ReplicateFit(beta=stats_b, alpha=stats_a, accept_rate=0.9, psrf_beta=1.0, psrf_alpha=1.0)


_MARKER_DIR = None  # where _first_fails_rest_sleep marks each call; forked workers inherit it


def _first_fails_rest_sleep(d, kind, mcmc):
    """Stands in for fit_replicate in pool workers: marks the call, then replicate 0
    (of a seed-0 study) raises at once and every other replicate sleeps 0.5 s."""
    (_MARKER_DIR / str(mcmc.seed)).touch()
    if mcmc.seed == simulation._mcmc_seed(0, kind, d.n, 0):
        raise ValueError("stub failure")
    time.sleep(0.5)
    return _stub_fit(2.0, 1.5)


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
        # the default priors include reference, whose posterior needs n >= 2
        with pytest.raises(ImproperPosteriorError, match="prior 'reference' requires n >= 2, got n=1"):
            StudyConfig(true_params=TRUTH, sample_sizes=(1,))
        # a size below 1 is no dataset: a usage error, raised before the propriety check
        for sizes in ((0,), (-5,), (3, -5)):
            with pytest.raises(ValueError, match=f"sample_sizes must be >= 1, got {min(sizes)}") as info:
                StudyConfig(true_params=TRUTH, sample_sizes=sizes)
            assert not isinstance(info.value, ImproperPosteriorError)
        with pytest.raises(ValueError):
            StudyConfig(true_params=TRUTH, priors=())
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            StudyConfig(true_params=TRUTH, seed=-1)
        # a repeated cell would fit every replicate and write its rows again
        with pytest.raises(ValueError, match=r"sample_sizes must be distinct, got \(5, 5\)"):
            StudyConfig(true_params=TRUTH, sample_sizes=(5, 5))
        with pytest.raises(ValueError, match="priors must be distinct"):
            StudyConfig(true_params=TRUTH, priors=(PriorKind.REFERENCE, PriorKind.REFERENCE))

    @pytest.mark.parametrize("truth", [(2.0, 1.5), {"beta": 2.0, "alpha": 1.5}, None],
                             ids=["tuple", "dict", "none"])
    def test_true_params_must_be_lomax_params(self, truth):
        # a tuple once failed inside replicate 0: "'tuple' object has no attribute 'beta'"
        with pytest.raises(TypeError, match="^true_params must be a LomaxParams"):
            StudyConfig(true_params=truth, sample_sizes=(5,), replications=1)

    @pytest.mark.parametrize("name,kwargs", [
        ("replications", dict(replications=2.5)),
        # was truncated to n = 50
        ("sample_sizes", dict(sample_sizes=(50.7,))),
        ("seed", dict(seed=1.5)),
        ("replications", dict(replications=True)),  # a bool is not a count
    ])
    def test_non_integer_count_names_the_field(self, name, kwargs):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            StudyConfig(true_params=TRUTH, **kwargs)

    @pytest.mark.parametrize("name,kwargs,of", [
        ("priors", dict(priors=PriorKind.REFERENCE), "PriorKind"),
        ("priors", dict(priors="reference"), "PriorKind"),
        # once failed with "'int' object is not iterable"
        ("sample_sizes", dict(sample_sizes=50), "integers"),
    ], ids=["kind", "label", "count"])
    def test_axes_must_be_sequences(self, name, kwargs, of):
        with pytest.raises(TypeError, match=f"^{name} must be a sequence of {of}"):
            StudyConfig(true_params=TRUTH, **kwargs)

    def test_jeffreys_study_runs_from_n_1(self):
        # n + nu > 0 with nu = -1/2: the one propriety rule admits n = 1 here
        cfg = StudyConfig(true_params=TRUTH, sample_sizes=(1,), replications=2,
                          priors=(PriorKind.JEFFREYS_DEPENDENT,), mcmc=FAST_MCMC, seed=1)
        report = run_study(cfg)
        assert [(r.prior, r.n, r.parameter) for r in report.rows] == [
            (PriorKind.JEFFREYS_DEPENDENT, 1, "beta"), (PriorKind.JEFFREYS_DEPENDENT, 1, "alpha"),
        ]

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

    def test_summary_columns_are_replicate_means(self):
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(5,), replications=2,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=1,
        )
        fitted = iter([
            ReplicateFit(SummaryStats(1.0, 0.5, 0.25, 2.0), SummaryStats(3.0, 1.0, 2.0, 4.5), 0.5, 1.0, 1.5),
            ReplicateFit(SummaryStats(2.0, 1.5, 0.75, 4.0), SummaryStats(1.0, 2.0, 0.5, 1.5), 0.75, 2.0, 2.5),
        ])
        report = run_study(cfg, fit_fn=lambda d, k, m: next(fitted))
        beta, alpha = report.rows
        assert (beta.mean, beta.sd, beta.ci_low, beta.ci_high) == (1.5, 1.0, 0.5, 3.0)
        assert (alpha.mean, alpha.sd, alpha.ci_low, alpha.ci_high) == (2.0, 1.5, 1.25, 3.0)
        assert (beta.accept_rate, beta.psrf, alpha.psrf) == (0.625, 1.5, 2.0)

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

    def test_first_failed_replicate_stops_the_pool(self, tmp_path, monkeypatch):
        # replicate 0's error must cancel the replicates queued behind it, not wait for them
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(simulation, "fit_replicate", _first_fails_rest_sleep)
        monkeypatch.setattr(f"{__name__}._MARKER_DIR", tmp_path)
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(5,), replications=40,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=0,
        )
        with pytest.raises(RuntimeError, match="replicate 0 failed .*n=5: stub failure"):
            run_study(cfg, n_jobs=2)
        assert len(list(tmp_path.iterdir())) <= 10

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_rejects_fewer_than_one_job(self, n_jobs):
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(5,), replications=1,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=1,
        )
        with pytest.raises(ValueError, match="n_jobs"):
            run_study(cfg, n_jobs=n_jobs)

    @pytest.mark.parametrize("n_jobs", [1.5, 2.0])
    def test_rejects_a_non_integer_job_count_before_any_fit(self, n_jobs):
        fitted = []
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(5,), replications=1,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=1,
        )
        with pytest.raises(TypeError, match="n_jobs must be an integer"):
            run_study(cfg, fit_fn=lambda *args: fitted.append(args), n_jobs=n_jobs)
        assert fitted == []


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
        assert multiprocessing.active_children() == []  # the pool's workers are gone

    @pytest.mark.parametrize("n_jobs,cpus,replications,pools", [
        (64, 2, 3, [2]),  # capped by the usable CPUs
        (64, 8, 2, [2]),  # capped by the replicates
        (4, 1, 3, []),  # one worker: the caller fits every replicate
        (None, 2, 3, [2]),  # no cap: as wide as the CPUs allow
        (None, 8, 2, [2]),
        # capped at one: the caller fits every replicate and forks its 2 chains
        (1, 2, 3, [1, 1, 1]),
    ])
    def test_workers_capped_by_cpus_and_replicates(
        self, monkeypatch, process_pools, n_jobs, cpus, replications, pools
    ):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(6,), replications=replications,
            priors=(PriorKind.REFERENCE,), mcmc=FAST_MCMC, seed=11,
        )
        report = run_study(cfg, n_jobs=n_jobs)
        assert process_pools == pools
        assert process_pools.methods == ["fork"] * len(pools)
        assert multiprocessing.active_children() == []  # every pool's workers are gone
        assert report.rows == run_study(cfg, n_jobs=1).rows

    def test_serial_while_another_thread_runs(self, monkeypatch, process_pools):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        cfg = self._small_cfg()
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            report = run_study(cfg, n_jobs=2)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert process_pools == []
        assert report.rows == run_study(cfg, n_jobs=1).rows

    def test_forked_chains_match_serial_workers(self, monkeypatch, process_pools):
        # n_jobs=1 forks each replicate's chains; the 2 workers of n_jobs=2 run theirs serially
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        mcmc = McmcConfig(iterations=600, burn_in=100, thin=10, seed=5)
        cfg = StudyConfig(
            true_params=TRUTH, sample_sizes=(20,), replications=2,
            priors=(PriorKind.JEFFREYS_DEPENDENT,), mcmc=mcmc, seed=3,
        )
        csvs = []
        for n_jobs in (1, 2):
            buf = io.StringIO()
            run_study(cfg, n_jobs=n_jobs).to_csv(buf)
            csvs.append(buf.getvalue())
        assert process_pools == [1, 1, 2]
        assert process_pools.methods == ["fork"] * 3
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

    def test_columns_are_the_fields_of_one_schema(self):
        names = [f.name for f in fields(CellStats)]
        assert CSV_COLUMNS.split(",") == names
        # each summary a fit reports is averaged into a column of the same name
        summary = [f.name for f in fields(SummaryStats)]
        assert names[:3] == ["prior", "n", "parameter"]
        assert names[3:3 + len(summary)] == summary

    def test_table_renders_all_rows(self):
        report = run_study(self._small_cfg())
        table = report.table()
        assert "prior" in table and "rmse" in table
        assert len(table.splitlines()) == 2 + len(report.rows)
