"""Acceptance gate: one test per release criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the measured values.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from lomaxbayes import (
    Dataset,
    ImproperPosteriorError,
    LomaxParams,
    McmcConfig,
    PriorKind,
    StudyConfig,
    fisher_information,
    fisher_inverse,
    gelman_rubin,
    log_pdf,
    run_chains,
    run_study,
    sample,
)
from lomaxbayes.cli import main
from lomaxbayes.sampler import run_chain, sample_beta, sample_lambda
from mh_oracle import ACCEPT_BRACKET, CHAINS, stationary_mean, target_mean

TRUTH = LomaxParams(beta=2.0, alpha=1.5)
STUDY_MCMC = McmcConfig(iterations=11000, burn_in=1000, thin=10, chains=2)

INI_DATA = os.environ.get(
    "LOMAXBAYES_INI_DATA",
    str(Path(__file__).resolve().parents[1] / "data" / "ini_sizes.txt"),
)


def _report(num, ok, detail=""):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def recovery_chains():
    """Criterion-5 run, shared with criterion 7's PSRF check."""
    d = sample(TRUTH, np.random.default_rng(42), 500)
    cfg = McmcConfig(iterations=11000, burn_in=1000, thin=10, chains=2, seed=11)
    return run_chains(d, PriorKind.REFERENCE, cfg)


def test_criterion_01_mixture_marginal_identity():
    start = time.perf_counter()
    p = LomaxParams(beta=2.0, alpha=1.5)
    worst = 0.0
    for x in (0.1, 1.0, 10.0):
        rate = 1.0 + x / p.beta
        lam_hi = gamma_dist.ppf(1.0 - 1e-12, a=p.alpha + 1.0, scale=1.0 / rate)
        val, _ = quad(
            lambda lam: lam**p.alpha * math.exp(-lam * rate) / (p.beta * math.gamma(p.alpha)),
            0.0, lam_hi, epsabs=1e-14, epsrel=1e-12, limit=200,
        )
        worst = max(worst, abs(val / math.exp(log_pdf(p, x)) - 1.0))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-6 and elapsed < 1.0,
            f"(max rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_fisher_algebra():
    start = time.perf_counter()
    worst = 0.0
    for b in (0.5, 1.0, 5.0):
        for a in (0.5, 1.0, 5.0):
            p = LomaxParams(b, a)
            prod = fisher_information(p) @ fisher_inverse(p)
            worst = max(worst, float(np.max(np.abs(prod - np.eye(2)))))
    exact = fisher_inverse(LomaxParams(1, 1)).tolist() == [[12.0, 6.0], [6.0, 4.0]]
    elapsed = time.perf_counter() - start
    _report(2, worst < 1e-12 and exact and elapsed < 1.0,
            f"(max identity err {worst:.2e}, unit inverse exact={exact}, {elapsed:.2f}s)")


def test_criterion_03_conditional_samplers():
    start = time.perf_counter()
    n_draws = 100_000
    ok = True

    # latent conditional: lambda = beta * u ~ Gamma(alpha+1, 1 + x/beta)
    for alpha, beta, x in ((1.0, 1.0, 1.0), (1.5, 2.0, 3.0), (2.5, 0.5, 0.2)):
        shape, rate = alpha + 1.0, 1.0 + x / beta
        d = Dataset(np.full(n_draws, x))
        draws = beta * sample_lambda(
            alpha, beta, d, np.random.default_rng(301), np.empty(n_draws), np.empty(n_draws)
        )
        m, v = shape / rate, shape / rate**2
        ok &= abs(draws.mean() - m) < 3 * math.sqrt(v / n_draws)
        se_var = v * math.sqrt(2.0 / (n_draws - 1) + (6.0 / shape) / n_draws)
        ok &= abs(draws.var(ddof=1) - v) < 3 * se_var

    # scale conditional: InverseGamma(n, total), total = sum(lambda_i x_i) = beta * sum(u_i x_i)
    beta = 2.0
    for n, total in ((5, 8.0), (8, 4.0), (12, 18.0)):
        d = Dataset(np.ones(n))
        u = np.full(n, total / (n * beta))
        gammas = np.random.default_rng(302).standard_gamma(n, n_draws)
        draws = np.array([sample_beta(u, d, g, beta) for g in gammas])
        m = total / (n - 1)
        v = total**2 / ((n - 1) ** 2 * (n - 2))
        kurt = (30 * n - 66.0) / ((n - 3) * (n - 4))
        ok &= abs(draws.mean() - m) < 3 * math.sqrt(v / n_draws)
        ok &= abs(draws.var(ddof=1) - v) < 3 * (v * math.sqrt(2.0 / (n_draws - 1) + kurt / n_draws))

    elapsed = time.perf_counter() - start
    _report(3, ok and elapsed < 5.0, f"(3 gamma + 3 inverse-gamma settings, {elapsed:.2f}s)")


def test_criterion_04_mh_stationarity_oracle():
    start = time.perf_counter()
    target = target_mean()
    mean, se = stationary_mean()
    diff = abs(mean - target)
    elapsed = time.perf_counter() - start
    _report(4, diff < 3 * se and elapsed < 30.0,
            f"(|{mean:.4f} - {target:.4f}| = {diff:.4f} < 3*MCSE {3*se:.4f} "
            f"from {CHAINS} chains, {elapsed:.1f}s)")


def test_criterion_05_posterior_recovery_n500(recovery_chains):
    start = time.perf_counter()
    ok = True
    values = []
    for param, truth in (("beta", 2.0), ("alpha", 1.5)):
        pooled = np.concatenate([getattr(c, param) for c in recovery_chains])
        m, sd = pooled.mean(), pooled.std(ddof=1)
        ok &= abs(m - truth) < 3 * sd
        values.append(f"{param}: {m:.4f} (sd {sd:.4f}) vs {truth}")
    elapsed = time.perf_counter() - start
    _report(5, ok and elapsed < 120.0, f"({'; '.join(values)}, {elapsed:.1f}s)")


def test_criterion_06_desk_scale_study():
    start = time.perf_counter()
    study = StudyConfig(
        true_params=TRUTH,
        sample_sizes=(50, 500),
        replications=50,
        priors=(PriorKind.REFERENCE,),
        mcmc=STUDY_MCMC,
        seed=20260811,
    )
    report = run_study(study, n_jobs=2)
    rows = {(r.n, r.parameter): r for r in report.rows}
    bias_500 = rows[(500, "beta")].bias
    rmse_500 = rows[(500, "beta")].rmse
    rmse_50 = rows[(50, "beta")].rmse
    elapsed = time.perf_counter() - start
    ok = abs(bias_500) <= 0.25 and rmse_500 <= 0.8 and rmse_500 < rmse_50
    _report(6, ok and elapsed < 1800.0,
            f"(|bias|={abs(bias_500):.4f}<=0.25, rmse={rmse_500:.4f}<=0.8, "
            f"rmse(500) < rmse(50)={rmse_50:.4f}, {elapsed:.0f}s)")


def test_criterion_07_convergence_diagnostics(recovery_chains):
    psrf_a = gelman_rubin([c.alpha for c in recovery_chains])
    psrf_b = gelman_rubin([c.beta for c in recovery_chains])
    ok = psrf_a <= 1.1 and psrf_b <= 1.1

    # Acceptance bracket for the reference prior at n <= 200: the shape
    # step's scale follows the conditional's sd, so the rate does not
    # drift with n (mh_oracle.ACCEPT_BRACKET)
    rates = []
    for n in (50, 100, 200):
        d = sample(TRUTH, np.random.default_rng(500 + n), n)
        cfg = McmcConfig(iterations=11000, burn_in=1000, thin=10, chains=1, seed=77)
        c = run_chain(d, PriorKind.REFERENCE, cfg)
        rates.append(c.accepted / c.proposed)
    low, high = ACCEPT_BRACKET
    ok &= all(low < r < high for r in rates)
    _report(7, ok,
            f"(psrf alpha={psrf_a:.4f} beta={psrf_b:.4f} <= 1.1; "
            f"accept rates n=50/100/200: {', '.join(f'{r:.3f}' for r in rates)})")


def test_criterion_08_propriety_guards():
    d = Dataset([5.0])
    cfg = McmcConfig(iterations=400, burn_in=100, thin=2, chains=1, seed=1)
    guarded = 0
    # reference needs n >= 2; a zero observation is improper under every prior
    for kind, guarded_data in ((PriorKind.REFERENCE, d),
                               (PriorKind.JEFFREYS_DEPENDENT, Dataset([0.0, 5.0]))):
        try:
            run_chains(guarded_data, kind, cfg)
        except ImproperPosteriorError:
            guarded += 1
    dep = run_chains(d, PriorKind.JEFFREYS_DEPENDENT, cfg)
    dep_ok = np.concatenate([c.alpha for c in dep]).size == cfg.retained
    _report(8, guarded == 2 and dep_ok,
            f"(reference n=1 and jeffreys [0, 5] rejected: {guarded}/2; dependent n=1 ran)")


def test_criterion_09_application_reference_values(tmp_path):
    if not os.path.exists(INI_DATA):
        print(f"[acceptance] criterion 9: SKIPPED (dataset not found at {INI_DATA}; "
              "see scripts/fetch_file_sizes.py)")
        pytest.skip("application dataset unavailable")

    targets = {
        "jeffreys": (131.1242, 0.5008),
        "reference": (130.4562, 0.4986),
    }
    ok = True
    details = []
    for prior, (beta_t, alpha_t) in targets.items():
        out = tmp_path / prior
        code = main([
            "fit", INI_DATA, "--prior", prior, "--out", str(out),
            "--iters", "80000", "--burnin", "20000", "--thin", "20",
            "--chains", "2", "--seed", "0",
        ])
        ok &= code == 0
        summary = json.loads((out / "summary.json").read_text())
        beta_m, alpha_m = summary["beta"]["mean"], summary["alpha"]["mean"]
        ok &= abs(beta_m - beta_t) <= 3.0 and abs(alpha_m - alpha_t) <= 0.015
        details.append(f"{prior}: beta {beta_m:.4f} vs {beta_t}, alpha {alpha_m:.4f} vs {alpha_t}")
    _report(9, ok, f"({'; '.join(details)})")


def test_criterion_10_artifact_determinism(tmp_path):
    data = sample(TRUTH, np.random.default_rng(5), 25)
    data_file = tmp_path / "data.txt"
    data_file.write_text("\n".join(repr(v) for v in data.x.tolist()) + "\n")

    fit_flags = ["--iters", "500", "--burnin", "100", "--thin", "4",
                 "--chains", "2", "--seed", "9"]
    for out in (tmp_path / "f1", tmp_path / "f2"):
        assert main(["fit", str(data_file), "--out", str(out)] + fit_flags) == 0
    fit_same = all(
        (tmp_path / "f1" / name).read_bytes() == (tmp_path / "f2" / name).read_bytes()
        for name in ("summary.json", "trace.csv", "outliers.csv")
    )

    sim_flags = ["--replications", "2", "--sizes", "6", "--prior", "reference",
                 "--quiet", "--iters", "300", "--burnin", "100", "--thin", "2",
                 "--chains", "2", "--seed", "3"]
    for out in (tmp_path / "s1", tmp_path / "s2"):
        assert main(["simulate", "--out", str(out)] + sim_flags) == 0
    sim_same = (
        (tmp_path / "s1" / "simulation.csv").read_bytes()
        == (tmp_path / "s2" / "simulation.csv").read_bytes()
    )
    _report(10, fit_same and sim_same,
            f"(fit artifacts identical={fit_same}, simulate identical={sim_same})")
