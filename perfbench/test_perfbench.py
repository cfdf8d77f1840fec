"""Tests of the benchmark's own code: the ESS estimator, seeding and checks."""

import numpy as np
import pytest
from scipy.signal import lfilter

from ess import geyer_ess
from workloads import (FITS, WORKLOADS, FitSpec, call_seeds, chain_seeds,
                       check_distinct_chain_seeds, check_study_csv, read_trace)


def ar1(rho: float, n: int, seed: int) -> np.ndarray:
    """Stationary AR(1) with unit variance: x_t = rho x_{t-1} + sqrt(1-rho^2) e_t."""
    c = np.sqrt(1.0 - rho * rho)
    e = np.random.default_rng(seed).standard_normal(n)
    e[0] /= c  # x_0 = e_0 has the stationary variance
    return lfilter([c], [1.0, -rho], e)


@pytest.mark.parametrize("rho", [-0.3, 0.0, 0.5, 0.9])
def test_geyer_ess_matches_ar1_closed_form(rho):
    n = 200_000
    exact = n * (1.0 - rho) / (1.0 + rho)
    for seed in (1, 2):
        assert geyer_ess(ar1(rho, n, seed)) == pytest.approx(exact, rel=0.1)


def test_geyer_ess_of_constant_chain_is_zero():
    assert geyer_ess(np.full(100, 3.0)) == 0.0


def test_master_seeds_0_and_3_share_chain_seeds():
    # the sampler seeds chain i with master XOR (i+1)
    assert sorted(chain_seeds(0)) == sorted(chain_seeds(3)) == [1, 2]
    with pytest.raises(RuntimeError):
        check_distinct_chain_seeds([0, 3])


def test_derived_chain_seeds_are_distinct_across_seeds_and_calls():
    masters = [call_seeds(seed, w, k)[1] for w in WORKLOADS for seed in range(100) for k in range(4)]
    check_distinct_chain_seeds(masters)


def test_call_seeds_are_reproducible():
    a, b = call_seeds(7, "fit-n500", 2), call_seeds(7, "fit-n500", 2)
    assert a[1] == b[1]
    assert np.array_equal(np.random.default_rng(a[0]).random(5), np.random.default_rng(b[0]).random(5))
    assert call_seeds(7, "fit-n500", 3)[1] != a[1]


def write_trace(path, spec: FitSpec, value: float = 1.5, rows: int | None = None):
    rows = 2 * spec.retained if rows is None else rows
    lines = ["chain,draw_index,alpha,beta"]
    lines += [f"{i // spec.retained},{i % spec.retained},{value!r},2.0" for i in range(rows)]
    path.write_text("\n".join(lines) + "\n")


def test_read_trace_checks_row_count_and_draws(tmp_path):
    spec = FitSpec(n=10, iters=30, burnin=10, thin=2)
    trace = tmp_path / "trace.csv"
    write_trace(trace, spec)
    assert read_trace(trace, spec).shape == (2, 10, 2)
    write_trace(trace, spec, rows=19)
    with pytest.raises(ValueError, match="shape"):
        read_trace(trace, spec)
    for bad in (0.0, float("inf")):
        write_trace(trace, spec, value=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            read_trace(trace, spec)


def test_check_study_csv_rejects_non_finite_rows():
    header = "prior,n,parameter,mean,sd,ci_low,ci_high,bias,rmse,accept_rate,psrf\n"
    good = "jeffreys,50,beta,2.1,0.5,1.2,3.4,0.1,0.6,0.2,1.01\n"
    check_study_csv(header + good)
    with pytest.raises(ValueError):
        check_study_csv(header + good.replace("1.01", "nan"))
    with pytest.raises(ValueError):
        check_study_csv(header)


def test_fit_specs_retain_draws():
    assert all(spec.retained > 0 for spec in FITS.values())
