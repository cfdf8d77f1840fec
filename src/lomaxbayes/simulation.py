"""Monte Carlo study harness: replicate, fit, and aggregate bias and rmse.

For every (prior, sample size) cell the harness draws ``replications``
datasets from the true parameters, fits each with the Gibbs sampler,
takes the pooled posterior mean as the point estimate, and aggregates

    bias = mean(estimates) - truth
    rmse = sqrt(mean((estimates - truth)^2))

together with averaged posterior summaries, acceptance rates and PSRF
values.  Everything is deterministic given the master seed: dataset
seeds depend on (seed, n, j) only, so all priors see the same data.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .diagnostics import SummaryStats, acceptance_rate, gelman_rubin, summarize
from .distribution import Dataset, LomaxParams, _check_integer, sample
from .priors import PriorKind, check_propriety
from . import sampler
from .sampler import ChainSet, McmcConfig, run_chains

__all__ = [
    "StudyConfig",
    "ReplicateFit",
    "CellStats",
    "SimReport",
    "bias",
    "rmse",
    "fit_replicate",
    "run_study",
    "summarize_chains",
]

CSV_COLUMNS = (
    "prior,n,parameter,mean,sd,ci_low,ci_high,bias,rmse,accept_rate,psrf"
)


@dataclass(frozen=True)
class StudyConfig:
    """True parameters, design grid and MCMC settings of one study."""

    true_params: LomaxParams
    sample_sizes: tuple[int, ...] = (50, 100, 150, 200, 300, 500)
    replications: int = 500
    priors: tuple[PriorKind, ...] = (
        PriorKind.JEFFREYS_DEPENDENT,
        PriorKind.REFERENCE,
    )
    mcmc: McmcConfig = McmcConfig()
    seed: int = 0

    def __post_init__(self):
        for n in self.sample_sizes:
            _check_integer("sample_sizes", n)
        _check_integer("replications", self.replications)
        _check_integer("seed", self.seed)
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "priors", tuple(self.priors))
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.sample_sizes:
            raise ValueError("need at least one sample size")
        if any(n < 2 for n in self.sample_sizes):
            raise ValueError("all sample sizes must be >= 2")
        if not self.priors:
            raise ValueError("need at least one prior kind")
        # a repeated cell would fit every replicate and write its rows again
        if len(set(self.sample_sizes)) < len(self.sample_sizes):
            raise ValueError(f"sample sizes must be distinct, got {self.sample_sizes}")
        if len(set(self.priors)) < len(self.priors):
            raise ValueError(f"priors must be distinct, got {tuple(k.value for k in self.priors)}")
        for kind in self.priors:
            check_propriety(kind, min(self.sample_sizes))


@dataclass(frozen=True)
class ReplicateFit:
    """Per-replicate posterior summaries and chain diagnostics."""

    beta: SummaryStats
    alpha: SummaryStats
    accept_rate: float
    psrf_beta: float
    psrf_alpha: float


@dataclass(frozen=True)
class CellStats:
    """One report row: a (prior, n, parameter) cell aggregated over replicates."""

    prior: PriorKind
    n: int
    parameter: str
    mean: float
    sd: float
    ci_low: float
    ci_high: float
    bias: float
    rmse: float
    accept_rate: float
    psrf: float


@dataclass(frozen=True)
class SimReport:
    """All cell rows plus the raw per-replicate estimates behind them."""

    config: StudyConfig
    rows: tuple[CellStats, ...]
    estimates: dict

    def to_csv(self, destination) -> None:
        """Write rows as CSV; ``destination`` is a path or writable file."""
        if hasattr(destination, "write"):
            self._write_csv(destination)
        else:
            with open(destination, "w", encoding="utf-8", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        fh.write(CSV_COLUMNS + "\n")
        for r in self.rows:
            fh.write(",".join(_row(r, repr)) + "\n")

    def table(self) -> str:
        """Aligned text table of all rows."""
        headers = CSV_COLUMNS.split(",")
        body = [_row(r, "{:.4f}".format) for r in self.rows]
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = [
            "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(f.rjust(w) for f, w in zip(row, widths)) for row in body]
        return "\n".join(lines)


def _row(r: CellStats, fmt) -> list[str]:
    """A row's fields in CSV_COLUMNS order: the labels as text, the numbers through ``fmt``."""
    return [r.prior.value, str(r.n), r.parameter] + [
        fmt(getattr(r, column)) for column in CSV_COLUMNS.split(",")[3:]
    ]


def bias(estimates, truth: float) -> float:
    """mean(estimates) - truth."""
    est = np.asarray(estimates, dtype=float).ravel()
    if est.size == 0:
        raise ValueError("no estimates")
    return float(est.mean() - truth)


def rmse(estimates, truth: float) -> float:
    """sqrt(mean((estimates - truth)^2))."""
    est = np.asarray(estimates, dtype=float).ravel()
    if est.size == 0:
        raise ValueError("no estimates")
    return float(np.sqrt(np.mean((est - truth) ** 2)))


def _dataset_seed(master: int, n: int, j: int) -> np.random.SeedSequence:
    # keyed by (n, j) only, so every prior fits the same replicate data
    return np.random.SeedSequence([master, 1, n, j])


def _mcmc_seed(master: int, kind: PriorKind, n: int, j: int) -> int:
    kind_index = list(PriorKind).index(kind)
    ss = np.random.SeedSequence([master, 2, kind_index, n, j])
    return int(ss.generate_state(1, np.uint64)[0])


def summarize_chains(chains: ChainSet) -> ReplicateFit:
    """Summaries of the pooled draws, mean acceptance rate and, with 2+ chains, PSRF."""
    multi = len(chains) >= 2
    return ReplicateFit(
        beta=summarize(chains.pooled("beta")),
        alpha=summarize(chains.pooled("alpha")),
        accept_rate=float(np.mean([acceptance_rate(c) for c in chains])),
        psrf_beta=gelman_rubin(chains, "beta") if multi else float("nan"),
        psrf_alpha=gelman_rubin(chains, "alpha") if multi else float("nan"),
    )


def fit_replicate(d: Dataset, kind: PriorKind, mcmc: McmcConfig) -> ReplicateFit:
    """Fit one dataset with the Gibbs sampler and summarize the pooled draws."""
    return summarize_chains(run_chains(d, kind, mcmc))


def _fit_one(cfg: StudyConfig, kind: PriorKind, n: int, j: int, fit_fn) -> ReplicateFit:
    """Replicate j of cell (kind, n): draw its dataset and seed its chains, then fit."""
    rng = np.random.default_rng(_dataset_seed(cfg.seed, n, j))
    d = sample(cfg.true_params, rng, n)
    mcmc = replace(cfg.mcmc, seed=_mcmc_seed(cfg.seed, kind, n, j))
    return fit_fn(d, kind, mcmc)


def run_study(
    cfg: StudyConfig,
    *,
    fit_fn=None,
    n_jobs: int = 1,
    progress: bool = False,
) -> SimReport:
    """Run the full study and aggregate a :class:`SimReport`.

    ``fit_fn(dataset, kind, mcmc) -> ReplicateFit`` replaces the Gibbs
    fit when given (stubs for harness tests); custom fit functions run
    serially.  Otherwise w = min(n_jobs, usable CPUs, replicates) worker
    processes fit the replicates when w > 1, and the caller fits them when
    w = 1; results are reduced in (prior, n, j) order either way.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    m = cfg.replications
    cells = [(kind, n) for kind in cfg.priors for n in cfg.sample_sizes]
    keys = [(kind, n, j) for kind, n in cells for j in range(m)]
    w = min(n_jobs, sampler._usable_cpus(), len(keys))
    use_pool = fit_fn is None and w > 1
    fit_fn = fit_fn or fit_replicate

    fits: dict[tuple, ReplicateFit] = {}
    with ProcessPoolExecutor(max_workers=w) if use_pool else nullcontext() as pool:
        if use_pool:
            calls = [pool.submit(_fit_one, cfg, *key, fit_fn).result for key in keys]
        else:
            calls = [partial(_fit_one, cfg, *key, fit_fn) for key in keys]
        for (kind, n, j), call in zip(keys, calls):
            try:
                fits[(kind, n, j)] = call()
            except Exception as exc:
                raise RuntimeError(
                    f"replicate {j} failed for prior={kind.value}, n={n}: {exc}"
                ) from exc
            _maybe_progress(progress, kind, n, j, m)

    rows: list[CellStats] = []
    estimates: dict[tuple, np.ndarray] = {}
    for kind, n in cells:
        cell_fits = [fits[(kind, n, j)] for j in range(m)]
        for param in ("beta", "alpha"):
            stats = [getattr(f, param) for f in cell_fits]
            est = np.array([s.mean for s in stats])
            truth = getattr(cfg.true_params, param)
            rows.append(
                CellStats(
                    prior=kind,
                    n=n,
                    parameter=param,
                    mean=float(est.mean()),
                    sd=float(np.mean([s.sd for s in stats])),
                    ci_low=float(np.mean([s.ci_low for s in stats])),
                    ci_high=float(np.mean([s.ci_high for s in stats])),
                    bias=bias(est, truth),
                    rmse=rmse(est, truth),
                    accept_rate=float(np.mean([f.accept_rate for f in cell_fits])),
                    psrf=float(np.mean([getattr(f, "psrf_" + param) for f in cell_fits])),
                )
            )
            estimates[(kind.value, n, param)] = est
    return SimReport(config=cfg, rows=tuple(rows), estimates=estimates)


def _maybe_progress(progress: bool, kind: PriorKind, n: int, j: int, m: int) -> None:
    if progress and (j + 1 == m or (j + 1) % 10 == 0):
        print(
            f"[simulate] prior={kind.value} n={n}: replicate {j + 1}/{m}",
            file=sys.stderr,
            flush=True,
        )
