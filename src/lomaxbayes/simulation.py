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
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .diagnostics import SummaryStats, acceptance_rate, gelman_rubin, summarize
from .distribution import Dataset, LomaxParams, _check_count, sample
from .priors import PriorKind, check_propriety
from . import sampler
from .sampler import Chain, McmcConfig, run_chains

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

@dataclass(frozen=True)
class StudyConfig:
    """True parameters, design grid and MCMC settings of one study.

    ``mcmc.seed`` is ignored: each replicate's chains get a master seed
    derived from ``seed``, the prior, n and the replicate index.

    ``replications``, ``seed`` and each sample size are counts as in
    :class:`McmcConfig`: integers >= 1 (>= 0 for ``seed``).  ``sample_sizes``
    and ``priors`` are each a non-empty sequence of distinct items.
    """

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
        if not isinstance(self.true_params, LomaxParams):
            raise TypeError(f"true_params must be a LomaxParams, got {self.true_params!r}")
        sizes = _design_axis("sample_sizes", self.sample_sizes, "integers", _check_count)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "priors", _design_axis("priors", self.priors, "PriorKind"))
        object.__setattr__(self, "replications", _check_count("replications", self.replications))
        object.__setattr__(self, "seed", _check_count("seed", self.seed, least=0))
        # a size below 1 is no dataset, so it was refused above, not as improper
        for kind in self.priors:
            check_propriety(kind, min(self.sample_sizes))


def _design_axis(name: str, values, of: str, check=lambda name, value: value) -> tuple:
    """One axis of the study grid: a non-empty sequence of distinct items, each ``check``-ed."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise TypeError(f"{name} must be a sequence of {of}, got {values!r}")
    items = tuple(check(name, v) for v in values)
    if not items:
        raise ValueError(f"{name} must be non-empty")
    # a repeated cell would fit every replicate and write its rows again
    if len(set(items)) < len(items):
        raise ValueError(f"{name} must be distinct, got {items}")
    return items


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
    """One report row: a (prior, n, parameter) cell aggregated over replicates.

    Its fields are the report's columns; after the labels come the replicates'
    means of the :class:`SummaryStats` fields, in that class's order.
    """

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


CSV_COLUMNS = ",".join(f.name for f in fields(CellStats))


@dataclass(frozen=True)
class SimReport:
    """All cell rows plus the raw per-replicate estimates behind them."""

    config: StudyConfig
    rows: tuple[CellStats, ...]
    estimates: dict

    def to_csv(self, fh) -> None:
        """Write the header and rows as CSV to the writable text file ``fh``."""
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
    return [r.prior.value, str(r.n), r.parameter] + [fmt(getattr(r, f.name)) for f in fields(r)[3:]]


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


def summarize_chains(chains: tuple[Chain, ...]) -> ReplicateFit:
    """Summaries of the pooled draws, mean acceptance rate and, with 2+ chains, PSRF."""
    betas, alphas = [c.beta for c in chains], [c.alpha for c in chains]
    multi = len(chains) >= 2
    return ReplicateFit(
        beta=summarize(np.concatenate(betas)),
        alpha=summarize(np.concatenate(alphas)),
        accept_rate=float(np.mean([acceptance_rate(c) for c in chains])),
        psrf_beta=gelman_rubin(betas) if multi else float("nan"),
        psrf_alpha=gelman_rubin(alphas) if multi else float("nan"),
    )


def fit_replicate(d: Dataset, kind: PriorKind, mcmc: McmcConfig) -> ReplicateFit:
    """Fit one dataset with the Gibbs sampler and summarize the pooled draws."""
    return summarize_chains(run_chains(d, kind, mcmc))


def _fit_one(cfg: StudyConfig, fit_fn, key: tuple[PriorKind, int, int]) -> ReplicateFit:
    """Replicate j of cell (kind, n): draw its dataset and seed its chains, then fit."""
    kind, n, j = key
    rng = np.random.default_rng(_dataset_seed(cfg.seed, n, j))
    d = sample(cfg.true_params, rng, n)
    mcmc = replace(cfg.mcmc, seed=_mcmc_seed(cfg.seed, kind, n, j))
    return fit_fn(d, kind, mcmc)


def run_study(
    cfg: StudyConfig,
    *,
    fit_fn=None,
    n_jobs: int | None = None,
    progress: bool = False,
) -> SimReport:
    """Run the full study and aggregate a :class:`SimReport`.

    ``fit_fn(dataset, kind, mcmc) -> ReplicateFit`` replaces the Gibbs
    fit when given (stubs for harness tests); custom fit functions run
    serially.  Otherwise the replicates go through ``sampler._fork_map`` on
    w = ``sampler._fork_width(k)`` processes, for k replicates capped at
    ``n_jobs`` if given: with w > 1 the caller fits replicate 0 and forks
    w - 1 workers, and each process runs its replicates' chains one after
    another; with w = 1 the caller fits every replicate, and each fit may
    fork its chains.  Either way the results are taken in (prior, n, j)
    order, and the first failed replicate ends the study: no replicate
    after it is started.
    """
    if n_jobs is not None:
        n_jobs = _check_count("n_jobs", n_jobs)
    m = cfg.replications
    cells = [(kind, n) for kind in cfg.priors for n in cfg.sample_sizes]
    keys = [(kind, n, j) for kind, n in cells for j in range(m)]
    w = 1 if fit_fn is not None else sampler._fork_width(min(len(keys), n_jobs or len(keys)))
    fit = partial(_fit_one, cfg, fit_fn or fit_replicate)

    fits: list[ReplicateFit] = []
    results = sampler._fork_map(fit, keys, w)
    for kind, n, j in keys:
        try:
            fits.append(next(results))
        except Exception as exc:
            raise RuntimeError(
                f"replicate {j} failed for prior={kind.value}, n={n}: {exc}"
            ) from exc
        if progress and (j + 1 == m or (j + 1) % 10 == 0):
            print(f"[simulate] prior={kind.value} n={n}: replicate {j + 1}/{m}",
                  file=sys.stderr, flush=True)

    rows: list[CellStats] = []
    estimates: dict[tuple, np.ndarray] = {}
    for c, (kind, n) in enumerate(cells):
        cell_fits = fits[c * m:(c + 1) * m]
        for param in ("beta", "alpha"):
            stats = [getattr(f, param) for f in cell_fits]
            est = np.array([s.mean for s in stats])
            truth = getattr(cfg.true_params, param)
            means = {column.name: float(np.mean([getattr(s, column.name) for s in stats]))
                     for column in fields(SummaryStats)}
            rows.append(CellStats(
                prior=kind, n=n, parameter=param, **means,
                bias=bias(est, truth), rmse=rmse(est, truth),
                accept_rate=float(np.mean([f.accept_rate for f in cell_fits])),
                psrf=float(np.mean([getattr(f, "psrf_" + param) for f in cell_fits])),
            ))
            estimates[(kind.value, n, param)] = est
    return SimReport(config=cfg, rows=tuple(rows), estimates=estimates)
