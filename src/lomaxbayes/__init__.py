"""Objective Bayesian inference for the two-parameter Lomax distribution.

Closed-form distribution functions, Jeffreys/reference priors, a
data-augmented Metropolis-Hastings-within-Gibbs sampler, convergence
diagnostics, and a Monte Carlo bias/rmse study harness.  One chain
(``run_chain``) and its two Gibbs draws (``sample_lambda``, of the
latents over beta, and ``sample_beta``) are importable from
:mod:`lomaxbayes.sampler`.
"""

from .diagnostics import SummaryStats, acceptance_rate, gelman_rubin, summarize
from .distribution import (
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
from .priors import (
    ImproperPosteriorError,
    PriorKind,
    check_propriety,
    fisher_information,
    fisher_inverse,
    log_likelihood,
    log_posterior,
    log_prior,
)
from .sampler import (
    Chain,
    DegenerateDataError,
    McmcConfig,
    run_chains,
)
from .simulation import (
    CellStats,
    ReplicateFit,
    SimReport,
    StudyConfig,
    bias,
    fit_replicate,
    rmse,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "CellStats",
    "Chain",
    "Dataset",
    "DegenerateDataError",
    "ImproperPosteriorError",
    "LomaxParams",
    "McmcConfig",
    "PriorKind",
    "ReplicateFit",
    "SimReport",
    "StudyConfig",
    "SummaryStats",
    "acceptance_rate",
    "bias",
    "check_propriety",
    "fisher_information",
    "fisher_inverse",
    "fit_replicate",
    "gelman_rubin",
    "hazard",
    "log_likelihood",
    "log_pdf",
    "log_posterior",
    "log_prior",
    "mean",
    "median",
    "rmse",
    "run_chains",
    "run_study",
    "sample",
    "sample_hierarchical",
    "summarize",
    "survival",
    "variance",
]
