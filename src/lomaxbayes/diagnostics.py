"""Posterior summaries, Gelman-Rubin diagnostic and latent-based outlier scores."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import Dataset
from .sampler import Chain

__all__ = [
    "SummaryStats",
    "OutlierScores",
    "summarize",
    "gelman_rubin",
    "acceptance_rate",
    "outlier_scores",
]


@dataclass(frozen=True)
class SummaryStats:
    """Mean, SD and equal-tailed 95% credible bounds of a draw vector."""

    mean: float
    sd: float
    ci_low: float
    ci_high: float


def summarize(draws) -> SummaryStats:
    """Sample mean, SD (divisor n-1) and empirical 2.5%/97.5% quantiles."""
    draws = np.asarray(draws, dtype=float).ravel()
    if draws.size < 2:
        raise ValueError("need at least 2 draws to summarize")
    lo, hi = np.quantile(draws, [0.025, 0.975])
    return SummaryStats(
        mean=float(draws.mean()),
        sd=float(draws.std(ddof=1)),
        ci_low=float(lo),
        ci_high=float(hi),
    )


def gelman_rubin(draws) -> float:
    """Potential scale reduction factor sqrt((((L-1)/L) W + B/L) / W).

    ``draws`` is a sequence of M >= 2 equal-length draw vectors, one per
    chain, such as ``[c.alpha for c in chains]``.  W is the mean
    within-chain variance (divisor L-1) and B is L times the variance of
    the chain means (divisor M-1).  Values below 1 are possible and
    reported as-is.  When every chain is constant (W = 0) the result is
    NaN if the chain means agree too (B = 0) and +inf if they differ.
    """
    rows = [np.asarray(c, dtype=float).ravel() for c in draws]
    if len(rows) < 2:
        raise ValueError("need at least 2 chains")
    if len({r.size for r in rows}) > 1:
        raise ValueError("chains have unequal lengths")
    mat = np.vstack(rows)
    length = mat.shape[1]
    if length < 2:
        raise ValueError("need at least 2 draws per chain")
    w = float(mat.var(axis=1, ddof=1).mean())
    b = length * float(mat.mean(axis=1).var(ddof=1))
    if w == 0.0:
        return math.inf if b > 0.0 else math.nan
    return math.sqrt(((length - 1) / length * w + b / length) / w)


def acceptance_rate(chain: Chain) -> float:
    """Accepted fraction of shape proposals over all iterations."""
    if chain.proposed <= 0:
        raise ValueError("chain has no proposals")
    return chain.accepted / chain.proposed


@dataclass(frozen=True)
class OutlierScores:
    """Per-observation latent-mean scores; low score + large x flags an outlier."""

    scores: np.ndarray
    flagged: np.ndarray


def outlier_scores(chains: tuple[Chain, ...], d: Dataset) -> OutlierScores:
    """Score observations by the pooled posterior mean of their latent lambda_i.

    A large observation shrinks the Gamma(alpha+1, 1 + x_i/beta) latent
    mean, so candidates sit in the low-score tail.  An observation is
    flagged when its score falls below the 5th percentile of all scores
    and x_i exceeds the 95th percentile of the data.
    """
    scores = np.mean([c.lambda_means for c in chains], axis=0)
    if scores.shape != (d.n,):
        raise ValueError(
            f"latent means have length {scores.shape[0]}, dataset has n={d.n}"
        )
    if d.n < 2:
        flagged = np.zeros(d.n, dtype=bool)
    else:
        score_cut = np.percentile(scores, 5.0)
        data_cut = np.percentile(d.x, 95.0)
        flagged = (scores < score_cut) & (d.x > data_cut)
    return OutlierScores(scores=scores, flagged=flagged)
