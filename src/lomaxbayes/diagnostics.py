"""Posterior summaries, Gelman-Rubin diagnostic and acceptance rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampler import Chain

__all__ = [
    "SummaryStats",
    "summarize",
    "gelman_rubin",
    "acceptance_rate",
]


@dataclass(frozen=True)
class SummaryStats:
    """Mean, SD and equal-tailed 95% credible bounds of a draw vector."""

    mean: float
    sd: float
    ci_low: float
    ci_high: float


def _exponent(draws: np.ndarray) -> int:
    # k with max|draw| in [2^(k-1), 2^k), or 0 if that is 0, inf or NaN.  The
    # draws times 2^-k lie in [-1, 1], exact unless they span over 300 decades,
    # where squared deviations neither overflow nor underflow
    return math.frexp(float(np.max(np.abs(draws))))[1]


def summarize(draws) -> SummaryStats:
    """Sample mean, SD (divisor n-1) and empirical 2.5%/97.5% quantiles.

    They are computed on the draws times 2^-k and multiplied back by 2^k
    (see ``_exponent``), so draws on a scale of 1e-300 or 1e300 keep their
    spread, and the bits are those of the unscaled computation wherever it
    neither overflows nor underflows.
    """
    draws = np.asarray(draws, dtype=float).ravel()
    if draws.size < 2:
        raise ValueError("need at least 2 draws to summarize")
    k = _exponent(draws)
    draws = np.ldexp(draws, -k)
    stats = [draws.mean(), draws.std(ddof=1), *np.quantile(draws, [0.025, 0.975])]
    return SummaryStats(*np.ldexp(stats, k).tolist())


def gelman_rubin(draws) -> float:
    """Potential scale reduction factor sqrt((((L-1)/L) W + B/L) / W).

    ``draws`` is a sequence of M >= 2 equal-length draw vectors, one per
    chain, such as ``[c.alpha for c in chains]``.  W is the mean
    within-chain variance (divisor L-1) and B is L times the variance of
    the chain means (divisor M-1).  Values below 1 are possible and
    reported as-is.  When every chain is constant (W = 0) the result is
    NaN if the chain means agree too (B = 0) and +inf if they differ.
    The ratio is scale-free, so it is computed on the draws times 2^-k
    (see ``_exponent``): draws on a scale of 1e-300 or 1e300 give the PSRF
    of the same draws near 1.
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
    mat = np.ldexp(mat, -_exponent(mat))
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
