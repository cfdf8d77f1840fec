"""Effective sample size by Geyer's initial monotone sequence estimator.

Geyer (1992), "Practical Markov chain Monte Carlo", Statist. Sci. 7(4).
For a stationary chain with autocovariances g_k, the pair sums
G_m = g_{2m} + g_{2m+1} are positive and decreasing.  The estimator keeps
the initial run of positive pair sums, lowers each to the minimum of the
ones before it, and takes the asymptotic variance as -g_0 + 2 sum G_m.
ESS is then n g_0 / that variance.
"""

from __future__ import annotations

import numpy as np


def autocovariance(x) -> np.ndarray:
    """Biased (divisor n) autocovariances at lags 0..n-1, computed by FFT."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    y = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(y, size)
    return np.fft.irfft(f * np.conj(f), size)[:n] / n


def geyer_ess(x) -> float:
    """ESS of one chain.  A constant chain has no information: ESS 0."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if n < 4:
        raise ValueError("need at least 4 draws")
    g = autocovariance(x)
    if g[0] <= 0.0:
        return 0.0
    pairs = g[: n - n % 2].reshape(-1, 2).sum(axis=1)
    nonpos = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: nonpos[0] if nonpos.size else pairs.size]
    pairs = np.minimum.accumulate(pairs)
    var = -g[0] + 2.0 * pairs.sum()
    return float(n * g[0] / var)


def ess_sum(chains) -> float:
    """ESS summed over independent chains."""
    return float(sum(geyer_ess(c) for c in chains))
