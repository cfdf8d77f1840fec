"""Lomax (Pareto type II) distribution: closed forms and samplers.

The density is f(x) = (alpha/beta) * (1 + x/beta)^-(alpha+1) on x >= 0,
with shape alpha > 0 and scale beta > 0.  The same law arises as a gamma
mixture of exponentials,

    theta ~ Gamma(alpha, rate beta),    X | theta ~ Exponential(rate theta),

where theta = lambda/beta for a unit-scale lambda ~ Gamma(alpha, 1).  The
Gibbs sampler exploits it: given x, theta ~ Gamma(alpha + 1, rate beta + x).
Both samplers below draw from the identical marginal law.

All evaluations work in log space via ``log1p(x/beta)`` so accuracy is
kept for x far below or far above the scale.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LomaxParams",
    "Dataset",
    "log_pdf",
    "survival",
    "hazard",
    "median",
    "mean",
    "variance",
    "sample",
    "sample_hierarchical",
]


def _check_positive_finite(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_count(name: str, value, least: int = 1) -> int:
    # the one count rule; a float such as 2.5 would be truncated or fail inside
    # numpy or range(), and a bool is an Integral that counts nothing
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class LomaxParams:
    """Scale ``beta`` and shape ``alpha``; both strictly positive and finite."""

    beta: float
    alpha: float

    def __post_init__(self):
        for name in ("beta", "alpha"):
            value = float(getattr(self, name))
            _check_positive_finite(name, value)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Dataset:
    """An ordered sample of nonnegative, finite observations."""

    x: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float, copy=True).ravel()
        if x.size < 1:
            raise ValueError("dataset must contain at least one observation")
        if not np.all(np.isfinite(x)):
            raise ValueError("observations must be finite")
        if np.any(x < 0.0):
            raise ValueError("observations must be >= 0")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return int(self.x.size)

    @property
    def zeros(self) -> int:
        return self.n - int(np.count_nonzero(self.x))


def _as_nonneg(x):
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0):
        raise ValueError("x must be >= 0")
    return xv


def _scalar_like(x, out):
    return float(out) if np.ndim(x) == 0 else out


def log_pdf(p: LomaxParams, x) -> float | np.ndarray:
    """Log density log[(alpha/beta) (1 + x/beta)^-(alpha+1)]."""
    xv = _as_nonneg(x)
    out = (
        math.log(p.alpha)
        - math.log(p.beta)
        - (p.alpha + 1.0) * np.log1p(xv / p.beta)
    )
    return _scalar_like(x, out)


def survival(p: LomaxParams, x) -> float | np.ndarray:
    """Survival function S(x) = (1 + x/beta)^-alpha, in (0, 1]."""
    xv = _as_nonneg(x)
    out = np.exp(-p.alpha * np.log1p(xv / p.beta))
    return _scalar_like(x, out)


def hazard(p: LomaxParams, x) -> float | np.ndarray:
    """Hazard h(x) = (alpha/beta) / (1 + x/beta), strictly decreasing in x."""
    xv = _as_nonneg(x)
    out = (p.alpha / p.beta) / (1.0 + xv / p.beta)
    return _scalar_like(x, out)


def median(p: LomaxParams) -> float:
    """Median beta * (2^(1/alpha) - 1)."""
    return p.beta * math.expm1(math.log(2.0) / p.alpha)


def mean(p: LomaxParams) -> float:
    """Mean beta / (alpha - 1); requires alpha > 1."""
    if p.alpha <= 1.0:
        raise ValueError(f"mean undefined for alpha <= 1 (alpha={p.alpha})")
    return p.beta / (p.alpha - 1.0)


def variance(p: LomaxParams) -> float:
    """Variance alpha*beta^2 / ((alpha-1)^2 (alpha-2)); requires alpha > 2."""
    if p.alpha <= 2.0:
        raise ValueError(f"variance undefined for alpha <= 2 (alpha={p.alpha})")
    return p.alpha * p.beta**2 / ((p.alpha - 1.0) ** 2 * (p.alpha - 2.0))


def sample(p: LomaxParams, rng: np.random.Generator, n: int) -> Dataset:
    """Draw n i.i.d. variates by inverting the survival function.

    Uses x = beta * (u^(-1/alpha) - 1) with u ~ Uniform(0, 1], so the
    power never sees u = 0.  At u = 0.5 the draw is exactly the median.
    n is a count: an integer >= 1 (a numpy integer too); 2.5 raises
    ``TypeError`` rather than drawing 2.
    """
    u = 1.0 - rng.random(_check_count("n", n))  # in (0, 1]
    with np.errstate(over="ignore"):  # Dataset rejects the inf an overflow gives
        x = p.beta * np.expm1(-np.log(u) / p.alpha)
    return Dataset(x)


def sample_hierarchical(p: LomaxParams, rng: np.random.Generator, n: int) -> Dataset:
    """Draw n i.i.d. variates through the gamma-exponential mixture.

    lambda_i ~ Gamma(alpha, 1), then X_i | lambda_i is exponential with
    rate lambda_i/beta; marginally identical to :func:`sample`.
    """
    n = _check_count("n", n)
    lam = rng.gamma(p.alpha, 1.0, n)
    return Dataset(rng.exponential(1.0, n) * p.beta / lam)
