"""Objective priors for the Lomax model and the joint log posterior.

Three unnormalized priors on (beta, alpha):

* dependent Jeffreys:    1 / (beta (alpha+1) alpha^(1/2) (alpha+2)^(1/2))
* independent Jeffreys:  1 / (alpha beta)
* reference (beta of interest, alpha nuisance):  1 / (alpha beta)

The independent-Jeffreys and reference priors share one density but are
kept as distinct labels so reports can name whichever was requested.
All log densities pin their additive constant to 0.

``fisher_information`` and ``fisher_inverse`` return the information of n
observations and its closed-form inverse as symmetric float64 (2, 2)
arrays in (beta, alpha) order; the dependent Jeffreys density is
proportional to the square root of the information's determinant.
``check_propriety`` is the one statement of the smallest n each prior
accepts.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .distribution import Dataset, LomaxParams

__all__ = [
    "PriorKind",
    "ImproperPosteriorError",
    "fisher_information",
    "fisher_inverse",
    "log_prior",
    "log_prior_alpha",
    "log_likelihood",
    "log_posterior",
    "check_propriety",
]


class ImproperPosteriorError(ValueError):
    """The requested prior yields an improper posterior at this sample size."""


class PriorKind(enum.Enum):
    """Selector among the three objective priors."""

    JEFFREYS_DEPENDENT = "jeffreys"
    JEFFREYS_INDEPENDENT = "jeffreys-indep"
    REFERENCE = "reference"


def fisher_information(p: LomaxParams, n: int = 1) -> np.ndarray:
    """Fisher information n * [[a/(b^2(a+2)), -1/(b(a+1))], [., 1/a^2]] in (beta, alpha).

    A symmetric float64 (2, 2) array.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b, a = p.beta, p.alpha
    i12 = -n / (b * (a + 1.0))
    return np.array([[n * a / (b * b * (a + 2.0)), i12], [i12, n / (a * a)]])


def fisher_inverse(p: LomaxParams, n: int = 1) -> np.ndarray:
    """Closed-form inverse of :func:`fisher_information`, a symmetric (2, 2) array.

    (1/n) * [[b^2(a+2)(a+1)^2/a, b a (a+2)(a+1)], [., a^2(a+1)^2]]; the
    product with the information matrix is the identity exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b, a = p.beta, p.alpha
    i11 = b * b * (a + 2.0) * (a + 1.0) ** 2 / (a * n)
    i12 = b * a * (a + 2.0) * (a + 1.0) / n
    return np.array([[i11, i12], [i12, a * a * (a + 1.0) ** 2 / n]])


def _check_kind(kind) -> None:
    if not isinstance(kind, PriorKind):
        raise TypeError(f"prior must be a PriorKind, got {kind!r}")


def log_prior_alpha(kind: PriorKind, a: float) -> float:
    """The shape factor of the log prior; every prior's scale factor is -log(beta).

    Independent Jeffreys and reference share the one density 1/(alpha beta).
    """
    if kind is PriorKind.JEFFREYS_DEPENDENT:
        return -math.log(a + 1.0) - 0.5 * math.log(a) - 0.5 * math.log(a + 2.0)
    _check_kind(kind)  # a label such as "jeffreys" must not pass for 1/(alpha beta)
    return -math.log(a)


def log_prior(kind: PriorKind, p: LomaxParams) -> float:
    """Unnormalized log prior density, additive constant fixed at 0."""
    return -math.log(p.beta) + log_prior_alpha(kind, p.alpha)


def check_propriety(kind: PriorKind, n: int) -> None:
    """Raise :class:`ImproperPosteriorError` when n is below ``kind``'s minimum.

    The one statement of each prior's minimum n: the dependent Jeffreys
    prior runs from n = 1, the 1/(alpha beta) priors need n >= 2.  Passing
    this check does not make the 1/(alpha beta) posterior proper, which is
    improper at every n.  Raises ``TypeError`` when ``kind`` is not a
    :class:`PriorKind`.
    """
    _check_kind(kind)
    need = 1 if kind is PriorKind.JEFFREYS_DEPENDENT else 2
    if n < need:
        raise ImproperPosteriorError(
            f"improper posterior: prior {kind.value!r} requires n >= {need}, got n={n}"
        )


def log_likelihood(p: LomaxParams, d: Dataset) -> float:
    """Lomax log likelihood n log a - n log b - (a+1) sum log(1 + x_i/b)."""
    t = float(np.log1p(d.x / p.beta).sum())
    return d.n * (math.log(p.alpha) - math.log(p.beta)) - (p.alpha + 1.0) * t


def log_posterior(kind: PriorKind, p: LomaxParams, d: Dataset) -> float:
    """Unnormalized joint log posterior: log likelihood plus log prior.

    Fails fast when (kind, n) yields an improper posterior.
    """
    check_propriety(kind, d.n)
    return log_likelihood(p, d) + log_prior(kind, p)
