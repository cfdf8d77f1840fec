"""Objective priors for the Lomax model and the joint log posterior.

Three unnormalized priors on (beta, alpha):

* dependent Jeffreys:    1 / (beta (alpha+1) alpha^(1/2) (alpha+2)^(1/2))
* independent Jeffreys:  1 / (alpha beta)
* reference (beta of interest, alpha nuisance):  1 / (alpha beta)

The independent-Jeffreys and reference priors share one density but are
kept as distinct labels so reports can name whichever was requested.
All log densities pin their additive constant to 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .distribution import Dataset, LomaxParams

__all__ = [
    "PriorKind",
    "FisherMatrix",
    "ImproperPosteriorError",
    "fisher_information",
    "fisher_inverse",
    "log_prior",
    "log_prior_alpha",
    "log_likelihood",
    "log_posterior",
    "min_sample_size",
    "check_propriety",
]


class ImproperPosteriorError(ValueError):
    """The requested prior yields an improper posterior at this sample size."""


class PriorKind(enum.Enum):
    """Selector among the three objective priors."""

    JEFFREYS_DEPENDENT = "jeffreys"
    JEFFREYS_INDEPENDENT = "jeffreys-indep"
    REFERENCE = "reference"


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetric 2x2 information matrix in (beta, alpha) coordinates.

    Entries already include the sample-size factor ``n`` recorded alongside.
    """

    i11: float
    i12: float
    i22: float
    n: int = 1

    @property
    def det(self) -> float:
        return self.i11 * self.i22 - self.i12 * self.i12

    def as_array(self) -> np.ndarray:
        return np.array([[self.i11, self.i12], [self.i12, self.i22]])


def fisher_information(p: LomaxParams, n: int = 1) -> FisherMatrix:
    """Fisher information n * [[a/(b^2(a+2)), -1/(b(a+1))], [., 1/a^2]]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    b, a = p.beta, p.alpha
    return FisherMatrix(
        i11=n * a / (b * b * (a + 2.0)),
        i12=-n / (b * (a + 1.0)),
        i22=n / (a * a),
        n=int(n),
    )


def fisher_inverse(p: LomaxParams, n: int = 1) -> FisherMatrix:
    """Closed-form inverse of :func:`fisher_information`.

    (1/n) * [[b^2(a+2)(a+1)^2/a, b a (a+2)(a+1)], [., a^2(a+1)^2]]; the
    product with the information matrix is the identity exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b, a = p.beta, p.alpha
    return FisherMatrix(
        i11=b * b * (a + 2.0) * (a + 1.0) ** 2 / (a * n),
        i12=b * a * (a + 2.0) * (a + 1.0) / n,
        i22=a * a * (a + 1.0) ** 2 / n,
        n=int(n),
    )


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


def min_sample_size(kind: PriorKind) -> int:
    """Smallest n that :func:`check_propriety` accepts under ``kind``.

    The 1/(alpha beta) priors need n >= 2, though their posterior is improper
    at every n; the dependent Jeffreys prior runs from n = 1.
    """
    return 1 if kind is PriorKind.JEFFREYS_DEPENDENT else 2


def check_propriety(kind: PriorKind, n: int) -> None:
    """Raise :class:`ImproperPosteriorError` when n is below :func:`min_sample_size`.

    Raises ``TypeError`` when ``kind`` is not a :class:`PriorKind`.
    """
    _check_kind(kind)
    need = min_sample_size(kind)
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
