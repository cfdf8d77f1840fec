"""Objective priors for the Lomax model and the joint log posterior.

Two unnormalized priors on (beta, alpha); log densities pin their constant to 0:

* dependent Jeffreys:  1 / (beta (alpha+1) alpha^(1/2) (alpha+2)^(1/2))
* reference (beta of interest, alpha nuisance):  1 / (alpha beta), also the
  independence Jeffreys prior.  Its posterior is improper as beta -> inf at
  every n, which ``check_propriety`` does not check.

``fisher_information`` and ``fisher_inverse`` return the information of n
observations and its closed-form inverse as symmetric float64 (2, 2)
arrays in (beta, alpha) order; the dependent Jeffreys density is
proportional to the square root of the information's determinant.
``check_propriety`` is the one propriety rule, derived from each prior's
exponent nu in pi(alpha) ~ alpha^nu as alpha -> 0 (``_NU``).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .distribution import Dataset, LomaxParams, _check_count

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
    """The posterior is improper: an observation is 0, or n is too small for the prior."""


class PriorKind(enum.Enum):
    """Selector between the two objective priors."""

    JEFFREYS_DEPENDENT = "jeffreys"
    REFERENCE = "reference"


def fisher_information(p: LomaxParams, n: int = 1) -> np.ndarray:
    """Fisher information n * [[a/(b^2(a+2)), -1/(b(a+1))], [., 1/a^2]] in (beta, alpha).

    A symmetric float64 (2, 2) array.  n is a count of observations: an
    integer >= 1 (a numpy integer too); 2.5 raises ``TypeError``.
    """
    n = _check_count("n", n)
    b, a = p.beta, p.alpha
    i12 = -n / (b * (a + 1.0))
    return np.array([[n * a / (b * b * (a + 2.0)), i12], [i12, n / (a * a)]])


def fisher_inverse(p: LomaxParams, n: int = 1) -> np.ndarray:
    """Closed-form inverse of :func:`fisher_information`, a symmetric (2, 2) array.

    (1/n) * [[b^2(a+2)(a+1)^2/a, b a (a+2)(a+1)], [., a^2(a+1)^2]]; the
    product with the information matrix is the identity exactly.
    """
    n = _check_count("n", n)
    b, a = p.beta, p.alpha
    i11 = b * b * (a + 2.0) * (a + 1.0) ** 2 / (a * n)
    i12 = b * a * (a + 2.0) * (a + 1.0) / n
    return np.array([[i11, i12], [i12, a * a * (a + 1.0) ** 2 / n]])


def _check_kind(kind) -> None:
    if not isinstance(kind, PriorKind):
        raise TypeError(f"prior must be a PriorKind, got {kind!r}")


def log_prior_alpha(kind: PriorKind, a: float) -> float:
    """The shape factor of the log prior; every prior's scale factor is -log(beta)."""
    if kind is PriorKind.JEFFREYS_DEPENDENT:
        return -math.log(a + 1.0) - 0.5 * math.log(a) - 0.5 * math.log(a + 2.0)
    _check_kind(kind)  # a label such as "jeffreys" must not pass for 1/(alpha beta)
    return -math.log(a)


# nu, the exponent of each shape factor pi(alpha) ~ alpha^nu as alpha -> 0
_NU = {PriorKind.JEFFREYS_DEPENDENT: -0.5, PriorKind.REFERENCE: -1.0}


def log_prior(kind: PriorKind, p: LomaxParams) -> float:
    """Unnormalized log prior density, additive constant fixed at 0."""
    return -math.log(p.beta) + log_prior_alpha(kind, p.alpha)


def check_propriety(kind: PriorKind, n: int, zeros: int = 0) -> None:
    """Raise :class:`ImproperPosteriorError` unless the posterior is proper as beta -> 0.

    Of the n observations, ``zeros`` are 0.  As t = log beta -> -inf the
    posterior of t goes as e^(zeros |t|) |t|^-(n + 1 + nu), so it is proper
    there iff zeros = 0 and n + nu > 0.  A ``kind`` that is not a
    :class:`PriorKind` raises ``TypeError``; n and ``zeros`` are counts
    (integers >= 0, not bools), else ``TypeError`` or ``ValueError``.
    """
    _check_kind(kind)
    n, zeros = _check_count("n", n, least=0), _check_count("zeros", zeros, least=0)
    need = math.floor(-_NU[kind]) + 1  # the least n with n + nu > 0
    if zeros:
        are = "observation is" if zeros == 1 else "observations are"
        raise ImproperPosteriorError(f"improper posterior: {zeros} {are} 0, and the "
                                     "likelihood is unbounded as beta -> 0")
    if n < need:
        raise ImproperPosteriorError(f"improper posterior: prior {kind.value!r} requires "
                                     f"n >= {need}, got n={n}")


def log_likelihood(p: LomaxParams, d: Dataset) -> float:
    """Lomax log likelihood n log a - n log b - (a+1) sum log(1 + x_i/b)."""
    t = float(np.log1p(d.x / p.beta).sum())
    return d.n * (math.log(p.alpha) - math.log(p.beta)) - (p.alpha + 1.0) * t


def log_posterior(kind: PriorKind, p: LomaxParams, d: Dataset) -> float:
    """Unnormalized joint log posterior (log likelihood plus log prior); refuses an improper one."""
    check_propriety(kind, d.n, d.zeros)
    return log_likelihood(p, d) + log_prior(kind, p)
