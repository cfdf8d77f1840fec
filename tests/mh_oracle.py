"""The shape's MH step under test, shared by the sampler tests and criteria 4 and 7.

With the latents fixed at (0.5, 2.0), the step must hold the reference
prior's shape conditional, a^-1 Gamma(a)^-2 (0.5 * 2.0)^(a-1), whose mean
comes from quadrature.  ``CHAINS`` independent chains of the step,
spawned from one ``SeedSequence``, each start at alpha = 1, discard
``BURN_IN`` steps and keep ``KEPT``.  The standard error of their grand
mean is the spread of the chain means over sqrt(CHAINS): independent
chains give it without the small-sample bias of batch means on one chain.

``ACCEPT_BRACKET`` bounds the acceptance rate of a chain at run_chain's
scale.  The sampler module docstring derives a rate of 0.56 down to 0.33,
whatever n is, over the alpha in [0.5, 5] that the tests' posteriors
visit; the bracket leaves at least 0.03 on each side for the conditional's
skew and the Monte Carlo error.
"""

import math

import numpy as np
from scipy.integrate import quad

from lomaxbayes import PriorKind
from lomaxbayes.sampler import _alpha_term, _mh_step_alpha

LAM = (0.5, 2.0)
SUM_LOG = math.fsum(math.log(v) for v in LAM)
SCALE = 1.5 / math.sqrt(len(LAM))  # run_chain's scale at this n
CHAINS, BURN_IN, KEPT = 40, 250, 5000
ACCEPT_BRACKET = (0.3, 0.6)


def target_mean() -> float:
    """Mean of the shape conditional by quadrature."""
    def dens(a):
        return math.exp(-math.log(a) - len(LAM) * math.lgamma(a) + (a - 1.0) * SUM_LOG)

    z, _ = quad(dens, 0.0, 50.0, limit=200)
    m1, _ = quad(lambda a: a * dens(a), 0.0, 50.0, limit=200)
    return m1 / z


def _chain_mean(seed: np.random.SeedSequence) -> float:
    kind, n = PriorKind.REFERENCE, len(LAM)
    rng = np.random.default_rng(seed)
    steps = BURN_IN + KEPT
    normals = rng.standard_normal(steps).tolist()
    log_us = np.log1p(-rng.random(steps)).tolist()
    alpha = 1.0
    term = _alpha_term(kind, alpha, n)
    total = 0.0
    for i in range(steps):
        alpha, term, _ = _mh_step_alpha(
            alpha, term, kind, n, SUM_LOG, SCALE, normals[i], log_us[i]
        )
        if i >= BURN_IN:
            total += alpha
    return total / KEPT


def stationary_mean(master: int = 123) -> tuple[float, float]:
    """Grand mean of the chains spawned from ``SeedSequence(master)`` and its standard error."""
    means = np.array([_chain_mean(s) for s in np.random.SeedSequence(master).spawn(CHAINS)])
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(CHAINS))
