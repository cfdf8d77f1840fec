"""Data-augmented Metropolis-Hastings-within-Gibbs sampler for the Lomax model.

The chain state is (alpha, beta, lambda_1..lambda_n).  ``run_chain`` keeps
it in local variables and hands each stage plain values; each iteration
updates, in this order:

1. ``lambda_i | alpha, beta  ~  Gamma(alpha + 1, rate 1 + x_i/beta)``,
   independently across observations, drawn as
   ``standard_gamma(alpha + 1) * 1/(1 + x_i/beta)`` into buffers that a
   chain allocates once;
2. ``beta | lambda  ~  InverseGamma(n, sum(lambda_i x_i))``, drawn as
   that sum over a unit-rate Gamma(n) variate;
3. ``alpha | lambda`` by one random-walk Metropolis-Hastings step with a
   Normal(alpha, tuning^2) proposal resampled until positive.  The
   Hastings correction for that truncation is
   ``log Phi(alpha/tuning) - log Phi(proposal/tuning)``.  The chain
   carries ``-n log Gamma(alpha)``, the log prior and ``log Phi(alpha/tuning)``
   of its current alpha from step to step and computes them only for a
   proposal; alpha changes on a minority of steps.

``log Phi(z)`` is ``log1p(-erfc(z/sqrt 2)/2)`` from the standard library,
on the one domain used, z = alpha/tuning > 0.  There Phi is in (1/2, 1],
so ``log1p`` keeps full precision, and the value is within 2.2e-16 of
``scipy.special.log_ndtr``.  It enters only the MH log ratio, so a step
could decide otherwise only if log u fell that close to the ratio; the
tests' bitwise comparison with a ``log_ndtr`` chain finds no such step.

Chain i of master seed s draws from ``SeedSequence(s, spawn_key=(i,))``,
child i of ``SeedSequence(s).spawn``, so no chain depends on execution order
and distinct master seeds give independent streams.  From that generator
a chain draws, in this order:

- the initial alpha and then beta, each ``gamma(1.0)``;
- at iterations 0, 1024, 2048, ... a block of 1024 unit-rate Gamma(n)
  variates (step 2), then 1024 standard normals (the first proposal
  increment of step 3), then 1024 uniforms u, kept as ``log1p(-u)``
  in (-inf, 0] for step 3's acceptance test;
- within each iteration, the n latents of step 1 and, only while a
  proposal is not positive, one more standard normal per redraw.

One numpy call per block in place of three per iteration removes most of
the per-call cost of the scalar draws at small n.  The last block is
drawn whole even when the chain ends inside it, so a chain of T
iterations is a prefix of every longer chain with the same seed and chain
index.

The latent draw equals ``rng.gamma(alpha + 1, 1/rate)`` bit for bit and
leaves the generator in the same state: numpy's ``Generator.gamma(shape,
scale)`` computes ``scale * standard_gamma(shape)`` element by element from
the same stream, and the scale ``1/(1 + x_i/beta)`` is computed with the
same operations in the same order.  So an iteration allocates no length-n
array without changing any draw.  The scale stays ``1/(1 + x_i/beta)``
rather than the equal ``beta/(beta + x_i)``: where ``x_i/beta``
overflows, the first is 0, so the latent and then sum(lambda_i x_i) are
0 and ``sample_beta`` raises ``DegenerateDataError`` (``fit`` on
``[0]*99 + [1.0]`` exits 3), while the second stays positive and lets
such a chain run on.  Which of the two is right belongs with moving the
scale to log beta, not with the order of the draws.

Each stage uses the numpy call with the least per-call cost among those
that give the same bits:

- ``np.reciprocal(w)`` for ``1.0 / w``: both are one correctly rounded
  IEEE division per element;
- ``lam.dot(x)`` for ``lam @ x``: both reach the same BLAS dot product
  for two 1-D float arrays;
- ``np.add.reduce(v)`` for ``v.sum()``: the method calls the same
  pairwise reduction.

``w += 1.0`` stays as it is: ``np.add(w, 1.0, out=w)`` gives the same bits
but costs more per call.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distribution import Dataset, _check_integer, _check_positive_finite
from .priors import PriorKind, check_propriety, log_prior_alpha

__all__ = [
    "McmcConfig",
    "Chain",
    "ChainSet",
    "DegenerateDataError",
    "sample_lambda",
    "sample_beta",
    "run_chain",
    "run_chains",
]

# Fewest iterations per chain at which run_chains forks worker processes: a
# fork costs 15-30 ms and each forked chain's result is pickled back, so
# short chains run faster one after another.  Forked / serial speed-up,
# 2 chains, dependent Jeffreys, burn-in 10%, 2-core VM, median of 7
# interleaved runs:
#
#       iterations   250    500    1000   2000   4000
#       n = 50       0.52   0.61   0.92   1.12   1.36
#       n = 500      0.79   0.97   1.41   1.60   1.54
#
# A larger n only lowers the crossover.
_FORK_MIN_ITERATIONS = 2000

# Iterations whose scalar variates run_chain draws in one call each
_BLOCK = 1024

_SQRT_HALF = math.sqrt(0.5)


class DegenerateDataError(ValueError):
    """All observations are zero, so the scale conditional is degenerate."""


@dataclass(frozen=True)
class McmcConfig:
    """Chain length, burn-in, thinning, proposal scale and seeding.

    Retained draws per chain are ``(iterations - burn_in) // thin``.
    Defaults follow the simulation-study protocol (11,000 iterations,
    burn-in 1,000, thinning 10, two chains, tuning 1).
    """

    iterations: int = 11000
    burn_in: int = 1000
    thin: int = 10
    chains: int = 2
    tuning: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "burn_in", "thin", "chains", "seed"):
            _check_integer(name, getattr(self, name))
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        _check_positive_finite("tuning", self.tuning)
        if self.seed < 0:  # SeedSequence takes non-negative integers only
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.retained < 2:  # summaries and the PSRF need 2 draws per chain
            raise ValueError(f"need >= 2 retained draws per chain, got {self.retained}")

    @property
    def retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass(frozen=True)
class Chain:
    """Post burn-in, thinned draws of one chain plus provenance.

    ``lambda_means`` holds the per-observation mean of the latent
    lambda_i over retained iterations; ``accepted``/``proposed`` count
    shape-proposals over all iterations including burn-in.
    """

    alpha: np.ndarray
    beta: np.ndarray
    lambda_means: np.ndarray
    accepted: int
    proposed: int
    chain_index: int
    config: McmcConfig


@dataclass(frozen=True)
class ChainSet:
    """Chains from one run, ordered by chain index."""

    chains: tuple[Chain, ...]

    def __post_init__(self):
        chains = tuple(self.chains)
        if len(chains) < 1:
            raise ValueError("need at least one chain")
        object.__setattr__(self, "chains", chains)

    def __len__(self) -> int:
        return len(self.chains)

    def __iter__(self):
        return iter(self.chains)

    def __getitem__(self, i) -> Chain:
        return self.chains[i]

    def parameter_matrix(self, param: str) -> np.ndarray:
        """Stack one parameter's retained draws as a (chains, length) matrix."""
        if param not in ("alpha", "beta"):
            raise ValueError(f"unknown parameter {param!r}")
        lengths = {getattr(c, param).size for c in self.chains}
        if len(lengths) != 1:
            raise ValueError("chains have unequal retained lengths")
        return np.vstack([getattr(c, param) for c in self.chains])

    def pooled(self, param: str) -> np.ndarray:
        """All chains' retained draws of one parameter, concatenated."""
        if param not in ("alpha", "beta"):
            raise ValueError(f"unknown parameter {param!r}")
        return np.concatenate([getattr(c, param) for c in self.chains])

    @property
    def lambda_means(self) -> np.ndarray:
        """Per-observation latent means pooled across chains."""
        return np.mean([c.lambda_means for c in self.chains], axis=0)


def sample_lambda(
    alpha: float,
    beta: float,
    d: Dataset,
    rng: np.random.Generator,
    out: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """One Gibbs draw of all latents: lambda_i ~ Gamma(alpha+1, 1 + x_i/beta).

    Drawn as ``standard_gamma(alpha+1) * 1/(1 + x_i/beta)``.  The scale
    goes into ``work`` and the draw into ``out``, which is returned; both
    are length-n float arrays.  The bits equal ``rng.gamma(alpha+1,
    1/(1 + x/beta))``, which numpy computes as the same product, and the
    generator ends in the same state.
    """
    np.divide(d.x, beta, out=work)
    work += 1.0
    np.reciprocal(work, out=work)
    rng.standard_gamma(alpha + 1.0, out=out)
    out *= work
    return out


def sample_beta(lam: np.ndarray, d: Dataset, g: float) -> float:
    """One Gibbs draw of the scale: beta ~ InverseGamma(n, sum(lambda_i x_i)).

    ``g`` is a unit-rate Gamma(n) variate; the draw is the sum over ``g``.
    """
    s = float(lam.dot(d.x))
    if s <= 0.0:
        raise DegenerateDataError(
            "sum(lambda_i * x_i) is zero; the scale conditional needs at least one x_i > 0"
        )
    return s / g


def _log_phi(z: float) -> float:
    # log of the standard normal CDF for z > 0 (see the module docstring)
    return math.log1p(-0.5 * math.erfc(z * _SQRT_HALF))


def _alpha_terms(kind: PriorKind, a: float, n: int, tuning: float) -> tuple[float, float, float]:
    # The parts of the shape's MH log ratio that depend on one alpha alone:
    # -n log Gamma(a), the log prior and log Phi(a/tuning).  A chain carries
    # them for its current alpha and computes them only for a proposal.
    return -n * math.lgamma(a), log_prior_alpha(kind, a), _log_phi(a / tuning)


def _log_conditional(terms: tuple[float, float, float], a: float, sum_log_lam: float) -> float:
    return terms[0] + (a - 1.0) * sum_log_lam + terms[1]


def _mh_step_alpha(
    current: float,
    terms: tuple[float, float, float],
    kind: PriorKind,
    n: int,
    sum_log_lam: float,
    tuning: float,
    z: float,
    log_u: float,
    rng: np.random.Generator,
) -> tuple[float, tuple[float, float, float], bool]:
    # terms are _alpha_terms(kind, current, n, tuning); z is the proposal's
    # first standard normal increment, later ones come from rng, and log_u
    # is log(1 - u) for a uniform u in [0, 1).  Returns the new alpha, its
    # terms and whether the proposal was accepted.
    proposal = current + tuning * z
    while proposal <= 0.0:
        proposal = current + tuning * rng.standard_normal()
    proposed = _alpha_terms(kind, proposal, n, tuning)
    log_ratio = (
        _log_conditional(proposed, proposal, sum_log_lam)
        - _log_conditional(terms, current, sum_log_lam)
        # Hastings ratio of the positive-truncated normal proposal densities
        + (terms[2] - proposed[2])
    )
    # log_u = 0 for u = 0 keeps "ratio 0 => always accept" exact
    if log_u <= log_ratio:
        return proposal, proposed, True
    return current, terms, False


def run_chain(d: Dataset, kind: PriorKind, cfg: McmcConfig, chain_index: int = 0) -> Chain:
    """Run one chain of the Gibbs sampler and return its retained draws.

    Deterministic given (cfg.seed, chain_index).  Initial alpha and then
    beta are unit-exponential draws from the chain's generator; the
    latents are drawn first, so they need no initial value.
    """
    check_propriety(kind, d.n)
    if not np.any(d.x > 0.0):
        raise DegenerateDataError("all observations are zero")

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(chain_index,)))
    alpha = float(rng.gamma(1.0))
    beta = float(rng.gamma(1.0))
    # the latents and a scratch vector live in these two buffers for the
    # whole chain; retained draws are copied out of them
    lam, work = np.empty(d.n), np.empty(d.n)

    retained = cfg.retained
    alpha_out = np.empty(retained)
    beta_out = np.empty(retained)
    lam_sum = np.zeros(d.n)
    accepted = 0
    k = 0

    n, burn_in, thin, tuning = d.n, cfg.burn_in, cfg.thin, cfg.tuning
    terms = _alpha_terms(kind, alpha, n, tuning)
    for start in range(0, cfg.iterations, _BLOCK):
        # whole blocks, even the last: a chain is a prefix of a longer one
        gammas = rng.standard_gamma(n, _BLOCK).tolist()
        normals = rng.standard_normal(_BLOCK).tolist()
        log_us = np.log1p(-rng.random(_BLOCK)).tolist()
        for it, g, z, log_u in zip(range(start, cfg.iterations), gammas, normals, log_us):
            sample_lambda(alpha, beta, d, rng, lam, work)
            beta = sample_beta(lam, d, g)
            sum_log_lam = float(np.add.reduce(np.log(lam, out=work)))
            alpha, terms, acc = _mh_step_alpha(
                alpha, terms, kind, n, sum_log_lam, tuning, z, log_u, rng
            )
            accepted += acc
            if it >= burn_in and (it - burn_in + 1) % thin == 0:
                alpha_out[k] = alpha
                beta_out[k] = beta
                lam_sum += lam
                k += 1

    assert k == retained
    return Chain(
        alpha=alpha_out,
        beta=beta_out,
        lambda_means=lam_sum / retained,
        accepted=accepted,
        proposed=cfg.iterations,
        chain_index=chain_index,
        config=cfg,
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _chain_task(d: Dataset, kind: PriorKind, cfg: McmcConfig, chain_index: int) -> Chain:
    # A pool pickles its task by name, and run_chain may have been replaced
    # by a wrapper (a tracer, a test's patch) that cannot be pickled.
    return run_chain(d, kind, cfg, chain_index)


def run_chains(d: Dataset, kind: PriorKind, cfg: McmcConfig) -> ChainSet:
    """Run ``cfg.chains`` independent chains; result is ordered by chain index.

    With w = min(chains, usable CPUs) > 1 and at least
    ``_FORK_MIN_ITERATIONS`` iterations per chain, w - 1 forked worker
    processes run the chains with ``i % w != 0`` while the caller runs the
    others.  Otherwise, and in a worker process or a process with other
    threads, the chains run one after another.  Each chain owns its
    generator, so the output is the same either way, and an error is the
    one a serial run raises first.
    """
    check_propriety(kind, d.n)
    indices = range(cfg.chains)
    w = min(cfg.chains, _usable_cpus())
    if (
        w < 2
        or cfg.iterations < _FORK_MIN_ITERATIONS
        # a pool's worker (run_study's) runs its chains itself
        or multiprocessing.parent_process() is not None
        # a fork copies no thread but every lock another thread may hold
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return ChainSet(tuple(run_chain(d, kind, cfg, i) for i in indices))
    with ProcessPoolExecutor(max_workers=w - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        forked = {i: pool.submit(_chain_task, d, kind, cfg, i) for i in indices if i % w}
        chains = [forked[i].result() if i in forked else run_chain(d, kind, cfg, i) for i in indices]
    return ChainSet(tuple(chains))
