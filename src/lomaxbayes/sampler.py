"""Data-augmented Metropolis-Hastings-within-Gibbs sampler for the Lomax model.

The chain state is (alpha, beta, lambda_1..lambda_n).  Each iteration
updates, in this order:

1. ``lambda_i | alpha, beta  ~  Gamma(alpha + 1, rate 1 + x_i/beta)``,
   independently across observations, drawn as
   ``standard_gamma(alpha + 1) * 1/(1 + x_i/beta)`` into buffers that a
   chain allocates once;
2. ``beta | lambda  ~  InverseGamma(n, sum(lambda_i x_i))``, drawn as
   scale over a unit-rate gamma variate;
3. ``alpha | lambda`` by one random-walk Metropolis-Hastings step with a
   Normal(alpha, tuning^2) proposal resampled until positive.  The
   Hastings correction for that truncation is
   ``log Phi(alpha/tuning) - log Phi(proposal/tuning)``.

Chains are reproducible: chain i seeds its own generator with
``seed XOR (i+1)``, so results do not depend on execution order.

The latent draw equals ``rng.gamma(alpha + 1, 1/rate)`` bit for bit and
leaves the generator in the same state: numpy's ``Generator.gamma(shape,
scale)`` computes ``scale * standard_gamma(shape)`` element by element from
the same stream, and the scale ``1/(1 + x_i/beta)`` is computed with the
same operations in the same order.  So an iteration allocates no length-n
array without changing any draw.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .distribution import Dataset
from .priors import PriorKind, check_propriety, log_prior_alpha

__all__ = [
    "AugmentedState",
    "McmcConfig",
    "Chain",
    "ChainSet",
    "DegenerateDataError",
    "sample_lambda",
    "sample_beta",
    "log_alpha_conditional",
    "mh_step_alpha",
    "run_chain",
    "run_chains",
]

_SEED_MASK = (1 << 64) - 1

# Fewest iterations per chain at which run_chains forks worker processes: a
# fork costs 15-30 ms and each forked chain's result is pickled back, so
# short chains run faster one after another.  Forked / serial speed-up,
# 2 chains, dependent Jeffreys, 2-core VM, median of 7 interleaved runs:
#
#       iterations   250    500    1000   2000   4000
#       n = 50       0.46   0.63   0.76   1.19   1.63
#       n = 500      0.69   1.06   1.36   1.48   1.72
#
# A larger n only lowers the crossover.
_FORK_MIN_ITERATIONS = 2000


class DegenerateDataError(ValueError):
    """All observations are zero, so the scale conditional is degenerate."""


@dataclass
class AugmentedState:
    """Current (alpha, beta, lambda) of the augmented chain."""

    alpha: float
    beta: float
    lam: np.ndarray

    def __post_init__(self):
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        self.lam = np.asarray(self.lam, dtype=float)
        if not math.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not math.isfinite(self.beta) or self.beta <= 0.0:
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if self.lam.ndim != 1 or self.lam.size < 1:
            raise ValueError("lam must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.lam)) or np.any(self.lam <= 0.0):
            raise ValueError("all lambda components must be positive and finite")


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
    init_alpha: float | None = None
    init_beta: float | None = None
    store_lambda_traces: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if not (math.isfinite(self.tuning) and self.tuning > 0.0):
            raise ValueError("tuning must be positive and finite")
        for name in ("init_alpha", "init_beta"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite when given")
        if self.retained < 1:
            raise ValueError("no retained draws: need iterations - burn_in >= thin")

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
    seed: int
    config: McmcConfig
    lambda_draws: np.ndarray | None = None

    @property
    def draws(self) -> np.ndarray:
        """Retained (alpha, beta) pairs, shape (retained, 2)."""
        return np.column_stack([self.alpha, self.beta])


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
    state: AugmentedState,
    d: Dataset,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """One Gibbs draw of all latents: lambda_i ~ Gamma(alpha+1, 1 + x_i/beta).

    Drawn as ``standard_gamma(alpha+1) * 1/(1 + x_i/beta)``.  The scale
    goes into ``work`` and the draw into ``out``, which is returned; both
    are length-n float arrays and are allocated when not given.  The bits
    equal ``rng.gamma(alpha+1, 1/(1 + x/beta))``, which numpy computes as
    the same product, and the generator ends in the same state.
    """
    if out is None:
        out = np.empty(d.n)
    if work is None:
        work = np.empty(d.n)
    np.divide(d.x, state.beta, out=work)
    work += 1.0
    np.divide(1.0, work, out=work)
    rng.standard_gamma(state.alpha + 1.0, out=out)
    out *= work
    return out


def sample_beta(state: AugmentedState, d: Dataset, rng: np.random.Generator) -> float:
    """One Gibbs draw of the scale: beta ~ InverseGamma(n, sum(lambda_i x_i))."""
    s = float(state.lam @ d.x)
    if s <= 0.0:
        raise DegenerateDataError(
            "sum(lambda_i * x_i) is zero; the scale conditional needs at least one x_i > 0"
        )
    return s / float(rng.gamma(d.n))


def _log_alpha_conditional(kind: PriorKind, alpha: float, n: int, sum_log_lam: float) -> float:
    return -n * math.lgamma(alpha) + (alpha - 1.0) * sum_log_lam + log_prior_alpha(kind, alpha)


def log_alpha_conditional(kind: PriorKind, alpha: float, lam) -> float:
    """Unnormalized log complete conditional of the shape given the latents.

        -n log Gamma(a) + (a-1) sum log lambda_i + log_prior_alpha(kind, a)
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    lam = np.asarray(lam, dtype=float)
    return _log_alpha_conditional(kind, float(alpha), lam.size, float(np.log(lam).sum()))


def _truncation_log_correction(current: float, proposal: float, tuning: float) -> float:
    # Hastings ratio of the positive-truncated normal proposal densities.
    return float(log_ndtr(current / tuning) - log_ndtr(proposal / tuning))


def _mh_step_alpha(
    current: float,
    kind: PriorKind,
    n: int,
    sum_log_lam: float,
    tuning: float,
    rng: np.random.Generator,
) -> tuple[float, bool]:
    while True:
        proposal = current + rng.normal(0.0, tuning)
        if proposal > 0.0:
            break
    log_ratio = (
        _log_alpha_conditional(kind, proposal, n, sum_log_lam)
        - _log_alpha_conditional(kind, current, n, sum_log_lam)
        + _truncation_log_correction(current, proposal, tuning)
    )
    # u in (0, 1]: log(1) = 0 keeps "ratio 0 => always accept" exact
    if math.log(1.0 - rng.random()) <= log_ratio:
        return proposal, True
    return current, False


def mh_step_alpha(
    current: float,
    kind: PriorKind,
    lam,
    tuning: float,
    rng: np.random.Generator,
) -> tuple[float, bool]:
    """One Metropolis-Hastings update of the shape; returns (alpha, accepted)."""
    if current <= 0.0:
        raise ValueError("current alpha must be > 0")
    lam = np.asarray(lam, dtype=float)
    return _mh_step_alpha(
        float(current), kind, lam.size, float(np.log(lam).sum()), float(tuning), rng
    )


def run_chain(d: Dataset, kind: PriorKind, cfg: McmcConfig, chain_index: int = 0) -> Chain:
    """Run one chain of the Gibbs sampler and return its retained draws.

    Deterministic given (cfg.seed, chain_index).  Initial alpha and beta
    are unit-exponential draws unless pinned in the config.
    """
    check_propriety(kind, d.n)
    if not np.any(d.x > 0.0):
        raise DegenerateDataError("all observations are zero")

    seed = (cfg.seed ^ (chain_index + 1)) & _SEED_MASK
    rng = np.random.default_rng(seed)
    alpha0 = cfg.init_alpha if cfg.init_alpha is not None else float(rng.gamma(1.0))
    beta0 = cfg.init_beta if cfg.init_beta is not None else float(rng.gamma(1.0))
    state = AugmentedState(alpha=alpha0, beta=beta0, lam=np.ones(d.n))
    # the latents and a scratch vector live in these two buffers for the
    # whole chain; retained draws are copied out of them
    lam, work = state.lam, np.empty(d.n)

    retained = cfg.retained
    alpha_out = np.empty(retained)
    beta_out = np.empty(retained)
    lam_sum = np.zeros(d.n)
    lam_trace = np.empty((retained, d.n)) if cfg.store_lambda_traces else None
    accepted = 0
    k = 0

    n, burn_in, thin, tuning = d.n, cfg.burn_in, cfg.thin, cfg.tuning
    for it in range(cfg.iterations):
        sample_lambda(state, d, rng, out=lam, work=work)
        state.beta = sample_beta(state, d, rng)
        sum_log_lam = float(np.log(lam, out=work).sum())
        state.alpha, acc = _mh_step_alpha(state.alpha, kind, n, sum_log_lam, tuning, rng)
        accepted += acc
        if it >= burn_in and (it - burn_in + 1) % thin == 0:
            alpha_out[k] = state.alpha
            beta_out[k] = state.beta
            lam_sum += lam
            if lam_trace is not None:
                lam_trace[k] = lam
            k += 1

    assert k == retained
    return Chain(
        alpha=alpha_out,
        beta=beta_out,
        lambda_means=lam_sum / retained,
        accepted=accepted,
        proposed=cfg.iterations,
        chain_index=chain_index,
        seed=seed,
        config=cfg,
        lambda_draws=lam_trace,
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
