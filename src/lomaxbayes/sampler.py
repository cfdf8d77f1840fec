"""Data-augmented Metropolis-Hastings-within-Gibbs sampler for the Lomax model.

The chain state is (alpha, beta, lambda_1..lambda_n).  ``run_chain`` keeps
it in local variables and hands each stage plain values.  It holds each
latent over the beta it was drawn with, ``u_i = lambda_i/beta``, so no
stage forms ``x_i/beta``.  Each iteration updates, in this order:

1. ``u_i | alpha, beta  ~  Gamma(alpha + 1, rate beta + x_i)``, which is
   ``lambda_i ~ Gamma(alpha + 1, rate 1 + x_i/beta)``, independently
   across observations, drawn as ``standard_gamma(alpha + 1) / (beta +
   x_i)`` into buffers that a chain allocates once;
2. ``beta | lambda  ~  InverseGamma(n, sum(lambda_i x_i))``, drawn as
   ``beta * sum(u_i x_i)`` over a unit-rate Gamma(n) variate;
3. ``alpha | lambda`` by one random-walk Metropolis-Hastings step on
   log alpha, given ``sum(log lambda_i) = n log beta + sum(log u_i)``
   for the beta of step 1: the proposal is ``alpha * exp(s * z)`` for a
   standard normal z, with ``s = 1.5/sqrt(n)``.  The walk is symmetric
   in log alpha, so the Hastings term is the Jacobian ``log(proposal /
   alpha) = s * z``, and every proposal is positive.  The chain carries
   ``-n log Gamma(alpha) + log pi(alpha)`` of its current alpha from
   step to step and computes it only for a proposal.

The scale follows from the conditional being proposed on.  Given the
latents, alpha is the shape of n unit-rate gammas, whose information is
``n psi'(alpha)``, so the conditional sd of log alpha is about
``1/(alpha sqrt(n psi'(alpha)))``: 0.90, 0.69 and 0.43 over sqrt(n) at
alpha = 0.5, 1.5 and 5.  The one-dimensional optimal random-walk scale is
2.38 sds (Roberts, Gelman & Gilks 1997), 1.0 to 2.1 over sqrt(n) across
that range; 1.5 is that scale at alpha = 1.9.  A Gaussian walk of scale s on a
Gaussian target of sd sigma accepts ``(2/pi) arctan(2 sigma/s)`` of its
proposals, here 0.33 to 0.56 whatever n is.

Chain i of master seed s draws from ``SeedSequence(s, spawn_key=(i,))``,
child i of ``SeedSequence(s).spawn``, so no chain depends on execution order
and distinct master seeds give independent streams.  From that generator
a chain draws, in this order:

- the initial alpha and then beta, each ``gamma(1.0)``;
- at iterations 0, 1024, 2048, ... a block of 1024 unit-rate Gamma(n)
  variates (step 2), then 1024 standard normals (the proposal
  increments z of step 3), then 1024 uniforms u, kept as ``log1p(-u)``
  in (-inf, 0] for step 3's acceptance test;
- within each iteration, the n latents of step 1.

One numpy call per block in place of three per iteration removes most of
the per-call cost of the scalar draws at small n.  The last block is
drawn whole even when the chain ends inside it, so a chain of T
iterations is a prefix of every longer chain with the same seed and chain
index.

The stream is the one the sampler drew when it held lambda_i itself, as
``standard_gamma(alpha + 1) * 1/(1 + x_i/beta)``, and each stage is that
stage's algebra over beta, so in exact arithmetic the chain is the same
Markov chain; only the rounding differs.  Against that lambda form (kept
as an oracle in the tests) the alpha draws and acceptance counts are the
same bit for bit, and the betas differ by at most 12 ulp over two chains
each at n = 50, 500 and 5000 of 11,000, 80,000 and 20,000 iterations.
At n = 1 the gap grows as a random walk while beta << x (65 ulp after
5,000 iterations), since each beta then passes its rounding on whole.
As x_i/beta is never formed, it cannot overflow: ``fit`` on ``1e300,
2e300, 3.0, 5.0``, whose posterior is proper as beta -> 0, runs with
beta far below 1e-8, where x_i/beta would overflow for x_i = 2e300.  A chain
raises ``DegenerateDataError`` naming its beta only where a latent u_i
or the next beta underflows to 0.  Data with a zero observation, such
as ``[0]*99 + [1.0]``, never get here: their posterior is improper, and
``check_propriety`` refuses them before any chain runs.

An iteration makes six numpy calls, each the one with the least per-call
cost among those that give the same bits:

- ``out /= work`` for ``np.divide(out, work, out=out)``: the same ufunc;
- ``u.dot(x)`` for ``u @ x``: both reach the same BLAS dot product for
  two 1-D float arrays;
- ``sum(log u_i)`` as the dot product with a ones vector that a chain
  allocates once: at n = 50 it costs half of ``np.add.reduce``, whose
  pairwise sum differs from it only in rounding.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distribution import Dataset, _check_count
from .priors import PriorKind, check_propriety, log_prior_alpha

__all__ = [
    "McmcConfig",
    "Chain",
    "DegenerateDataError",
    "sample_lambda",
    "sample_beta",
    "run_chain",
    "run_chains",
]

# Iterations whose scalar variates run_chain draws in one call each
_BLOCK = 1024


class DegenerateDataError(ValueError):
    """A chain cannot go on: a latent or the next beta underflowed to 0."""


@dataclass(frozen=True)
class McmcConfig:
    """Chain length, burn-in, thinning, number of chains and seeding.

    Retained draws per chain are ``(iterations - burn_in) // thin``.
    Defaults follow the simulation-study protocol (11,000 iterations,
    burn-in 1,000, thinning 10, two chains).  The shape step's proposal
    scale is not set here: ``run_chain`` derives it from n.

    Every field is a count: an integer (a numpy integer too) no smaller
    than 1, or than 0 for ``burn_in`` and ``seed``.  A float such as
    3000.0 raises ``TypeError`` and a count below its least value
    ``ValueError``, each naming the field.  Beyond that, ``burn_in <
    iterations`` and each chain keeps at least 2 draws.
    """

    iterations: int = 11000
    burn_in: int = 1000
    thin: int = 10
    chains: int = 2
    seed: int = 0

    def __post_init__(self):
        # seed >= 0: SeedSequence takes non-negative integers only
        for name, least in dict(iterations=1, burn_in=0, thin=1, chains=1, seed=0).items():
            object.__setattr__(self, name, _check_count(name, getattr(self, name), least))
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.retained < 2:  # summaries and the PSRF need 2 draws per chain
            raise ValueError(f"need >= 2 retained draws per chain, got {self.retained}")

    @property
    def retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass(frozen=True)
class Chain:
    """Post burn-in, thinned (alpha, beta) draws of one chain plus provenance.

    The latents are not kept: every summary of a fit needs only these draws.
    ``accepted``/``proposed`` count shape-proposals over all iterations
    including burn-in.
    """

    alpha: np.ndarray
    beta: np.ndarray
    accepted: int
    proposed: int
    chain_index: int
    config: McmcConfig


def sample_lambda(
    alpha: float,
    beta: float,
    d: Dataset,
    rng: np.random.Generator,
    out: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """One Gibbs draw of all latents over beta: u_i ~ Gamma(alpha+1, rate beta + x_i).

    u_i = lambda_i/beta, drawn as ``standard_gamma(alpha+1) / (beta +
    x_i)``.  The rate goes into ``work`` and the draw into ``out``, which
    is returned; both are length-n float arrays.
    """
    np.add(d.x, beta, out=work)
    rng.standard_gamma(alpha + 1.0, out=out)
    out /= work
    return out


def _underflow(beta: float, what: str) -> DegenerateDataError:
    # beta is the scale the latents were drawn with
    return DegenerateDataError(f"{what} underflowed to 0 at beta={beta!r}")


def sample_beta(u: np.ndarray, d: Dataset, g: float, beta: float) -> float:
    """One Gibbs draw of the scale: beta' ~ InverseGamma(n, beta * sum(u_i x_i)).

    ``u`` holds the latents over the ``beta`` they were drawn with, and
    ``g`` is a unit-rate Gamma(n) variate; the draw is ``beta * sum(u_i
    x_i) / g``.  Raises ``DegenerateDataError`` if it underflows to 0.
    """
    new = beta * float(u.dot(d.x)) / g
    if new <= 0.0:
        raise _underflow(beta, "beta * sum(u_i x_i) / g")
    return new


def _alpha_term(kind: PriorKind, a: float, n: int) -> float:
    # The part of the shape's log conditional that depends on alpha alone,
    # -n log Gamma(a) + log pi(a).  A chain carries it for its current
    # alpha and computes it only for a proposal.
    return -n * math.lgamma(a) + log_prior_alpha(kind, a)


def _mh_step_alpha(
    current: float,
    term: float,
    kind: PriorKind,
    n: int,
    sum_log_lam: float,
    scale: float,
    z: float,
    log_u: float,
) -> tuple[float, float, bool]:
    # term is _alpha_term(kind, current, n); z is a standard normal and
    # log_u is log(1 - u) for a uniform u in [0, 1).  Returns the new alpha,
    # its term and whether the proposal was accepted.
    step = scale * z
    proposal = current * math.exp(step)
    proposed = _alpha_term(kind, proposal, n)
    # the log conditionals' ratio, then the Jacobian of the walk on log
    # alpha, log(proposal / current)
    log_ratio = proposed - term + (proposal - current) * sum_log_lam + step
    # log_u = 0 for u = 0 keeps "ratio 0 => always accept" exact
    if log_u <= log_ratio:
        return proposal, proposed, True
    return current, term, False


def run_chain(d: Dataset, kind: PriorKind, cfg: McmcConfig, chain_index: int = 0) -> Chain:
    """Run one chain of the Gibbs sampler and return its retained draws.

    Deterministic given (cfg.seed, chain_index).  Initial alpha and then
    beta are unit-exponential draws from the chain's generator; the
    latents are drawn first, so they need no initial value.
    """
    check_propriety(kind, d.n, d.zeros)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(chain_index,)))
    alpha = float(rng.gamma(1.0))
    beta = float(rng.gamma(1.0))
    # the latents over beta, a scratch vector and the ones that sum a
    # vector live in these buffers for the whole chain
    u, work, ones = np.empty(d.n), np.empty(d.n), np.ones(d.n)

    retained = cfg.retained
    alpha_out = np.empty(retained)
    beta_out = np.empty(retained)
    accepted = 0
    k = 0

    n, burn_in, thin = d.n, cfg.burn_in, cfg.thin
    scale = 1.5 / math.sqrt(n)  # of the walk on log alpha (module docstring)
    term = _alpha_term(kind, alpha, n)
    # a rate beta + x_i that overflows and the log of the 0 latent it gives
    # are caught below by value, so numpy need not warn of them (entered
    # once per chain)
    with np.errstate(over="ignore", divide="ignore"):
        for start in range(0, cfg.iterations, _BLOCK):
            # whole blocks, even the last: a chain is a prefix of a longer one
            gammas = rng.standard_gamma(n, _BLOCK).tolist()
            normals = rng.standard_normal(_BLOCK).tolist()
            log_us = np.log1p(-rng.random(_BLOCK)).tolist()
            for it, g, z, log_u in zip(range(start, cfg.iterations), gammas, normals, log_us):
                sample_lambda(alpha, beta, d, rng, u, work)
                new_beta = sample_beta(u, d, g, beta)
                sum_log_u = float(np.log(u, out=work).dot(ones))
                if sum_log_u == -math.inf:
                    raise _underflow(beta, "a latent u_i")
                sum_log_lam = n * math.log(beta) + sum_log_u
                beta = new_beta
                alpha, term, acc = _mh_step_alpha(
                    alpha, term, kind, n, sum_log_lam, scale, z, log_u
                )
                accepted += acc
                if it >= burn_in and (it - burn_in + 1) % thin == 0:
                    alpha_out[k] = alpha
                    beta_out[k] = beta
                    k += 1

    assert k == retained
    return Chain(
        alpha=alpha_out,
        beta=beta_out,
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


# True while an item of a _fork_map that forks runs, in a worker or in the caller
_in_map = False


def _fork_width(k: int) -> int:
    """Processes that may run k independent tasks from this one: min(k, usable
    CPUs), but 1 inside an item of a map that forks, with another live thread
    (a fork copies no thread but every lock one may hold) or without ``fork``."""
    if _in_map or threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    return min(k, _usable_cpus())


def _outcome(fn, item) -> tuple[bool, object]:
    """``(True, fn(item))``, or ``(False, exc)`` if it raised exc, run as an item of a map."""
    global _in_map
    outer, _in_map = _in_map, True
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc
    finally:
        _in_map = outer


def _serve(fn, items: list, tasks: int, results: int, others: list[int]):
    """A forked worker: run each item whose index arrives on the pipe ``tasks``
    and send its pickled outcome back on ``results``, until ``tasks`` closes.
    It first closes ``others``, the caller's pipe ends that the fork copied,
    and it leaves only by ``os._exit``, so it never returns into the caller's code."""
    code = 1
    try:
        # holding no end of another worker's pipe, each worker sees its task
        # pipe close, and ends, when the caller's process ends
        for fd in others:
            os.close(fd)
        with open(results, "wb") as out:
            while index := os.read(tasks, 8):
                i = int.from_bytes(index, "little")
                outcome = _outcome(fn, items[i])
                try:
                    message = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    error = RuntimeError(f"item {i}: cannot send {outcome[1]!r} back: {exc}")
                    message = pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)
                out.write(message)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _fork_map(fn, items, w: int):
    """Yield ``fn(item)`` for each of ``items`` in item order, on up to w processes.

    With w > 1 and 2 or more items, the caller forks w - 1 workers (w capped
    at the number of items) and runs item 0 itself; then, if items are left,
    it forks one more worker and only hands out items from then on.  Items
    go out in order, one at a time, to whichever worker is free.  A worker
    inherits ``fn`` and ``items`` from the fork; only item indices and
    outcomes cross its two pipes.  Results are yielded as soon as every
    earlier item has finished.

    The first failed item in item order raises its exception, as a serial
    map would, and no item after it is handed out.  A worker that ends
    without an outcome, or whose outcome cannot be pickled, fails its item
    with a ``RuntimeError`` that names the item.  However the map ends, by a
    result, an error or an interrupt, every worker is killed and reaped and
    every pipe closed.
    """
    items = list(items)
    w = min(w, len(items))
    if w < 2:
        yield from map(fn, items)
        return
    workers = {}  # a worker's result pipe (read end, a file) -> (its pid, its task pipe's write end)
    busy = {}  # the result pipe of a worker with an item -> the item's index
    nxt = 1

    def fork_worker():
        tasks_r, tasks_w = os.pipe()
        results_r, results_w = os.pipe()
        others = [fd for f, (_, task) in workers.items() for fd in (f.fileno(), task)]
        try:
            pid = os.fork()
        except OSError:
            for fd in (tasks_r, tasks_w, results_r, results_w):
                os.close(fd)
            raise
        if pid == 0:
            _serve(fn, items, tasks_r, results_w, others + [tasks_w, results_r])
        os.close(tasks_r)
        os.close(results_w)
        f = open(results_r, "rb")
        workers[f] = pid, tasks_w
        return f

    def hand_out(f) -> None:
        nonlocal nxt
        os.write(workers[f][1], nxt.to_bytes(8, "little"))
        busy[f] = nxt
        nxt += 1

    try:
        for _ in range(w - 1):
            hand_out(fork_worker())
        outcomes = {0: _outcome(fn, items[0])}  # finished items not yet yielded
        failed = not outcomes[0][0]
        if not failed and nxt < len(items):
            hand_out(fork_worker())
        done = 0
        while True:
            while done in outcomes:
                ok, value = outcomes.pop(done)
                if not ok:
                    raise value
                yield value
                done += 1
            if done == len(items):
                return
            for f in select.select(list(busy), [], [])[0]:
                i = busy.pop(f)
                try:
                    outcomes[i] = pickle.load(f)
                except Exception as exc:  # EOF from a dead worker, or an outcome that cannot be rebuilt
                    outcomes[i] = False, RuntimeError(f"item {i}: no outcome from its worker: {exc!r}")
                # after a failure no item is handed out, so a dead worker gets none
                failed = failed or not outcomes[i][0]
                if not failed and nxt < len(items):
                    hand_out(f)
    finally:
        for f, (pid, task) in workers.items():
            f.close()
            os.close(task)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_chains(d: Dataset, kind: PriorKind, cfg: McmcConfig) -> tuple[Chain, ...]:
    """Run ``cfg.chains`` independent chains and return them in chain-index order.

    The chains go through ``_fork_map`` on w = ``_fork_width(chains)``
    processes: with w > 1 the caller runs chain 0 and forked workers run the
    others.  The chain length does not enter.  Each chain owns its
    generator, so the output is the same however the chains are spread, and
    an error is the one a serial run raises first.
    """
    check_propriety(kind, d.n, d.zeros)
    return tuple(_fork_map(partial(run_chain, d, kind, cfg), range(cfg.chains),
                           _fork_width(cfg.chains)))
