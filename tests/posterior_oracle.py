"""The exact dependent-Jeffreys posterior of the Lomax model, on a grid, for the sampler tests.

In t = log beta and s = log alpha, the likelihood prod alpha/beta (1 +
x_i/beta)^-(alpha+1), the prior pi(alpha)/beta and the Jacobian e^(t+s) of
the change of variables give

    log p(t, s) = log pi(e^s) + (n+1) s - n t - (e^s + 1) T(t) + const,
    T(t) = sum_i log1p(x_i e^-t),

with pi(alpha) = 1/((alpha+1) sqrt(alpha (alpha+2))).  Both factors are
written here from the formula, not taken from the package, so that a
sampler whose prior or kernel is wrong cannot agree with them by sharing
the mistake.  ``quantiles`` sums the density over an N x N grid, one t row
at a time (T once per row), into the marginal densities of s and t, and
inverts their cumulative trapezoid sums.

The grid's box is where log p lies within ``DEPTH`` nats of its maximum
on a coarse scan of a wide box.  Under dependent Jeffreys p(t) falls as
e^-t as beta -> infinity, along a ridge s ~ t + log(n/sum x), so at n = 50
the box is long; at N = 2048 the quantiles of the seed-42 data at n = 50
and 500 move by at most 1.4e-4 on a grid twice as fine (``test_sampler``).

The 1/(alpha beta) prior gets no oracle: its posterior is improper as
beta -> infinity at every n.

``gate`` tests the whole sampler against it.  At each n of ``RUNS``, the
data are ``sample(Lomax(2, 1.5), default_rng(42), n)``, and ``CHAINS``
independent chains of ``run_chains``, child i of ``SeedSequence(master)``
for chain i, keep every draw after burn-in.  For each chain it takes the
fraction of draws below each exact quantile of log alpha and of log beta;
the z of a level is the mean of that fraction over the chains less the
level, over the chains' standard error, their spread over sqrt(CHAINS).
Independent chains give that error without the small-sample bias of batch
means on one chain.  n = 50 gets the long chains: the prior weighs most
on the posterior there, so that is where a wrong prior factor shows, and
a draw costs about 10 us against 17 us at n = 500.

The 12 z are not normal: at n = 50 a chain's fractions depend on rare, long
excursions along the ridge, so a set of chains without one reads high.
``THRESHOLD`` comes from master seeds 3000-3199 of the sampler as it is:
the largest |z| of a seed passed 3.5 at 3 of them, 3.6 at 2 and 4.0 at 1
(4.91), so the gate raises 0.5% false alarms.  On 20 master seeds each, it
fails every one with the Hastings term ``+ step`` dropped from
``_mh_step_alpha`` (largest |z| 19.6 or more) and every one with the 1/alpha
prior factor in place of the Jeffreys one (7.2 or more).
"""

import math

import numpy as np

from lomaxbayes import Dataset, LomaxParams, McmcConfig, PriorKind, run_chains, sample

DEPTH = 35.0  # nats below the maximum; e^-35 is 6e-16
LEVELS = (0.1, 0.5, 0.9)
POINTS = 2048  # per axis of the grid


def _log_prior(a: np.ndarray) -> np.ndarray:
    return -np.log1p(a) - 0.5 * np.log(a) - 0.5 * np.log(a + 2.0)


def _rows(x: np.ndarray, t: np.ndarray, s: np.ndarray):
    """log p(t_i, s) for each t_i in turn, up to one shared constant."""
    n, a = len(x), np.exp(s)
    over_s = _log_prior(a) + (n + 1) * s
    for ti in t:
        yield over_s - n * ti - (a + 1.0) * np.log1p(x * np.exp(-ti)).sum()


def _box(x: np.ndarray) -> tuple[float, float, float, float, float]:
    """The t and s bounds of the region within DEPTH nats of the maximum, and that maximum."""
    lo, hi = np.log(x.min()) - 10.0, np.log(x.max()) + 40.0
    t = np.linspace(lo, hi, 301)
    s = np.linspace(-15.0, hi + np.log(len(x) / x.sum()) + 10.0, 301)
    lp = np.array(list(_rows(x, t, s)))
    rows, cols = np.nonzero(lp > lp.max() - DEPTH)
    if {rows.min(), cols.min(), rows.max(), cols.max()} & {0, 300}:
        raise ValueError("the posterior reaches the edge of the coarse scan")
    return t[rows.min() - 1], t[rows.max() + 1], s[cols.min() - 1], s[cols.max() + 1], lp.max()


def _quantiles(grid: np.ndarray, density: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * h * (density[1:] + density[:-1]))])
    return np.interp(np.array(LEVELS) * cdf[-1], cdf, grid)


def quantiles(x, points: int = POINTS) -> tuple[np.ndarray, np.ndarray]:
    """The LEVELS quantiles of log alpha and of log beta given the data ``x``."""
    x = np.asarray(x, dtype=float)
    t_lo, t_hi, s_lo, s_hi, peak = _box(x)
    t, s = np.linspace(t_lo, t_hi, points), np.linspace(s_lo, s_hi, points)
    p_t, p_s = np.empty(points), np.zeros(points)
    for i, row in enumerate(_rows(x, t, s)):
        p = np.exp(row - peak)
        p_t[i] = p.sum()
        p_s += p
    return _quantiles(s, p_s), _quantiles(t, p_t)


# n -> (iterations, burn-in) of each chain
RUNS = {50: (12000, 1000), 500: (1000, 300)}
CHAINS = 40
# the bound on every |z| of the gate, and the master seed the tests run
THRESHOLD, MASTER = 4.0, 3000


def data(n: int) -> np.ndarray:
    return sample(LomaxParams(2.0, 1.5), np.random.default_rng(42), n).x


def gate(master: int) -> np.ndarray:
    """The 12 z of the chains of ``master``: for each n of RUNS, log alpha at each
    level and then log beta."""
    z = []
    for n, (iterations, burn_in) in RUNS.items():
        x = data(n)
        q_alpha, q_beta = quantiles(x)
        cfg = McmcConfig(iterations, burn_in, thin=1, chains=CHAINS, seed=master)
        below = np.array([
            np.concatenate([np.log(c.alpha)[:, None] < q_alpha, np.log(c.beta)[:, None] < q_beta],
                           axis=1).mean(axis=0)
            for c in run_chains(Dataset(x), PriorKind.JEFFREYS_DEPENDENT, cfg)
        ])
        se = below.std(axis=0, ddof=1) / math.sqrt(CHAINS)
        z.append((below.mean(axis=0) - np.tile(LEVELS, 2)) / se)
    return np.concatenate(z)
