#!/usr/bin/env python3
"""Fit simulated data with the data-augmented Gibbs sampler and read the
diagnostics: summaries, PSRF, acceptance rate and the flagged x.

Each observation carries a latent mixing value lambda_i; the sampler
cycles lambda | (alpha, beta), beta | lambda, and a Metropolis-Hastings
update of alpha | lambda.  The flags are those of ``lomaxbayes fit``'s
outliers.csv: the x above their 95th percentile.  That rule ranks x and
reads no draw, so it flags about the largest 5% of any sample, clean or not.
"""

import numpy as np

from lomaxbayes import (
    Dataset,
    LomaxParams,
    McmcConfig,
    PriorKind,
    acceptance_rate,
    gelman_rubin,
    run_chains,
    sample,
    summarize,
)

truth = LomaxParams(beta=2.0, alpha=1.5)
base = sample(truth, np.random.default_rng(33), 150)
# plant one gross outlier at the end
data = Dataset(np.append(base.x, 60.0 * base.x.max()))
print(f"simulated n={data.n} from (beta={truth.beta}, alpha={truth.alpha}), "
      f"last value planted at {data.x[-1]:.1f}")

cfg = McmcConfig(iterations=11000, burn_in=1000, thin=10, chains=2, seed=7)
chains = run_chains(data, PriorKind.JEFFREYS_DEPENDENT, cfg)

print(f"\n{cfg.chains} chains x {cfg.retained} retained draws "
      f"(iterations={cfg.iterations}, burn-in={cfg.burn_in}, thin={cfg.thin})")
for param in ("beta", "alpha"):
    draws = [getattr(c, param) for c in chains]
    s = summarize(np.concatenate(draws))
    psrf = gelman_rubin(draws)
    print(f"  {param:5s} mean={s.mean:.4f} sd={s.sd:.4f} "
          f"95% CI=[{s.ci_low:.4f}, {s.ci_high:.4f}]  PSRF={psrf:.4f}")
rates = ", ".join(f"{acceptance_rate(c):.3f}" for c in chains)
print(f"  shape-proposal acceptance rates per chain: {rates}")

flagged = np.flatnonzero(data.x > np.percentile(data.x, 95.0))
print(f"\nflagged x, largest first ({flagged.size} of {data.n}, as in outliers.csv):")
for i in flagged[np.argsort(-data.x[flagged])]:
    mark = " <- planted" if i == data.n - 1 else ""
    print(f"  index {i:3d}  x={data.x[i]:10.3f}{mark}")
