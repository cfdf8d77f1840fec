#!/usr/bin/env python3
"""Objective priors: Fisher information, the two prior densities, and
where the joint posterior puts its mass on a grid.

``fisher_information`` and ``fisher_inverse`` return plain symmetric 2x2
numpy arrays, so they print and multiply as they are.
"""

import numpy as np

from lomaxbayes import (
    LomaxParams,
    PriorKind,
    fisher_information,
    fisher_inverse,
    log_posterior,
    log_prior,
    sample,
)

p = LomaxParams(beta=1.0, alpha=1.0)
info = fisher_information(p)
inv = fisher_inverse(p)
print(f"Fisher information at (beta={p.beta}, alpha={p.alpha}):")
print(info)
print("closed-form inverse:")
print(inv)
print("product (identity up to roundoff):")
print(info @ inv)

print("\nunnormalized log priors at a few points:")
print(f"{'beta':>6} {'alpha':>6} " + " ".join(f"{k.value:>10}" for k in PriorKind))
for b, a in ((1.0, 1.0), (2.0, 0.5), (5.0, 3.0)):
    q = LomaxParams(b, a)
    row = [log_prior(k, q) for k in PriorKind]
    print(f"{b:6.1f} {a:6.1f} " + " ".join(f"{v:10.4f}" for v in row))

# posterior surface for a simulated dataset
truth = LomaxParams(beta=2.0, alpha=1.5)
data = sample(truth, np.random.default_rng(8), 200)
betas = np.linspace(0.8, 4.5, 60)
alphas = np.linspace(0.5, 3.0, 60)
surface = np.array([
    [log_posterior(PriorKind.REFERENCE, LomaxParams(b, a), data) for a in alphas]
    for b in betas
])
ib, ia = np.unravel_index(np.argmax(surface), surface.shape)
print(f"\nreference-posterior grid argmax for n={data.n} simulated at "
      f"(beta={truth.beta}, alpha={truth.alpha}):")
print(f"  beta ~ {betas[ib]:.3f}, alpha ~ {alphas[ia]:.3f}")
