#!/usr/bin/env python3
"""Small Monte Carlo study: how bias and rmse shrink with the sample size.

The full design uses 500 replications over six sample sizes and both
priors; this desk-scale version runs 10 replications at two sizes, which
takes seconds.  It fits the dependent Jeffreys prior: under the
1/(alpha beta) ``reference`` prior the posterior is improper as beta -> inf
at every n, so its bias and rmse describe the chain length, not a posterior.
"""

import time

from lomaxbayes import LomaxParams, McmcConfig, PriorKind, StudyConfig, run_study

study = StudyConfig(
    true_params=LomaxParams(beta=2.0, alpha=1.5),
    sample_sizes=(50, 200),
    replications=10,
    priors=(PriorKind.JEFFREYS_DEPENDENT,),
    mcmc=McmcConfig(iterations=11000, burn_in=1000, thin=10, chains=2),
    seed=1,
)

t0 = time.perf_counter()
report = run_study(study)
print(f"study finished in {time.perf_counter() - t0:.1f}s "
      f"({study.replications} replications x {len(study.sample_sizes)} sizes)\n")
print(report.table())

beta_rows = {r.n: r for r in report.rows if r.parameter == "beta"}
small, large = min(beta_rows), max(beta_rows)
print(f"\nrmse(beta) falls from {beta_rows[small].rmse:.3f} at n={small} "
      f"to {beta_rows[large].rmse:.3f} at n={large}.")
print("rerun with more replications/sizes via: lomaxbayes simulate --help")
