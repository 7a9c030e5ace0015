"""Empirical scores converge to known-parameter scores.

The procedure ranks test points by a variance-standardized distance to
each class. When the class means and variances are estimated from the
training rows ("empirical"), the resulting p-values differ from the ones
computed with the true generating parameters ("oracle") — but that gap
shrinks as the per-class sample size grows.

This script measures the gap directly: the 95th percentile of
|empirical p - oracle p| across a shared test batch, for increasing n_k.

Run:  python3 demos/02_oracle_convergence.py
"""

import numpy as np

from confset import ScenarioConfig, generate, oracle_params, predict

ALPHA = 0.1
SAMPLE_SIZES = (50, 200, 800)

print("per-class training size vs p-value gap "
      "(each line: 10 fresh replicates, both modes scoring the same batch)\n")
print(f"{'n_k':>6}  {'q95 |emp - oracle|':>20}  {'mean set size emp':>18}  "
      f"{'mean set size oracle':>20}")

q95s = []
for n_k in SAMPLE_SIZES:
    gaps = []
    emp_sizes = []
    orc_sizes = []
    for rep in range(10):
        config = ScenarioConfig(p=40, n_k=n_k, m=200, run_seed=1000 + rep)
        train, batch = generate(config)
        emp_p, emp_sets = predict(train, batch, alpha=ALPHA)
        orc_p, orc_sets = predict(
            train, batch, alpha=ALPHA, oracle=oracle_params(config)
        )
        gaps.append(np.abs(emp_p.raw - orc_p.raw))
        emp_sizes.append(emp_sets.sizes.mean())
        orc_sizes.append(orc_sets.sizes.mean())
    q95 = float(np.quantile(np.concatenate([g.ravel() for g in gaps]), 0.95))
    q95s.append(q95)
    print(f"{n_k:>6}  {q95:>20.4f}  {np.mean(emp_sizes):>18.3f}  "
          f"{np.mean(orc_sizes):>20.3f}")

print("\nmeasured ratio of successive q95 gaps (each step multiplies n_k by 4,"
      "\nso a 1/sqrt(n_k) rate would read 0.5):")
for n_small, n_large, q_small, q_large in zip(
    SAMPLE_SIZES, SAMPLE_SIZES[1:], q95s, q95s[1:]
):
    print(f"  q95(n_k={n_large}) / q95(n_k={n_small}) = {q_large / q_small:.3f}")
print(
    "\nthe gap shrinks as n_k grows: with more training rows, estimated"
    "\nclass summaries approach the true parameters, so decisions made from"
    "\ndata approach the decisions an all-knowing observer would make. the"
    "\nrate at which it shrinks is what the ratios above measure; no rate is"
    "\nclaimed here."
)
