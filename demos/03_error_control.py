"""What the procedure guarantees, measured by Monte Carlo.

Two error notions matter for set-valued prediction:

* class-wise FDR: among test points whose set *excludes* class k, the
  fraction that truly belong to class k. With known class moments the
  step-up adjustment holds this at or below alpha for every class.
* set-wise loss (scw): a weighted count of wrongly excluded classes per
  point. It is bounded by the pooled exclusion FDP by construction, so
  controlling the latter controls the former for free.

This script runs many small replicates and prints the realized error
rates of two predictors on the same data, next to the nominal level:
the known-moment predictor (``oracle=``), which carries the guarantee,
and the default, which fits the moments on the training rows it then
ranks against (in-sample) and so carries none at finite n_k.

Run:  python3 demos/03_error_control.py
"""

import numpy as np

from confset import (
    evaluate_sets,
    generate,
    multi_class_config,
    oracle_params,
    predict,
    with_run_seed,
)

ALPHA = 0.1
REPS = 60

base = multi_class_config(p=30, n_k=150, rho=0.3, m=300)
oracle = oracle_params(base)
reports = {"known": [], "default": []}
for rep in range(REPS):
    train, batch = generate(with_run_seed(base, 5000 + rep))
    _, sets = predict(train, batch, alpha=ALPHA, oracle=oracle)
    reports["known"].append(evaluate_sets(sets, batch.truth))
    _, sets = predict(train, batch, alpha=ALPHA)
    reports["default"].append(evaluate_sets(sets, batch.truth))


def mean(name, metric):
    return np.mean([getattr(r, metric) for r in reports[name]], axis=0)


print(f"{REPS} replicates of a 4-class problem at alpha={ALPHA}")
print(f"{'':25}{'known moments':>15}{'default':>10}\n")
print("class-wise FDR (target: each <= alpha):")
cw_fdr = zip(mean("known", "cw_fdr"), mean("default", "cw_fdr"))
for k, (known, default) in enumerate(cw_fdr, start=1):
    print(f"  class {k:<17}{known:>15.4f}{default:>10.4f}")
rows = [
    ("set-wise weighted loss", "scw_fdr", "(<= every pooled FDP by construction)"),
    ("outlier-call FDR", "fdr", ""),
    ("inlier coverage", "coverage", f"(target >= {1 - ALPHA:.2f})"),
]
print()
for label, metric, note in rows:
    known, default = mean("known", metric), mean("default", metric)
    print(f"{label:<25}{known:>15.4f}{default:>10.4f}  {note}".rstrip())

print("\nonly the known-moment column carries the guarantee, and it is")
print("distribution-free: it comes from ranks, not from the data being")
print("Gaussian, and needs only that training and test rows of a class are")
print("exchangeable. the default ranks each test score among training scores")
print("of a fit to those same rows, so its p-values are anti-conservative at")
print("small n_k and its rates above are measured, not promised.")
