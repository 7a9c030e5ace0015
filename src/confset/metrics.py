"""Evaluation metrics for set-valued predictions against ground truth.

Truth labels are 1..K for inlier classes and K+1 for true outliers. Rejection
semantics: point i is rejected from class k when k is absent from its
prediction set; an empty set declares the point an outlier.

Two global false-discovery notions appear:

* ``MetricsReport.fdr`` -- the share of outlier declarations (empty sets)
  that hit true inliers; this is the "FDR" row of the result tables.
* ``rejection_global_fdp`` -- V / max(1, R) over all class-wise rejections
  pooled; this is the quantity the summarized class-wise loss
  (``MetricsReport.scw_fdr``) is provably bounded by, pointwise on every
  realization, because each class adds at least 1 to its denominator.

The two disagree in general; keep them apart.

``evaluate_sets`` computes all eight table metrics from one tally of the
sets by truth label.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import DataError, PredictionSets, _integer_labels

__all__ = ["MetricsReport", "evaluate_sets", "rejection_global_fdp"]


def _checked(sets: PredictionSets, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    member = sets.member
    truth = _integer_labels(truth, "truth labels")
    if truth.ndim != 1 or truth.shape[0] != member.shape[0]:
        raise DataError(
            f"truth must have one entry per test point, got shape {truth.shape} "
            f"for {member.shape[0]} points"
        )
    k = member.shape[1]
    if truth.size and (truth.min() < 1 or truth.max() > k + 1):
        raise DataError(f"truth labels must lie in 1..{k + 1}")
    return member, truth


def rejection_global_fdp(sets: PredictionSets, truth: np.ndarray) -> float:
    """Pooled false discovery proportion V / max(1, R) over all rejections."""
    member, truth = _checked(sets, truth)
    v_total = 0
    r_total = 0
    for k in range(1, member.shape[1] + 1):
        rejected = ~member[:, k - 1]
        v_total += (rejected & (truth == k)).sum()
        r_total += rejected.sum()
    return v_total / max(1, r_total)


@dataclass(frozen=True)
class MetricsReport:
    """All eight table metrics for one prediction run."""

    cw_fdr: tuple[float, ...]
    scw_fdr: float
    fdr: float
    power: float
    coverage: float
    flr: float
    accuracy: float
    ambiguity: float

    def rows(self) -> list[tuple[str, float]]:
        """Flatten to (name, value) rows; class-wise FDR expands per class."""
        out = [(f"cw_fdr_{k + 1}", v) for k, v in enumerate(self.cw_fdr)]
        for f in fields(self):
            if f.name != "cw_fdr":
                out.append((f.name, getattr(self, f.name)))
        return out


def evaluate_sets(sets: PredictionSets, truth: np.ndarray) -> MetricsReport:
    """Compute the full metrics report for one run.

    Every field comes from one tally of the (point, accepted class) pairs by
    truth label and by whether the point's set is a singleton, plus one
    count of points by truth label and by whether their set is empty.
    """
    member, truth = _checked(sets, truth)
    m, k = member.shape
    t = truth - 1
    sizes = np.count_nonzero(member, axis=1)
    # pairs[t, s, c]: accepted (point, class c) pairs with truth t + 1 whose
    # set is a singleton (s = 1) or not (s = 0)
    key = (t * 2 + (sizes == 1))[:, None] * k + np.arange(k)
    pairs = np.bincount(key[member], minlength=(k + 1) * 2 * k).reshape(k + 1, 2, k)
    # points[t, e]: points with truth t + 1 whose set is empty (e = 1) or not
    points = np.bincount(t * 2 + (sizes == 0), minlength=(k + 1) * 2).reshape(k + 1, 2)
    hits = pairs.sum(axis=1)
    own = np.diagonal(hits[:k])
    counts = points.sum(axis=1)
    empty = points[:, 1]
    rejected = np.maximum(m - hits.sum(axis=0), 1)
    false_rejections = counts[:k] - own
    inliers = counts[:k].sum()
    nonempty = m - empty.sum()
    return MetricsReport(
        cw_fdr=tuple(false_rejections / rejected),
        scw_fdr=false_rejections.sum() / rejected.sum(),
        fdr=empty[:k].sum() / max(1, empty.sum()),
        power=empty[k] / max(1, counts[k]),
        coverage=own.sum() / inliers if inliers else 0.0,
        flr=(counts[k] - empty[k]) / m,
        accuracy=np.diagonal(pairs[:k, 1]).sum() / inliers if inliers else 0.0,
        ambiguity=float(hits.sum() / nonempty) if nonempty else 0.0,
    )
