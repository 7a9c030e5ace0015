"""Evaluation metrics for set-valued predictions against ground truth.

Truth labels are 1..K for inlier classes and K+1 for true outliers. Rejection
semantics: point i is rejected from class k when k is absent from its
prediction set; an empty set declares the point an outlier.

Two global false-discovery notions appear:

* ``MetricsReport.fdr`` -- the share of outlier declarations (empty sets)
  that hit true inliers; this is the "FDR" row of the result tables.
* the pooled exclusion FDP, V / max(1, R) over all class-wise rejections
  pooled -- the quantity the summarized class-wise loss
  (``MetricsReport.scw_fdr``) is provably bounded by, pointwise on every
  realization, because each class adds at least 1 to its denominator. No
  table reports it; ``tests/test_acceptance.py`` (target 5) checks the
  bound against the naive loop's count of it.

The two disagree in general; keep them apart.

``evaluate_sets`` computes all eight table metrics from one tally of the
sets by truth label, ``_tally``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import DataError, PredictionSets, _integer_labels

__all__ = ["MetricsReport", "evaluate_sets"]


def _tally(sets: PredictionSets, truth: np.ndarray):
    """``(pairs, points, false_rejections, rejections)``, the counts every
    metric reads. ``pairs[t, s, c]``: accepted (point, class c) pairs with
    truth t + 1 whose set is a singleton (s = 1) or not (s = 0);
    ``points[t, e]``: points with truth t + 1 whose set is empty (e = 1) or
    not. Per class, the points whose set leaves it out, and those truly of it."""
    member = sets.member
    truth = _integer_labels(truth, "truth labels")
    if truth.ndim != 1 or truth.shape[0] != member.shape[0]:
        raise DataError(
            f"truth must have one entry per test point, got shape {truth.shape} "
            f"for {member.shape[0]} points"
        )
    m, k = member.shape
    if truth.size and (truth.min() < 1 or truth.max() > k + 1):
        raise DataError(f"truth labels must lie in 1..{k + 1}")
    t = truth - 1
    sizes = np.count_nonzero(member, axis=1)
    key = (t * 2 + (sizes == 1))[:, None] * k + np.arange(k)
    pairs = np.bincount(key[member], minlength=(k + 1) * 2 * k).reshape(k + 1, 2, k)
    points = np.bincount(t * 2 + (sizes == 0), minlength=(k + 1) * 2).reshape(k + 1, 2)
    accepted = pairs.sum(axis=1)
    false_rejections = points[:k].sum(axis=1) - np.diagonal(accepted[:k])
    return pairs, points, false_rejections, m - accepted.sum(axis=0)


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
    """Compute the full metrics report for one run, every field from the
    counts of one ``_tally``."""
    pairs, points, false_rejections, rejections = _tally(sets, truth)
    k = pairs.shape[2]
    counts = points.sum(axis=1)
    empty = points[:, 1]
    rejected = np.maximum(rejections, 1)
    m = counts.sum()
    inliers = counts[:k].sum()
    nonempty = m - empty.sum()
    return MetricsReport(
        cw_fdr=tuple(false_rejections / rejected),
        scw_fdr=false_rejections.sum() / rejected.sum(),
        fdr=empty[:k].sum() / max(1, empty.sum()),
        power=empty[k] / max(1, counts[k]),
        coverage=(inliers - false_rejections.sum()) / inliers if inliers else 0.0,
        flr=(counts[k] - empty[k]) / m,
        accuracy=np.diagonal(pairs[:k, 1]).sum() / inliers if inliers else 0.0,
        ambiguity=float(pairs.sum() / nonempty) if nonempty else 0.0,
    )
