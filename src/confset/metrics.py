"""Evaluation metrics for set-valued predictions against ground truth.

Truth labels are 1..K for inlier classes and K+1 for true outliers. Rejection
semantics: point i is rejected from class k when k is absent from its
prediction set; an empty set declares the point an outlier.

Two global false-discovery notions appear:

* ``global_fdr`` -- the share of outlier declarations (empty sets) that hit
  true inliers; this is the "FDR" row of the result tables.
* ``rejection_global_fdp`` -- V / max(1, R) over all class-wise rejections
  pooled; this is the quantity the summarized class-wise loss is provably
  bounded by, pointwise on every realization.

The two disagree in general; keep them apart.

``evaluate_sets`` computes all eight table metrics from one tally of the
sets by truth label; the per-metric functions compute one metric each and
give the same value and type.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import DataError, PredictionSets

__all__ = [
    "MetricsReport",
    "classwise_fdr",
    "scw_fdr_loss",
    "rejection_global_fdp",
    "global_fdr",
    "outlier_power",
    "coverage",
    "false_label_rate",
    "accuracy",
    "ambiguity",
    "evaluate_sets",
    "METRIC_ORDER",
]

METRIC_ORDER = (
    "cw_fdr",
    "scw_fdr",
    "fdr",
    "power",
    "coverage",
    "flr",
    "accuracy",
    "ambiguity",
)


def _checked(sets: PredictionSets, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    member = sets.member
    truth = np.asarray(truth).astype(np.int64)
    if truth.ndim != 1 or truth.shape[0] != member.shape[0]:
        raise DataError(
            f"truth must have one entry per test point, got shape {truth.shape} "
            f"for {member.shape[0]} points"
        )
    k = member.shape[1]
    if truth.size and (truth.min() < 1 or truth.max() > k + 1):
        raise DataError(f"truth labels must lie in 1..{k + 1}")
    return member, truth


def classwise_fdr(sets: PredictionSets, truth: np.ndarray, class_id: int) -> float:
    """Share of class-k rejections that were true class-k points.

    V_k / max(1, R_k) where R_k counts points whose set excludes k and V_k
    those among them with truth == k.
    """
    member, truth = _checked(sets, truth)
    if not 1 <= class_id <= member.shape[1]:
        raise DataError(f"class_id {class_id} outside 1..{member.shape[1]}")
    rejected = ~member[:, class_id - 1]
    false = rejected & (truth == class_id)
    return false.sum() / max(1, rejected.sum())


def scw_fdr_loss(sets: PredictionSets, truth: np.ndarray) -> float:
    """Summarized class-wise loss: sum_k V_k / sum_k max(1, R_k).

    Never exceeds :func:`rejection_global_fdp` on the same realization,
    because each class contributes at least 1 to the denominator.
    """
    member, truth = _checked(sets, truth)
    v_total = 0
    denom = 0
    for k in range(1, member.shape[1] + 1):
        rejected = ~member[:, k - 1]
        v_total += (rejected & (truth == k)).sum()
        denom += max(1, rejected.sum())
    return v_total / denom


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


def global_fdr(sets: PredictionSets, truth: np.ndarray) -> float:
    """Share of empty-set (outlier) declarations that hit true inliers."""
    member, truth = _checked(sets, truth)
    declared = member.sum(axis=1) == 0
    k = member.shape[1]
    false = declared & (truth <= k)
    return false.sum() / max(1, declared.sum())


def outlier_power(sets: PredictionSets, truth: np.ndarray) -> float:
    """Fraction of true outliers receiving the empty set. 0.0 if no outliers."""
    member, truth = _checked(sets, truth)
    outliers = truth == member.shape[1] + 1
    empty = member.sum(axis=1) == 0
    return (outliers & empty).sum() / max(1, outliers.sum())


def coverage(sets: PredictionSets, truth: np.ndarray) -> float:
    """Fraction of true inliers whose set contains their class. 0.0 if no inliers."""
    member, truth = _checked(sets, truth)
    k = member.shape[1]
    inliers = truth <= k
    if not inliers.any():
        return 0.0
    idx = np.flatnonzero(inliers)
    hit = member[idx, truth[idx] - 1]
    return hit.sum() / idx.size


def false_label_rate(sets: PredictionSets, truth: np.ndarray) -> float:
    """Fraction of ALL test points that are true outliers with a nonempty set."""
    member, truth = _checked(sets, truth)
    outliers = truth == member.shape[1] + 1
    nonempty = member.sum(axis=1) > 0
    return (outliers & nonempty).sum() / member.shape[0]


def accuracy(sets: PredictionSets, truth: np.ndarray) -> float:
    """Fraction of true inliers whose set is exactly their class (singleton)."""
    member, truth = _checked(sets, truth)
    k = member.shape[1]
    inliers = truth <= k
    if not inliers.any():
        return 0.0
    idx = np.flatnonzero(inliers)
    exact = member[idx, truth[idx] - 1] & (member[idx].sum(axis=1) == 1)
    return exact.sum() / idx.size


def ambiguity(sets: PredictionSets, truth: np.ndarray | None = None) -> float:
    """Mean set size over nonempty sets; 0.0 when every set is empty."""
    sizes = sets.sizes
    nonempty = sizes > 0
    if not nonempty.any():
        return 0.0
    return float(sizes[nonempty].mean())


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
    count of points by truth label and by whether their set is empty. Each
    value and its type equal what the per-metric function returns.
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
