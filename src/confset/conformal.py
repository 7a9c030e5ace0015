"""Conformal p-values, BH adjustment, and set-valued prediction.

The test batch is scored against all K classes in one pass
(``score_classes``), and each class's training rows against that class.
Then, per class k:

1. rank p-value of each test score among the class training scores,
2. Benjamini-Hochberg step-up across the m test points (a single test point
   keeps its p-value),
3. accept class k iff the adjusted p-value exceeds floor((n_k+1)*alpha)/(n_k+1).

A point accepted by no class gets the empty set and is declared an outlier.

The class moments come either from the caller (known parameters) or from a
fit on the same training rows that the test scores are then ranked among.
With known moments the training and test scores are exchangeable and the
rank p-values are valid at any sample size. The fitted default calibrates
in-sample, which makes the training scores too small: its p-values are
anti-conservative at small n_k (ROADMAP, open item 1).

This module makes one predictor's sets. Comparing two predictors on the
same batch, as the set-size gap between fitted and known moments, is done
by the check that needs it, in ``validation``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ClassModel,
    DataError,
    LabeledDataset,
    PredictionSets,
    PValueMatrix,
    TestBatch,
)
from .scoring import fit_model, score_batch, score_classes

__all__ = [
    "conformal_pvalues",
    "bh_adjust",
    "acceptance_threshold",
    "predict",
]


def conformal_pvalues(train_scores: np.ndarray, test_scores: np.ndarray) -> np.ndarray:
    """Rank p-values of test scores among training scores.

    p = (1 + #{train scores >= test score}) / (n + 1), which counts how many
    calibration points conform at least as badly. Values live on the grid
    {1/(n+1), ..., 1}; higher scores give smaller p-values.
    """
    train_scores = np.asarray(train_scores, dtype=np.float64)
    test_scores = np.asarray(test_scores, dtype=np.float64)
    if train_scores.ndim != 1 or train_scores.size == 0:
        raise DataError("train_scores must be a non-empty 1-D array")
    if not (np.all(np.isfinite(train_scores)) and np.all(np.isfinite(test_scores))):
        raise DataError("scores must be finite")
    n = train_scores.size
    order = np.sort(train_scores)
    at_least = n - np.searchsorted(order, test_scores, side="left")
    return (1.0 + at_least) / (n + 1.0)


def bh_adjust(pvalues: np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg adjusted p-values (step-up).

    Sorting ascending, the i-th adjusted value is
    min over j >= i of min(1, m * p_(j) / j), mapped back to input order.
    Thresholding the result at level t rejects exactly the classical
    step-up set at t. A single entry is returned unchanged.
    """
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise DataError("pvalues must be a non-empty 1-D array")
    if np.any(p <= 0) or np.any(p > 1):
        raise DataError("pvalues must lie in (0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adj = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(adj, 1.0)
    return out


def acceptance_threshold(n_k: int, alpha: float) -> float:
    """Per-class cutoff floor((n_k+1)*alpha) / (n_k+1).

    This is the largest grid point strictly below alpha + 1/(n_k+1); accepting
    on adjusted p > threshold yields the finite-sample coverage bound. Zero
    (accept everything) whenever alpha < 1/(n_k+1).
    """
    if n_k < 1:
        raise DataError(f"n_k must be >= 1, got {n_k}")
    if not 0 < alpha < 1:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    t = (n_k + 1) * alpha
    # 1e-12 relative slack: the float product may land one ulp below an
    # integer (e.g. 10 * 0.3), which would off-by-one the floor.
    return math.floor(t * (1.0 + 1e-12)) / (n_k + 1)


def predict(
    data: LabeledDataset,
    test: TestBatch,
    alpha: float,
    oracle: ClassModel | None = None,
) -> tuple[PValueMatrix, PredictionSets]:
    """Set-valued prediction for a test batch.

    Parameters
    ----------
    data : LabeledDataset
        Training data; per-class scores are calibrated within each class,
        whose rows the fit and the scoring read as one view.
    test : TestBatch
        Points to classify; feature count must match ``data``.
    alpha : float
        Nominal per-class error level in (0, 1).
    oracle : ClassModel, optional
        Class moments to score with; by default those that
        :func:`fit_model` fits on ``data``. The calibration ranks against
        the training rows either way, so a variance floor is
        ``oracle=fit_model(data, variance_floor=...)``.

    Returns
    -------
    (PValueMatrix, PredictionSets)
        Raw and BH-adjusted p-values with per-class thresholds, and the
        membership mask ``adjusted > threshold``.
    """
    model = oracle if oracle is not None else fit_model(data)
    if model.means.shape != (data.n_classes, data.n_features):
        raise DataError(
            f"class moments are for {model.n_classes} classes x "
            f"{model.n_features} features; data has {data.n_classes} x "
            f"{data.n_features}"
        )
    if test.n_features != data.n_features:
        raise DataError(
            f"test batch has {test.n_features} features, training data has "
            f"{data.n_features}"
        )
    m, k = test.m, data.n_classes
    # a finite row far from a class mean can overflow its score; the row is
    # named below instead of warning once per block
    with np.errstate(over="ignore"):
        test_scores = score_classes(model, test.features)
    if not np.isfinite(test_scores.max()):  # a NaN carries through max too
        row, class_index = np.argwhere(~np.isfinite(test_scores.T))[0]
        raise DataError(
            f"test row {row} overflows its score against class {class_index + 1}; "
            "rescale the features"
        )
    raw = np.empty((m, k))
    adjusted = np.empty((m, k))
    thresholds = np.empty(k)
    for class_id in range(1, k + 1):
        rows = data.class_rows(class_id)
        col = conformal_pvalues(
            score_batch(model, rows, class_id), test_scores[class_id - 1]
        )
        raw[:, class_id - 1] = col
        adjusted[:, class_id - 1] = bh_adjust(col)
        thresholds[class_id - 1] = acceptance_threshold(rows.shape[0], alpha)
    pvals = PValueMatrix(raw=raw, adjusted=adjusted, thresholds=thresholds, alpha=alpha)
    sets = PredictionSets(member=pvals.adjusted > pvals.thresholds)
    return pvals, sets

