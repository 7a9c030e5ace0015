"""Conformal p-values, BH adjustment, and set-valued prediction.

The test batch is scored against all K classes in one pass
(``score_classes``), and each class's training rows against that class,
unless the caller passes these calibration scores, which no test point moves.
Then, per class k:

1. rank p-value of each test score among the class's n_k calibration scores,
2. Benjamini-Hochberg step-up across the m test points (a single test point
   keeps its p-value),
3. accept class k iff the adjusted p-value exceeds floor((n_k+1)*alpha)/(n_k+1),
   floored in exact integers on the shortest decimal that prints alpha;
   a tie with the cutoff is decided exactly, in integer ranks, as BH does.

A point accepted by no class gets the empty set and is declared an outlier.

The class moments come either from the caller (known parameters) or from a
fit on the same training rows that the test scores are then ranked among.
With known moments the training and test scores are exchangeable and the
rank p-values are valid at any sample size. The fitted default calibrates
in-sample, which makes the training scores too small: its p-values are
anti-conservative at small n_k (ROADMAP, open item 1).

``PREDICTORS`` maps each predictor name to a row, called once per training
set with (train, known moments or None, variance floor). It does the fit
and scores the calibration rows, and returns the keyword arguments of
``predict`` (``oracle=``, ``train_scores=``), so only a row decides what
they carry, and an experiment times the call under the row's name.
Comparing two predictors on the same batch is done by the check that
needs it, in ``validation``.
"""

from __future__ import annotations

import operator

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
    "PREDICTORS",
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
    if not np.all((p > 0) & (p <= 1)):  # NaN fails both sides
        raise DataError("pvalues must lie in (0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adj = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(adj, 1.0)
    return out


def acceptance_threshold(n_k: int, alpha: float) -> float:
    """Per-class cutoff floor((n_k+1)*alpha) / (n_k+1), never above alpha.

    The floor is exact, on alpha read as the shortest decimal that prints
    it. Accepting on adjusted p > threshold yields the finite-sample
    coverage bound. Zero (accept everything) whenever alpha < 1/(n_k+1).
    """
    if n_k < 1:
        raise DataError(f"n_k must be >= 1, got {n_k}")
    if not 0 < alpha < 1:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    return _grid_count(n_k, alpha) / (n_k + 1)


def _grid_count(n_k: int, alpha: float) -> int:
    """g_k = floor((n_k+1) alpha), the number of grid points j/(n_k+1) at
    or below alpha. BH drops a class from a set only at an adjusted p-value
    <= g_k/(n_k+1); with g_k <= 1, all m raw p-values must be the smallest,
    1/(n_k+1), so the class leaves no set or all of them."""
    num, den = _alpha_ratio(alpha)
    return (operator.index(n_k) + 1) * num // den


def _bh_floor(alpha: float) -> int:
    """The fewest training rows with g_k >= 2: ceil(2/alpha) - 1."""
    num, den = _alpha_ratio(alpha)
    return -(-2 * den // num) - 1


def _alpha_ratio(alpha: float) -> tuple[int, int]:
    """alpha as the exact ratio of the shortest decimal that prints it."""
    # imported when called, as io imports yaml: only thresholding pays its ~1.5 ms
    from decimal import Decimal

    return Decimal(repr(float(alpha))).as_integer_ratio()


def predict(
    data: LabeledDataset,
    test: TestBatch,
    alpha: float,
    oracle: ClassModel | None = None,
    train_scores: list[np.ndarray] | None = None,
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
        :func:`fit_model` fits on ``data``. Without ``train_scores``, the
        calibration ranks against the training rows. The rows of
        ``PREDICTORS`` pass it, the fitted one with its variance floor.
    train_scores : list of K arrays, optional
        Each class's n_k calibration scores against ``oracle``, which it
        needs; both rows of ``PREDICTORS`` score the class's training rows.

    Returns
    -------
    (PValueMatrix, PredictionSets)
        Raw and BH-adjusted p-values with per-class thresholds, and the
        membership mask ``adjusted > threshold``, decided exactly on the grid.
    """
    if train_scores is not None and oracle is None:
        raise DataError("train_scores need the class moments that scored them, as oracle=")
    model = oracle if oracle is not None else fit_model(data)
    _check_moments(data, model)
    if test.n_features != data.n_features:
        raise DataError(
            f"test batch has {test.n_features} features, training data has "
            f"{data.n_features}"
        )
    m, k = test.m, data.n_classes
    # a finite row far from a class mean can overflow its score to inf
    test_scores = score_classes(model, test.features)
    if not np.isfinite(test_scores.max()):  # a NaN carries through max too
        row, class_index = np.argwhere(~np.isfinite(test_scores.T))[0]
        raise DataError(
            f"test row {row} overflows its score against class {class_index + 1}; "
            "rescale the features"
        )
    if train_scores is None:
        train_scores = _train_scores(data, model)
    elif len(train_scores) != k:
        raise DataError(f"train_scores hold {len(train_scores)} classes, data has {k}")
    raw = np.empty((m, k))
    adjusted = np.empty((m, k))
    thresholds = np.empty(k)
    member = np.empty((m, k), dtype=bool)
    for c, scores in enumerate(train_scores):
        n_k = len(scores)
        raw[:, c] = col = conformal_pvalues(scores, test_scores[c])
        adjusted[:, c] = bh_adjust(col)
        thresholds[c] = acceptance_threshold(n_k, alpha)
        member[:, c] = _step_up_keeps(col, n_k, _grid_count(n_k, alpha))
    pvals = PValueMatrix(raw=raw, adjusted=adjusted, thresholds=thresholds, alpha=alpha)
    return pvals, PredictionSets(member=member)


def _step_up_keeps(pvalues: np.ndarray, n_k: int, g: int) -> np.ndarray:
    """Which points BH at cutoff g/(n_k+1) keeps, decided in integers.

    Each p-value is v/(n_k+1), its rank v recovered exactly by rounding. BH
    rejects every v <= v*, the largest v with m*v <= g*#{ranks <= v}; v = 0
    always qualifies. The floats ``adjusted > threshold`` agree but at an
    exact tie, where m*p/j can round a hair above g/(n_k+1).
    """
    ranks = np.rint(pvalues * (n_k + 1)).astype(np.int64)
    at_most = np.cumsum(np.bincount(ranks, minlength=n_k + 2))
    qualifies = pvalues.size * np.arange(n_k + 2) <= g * at_most
    return ranks > np.flatnonzero(qualifies)[-1]


def _check_moments(data: LabeledDataset, model: ClassModel) -> None:
    """Moments of ``data``'s K classes and p features, or one DataError line."""
    if model.means.shape != (data.n_classes, data.n_features):
        raise DataError(
            f"class moments are for {model.n_classes} classes x "
            f"{model.n_features} features; data has {data.n_classes} x "
            f"{data.n_features}"
        )


def _train_scores(data: LabeledDataset, model: ClassModel) -> list[np.ndarray]:
    """Each class's training rows scored against that class's moments."""
    _check_moments(data, model)
    out = []
    for class_id in range(1, data.n_classes + 1):
        with np.errstate(over="ignore"):
            scores = score_batch(model, data.class_rows(class_id), class_id)
        if not np.isfinite(scores.max()):
            row = np.flatnonzero(~np.isfinite(scores))[0]
            raise DataError(
                f"training row {row} of class {class_id} overflows its score; "
                "rescale the features"
            )
        out.append(scores)
    return out


def _known(known: ClassModel | None) -> ClassModel:
    if known is None:  # predict would fit in-sample under the oracle's name
        raise DataError("predictor 'oracle' needs known class moments, got none")
    return known


PREDICTORS = {
    "empirical": lambda train, known, floor: dict(
        oracle=(model := fit_model(train, floor)), train_scores=_train_scores(train, model)
    ),
    "oracle": lambda train, known, floor: dict(
        oracle=(model := _known(known)), train_scores=_train_scores(train, model)
    ),
}
