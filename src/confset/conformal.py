"""Conformal p-values, BH adjustment, and set-valued prediction.

A predictor scores each class's calibration rows once per training set and
each test batch against all K classes in one pass (``score_classes``).
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
set with (train, known moments or None, variance floor). It does the fit,
scores the calibration rows and returns ``predict``'s ``rank=``: a function
of a batch, its (m, K) raw p-values and each class's calibration size. So
only a row decides what scores and what calibrates, one rank serves every
batch of its training set, and an experiment times the row under its name.
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
    rank=None,
) -> tuple[PValueMatrix, PredictionSets]:
    """Set-valued prediction for a test batch.

    Parameters
    ----------
    data : LabeledDataset
        Training data, read only to build a row when ``rank`` is not given.
    test : TestBatch
        Points to classify; feature count must match ``data``.
    alpha : float
        Nominal per-class error level in (0, 1).
    oracle : ClassModel, optional
        Known class moments: short for ``rank=PREDICTORS["oracle"](data,
        oracle, None)``. Without either, the ``empirical`` row is built,
        which fits :func:`fit_model` on ``data``.
    rank : callable, optional
        A row of ``PREDICTORS`` called on a training set: takes ``test`` and
        returns its (m, K) raw p-values and each class's calibration size,
        at which the class is cut. Not together with ``oracle``.

    Returns
    -------
    (PValueMatrix, PredictionSets)
        Raw and BH-adjusted p-values with per-class thresholds, and the
        membership mask ``adjusted > threshold``, decided exactly on the grid.
    """
    if rank is None:
        rank = PREDICTORS["empirical" if oracle is None else "oracle"](data, oracle, None)
    elif oracle is not None:
        raise DataError("predict takes oracle= or rank=, not both: a rank carries its moments")
    raw, n_ks = rank(test)
    adjusted = np.empty_like(raw)
    thresholds = np.empty(len(n_ks))
    member = np.empty(raw.shape, dtype=bool)
    for c, n_k in enumerate(n_ks):
        adjusted[:, c] = bh_adjust(raw[:, c])
        thresholds[c] = acceptance_threshold(n_k, alpha)
        member[:, c] = _step_up_keeps(raw[:, c], n_k, _grid_count(n_k, alpha))
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


def _train_scores(data: LabeledDataset, model: ClassModel) -> list[np.ndarray]:
    """Each class's training rows scored against that class's moments,
    which must be for ``data``'s K classes and p features."""
    if model.means.shape != (data.n_classes, data.n_features):
        raise DataError(
            f"class moments are for {model.n_classes} classes x "
            f"{model.n_features} features; data has {data.n_classes} x "
            f"{data.n_features}"
        )
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


def _ranker(model: ClassModel, calibration: list[np.ndarray]):
    """``rank(test) -> (raw, n_k)``: the batch scored once against every class
    of ``model`` and ranked among each class's ``calibration`` scores."""

    def rank(test: TestBatch) -> tuple[np.ndarray, list[int]]:
        if test.n_features != model.n_features:
            raise DataError(
                f"test batch has {test.n_features} features, training data has "
                f"{model.n_features}"
            )
        # a finite row far from a class mean can overflow its score to inf
        test_scores = score_classes(model, test.features)
        if not np.isfinite(test_scores.max()):  # a NaN carries through max too
            row, class_index = np.argwhere(~np.isfinite(test_scores.T))[0]
            raise DataError(
                f"test row {row} overflows its score against class {class_index + 1}; "
                "rescale the features"
            )
        raw = [conformal_pvalues(scores, t) for scores, t in zip(calibration, test_scores)]
        return np.column_stack(raw), [len(scores) for scores in calibration]

    return rank


def _known(known: ClassModel | None) -> ClassModel:
    if known is None:  # else scoring None would end in a traceback, not one line
        raise DataError("predictor 'oracle' needs known class moments, got none")
    return known


PREDICTORS = {
    "empirical": lambda train, known, floor: _ranker(
        model := fit_model(train, floor), _train_scores(train, model)
    ),
    "oracle": lambda train, known, floor: _ranker(
        model := _known(known), _train_scores(train, model)
    ),
}
