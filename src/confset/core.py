"""Core data containers and structural validation.

Everything downstream (scoring, conformal p-values, metrics) operates on the
types defined here. Containers are frozen dataclasses holding read-only numpy
arrays: once constructed they are safe to share across worker processes.
An input that is already a C-contiguous array of the stored dtype (float64
features and moments) is not copied: the container holds a read-only view
of it, so it shares memory with the caller's array, which stays writable.
The module holds containers and errors only; the envelope on the gap
between fitted and known-moment p-values lives with its one check, in
``validation``.

Label conventions
-----------------
Training labels are integers 1..K, K the largest label, and a training
set stores each class's rows as one contiguous run, in label order. Test
truth labels, when present, live in 1..K+1 where K+1 marks a true outlier
(a point from none of the K training classes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "DegenerateVarianceError",
    "LabeledDataset",
    "TestBatch",
    "ClassModel",
    "PValueMatrix",
    "PredictionSets",
]


class DataError(ValueError):
    """Structural problem with input data (bad labels, non-finite features, shape)."""


class DegenerateVarianceError(DataError):
    """A class has a zero-variance feature column, so scores are undefined."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a).view()
    a.flags.writeable = False
    return a


def _check_features(features: np.ndarray, name: str = "features") -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DataError(f"{name} must be 2-D (n, p), got shape {features.shape}")
    if features.shape[0] < 1 or features.shape[1] < 1:
        raise DataError(f"{name} must be non-empty, got shape {features.shape}")
    # min and max carry any NaN through, so two reductions test every value
    # without an n x p mask; the mask is built only to name a failure
    if not (np.isfinite(features.min()) and np.isfinite(features.max())):
        i, j = np.argwhere(~np.isfinite(features))[0]
        raise DataError(f"non-finite value in {name} at row {i}, column {j}")
    return features


def _integer_labels(values, name: str) -> np.ndarray:
    """``values`` as int64; a DataError unless each is a whole number."""
    labels = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage
        as_int = labels.astype(np.int64) if labels.dtype.kind in "biuf" else None
    if as_int is None or not np.array_equal(as_int, labels):
        raise DataError(f"{name} must be integers")
    return as_int


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Training data: feature matrix plus integer class labels 1..K.

    K is the largest label. The rows are stored as K contiguous runs in
    label order: rows given in any other order are stably sorted by label
    once, here, so each class keeps its rows in the given order and
    :meth:`class_rows` copies nothing.

    Parameters
    ----------
    features : ndarray of shape (n, p)
        Finite float features.
    labels : ndarray of shape (n,)
        Integer labels in 1..K. Every class must appear at least 3 times
        (class summaries need a usable sample variance).
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = _check_features(self.features)
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise DataError(
                f"labels must be 1-D with one entry per row, got shape {labels.shape} "
                f"for {features.shape[0]} rows"
            )
        labels = _integer_labels(labels, "labels")
        k = int(labels.max())
        if labels.min() < 1:
            raise DataError(f"label {labels[labels < 1][0]} outside 1..{k}")
        # checked before counting, so a huge label cannot size the count array
        if k > labels.size // 3:
            raise DataError(
                f"largest label {k} needs >= {3 * k} rows, got {labels.size}; "
                f"every class needs >= 3"
            )
        counts = np.bincount(labels)[1:]
        if counts.min() < 3:
            short = int(np.argmin(counts)) + 1
            raise DataError(
                f"class {short} has {counts[short - 1]} rows; every class needs >= 3"
            )
        if np.any(labels[1:] < labels[:-1]):
            order = np.argsort(labels, kind="stable")
            features, labels = features[order], labels[order]
        object.__setattr__(self, "features", _readonly(features))
        object.__setattr__(self, "labels", _readonly(labels))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        """K, the largest label."""
        return int(self.labels[-1])

    @property
    def class_counts(self) -> np.ndarray:
        """Rows per class, shape (n_classes,)."""
        return np.bincount(self.labels)[1:]

    def class_rows(self, class_id: int) -> np.ndarray:
        """Feature rows of one class, in the order given: a read-only view
        of ``features``."""
        if not 1 <= class_id <= self.n_classes:
            raise DataError(f"class_id {class_id} outside 1..{self.n_classes}")
        start, stop = np.searchsorted(self.labels, (class_id, class_id + 1))
        return self.features[start:stop]


@dataclass(frozen=True, eq=False)
class TestBatch:
    """Unlabeled points to classify, with optional ground truth for evaluation.

    ``truth`` entries are in 1..K+1; K+1 marks a true outlier. The upper
    bound is checked where K is known (metrics, prediction).
    """

    features: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self):
        features = _check_features(self.features)
        truth = self.truth
        if truth is not None:
            truth = _integer_labels(truth, "truth labels")
            if truth.ndim != 1 or truth.shape[0] != features.shape[0]:
                raise DataError(
                    f"truth must be 1-D with one entry per row, got shape {truth.shape}"
                )
            if truth.size and truth.min() < 1:
                raise DataError(f"truth label {truth.min()} below 1")
            truth = _readonly(truth)
        object.__setattr__(self, "features", _readonly(features))
        object.__setattr__(self, "truth", truth)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class ClassModel:
    """Per-class means and diagonal variances, row k-1 for class k in 1..K.

    The one container for class moments: fitted from training rows by
    ``fit_model``, or known in advance, as the true parameters of a
    simulation from ``oracle_params``. Scoring reads both alike.
    """

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        if means.ndim != 2 or variances.shape != means.shape:
            raise DataError(
                f"means and variances must be matching (K, p) arrays, got "
                f"{means.shape} and {variances.shape}"
            )
        # scoring weighs each feature by 1 / variance, which must be finite,
        # and 1 / (1 / max float) rounds up to inf
        for moments, bad, problem in (
            (variances, ~np.isfinite(variances),
             "class {k} variance overflows in feature column {j}; rescale the column"),
            (means, ~np.isfinite(means), "non-finite class mean: {at}"),
            (variances, variances <= 0.0, "class variances must be positive: {at}"),
            (variances, variances <= 1.0 / np.finfo(np.float64).max,
             "class variances must exceed 1/max float, or their reciprocals overflow: {at}"),
        ):
            if bad.any():
                k, j = np.argwhere(bad)[0]
                at = f"class {k + 1} has {moments[k, j].item()!r} in feature column {j}"
                raise DataError(problem.format(k=k + 1, j=j, at=at))
        object.__setattr__(self, "means", _readonly(means))
        object.__setattr__(self, "variances", _readonly(variances))

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def class_params(self, class_id: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= class_id <= self.n_classes:
            raise DataError(f"class_id {class_id} outside 1..{self.n_classes}")
        return self.means[class_id - 1], self.variances[class_id - 1]


@dataclass(frozen=True, eq=False)
class PValueMatrix:
    """Conformal p-values for m test points against K classes.

    ``raw[i, k-1]`` is the rank p-value of test point i under class k among
    its n_k calibration scores, on the grid {1/(n_k+1), ..., 1}. ``adjusted``
    holds the column-wise BH adjustment (equal to ``raw`` when m == 1), and
    ``thresholds[k-1]`` the per-class acceptance cutoff: class k enters a
    prediction set iff adjusted > threshold, decided exactly on the grid, so
    a tie excludes it even where the float reads a hair above.
    """

    raw: np.ndarray
    adjusted: np.ndarray
    thresholds: np.ndarray
    alpha: float

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=np.float64)
        adjusted = np.asarray(self.adjusted, dtype=np.float64)
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if raw.ndim != 2 or adjusted.shape != raw.shape:
            raise DataError(
                f"raw and adjusted must be matching (m, K) arrays, got {raw.shape} "
                f"and {adjusted.shape}"
            )
        if thresholds.shape != (raw.shape[1],):
            raise DataError(
                f"thresholds must have one entry per class, got {thresholds.shape}"
            )
        for name, a in (("raw", raw), ("adjusted", adjusted)):
            if not np.all((a > 0) & (a <= 1)):  # NaN fails both sides
                raise DataError(f"{name} p-values must lie in (0, 1]")
        if not 0 < self.alpha < 1:
            raise DataError(f"alpha must be in (0, 1), got {self.alpha}")
        object.__setattr__(self, "raw", _readonly(raw))
        object.__setattr__(self, "adjusted", _readonly(adjusted))
        object.__setattr__(self, "thresholds", _readonly(thresholds))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def n_classes(self) -> int:
        return self.raw.shape[1]


@dataclass(frozen=True, eq=False)
class PredictionSets:
    """Accepted class labels per test point: an (m, K) mask of dtype bool, not 0/1 numbers.

    An all-False row is an empty prediction set: the point is declared an
    outlier. Rows with more than one True are ambiguous.
    """

    member: np.ndarray

    def __post_init__(self):
        member = np.asarray(self.member)
        if member.ndim != 2:
            raise DataError(f"member must be 2-D (m, K), got shape {member.shape}")
        if member.dtype != np.bool_:
            raise DataError("member must be boolean")
        object.__setattr__(self, "member", _readonly(member))

    @property
    def m(self) -> int:
        return self.member.shape[0]

    @property
    def n_classes(self) -> int:
        return self.member.shape[1]

    @property
    def sizes(self) -> np.ndarray:
        return self.member.sum(axis=1)

    @property
    def sets(self) -> list[frozenset[int]]:
        """Per-point accepted labels as frozensets."""
        return [frozenset(np.flatnonzero(row) + 1) for row in self.member]
