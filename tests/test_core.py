"""Container validation, immutability, and the deviation envelope."""

import dataclasses
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confset import (
    ClassModel,
    core,
    DataError,
    LabeledDataset,
    PredictionSets,
    PValueMatrix,
    TestBatch,
    score_batch,
    validation,
)
from confset.validation import _deviation_bound, check_deviation_trend


def small_data(**kw):
    defaults = dict(
        features=np.arange(12.0).reshape(6, 2),
        labels=np.array([1, 1, 1, 2, 2, 2]),
    )
    defaults.update(kw)
    return LabeledDataset(**defaults)


CORE_ERRORS = [
    obj for obj in map(vars(core).get, core.__all__)
    if isinstance(obj, type) and issubclass(obj, Exception)
]


@pytest.mark.parametrize("error", CORE_ERRORS, ids=lambda e: e.__name__)
def test_errors_survive_pickle(error):
    # a worker process sends its exception back pickled; one that cannot be
    # rebuilt breaks the whole pool instead of ending in its own line
    back = pickle.loads(pickle.dumps(error("class 1 has zero variance")))
    assert type(back) is error
    assert str(back) == "class 1 has zero variance"


class TestLabeledDataset:
    def test_basic_properties(self):
        data = small_data()
        assert data.n == 6
        assert data.n_features == 2
        assert data.n_classes == 2
        assert list(data.class_counts) == [3, 3]
        np.testing.assert_array_equal(
            data.class_rows(2), np.arange(12.0).reshape(6, 2)[3:]
        )

    def test_arrays_are_readonly(self):
        data = small_data()
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.labels[0] = 2

    def test_frozen(self):
        data = small_data()
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.n_classes = 3

    def test_rejects_1d_features(self):
        with pytest.raises(DataError, match="2-D"):
            small_data(features=np.arange(6.0))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            LabeledDataset(features=np.empty((0, 2)), labels=np.empty(0, dtype=int))

    def test_rejects_nonfinite_naming_position(self):
        features = np.arange(12.0).reshape(6, 2)
        features[4, 1] = np.nan
        with pytest.raises(DataError, match=r"row 4.*column 1"):
            small_data(features=features)

    def test_integral_float_labels_coerce(self):
        data = small_data(labels=np.array([1.0, 1, 1, 2, 2, 2]))
        assert data.labels.dtype == np.int64

    def test_rejects_fractional_labels(self):
        with pytest.raises(DataError, match="integer"):
            small_data(labels=np.array([1.5, 1, 1, 2, 2, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "2"])
    def test_rejects_nan_infinite_or_text_labels(self, bad):
        with pytest.raises(DataError, match="^labels must be integers$"):
            small_data(labels=[bad, 1, 1, 2, 2, 2])

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DataError):
            small_data(labels=np.array([0, 0, 0, 1, 1, 1]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataError):
            small_data(labels=np.array([1, 1, 1, 2, 2]))

    def test_rejects_class_below_three_rows(self):
        with pytest.raises(DataError, match="3"):
            small_data(labels=np.array([1, 1, 1, 1, 2, 2]))

    def test_rejects_a_missing_class(self):
        with pytest.raises(DataError, match="^class 2 has 0 rows; every class needs >= 3$"):
            LabeledDataset(features=np.zeros((9, 1)), labels=[1] * 6 + [3] * 3)

    @pytest.mark.parametrize("label", [10**7, 10**12])
    def test_rejects_a_label_beyond_a_third_of_the_rows_before_counting(self, label):
        # counting would size an array by the label: 80 MB at 10**7, 7 TiB at 10**12
        tracemalloc.start()
        try:
            with pytest.raises(
                DataError,
                match=f"^largest label {label} needs >= {3 * label} rows, got 3; "
                "every class needs >= 3$",
            ):
                LabeledDataset(features=np.zeros((3, 1)), labels=[label] * 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_class_rows_bounds(self):
        with pytest.raises(DataError):
            small_data().class_rows(3)

    @pytest.mark.parametrize(
        "labels", [[1, 1, 1, 2, 2, 2, 3, 3, 3], [2, 2, 2, 1, 1, 1, 3, 3, 3]]
    )
    def test_class_rows_of_grouped_labels_are_readonly_views(self, labels):
        labels = np.array(labels)
        features = np.arange(18.0).reshape(9, 2)
        data = LabeledDataset(features=features, labels=labels)
        for k in (1, 2, 3):
            rows = data.class_rows(k)
            assert np.shares_memory(rows, data.features)
            assert not rows.flags.writeable
            np.testing.assert_array_equal(rows, features[labels == k])

    @pytest.mark.parametrize(
        "labels", [[1, 2, 1, 2, 1, 2], [1, 1, 2, 2, 2, 1], [2, 1, 1, 1, 2, 2]]
    )
    def test_class_rows_of_interleaved_labels_equal_mask_selection(self, labels):
        labels = np.array(labels)
        features = np.arange(12.0).reshape(6, 2)
        data = LabeledDataset(features=features, labels=labels)
        for k in (1, 2):
            np.testing.assert_array_equal(data.class_rows(k), features[labels == k])

    def test_grouped_keeps_a_grouped_dataset(self):
        # rows already in label order are kept as given, not copied
        features = np.arange(12.0).reshape(6, 2)
        data = LabeledDataset(features=features, labels=[1, 1, 1, 2, 2, 2])
        assert np.shares_memory(data.features, features)

    @pytest.mark.parametrize(
        "labels", [[1, 2, 1, 2, 1, 2], [1, 1, 2, 2, 2, 1], [2, 1, 1, 1, 2, 2]]
    )
    def test_grouped_sorts_interleaved_labels_stably(self, labels):
        # the dataset is grouped once, when it is built
        labels = np.array(labels)
        features = np.arange(12.0).reshape(6, 2)
        grouped = LabeledDataset(features=features, labels=labels)
        np.testing.assert_array_equal(grouped.labels, np.sort(labels))
        for k in (1, 2):
            rows = grouped.class_rows(k)
            assert np.shares_memory(rows, grouped.features)
            np.testing.assert_array_equal(rows, features[labels == k])

    @given(data=st.data(), k=st.integers(1, 5), p=st.integers(1, 3))
    def test_any_row_order_is_the_stable_sort_by_label(self, data, k, p):
        counts = data.draw(st.lists(st.integers(3, 8), min_size=k, max_size=k))
        labels = np.repeat(np.arange(1, k + 1), counts)
        perm = np.array(data.draw(st.permutations(range(labels.size))))
        features = np.arange(labels.size * p, dtype=float).reshape(-1, p)
        built = LabeledDataset(features=features[perm], labels=labels[perm])
        order = np.argsort(labels[perm], kind="stable")
        np.testing.assert_array_equal(built.features, features[perm][order])
        np.testing.assert_array_equal(built.labels, labels[perm][order])
        assert built.n_classes == k
        assert list(built.class_counts) == counts
        for c in range(1, k + 1):
            rows = built.class_rows(c)
            assert np.shares_memory(rows, built.features)
            assert not rows.flags.writeable
            np.testing.assert_array_equal(rows, features[perm][labels[perm] == c])

    def test_coerces_lists_to_float64(self):
        data = LabeledDataset(features=[[0, 1], [2, 3], [4, 5]], labels=[1, 1, 1])
        assert data.features.dtype == np.float64
        assert data.labels.dtype == np.int64


class TestTestBatch:
    def test_unlabeled(self):
        batch = TestBatch(features=np.zeros((3, 2)))
        assert batch.truth is None
        assert batch.m == 3
        assert batch.n_features == 2

    def test_labeled(self):
        batch = TestBatch(features=np.zeros((3, 2)), truth=[1, 2, 3])
        assert batch.truth.dtype == np.int64

    @pytest.mark.parametrize("truth", [[1.5, 2.7], [1.0, np.nan], [np.inf, 1.0], ["1", "2"]])
    def test_rejects_non_integer_truth(self, truth):
        # 1.5 and 2.7 were once truncated to 1 and 2
        with pytest.raises(DataError, match="^truth labels must be integers$"):
            TestBatch(features=np.zeros((2, 1)), truth=truth)

    def test_integral_float_truth_coerces(self):
        batch = TestBatch(features=np.zeros((2, 1)), truth=[1.0, 3.0])
        assert batch.truth.dtype == np.int64
        assert batch.truth.tolist() == [1, 3]

    def test_rejects_truth_below_one(self):
        with pytest.raises(DataError):
            TestBatch(features=np.zeros((2, 2)), truth=[0, 1])

    def test_rejects_truth_length_mismatch(self):
        with pytest.raises(DataError):
            TestBatch(features=np.zeros((2, 2)), truth=[1])

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            TestBatch(features=np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_naming_first_in_row_order(self, bad):
        features = np.zeros((5, 4))
        features[3, 0] = bad
        features[2, 3] = bad
        features[4, 1] = -bad
        with pytest.raises(DataError) as err:
            TestBatch(features=features)
        assert str(err.value) == "non-finite value in features at row 2, column 3"

    def test_finiteness_check_builds_no_mask(self):
        # a float64 batch is taken as it is; the check must not allocate a
        # bool mask of n x p bytes (1 MB here) to find nothing
        features = np.random.default_rng(0).standard_normal((2000, 500))
        tracemalloc.start()
        try:
            TestBatch(features=features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < features.size // 8, peak


class TestClassSummary:
    """ClassModel holding one class's moments, as a single-class fit gives."""

    def test_valid(self):
        model = ClassModel(means=np.zeros((1, 2)), variances=np.ones((1, 2)))
        assert model.n_classes == 1 and model.n_features == 2

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(DataError):
            ClassModel(means=np.zeros((1, 2)), variances=np.array([[1.0, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            ClassModel(means=np.zeros((1, 2)), variances=np.ones((1, 3)))


class TestOracleParams:
    """ClassModel holding K classes' known moments, as oracle_params gives."""

    def test_class_params(self):
        params = ClassModel(
            means=np.array([[0.0, 1.0], [2.0, 3.0]]),
            variances=np.ones((2, 2)),
        )
        mean, var = params.class_params(2)
        np.testing.assert_array_equal(mean, [2.0, 3.0])
        assert params.n_classes == 2 and params.n_features == 2
        with pytest.raises(DataError):
            params.class_params(3)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(DataError):
            ClassModel(means=np.zeros((1, 2)), variances=np.array([[1.0, -1.0]]))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("variances", np.inf,
             "class 2 variance overflows in feature column 1; rescale the column"),
            ("means", -np.inf, "non-finite class mean: class 2 has -inf in feature column 1"),
            ("variances", -0.0,
             "class variances must be positive: class 2 has -0.0 in feature column 1"),
            ("variances", 1 / np.finfo(np.float64).max,
             "class variances must exceed 1/max float, or their reciprocals overflow: "
             "class 2 has 5.562684646268003e-309 in feature column 1"),
        ],
    )
    def test_bad_moment_is_named(self, field, value, message):
        moments = {"means": np.zeros((2, 3)), "variances": np.ones((2, 3))}
        moments[field][1, 1] = value
        with pytest.raises(DataError) as err:
            ClassModel(**moments)
        assert str(err.value) == message

    def test_smallest_scorable_variance(self):
        # the next float above 1/max has a finite reciprocal, so it scores
        var = np.nextafter(1 / np.finfo(np.float64).max, 1.0)
        model = ClassModel(means=np.zeros((1, 2)), variances=np.array([[var, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert score_batch(model, np.zeros((1, 2)), 1)[0] == 0.0

    def test_rejects_one_dimensional_moments(self):
        with pytest.raises(DataError, match=r"\(K, p\)"):
            ClassModel(means=np.zeros(2), variances=np.ones(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError, match="non-finite"):
            ClassModel(means=np.array([[0.0, np.nan]]), variances=np.ones((1, 2)))

    def test_arrays_are_read_only(self):
        params = ClassModel(means=np.zeros((2, 2)), variances=np.ones((2, 2)))
        with pytest.raises(ValueError):
            params.means[0, 0] = 1.0


class TestCallerArrays:
    """A container shares memory with a C-contiguous float64 input, through a
    read-only view: the caller's own array stays writable."""

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda f: LabeledDataset(f, [1, 1, 1]), "features"),
            (lambda f: TestBatch(f), "features"),
            (lambda f: ClassModel(np.zeros_like(f), f), "variances"),
        ],
        ids=["dataset", "batch", "moments"],
    )
    def test_input_stays_writable(self, build, field):
        given = np.ones((3, 2))
        held = getattr(build(given), field)
        assert np.shares_memory(held, given)
        assert given.flags.writeable and not held.flags.writeable
        given[0, 0] = 5.0  # raised "assignment destination is read-only"
        assert held[0, 0] == 5.0
        with pytest.raises(ValueError):
            held[0, 0] = 1.0


class TestPValueMatrix:
    def good(self, **kw):
        defaults = dict(
            raw=np.full((3, 2), 0.5),
            adjusted=np.full((3, 2), 0.6),
            thresholds=np.array([0.05, 0.05]),
            alpha=0.05,
        )
        defaults.update(kw)
        return PValueMatrix(**defaults)

    def test_valid(self):
        pv = self.good()
        assert pv.m == 3 and pv.n_classes == 2

    def test_rejects_out_of_range_pvalues(self):
        with pytest.raises(DataError):
            self.good(raw=np.full((3, 2), 0.0))
        with pytest.raises(DataError):
            self.good(adjusted=np.full((3, 2), 1.5))
        with pytest.raises(DataError):
            self.good(raw=np.full((3, 2), np.nan))
        with pytest.raises(DataError):
            self.good(adjusted=np.array([[0.5, 0.5], [np.nan, 0.5], [0.5, 0.5]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            self.good(adjusted=np.full((2, 2), 0.5))
        with pytest.raises(DataError):
            self.good(thresholds=np.array([0.05]))

    def test_rejects_bad_alpha(self):
        with pytest.raises(DataError):
            self.good(alpha=0.0)


class TestPredictionSets:
    def test_from_sets_round_trip(self):
        sets = [{1, 3}, set(), {2}]
        member = np.zeros((3, 3), dtype=bool)
        for i, labels in enumerate(sets):
            member[i, [k - 1 for k in labels]] = True
        obj = PredictionSets(member)
        assert obj.m == 3 and obj.n_classes == 3
        assert [set(s) for s in obj.sets] == sets
        np.testing.assert_array_equal(obj.sizes, [2, 0, 1])

    def test_zero_one_numeric_coerces(self):
        obj = PredictionSets(member=np.eye(2))
        assert obj.member.dtype == np.bool_

    def test_rejects_non_boolean(self):
        with pytest.raises(DataError):
            PredictionSets(member=np.full((2, 2), 2.0))

    def test_rejects_1d(self):
        with pytest.raises(DataError):
            PredictionSets(member=np.array([True, False]))


class TestDeviationBound:
    """The envelope of validate's ``deviation`` check."""

    def test_formula(self):
        expected = 4.0 * (math.sqrt(2.0) + 4.0 / 3.0) * math.sqrt(math.log(100) / 100)
        assert _deviation_bound(100, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing_in_n(self):
        values = [_deviation_bound(n, 2.0) for n in (10, 100, 1000, 10000)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_rejects_small_n(self, monkeypatch):
        # a training size below 3 is rejected before any p-value is drawn
        monkeypatch.setattr(validation, "TREND_N_GRID", (2, 100))
        with pytest.raises(DataError, match="n_k must be >= 3"):
            check_deviation_trend()
