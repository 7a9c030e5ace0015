"""Evaluation metrics: hand-checked instance, edge conventions, naive cross-check."""

import numpy as np
import pytest

from confset import (
    DataError,
    MetricsReport,
    PredictionSets,
    accuracy,
    ambiguity,
    classwise_fdr,
    coverage,
    evaluate_sets,
    false_label_rate,
    global_fdr,
    outlier_power,
    rejection_global_fdp,
    scw_fdr_loss,
)
from conftest import naive_metrics


# One instance worked out by hand (K = 2, truth 3 means outlier):
#   point 0: truth 1, set {1}      correct singleton
#   point 1: truth 1, set {2}      wrong singleton
#   point 2: truth 2, set {}       inlier declared outlier
#   point 3: truth 3, set {1, 2}   outlier given a full set
#   point 4: truth 3, set {}       outlier caught
HAND_SETS = PredictionSets.from_sets([{1}, {2}, set(), {1, 2}, set()], n_classes=2)
HAND_TRUTH = np.array([1, 1, 2, 3, 3])


class TestHandInstance:
    def test_classwise_fdr(self):
        # class 1 rejected at points 1,2,4; only point 1 is truly class 1
        assert classwise_fdr(HAND_SETS, HAND_TRUTH, 1) == pytest.approx(1 / 3)
        # class 2 rejected at points 0,2,4; only point 2 is truly class 2
        assert classwise_fdr(HAND_SETS, HAND_TRUTH, 2) == pytest.approx(1 / 3)

    def test_scw_fdr(self):
        # (1 + 1) / (3 + 3)
        assert scw_fdr_loss(HAND_SETS, HAND_TRUTH) == pytest.approx(1 / 3)

    def test_rejection_global_fdp(self):
        assert rejection_global_fdp(HAND_SETS, HAND_TRUTH) == pytest.approx(2 / 6)

    def test_global_fdr(self):
        # empty sets at points 2,4; point 2 is a true inlier
        assert global_fdr(HAND_SETS, HAND_TRUTH) == pytest.approx(1 / 2)

    def test_outlier_power(self):
        # outliers at 3,4; only 4 got the empty set
        assert outlier_power(HAND_SETS, HAND_TRUTH) == pytest.approx(1 / 2)

    def test_coverage(self):
        # inliers 0,1,2; only 0 has truth in its set
        assert coverage(HAND_SETS, HAND_TRUTH) == pytest.approx(1 / 3)

    def test_false_label_rate(self):
        # of 5 points, one true outlier (3) kept a nonempty set
        assert false_label_rate(HAND_SETS, HAND_TRUTH) == pytest.approx(1 / 5)

    def test_accuracy(self):
        # only point 0 is an inlier with the exact singleton
        assert accuracy(HAND_SETS, HAND_TRUTH) == pytest.approx(1 / 3)

    def test_ambiguity(self):
        # nonempty sizes 1, 1, 2
        assert ambiguity(HAND_SETS) == pytest.approx(4 / 3)

    def test_evaluate_sets_collects_everything(self):
        report = evaluate_sets(HAND_SETS, HAND_TRUTH)
        assert report.cw_fdr == pytest.approx((1 / 3, 1 / 3))
        assert report.scw_fdr == pytest.approx(1 / 3)
        assert report.fdr == pytest.approx(1 / 2)
        assert report.power == pytest.approx(1 / 2)
        assert report.coverage == pytest.approx(1 / 3)
        assert report.flr == pytest.approx(1 / 5)
        assert report.accuracy == pytest.approx(1 / 3)
        assert report.ambiguity == pytest.approx(4 / 3)

    def test_report_rows_order_and_names(self):
        rows = evaluate_sets(HAND_SETS, HAND_TRUTH).rows()
        assert [name for name, _ in rows] == [
            "cw_fdr_1", "cw_fdr_2", "scw_fdr", "fdr", "power",
            "coverage", "flr", "accuracy", "ambiguity",
        ]
        assert rows[0][1] == pytest.approx(1 / 3)
        assert rows[-1][1] == pytest.approx(4 / 3)


class TestEdgeConventions:
    def test_no_outliers_power_zero(self):
        sets = PredictionSets.from_sets([{1}, set()], n_classes=1)
        assert outlier_power(sets, np.array([1, 1])) == 0.0

    def test_no_inliers_coverage_and_accuracy_zero(self):
        sets = PredictionSets.from_sets([{1}, set()], n_classes=1)
        truth = np.array([2, 2])
        assert coverage(sets, truth) == 0.0
        assert accuracy(sets, truth) == 0.0

    def test_all_empty_ambiguity_zero(self):
        sets = PredictionSets.from_sets([set(), set()], n_classes=3)
        assert ambiguity(sets) == 0.0

    def test_no_empty_sets_fdr_zero(self):
        sets = PredictionSets.from_sets([{1}, {1}], n_classes=1)
        assert global_fdr(sets, np.array([1, 2])) == 0.0

    def test_no_rejections_classwise_zero(self):
        sets = PredictionSets.from_sets([{1, 2}, {1, 2}], n_classes=2)
        assert classwise_fdr(sets, np.array([1, 2]), 1) == 0.0
        assert scw_fdr_loss(sets, np.array([1, 2])) == 0.0
        assert rejection_global_fdp(sets, np.array([1, 2])) == 0.0

    def test_perfect_prediction(self):
        sets = PredictionSets.from_sets([{1}, {2}, set()], n_classes=2)
        truth = np.array([1, 2, 3])
        report = evaluate_sets(sets, truth)
        assert report.coverage == 1.0
        assert report.accuracy == 1.0
        assert report.power == 1.0
        assert report.fdr == 0.0
        assert report.flr == 0.0
        assert report.scw_fdr == 0.0
        assert report.cw_fdr == (0.0, 0.0)

    def test_ambiguity_ignores_truth_argument(self):
        assert ambiguity(HAND_SETS, HAND_TRUTH) == ambiguity(HAND_SETS)


class TestValidation:
    def test_truth_length_mismatch(self):
        with pytest.raises(DataError, match="one entry per test point"):
            coverage(HAND_SETS, np.array([1, 2]))

    def test_truth_out_of_range(self):
        with pytest.raises(DataError, match="1..3"):
            coverage(HAND_SETS, np.array([1, 1, 2, 3, 4]))
        with pytest.raises(DataError, match="1..3"):
            coverage(HAND_SETS, np.array([0, 1, 2, 3, 3]))

    def test_truth_must_be_one_dimensional(self):
        with pytest.raises(DataError):
            coverage(HAND_SETS, HAND_TRUTH.reshape(5, 1))

    def test_classwise_fdr_class_id_range(self):
        with pytest.raises(DataError, match="class_id"):
            classwise_fdr(HAND_SETS, HAND_TRUTH, 0)
        with pytest.raises(DataError, match="class_id"):
            classwise_fdr(HAND_SETS, HAND_TRUTH, 3)


class TestAgainstNaive:
    def test_random_instances(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 40))
            member = rng.random((m, k)) < rng.uniform(0.2, 0.8)
            sets = PredictionSets(member=member)
            truth = rng.integers(1, k + 2, size=m)
            report = evaluate_sets(sets, truth)
            want = naive_metrics(sets.sets, truth, n_classes=k)
            np.testing.assert_allclose(report.cw_fdr, want["cw_fdr"], rtol=1e-12)
            for name in ("scw_fdr", "fdr", "power", "coverage",
                         "flr", "accuracy", "ambiguity"):
                assert getattr(report, name) == pytest.approx(want[name]), name
            assert rejection_global_fdp(sets, truth) == pytest.approx(
                want["rejection_fdp"]
            )

    def test_scw_never_exceeds_rejection_fdp(self, rng):
        for _ in range(500):
            k = int(rng.integers(1, 7))
            m = int(rng.integers(1, 25))
            sets = PredictionSets(member=rng.random((m, k)) < rng.random())
            truth = rng.integers(1, k + 2, size=m)
            assert scw_fdr_loss(sets, truth) <= rejection_global_fdp(sets, truth) + 1e-15


def per_metric_report(sets, truth) -> MetricsReport:
    """The report assembled from one per-metric function call per field."""
    return MetricsReport(
        cw_fdr=tuple(classwise_fdr(sets, truth, c) for c in range(1, sets.n_classes + 1)),
        scw_fdr=scw_fdr_loss(sets, truth),
        fdr=global_fdr(sets, truth),
        power=outlier_power(sets, truth),
        coverage=coverage(sets, truth),
        flr=false_label_rate(sets, truth),
        accuracy=accuracy(sets, truth),
        ambiguity=ambiguity(sets),
    )


def typed_rows(report):
    return [(name, type(value), value) for name, value in report.rows()]


class TestOneTally:
    """evaluate_sets counts once; every field keeps the value and the type
    (numpy float or Python 0.0) of its per-metric function."""

    @pytest.mark.parametrize(
        "truth_range", ["with_outliers", "no_outliers", "no_inliers"]
    )
    @pytest.mark.parametrize("m", [1, 2, 37])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_random_instances(self, rng, k, m, truth_range):
        low, high = {"with_outliers": (1, k + 1), "no_outliers": (1, k),
                     "no_inliers": (k + 1, k + 1)}[truth_range]
        for _ in range(20):
            member = rng.random((m, k)) < rng.uniform(0.1, 0.9)
            sets = PredictionSets(member=member)
            truth = rng.integers(low, high + 1, size=m)
            assert typed_rows(evaluate_sets(sets, truth)) == typed_rows(
                per_metric_report(sets, truth)
            )

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("fill", [False, True])
    def test_every_set_empty_or_full(self, rng, m, fill):
        sets = PredictionSets(member=np.full((m, 3), fill))
        for truth in (rng.integers(1, 5, size=m), np.full(m, 4), np.full(m, 2)):
            assert typed_rows(evaluate_sets(sets, truth)) == typed_rows(
                per_metric_report(sets, truth)
            )

    def test_hand_instance(self):
        assert typed_rows(evaluate_sets(HAND_SETS, HAND_TRUTH)) == typed_rows(
            per_metric_report(HAND_SETS, HAND_TRUTH)
        )


class TestReportContainer:
    def test_frozen(self):
        report = evaluate_sets(HAND_SETS, HAND_TRUTH)
        with pytest.raises(Exception):
            report.fdr = 0.0

    def test_constructible_directly(self):
        r = MetricsReport(
            cw_fdr=(0.1,), scw_fdr=0.1, fdr=0.0, power=1.0,
            coverage=0.9, flr=0.0, accuracy=0.8, ambiguity=1.2,
        )
        assert r.rows()[0] == ("cw_fdr_1", 0.1)
