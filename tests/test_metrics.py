"""Evaluation metrics: hand-checked instance, edge conventions, and every
field of ``evaluate_sets`` against the naive loop in ``conftest``."""

from dataclasses import fields

import numpy as np
import pytest

from confset import DataError, MetricsReport, PredictionSets, evaluate_sets
from conftest import naive_metrics


# One instance worked out by hand (K = 2, truth 3 means outlier):
#   point 0: truth 1, set {1}      correct singleton
#   point 1: truth 1, set {2}      wrong singleton
#   point 2: truth 2, set {}       inlier declared outlier
#   point 3: truth 3, set {1, 2}   outlier given a full set
#   point 4: truth 3, set {}       outlier caught
HAND_SETS = PredictionSets(np.array([[1, 0], [0, 1], [0, 0], [1, 1], [0, 0]], dtype=bool))
HAND_TRUTH = np.array([1, 1, 2, 3, 3])
HAND = evaluate_sets(HAND_SETS, HAND_TRUTH)


def assert_matches_naive(sets, truth):
    """Each report field equals the naive loop's exactly, as both divide the
    same integer counts, and the summarized loss is at most the naive
    loop's pooled FDP, with zero tolerance."""
    report = evaluate_sets(sets, truth)
    want = naive_metrics(sets.sets, truth, n_classes=sets.n_classes)
    for f in fields(MetricsReport):
        assert getattr(report, f.name) == want[f.name], f.name
    assert report.scw_fdr <= want["rejection_fdp"]


class TestHandInstance:
    def test_classwise_fdr(self):
        # class 1 rejected at points 1,2,4; only point 1 is truly class 1
        # class 2 rejected at points 0,2,4; only point 2 is truly class 2
        assert HAND.cw_fdr == (1 / 3, 1 / 3)

    def test_scw_fdr(self):
        # (1 + 1) / (3 + 3)
        assert HAND.scw_fdr == 1 / 3

    def test_rejection_global_fdp(self):
        # the pooled FDP V / max(1, R) that bounds scw_fdr, as the naive loop
        # that the bound's tests read counts it: 2 false of 6 rejections
        assert naive_metrics(HAND_SETS.sets, HAND_TRUTH, 2)["rejection_fdp"] == 2 / 6

    def test_global_fdr(self):
        # empty sets at points 2,4; point 2 is a true inlier
        assert HAND.fdr == 1 / 2

    def test_outlier_power(self):
        # outliers at 3,4; only 4 got the empty set
        assert HAND.power == 1 / 2

    def test_coverage(self):
        # inliers 0,1,2; only 0 has truth in its set
        assert HAND.coverage == 1 / 3

    def test_false_label_rate(self):
        # of 5 points, one true outlier (3) kept a nonempty set
        assert HAND.flr == 1 / 5

    def test_accuracy(self):
        # only point 0 is an inlier with the exact singleton
        assert HAND.accuracy == 1 / 3

    def test_ambiguity(self):
        # nonempty sizes 1, 1, 2
        assert HAND.ambiguity == 4 / 3

    def test_evaluate_sets_collects_everything(self):
        assert HAND == MetricsReport(
            cw_fdr=(1 / 3, 1 / 3), scw_fdr=1 / 3, fdr=1 / 2, power=1 / 2,
            coverage=1 / 3, flr=1 / 5, accuracy=1 / 3, ambiguity=4 / 3,
        )

    def test_report_rows_order_and_names(self):
        rows = HAND.rows()
        assert [name for name, _ in rows] == [
            "cw_fdr_1", "cw_fdr_2", "scw_fdr", "fdr", "power",
            "coverage", "flr", "accuracy", "ambiguity",
        ]
        assert rows[0][1] == 1 / 3
        assert rows[-1][1] == 4 / 3


class TestEdgeConventions:
    def test_no_outliers_power_zero(self):
        sets = PredictionSets(np.array([[True], [False]]))
        assert evaluate_sets(sets, np.array([1, 1])).power == 0.0

    def test_no_inliers_coverage_and_accuracy_zero(self):
        sets = PredictionSets(np.array([[True], [False]]))
        report = evaluate_sets(sets, np.array([2, 2]))
        assert report.coverage == 0.0
        assert report.accuracy == 0.0

    def test_all_empty_ambiguity_zero(self):
        sets = PredictionSets(np.zeros((2, 3), dtype=bool))
        assert evaluate_sets(sets, np.array([1, 4])).ambiguity == 0.0

    def test_no_empty_sets_fdr_zero(self):
        sets = PredictionSets(np.ones((2, 1), dtype=bool))
        assert evaluate_sets(sets, np.array([1, 2])).fdr == 0.0

    def test_no_rejections_classwise_zero(self):
        sets = PredictionSets(np.ones((2, 2), dtype=bool))
        report = evaluate_sets(sets, np.array([1, 2]))
        assert report.cw_fdr == (0.0, 0.0)
        assert report.scw_fdr == 0.0

    def test_perfect_prediction(self):
        sets = PredictionSets(np.array([[1, 0], [0, 1], [0, 0]], dtype=bool))
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
        assert evaluate_sets(HAND_SETS, np.full(5, 3)).ambiguity == HAND.ambiguity


class TestValidation:
    @staticmethod
    def raises(truth, match=None):
        with pytest.raises(DataError, match=match):
            evaluate_sets(HAND_SETS, truth)

    def test_truth_length_mismatch(self):
        self.raises(np.array([1, 2]), "one entry per test point")

    def test_truth_out_of_range(self):
        self.raises(np.array([1, 1, 2, 3, 4]), "1..3")
        self.raises(np.array([0, 1, 2, 3, 3]), "1..3")

    @pytest.mark.parametrize(
        "truth", [[1.9, 2.2, 2.0, 3.0, 3.0], [1.0, 1.0, np.nan, 3.0, 3.0]]
    )
    def test_truth_must_be_integers(self, truth):
        # 1.9 and 2.2 were once scored as 1 and 2
        self.raises(np.array(truth), "^truth labels must be integers$")

    def test_truth_must_be_one_dimensional(self):
        self.raises(HAND_TRUTH.reshape(5, 1))


class TestAgainstNaive:
    def test_random_instances(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 40))
            member = rng.random((m, k)) < rng.uniform(0.2, 0.8)
            truth = rng.integers(1, k + 2, size=m)
            assert_matches_naive(PredictionSets(member=member), truth)


class TestOneTally:
    """The one tally of evaluate_sets equals the naive loop on every shape:
    one, two or four classes; one, two or many points; truths with and
    without outliers or inliers; every set empty or every set full."""

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
            assert_matches_naive(
                PredictionSets(member=member), rng.integers(low, high + 1, size=m)
            )

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("fill", [False, True])
    def test_every_set_empty_or_full(self, rng, m, fill):
        sets = PredictionSets(member=np.full((m, 3), fill))
        for truth in (rng.integers(1, 5, size=m), np.full(m, 4), np.full(m, 2)):
            assert_matches_naive(sets, truth)

    def test_hand_instance(self):
        assert_matches_naive(HAND_SETS, HAND_TRUTH)


class TestReportContainer:
    def test_frozen(self):
        with pytest.raises(Exception):
            HAND.fdr = 0.0

    def test_constructible_directly(self):
        r = MetricsReport(
            cw_fdr=(0.1,), scw_fdr=0.1, fdr=0.0, power=1.0,
            coverage=0.9, flr=0.0, accuracy=0.8, ambiguity=1.2,
        )
        assert r.rows()[0] == ("cw_fdr_1", 0.1)
