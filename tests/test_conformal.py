"""Conformal p-values, step-up adjustment, thresholds, and set prediction."""

import ast
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confset import conformal, experiment, scoring
from confset import (
    ClassModel,
    DataError,
    LabeledDataset,
    TestBatch,
    acceptance_threshold,
    bh_adjust,
    conformal_pvalues,
    fit_model,
    oracle_params,
    multi_class_config,
    generate,
    predict,
)
from conftest import (
    naive_bh,
    naive_conformal_pvalue,
    naive_keeps,
    naive_predict,
    naive_grid_count,
    random_instance,
    sets_equal,
)


def one_pvalue(train_scores, test_score) -> float:
    """p-value of a single test score, as a one-entry batch."""
    return float(conformal_pvalues(train_scores, np.array([test_score]))[0])


class TestConformalPValues:
    def test_hand_values(self):
        train = np.array([1.0, 3.0, 5.0])
        # (1 + #{train >= s}) / 4
        assert one_pvalue(train, 2.0) == pytest.approx(3 / 4)
        assert one_pvalue(train, 0.0) == pytest.approx(1.0)
        assert one_pvalue(train, 6.0) == pytest.approx(1 / 4)

    def test_tie_counts_as_at_least(self):
        train = np.array([1.0, 3.0, 5.0])
        assert one_pvalue(train, 5.0) == pytest.approx(2 / 4)
        assert one_pvalue(train, 1.0) == pytest.approx(1.0)

    def test_grid_property(self, rng):
        """Every p-value is r/(n+1) for an integer r in [1, n+1]."""
        train = rng.normal(size=57)
        test = rng.normal(size=200)
        p = conformal_pvalues(train, test)
        r = p * 58
        np.testing.assert_allclose(r, np.round(r), atol=1e-9)
        assert np.all(p >= 1 / 58 - 1e-12) and np.all(p <= 1.0 + 1e-12)

    def test_matches_naive_with_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 30))
            train = rng.integers(0, 6, size=n).astype(float)  # force ties
            test = rng.integers(0, 6, size=7).astype(float)
            got = conformal_pvalues(train, test)
            expected = [naive_conformal_pvalue(train, s) for s in test]
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_monotone_in_score(self, rng):
        train = rng.normal(size=40)
        test = np.sort(rng.normal(size=25))
        p = conformal_pvalues(train, test)
        assert np.all(np.diff(p) <= 1e-15)

    def test_rejects_empty_train(self):
        with pytest.raises(DataError):
            conformal_pvalues(np.array([]), np.array([1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            conformal_pvalues(np.array([1.0, np.nan]), np.array([1.0]))


class TestBHAdjust:
    def test_hand_example(self):
        got = bh_adjust(np.array([0.01, 0.04, 0.03, 0.20]))
        np.testing.assert_allclose(got, [0.04, 4 * 0.04 / 3, 4 * 0.04 / 3, 0.20],
                                   rtol=1e-12)

    def test_all_ones(self):
        np.testing.assert_array_equal(bh_adjust(np.ones(5)), np.ones(5))

    def test_single_entry_identity(self):
        assert bh_adjust(np.array([0.3]))[0] == pytest.approx(0.3)

    def test_output_at_least_input(self, rng):
        for _ in range(50):
            p = rng.uniform(1e-9, 1.0, size=int(rng.integers(1, 40)))
            assert np.all(bh_adjust(p) >= p - 1e-15)

    def test_capped_at_one(self, rng):
        p = rng.uniform(0.5, 1.0, size=30)
        assert np.all(bh_adjust(p) <= 1.0)

    def test_permutation_equivariance(self, rng):
        p = rng.uniform(1e-6, 1.0, size=25)
        perm = rng.permutation(25)
        np.testing.assert_allclose(bh_adjust(p)[perm], bh_adjust(p[perm]), rtol=1e-12)

    def test_matches_naive_including_ties(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 25))
            # mass on few distinct values to force ties
            p = rng.choice([0.01, 0.05, 0.2, 0.5, 1.0], size=m)
            np.testing.assert_allclose(bh_adjust(p), naive_bh(list(p)), rtol=1e-12)

    @pytest.mark.parametrize("pvalues", [[], [[0.5]]], ids=["empty", "2-D"])
    def test_rejects_empty_or_not_1d(self, pvalues):
        with pytest.raises(DataError, match="^pvalues must be a non-empty 1-D array$"):
            bh_adjust(pvalues)

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            bh_adjust(np.array([0.0, 0.5]))
        with pytest.raises(DataError):
            bh_adjust(np.array([0.5, 1.1]))
        with pytest.raises(DataError):
            bh_adjust(np.array([np.nan, 0.5]))


class TestAcceptanceThreshold:
    def test_hand_values(self):
        assert acceptance_threshold(99, 0.05) == pytest.approx(0.05)
        assert acceptance_threshold(10, 0.05) == 0.0
        assert acceptance_threshold(9, 1 / 10.4) == 0.0  # alpha just below 1/(n+1)
        assert acceptance_threshold(3, 0.2499999999999) == 0.0  # just below 1/(n+1)

    def test_float_product_near_integer(self):
        # (9+1)*0.3 = 2.9999999999999996 in floats; the floor must still be 3
        assert acceptance_threshold(9, 0.3) == pytest.approx(0.3)
        assert acceptance_threshold(19, 0.35) == pytest.approx(7 / 20)

    def test_monotone_in_alpha(self):
        grid = np.linspace(0.01, 0.99, 197)
        values = [acceptance_threshold(33, a) for a in grid]
        assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))

    def test_matches_naive(self, rng):
        # the hand value lies 1e-13 below the grid point 1/4
        cases = [(3, 0.2499999999999)] + [
            (int(rng.integers(1, 400)), float(rng.uniform(0.005, 0.995))) for _ in range(300)
        ]
        for n_k, alpha in cases:
            want = naive_grid_count(n_k, alpha) / (n_k + 1)
            assert acceptance_threshold(n_k, alpha) == want, (n_k, alpha)

    def test_never_above_alpha(self, rng):
        """Alphas within 1e-12 relative below a grid point: a float floor
        with a relative slack rounds these up to the grid point, above alpha."""
        n_ks = rng.integers(1, 10**6, size=21_000)
        points = rng.integers(1, n_ks + 1) / (n_ks + 1)
        alphas = points * (1.0 - 10.0 ** rng.uniform(-15.5, -12, size=n_ks.size))
        for n_k, alpha in zip(n_ks.tolist(), alphas.tolist()):
            exact = math.floor((n_k + 1) * Fraction(repr(alpha))) / (n_k + 1)
            assert acceptance_threshold(n_k, alpha) == exact <= alpha, (n_k, alpha)

    def test_bh_floor_is_the_fewest_rows_with_two_grid_points(self):
        alphas = np.concatenate([np.geomspace(1e-15, 0.99, 20_000), [1e-15, 1e-12, 0.05, 0.1]])
        grid_count = conformal._grid_count
        for alpha in alphas.tolist():
            floor = conformal._bh_floor(alpha)
            assert grid_count(floor, alpha) >= 2 > grid_count(floor - 1, alpha), alpha
        assert [conformal._bh_floor(a) for a in (0.05, 0.1, 1e-15)] == [39, 19, 2 * 10**15 - 1]

    def test_rejects_bad_inputs(self):
        with pytest.raises(DataError):
            acceptance_threshold(0, 0.05)
        with pytest.raises(DataError):
            acceptance_threshold(10, 0.0)
        with pytest.raises(DataError):
            acceptance_threshold(10, 1.0)


class TestPredict:
    def test_point_at_class_mean_gets_singleton(self, two_class_data):
        center = two_class_data.class_rows(1).mean(axis=0)
        batch = TestBatch(features=center[None, :])
        pvals, sets = predict(two_class_data, batch, alpha=0.05)
        assert sets_equal(sets, [{1}])
        # m=1 skips the multiplicity adjustment entirely
        np.testing.assert_array_equal(pvals.raw, pvals.adjusted)

    def test_far_point_gets_empty_set(self, two_class_data):
        batch = TestBatch(features=np.array([[1000.0, -1000.0]]))
        _, sets = predict(two_class_data, batch, alpha=0.05)
        assert sets_equal(sets, [set()])

    def test_tiny_alpha_accepts_everything(self, two_class_data):
        # threshold is 0 whenever alpha < 1/(n_k+1); strict > then always holds
        batch = TestBatch(features=np.array([[1000.0, -1000.0], [0.0, 0.0]]))
        pvals, sets = predict(two_class_data, batch, alpha=0.001)
        assert np.all(pvals.thresholds == 0.0)
        assert sets_equal(sets, [{1, 2}, {1, 2}])

    def test_threshold_values_per_class(self, two_class_data):
        pvals, _ = predict(
            two_class_data, TestBatch(features=np.zeros((1, 2))), alpha=0.1
        )
        # n_k = 50: floor(51 * 0.1)/51 = 5/51
        np.testing.assert_allclose(pvals.thresholds, [5 / 51, 5 / 51])

    def test_matches_naive_pipeline_empirical(self, rng):
        for _ in range(25):
            data, batch = random_instance(rng)
            alpha = float(rng.uniform(0.02, 0.4))
            _, sets = predict(data, batch, alpha)
            assert sets_equal(sets, naive_predict(data, batch, alpha))

    def test_matches_naive_pipeline_oracle(self, rng):
        config = multi_class_config(p=4, n_k=10, m=12, rho=0.4, run_seed=3)
        data, batch = generate(config)
        oracle = oracle_params(config)
        _, sets = predict(data, batch, 0.2, oracle=oracle)
        assert sets_equal(sets, naive_predict(data, batch, 0.2, oracle=oracle))

    def test_monotone_sets_in_alpha(self, rng):
        data, batch = random_instance(rng, n_classes=3, n_k=30, m=40)
        alphas = [0.01, 0.05, 0.1, 0.2, 0.4]
        members = [predict(data, batch, a)[1].member for a in alphas]
        for low, high in zip(members, members[1:]):
            # larger alpha -> smaller sets, pointwise
            assert np.all(high <= low)

    def test_deterministic(self, rng):
        data, batch = random_instance(rng)
        p1, s1 = predict(data, batch, 0.1)
        p2, s2 = predict(data, batch, 0.1)
        np.testing.assert_array_equal(p1.raw, p2.raw)
        np.testing.assert_array_equal(p1.adjusted, p2.adjusted)
        np.testing.assert_array_equal(s1.member, s2.member)

    def test_oracle_mode_matches_empirical_shape(self, two_class_data):
        oracle_like = oracle_params(
            multi_class_config(p=2, n_k=4, run_seed=0)
        )
        # 4 classes vs 2 in the data: must refuse
        with pytest.raises(DataError, match="classes"):
            predict(
                two_class_data, TestBatch(features=np.zeros((1, 2))), 0.05,
                oracle=oracle_like,
            )

    def test_rejects_feature_mismatch(self, two_class_data):
        with pytest.raises(DataError, match="features"):
            predict(two_class_data, TestBatch(features=np.zeros((1, 3))), 0.05)

    def test_variance_floor_path(self):
        features = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
        data = LabeledDataset(
            features=features, labels=np.array([1, 1, 1])
        )
        batch = TestBatch(features=np.array([[1.0, 5.0]]))
        pvals, _ = predict(data, batch, 0.05, oracle=fit_model(data, variance_floor=0.5))
        assert pvals.raw.shape == (1, 1)

    def test_grid_property_through_predict(self, rng):
        data, batch = random_instance(rng, n_classes=2, n_k=19, m=15)
        pvals, _ = predict(data, batch, 0.1)
        r = pvals.raw * 20
        np.testing.assert_allclose(r, np.round(r), atol=1e-9)


    def test_interleaved_labels_match_grouped(self, rng):
        # p=200, n_k=300 crosses a block edge of the fit and the scoring kernel
        data, batch = random_instance(rng, n_classes=3, p=200, n_k=300, m=50)
        perm = rng.permutation(data.n)
        shuffled = LabeledDataset(features=data.features[perm], labels=data.labels[perm])
        order = perm[np.argsort(data.labels[perm], kind="stable")]
        grouped = LabeledDataset(features=data.features[order], labels=data.labels[order])
        np.testing.assert_array_equal(shuffled.features, grouped.features)
        p1, s1 = predict(shuffled, batch, 0.1)
        p2, s2 = predict(grouped, batch, 0.1)
        for a, b in (
            (p1.raw, p2.raw),
            (p1.adjusted, p2.adjusted),
            (p1.thresholds, p2.thresholds),
            (s1.member, s2.member),
        ):
            np.testing.assert_array_equal(a, b)


def grid_predict(ranks, n_k: int, alpha: float):
    """``predict`` on one class whose test p-values are ``ranks`` / (n_k + 1).

    The class has mean 0 and variance 1 in one feature, so a point scores
    x**2. Its n_k calibration scores are 1..n_k, and the test point of rank
    v scores n_k - v + 1.5, below exactly v - 1 of them."""
    ranks = np.asarray(ranks)
    data = LabeledDataset(
        features=np.sqrt(np.arange(1.0, n_k + 1))[:, None], labels=np.ones(n_k, dtype=int)
    )
    batch = TestBatch(features=np.sqrt(n_k - ranks + 1.5)[:, None])
    model = ClassModel(means=np.zeros((1, 1)), variances=np.ones((1, 1)))
    scores = [np.arange(1.0, n_k + 1)]
    pvals, sets = predict(data, batch, alpha, oracle=model, train_scores=scores)
    np.testing.assert_array_equal(pvals.raw[:, 0], ranks / (n_k + 1))
    return pvals, sets


class TestExactStepUp:
    """Class membership is BH decided exactly on the p-value grid, where a
    tie with the cutoff is an exact rational equality."""

    def test_tie_at_the_cutoff_drops_the_class(self):
        # n_k = 19, alpha = 0.05: cutoff 1/20. Three points at p = 1/20 all
        # adjust to 3 * (1/20) / 3 = 1/20, which exact BH rejects; the float
        # adjusted value reads 0.05000000000000001, above the cutoff
        pvals, sets = grid_predict([1, 1, 1], 19, 0.05)
        assert pvals.adjusted[0, 0] > pvals.thresholds[0] == 0.05
        assert not sets.member.any()

    def test_a_batch_at_the_floor_is_dropped_whole(self):
        # 19 <= n_k <= 38 at alpha = 0.05 has one grid point at or below
        # alpha, so a batch of m points all at p = 1/(n_k+1) is dropped
        # whole; in floats 73 of these (n_k, m) pairs read above the cutoff
        for n_k in range(19, 39):
            for m in range(1, 61):
                assert not grid_predict(np.ones(m, dtype=int), n_k, 0.05)[1].member.any()

    @settings(max_examples=200)
    @given(data=st.data())
    def test_membership_is_the_exact_step_up(self, data):
        # ranks capped at a random top, so many points share a grid value
        n_k = data.draw(st.integers(3, 60), label="n_k")
        top = data.draw(st.integers(1, n_k + 1), label="top")
        ranks = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=60), label="ranks")
        alpha = data.draw(st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.3, 0.5]), label="alpha")
        _, sets = grid_predict(ranks, n_k, alpha)
        exact = [Fraction(v, n_k + 1) for v in ranks]
        assert sets.member[:, 0].tolist() == naive_keeps(exact, n_k, alpha)


class TestPredictCalls:
    """predict fits and scores through the public scoring functions, as
    perfbench's trace counts them (the ``scoring_calls`` fixture)."""

    @pytest.mark.parametrize("mode", ["empirical", "oracle"])
    def test_fits_each_class_once_and_scores_twice(self, scoring_calls, mode):
        # m = 20 fits in one block: each class scores its training rows and
        # the whole test batch, one call each
        config = multi_class_config(p=6, n_k=15, m=20, rho=0.3, run_seed=4)
        data, batch = generate(config)
        oracle = oracle_params(config) if mode == "oracle" else None
        predict(data, batch, 0.1, oracle=oracle)
        k = data.n_classes
        assert scoring_calls["fit"] == ([] if oracle else list(range(1, k + 1)))
        assert len(scoring_calls["score"]) == 2 * k
        for c in range(1, k + 1):
            calls = [r for cls, r in scoring_calls["score"] if cls == c]
            assert len(calls) == 2
            # the test batch is scored first, before the calibration rows
            test_rows, train_rows = calls
            np.testing.assert_array_equal(train_rows, data.class_rows(c))
            np.testing.assert_array_equal(test_rows, batch.features)

    @pytest.mark.parametrize("mode", ["empirical", "oracle"])
    def test_scores_training_rows_once_and_test_blocks_against_every_class(
        self, scoring_calls, mode
    ):
        # p = 200 gives 256-row blocks: m = 600 is two full blocks and a part
        p, n_k, m = 200, 15, 600
        config = multi_class_config(p=p, n_k=n_k, m=m, rho=0.3, run_seed=4)
        data, batch = generate(config)
        oracle = oracle_params(config) if mode == "oracle" else None
        predict(data, batch, 0.1, oracle=oracle)
        k, step = data.n_classes, scoring._block_rows(p)
        assert scoring_calls["fit"] == ([] if oracle else list(range(1, k + 1)))
        train = [(c, r) for c, r in scoring_calls["score"] if np.shares_memory(r, data.features)]
        test = [(c, r) for c, r in scoring_calls["score"] if np.shares_memory(r, batch.features)]
        assert len(train) + len(test) == len(scoring_calls["score"])
        # each training row once, against its own class
        assert [c for c, _ in train] == list(range(1, k + 1))
        for c, rows in train:
            np.testing.assert_array_equal(rows, data.class_rows(c))
        # each test row once against every class, block by block
        assert all(r.shape[0] <= step for _, r in test)
        for c in range(1, k + 1):
            blocks = [r for cls, r in test if cls == c]
            assert [b.shape[0] for b in blocks] == [step, step, m - 2 * step]
            np.testing.assert_array_equal(np.vstack(blocks), batch.features)
        assert sum(r.shape[0] for _, r in scoring_calls["score"]) == k * (n_k + m)


def test_interleaved_labels_are_grouped_once(rng, monkeypatch):
    # the dataset sorts its rows by label once, when it is built, so
    # neither the fit nor the scoring loop copies a class's rows out
    data, batch = random_instance(rng, n_classes=3, p=20, n_k=40, m=10)
    perm = rng.permutation(data.n)
    shuffled = LabeledDataset(
        features=data.features[perm], labels=data.labels[perm]
    )
    owns = []
    class_rows = LabeledDataset.class_rows

    def spy(self, class_id):
        rows = class_rows(self, class_id)
        owns.append(rows.flags.owndata)
        return rows

    monkeypatch.setattr(LabeledDataset, "class_rows", spy)
    predict(shuffled, batch, 0.1)
    assert owns == [False] * 6


class TestSinglePath:
    """The default mode is the known-moments mode with the fitted model
    plugged in: one scoring path, bit for bit. A floored fit is the fitted
    variances clipped at the floor."""

    @pytest.mark.parametrize("floored", [False, True])
    @pytest.mark.parametrize("p", [1, 200])
    def test_fitted_equals_fit_model_as_oracle(self, p, floored):
        # generated inliers spread the p-values, so a floor that moves
        # the scores moves them too
        config = multi_class_config(p=p, n_k=40, m=60, rho=0.5, run_seed=2)
        data, batch = generate(config)
        fitted = fit_model(data)
        alpha = 0.1
        if floored:
            # the median variance: the floor lifts the classes below it
            floor = float(np.median(fitted.variances))
            p1, s1 = predict(data, batch, alpha, oracle=fit_model(data, floor))
            fitted = ClassModel(fitted.means, np.maximum(fitted.variances, floor))
        else:
            p1, s1 = predict(data, batch, alpha)
        p2, s2 = predict(data, batch, alpha, oracle=fitted)
        for a, b in (
            (p1.raw, p2.raw),
            (p1.adjusted, p2.adjusted),
            (p1.thresholds, p2.thresholds),
            (s1.member, s2.member),
        ):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("p, n_k, m", [(200, 2000, 1000), (500, 2000, 4000)])
def test_predict_peak_memory_below_half_a_class(p, n_k, m):
    # the fit reads class rows in place and streams them through one block
    # buffer, so no temporary grows with the training set
    data, batch = generate(multi_class_config(p=p, n_k=n_k, m=m, rho=0.8, run_seed=1))
    tracemalloc.start()
    try:
        predict(data, batch, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    class_bytes = n_k * p * 8
    assert peak <= 0.5 * class_bytes, peak / class_bytes



class TestPredictors:
    def test_only_a_row_of_the_table_passes_oracle(self):
        """``oracle=`` and ``train_scores=``, or such a key, appear in
        ``src/confset`` only inside ``PREDICTORS``: every caller picks a row
        by name, so no second place decides which moments ``predict`` scores
        with, or which calibration scores it ranks among."""
        src = Path(conformal.__file__).parent
        table = next(
            node for node in ast.parse(Path(conformal.__file__).read_text()).body
            if isinstance(node, ast.Assign)
            and [t.id for t in node.targets] == ["PREDICTORS"]
        )
        passed = {"oracle": [], "train_scores": []}
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                keys = [node.arg] if isinstance(node, ast.keyword) else []
                if isinstance(node, ast.Dict):
                    keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
                for key in passed.keys() & set(keys):
                    passed[key].append((path.name, node.lineno))
        rows = range(table.lineno, table.end_lineno + 1)
        for where in passed.values():
            assert where
            assert all(name == "conformal.py" and line in rows for name, line in where), where

    def test_rows_give_predict_its_moments(self):
        """Each row passes its moments and the training scores they give,
        one ``score_batch`` of each class's rows."""
        config = multi_class_config(p=6, n_k=12, m=30, run_seed=2)
        train, batch = generate(config)
        known = oracle_params(config)
        fitted = conformal.PREDICTORS["empirical"](train, known, 0.5)
        expected = fit_model(train, 0.5)
        assert np.array_equal(fitted["oracle"].means, expected.means)
        assert np.array_equal(fitted["oracle"].variances, expected.variances)
        row = conformal.PREDICTORS["oracle"](train, known, None)
        assert list(row) == ["oracle", "train_scores"] and row["oracle"] is known
        for row in (fitted, row):
            assert len(row["train_scores"]) == train.n_classes
            for k, scores in enumerate(row["train_scores"], start=1):
                want = scoring.score_batch(row["oracle"], train.class_rows(k), k)
                np.testing.assert_array_equal(scores, want)

    @pytest.mark.parametrize("mode", ["empirical", "oracle"])
    @pytest.mark.parametrize("p", [1, 200])
    def test_row_train_scores_change_no_output(self, rng, p, mode):
        """``predict`` with a row's training scores gives, bit for bit, what
        it gives when it scores the training rows itself."""
        config = multi_class_config(p=p, n_k=40, m=60, rho=0.5, run_seed=3)
        data, batch = generate(config)
        perm = rng.permutation(data.n)
        train = LabeledDataset(features=data.features[perm], labels=data.labels[perm])
        row = conformal.PREDICTORS[mode](train, oracle_params(config), None)
        p1, s1 = predict(train, batch, 0.1, **row)
        p2, s2 = predict(train, batch, 0.1, oracle=row["oracle"])
        for a, b in (
            (p1.raw, p2.raw),
            (p1.adjusted, p2.adjusted),
            (p1.thresholds, p2.thresholds),
            (s1.member, s2.member),
        ):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                "no oracle",
                "train_scores need the class moments that scored them, as oracle=",
            ),
            ("drop a class", "train_scores hold 3 classes, data has 4"),
            ("2-D", "train_scores must be a non-empty 1-D array"),
        ],
    )
    def test_bad_train_scores_are_one_line(self, change, message):
        train, batch = generate(multi_class_config(p=6, n_k=12, m=30, run_seed=2))
        row = conformal.PREDICTORS["empirical"](train, None, None)
        scores = row["train_scores"]
        if change == "no oracle":
            del row["oracle"]
        elif change == "drop a class":
            row["train_scores"] = scores[:3]
        else:
            row["train_scores"] = [scores[0][None], *scores[1:]]
        with pytest.raises(DataError, match=f"^{message}$"):
            predict(train, batch, 0.1, **row)

    def test_calibration_half_sets_rank_and_cutoff(self):
        """Split calibration: fit each class on one half of its rows and pass
        the other half's scores. Each class is ranked among, and cut at the
        count of, those 20 scores: floor(21 * 0.1) / 21 = 2/21, not the 4/41
        of all 40 training rows, which would change some sets here."""
        train, batch = generate(multi_class_config(p=5, n_k=40, m=200, rho=0.5, run_seed=13))
        fit_half, calibration = (
            LabeledDataset(
                features=np.concatenate([train.class_rows(k)[half] for k in range(1, 5)]),
                labels=np.repeat(np.arange(1, 5), 20),
            )
            for half in (slice(None, 20), slice(20, None))
        )
        model = fit_model(fit_half)
        scores = [scoring.score_batch(model, calibration.class_rows(k), k) for k in range(1, 5)]
        pvals, sets = predict(train, batch, 0.1, oracle=model, train_scores=scores)
        np.testing.assert_array_equal(pvals.thresholds, np.full(4, 2 / 21))
        assert not np.array_equal(sets.member, pvals.adjusted > 4 / 41)
        assert sets_equal(sets, naive_predict(calibration, batch, 0.1, oracle=model))
        for k, calibration_scores in enumerate(scores, 1):
            test_scores = scoring.score_batch(model, batch.features, k)
            want = [naive_conformal_pvalue(calibration_scores, s) for s in test_scores]
            np.testing.assert_array_equal(pvals.raw[:, k - 1], want)

    def test_oracle_row_needs_known_moments(self):
        """Without known moments the oracle row refuses, rather than letting
        ``predict`` fit in-sample under the oracle's name."""
        train, batch = generate(multi_class_config(p=4, n_k=10, m=8, run_seed=1))
        message = "^predictor 'oracle' needs known class moments, got none$"
        with pytest.raises(DataError, match=message):
            conformal.PREDICTORS["oracle"](train, None, None)
        with pytest.raises(DataError, match=message):
            experiment._score_batches(train, [batch], 0.1, ("oracle",))
