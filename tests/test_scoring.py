"""Nonconformity scores: hand-computed oracles, invariances, vectorization."""

import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from confset import scoring
from confset import (
    ClassModel,
    DataError,
    DegenerateVarianceError,
    LabeledDataset,
    TestBatch,
    fit_class_summary,
    fit_model,
    generate,
    multi_class_config,
    predict,
    score_batch,
    score_classes,
)
from confset.scoring import _BLOCK_BYTES, _CHUNK_ROWS, _SPLIT_BLOCKS, _block_rows, _one_helper
from conftest import forbid_helper, helper_in_this_process, spy_score_threads


def one_class(features):
    features = np.asarray(features, dtype=np.float64)
    return LabeledDataset(
        features=features, labels=np.ones(len(features), dtype=int)
    )


def one_model(mean, variance):
    """ClassModel of a single class."""
    return ClassModel(means=np.atleast_2d(mean), variances=np.atleast_2d(variance))


def score_one(model, x, class_id=1):
    """Score of the single point ``x``, as a one-row batch."""
    rows = np.asarray(x, dtype=np.float64)[np.newaxis]
    return float(score_batch(model, rows, class_id)[0])


class TestFitClassSummary:
    def test_hand_computed_moments(self):
        # rows (0,0), (2,2), (4,4): mean (2,2); unbiased var (4+0+4)/2 = 4
        data = one_class([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
        mean, var = fit_class_summary(data, 1)
        np.testing.assert_allclose(mean, [2.0, 2.0])
        np.testing.assert_allclose(var, [4.0, 4.0])

    def test_single_column(self):
        # values 0, 1, 2: mean 1, unbiased var 1
        data = one_class([[0.0], [1.0], [2.0]])
        mean, var = fit_class_summary(data, 1)
        assert mean[0] == pytest.approx(1.0)
        assert var[0] == pytest.approx(1.0)

    def test_zero_variance_column_raises_with_location(self):
        data = one_class([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
        with pytest.raises(DegenerateVarianceError) as err:
            fit_class_summary(data, 1)
        assert str(err.value) == (
            "class 1 has zero variance in feature column 1; "
            "drop the column or enable a variance floor"
        )

    def test_variance_floor_rescues_degenerate_column(self):
        data = one_class([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
        _, var = fit_class_summary(data, 1, variance_floor=0.25)
        assert var[1] == 0.25
        assert var[0] == pytest.approx(1.0)  # floor only lifts, never lowers

    def test_rejects_nonpositive_floor(self):
        data = one_class([[0.0], [1.0], [2.0]])
        with pytest.raises(DataError):
            fit_class_summary(data, 1, variance_floor=0.0)

    @pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_floor(self, floor):
        data = one_class([[0.0], [1.0], [2.0]])
        message = rf"^variance_floor must be finite and positive, got {floor}$"
        with pytest.raises(DataError, match=message):
            fit_class_summary(data, 1, variance_floor=floor)
        with pytest.raises(DataError, match=message):
            fit_model(data, variance_floor=floor)

    def test_uses_requested_class_only(self):
        features = np.vstack([np.zeros((3, 1)), np.full((3, 1), 9.0)])
        features[:3, 0] = [0.0, 1.0, 2.0]
        features[3:, 0] = [9.0, 10.0, 11.0]
        data = LabeledDataset(
            features=features, labels=np.repeat([1, 2], 3)
        )
        mean, _ = fit_class_summary(data, 2)
        assert mean[0] == pytest.approx(10.0)


class TestFitModel:
    def test_stacks_the_class_fits(self, rng):
        data = LabeledDataset(
            features=rng.normal(size=(15, 4)) * [1.0, 10.0, 0.1, 3.0],
            labels=np.repeat([2, 1, 3], 5),
        )
        model = fit_model(data)
        assert model.means.shape == model.variances.shape == (3, 4)
        for k in (1, 2, 3):
            mean, var = fit_class_summary(data, k)
            got_mean, got_var = model.class_params(k)
            np.testing.assert_array_equal(got_mean, mean)
            np.testing.assert_array_equal(got_var, var)

    def test_variance_floor_applies_to_every_class(self):
        features = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]] * 2)
        data = LabeledDataset(
            features=features, labels=np.repeat([1, 2], 3)
        )
        with pytest.raises(DegenerateVarianceError):
            fit_model(data)
        model = fit_model(data, variance_floor=0.25)
        np.testing.assert_array_equal(model.variances[:, 1], [0.25, 0.25])


class TestFitAgainstNumpy:
    """The blocked fit keeps numpy's summation order, so its moments are
    bit-equal to rows.mean(axis=0) and rows.var(axis=0, ddof=1)."""

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("p", [2, 5, 200, 500, 3000])
    @pytest.mark.parametrize("blocks, extra", [(0, 3), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_bit_equal(self, rng, p, blocks, extra, offset):
        n = max(blocks * _block_rows(p) + extra, 3)
        rows = offset + rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        mean, var = fit_class_summary(one_class(rows), 1)
        np.testing.assert_array_equal(mean, rows.mean(axis=0))
        np.testing.assert_array_equal(var, rows.var(axis=0, ddof=1))

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("n", [3, _CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3])
    def test_single_column_within_rounding(self, rng, n, offset):
        # numpy sums one contiguous column pairwise, the fit row after row
        rows = offset + rng.normal(size=(n, 1))
        mean, var = fit_class_summary(one_class(rows), 1)
        np.testing.assert_array_equal(mean, rows.mean(axis=0))
        np.testing.assert_allclose(var, rows.var(axis=0, ddof=1), rtol=1e-15)


class TestScores:
    """Hand values, each scored as a one-row batch."""

    def test_empirical_score_hand_value(self):
        # mean (1,1), var (2,2), x=(3,1): (3-1)^2/2 + 0 = 2
        model = one_model([1.0, 1.0], [2.0, 2.0])
        assert score_one(model, [3.0, 1.0]) == pytest.approx(2.0)

    def test_oracle_score_hand_value(self):
        # mu=(0,0), var=(4,1), x=(2,3): 4/4 + 9/1 = 10
        params = ClassModel(
            means=np.array([[0.0, 0.0]]), variances=np.array([[4.0, 1.0]])
        )
        assert score_one(params, [2.0, 3.0]) == pytest.approx(10.0)

    def test_one_dimensional_case(self):
        params = ClassModel(means=np.array([[0.0]]), variances=np.array([[1.0]]))
        assert score_one(params, [2.0]) == pytest.approx(4.0)

    def test_score_zero_at_the_mean(self):
        model = one_model([3.0, -1.0], [2.0, 5.0])
        assert score_one(model, [3.0, -1.0]) == 0.0

    def test_rejects_2d_point(self):
        # a batch of 2-D points is a 3-D array, not rows
        model = one_model(np.zeros(2), np.ones(2))
        with pytest.raises(DataError):
            score_batch(model, np.zeros((1, 1, 2)), 1)

    def test_rejects_dimension_mismatch(self):
        model = one_model(np.zeros(2), np.ones(2))
        with pytest.raises(DataError, match="features"):
            score_one(model, np.zeros(3))


class TestScoreBatch:
    def test_matches_scalar_scores(self, rng):
        rows = rng.normal(size=(20, 4))
        model = one_model(rng.normal(size=4), rng.uniform(0.5, 2.0, size=4))
        batch = score_batch(model, rows, 1)
        expected = [score_one(model, r) for r in rows]
        np.testing.assert_allclose(batch, expected, rtol=1e-12)

    def test_oracle_needs_class_id(self):
        params = ClassModel(means=np.zeros((2, 3)), variances=np.ones((2, 3)))
        with pytest.raises(TypeError, match="class_id"):
            score_batch(params, np.zeros((4, 3)))
        with pytest.raises(DataError, match="class_id"):
            score_batch(params, np.zeros((4, 3)), class_id=3)
        out = score_batch(params, np.zeros((4, 3)), class_id=2)
        assert out.shape == (4,)

    def test_rejects_1d_rows(self):
        params = ClassModel(means=np.zeros((1, 3)), variances=np.ones((1, 3)))
        with pytest.raises(DataError):
            score_batch(params, np.zeros(3), class_id=1)


def naive_scores(mean, var, rows):
    return np.array([((x - mean) ** 2 / var).sum() for x in rows])


class TestChunkedKernel:
    """score_batch against a per-row loop across the kernel's block edges."""

    @pytest.mark.parametrize("n", [1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3])
    def test_class_summary_matches_loop(self, rng, n):
        rows = rng.normal(size=(n, 5))
        mean, var = rng.normal(size=5), rng.uniform(0.5, 2.0, size=5)
        np.testing.assert_allclose(
            score_batch(one_model(mean, var), rows, 1),
            naive_scores(mean, var, rows),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("n", [1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3])
    def test_oracle_params_matches_loop(self, rng, n):
        rows = rng.normal(size=(n, 5))
        params = ClassModel(
            means=rng.normal(size=(2, 5)), variances=rng.uniform(0.5, 2.0, size=(2, 5))
        )
        np.testing.assert_allclose(
            score_batch(params, rows, class_id=2),
            naive_scores(params.means[1], params.variances[1], rows),
            rtol=1e-12,
        )

    def test_large_feature_offset_keeps_precision(self, rng):
        # centring before squaring: no cancellation at a 1e6 offset
        offset = 1e6
        rows = offset + rng.normal(size=(2 * _CHUNK_ROWS + 3, 5))
        mean, var = offset + rng.normal(scale=0.1, size=5), np.ones(5)
        np.testing.assert_allclose(
            score_batch(one_model(mean, var), rows, 1),
            naive_scores(mean, var, rows),
            rtol=1e-12,
        )


class TestScoreClasses:
    """One pass over the rows, K classes per block, bit for bit the same as
    one ``score_batch`` call per class."""

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("p", [1, 5, 200, 500])
    def test_bit_equal_to_score_batch_per_class(self, p, offset):
        rng = np.random.default_rng(p)
        k = 3
        model = ClassModel(
            means=offset + rng.normal(size=(k, p)),
            variances=rng.uniform(0.5, 2.0, size=(k, p)),
        )
        step, gate = _block_rows(p), _SPLIT_BLOCKS
        # below the gate, then gate - 1, gate and gate + 1 blocks (the last
        # one row long) and an odd count of 35, split across two threads
        sizes = (1, step - 1, step, step + 1, 2 * step + 3)
        sizes += ((gate - 1) * step, gate * step, gate * step + 1, (gate + 2) * step + 3)
        for n in sizes:
            rows = offset + rng.normal(size=(n, p))
            got = score_classes(model, rows)
            assert got.shape == (k, n)
            for c in range(k):
                want = score_batch(model, rows, c + 1)
                assert np.array_equal(got[c].view(np.uint64), want.view(np.uint64)), (n, c)

    def test_rejects_bad_rows(self):
        model = one_model([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(DataError, match="2-D"):
            score_classes(model, np.zeros(2))
        with pytest.raises(DataError, match="features"):
            score_classes(model, np.zeros((4, 3)))


class TestSplit:
    """A batch of at least ``_SPLIT_BLOCKS`` blocks is scored on two
    threads: the caller's half and one helper's, joined before the call
    returns or raises, with the one-thread outputs bit for bit."""

    # 35 blocks of 2048 rows at p = 5: the helper scores rows 36 864 on
    CONFIG = multi_class_config(p=5, n_k=20, m=35 * 2048, rho=0.2, run_seed=5)

    def test_predict_outputs_equal_one_thread(self, monkeypatch):
        train, batch = generate(self.CONFIG)
        scores = spy_score_threads(monkeypatch)
        split_pvals, split_sets = predict(train, batch, 0.05)
        assert not all(scores)  # the helper scored some blocks
        forbid_helper(monkeypatch)
        scores.clear()
        pvals, sets = predict(train, batch, 0.05)
        assert all(scores)
        assert split_pvals.raw.tobytes() == pvals.raw.tobytes()
        assert split_pvals.adjusted.tobytes() == pvals.adjusted.tobytes()
        assert split_sets.member.tobytes() == sets.member.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_helper_half_is_one_error(self):
        train, batch = generate(self.CONFIG)
        features = batch.features.copy()
        features[60_000] = 1e200  # finite, but its square overflows
        threads = threading.active_count()
        with pytest.raises(DataError) as caught:
            predict(train, TestBatch(features=features), 0.05)
        assert str(caught.value) == (
            "test row 60000 overflows its score against class 1; rescale the features"
        )
        assert threading.active_count() == threads

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_each_half_is_inf_without_warning(self, monkeypatch):
        # each thread runs its half of the blocks under errstate(over="ignore")
        rows = np.random.default_rng(8).normal(size=((_SPLIT_BLOCKS + 2) * _block_rows(5), 5))
        overflowing = [100, len(rows) - 100]
        rows[overflowing] = 1e200  # finite, but its square overflows
        scores = spy_score_threads(monkeypatch)
        got = score_classes(one_model(np.zeros(5), np.ones(5)), rows)
        assert not all(scores) and any(scores)  # both threads scored
        assert np.isposinf(got[0, overflowing]).all()
        assert np.isfinite(np.delete(got[0], overflowing)).all()

    def test_failure_on_helper_block_reaches_caller(self, monkeypatch):
        train, batch = generate(self.CONFIG)
        spy_score_threads(monkeypatch, fail_off_main=True)
        threads = threading.active_count()
        with pytest.raises(DataError, match="^scored on a helper thread$"):
            predict(train, batch, 0.05)
        assert threading.active_count() == threads


    def test_concurrent_callers_share_one_helper(self, monkeypatch):
        # three threads split batches at once: each gets the one-thread
        # scores, and no more than one helper thread runs at a time
        rng = np.random.default_rng(7)
        model = ClassModel(means=rng.normal(size=(2, 5)), variances=rng.uniform(0.5, 2.0, size=(2, 5)))
        rows = rng.normal(size=((_SPLIT_BLOCKS + 1) * _block_rows(5), 5))
        want = score_classes(model, rows)
        real, alive = scoring.score_batch, []

        def spy(model, block, class_id):
            alive.append(threading.active_count())
            return real(model, block, class_id)

        monkeypatch.setattr(scoring, "score_batch", spy)
        results = []
        callers = [
            threading.Thread(target=lambda: results.append(score_classes(model, rows)))
            for _ in range(3)
        ]
        start = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert [r.tobytes() for r in results] == [want.tobytes()] * 3
        assert max(alive) <= start + len(callers) + 1


class TestOneHelper:
    """When this process may start its one helper thread."""

    def test_none_when_not_wanted(self):
        with _one_helper(False) as helper:
            assert helper is None

    def test_none_in_a_spawned_pool_worker(self):
        # spawn starts a fresh interpreter, so no lock state comes from this
        # process: the worker is known by its multiprocessing parent
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            assert pool.submit(helper_in_this_process).result(timeout=120) is False
        assert helper_in_this_process() is True


class TestBlockRows:
    """Block sizing of the kernel and score_batch across its block edges."""

    @pytest.mark.parametrize("p", [1, 5, 16, 17, 200, 500, 3000, 100_000])
    def test_power_of_two_within_block_bytes(self, p):
        b = _block_rows(p)
        assert b & (b - 1) == 0
        assert 8 <= b <= _CHUNK_ROWS
        # the largest such power of two, unless a clamp binds
        assert b * p * 8 <= _BLOCK_BYTES or b == 8
        assert 2 * b * p * 8 > _BLOCK_BYTES or b == _CHUNK_ROWS

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("p", [5, 200, 500])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, 0), (2, 3)])
    def test_matches_loop(self, rng, p, blocks, extra, offset):
        n = blocks * _block_rows(p) + extra
        rows = offset + rng.normal(size=(n, p))
        means = offset + rng.normal(scale=0.1 if offset else 1.0, size=(4, p))
        variances = rng.uniform(0.5, 2.0, size=(4, p))
        params = ClassModel(means=means, variances=variances)
        for c in range(4):
            expected = naive_scores(means[c], variances[c], rows)
            np.testing.assert_allclose(
                score_batch(params, rows, class_id=c + 1), expected, rtol=1e-12
            )


class TestInvariances:
    def test_translation_invariance(self, rng):
        features = rng.normal(size=(30, 5))
        shift = rng.normal(scale=50.0, size=5)
        test_rows = rng.normal(size=(10, 5))
        m0 = fit_model(one_class(features))
        m1 = fit_model(one_class(features + shift))
        np.testing.assert_allclose(
            score_batch(m0, test_rows, 1),
            score_batch(m1, test_rows + shift, 1),
            rtol=1e-9,
        )

    def test_per_column_scale_invariance(self, rng):
        features = rng.normal(size=(30, 5))
        scale = rng.uniform(0.1, 20.0, size=5)
        test_rows = rng.normal(size=(10, 5))
        m0 = fit_model(one_class(features))
        m1 = fit_model(one_class(features * scale))
        np.testing.assert_allclose(
            score_batch(m0, test_rows, 1),
            score_batch(m1, test_rows * scale, 1),
            rtol=1e-9,
        )

    def test_score_additive_over_columns(self, rng):
        """The score is a sum of per-column terms."""
        features = rng.normal(size=(25, 3))
        test_rows = rng.normal(size=(8, 3))
        full = score_batch(fit_model(one_class(features)), test_rows, 1)
        per_col = np.zeros(8)
        for j in range(3):
            m = fit_model(one_class(features[:, [j]]))
            per_col += score_batch(m, test_rows[:, [j]], 1)
        np.testing.assert_allclose(full, per_col, rtol=1e-9)
