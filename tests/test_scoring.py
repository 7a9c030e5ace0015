"""Nonconformity scores: hand-computed oracles, invariances, vectorization."""

import numpy as np
import pytest

from confset import (
    ClassSummary,
    DataError,
    DegenerateVarianceError,
    LabeledDataset,
    OracleParams,
    empirical_score,
    fit_class_summary,
    oracle_score,
    score_batch,
)
from confset.scoring import _BLOCK_BYTES, _CHUNK_ROWS, _block_rows


def one_class(features):
    features = np.asarray(features, dtype=np.float64)
    return LabeledDataset(
        features=features, labels=np.ones(len(features), dtype=int), n_classes=1
    )


class TestFitClassSummary:
    def test_hand_computed_moments(self):
        # rows (0,0), (2,2), (4,4): mean (2,2); unbiased var (4+0+4)/2 = 4
        data = one_class([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
        s = fit_class_summary(data, 1)
        np.testing.assert_allclose(s.mean, [2.0, 2.0])
        np.testing.assert_allclose(s.variance, [4.0, 4.0])
        assert s.count == 3 and s.class_id == 1

    def test_single_column(self):
        # values 0, 1, 2: mean 1, unbiased var 1
        data = one_class([[0.0], [1.0], [2.0]])
        s = fit_class_summary(data, 1)
        assert s.mean[0] == pytest.approx(1.0)
        assert s.variance[0] == pytest.approx(1.0)

    def test_zero_variance_column_raises_with_location(self):
        data = one_class([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
        with pytest.raises(DegenerateVarianceError) as err:
            fit_class_summary(data, 1)
        assert err.value.class_id == 1
        assert err.value.column == 1

    def test_variance_floor_rescues_degenerate_column(self):
        data = one_class([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
        s = fit_class_summary(data, 1, variance_floor=0.25)
        assert s.variance[1] == 0.25
        assert s.variance[0] == pytest.approx(1.0)  # floor only lifts, never lowers

    def test_rejects_nonpositive_floor(self):
        data = one_class([[0.0], [1.0], [2.0]])
        with pytest.raises(DataError):
            fit_class_summary(data, 1, variance_floor=0.0)

    def test_uses_requested_class_only(self):
        features = np.vstack([np.zeros((3, 1)), np.full((3, 1), 9.0)])
        features[:3, 0] = [0.0, 1.0, 2.0]
        features[3:, 0] = [9.0, 10.0, 11.0]
        data = LabeledDataset(
            features=features, labels=np.repeat([1, 2], 3), n_classes=2
        )
        assert fit_class_summary(data, 2).mean[0] == pytest.approx(10.0)


class TestFitAgainstNumpy:
    """The blocked fit keeps numpy's summation order, so its moments are
    bit-equal to rows.mean(axis=0) and rows.var(axis=0, ddof=1)."""

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("p", [2, 5, 200, 500, 3000])
    @pytest.mark.parametrize("blocks, extra", [(0, 3), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_bit_equal(self, rng, p, blocks, extra, offset):
        n = max(blocks * _block_rows(p) + extra, 3)
        rows = offset + rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        s = fit_class_summary(one_class(rows), 1)
        np.testing.assert_array_equal(s.mean, rows.mean(axis=0))
        np.testing.assert_array_equal(s.variance, rows.var(axis=0, ddof=1))

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("n", [3, _CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3])
    def test_single_column_within_rounding(self, rng, n, offset):
        # numpy sums one contiguous column pairwise, the fit row after row
        rows = offset + rng.normal(size=(n, 1))
        s = fit_class_summary(one_class(rows), 1)
        np.testing.assert_array_equal(s.mean, rows.mean(axis=0))
        np.testing.assert_allclose(s.variance, rows.var(axis=0, ddof=1), rtol=1e-15)


class TestScores:
    def test_empirical_score_hand_value(self):
        # mean (1,1), var (2,2), x=(3,1): (3-1)^2/2 + 0 = 2
        s = ClassSummary(
            class_id=1, mean=np.array([1.0, 1.0]), variance=np.array([2.0, 2.0]),
            count=3,
        )
        assert empirical_score(s, np.array([3.0, 1.0])) == pytest.approx(2.0)

    def test_oracle_score_hand_value(self):
        # mu=(0,0), var=(4,1), x=(2,3): 4/4 + 9/1 = 10
        params = OracleParams(
            means=np.array([[0.0, 0.0]]), variances=np.array([[4.0, 1.0]])
        )
        assert oracle_score(params, 1, np.array([2.0, 3.0])) == pytest.approx(10.0)

    def test_one_dimensional_case(self):
        params = OracleParams(means=np.array([[0.0]]), variances=np.array([[1.0]]))
        assert oracle_score(params, 1, np.array([2.0])) == pytest.approx(4.0)

    def test_score_zero_at_the_mean(self):
        s = ClassSummary(
            class_id=1, mean=np.array([3.0, -1.0]), variance=np.array([2.0, 5.0]),
            count=10,
        )
        assert empirical_score(s, np.array([3.0, -1.0])) == 0.0

    def test_rejects_2d_point(self):
        s = ClassSummary(
            class_id=1, mean=np.zeros(2), variance=np.ones(2), count=3
        )
        with pytest.raises(DataError):
            empirical_score(s, np.zeros((1, 2)))

    def test_rejects_dimension_mismatch(self):
        s = ClassSummary(
            class_id=1, mean=np.zeros(2), variance=np.ones(2), count=3
        )
        with pytest.raises(DataError, match="features"):
            empirical_score(s, np.zeros(3))


class TestScoreBatch:
    def test_matches_scalar_scores(self, rng):
        rows = rng.normal(size=(20, 4))
        s = ClassSummary(
            class_id=1,
            mean=rng.normal(size=4),
            variance=rng.uniform(0.5, 2.0, size=4),
            count=5,
        )
        batch = score_batch(s, rows)
        expected = [empirical_score(s, r) for r in rows]
        np.testing.assert_allclose(batch, expected, rtol=1e-12)

    def test_oracle_needs_class_id(self):
        params = OracleParams(means=np.zeros((2, 3)), variances=np.ones((2, 3)))
        with pytest.raises(DataError, match="class_id"):
            score_batch(params, np.zeros((4, 3)))
        out = score_batch(params, np.zeros((4, 3)), class_id=2)
        assert out.shape == (4,)

    def test_rejects_1d_rows(self):
        params = OracleParams(means=np.zeros((1, 3)), variances=np.ones((1, 3)))
        with pytest.raises(DataError):
            score_batch(params, np.zeros(3), class_id=1)

    def test_rejects_unknown_model(self):
        with pytest.raises(DataError):
            score_batch(object(), np.zeros((2, 2)))


def naive_scores(mean, var, rows):
    return np.array([((x - mean) ** 2 / var).sum() for x in rows])


class TestChunkedKernel:
    """score_batch against a per-row loop across the kernel's block edges."""

    @pytest.mark.parametrize("n", [1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3])
    def test_class_summary_matches_loop(self, rng, n):
        rows = rng.normal(size=(n, 5))
        s = ClassSummary(
            class_id=1,
            mean=rng.normal(size=5),
            variance=rng.uniform(0.5, 2.0, size=5),
            count=3,
        )
        np.testing.assert_allclose(
            score_batch(s, rows), naive_scores(s.mean, s.variance, rows), rtol=1e-12
        )

    @pytest.mark.parametrize("n", [1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3])
    def test_oracle_params_matches_loop(self, rng, n):
        rows = rng.normal(size=(n, 5))
        params = OracleParams(
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
        s = ClassSummary(
            class_id=1,
            mean=offset + rng.normal(scale=0.1, size=5),
            variance=np.ones(5),
            count=3,
        )
        np.testing.assert_allclose(
            score_batch(s, rows), naive_scores(s.mean, s.variance, rows), rtol=1e-12
        )


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
        params = OracleParams(means=means, variances=variances)
        for c in range(4):
            expected = naive_scores(means[c], variances[c], rows)
            np.testing.assert_allclose(
                score_batch(params, rows, class_id=c + 1), expected, rtol=1e-12
            )
        s = ClassSummary(class_id=1, mean=means[0], variance=variances[0], count=3)
        np.testing.assert_allclose(
            score_batch(s, rows), naive_scores(means[0], variances[0], rows), rtol=1e-12
        )


class TestInvariances:
    def test_translation_invariance(self, rng):
        features = rng.normal(size=(30, 5))
        shift = rng.normal(scale=50.0, size=5)
        test_rows = rng.normal(size=(10, 5))
        s0 = fit_class_summary(one_class(features), 1)
        s1 = fit_class_summary(one_class(features + shift), 1)
        np.testing.assert_allclose(
            score_batch(s0, test_rows),
            score_batch(s1, test_rows + shift),
            rtol=1e-9,
        )

    def test_per_column_scale_invariance(self, rng):
        features = rng.normal(size=(30, 5))
        scale = rng.uniform(0.1, 20.0, size=5)
        test_rows = rng.normal(size=(10, 5))
        s0 = fit_class_summary(one_class(features), 1)
        s1 = fit_class_summary(one_class(features * scale), 1)
        np.testing.assert_allclose(
            score_batch(s0, test_rows),
            score_batch(s1, test_rows * scale),
            rtol=1e-9,
        )

    def test_score_additive_over_columns(self, rng):
        """The score is a sum of per-column terms."""
        features = rng.normal(size=(25, 3))
        test_rows = rng.normal(size=(8, 3))
        full = score_batch(fit_class_summary(one_class(features), 1), test_rows)
        per_col = np.zeros(8)
        for j in range(3):
            s = fit_class_summary(one_class(features[:, [j]]), 1)
            per_col += score_batch(s, test_rows[:, [j]])
        np.testing.assert_allclose(full, per_col, rtol=1e-9)
