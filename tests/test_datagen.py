"""Synthetic data generator: atoms, apportionment, moments, determinism."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from confset import datagen
from confset import (
    ComponentSpec,
    SCENARIOS,
    DataError,
    ScenarioConfig,
    generate,
    generate_test_batch,
    generate_training,
    make_atoms,
    multi_class_config,
    oracle_params,
    sample_points,
    with_run_seed,
)
from confset.datagen import apportion_test_counts

from conftest import naive_generate

_CHUNK = datagen._CHUNK_ROWS


def _design_id(value):
    # the one-class design keeps the test ids it had when a wrapper of that
    # name made it
    return "one_class_config" if value is ScenarioConfig else None


class TestAtoms:
    def test_deterministic_and_in_range(self):
        a = make_atoms(99, 200)
        b = make_atoms(99, 200)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (200,)
        assert np.all(a >= -3.0) and np.all(a <= 3.0)

    def test_different_seed_differs(self):
        assert not np.array_equal(make_atoms(99, 50), make_atoms(100, 50))

    def test_prefix_stability(self):
        # same seed, larger p extends the same stream
        short = make_atoms(7, 10)
        long = make_atoms(7, 30)
        np.testing.assert_array_equal(short, long[:10])

    def test_rejects_bad_p(self):
        with pytest.raises(DataError):
            make_atoms(0, 0)

    def test_oversized_pool_is_one_line(self):
        with pytest.raises(DataError, match=f"^cannot allocate {10**14} atoms$"):
            make_atoms(99, 10**14)


class TestApportion:
    def test_spec_example(self):
        # 1000 slots at 3:1 over four classes
        counts, n_out = apportion_test_counts(1000, 3.0, 4)
        assert counts == [188, 188, 187, 187]
        assert n_out == 250

    def test_half_up_rounding(self):
        # 5 * 1/(1+1) = 2.5 rounds half up to 3 inliers
        counts, n_out = apportion_test_counts(5, 1.0, 1)
        assert counts == [3]
        assert n_out == 2

    def test_totals_always_match(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            m = int(gen.integers(1, 500))
            ratio = float(gen.uniform(0.2, 9.0))
            k = int(gen.integers(1, 6))
            counts, n_out = apportion_test_counts(m, ratio, k)
            assert sum(counts) + n_out == m
            assert n_out >= 0 and all(c >= 0 for c in counts)
            # largest-remainder: class loads differ by at most one, sorted descending
            assert max(counts) - min(counts) <= 1
            assert counts == sorted(counts, reverse=True)

    def test_rejects_zero_m(self):
        with pytest.raises(DataError):
            apportion_test_counts(0, 3.0, 2)

    def test_hand_value(self):
        # 10 * 3 / 4 = 7.5 inliers, half up to 8, four per class
        assert apportion_test_counts(10, 3.0, 2) == ([4, 4], 2)

    def test_overflowing_ratio_leaves_no_outlier(self):
        # 1000 * 1e308 is inf; with m = 1 the product stays finite
        assert apportion_test_counts(1000, 1e308, 4) == ([250] * 4, 0)
        assert apportion_test_counts(1, 1e308, 1) == ([1], 0)


class TestScenarioConfig:
    def test_designs_by_name(self):
        assert SCENARIOS == {"one_class": ScenarioConfig, "multi_class": multi_class_config}

    def test_one_class_defaults(self):
        c = ScenarioConfig()
        assert c.p == 500 and c.n_k == 500 and c.m == 1000
        assert c.class_specs == (ComponentSpec(0.0, 1.0),)
        assert c.outlier_spec == ComponentSpec(0.0, 2.5)
        assert c.inlier_ratio == 3.0 and c.alpha == 0.05
        assert c.n_classes == 1

    def test_multi_class_defaults(self):
        c = multi_class_config()
        assert [s.shift for s in c.class_specs] == [0.0, 1.3, -1.3, 2.5]
        assert all(s.scale == 1.0 for s in c.class_specs)
        assert c.outlier_spec == ComponentSpec(0.0, 3.5)
        assert c.n_classes == 4
        # every field but the components is ScenarioConfig's default
        components = dict(class_specs=c.class_specs, outlier_spec=c.outlier_spec)
        assert c == ScenarioConfig(**components)

    def test_overrides_flow_through(self):
        c = multi_class_config(p=20, n_k=30, rho=0.5, m=40, alpha=0.1, run_seed=5)
        assert (c.p, c.n_k, c.rho, c.m, c.alpha, c.run_seed) == (20, 30, 0.5, 40, 0.1, 5)

    def test_with_run_seed(self):
        c = multi_class_config(p=10, n_k=10)
        d = with_run_seed(c, 42)
        assert d.run_seed == 42
        assert d.p == c.p and d.class_specs == c.class_specs
        assert c.run_seed == 0  # original untouched

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=5, n_k=5, outlier_spec=ComponentSpec(0.0, 0.5)),
            dict(p=0, n_k=5),
            dict(p=5, n_k=2),
            dict(p=5, n_k=5, m=0),
            dict(p=5, n_k=5, rho=1.0),
            dict(p=5, n_k=5, rho=-0.1),
            dict(p=5, n_k=5, alpha=0.0),
            dict(p=5, n_k=5, alpha=1.0),
            dict(p=5, n_k=5, inlier_ratio=0.0),
            dict(p=5, n_k=5, class_specs=()),
            dict(p=5, n_k=5, rho=float("nan")),
            dict(p=5, n_k=5, class_specs=(ComponentSpec(0.0, 0.5),)),
            dict(p=5, n_k=5, inlier_ratio=float("inf")),
            dict(p=5, n_k=5, inlier_ratio=float("nan")),
            dict(p=5, n_k=5, run_seed=-1),
            dict(p=5, n_k=5, atom_seed=-1),
            dict(p=5, n_k=5, run_seed=1.5),
            dict(p=5, n_k=5, run_seed=True),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DataError):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("make", [ScenarioConfig, multi_class_config])
    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("p", 5.5, "an integer"),
            ("n_k", 10.5, "an integer"),
            ("m", 7.5, "an integer"),
            ("p", True, "an integer"),
            ("rho", "0.5", "a number"),
            ("alpha", None, "a number"),
            ("inlier_ratio", "3", "a number"),
        ],
    )
    def test_field_of_the_wrong_type_is_named(self, make, field, value, kind):
        kwargs = {"p": 5, "n_k": 10, field: value}
        message = f"{field} must be {kind}, got {value!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            make(**kwargs)

    def test_numpy_numbers_are_numbers(self):
        c = ScenarioConfig(p=np.int64(5), n_k=np.int32(10), rho=np.float64(0.5))
        assert (c.p, c.n_k, c.rho) == (5, 10, 0.5)

    def test_specs_coerced_from_tuples(self):
        c = ScenarioConfig(
            p=3, n_k=4,
            class_specs=((0.0, 1.0), (2.0, 1.0)), outlier_spec=(0.0, 2.0),
        )
        assert isinstance(c.class_specs[0], ComponentSpec)
        assert isinstance(c.outlier_spec, ComponentSpec)
        assert c.outlier_spec.scale == 2.0


class TestSamplePoints:
    def test_shape_and_determinism(self):
        atoms = make_atoms(99, 6)
        a = sample_points([(ComponentSpec(1.0, 2.0), 40)], 0.3, atoms, np.random.default_rng(5))
        b = sample_points([(ComponentSpec(1.0, 2.0), 40)], 0.3, atoms, np.random.default_rng(5))
        assert a.shape == (40, 6)
        np.testing.assert_array_equal(a, b)

    def test_rho_zero_is_plain_gaussian_plus_atoms(self):
        # with a single atom at value w, X = z + shift*sqrt(scale) ... verify exactly
        atoms = np.array([0.5])
        rng = np.random.default_rng(11)
        x = sample_points([(ComponentSpec(2.0, 4.0), 10)], 0.0, atoms, rng)
        rng2 = np.random.default_rng(11)
        z = rng2.standard_normal(size=(10, 1))
        rng2.integers(0, 1, size=(10, 1))  # the atom picks, all index 0
        np.testing.assert_allclose(x, 2.0 * (z + 2.0) + 0.5, rtol=1e-12)

    def test_ar1_column_correlation(self):
        atoms = np.zeros(2)  # kill the atom noise
        x = sample_points(
            [(ComponentSpec(0.0, 1.0), 60000)], 0.8, atoms, np.random.default_rng(3)
        )
        r = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert r == pytest.approx(0.8, abs=0.02)
        assert x[:, 1].std() == pytest.approx(1.0, abs=0.02)


    @pytest.mark.parametrize(
        "parts, rho, atoms, value",
        [
            ([(ComponentSpec(0.0), 3)], 1.0, np.zeros(2), "1.0"),
            ([(ComponentSpec(0.0), 3)], 1.5, np.zeros(2), "1.5"),
            ([(ComponentSpec(0.0), 3)], -0.1, np.zeros(2), "-0.1"),
            ([(ComponentSpec(0.0), 3), (ComponentSpec(1.0), -2)], 0.5, np.zeros(2), "-2"),
            ([(ComponentSpec(0.0, 0.0), 3)], 0.5, np.zeros(2), "0.0"),
            ([(ComponentSpec(0.0, -4.0), 3)], 0.5, np.zeros(2), "-4.0"),
            ([(ComponentSpec(0.0), 3)], 0.5, np.zeros(0), "(0,)"),
            ([(ComponentSpec(0.0), 3)], 0.5, np.zeros((2, 2)), "(2, 2)"),
            # too large to allocate, and too long to index
            ([(ComponentSpec(0.0), 4 * 10**14)], 0.0, np.zeros(1000), "400000000000000 rows x 1000"),
            ([(ComponentSpec(0.0), 10**20)], 0.0, np.zeros(5), f"{10**20} rows x 5 features"),
        ],
    )
    def test_rejects_invalid(self, parts, rho, atoms, value):
        with pytest.raises(DataError, match=re.escape(value)):
            sample_points(parts, rho, atoms, np.random.default_rng(0))

    def test_parts_split_anywhere_give_the_same_rows(self):
        # one call over all components equals one call per component
        atoms = make_atoms(99, 9)
        parts = [(ComponentSpec(1.0, 2.0), 7), (ComponentSpec(-1.0), 0), (ComponentSpec(0.0, 3.0), 5)]
        whole = sample_points(parts, 0.6, atoms, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        split = np.vstack([sample_points([part], 0.6, atoms, rng) for part in parts])
        np.testing.assert_array_equal(whole, split)


class TestNaiveReference:
    """Every generated bit equals a per-component column-loop sampler."""

    @staticmethod
    def assert_matches_naive(config):
        train, test = generate(config)
        x, labels, y, truth, next_draw = naive_generate(config)
        np.testing.assert_array_equal(train.features, x)
        np.testing.assert_array_equal(train.labels, labels)
        np.testing.assert_array_equal(test.features, y)
        np.testing.assert_array_equal(test.truth, truth)
        rng = np.random.default_rng(config.run_seed)
        atoms = make_atoms(config.atom_seed, config.p)
        np.testing.assert_array_equal(generate_training(config, rng, atoms).features, x)
        np.testing.assert_array_equal(generate_test_batch(config, rng, atoms).features, y)
        assert rng.random() == next_draw

    @pytest.mark.parametrize("make", [multi_class_config, ScenarioConfig], ids=_design_id)
    @pytest.mark.parametrize("p", [1, 7, 300])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
    def test_grid(self, make, p, rho):
        self.assert_matches_naive(make(p=p, n_k=6, m=13, rho=rho, run_seed=p))

    @pytest.mark.parametrize("make", [multi_class_config, ScenarioConfig], ids=_design_id)
    def test_block_larger_than_one_chunk(self, make):
        n_k = datagen._CHUNK_ROWS + 300 if make is ScenarioConfig else 600
        config = make(p=7, n_k=n_k, m=datagen._CHUNK_ROWS + 5, rho=0.8, run_seed=4)
        assert config.n_k * config.n_classes > datagen._CHUNK_ROWS
        self.assert_matches_naive(config)

    @pytest.mark.parametrize(
        "make, n_k, m, ratio, test_counts",
        [
            # unfinished rows reach exactly _CHUNK_ROWS in both blocks
            (multi_class_config, _CHUNK // 2, 2 * _CHUNK + 100, 2 * _CHUNK / 100,
             [_CHUNK // 2] * 4 + [100]),
            # small components, then one of _CHUNK_ROWS + 1 rows; the second
            # also holds _CHUNK_ROWS - 2 training rows before its first pass
            (ScenarioConfig, 5, _CHUNK + 6, 5 / (_CHUNK + 1), [5, _CHUNK + 1]),
            (multi_class_config, _CHUNK - 2, _CHUNK + 13, 12 / (_CHUNK + 1),
             [3] * 4 + [_CHUNK + 1]),
            # zero-row components first, then in the middle, then last
            (multi_class_config, 3, _CHUNK + 1, 1e-9, [0] * 4 + [_CHUNK + 1]),
            (multi_class_config, 3, 7, 0.4, [1, 1, 0, 0, 5]),
            (multi_class_config, 3, 2, 1e9, [1, 1, 0, 0, 0]),
        ],
        ids=_design_id,
    )
    def test_components_straddling_the_ar1_flush(self, make, n_k, m, ratio, test_counts):
        config = make(p=7, n_k=n_k, m=m, inlier_ratio=ratio, rho=0.8, run_seed=5)
        counts, n_out = apportion_test_counts(m, ratio, config.n_classes)
        assert counts + [n_out] == test_counts
        self.assert_matches_naive(config)

    def test_shifted_and_scaled_components(self):
        # the built-in designs never shift and scale the same component, so
        # they cannot tell sqrt(scale) * (z + shift) from other roundings
        config = ScenarioConfig(
            p=7, n_k=6, m=13, rho=0.3, run_seed=3,
            class_specs=((1.3, 2.0), (-0.7, 1.5)), outlier_spec=(0.4, 3.0),
        )
        self.assert_matches_naive(config)

    def test_batch_with_empty_classes(self):
        config = multi_class_config(p=5, n_k=4, m=2, rho=0.3, run_seed=6)
        assert 0 in apportion_test_counts(config.m, config.inlier_ratio, 4)[0]
        self.assert_matches_naive(config)


class TestOneDrawPerBlock:
    def test_one_sample_points_call_per_block(self, monkeypatch):
        # perfbench counts generated rows at sample_points; a block drawn
        # outside it, or in pieces that skip it, would hide from the trace
        calls = []
        real = datagen.sample_points

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(out)
            return out

        monkeypatch.setattr(datagen, "sample_points", spy)
        config = multi_class_config(p=5, n_k=10, m=37, run_seed=2)
        rng = np.random.default_rng(2)
        atoms = make_atoms(config.atom_seed, config.p)
        data = generate_training(config, rng, atoms)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], data.features)
        batch = generate_test_batch(config, rng, atoms)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[1], batch.features)

    @pytest.mark.parametrize("make", [multi_class_config, ScenarioConfig], ids=_design_id)
    @pytest.mark.parametrize("p, m", [(200, 1000), (500, 4000)])
    def test_peak_memory_bounded(self, make, p, m):
        # the block, at most _CHUNK_ROWS rows of compact picks and a few
        # row-block temporaries; no whole-block side array and no
        # per-component copies stacked afterwards. Training blocks are m
        # rows too, so the fixed temporaries weigh the same in every case.
        config = make(p=p, n_k=m // (4 if make is multi_class_config else 1), m=m, rho=0.8)
        atoms = make_atoms(config.atom_seed, p)
        picks_itemsize = np.min_scalar_type(p - 1).itemsize
        side = _CHUNK * p * picks_itemsize + 4 * datagen._BLOCK_BYTES
        for draw in (generate_training, generate_test_batch):
            rng = np.random.default_rng(0)
            tracemalloc.start()
            try:
                out = draw(config, rng, atoms)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= out.features.nbytes + side, (draw.__name__, peak / out.features.nbytes)


class TestGenerateTraining:
    def test_structure(self):
        config = multi_class_config(p=7, n_k=12, run_seed=1)
        atoms = make_atoms(config.atom_seed, config.p)
        data = generate_training(config, np.random.default_rng(1), atoms)
        assert data.n == 48 and data.n_features == 7 and data.n_classes == 4
        np.testing.assert_array_equal(
            data.labels, np.repeat([1, 2, 3, 4], 12)
        )

    def test_monte_carlo_moments_match_oracle(self):
        config = multi_class_config(p=4, n_k=20000, rho=0.0, run_seed=2)
        atoms = make_atoms(config.atom_seed, config.p)
        data = generate_training(config, np.random.default_rng(2), atoms)
        oracle = oracle_params(config)
        for k in range(1, 5):
            rows = data.class_rows(k)
            mean_k, var_k = oracle.class_params(k)
            np.testing.assert_allclose(rows.mean(axis=0), mean_k, atol=0.06)
            np.testing.assert_allclose(rows.var(axis=0, ddof=1), var_k, rtol=0.06)

    def test_oracle_formula_hand_check(self):
        config = ScenarioConfig(p=3, n_k=5)
        atoms = make_atoms(config.atom_seed, 3)
        oracle = oracle_params(config)
        mean, var = oracle.class_params(1)
        np.testing.assert_allclose(mean, np.full(3, atoms.mean()), rtol=1e-12)
        np.testing.assert_allclose(var, np.full(3, 1.0 + atoms.var()), rtol=1e-12)

    def test_oracle_outlier_free(self):
        # oracle covers inlier classes only: K rows
        config = multi_class_config(p=3, n_k=5)
        oracle = oracle_params(config)
        assert oracle.means.shape == (4, 3)
        assert oracle.variances.shape == (4, 3)
        assert np.all(oracle.variances > 0)


class TestGenerateTestBatch:
    def test_truth_layout(self):
        config = multi_class_config(p=5, n_k=10, m=1000, run_seed=3)
        atoms = make_atoms(config.atom_seed, config.p)
        batch = generate_test_batch(config, np.random.default_rng(3), atoms)
        assert batch.m == 1000
        want = np.concatenate([
            np.repeat([1, 2, 3, 4], [188, 188, 187, 187]), np.full(250, 5)
        ])
        np.testing.assert_array_equal(batch.truth, want)

    def test_outliers_overdispersed(self):
        config = ScenarioConfig(p=50, n_k=10, m=4000, run_seed=4)
        atoms = make_atoms(config.atom_seed, config.p)
        batch = generate_test_batch(config, np.random.default_rng(4), atoms)
        inl = batch.features[batch.truth == 1]
        out = batch.features[batch.truth == 2]
        # atoms add the same variance to both classes, so the expected
        # per-coordinate ratio is (2.5 + w_var) / (1 + w_var)
        w_var = atoms.var()
        want = (2.5 + w_var) / (1.0 + w_var)
        ratio = out.var(axis=0).mean() / inl.var(axis=0).mean()
        assert ratio == pytest.approx(want, rel=0.1)

    def test_tiny_batch_all_inliers(self):
        config = ScenarioConfig(p=2, n_k=5, m=1, inlier_ratio=3.0, run_seed=5)
        atoms = make_atoms(config.atom_seed, config.p)
        batch = generate_test_batch(config, np.random.default_rng(5), atoms)
        assert batch.m == 1
        np.testing.assert_array_equal(batch.truth, [1])


class TestGenerate:
    def test_bitwise_deterministic(self):
        config = multi_class_config(p=6, n_k=8, m=24, rho=0.4, run_seed=77)
        d1, b1 = generate(config)
        d2, b2 = generate(config)
        np.testing.assert_array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(b1.features, b2.features)
        np.testing.assert_array_equal(b1.truth, b2.truth)

    def test_run_seed_changes_draws_not_shape(self):
        config = multi_class_config(p=6, n_k=8, m=24, run_seed=1)
        d1, b1 = generate(config)
        d2, b2 = generate(with_run_seed(config, 2))
        assert d1.features.shape == d2.features.shape
        assert not np.array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(b1.truth, b2.truth)  # layout fixed

    def test_atom_seed_shifts_both_sets(self):
        base = ScenarioConfig(p=4, n_k=6, m=8, run_seed=9)
        other = ScenarioConfig(**{
            **{f: getattr(base, f) for f in (
                "p", "n_k", "m", "rho", "alpha", "inlier_ratio",
                "class_specs", "outlier_spec", "run_seed",
            )},
            "atom_seed": 100,
        })
        d1, _ = generate(base)
        d2, _ = generate(other)
        assert not np.array_equal(d1.features, d2.features)
