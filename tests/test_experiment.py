"""Experiment runner: seeding, replicates, cells, parallelism, file outputs."""

import concurrent.futures
import multiprocessing
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from confset import (
    ClassModel,
    DataError,
    ExperimentConfig,
    ScenarioConfig,
    TestBatch,
    evaluate_sets,
    generate,
    generate_test_batch,
    generate_training,
    load_config,
    load_csv,
    make_atoms,
    multi_class_config,
    oracle_params,
    predict,
    read_results,
    run_cell,
    run_experiment,
    run_replicate,
    score_classes,
    split_train_test,
    with_run_seed,
)
from confset import experiment
from confset.experiment import _map_jobs, replicate_seed
from confset.scoring import _SPLIT_BLOCKS
from conftest import forbid_helper, spy_score_threads


class TestReplicateSeed:
    def test_deterministic(self):
        assert replicate_seed(0, 1, 2) == replicate_seed(0, 1, 2)

    def test_each_index_matters(self):
        base = replicate_seed(3, 4, 5)
        assert replicate_seed(4, 4, 5) != base
        assert replicate_seed(3, 5, 5) != base
        assert replicate_seed(3, 4, 6) != base

    def test_no_collisions_on_small_grid(self):
        seen = {
            replicate_seed(ms, ci, r)
            for ms in range(3) for ci in range(10) for r in range(20)
        }
        assert len(seen) == 3 * 10 * 20

    def test_plain_int(self):
        seed = replicate_seed(1, 2, 3)
        assert type(seed) is int and 0 <= seed < 2**32


class TestEvaluatePrediction:
    def test_oracle_flag_changes_parameterization(self):
        config = multi_class_config(p=6, n_k=12, m=40, rho=0.3, run_seed=5)
        train, batch = generate(config)
        p_emp, _ = predict(train, batch, 0.1)
        p_orc, _ = predict(train, batch, 0.1, oracle=oracle_params(config))
        assert not np.array_equal(p_emp.raw, p_orc.raw)


class TestRunReplicate:
    def test_matches_manual_pipeline(self):
        """Each report is evaluate_sets(predict(...)) on the replicate's own
        draws: the training set, then the batches, from one run_seed stream."""
        # sizes chosen so sets are nontrivial and the two modes differ
        config = multi_class_config(p=8, n_k=30, m=60, rho=0.2, alpha=0.25, run_seed=4)
        reports, seconds = run_replicate(config, 3, ("empirical", "oracle"))
        assert reports["empirical"] != reports["oracle"]
        atoms = make_atoms(config.atom_seed, config.p)
        rng = np.random.default_rng(config.run_seed)
        train = generate_training(config, rng, atoms)
        oracles = {"empirical": None, "oracle": oracle_params(config)}
        expected = {mode: [] for mode in oracles}
        for _ in range(3):
            batch = generate_test_batch(config, rng, atoms)
            for mode, oracle in oracles.items():
                _, sets = predict(train, batch, 0.25, oracle=oracle)
                expected[mode].append(evaluate_sets(sets, batch.truth))
        assert reports == expected
        assert all(s > 0.0 for s in seconds.values())

    def test_report_counts(self):
        config = ScenarioConfig(p=5, n_k=20, m=16, run_seed=6)
        reports, seconds = run_replicate(config, test_sets=3, modes=("empirical",))
        assert set(reports) == {"empirical"}
        assert len(reports["empirical"]) == 3
        assert seconds["empirical"] > 0.0

    def test_both_modes_share_data(self):
        """Mode list changes parameterization only, never the random draws."""
        config = multi_class_config(p=4, n_k=10, m=20, rho=0.2, run_seed=7)
        both, _ = run_replicate(config, 2, ("empirical", "oracle"))
        emp_only, _ = run_replicate(config, 2, ("empirical",))
        orc_only, _ = run_replicate(config, 2, ("oracle",))
        assert both["empirical"] == emp_only["empirical"]
        assert both["oracle"] == orc_only["oracle"]

    def test_deterministic_in_run_seed(self):
        # sizes chosen so sets are nontrivial; tiny cells can tie exactly
        config = multi_class_config(p=8, n_k=30, m=60, rho=0.2, run_seed=8, alpha=0.25)
        a, _ = run_replicate(config, 2, ("empirical",))
        b, _ = run_replicate(config, 2, ("empirical",))
        assert a == b
        c, _ = run_replicate(with_run_seed(config, 9), 2, ("empirical",))
        assert a != c


class TestTraceContract:
    """Every class fit and every scored row of a replicate passes through
    the public functions that perfbench/spans.py counts (the
    ``scoring_calls`` fixture). A kernel that bypassed them would leave the
    trace blind, and these counts would fall."""

    @pytest.mark.parametrize("modes", [("empirical",), ("oracle",), ("empirical", "oracle")])
    def test_run_replicate_fits_once_and_scores_every_row(self, scoring_calls, modes):
        # p = 200 gives 256-row blocks, so m = 700 spans three of them
        n_k, m, test_sets = 20, 700, 3
        config = multi_class_config(p=200, n_k=n_k, m=m, rho=0.5, run_seed=3)
        run_replicate(config, test_sets, modes)
        k = 4
        # one fit per replicate, not one per test batch
        assert scoring_calls["fit"] == (list(range(1, k + 1)) if "empirical" in modes else [])
        rows = sum(r.shape[0] for _, r in scoring_calls["score"])
        # the training rows once per predictor, the test rows once per batch
        assert rows == test_sets * len(modes) * k * m + len(modes) * k * n_k


def _spy(monkeypatch, name, fail_at=0):
    """Rebind ``experiment.<name>`` to record, per call, whether it ran on
    the main thread; call number ``fail_at`` raises instead."""
    real, on_main = getattr(experiment, name), []

    def spy(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        if len(on_main) == fail_at:
            raise DataError(f"{name} call {fail_at} failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, name, spy)
    return on_main


class TestDrawAhead:
    """In the calling process a helper thread draws each batch while the
    one before it is predicted. A failure raises the in-order draw's error
    at the same batch, and the helper is joined before the error leaves.
    ``ahead=False`` runs the in-order draw of a process-pool worker."""

    CONFIG = multi_class_config(p=6, n_k=15, m=30, rho=0.2, run_seed=11)

    @pytest.mark.parametrize("ahead", [True, False])
    def test_failing_draw(self, monkeypatch, ahead):
        if not ahead:
            forbid_helper(monkeypatch)
        draws = _spy(monkeypatch, "generate_test_batch", fail_at=3)
        predicts = _spy(monkeypatch, "predict")
        threads = threading.active_count()
        with pytest.raises(DataError, match="^generate_test_batch call 3 failed$"):
            run_replicate(self.CONFIG, 5, ("empirical",))
        assert threading.active_count() == threads
        # the two batches drawn before the failing draw were predicted
        assert predicts == [True, True]
        assert draws == [not ahead] * 3

    @pytest.mark.parametrize("ahead", [True, False])
    def test_failing_predict(self, monkeypatch, ahead):
        if not ahead:
            forbid_helper(monkeypatch)
        draws = _spy(monkeypatch, "generate_test_batch")
        _spy(monkeypatch, "predict", fail_at=2)
        threads = threading.active_count()
        with pytest.raises(DataError, match="^predict call 2 failed$"):
            run_replicate(self.CONFIG, 5, ("empirical",))
        assert threading.active_count() == threads
        # the helper stays one batch ahead, not all five
        assert len(draws) == (3 if ahead else 2)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the rebound draw reaches pool workers only through fork",
    )
    def test_pool_workers_start_no_helper(self, monkeypatch):
        def draw(*args):
            where = "main" if threading.current_thread() is threading.main_thread() else "helper"
            raise DataError(f"drawn on the {where} thread")

        monkeypatch.setattr(experiment, "generate_test_batch", draw)
        with pytest.raises(DataError, match="drawn on the main thread"):
            run_cell(TestRunCell.CONFIG, workers=2)
        with pytest.raises(DataError, match="drawn on the helper thread"):
            run_cell(TestRunCell.CONFIG, workers=1)
        # nor does a worker split a batch past the gate across two threads
        spy_score_threads(monkeypatch, fail_off_main=True)
        assert _map_jobs(_score_past_gate, [0, 1], workers=2) == [0, 1]
        with pytest.raises(DataError, match="scored on a helper thread"):
            _map_jobs(_score_past_gate, [0, 1], workers=1)

    def test_draw_helper_is_the_only_helper(self, monkeypatch):
        # batches of 33 blocks (p = 5 gives 2048-row blocks): predict would
        # split each of them, but not while the draw helper runs
        config = multi_class_config(p=5, n_k=20, m=(_SPLIT_BLOCKS + 1) * 2048, run_seed=12)
        draws = _spy(monkeypatch, "generate_test_batch")
        scores = spy_score_threads(monkeypatch)
        threads = threading.active_count()
        run_replicate(config, 2, ("empirical",))
        assert threading.active_count() == threads
        assert draws == [False, False]
        assert scores and all(scores)
        # the same batch, predicted on its own, is split
        scores.clear()
        predict(*generate(config), config.alpha)
        assert not all(scores)


def _score_past_gate(job):
    """``job``, after one ``score_classes`` call on a batch at the gate."""
    model = ClassModel(means=np.zeros((2, 5)), variances=np.ones((2, 5)))
    score_classes(model, np.ones((_SPLIT_BLOCKS * 2048, 5)))
    return job


class TestRunCell:
    CONFIG = ExperimentConfig(
        scenario="multi_class", p=(8,), n_k=(30,), rho=(0.2,),
        m=40, alpha=0.25, replicates=3, test_sets=2, master_seed=1,
    )

    def test_counts_and_tag(self):
        cell = run_cell(self.CONFIG, cell_index=0)
        assert len(cell.reports["empirical"]) == 3 * 2
        assert cell.tag("empirical") == "multi_class_p8_nk30_rho0.2_empirical"

    def test_worker_count_invisible_in_results(self):
        serial = run_cell(self.CONFIG, cell_index=0, workers=1)
        parallel = run_cell(self.CONFIG, cell_index=0, workers=2)
        assert serial.reports == parallel.reports

    def test_pool_never_larger_than_job_count(self, monkeypatch):
        """A pool starts all its workers at once, so it is sized to the jobs;
        the recorder maps serially and starts no process."""
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                future = concurrent.futures.Future()
                future.set_result(fn(job))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        pooled = run_cell(self.CONFIG, workers=64)
        assert sizes == [self.CONFIG.replicates]
        assert pooled.reports == run_cell(self.CONFIG).reports

    def test_two_predictors_collect_two_tables(self):
        exp = ExperimentConfig(
            scenario="one_class", p=(5,), n_k=(12,), rho=(0.0,),
            m=10, replicates=2, test_sets=2, mode=("empirical", "oracle"),
        )
        cell = run_cell(exp, cell_index=0)
        assert set(cell.reports) == {"empirical", "oracle"}
        assert len(cell.reports["oracle"]) == 4

    def test_cell_index_separates_streams(self):
        # cell 1 of a two-cell grid has the design of the one-cell grid's
        # cell 0, but its own replicate streams
        two = replace(self.CONFIG, rho=(0.5, 0.2))
        assert two.cells()[1] == self.CONFIG.cells()[0]
        assert run_cell(two, cell_index=1).reports != run_cell(self.CONFIG).reports


def _fail_first(job):
    """Job 0 fails at once; every other job takes a second."""
    if job == 0:
        raise DataError("job 0 failed")
    time.sleep(1.0)
    return job


def _later_jobs_end_first(job):
    time.sleep(0.05 * (4 - job))
    return job


class TestMapJobs:
    def test_first_failure_starts_no_further_job(self):
        # job 1 is in flight when job 0 fails; the other six never start,
        # where a pool that drained its queue would take four seconds
        started = time.perf_counter()
        with pytest.raises(DataError, match="job 0 failed"):
            _map_jobs(_fail_first, list(range(8)), workers=2)
        assert time.perf_counter() - started < 1.5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_come_back_in_job_order(self, workers):
        assert _map_jobs(_later_jobs_end_first, list(range(5)), workers) == list(range(5))


class TestRunExperiment:
    def _config(self, out_dir, **overrides):
        base = dict(
            scenario="multi_class", p=(5, 7), n_k=(10,), rho=(0.0,),
            m=16, alpha=0.1, replicates=2, test_sets=2,
            master_seed=3, out_dir=str(out_dir),
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_writes_per_cell_tables_and_config(self, tmp_path):
        exp = self._config(tmp_path / "out")
        cells = run_experiment(exp)
        assert len(cells) == 2
        out = tmp_path / "out"
        for tag in ("multi_class_p5_nk10_rho0_empirical",
                    "multi_class_p7_nk10_rho0_empirical"):
            assert (out / f"{tag}.csv").exists()
            assert (out / f"{tag}.txt").exists()
        assert (out / "config.yaml").exists()
        table = read_results(out / "multi_class_p5_nk10_rho0_empirical.csv")
        assert "power" in table and "time_s" in table
        assert len(table["cw_fdr_1"]) == 2

    def test_deterministic_modulo_time(self, tmp_path):
        exp1 = self._config(tmp_path / "a")
        exp2 = self._config(tmp_path / "b")
        run_experiment(exp1)
        run_experiment(exp2)
        t1 = read_results(tmp_path / "a" / "multi_class_p5_nk10_rho0_empirical.csv")
        t2 = read_results(tmp_path / "b" / "multi_class_p5_nk10_rho0_empirical.csv")
        t1.pop("time_s"), t2.pop("time_s")
        assert t1 == t2

    def test_numpy_scalars_write_like_python_ones(self, tmp_path):
        # numpy numbers pass check_number and check_seed; the config stores
        # them as Python scalars, which the YAML copy can hold
        plain = self._config(tmp_path / "plain", rho=(0.5,))
        typed = self._config(
            tmp_path / "typed", p=tuple(np.array([5, 7])), rho=(np.float64(0.5),),
            m=np.int64(16), alpha=np.float64(0.1), master_seed=np.uint32(3),
        )
        assert replace(typed, out_dir=plain.out_dir) == plain
        assert [type(v) for v in (*typed.p, *typed.rho, typed.alpha)] == [int, int, float, float]
        run_experiment(plain)
        run_experiment(typed)
        assert load_config(tmp_path / "typed" / "config.yaml") == typed
        for p in (5, 7):
            name = f"multi_class_p{p}_nk10_rho0.5_empirical.csv"
            t1 = read_results(tmp_path / "plain" / name)
            t2 = read_results(tmp_path / "typed" / name)
            t1.pop("time_s"), t2.pop("time_s")
            assert t1 == t2

    def test_echo_receives_tables(self, tmp_path):
        lines = []
        run_experiment(self._config(tmp_path / "out", p=(5,)), echo=lines.append)
        joined = "\n".join(lines)
        assert "== multi_class_p5_nk10_rho0_empirical ==" in joined
        assert "ambiguity" in joined

    def test_csv_scenario_resplits(self, tmp_path):
        # build a file with two classes and some outlier rows
        gen = np.random.default_rng(12)
        rows = ["x1,x2,y"]
        for k, loc in ((1, 0.0), (2, 8.0)):
            for _ in range(25):
                a, b = gen.normal(loc, 1.0, size=2)
                rows.append(f"{a},{b},c{k}")
        for _ in range(10):
            a, b = gen.normal(0.0, 6.0, size=2)
            rows.append(f"{a},{b},odd")
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")

        exp = ExperimentConfig(
            scenario="csv", csv_path=str(path), label_column="y",
            outlier_label="odd", replicates=3, alpha=0.2,
            out_dir=str(tmp_path / "out"), master_seed=4,
        )
        cells = run_experiment(exp)
        assert len(cells) == 1
        cell = cells[0]
        assert cell.scenario == "csv" and cell.p == 2 and cell.n_k == 25
        assert len(cell.reports["empirical"]) == 3
        assert (tmp_path / "out" / "csv_p2_nk25_rho0_empirical.csv").exists()
        # every split tests 7 inliers/class (25 -> 18 train) plus all 10
        # outliers; each outlier is either caught (power) or leaked (flr)
        m_total = 2 * 7 + 10
        for report in cell.reports["empirical"]:
            caught = report.power * 10
            leaked = report.flr * m_total
            assert caught + leaked == pytest.approx(10.0)

    def test_csv_scenario_missing_file_writes_nothing(self, tmp_path):
        # the file is read before out_dir and its config.yaml are made
        exp = ExperimentConfig(
            scenario="csv", csv_path=str(tmp_path / "missing.csv"), label_column="y",
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(DataError, match="missing.csv"):
            run_experiment(exp)
        assert not (tmp_path / "out").exists()

    def test_csv_replicates_match_manual_pipeline(self, tmp_path):
        gen = np.random.default_rng(15)
        groups = (("c1", 0.0, 1.0, 20), ("c2", 6.0, 1.0, 20), ("odd", 0.0, 6.0, 8))
        rows = ["x1,x2,y"] + [
            f"{a},{b},{label}"
            for label, loc, scale, n in groups
            for a, b in gen.normal(loc, scale, size=(n, 2))
        ]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        exp = ExperimentConfig(
            scenario="csv", csv_path=str(path), label_column="y",
            outlier_label="odd", replicates=3, alpha=0.2, train_fraction=0.6,
            out_dir=str(tmp_path / "out"), master_seed=9,
        )
        reports = run_experiment(exp)[0].reports["empirical"]
        data, outliers, _ = load_csv(path, "y", outlier_label="odd")
        expected = []
        for r in range(3):
            train, batch = split_train_test(data, 0.6, replicate_seed(9, 0, r))
            batch = TestBatch(
                features=np.vstack([batch.features, outliers.features]),
                truth=np.concatenate([batch.truth, outliers.truth]),
            )
            _, sets = predict(train, batch, 0.2)
            expected.append(evaluate_sets(sets, batch.truth))
        assert reports == expected

    def test_csv_without_outliers(self, tmp_path):
        gen = np.random.default_rng(13)
        rows = ["x1,y"] + [f"{gen.normal(k * 5.0)},{k}" for k in (1, 2) for _ in range(20)]
        path = tmp_path / "plain.csv"
        path.write_text("\n".join(rows) + "\n")
        exp = ExperimentConfig(
            scenario="csv", csv_path=str(path), label_column="y",
            replicates=2, out_dir=str(tmp_path / "out"),
        )
        cells = run_experiment(exp)
        report = cells[0].reports["empirical"][0]
        assert report.power == 0.0  # no outliers anywhere
        assert report.flr == 0.0

    def test_csv_without_outlier_label_keeps_every_label(self, tmp_path):
        # no label is special when outlier_label is unset, whatever its text
        gen = np.random.default_rng(14)
        rows = ["x1,y"] + [
            f"{gen.normal(k * 5.0)},{name}"
            for k, name in enumerate(("a", "__none__"))
            for _ in range(20)
        ]
        path = tmp_path / "plain.csv"
        path.write_text("\n".join(rows) + "\n")
        exp = ExperimentConfig(
            scenario="csv", csv_path=str(path), label_column="y",
            replicates=1, out_dir=str(tmp_path / "out"),
        )
        report = run_experiment(exp)[0].reports["empirical"][0]
        assert len(report.cw_fdr) == 2
        assert report.power == 0.0 and report.flr == 0.0

    def test_workers_match_serial(self, tmp_path):
        exp1 = self._config(tmp_path / "a", p=(5,))
        exp2 = self._config(tmp_path / "b", p=(5,))
        run_experiment(exp1, workers=1)
        run_experiment(exp2, workers=2)
        t1 = read_results(tmp_path / "a" / "multi_class_p5_nk10_rho0_empirical.csv")
        t2 = read_results(tmp_path / "b" / "multi_class_p5_nk10_rho0_empirical.csv")
        t1.pop("time_s"), t2.pop("time_s")
        assert t1 == t2
