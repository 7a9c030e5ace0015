"""Command-line interface, driven in-process through main(argv)."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import confset

from confset import (
    evaluate_sets,
    load_csv,
    read_batch_csv,
    read_results,
    read_sets_csv,
)
from confset.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from confset.validation import CHECKS, CheckResult, check_oracle_coverage


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_multi_shorthand_and_counts(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        code = run_cli(
            "simulate", "--scenario", "multi", "--p", 200, "--nk", 200,
            "--m", 1000, "--seed", 7, "--out", prefix,
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "multi_class: 800 training rows over 4 classes, p=200" in out
        assert "test batch: 1000 rows (750 inliers, 250 outliers)" in out

        data, label_map = load_csv(f"{prefix}_train.csv", "label")
        assert data.n == 800 and data.n_classes == 4 and data.n_features == 200
        batch = read_batch_csv(f"{prefix}_test.csv", truth_column="truth")
        assert batch.m == 1000
        assert int(np.sum(batch.truth == 5)) == 250

    def test_one_class_scenario(self, tmp_path, capsys):
        prefix = tmp_path / "oc"
        code = run_cli(
            "simulate", "--scenario", "one", "--p", 20, "--nk", 50,
            "--m", 40, "--out", prefix,
        )
        assert code == EXIT_OK
        assert "one_class: 50 training rows over 1 classes" in capsys.readouterr().out

    def test_same_seed_identical_files(self, tmp_path):
        for name in ("a", "b"):
            run_cli(
                "simulate", "--scenario", "multi", "--p", 10, "--nk", 20,
                "--m", 30, "--seed", 3, "--out", tmp_path / name,
            )
        for suffix in ("_train.csv", "_test.csv", "_oracle.json"):
            assert (tmp_path / f"a{suffix}").read_text() == (
                tmp_path / f"b{suffix}"
            ).read_text()

    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--scenario", "bogus", "--out", "x")
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--seed", -1), ("--atom-seed", -3)])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "simulate", "--p", 3, "--nk", 5, "--m", 4, flag, value,
                "--out", tmp_path / "s",
            )
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be a non-negative integer, got {value}" in err
        assert "Traceback" not in err

    def test_infinite_inlier_ratio_is_data_error(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--p", 3, "--nk", 5, "--m", 4, "--inlier-ratio", "inf",
            "--out", tmp_path / "s",
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "error: inlier_ratio must be finite and positive, got inf\n"


@pytest.fixture
def simulated(tmp_path):
    prefix = tmp_path / "sim"
    run_cli(
        "simulate", "--scenario", "one", "--p", 30, "--nk", 99,
        "--m", 60, "--seed", 11, "--out", prefix,
    )
    return prefix


class TestPredict:
    def test_outputs_and_threshold(self, simulated, tmp_path, capsys):
        prefix = tmp_path / "pred"
        code = run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--alpha", 0.05, "--out", prefix,
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "predicted 60 rows over 1 classes at alpha=0.05 (empirical)" in out

        # n_k = 99: the acceptance cut at alpha=0.05 lands exactly on 0.05
        lines = (tmp_path / "pred_thresholds.csv").read_text().splitlines()
        assert lines[0] == "class,threshold,alpha"
        assert lines[1] == "1,0.05,0.05"

        rows = (tmp_path / "pred_pvalues.csv").read_text().splitlines()
        assert rows[0] == "index,raw_1,adjusted_1"
        assert len(rows) == 61

        sets = read_sets_csv(f"{prefix}_sets.csv", n_classes=1)
        assert sets.m == 60

    def test_single_row_batch_skips_adjustment(self, simulated, tmp_path):
        # carve a one-row test file out of the simulated batch
        src = open(f"{simulated}_test.csv").read().splitlines()
        one = tmp_path / "one.csv"
        one.write_text("\n".join(src[:2]) + "\n")
        code = run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", one, "--truth-column", "truth",
            "--out", tmp_path / "single",
        )
        assert code == EXIT_OK
        rows = (tmp_path / "single_pvalues.csv").read_text().splitlines()
        assert len(rows) == 2
        _, raw, adjusted = rows[1].split(",")
        assert raw == adjusted  # one test point, nothing to adjust over

    def test_oracle_mode(self, simulated, tmp_path, capsys):
        code = run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--mode", "oracle", "--oracle-params", f"{simulated}_oracle.json",
            "--out", tmp_path / "orc",
        )
        assert code == EXIT_OK
        assert "(oracle)" in capsys.readouterr().out

    def test_oracle_mode_needs_params(self, simulated, tmp_path, capsys):
        code = run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--mode", "oracle",
            "--out", tmp_path / "x",
        )
        assert code == EXIT_DATA
        assert "--oracle-params" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--oracle-params", "o.json"], "--oracle-params needs --mode oracle"),
            (
                ["--mode", "oracle", "--oracle-params", "o.json",
                 "--variance-floor", "0.1"],
                "--variance-floor has no effect with --mode oracle",
            ),
        ],
        ids=["params_without_oracle_mode", "floor_with_oracle_mode"],
    )
    def test_ignored_flag_is_usage_error(self, simulated, tmp_path, capsys, flags, message):
        code = run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", *flags, "--out", tmp_path / "x",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x_pvalues.csv").exists()

    def test_oracle_shape_mismatch(self, simulated, tmp_path, capsys):
        other = tmp_path / "other"
        run_cli(
            "simulate", "--scenario", "multi", "--p", 30, "--nk", 10,
            "--m", 8, "--out", other,
        )
        code = run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--mode", "oracle",
            "--oracle-params", f"{other}_oracle.json", "--out", tmp_path / "x",
        )
        assert code == EXIT_DATA
        assert "4 classes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1,x2\n1,2\n", "not valid JSON: Expecting value: line 1 column 1"),
            ('{"kind": "Banana"}', "unknown container kind 'Banana'"),
            ('{"kind": "ClassModel"}', "malformed ClassModel document"),
        ],
    )
    def test_bad_oracle_params_file_is_data_error(
        self, simulated, tmp_path, capsys, text, message
    ):
        params = tmp_path / "params.json"
        params.write_text(text)
        code = run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--mode", "oracle",
            "--oracle-params", params, "--out", tmp_path / "x",
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {params}: {message}")
        assert len(err.splitlines()) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run_cli(
            "predict", "--train", tmp_path / "nope.csv",
            "--test", tmp_path / "nope.csv", "--out", tmp_path / "x",
        )
        assert code == EXIT_DATA

    def test_zero_variance_column_is_data_error(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("x1,x2,label\n0.0,5.0,a\n1.0,5.0,a\n2.0,5.0,a\n")
        test = tmp_path / "test.csv"
        test.write_text("x1,x2\n1.0,5.0\n")
        code = run_cli(
            "predict", "--train", train, "--test", test, "--out", tmp_path / "x",
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: class 1 has zero variance in feature column 1")
        assert len(err.splitlines()) == 1


class TestEvaluate:
    def test_matches_library(self, simulated, tmp_path, capsys):
        run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--alpha", 0.1, "--out", tmp_path / "pred",
        )
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--sets", tmp_path / "pred_sets.csv",
            "--test", f"{simulated}_test.csv", "--n-classes", 1,
            "--out", tmp_path / "metrics.csv",
        )
        assert code == EXIT_OK
        table = read_results(tmp_path / "metrics.csv")

        sets = read_sets_csv(tmp_path / "pred_sets.csv", 1)
        batch = read_batch_csv(f"{simulated}_test.csv", truth_column="truth")
        want = evaluate_sets(sets, batch.truth)
        assert table["power"][0] == want.power
        assert table["coverage"][0] == want.coverage
        assert table["fdr"][0] == want.fdr

    def test_prints_table_without_out(self, simulated, tmp_path, capsys):
        run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--out", tmp_path / "pred",
        )
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--sets", tmp_path / "pred_sets.csv",
            "--test", f"{simulated}_test.csv", "--n-classes", 1,
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[1 runs]" in out and "ambiguity" in out

    def test_row_count_mismatch(self, simulated, tmp_path, capsys):
        run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--out", tmp_path / "pred",
        )
        short = tmp_path / "short.csv"
        short.write_text("x1,truth\n0.0,1\n")
        code = run_cli(
            "evaluate", "--sets", tmp_path / "pred_sets.csv",
            "--test", short, "--n-classes", 1,
        )
        assert code == EXIT_DATA

    def test_empty_sets_file_is_data_error(self, simulated, tmp_path, capsys):
        empty = tmp_path / "empty_sets.csv"
        empty.write_text("")
        code = run_cli(
            "evaluate", "--sets", empty,
            "--test", f"{simulated}_test.csv", "--n-classes", 1,
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {empty}: empty file\n"

    def test_non_integer_label_is_data_error(self, simulated, tmp_path, capsys):
        bad = tmp_path / "bad_sets.csv"
        bad.write_text("index,size,labels\n0,1,1\n1,1,one\n")
        code = run_cli(
            "evaluate", "--sets", bad,
            "--test", f"{simulated}_test.csv", "--n-classes", 1,
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 3: labels cell 'one'")
        assert len(err.splitlines()) == 1

    def test_label_out_of_range_is_data_error(self, simulated, tmp_path, capsys):
        bad = tmp_path / "bad_sets.csv"
        bad.write_text("index,size,labels\n0,1,1\n1,0,\n2,1,7\n")
        code = run_cli(
            "evaluate", "--sets", bad,
            "--test", f"{simulated}_test.csv", "--n-classes", 1,
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 4: set label 7 outside 1..1\n"


    def test_reads_only_the_truth_column(self, simulated, tmp_path, capsys):
        run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--out", tmp_path / "pred",
        )
        argv = ["evaluate", "--sets", tmp_path / "pred_sets.csv", "--n-classes", 1]
        capsys.readouterr()
        assert run_cli(*argv, "--test", f"{simulated}_test.csv") == EXIT_OK
        want = capsys.readouterr().out
        lines = Path(f"{simulated}_test.csv").read_text().splitlines()
        truth = [line.rsplit(",", 1)[1] for line in lines]
        p = len(lines[0].split(",")) - 1
        junk_cells = ",".join((["bad", "nan", "", "1e999"] * p)[:p])
        junk = tmp_path / "junk_features.csv"
        junk.write_text(
            "\n".join([lines[0]] + [f"{junk_cells},{t}" for t in truth[1:]]) + "\n"
        )
        only = tmp_path / "truth_only.csv"
        only.write_text("\n".join(truth) + "\n")
        for test in (junk, only):
            assert run_cli(*argv, "--test", test) == EXIT_OK
            assert capsys.readouterr().out == want

    @pytest.mark.parametrize("n_classes", [0, -1])
    def test_nonpositive_class_count_is_usage_error(
        self, simulated, tmp_path, capsys, n_classes
    ):
        run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--out", tmp_path / "pred",
        )
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "evaluate", "--sets", tmp_path / "pred_sets.csv",
                "--test", f"{simulated}_test.csv", "--n-classes", n_classes,
            )
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: argument --n-classes: must be a positive integer" in err


class TestStartup:
    def test_import_skips_yaml_and_process_pool(self):
        # Only `experiment` needs them; every other command would pay their
        # import time at start-up.
        src = str(Path(confset.__file__).resolve().parents[1])
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        code = (
            "import sys, confset.cli; "
            "print(sorted({'yaml', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout == "[]\n"


class TestExperiment:
    def test_runs_config_with_overrides(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(
            "scenario: multi_class\np: [6]\nn_k: [12]\nrho: [0.0]\n"
            "m: 16\nalpha: 0.1\nreplicates: 2\ntest_sets: 2\n"
            f"out_dir: {tmp_path / 'ignored'}\n"
        )
        out_dir = tmp_path / "actual"
        code = run_cli(
            "experiment", "--config", config, "--out-dir", out_dir,
            "--workers", 2,
        )
        assert code == EXIT_OK
        assert "== multi_class_p6_nk12_rho0_empirical ==" in capsys.readouterr().out
        assert (out_dir / "multi_class_p6_nk12_rho0_empirical.csv").exists()
        assert not (tmp_path / "ignored").exists()
        table = read_results(out_dir / "multi_class_p6_nk12_rho0_empirical.csv")
        assert "time_s" in table

    def test_mode_override(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(
            "scenario: one_class\np: [5]\nn_k: [10]\nm: 8\n"
            "replicates: 2\ntest_sets: 1\n"
            f"out_dir: {tmp_path / 'out'}\n"
        )
        code = run_cli("experiment", "--config", config, "--mode", "both")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "_empirical ==" in out and "_oracle ==" in out

    def test_bad_config_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("scenario: one_class\nbanana: 1\n")
        assert run_cli("experiment", "--config", config) == EXIT_DATA
        assert "banana" in capsys.readouterr().err

    def test_mixed_key_types_are_named_in_one_line(self, tmp_path, capsys):
        # an integer key beside string keys cannot be sorted by value
        config = tmp_path / "config.yaml"
        config.write_text("1: 2\nfoo: 3\nscenario: one_class\n")
        assert run_cli("experiment", "--config", config) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: {config}: unknown config keys [1, 'foo']\n"

    def test_malformed_yaml_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("scenario: one_class\np: [5]\n  n_k: : 10\n")
        assert run_cli("experiment", "--config", config) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: line 3: not valid YAML: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("master_seed: -1", "master_seed must be a non-negative integer, got -1"),
            ("atom_seed: -1", "atom_seed must be a non-negative integer, got -1"),
            ("inlier_ratio: .inf", "inlier_ratio must be finite and positive, got inf"),
            ("master_seed: true", "master_seed must be a non-negative integer, got True"),
            ("atom_seed: false", "atom_seed must be a non-negative integer, got False"),
        ],
    )
    def test_bad_seed_or_ratio_is_data_error(self, tmp_path, capsys, line, message):
        config = tmp_path / "config.yaml"
        config.write_text(f"scenario: one_class\n{line}\n")
        assert run_cli("experiment", "--config", config) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {config}: {message}\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_k: [2]", "n_k must be >= 3, got 2"),
            ("rho: [0.0, 1.5]", "rho must be in [0, 1), got 1.5"),
            ("p: [0]", "p must be >= 1, got 0"),
            ("m: 0", "m must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_grid_is_data_error_before_output(
        self, tmp_path, capsys, line, message
    ):
        config = tmp_path / "config.yaml"
        out_dir = tmp_path / "out"
        config.write_text(f"scenario: multi_class\nout_dir: {out_dir}\n{line}\n")
        assert run_cli("experiment", "--config", config) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "replicates: abc",
            "alpha: x",
            "m: 2.5",
            "rho: null",
            "p: [a]",
            "test_sets: []",
            "inlier_ratio: abc",
        ],
    )
    def test_wrongly_typed_field_is_data_error(self, tmp_path, capsys, line):
        config = tmp_path / "config.yaml"
        config.write_text(f"scenario: one_class\n{line}\n")
        assert run_cli("experiment", "--config", config) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}:")
        assert len(err.splitlines()) == 1

    def test_bad_workers_variable_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONFSET_WORKERS", "abc")
        # only experiment reads the variable; every other command ignores it
        code = run_cli(
            "simulate", "--scenario", "one", "--p", 3, "--nk", 5, "--m", 4,
            "--out", tmp_path / "s",
        )
        assert code == EXIT_OK
        capsys.readouterr()
        config = tmp_path / "config.yaml"
        config.write_text("scenario: one_class\n")
        assert run_cli("experiment", "--config", config) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: CONFSET_WORKERS must be an integer, got 'abc'\n"

    @pytest.mark.parametrize(
        "flag, env, message",
        [
            (("--workers", 0), None, "--workers must be a positive integer, got 0"),
            (("--workers", -2), None, "--workers must be a positive integer, got -2"),
            ((), "0", "CONFSET_WORKERS must be a positive integer, got 0"),
        ],
    )
    def test_nonpositive_workers_is_usage_error(
        self, tmp_path, capsys, monkeypatch, flag, env, message
    ):
        if env is not None:
            monkeypatch.setenv("CONFSET_WORKERS", env)
        config = tmp_path / "config.yaml"
        config.write_text(f"scenario: one_class\nout_dir: {tmp_path / 'out'}\n")
        assert run_cli("experiment", "--config", config, *flag) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestValidate:
    def test_single_cheap_check(self, capsys):
        code = run_cli("validate", "--check", "scw", "--trials", 2000)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("[PASS] scw")
        assert "all 1 checks passed" in out

    def test_comma_separated_checks(self, capsys):
        code = run_cli(
            "validate", "--check", "scw,construction", "--trials", 20000
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] scw" in out and "[PASS] construction" in out
        assert "all 2 checks passed" in out

    def test_coverage_at_half_alpha(self, capsys):
        # alpha = 0.5 still yields >= 1 - alpha coverage
        code = run_cli(
            "validate", "--check", "coverage", "--alpha", 0.5,
            "--nk", 200, "--draws", 400, "--p", 20,
        )
        assert code == EXIT_OK
        assert "coverage 0." in capsys.readouterr().out

    def test_flags_set_the_check_parameters_of_their_names(self, capsys):
        assert run_cli(
            "validate", "--check", "coverage", "--draws", 300, "--nk", 50, "--p", 20
        ) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        expected = check_oracle_coverage(draws=300, n_k=50, p=20).line()
        untimed = re.compile(r" \(\d+\.\ds\)")
        assert untimed.sub("", line) == untimed.sub("", expected)

    def test_unknown_check_is_data_error(self, capsys):
        assert run_cli("validate", "--check", "bogus") == EXIT_DATA
        assert "bogus" in capsys.readouterr().err

    def test_failing_check_is_exit_4(self, capsys):
        # inject a stub check; cli and validation share the registry object
        def always_fails(seed=0):
            return CheckResult(
                name="stub", passed=False, details="forced", elapsed_s=0.0
            )

        CHECKS["stub"] = always_fails
        try:
            code = run_cli("validate", "--check", "stub")
        finally:
            del CHECKS["stub"]
        assert code == EXIT_CHECK
        captured = capsys.readouterr()
        assert "[FAIL] stub" in captured.out
        assert "1 check(s) failed: stub" in captured.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--check", "coverage", "--draws", 0), "--draws"),
            (("--check", "super_uniformity", "--draws", 0), "--draws"),
            (("--check", "deviation", "--draws", -3), "--draws"),
            (("--check", "construction", "--trials", 0), "--trials"),
            (("--check", "scw", "--trials", 0), "--trials"),
            (("--check", "cw_fdr", "--replicates", 0), "--replicates"),
            (("--check", "cw_fdr", "--test-sets", 0), "--test-sets"),
            (("--check", "coverage", "--alpha", 1.5), "--alpha"),
            (("--check", "coverage", "--alpha", 0), "--alpha"),
            (("--check", "coverage", "--alpha", "nan"), "--alpha"),
            (("--check", "scw", "--seed", -1), "--seed"),
        ],
    )
    def test_bad_count_or_level_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli("validate", *argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: " in captured.err
        assert "Traceback" not in captured.err

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def clean_files(tmp_path_factory):
    """A small simulated train/test pair and the sets predicted for it."""
    root = tmp_path_factory.mktemp("clean")
    with contextlib.redirect_stdout(io.StringIO()):
        run_cli(
            "simulate", "--scenario", "one", "--p", 3, "--nk", 8, "--m", 6,
            "--seed", 2, "--out", root / "sim",
        )
        run_cli(
            "predict", "--train", root / "sim_train.csv", "--test", root / "sim_test.csv",
            "--out", root / "pred",
        )
    return root


# (command, the file to break, the column that is not a feature)
TARGETS = [("predict", "train", "label"), ("predict", "test", "truth"), ("evaluate", "test", "truth")]


@st.composite
def malformed(draw, lines, command, target):
    """The lines of a CSV broken in a way its reader must report."""
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    kinds = ["empty", "header only", "duplicate header", "missing column", "short row", "long row"]
    if command == "predict":
        kinds.append("feature cell")
    if command == "evaluate" or target == "train":
        kinds.append("tag cell")
    if command == "evaluate":
        kinds += ["extra row", "missing row"]
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "empty":
        return []
    if kind == "header only":
        return lines[:1]
    if kind == "duplicate header":
        header[0] = header[1]
    elif kind == "missing column":
        header[-1] = "other"
    elif kind == "short row":
        del rows[i][draw(st.integers(0, len(header) - 1))]
    elif kind == "long row":
        rows[i].append("0")
    elif kind == "feature cell":
        rows[i][draw(st.integers(0, len(header) - 2))] = draw(
            st.sampled_from(["bad", "", "0x1", "nan", "-inf", "1e999"])
        )
    elif kind == "tag cell":
        # a one-row class for training; not an integer in 1..K+1 for evaluate
        rows[i][-1] = draw(st.sampled_from(["x", "1.5", "", "0", "99"]))
    elif kind == "extra row":
        rows.append(rows[i])
    else:
        del rows[i]
    return [",".join(header)] + [",".join(row) for row in rows]


@given(data=st.data(), target=st.sampled_from(TARGETS))
def test_malformed_csv_exits_3_with_one_line(clean_files, data, target):
    command, which, _ = target
    root = clean_files
    lines = (root / f"sim_{which}.csv").read_text().splitlines()
    broken = root / "broken.csv"
    broken.write_text("".join(f"{line}\n" for line in data.draw(malformed(lines, command, which))))
    files = {"train": root / "sim_train.csv", "test": root / "sim_test.csv", which: broken}
    if command == "predict":
        argv = ["predict", "--train", files["train"], "--test", files["test"],
                "--truth-column", "truth", "--out", root / "x"]
    else:
        argv = ["evaluate", "--sets", root / "pred_sets.csv", "--test", files["test"],
                "--n-classes", 1]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    assert code == EXIT_DATA
    assert err.getvalue().startswith("error: ")
    assert len(err.getvalue().splitlines()) == 1
