"""Command-line interface, driven in-process through main(argv)."""

import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import confset

from confset import (
    PREDICTORS,
    SCENARIOS,
    LabeledDataset,
    TestBatch,
    evaluate_sets,
    fit_model,
    load_csv,
    predict,
    read_batch_csv,
    read_results,
    read_sets_csv,
    read_truth_csv,
    write_batch_csv,
    write_dataset_csv,
    write_pvalues_csv,
)
from confset.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_PIPE, EXIT_USAGE, main
from confset.experiment import _YAML12_FLOAT
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

        data, _, _ = load_csv(f"{prefix}_train.csv", "label")
        assert data.n == 800 and data.n_classes == 4 and data.n_features == 200
        batch = read_batch_csv(f"{prefix}_test.csv", truth_column="truth")
        assert batch.m == 1000 and batch.n_features == 200
        assert int(np.sum(read_truth_csv(f"{prefix}_test.csv", "truth") == 5)) == 250

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

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize(
        "flags, design",
        [([], {}), (["--nk", 7, "--seed", 3, "--atom-seed", 4], dict(n_k=7, run_seed=3, atom_seed=4))],
    )
    def test_design_flags_reach_the_maker_by_name(
        self, tmp_path, monkeypatch, scenario, flags, design
    ):
        """An omitted design flag is not passed, so the field keeps
        ``ScenarioConfig``'s default; a given one is passed by its field name."""
        make, calls = SCENARIOS[scenario], []

        def spy(**kwargs):
            calls.append(kwargs)
            return replace(make(**kwargs), p=3, m=4)  # small files

        monkeypatch.setitem(SCENARIOS, scenario, spy)
        code = run_cli("simulate", "--scenario", scenario, *flags, "--out", tmp_path / "x")
        assert code == EXIT_OK
        assert calls == [design]

    def test_overflowing_inlier_ratio_leaves_no_outlier(self, tmp_path, capsys):
        # m * 1e308 overflows to inf; every test slot is then an inlier
        code = run_cli(
            "simulate", "--p", 3, "--nk", 5, "--m", 4, "--inlier-ratio", "1e308",
            "--out", tmp_path / "s",
        )
        assert code == EXIT_OK
        assert "test batch: 4 rows (4 inliers, 0 outliers)" in capsys.readouterr().out


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
        src = Path(f"{simulated}_test.csv").read_text().splitlines()
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
        # a usage error found before any file is read: the training file is missing
        code = run_cli(
            "predict", "--train", tmp_path / "missing.csv",
            "--test", f"{simulated}_test.csv", "--mode", "oracle",
            "--out", tmp_path / "x",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: --mode oracle needs --oracle-params\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--oracle-params", "o.json"], "--oracle-params needs --mode oracle"),
            (["--mode", "oracle"], "--mode oracle needs --oracle-params"),
            (
                ["--mode", "oracle", "--oracle-params", "o.json",
                 "--variance-floor", "0.1"],
                "--variance-floor has no effect with --mode oracle",
            ),
        ],
        ids=[
            "params_without_oracle_mode",
            "oracle_mode_without_params",
            "floor_with_oracle_mode",
        ],
    )
    def test_ignored_flag_is_usage_error(self, simulated, tmp_path, capsys, flags, message):
        code = run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", *flags, "--out", tmp_path / "x",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x_pvalues.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, need",
        [
            ("--alpha", "2", "in (0, 1)"),
            ("--alpha", "nan", "in (0, 1)"),
            ("--variance-floor", "nan", "finite and positive"),
            ("--variance-floor", "inf", "finite and positive"),
            ("--variance-floor", "0", "finite and positive"),
        ],
    )
    def test_bad_level_or_floor_is_usage_error(self, tmp_path, capsys, flag, value, need):
        # neither file exists, so the usage error comes before any file is read
        absent = tmp_path / "absent.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", "--train", absent, "--test", absent, flag, value,
                    "--out", tmp_path / "x")
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be {need}, got {value}" in err

    @pytest.mark.parametrize("n_k, noted", [(20, True), (38, True), (39, False)])
    def test_bh_floor_is_a_note_per_class(self, tmp_path, capsys, n_k, noted):
        """Below n_k = 39 at alpha = 0.05, floor((n_k+1) alpha) = 1: BH drops a
        class from no set or from all m, so even with known moments every set
        is the full label set, and each class is named by a note."""
        prefix = tmp_path / "small"
        run_cli(
            "simulate", "--scenario", "multi", "--p", 5, "--nk", n_k,
            "--m", 40, "--seed", 2, "--out", prefix,
        )
        capsys.readouterr()
        code = run_cli(
            "predict", "--train", f"{prefix}_train.csv",
            "--test", f"{prefix}_test.csv", "--truth-column", "truth",
            "--mode", "oracle", "--oracle-params", f"{prefix}_oracle.json",
            "--out", tmp_path / "orc",
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        notes = [line for line in out if line.startswith("note:")]
        assert notes == [
            f"note: class {k} (n_k={n_k}) is dropped from no set or from all 40 "
            "at alpha=0.05; dropping fewer needs n_k >= 39"
            for k in range(1, 5)
        ] * noted
        if noted:
            assert np.all(read_sets_csv(tmp_path / "orc_sets.csv", 4).sizes == 4)

    def test_alpha_too_small_for_a_float_bound_still_notes(self, tmp_path, capsys):
        """At alpha = 1e-308, 2 / alpha overflows a float; each class's note
        names the exact bound, ceil(2 / alpha) - 1 on the decimal 1e-308, and
        nothing fails."""
        prefix = tmp_path / "small"
        run_cli("simulate", "--scenario", "multi", "--p", 5, "--nk", 20, "--m", 10, "--out", prefix)
        capsys.readouterr()
        code = run_cli(
            "predict", "--train", f"{prefix}_train.csv", "--test", f"{prefix}_test.csv",
            "--truth-column", "truth", "--alpha", "1e-308", "--out", tmp_path / "o",
        )
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, "")
        bound = math.ceil(Fraction(2) / Fraction(repr(1e-308))) - 1
        notes = [line for line in out.splitlines() if line.startswith("note:")]
        assert notes == [
            f"note: class {k} (n_k=20) is dropped from no set or from all 10 "
            f"at alpha=1e-308; dropping fewer needs n_k >= {bound}"
            for k in range(1, 5)
        ]
        assert (tmp_path / "o_thresholds.csv").exists()

    def test_truth_beyond_int64_is_one_line(self, simulated, tmp_path, capsys):
        test = tmp_path / "huge_test.csv"
        head, first, *rows = Path(f"{simulated}_test.csv").read_text().splitlines(keepends=True)
        test.write_text("".join([head, first[: first.rindex(",") + 1] + "1" + "0" * 29 + "\n", *rows]))
        run_cli(
            "predict", "--train", f"{simulated}_train.csv", "--test", test,
            "--truth-column", "truth", "--out", tmp_path / "o",
        )
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--sets", tmp_path / "o_sets.csv", "--test", test, "--n-classes", 1,
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {test}: non-int64 cell '1{'0' * 29}' at line 2, column 'truth'\n"
        )

    def test_variance_floor_reaches_the_fit(self, tmp_path):
        rng = np.random.default_rng(0)
        # class 1's first column has a variance near 1e-4, under the floor;
        # every other class column's is near 4, above it
        features = 2.0 * rng.standard_normal((60, 3))
        features[:30, 0] *= 0.005
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        data = LabeledDataset(features, np.repeat([1, 2], 30))
        batch = TestBatch(rng.standard_normal((20, 3)))
        write_dataset_csv(train, data)
        write_batch_csv(test, batch)
        for name, flags in (("floored", ["--variance-floor", 0.5]), ("plain", [])):
            code = run_cli(
                "predict", "--train", train, "--test", test, "--alpha", 0.1,
                *flags, "--out", tmp_path / name,
            )
            assert code == EXIT_OK
        pvals, _ = predict(data, batch, 0.1, oracle=fit_model(data, 0.5))
        write_pvalues_csv(tmp_path / "library_pvalues.csv", pvals)
        text = {
            name: (tmp_path / f"{name}_pvalues.csv").read_text()
            for name in ("floored", "plain", "library")
        }
        assert text["floored"] == text["library"]
        floored, plain = (
            list(csv.DictReader(text[name].splitlines())) for name in ("floored", "plain")
        )
        # the floor moves class 1's p-values and leaves class 2's alone
        assert [r["raw_1"] for r in floored] != [r["raw_1"] for r in plain]
        assert [r["raw_2"] for r in floored] == [r["raw_2"] for r in plain]

    def test_names_the_label_of_each_class(self, tmp_path, capsys):
        # ids go by first appearance in the training file; the string truth
        # column of the test file is left out and never parsed
        gen = np.random.default_rng(4)
        labels = ["dog"] * 6 + ["cat"] * 6 + ["odd"] * 2
        train = tmp_path / "train.csv"
        points = gen.normal(size=(len(labels), 2)).tolist()
        train.write_text("x1,species,x2\n" + "".join(
            f"{x!r},{label},{y!r}\n" for label, (x, y) in zip(labels, points)
        ))
        test = tmp_path / "test.csv"
        test.write_text("x1,x2,kind\n0.1,0.2,cat\n0.3,-0.4,not a label\n")
        code = run_cli(
            "predict", "--train", train, "--label-column", "species",
            "--outlier-label", "odd", "--test", test, "--truth-column", "kind",
            "--out", tmp_path / "pets",
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "note: 2 rows labeled 'odd' excluded from fitting"
        assert "classes: 1=dog, 2=cat" in out
        assert read_sets_csv(tmp_path / "pets_sets.csv", n_classes=2).m == 2

    def test_oracle_shape_mismatch(self, simulated, tmp_path, capsys):
        other = tmp_path / "other"
        run_cli(
            "simulate", "--scenario", "multi", "--p", 30, "--nk", 10,
            "--m", 8, "--out", other,
        )
        code = run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--mode", "oracle", "--oracle-params", f"{other}_oracle.json",
            "--out", tmp_path / "x",
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
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--mode", "oracle", "--oracle-params", params, "--out", tmp_path / "x",
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

    @pytest.mark.parametrize(
        "header, truth, message",
        [
            ("b,a", None, "column 1 is 'b', training feature 1 is 'a'"),
            (
                "a,b,truth", None,
                "column 'truth' is not a training feature "
                "(if it holds the truth, name it with --truth-column)",
            ),
            ("a", None, "missing training feature 'b'"),
            ("a,kind", "kind", "missing training feature 'b'"),
        ],
        ids=["swapped", "extra", "missing", "missing_beside_truth"],
    )
    def test_test_columns_must_name_the_training_features(
        self, tmp_path, capsys, header, truth, message
    ):
        # the label sits between the features; the test columns go by name
        train = tmp_path / "train.csv"
        train.write_text("a,label,b\n0,x,1\n1,x,0\n2,x,2\n")
        test = tmp_path / "test.csv"
        test.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
        argv = ["--truth-column", truth] if truth else []
        code = run_cli(
            "predict", "--train", train, "--test", test, *argv, "--out", tmp_path / "x",
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {test}: {message}\n"
        assert not (tmp_path / "x_pvalues.csv").exists()

    def test_latin1_training_file_is_data_error(self, tmp_path, capsys):
        # the label 'b\xe9' as a spreadsheet saves it in latin-1, one byte 0xe9
        train = tmp_path / "train.csv"
        train.write_bytes(b"x1,label\n0.0,b\xe9\n1.0,b\xe9\n2.0,b\xe9\n")
        test = tmp_path / "test.csv"
        test.write_text("x1\n1.0\n")
        code = run_cli("predict", "--train", train, "--test", test, "--out", tmp_path / "x")
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: {train}: not UTF-8 text: invalid continuation byte\n"

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

    @pytest.mark.parametrize(
        "big, mode, message",
        [
            (
                "train", "empirical",
                "class 2 variance overflows in feature column 1; rescale the column",
            ),
            (
                "test", "empirical",
                "test row 1 overflows its score against class 1; rescale the features",
            ),
            (
                "test", "oracle",
                "test row 1 overflows its score against class 1; rescale the features",
            ),
            (
                "train", "oracle",
                "training row 1 of class 2 overflows its score; rescale the features",
            ),
        ],
    )
    def test_overflowing_feature_is_one_line(self, tmp_path, capsys, big, mode, message):
        # every value is finite, but its square is not: the fit of class 2
        # in column x2, the score of its training row 1 under known moments,
        # or the score of test row 1, overflows
        train = tmp_path / "train.csv"
        x2 = ["0.0", "1.0", "2.0", "3.0", "1e200" if big == "train" else "4.0", "5.0"]
        train.write_text(
            "x1,x2,label\n"
            + "".join(f"{i}.0,{v},{'ab'[i // 3]}\n" for i, v in enumerate(x2))
        )
        test = tmp_path / "test.csv"
        test.write_text(f"x1,x2\n1.0,1.0\n{'1e300' if big == 'test' else '2.0'},1.0\n")
        argv = []
        if mode == "oracle":
            oracle = tmp_path / "oracle.json"
            oracle.write_text(json.dumps(
                {"kind": "ClassModel", "means": [[1, 1], [4, 4]], "variances": [[1, 1], [1, 1]]}
            ))
            argv = ["--mode", "oracle", "--oracle-params", oracle]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            code = run_cli(
                "predict", "--train", train, "--test", test, *argv, "--out", tmp_path / "x",
            )
        assert code == EXIT_DATA
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        # the class ids of the error line, printed before the fit
        assert out.splitlines()[-1] == "classes: 1=a, 2=b"

    def test_unscorable_known_variance_is_one_line(self, tmp_path, capsys):
        # 1 / 1e-320 overflows, so no point could be scored against class 1
        oracle = tmp_path / "oracle.json"
        oracle.write_text(json.dumps(
            {"kind": "ClassModel", "means": [[0.0] * 3], "variances": [[1e-320, 1.0, 1.0]]}
        ))
        train = tmp_path / "train.csv"
        train.write_text("x1,x2,x3,label\n" + "".join(f"{i}.0,1.0,{i}.5,a\n" for i in range(4)))
        test = tmp_path / "test.csv"
        test.write_text("x1,x2,x3\n0.0,0.0,0.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "predict", "--train", train, "--test", test,
                "--mode", "oracle", "--oracle-params", oracle, "--out", tmp_path / "x",
            )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {oracle}: class variances must exceed 1/max float, or their "
            "reciprocals overflow: class 1 has 1e-320 in feature column 0\n"
        )

    @pytest.mark.parametrize("role", ["train", "test"])
    def test_non_finite_cell_names_its_line(self, tmp_path, capsys, role):
        rows = ["1.0,2.0", "2.0,1.0", "3.0,0.5", "4.0,nan", "0.0,1.0"]
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text("x1,x2,label\n" + "".join(
            f"{r if role == 'train' else r.replace('nan', '9.0')},a\n" for r in rows
        ))
        test.write_text("x1,x2\n" + "".join(
            f"{r if role == 'test' else r.replace('nan', '9.0')}\n" for r in rows
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("predict", "--train", train, "--test", test, "--out", tmp_path / "x")
        assert code == EXIT_DATA
        path = train if role == "train" else test
        assert capsys.readouterr().err == (
            f"error: {path}: non-finite cell 'nan' at line 5, column 'x2'\n"
        )

    @pytest.mark.parametrize("labels", ["aaab", "baaa"])
    def test_short_class_is_named_by_its_label(self, tmp_path, capsys, labels):
        train = tmp_path / "train.csv"
        train.write_text("x1,label\n" + "".join(f"{i}.0,{c}\n" for i, c in enumerate(labels)))
        test = tmp_path / "test.csv"
        test.write_text("x1\n0.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("predict", "--train", train, "--test", test, "--out", tmp_path / "x")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {train}: label 'b' has 1 row; every class needs >= 3\n"
        )


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
        want = evaluate_sets(sets, read_truth_csv(f"{simulated}_test.csv", "truth"))
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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_out_is_one_line(self, simulated, tmp_path, capsys):
        run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--out", tmp_path / "pred",
        )
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--sets", tmp_path / "pred_sets.csv",
            "--test", f"{simulated}_test.csv", "--n-classes", 1, "--out", "/dev/full",
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /dev/full: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name", ["r.txt", "r.TXT"])
    def test_text_named_out_is_data_error(self, simulated, tmp_path, capsys, name):
        # the text table goes beside the CSV as .txt, which would overwrite it
        run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--out", tmp_path / "pred",
        )
        capsys.readouterr()
        out = tmp_path / name
        code = run_cli(
            "evaluate", "--sets", tmp_path / "pred_sets.csv",
            "--test", f"{simulated}_test.csv", "--n-classes", 1, "--out", out,
        )
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {out}: a results table cannot be a .txt file; "
            "its text rendering goes there\n"
        )
        assert not out.exists() and not (tmp_path / "r.txt").exists()

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

    @pytest.mark.parametrize(
        "index, size, message",
        [
            ("7", "3", "line 2: index '7', expected 0"),
            (None, "3", "line 2: size '3', but the set has "),
        ],
        ids=["index and size", "size"],
    )
    def test_rewritten_index_or_size_is_data_error(
        self, simulated, tmp_path, capsys, index, size, message
    ):
        run_cli(
            "predict", "--train", f"{simulated}_train.csv",
            "--test", f"{simulated}_test.csv", "--truth-column", "truth",
            "--out", tmp_path / "pred",
        )
        lines = (tmp_path / "pred_sets.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        bad = tmp_path / "bad_sets.csv"
        bad.write_text("\n".join(
            [lines[0]] + [f"{index or i},{size},{labels}" for i, _, labels in rows]
        ) + "\n")
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--sets", bad,
            "--test", f"{simulated}_test.csv", "--n-classes", 1,
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")
        assert len(err.splitlines()) == 1


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


def _child_env() -> dict:
    """The environment of a child interpreter that imports this confset."""
    src = str(Path(confset.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return dict(os.environ, PYTHONPATH=path)


class TestStartup:
    def test_import_skips_yaml_and_process_pool(self):
        # Only `experiment` needs them; every other command would pay their
        # import time at start-up.
        code = (
            "import sys, confset.cli; "
            "print(sorted({'yaml', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout == "[]\n"


class TestBrokenPipe:
    def test_closed_stdout_exits_1_without_traceback(self):
        # the read end is closed before the command starts, so its first
        # write to stdout fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [
                    sys.executable, "-m", "confset.cli", "validate", "--check", "coverage",
                    "--draws", "50", "--p", "5", "--nk", "20",
                ],
                env=_child_env(),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_PIPE
        assert done.stderr == ""


# Too large to allocate, and too long to index.
OVERSIZED = [
    (dict(p=1000, n_k=10**14, m=1), f"{4 * 10**14} rows x 1000 features"),
    (dict(p=5, n_k=5, m=10**20), f"{10**20} rows x 5 features"),
]


def _cap_address_space():
    # 1 GiB: room for Python, numpy and a process pool, none for a design
    # that a regression would start to fill
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_child(cwd, *argv):
    """Exit code, stderr and peak RSS in MiB of ``confset argv`` run as a
    child process, its own worker processes included."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "confset.cli", *map(str, argv)],
        cwd=cwd, env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        preexec_fn=_cap_address_space,
    )
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err, usage.ru_maxrss / 1024


class TestOversizedDesign:
    """A design too large to allocate is one data error line, raised
    before the block is allocated and before a file is written."""

    @pytest.mark.parametrize("design, block", OVERSIZED)
    def test_simulate(self, tmp_path, design, block):
        flags = [a for name, v in design.items() for a in (f"--{name.replace('_', '')}", v)]
        code, err, peak_mib = _run_child(tmp_path, "simulate", *flags, "--out", "big")
        assert (code, err) == (EXIT_DATA, f"error: cannot allocate {block}\n")
        assert peak_mib < 256
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "design, block",
        [(dict(d, p=[d["p"]], n_k=[d["n_k"]]), block) for d, block in OVERSIZED]
        # a two-cell grid: the first cell runs, the second is oversized
        + [(dict(p=[1000], n_k=[10, 10**14], m=1), OVERSIZED[0][1])],
    )
    def test_experiment(self, tmp_path, design, block, workers):
        text = "".join(f"{k}: {v}\n" for k, v in design.items())
        (tmp_path / "c.yaml").write_text(f"scenario: multi_class\n{text}replicates: 2\nout_dir: out\n")
        code, err, peak_mib = _run_child(tmp_path, "experiment", "--config", "c.yaml", "--workers", workers)
        assert (code, err) == (EXIT_DATA, f"error: cannot allocate {block}\n")
        assert peak_mib < 256
        # every cell is computed before out_dir is made
        assert [f.name for f in tmp_path.iterdir()] == ["c.yaml"]


    def test_evaluate_with_too_many_classes(self, tmp_path):
        """The (m, K) mask of the sets is allocated once, under the cap, so
        10 rows x 10**9 classes is one data error line, not a per-row list."""
        (tmp_path / "s.csv").write_text(
            "index,size,labels\n" + "".join(f"{i},1,1\n" for i in range(10))
        )
        (tmp_path / "t.csv").write_text("truth\n" + "1\n" * 10)
        code, err, peak_mib = _run_child(
            tmp_path, "evaluate", "--sets", "s.csv", "--test", "t.csv", "--n-classes", 10**9
        )
        assert (code, err) == (EXIT_DATA, f"error: cannot allocate 10 rows x {10**9} classes\n")
        assert peak_mib < 256


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

    def test_mode_is_read_from_the_config(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(
            "scenario: one_class\np: [5]\nn_k: [10]\nm: 8\n"
            "replicates: 2\ntest_sets: 1\nmode: [empirical, oracle]\n"
            f"out_dir: {tmp_path / 'out'}\n"
        )
        code = run_cli("experiment", "--config", config)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "_empirical ==" in out and "_oracle ==" in out
        # the config's mode: key is the one source; no flag overrides it
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "--config", config, "--mode", "oracle")
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --mode oracle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, got",
        [
            ("mode: []", "[]"),
            ("mode: both", "['both']"),
            ("mode: [oracle, empirical, oracle]", "['oracle', 'empirical', 'oracle']"),
        ],
        ids=["empty", "unknown", "repeated"],
    )
    def test_bad_mode_names_the_predictors_before_output(self, tmp_path, capsys, line, got):
        config, out_dir = tmp_path / "config.yaml", tmp_path / "out"
        config.write_text(f"scenario: multi_class\nout_dir: {out_dir}\n{line}\n")
        assert run_cli("experiment", "--config", config) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {config}: mode must name distinct predictors of "
            f"['empirical', 'oracle'], got {got}\n"
        )
        assert not out_dir.exists()

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
            # two cells of one results name, which gives rho with :g
            (
                "p: [5, 5]",
                "grid cells (5, 500, 0.0) and (5, 500, 0.0) share the results name "
                "'multi_class_p5_nk500_rho0'",
            ),
            (
                "rho: [0.3, 0.3000001]",
                "grid cells (500, 500, 0.3) and (500, 500, 0.3000001) share the "
                "results name 'multi_class_p500_nk500_rho0.3'",
            ),
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

    @pytest.mark.parametrize(
        "fraction, message",
        [
            (0.99, "split leaves no test rows; lower the fraction"),
            (0.1, "class 1 would train on 2 rows; needs >= 3"),
        ],
    )
    def test_csv_split_that_cannot_be_made_writes_nothing(
        self, tmp_path, capsys, fraction, message
    ):
        run_cli(
            "simulate", "--scenario", "one", "--p", 5, "--nk", 20, "--m", 30,
            "--seed", 1, "--out", tmp_path / "ci",
        )
        config = tmp_path / "config.yaml"
        out_dir = tmp_path / "out"
        config.write_text(
            f"scenario: csv\ncsv_path: {tmp_path / 'ci_train.csv'}\nlabel_column: label\n"
            f"train_fraction: {fraction}\nreplicates: 2\nout_dir: {out_dir}\n"
        )
        capsys.readouterr()
        assert run_cli("experiment", "--config", config) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_csv_zero_variance_column_writes_nothing(self, tmp_path, workers):
        # the error is raised in a worker process at --workers 2 and must
        # come back as the same one line
        rows = [f"{i},5,a" for i in range(10)] + [f"{i},{i * i},b" for i in range(10)]
        (tmp_path / "flat.csv").write_text("x1,x2,label\n" + "\n".join(rows) + "\n")
        (tmp_path / "c.yaml").write_text(
            "scenario: csv\ncsv_path: flat.csv\nlabel_column: label\nreplicates: 2\nout_dir: out\n"
        )
        code, err, _ = _run_child(tmp_path, "experiment", "--config", "c.yaml", "--workers", workers)
        message = "class 1 has zero variance in feature column 1; drop the column or enable a variance floor"
        assert (code, err) == (EXIT_DATA, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line", ["atom_seed: -1", "m: -5", "inlier_ratio: -2", "alpha: 1.5"]
    )
    def test_csv_config_fields_are_checked_as_simulated(self, tmp_path, capsys, line):
        out_dir = tmp_path / "out"
        simulated = tmp_path / "simulated.yaml"
        simulated.write_text(f"scenario: multi_class\nout_dir: {out_dir}\n{line}\n")
        assert run_cli("experiment", "--config", simulated) == EXIT_DATA
        expected = capsys.readouterr().err.replace(str(simulated), "CONFIG")
        from_csv = tmp_path / "csv.yaml"
        from_csv.write_text(
            "scenario: csv\ncsv_path: data.csv\nlabel_column: y\n"
            f"out_dir: {out_dir}\n{line}\n"
        )
        assert run_cli("experiment", "--config", from_csv) == EXIT_DATA
        assert capsys.readouterr().err.replace(str(from_csv), "CONFIG") == expected
        assert not out_dir.exists()

    def test_uncreatable_out_dir_is_data_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        config = tmp_path / "config.yaml"
        config.write_text(
            "scenario: multi_class\np: [3]\nn_k: [5]\nm: 8\n"
            f"replicates: 1\ntest_sets: 1\nout_dir: {blocker / 'out'}\n"
        )
        assert run_cli("experiment", "--config", config) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot create {blocker / 'out'}: ")
        assert len(captured.err.splitlines()) == 1

    def test_overflowing_inlier_ratio_runs_without_outliers(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(
            "scenario: one_class\np: [3]\nn_k: [5]\nm: 4\ninlier_ratio: 1.0e+308\n"
            f"replicates: 1\ntest_sets: 1\nout_dir: {tmp_path / 'out'}\n"
        )
        assert run_cli("experiment", "--config", config) == EXIT_OK
        table = read_results(tmp_path / "out" / "one_class_p3_nk5_rho0_empirical.csv")
        assert table["power"] == (0.0, 0.0)  # no outlier to catch

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_is_usage_error(self, tmp_path, capsys, workers):
        config = tmp_path / "config.yaml"
        config.write_text(f"scenario: one_class\nout_dir: {tmp_path / 'out'}\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "--config", config, "--workers", workers)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"error: argument --workers: must be a positive integer, got {workers}\n"
        assert captured.err.endswith(message)
        assert not (tmp_path / "out").exists()


# a coverage or super-uniformity check small enough for a unit test
SMALL_CHECK = ("--draws", 50, "--p", 5, "--nk", 20)


class TestValidate:
    def test_single_cheap_check(self, capsys):
        code = run_cli("validate", "--check", "coverage", *SMALL_CHECK)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("[PASS] coverage")
        assert "all 1 checks passed" in out

    def test_comma_separated_checks(self, capsys):
        code = run_cli("validate", "--check", "super_uniformity,coverage", *SMALL_CHECK)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] super_uniformity" in out and "[PASS] coverage" in out
        assert "all 2 checks passed" in out
        # a space after the comma, as typed in a shell or a CI variable
        code = run_cli("validate", "--check", "super_uniformity, coverage", *SMALL_CHECK)
        assert code == EXIT_OK
        # the same lines, less the seconds each check took
        seconds = re.compile(r"\(\d+\.\ds\)")
        assert seconds.sub("", capsys.readouterr().out) == seconds.sub("", out)

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
        # scw, construction and bh are identities that tier-1 tests assert
        # (tests/test_acceptance.py, targets 5, 6 and 9), not checks
        for name in ("bogus", "scw", "construction", "bh"):
            assert run_cli("validate", "--check", name) == EXIT_DATA
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: unknown checks ['{name}']; available: {sorted(CHECKS)}\n"
            )

    def test_flag_no_named_check_takes_is_data_error(self, capsys):
        code = run_cli("validate", "--check", "cw_fdr", "--alpha", 0.3, "--draws", 5)
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no check of ['cw_fdr'] takes ['draws']\n"

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
            (("--check", "coverage", "--draws", "two"), "--draws"),
            (("--check", "set_size", "--seed", 1.5), "--seed"),
            (("--check", "cw_fdr", "--replicates", 0), "--replicates"),
            (("--check", "cw_fdr", "--test-sets", 0), "--test-sets"),
            (("--check", "coverage", "--alpha", 1.5), "--alpha"),
            (("--check", "coverage", "--alpha", 0), "--alpha"),
            (("--check", "coverage", "--alpha", "nan"), "--alpha"),
            (("--check", "coverage", "--seed", -1), "--seed"),
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

    @pytest.mark.parametrize("names", ["", ",", ",,", " , "])
    def test_empty_check_list_is_usage_error(self, capsys, names):
        # an empty CI variable must not pass as "all 0 checks passed"
        assert run_cli("validate", "--check", names) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --check names no check\n"

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("predict", "--train", "t.csv", "--test", "t.csv", "--out", "x", "--alpha", "abc"),
         "argument --alpha: invalid float value: 'abc'"),
        (("experiment", "--config", "c.yaml", "--workers", "two"),
         "argument --workers: invalid int value: 'two'"),
    ],
    ids=["float", "int"],
)
def test_unparsable_number_is_one_usage_error(capsys, argv, message):
    # no file is read, so the named files need not exist
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")
    assert "Traceback" not in captured.err


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
            "--truth-column", "truth", "--out", root / "pred",
        )
    assert (root / "pred_sets.csv").exists()
    return root


def _exits_3_with_one_line(*argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    assert code == EXIT_DATA, err.getvalue()
    assert err.getvalue().startswith("error: ")
    assert len(err.getvalue().splitlines()) == 1


# (command, the file to break, the column that is not a feature)
TARGETS = [("predict", "train", "label"), ("predict", "test", "truth"), ("evaluate", "test", "truth")]


@st.composite
def malformed(draw, lines, command, target):
    """The bytes of a CSV broken in a way its reader must report."""
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    kinds = ["empty", "header only", "duplicate header", "missing column", "short row",
             "long row", "not utf-8", "oversized cell"]
    if command == "predict":
        kinds.append("feature cell")
    if command == "evaluate" or target == "train":
        kinds.append("tag cell")
    if command == "evaluate":
        kinds += ["extra row", "missing row"]
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "empty":
        return b""
    if kind == "header only":
        return f"{lines[0]}\n".encode()
    if kind == "duplicate header":
        header[0] = header[1]
    elif kind == "missing column":
        header[-1] = "other"
    elif kind == "short row":
        del rows[i][draw(st.integers(0, len(header) - 1))]
    elif kind == "long row":
        rows[i].append("0")
    elif kind == "not utf-8":
        # a cell as latin-1 writes it: 0xe9 is no UTF-8 sequence
        rows[i][draw(st.integers(0, len(header) - 1))] = "b\xe9"
    elif kind == "oversized cell":
        rows[i][draw(st.integers(0, len(header) - 1))] = "1" * (csv.field_size_limit() + 1)
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
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return "".join(f"{line}\n" for line in lines).encode("latin-1")


@given(data=st.data(), target=st.sampled_from(TARGETS))
def test_malformed_csv_exits_3_with_one_line(clean_files, data, target):
    command, which, _ = target
    root = clean_files
    lines = (root / f"sim_{which}.csv").read_text().splitlines()
    broken = root / "broken.csv"
    broken.write_bytes(data.draw(malformed(lines, command, which)))
    files = {"train": root / "sim_train.csv", "test": root / "sim_test.csv", which: broken}
    if command == "predict":
        argv = ["predict", "--train", files["train"], "--test", files["test"],
                "--truth-column", "truth", "--out", root / "x"]
    else:
        argv = ["evaluate", "--sets", root / "pred_sets.csv", "--test", files["test"],
                "--n-classes", 1]
    _exits_3_with_one_line(*argv)


@st.composite
def malformed_sets(draw, lines):
    """The lines of a one-class sets CSV broken in a way evaluate must report."""
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    kinds = ["empty", "header only", "foreign header", "short row", "long row",
             "index", "size", "labels", "extra row", "missing row"]
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, len(rows) - 1))
    cell = st.sampled_from(["", " ", "x", "1.0", "-1", "2", "10"])
    if kind == "empty":
        return []
    if kind == "header only":
        return lines[:1]
    if kind == "foreign header":
        header = draw(st.sampled_from(
            ["index,size,label", "size,index,labels", "a,b,c", "index,size,labels,x"]
        ))
    elif kind == "short row":
        del rows[i][draw(st.integers(0, 2))]
    elif kind == "long row":
        rows[i].append(draw(cell))
    elif kind == "index":
        rows[i][0] = draw(cell.filter(lambda v: v.strip() != str(i)))
    elif kind == "size":
        # with one class the labels cell is "" or "1", so its length is the size
        rows[i][1] = draw(cell.filter(lambda v: v.strip() != str(len(rows[i][2]))))
    elif kind == "labels":
        # with one class, each is out of range or not a ';'-joined integer list
        rows[i][2] = draw(st.sampled_from(["0", "2", "x", "1;", ";1", "1;2", "-1", "1.0"]))
    elif kind == "extra row":
        rows.append([str(len(rows)), "0", ""])
    else:
        del rows[i]
    return [header] + [",".join(row) for row in rows]


@given(data=st.data())
def test_malformed_sets_csv_exits_3_with_one_line(clean_files, data):
    root = clean_files
    lines = (root / "pred_sets.csv").read_text().splitlines()
    broken = root / "broken_sets.csv"
    broken.write_text("".join(f"{line}\n" for line in data.draw(malformed_sets(lines))))
    _exits_3_with_one_line(
        "evaluate", "--sets", broken, "--test", root / "sim_test.csv", "--n-classes", 1,
    )


# Strings that are not numbers, not even to numpy's float cast.
WORDS = st.sampled_from(["", "x", "one", "1,5", "[1]"])


@st.composite
def malformed_model(draw, text):
    """The bytes of a one-class ``--oracle-params`` file that predict must reject."""
    doc = json.loads(text)
    kind = draw(st.sampled_from(
        ["truncated", "not utf-8", "not an object", "kind", "missing field",
         "entry", "non-finite", "variance", "shape"]
    ))
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    if kind == "not utf-8":
        return b'{"kind": "\xff"}'
    field = draw(st.sampled_from(["means", "variances"]))
    j = draw(st.integers(0, len(doc["means"][0]) - 1))
    if kind == "not an object":
        doc = draw(st.one_of(st.none(), st.integers(), WORDS, st.lists(st.integers(), max_size=3)))
    elif kind == "kind":
        doc["kind"] = draw(st.one_of(st.none(), st.integers(), WORDS, st.just("OracleParams")))
    elif kind == "missing field":
        del doc[draw(st.sampled_from(["kind", "means", "variances"]))]
    elif kind == "entry":
        doc[field][0][j] = draw(st.one_of(
            st.none(), WORDS, st.lists(st.floats(0.5, 2.0), max_size=2), st.just({})
        ))
    elif kind == "non-finite":
        doc[field][0][j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "variance":
        # not positive, or too small for its reciprocal to be finite
        doc["variances"][0][j] = draw(
            st.floats(max_value=1 / np.finfo(np.float64).max, allow_nan=False)
        )
    else:
        # too few or too many classes or features, or not a (K, p) array
        doc[field] = draw(st.sampled_from([
            doc[field][0], [], [doc[field][0]] * 2, [doc[field][0] + [1.0]],
            [doc[field][0][:-1]], [[doc[field][0]]],
        ]))
    return json.dumps(doc).encode()


@given(data=st.data())
def test_malformed_oracle_params_exits_3_with_one_line(clean_files, data):
    root = clean_files
    text = (root / "sim_oracle.json").read_text()
    broken = root / "broken_oracle.json"
    broken.write_bytes(data.draw(malformed_model(text)))
    _exits_3_with_one_line(
        "predict", "--train", root / "sim_train.csv", "--test", root / "sim_test.csv",
        "--truth-column", "truth", "--mode", "oracle", "--oracle-params", broken,
        "--out", root / "oracle_pred",
    )


TEXT = st.text(st.characters(codec="utf-8"), max_size=6)
# text such as 5e-2 is written unquoted and loads as a YAML 1.2 float, a number
NOT_FLOAT_TEXT = TEXT.filter(lambda v: not _YAML12_FLOAT.match(v))
NOT_INT_SCALAR = st.one_of(
    st.none(), st.booleans(), TEXT, st.floats(), st.dictionaries(TEXT, st.integers(), max_size=2)
)
NOT_NUMBER = st.one_of(
    st.none(), st.booleans(), NOT_FLOAT_TEXT, st.lists(st.integers(), max_size=2),
    st.dictionaries(TEXT, st.integers(), max_size=2),
)
NOT_INT = st.one_of(NOT_NUMBER, st.floats())
NOT_TEXT = st.one_of(st.booleans(), st.integers(), st.floats(), st.lists(st.integers(), max_size=2))


def _bad_grid(entry, good, *twins):
    """A grid value holding a bad entry, alone or after a good one, or two
    values that name one results table: the good one twice, or ``twins``."""
    return st.one_of(
        entry,
        st.lists(entry, min_size=1, max_size=2).map(lambda bad: [good] + bad),
        st.sampled_from([[good, good], *twins]),
    )


def _not_choice(*names):
    return st.one_of(st.none(), st.integers(), TEXT.filter(lambda v: v not in names))


# For every config field, values that field rejects in a simulated scenario.
BAD_FIELDS = {
    "scenario": _not_choice("one_class", "multi_class", "csv"),
    "mode": st.one_of(
        _not_choice("empirical", "oracle"),
        st.sampled_from([[], ["empirical", "empirical"], ["empirical", "both"]]),
    ),
    "p": _bad_grid(st.one_of(NOT_INT_SCALAR, st.integers(max_value=0)), 3),
    "n_k": _bad_grid(st.one_of(NOT_INT_SCALAR, st.integers(max_value=2)), 5),
    "rho": _bad_grid(
        st.one_of(
            st.none(), st.booleans(), NOT_FLOAT_TEXT,
            st.floats().filter(lambda v: not 0 <= v < 1),
        ),
        0.0,
        [0.3, 0.3000001],
    ),
    "m": st.one_of(NOT_INT, st.integers(max_value=0)),
    "replicates": st.one_of(NOT_INT, st.integers(max_value=0)),
    "test_sets": st.one_of(NOT_INT, st.integers(max_value=0)),
    "alpha": st.one_of(NOT_NUMBER, st.floats().filter(lambda v: not 0 < v < 1)),
    "inlier_ratio": st.one_of(NOT_NUMBER, st.floats().filter(lambda v: not 0 < v < math.inf)),
    "train_fraction": NOT_NUMBER,
    "master_seed": st.one_of(NOT_INT, st.integers(max_value=-1)),
    "atom_seed": st.one_of(NOT_INT, st.integers(max_value=-1)),
    "out_dir": st.one_of(st.none(), NOT_TEXT),
    "csv_path": NOT_TEXT,
    "label_column": NOT_TEXT,
    "outlier_label": NOT_TEXT,
}


@st.composite
def malformed_config(draw):
    """The bytes of an experiment YAML that ``confset experiment`` must reject."""
    doc = {"scenario": "multi_class", "p": [3], "n_k": [5], "rho": [0.0], "m": 8,
           "replicates": 1, "test_sets": 1}
    kind = draw(st.sampled_from(
        ["syntax", "not utf-8", "not a mapping", "unknown key", "no scenario", "field"]
    ))
    if kind == "syntax":
        tail = draw(st.sampled_from(
            ["p: [1, 2\n", "\tm: 3\n", "alpha: 0.1: 2\n", "- item\n", "{unclosed\n", "key: 'open\n"]
        ))
        return (yaml.safe_dump(doc, sort_keys=False) + tail).encode()
    if kind == "not utf-8":
        return b"scenario: multi_\xffclass\n"
    if kind == "not a mapping":
        doc = draw(st.one_of(st.none(), st.integers(), TEXT, st.lists(st.integers(), max_size=3)))
    elif kind == "unknown key":
        doc[draw(st.one_of(st.integers(), TEXT.filter(lambda k: k not in BAD_FIELDS)))] = 1
    elif kind == "no scenario":
        del doc["scenario"]
    else:
        name = draw(st.sampled_from(sorted(BAD_FIELDS)))
        doc[name] = draw(BAD_FIELDS[name])
    return yaml.safe_dump(doc, sort_keys=False).encode()


@given(data=st.data())
def test_malformed_config_exits_3_with_one_line(tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp()
    config = root / "broken_config.yaml"
    config.write_bytes(data.draw(malformed_config()))
    # a config that slipped through would write here, not into the repository
    _exits_3_with_one_line("experiment", "--config", config, "--out-dir", root / "exp_out")


@pytest.fixture
def stub_row(monkeypatch):
    """A predictor row added to the table: predict's own fit, its calls counted."""
    calls = []

    def stub(train, known, floor):
        calls.append(floor)
        return {}

    monkeypatch.setitem(PREDICTORS, "stub", stub)
    return calls


class TestPredictorTable:
    """A row added to ``PREDICTORS`` is a predictor everywhere by its name."""

    def test_predict_picks_the_row_by_mode(self, simulated, tmp_path, capsys, stub_row):
        for mode in ("stub", "empirical"):
            code = run_cli(
                "predict", "--train", f"{simulated}_train.csv",
                "--test", f"{simulated}_test.csv", "--truth-column", "truth",
                "--mode", mode, "--out", tmp_path / mode,
            )
            assert code == EXIT_OK
        assert "(stub)" in capsys.readouterr().out
        assert stub_row == [None]
        for suffix in ("_pvalues.csv", "_sets.csv", "_thresholds.csv"):
            stub = (tmp_path / f"stub{suffix}").read_text()
            assert stub == (tmp_path / f"empirical{suffix}").read_text()

    def test_experiment_writes_a_table_per_row(self, tmp_path, capsys, stub_row):
        config, out_dir = tmp_path / "config.yaml", tmp_path / "out"
        config.write_text(
            "scenario: one_class\np: [5]\nn_k: [10]\nm: 8\nreplicates: 3\n"
            f"test_sets: 2\nmode: [empirical, stub]\nout_dir: {out_dir}\n"
        )
        assert run_cli("experiment", "--config", config) == EXIT_OK
        # one row call per training set, not per batch
        assert len(stub_row) == 3
        tables = [
            read_results(out_dir / f"one_class_p5_nk10_rho0_{mode}.csv")
            for mode in ("empirical", "stub")
        ]
        for table in tables:
            del table["time_s"]
        assert tables[0] == tables[1]
