"""File formats: CSV round-trips, config YAML, result tables, class-moment JSON."""

import csv
import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from confset import (
    ClassModel,
    DataError,
    ExperimentConfig,
    LabeledDataset,
    SCENARIOS,
    MetricsReport,
    PredictionSets,
    PValueMatrix,
    TestBatch,
    fit_model,
    generate,
    load_config,
    load_csv,
    load_json,
    multi_class_config,
    oracle_params,
    predict,
    read_batch_csv,
    read_results,
    read_sets_csv,
    read_truth_csv,
    render_results,
    save_config,
    save_json,
    split_train_test,
    write_batch_csv,
    write_dataset_csv,
    write_pvalues_csv,
    write_results,
    write_sets_csv,
    write_thresholds_csv,
)

from confset.io import read_header
from conftest import naive_csv_write

TRICKY = [0.1, 1 / 3, math.pi, 1e-300, 1e300, -0.0, 123456789.123456789]


def _tricky_dataset():
    gen = np.random.default_rng(42)
    features = gen.normal(size=(12, len(TRICKY)))
    features[0] = TRICKY  # exercise shortest-repr round-tripping
    labels = np.repeat([1, 2, 3], 4)
    return LabeledDataset(features=features, labels=labels)


class TestDatasetCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        data = _tricky_dataset()
        path = tmp_path / "train.csv"
        write_dataset_csv(path, data)
        back, outliers, label_map = load_csv(path, label_column="label")
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.n_classes == 3
        assert label_map == {"1": 1, "2": 2, "3": 3}
        assert outliers is None

    def test_header_layout(self, tmp_path):
        path = tmp_path / "train.csv"
        write_dataset_csv(path, _tricky_dataset())
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,x5,x6,x7,label"

    def test_label_column_anywhere(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text(
            "a,cls,b\n1.0,red,2.0\n3.0,blue,4.0\n5.0,red,6.0\n"
            "7.0,blue,8.0\n9.0,red,10.0\n11.0,blue,12.0\n"
        )
        data, _, label_map = load_csv(path, label_column="cls")
        assert label_map == {"red": 1, "blue": 2}
        # rows stably sorted by class id from file order; feature order a then b
        order = np.argsort([1, 2, 1, 2, 1, 2], kind="stable")
        np.testing.assert_array_equal(data.labels, np.array([1, 2, 1, 2, 1, 2])[order])
        np.testing.assert_array_equal(
            data.features,
            np.array([[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]])[order],
        )

    def test_first_appearance_label_order(self, tmp_path):
        path = tmp_path / "pets.csv"
        path.write_text(
            "x1,animal\n0.0,cat\n1.0,dog\n2.0,cat\n3.0,bird\n4.0,dog\n"
            "5.0,cat\n6.0,bird\n7.0,cat\n8.0,dog\n9.0,bird\n"
        )
        _, _, label_map = load_csv(path, label_column="animal")
        assert label_map == {"cat": 1, "dog": 2, "bird": 3}


    def test_interleaved_rows_come_back_grouped(self, tmp_path):
        path = tmp_path / "pets.csv"
        path.write_text(
            "x1,animal\n0.0,dog\n1.0,eel\n2.0,cat\n3.0,dog\n4.0,cat\n"
            "5.0,eel\n6.0,cat\n7.0,dog\n"
        )
        data, outliers, label_map = load_csv(path, "animal", outlier_label="eel")
        assert label_map == {"dog": 1, "cat": 2}
        np.testing.assert_array_equal(data.labels, [1, 1, 1, 2, 2, 2])
        # each class keeps its rows in file order, and so do the outliers
        np.testing.assert_array_equal(data.class_rows(1)[:, 0], [0.0, 3.0, 7.0])
        np.testing.assert_array_equal(data.class_rows(2)[:, 0], [2.0, 4.0, 6.0])
        np.testing.assert_array_equal(outliers.features[:, 0], [1.0, 5.0])
        np.testing.assert_array_equal(outliers.truth, [3, 3])


class TestOutlierSegregation:
    def _write(self, path, labels):
        rows = "".join(f"{i}.0,{lab}\n" for i, lab in enumerate(labels))
        path.write_text("x1,label\n" + rows)

    def test_outliers_split_off(self, tmp_path):
        path = tmp_path / "mix.csv"
        self._write(path, ["a", "a", "weird", "a", "b", "b", "b", "weird"])
        data, batch, label_map = load_csv(path, "label", outlier_label="weird")
        assert label_map == {"a": 1, "b": 2}
        assert data.n == 6
        assert batch.m == 2
        np.testing.assert_array_equal(batch.truth, [3, 3])
        np.testing.assert_array_equal(batch.features.ravel(), [2.0, 7.0])

    def test_no_outlier_rows_gives_none(self, tmp_path):
        path = tmp_path / "clean.csv"
        self._write(path, ["a", "a", "a"])
        data, batch, label_map = load_csv(path, "label", outlier_label="weird")
        assert batch is None
        assert data.n == 3

    def test_all_outliers_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write(path, ["weird", "weird", "weird"])
        with pytest.raises(DataError, match="outlier label"):
            load_csv(path, "label", outlier_label="weird")


class TestLoadCsvErrors:
    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2\n1.0,2.0\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, "label")

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,label\n1.0,2.0,a\n1.0,oops,a\n2.0,3.0,a\n")
        with pytest.raises(DataError, match=r"'oops' at line 3, column 'x2'"):
            load_csv(path, "label")

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x1,label\n1.0,2.0,a\n")
        with pytest.raises(DataError, match="duplicate column"):
            load_csv(path, "label")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path, "label")

    def test_header_only(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, "label")

    def test_oversized_cell_names_its_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(f"x1,label\n1.0,a\n{'1' * (csv.field_size_limit() + 1)},a\n")
        with pytest.raises(DataError, match="f.csv: line 3: field larger than field limit"):
            load_csv(path, "label")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,label\n1.0,2.0,a\n1.0,a\n")
        with pytest.raises(DataError, match="line 3 has 2 cells"):
            load_csv(path, "label")

    @pytest.mark.parametrize(
        "labels, short",
        # the first short label in file order is named
        [("aaab", "'b' has 1 row"), ("baaa", "'b' has 1 row"), ("abab", "'a' has 2 rows")],
    )
    def test_short_class_is_named_by_its_label(self, tmp_path, labels, short):
        path = tmp_path / "f.csv"
        path.write_text("x1,label\n" + "".join(f"{i}.0,{c}\n" for i, c in enumerate(labels)))
        message = f"{path}: label {short}; every class needs >= 3"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(path, "label")

    def test_label_only_no_features(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("label\na\nb\n")
        with pytest.raises(DataError, match="no feature columns"):
            load_csv(path, "label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "absent.csv", "label")
        with pytest.raises(DataError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")
        with pytest.raises(DataError, match="cannot read"):
            load_json(tmp_path / "absent.json")

    def test_unwritable_path(self, tmp_path):
        target = tmp_path / "no_such_dir" / "out.csv"
        with pytest.raises(DataError, match="cannot write"):
            write_dataset_csv(target, _tricky_dataset())


# Each writer, as it writes to a path that opens but has no room for a byte.
FULL_WRITERS = {
    "write_dataset_csv": lambda path: write_dataset_csv(path, _tricky_dataset()),
    "write_results": lambda path: write_results([_report(0.5)], path),
    "save_json": lambda path: save_json(ClassModel(np.zeros((1, 2)), np.ones((1, 2))), path),
    "save_config": lambda path: save_config(ExperimentConfig("one_class"), path),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("writer", sorted(FULL_WRITERS))
def test_failed_write_is_one_line(writer):
    # /dev/full opens; the write or the flush at close fails
    with pytest.raises(DataError, match="^cannot write /dev/full: "):
        FULL_WRITERS[writer]("/dev/full")


# Every CSV reader, as each is called on a file whose header is "a,b".
READERS = {
    "load_csv": lambda path: load_csv(path, "b"),
    "read_batch_csv": read_batch_csv,
    "read_truth_csv": lambda path: read_truth_csv(path, "b"),
    "read_header": read_header,
    "read_sets_csv": lambda path: read_sets_csv(path, 1),
    "read_results": read_results,
}


@pytest.mark.parametrize("reader", sorted(READERS))
class TestUndecodableCsv:
    """Bytes that are not UTF-8, and a cell over the csv module's field size
    limit, are one DataError naming the file, in every reader."""

    def test_latin1_byte(self, tmp_path, reader):
        path = tmp_path / "f.csv"
        path.write_bytes(b"a,b\n1.0,b\xe9\n")
        message = f"{path}: not UTF-8 text: invalid continuation byte"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            READERS[reader](path)

    def test_oversized_cell(self, tmp_path, reader):
        # in the header, which every reader splits before it looks at a name
        path = tmp_path / "f.csv"
        path.write_text(f"a,b{'b' * csv.field_size_limit()}\n1.0,1\n")
        message = f"{path}: line 1: field larger than field limit"
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            READERS[reader](path)


class TestFeatureCellParsing:
    """One numpy cast per table; a per-cell loop only locates a bad cell."""

    @pytest.mark.parametrize(
        "cell",
        [" 1.5 ", "\t2", "1_000", "\u0661\u0662", "+1.", ".5e-3", "1e-400",
         "-0", "\xa02\xa0", "5e-324", "1e308"],
    )
    def test_accepts_what_float_accepts(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"x1,x2\n{cell},0.5\n", encoding="utf-8")
        back = read_batch_csv(path).features
        expected = np.array([[float(cell), 0.5]])
        np.testing.assert_array_equal(back.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("cell", ["0x10", "", "1__0", "_1", "1d5", "1 2", "one"])
    def test_rejects_what_float_rejects(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"x1,x2\n0.5,{cell}\n")
        with pytest.raises(DataError, match=r"non-numeric cell .* at line 2, column 'x2'"):
            read_batch_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "-Infinity", "1e500"])
    def test_non_finite_cell_reaches_container_check(self, tmp_path, cell):
        # the reader checks it before the container does, to name its line
        path = tmp_path / "t.csv"
        path.write_text(f"x1,x2\n0.5,{cell}\n")
        message = f"{path}: non-finite cell {cell!r} at line 2, column 'x2'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read_batch_csv(path)

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("x1,label,x2\nbad,a,1.0\n2.0,a,3.0\n", 2, "x1"),
            ("x1,label,x2\n1.0,a,2.0\n3.0,a,4.0\n5.0,a,bad\n", 4, "x2"),
            ("x1,label,x2\n1.0,a,2.0\n3.0,a, bad \n5.0,a,6.0\n", 3, "x2"),
        ],
        ids=["first-row", "last-row", "beside-mid-label"],
    )
    def test_bad_cell_named_by_line_and_column(self, tmp_path, text, line, column):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(
            DataError,
            match=rf"^{re.escape(str(path))}: non-numeric cell 'bad' at line {line}, "
            rf"column '{column}'$",
        ):
            load_csv(path, "label")

    @pytest.mark.parametrize("outlier_label", [None, "out"])
    def test_bad_cell_line_after_outlier_row_and_blank_line(self, tmp_path, outlier_label):
        # an outlier row on line 4 and a blank line 5 come before the bad line 6
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,label\n1.0,2.0,a\n3.0,4.0,a\n5.0,6.0,out\n\n7.0,bad,a\n")
        with pytest.raises(DataError, match=r"'bad' at line 6, column 'x2'$"):
            load_csv(path, "label", outlier_label=outlier_label)

    def test_bad_cell_in_outlier_row_names_its_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x1,x2,label\n1.0,2.0,a\n3.0,4.0,a\n5.0,6.0,a\n\n7.0,bad,out\n")
        with pytest.raises(DataError, match=r"'bad' at line 6, column 'x2'$"):
            load_csv(path, "label", outlier_label="out")

    def test_batch_bad_cell_after_blank_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,x2\n1.0,2.0\n\n3.0,bad\n")
        with pytest.raises(DataError, match=r"'bad' at line 4, column 'x2'$"):
            read_batch_csv(path)

    def test_bad_cell_beside_mid_truth_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,truth,x2\n1.0,1,2.0\n3.0,2,oops\n")
        with pytest.raises(DataError, match=r"'oops' at line 3, column 'x2'"):
            read_batch_csv(path, truth_column="truth")

    def test_single_feature_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1\n1.5\n-2.0\n")
        back = read_batch_csv(path).features
        assert back.shape == (2, 1)
        np.testing.assert_array_equal(back, [[1.5], [-2.0]])


# Finite floats whose shortest repr is easy to get wrong: signed zero, the
# smallest subnormal, values near the overflow edge and integral values.
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
           3.0, -7.0, 1e16, 2.0**53 + 2, 0.1, 1 / 3]


def _float_cells(row) -> list[str]:
    return [repr(float(x)) for x in row]


def _tagged_rows(features, tags=None) -> list[list]:
    """Rows of float cells, each followed by its integer tag if given."""
    rows = [_float_cells(row) for row in features]
    if tags is not None:
        rows = [row + [int(t)] for row, t in zip(rows, tags)]
    return rows


class TestWriterBytes:
    """Every writer gives the bytes ``csv.writer`` gives for the same cells."""

    @pytest.fixture
    def features(self):
        gen = np.random.default_rng(8)
        features = gen.normal(size=(len(SPECIAL), len(SPECIAL))) * 1e3
        features[0] = SPECIAL
        features[:, 1] = SPECIAL
        return features

    def test_dataset_matches_csv_writer(self, tmp_path, features):
        labels = np.arange(len(features)) % 3 + 1
        data = LabeledDataset(features=features, labels=labels)
        write_dataset_csv(tmp_path / "new.csv", data)
        # the dataset holds the rows stably sorted by label
        order = np.argsort(labels, kind="stable")
        head = [f"x{j + 1}" for j in range(features.shape[1])] + ["label"]
        rows = _tagged_rows(features[order], labels[order])
        ref = naive_csv_write(tmp_path / "ref.csv", head, rows)
        assert (tmp_path / "new.csv").read_bytes() == ref

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_batch_matches_csv_writer(self, tmp_path, features, with_truth):
        # truth 5 is the outlier label K+1 of a four-class training set
        truth = np.arange(len(features)) % 5 + 1 if with_truth else None
        write_batch_csv(tmp_path / "new.csv", TestBatch(features=features, truth=truth))
        head = [f"x{j + 1}" for j in range(features.shape[1])]
        head += ["truth"] if with_truth else []
        ref = naive_csv_write(tmp_path / "ref.csv", head, _tagged_rows(features, truth))
        assert (tmp_path / "new.csv").read_bytes() == ref

    @pytest.mark.parametrize("m", [1, 5])
    def test_pvalues_and_thresholds_match_csv_writer(self, tmp_path, m):
        gen = np.random.default_rng(m)
        raw = gen.uniform(size=(m, 3))
        raw[0] = [1.0, 1 / 3, 5e-324]
        adjusted = np.minimum(raw * 2, 1.0)
        pvals = PValueMatrix(raw, adjusted, thresholds=[0.1, 1 / 7, 0.0], alpha=0.1)
        write_pvalues_csv(tmp_path / "p.csv", pvals)
        head = ["index", "raw_1", "raw_2", "raw_3", "adjusted_1", "adjusted_2", "adjusted_3"]
        rows = [[i] + _float_cells(raw[i]) + _float_cells(adjusted[i]) for i in range(m)]
        assert (tmp_path / "p.csv").read_bytes() == naive_csv_write(
            tmp_path / "ref.csv", head, rows
        )
        write_thresholds_csv(tmp_path / "t.csv", pvals)
        rows = [[c + 1, repr(t), "0.1"] for c, t in enumerate([0.1, 1 / 7, 0.0])]
        assert (tmp_path / "t.csv").read_bytes() == naive_csv_write(
            tmp_path / "ref.csv", ["class", "threshold", "alpha"], rows
        )

    @pytest.mark.parametrize(
        "member",
        [
            [[False, False, False]],
            [[True, False, True]],
            [[False, False, False], [False, False, False]],
            [[True, True, True], [False, False, False], [False, True, False]],
            np.zeros((0, 3), dtype=bool),
        ],
        ids=["one empty set", "one row", "all empty", "mixed", "no rows"],
    )
    def test_sets_match_csv_writer(self, tmp_path, member):
        write_sets_csv(tmp_path / "s.csv", PredictionSets(np.array(member, dtype=bool)))
        rows = []
        for i, row in enumerate(member):
            labels = [k + 1 for k, accepted in enumerate(row) if accepted]
            rows.append([i, len(labels), ";".join(map(str, labels))])
        assert (tmp_path / "s.csv").read_bytes() == naive_csv_write(
            tmp_path / "ref.csv", ["index", "size", "labels"], rows
        )

    @pytest.mark.parametrize("time_s", [None, 0.1 + 0.2])
    def test_results_match_csv_writer(self, tmp_path, time_s):
        reports = [_report(0.0), _report(1 / 3)]
        write_results(reports, tmp_path / "r.csv", time_s=time_s)
        names = [name for name, _ in reports[0].rows()]
        columns = np.array([[v for _, v in r.rows()] for r in reports]).T
        rows = [
            [name, repr(float(c.mean())), repr(float(c.std(ddof=1)))]
            for name, c in zip(names, columns)
        ]
        if time_s is not None:
            rows.append(["time_s", repr(time_s), "0.0"])
        assert (tmp_path / "r.csv").read_bytes() == naive_csv_write(
            tmp_path / "ref.csv", ["metric", "mean", "std"], rows
        )

    def test_non_finite_cells_format_as_repr(self):
        # containers reject non-finite features, so only the row formatter
        # itself can be shown these
        from confset.io import _floats

        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 2.0]
        assert _floats(values) == ",".join(repr(float(v)) for v in values)
        assert _floats(values) == "nan,inf,-inf,-0.0,5e-324,1e+308,2.0"

    def test_benchmark_sized_round_trip_is_bit_identical(self, tmp_path):
        config = multi_class_config(p=200, n_k=200, m=1000, rho=0.8, run_seed=3)
        train, test = generate(config)
        write_dataset_csv(tmp_path / "train.csv", train)
        write_batch_csv(tmp_path / "test.csv", test)
        back, _, label_map = load_csv(tmp_path / "train.csv", "label")
        batch = read_batch_csv(tmp_path / "test.csv", truth_column="truth")
        truth = read_truth_csv(tmp_path / "test.csv", "truth")
        assert label_map == {str(k): k for k in range(1, train.n_classes + 1)}
        assert back.features.view(np.int64).tobytes() == train.features.view(np.int64).tobytes()
        np.testing.assert_array_equal(back.labels, train.labels)
        assert batch.features.view(np.int64).tobytes() == test.features.view(np.int64).tobytes()
        np.testing.assert_array_equal(truth, test.truth)


class TestBatchCsvRoundTrip:
    def test_with_truth(self, tmp_path):
        gen = np.random.default_rng(3)
        batch = TestBatch(
            features=gen.normal(size=(9, 4)), truth=gen.integers(1, 4, size=9)
        )
        path = tmp_path / "test.csv"
        write_batch_csv(path, batch)
        assert path.read_text().splitlines()[0] == "x1,x2,x3,x4,truth"
        back = read_batch_csv(path, truth_column="truth")
        np.testing.assert_array_equal(back.features, batch.features)
        assert back.truth is None
        np.testing.assert_array_equal(read_truth_csv(path, "truth"), batch.truth)

    def test_without_truth(self, tmp_path):
        batch = TestBatch(features=np.array([[1.5, 2.5]]))
        path = tmp_path / "test.csv"
        write_batch_csv(path, batch)
        assert path.read_text().splitlines()[0] == "x1,x2"
        back = read_batch_csv(path)
        assert back.truth is None
        np.testing.assert_array_equal(back.features, batch.features)

    def test_string_truth_without_map_rejected(self, tmp_path):
        # the batch reader never parses the truth column; the truth reader
        # rejects a cell that is not an integer
        path = tmp_path / "t.csv"
        path.write_text("x1,truth\n1.0,cat\n")
        np.testing.assert_array_equal(read_batch_csv(path, "truth").features, [[1.0]])
        with pytest.raises(DataError, match=r"non-integer cell 'cat' at line 2, column 'truth'$"):
            read_truth_csv(path, "truth")

    def test_missing_truth_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,truth\n1.0,1\n")
        with pytest.raises(DataError, match="truth column"):
            read_batch_csv(path, truth_column="bogus")

    def test_truth_only_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("truth\n1\n")
        with pytest.raises(DataError, match="no feature columns"):
            read_batch_csv(path, truth_column="truth")


class TestSplitTrainTest:
    def _coded_data(self, per_class=10, n_classes=3):
        # column 0 stores the class id so the split's truth can be verified
        rows = []
        labels = []
        for k in range(1, n_classes + 1):
            block = np.full((per_class, 2), float(k))
            block[:, 1] = np.arange(per_class)
            rows.append(block)
            labels.extend([k] * per_class)
        return LabeledDataset(
            features=np.vstack(rows), labels=np.array(labels)
        )

    def test_stratified_counts(self):
        train, test = split_train_test(self._coded_data(), fraction=0.7, seed=0)
        assert train.n == 21 and test.m == 9
        np.testing.assert_array_equal(train.class_counts, [7, 7, 7])

    def test_truth_matches_features(self):
        _, test = split_train_test(self._coded_data(), fraction=0.7, seed=1)
        np.testing.assert_array_equal(test.features[:, 0].astype(int), test.truth)

    def test_deterministic_and_seed_sensitive(self):
        data = self._coded_data()
        t1, b1 = split_train_test(data, seed=5)
        t2, b2 = split_train_test(data, seed=5)
        np.testing.assert_array_equal(t1.features, t2.features)
        np.testing.assert_array_equal(b1.features, b2.features)
        t3, _ = split_train_test(data, seed=6)
        assert not np.array_equal(t1.features, t3.features)

    def test_no_row_lost_or_duplicated(self):
        data = self._coded_data()
        train, test = split_train_test(data, fraction=0.6, seed=2)
        merged = np.vstack([train.features, test.features])
        assert merged.shape == data.features.shape
        # sort by the within-class counter per class and compare content
        key = lambda a: a[np.lexsort((a[:, 1], a[:, 0]))]
        np.testing.assert_array_equal(key(merged), key(data.features))

    def test_shuffled_rows_split_as_their_grouped_order(self):
        data = self._coded_data()
        perm = np.random.default_rng(3).permutation(data.n)
        features, labels = data.features[perm], data.labels[perm]
        order = np.argsort(labels, kind="stable")
        shuffled = LabeledDataset(features=features, labels=labels)
        grouped = LabeledDataset(features=features[order], labels=labels[order])
        train1, test1 = split_train_test(shuffled, fraction=0.6, seed=4)
        train2, test2 = split_train_test(grouped, fraction=0.6, seed=4)
        np.testing.assert_array_equal(train1.features, train2.features)
        np.testing.assert_array_equal(train1.labels, train2.labels)
        np.testing.assert_array_equal(test1.features, test2.features)
        np.testing.assert_array_equal(test1.truth, test2.truth)

    def test_half_up_rounding(self):
        # 10 rows at 0.75 -> floor(8.0) = 8 train (7.5 + 0.5)
        train, test = split_train_test(self._coded_data(per_class=10, n_classes=1), 0.75, 0)
        assert train.n == 8 and test.m == 2

    def test_too_small_class_rejected(self):
        with pytest.raises(DataError, match="needs >= 3"):
            split_train_test(self._coded_data(per_class=4, n_classes=1), 0.5, 0)

    def test_empty_test_rejected(self):
        with pytest.raises(DataError, match="no test rows"):
            split_train_test(self._coded_data(per_class=3, n_classes=1), 0.9, 0)

    def test_fraction_bounds(self):
        with pytest.raises(DataError, match="fraction"):
            split_train_test(self._coded_data(), 1.0, 0)


class TestExperimentConfig:
    def test_defaults(self):
        c = ExperimentConfig(scenario="one_class")
        assert c.p == (500,) and c.n_k == (500,) and c.rho == (0.0,)
        assert c.m == 1000 and c.alpha == 0.05 and c.replicates == 10
        assert c.mode == ("empirical",) and c.out_dir == "results"

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_default_cell_is_the_default_design(self, scenario):
        c = ExperimentConfig(scenario=scenario)
        assert c.cell_scenario(*c.cells()[0]) == SCENARIOS[scenario]()

    def test_cell_takes_every_shared_field(self):
        design = dict(m=11, alpha=0.2, inlier_ratio=2.0, atom_seed=5)
        c = ExperimentConfig(scenario="multi_class", p=7, n_k=(9, 10), rho=0.3, **design)
        assert c.cell_scenario(7, 10, 0.3) == multi_class_config(p=7, n_k=10, rho=0.3, **design)

    def test_scalar_grid_coerced(self):
        c = ExperimentConfig(scenario="one_class", p=100, n_k=50, rho=0.8)
        assert c.p == (100,) and c.n_k == (50,) and c.rho == (0.8,)

    def test_cells_row_major_order(self):
        c = ExperimentConfig(
            scenario="multi_class", p=(10, 20), n_k=(5, 6), rho=(0.0, 0.5)
        )
        assert c.cells() == [
            (10, 5, 0.0), (10, 5, 0.5), (10, 6, 0.0), (10, 6, 0.5),
            (20, 5, 0.0), (20, 5, 0.5), (20, 6, 0.0), (20, 6, 0.5),
        ]

    @pytest.mark.parametrize(
        "kwargs, msg",
        [
            (dict(scenario="bogus"), "scenario"),
            (dict(scenario="one_class", mode="bogus"), "mode"),
            (dict(scenario="one_class", p=()), "grid"),
            (dict(scenario="one_class", replicates=0), "replicates"),
            (dict(scenario="one_class", test_sets=0), "replicates"),
            (dict(scenario="one_class", alpha=1.5), "alpha"),
            (dict(scenario="csv"), "csv_path"),
            (dict(scenario="csv", csv_path="f.csv"), "csv_path"),
            (
                dict(scenario="csv", csv_path="f.csv", label_column="y",
                     mode="oracle"),
                "oracle",
            ),
            (
                dict(scenario="csv", csv_path="f.csv", label_column="y",
                     train_fraction=1.0),
                "train_fraction",
            ),
            (dict(scenario="one_class", inlier_ratio=float("inf")), "inlier_ratio"),
            (dict(scenario="one_class", inlier_ratio=-1.0), "inlier_ratio"),
            (dict(scenario="one_class", master_seed=-1), "master_seed"),
            (dict(scenario="one_class", atom_seed=-1), "atom_seed"),
            (dict(scenario="one_class", master_seed="7"), "master_seed"),
            (dict(scenario="one_class", p=(5, 5)), "share the results name"),
            (
                dict(scenario="one_class", rho=(0.3, 0.3000001)),
                re.escape(
                    "grid cells (500, 500, 0.3) and (500, 500, 0.3000001) share the "
                    "results name 'one_class_p500_nk500_rho0.3'"
                ),
            ),
            # simulate's shorthands name no design here; a YAML list is no name
            (dict(scenario="one"), "^unknown scenario 'one'$"),
            (dict(scenario=["one_class"]), r"^unknown scenario \['one_class'\]$"),
        ],
    )
    def test_rejects_invalid(self, kwargs, msg):
        with pytest.raises(DataError, match=msg):
            ExperimentConfig(**kwargs)


class TestConfigYaml:
    def test_round_trip(self, tmp_path):
        config = ExperimentConfig(
            scenario="multi_class", p=(50, 100), n_k=(25,), rho=(0.0, 0.8),
            m=200, alpha=0.1, replicates=3, test_sets=2, mode=("empirical", "oracle"),
            master_seed=11, out_dir="elsewhere",
        )
        path = tmp_path / "config.yaml"
        save_config(config, path)
        assert load_config(path) == config

    def test_csv_scenario_round_trip(self, tmp_path):
        config = ExperimentConfig(
            scenario="csv", csv_path="data.csv", label_column="y",
            outlier_label="odd", train_fraction=0.8, replicates=4,
        )
        path = tmp_path / "config.yaml"
        save_config(config, path)
        assert load_config(path) == config

    def test_none_fields_omitted_from_file(self, tmp_path):
        path = tmp_path / "config.yaml"
        save_config(ExperimentConfig(scenario="one_class"), path)
        text = path.read_text()
        assert "csv_path" not in text and "outlier_label" not in text

    def test_handwritten_minimal(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("scenario: one_class\np: [20, 40]\nalpha: 0.1\n")
        config = load_config(path)
        assert config.p == (20, 40) and config.alpha == 0.1
        assert config.n_k == (500,)  # default

    @pytest.mark.parametrize(
        "line, field, value",
        [("alpha: 5e-2", "alpha", 0.05), ("inlier_ratio: 1.0e308", "inlier_ratio", 1e308)],
    )
    def test_yaml12_floats_load_as_numbers(self, tmp_path, line, field, value):
        path = tmp_path / "config.yaml"
        path.write_text(f"scenario: one_class\n{line}\n")
        assert getattr(load_config(path), field) == value

    def test_exponent_grid_entry_is_not_an_integer(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("scenario: one_class\np: [1e3]\n")
        with pytest.raises(DataError, match=r": p must be an integer, got 1000\.0$"):
            load_config(path)

    def test_float_like_string_round_trips(self, tmp_path):
        # saved quoted, so it reads back as the string it was
        config = ExperimentConfig(scenario="one_class", out_dir="1e5")
        path = tmp_path / "config.yaml"
        save_config(config, path)
        assert load_config(path) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("scenario: one_class\nbanana: 1\n")
        with pytest.raises(DataError, match="banana"):
            load_config(path)

    def test_missing_scenario_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("p: [10]\n")
        with pytest.raises(DataError, match="scenario"):
            load_config(path)

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(DataError, match="mapping"):
            load_config(path)


def _report(value: float) -> MetricsReport:
    return MetricsReport(
        cw_fdr=(value,), scw_fdr=value, fdr=value, power=value,
        coverage=value, flr=value, accuracy=value, ambiguity=value,
    )


class TestResultsTable:
    def test_mean_std_rendering(self, tmp_path):
        text = write_results([_report(0.0), _report(0.1)], tmp_path / "r.csv")
        # mean .050, sample std .071 on every row
        assert "[2 runs]" in text.splitlines()[0]
        for line in text.splitlines()[1:]:
            assert line.endswith("0.050(0.071)")

    def test_csv_full_precision(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([_report(0.0), _report(0.1)], path)
        table = read_results(path)
        want_mean = float(np.mean([0.0, 0.1]))
        want_std = float(np.std([0.0, 0.1], ddof=1))
        assert table["fdr"] == (want_mean, want_std)
        assert set(table) == {
            "cw_fdr_1", "scw_fdr", "fdr", "power", "coverage",
            "flr", "accuracy", "ambiguity",
        }

    def test_single_report_zero_std(self, tmp_path):
        path = tmp_path / "r.csv"
        text = write_results([_report(0.25)], path)
        assert "[1 runs]" in text
        assert read_results(path)["power"] == (0.25, 0.0)

    def test_time_row(self, tmp_path):
        path = tmp_path / "r.csv"
        text = write_results([_report(0.5)], path, time_s=1.25)
        assert text.rstrip().splitlines()[-1].split()[-1] == "1.250"
        assert read_results(path)["time_s"] == (1.25, 0.0)

    def test_text_sibling_written(self, tmp_path):
        path = tmp_path / "r.csv"
        text = write_results([_report(0.5)], path)
        assert (tmp_path / "r.txt").read_text() == text

    def test_render_without_file(self):
        text = render_results([_report(0.5)])
        assert "ambiguity" in text and "0.500(0.000)" in text

    def test_read_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="not a results table"):
            read_results(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            read_results(path)

    def test_read_rejects_non_numeric_value(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("metric,mean,std\npower,0.5,0.1\nfdr,high,0.0\n")
        with pytest.raises(DataError, match="line 3: non-numeric"):
            read_results(path)

    def test_reports_of_different_class_counts_rejected(self, tmp_path):
        two_class = replace(_report(0.5), cw_fdr=(0.5, 0.5))
        with pytest.raises(DataError, match="inconsistent class counts"):
            render_results([two_class, _report(0.5)])
        with pytest.raises(DataError, match="inconsistent class counts"):
            write_results([_report(0.5), two_class], tmp_path / "r.csv")

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no reports"):
            write_results([], tmp_path / "r.csv")

    def test_unwritable_text_table(self, tmp_path):
        # the .txt sibling goes through the same one-line error as the CSV
        (tmp_path / "r.txt").mkdir()
        with pytest.raises(DataError, match=r"cannot write .*r\.txt: "):
            write_results([_report(0.5)], tmp_path / "r.csv")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("metric,mean,std\n", "no data rows"),
            ("metric,mean,std\npower,0.5,0.1,9\n", "line 2 has 4 cells, header has 3"),
            ("metric,mean,std,extra\npower,0.5,0.1,9\n", "not a results table"),
        ],
        ids=["header only", "extra cell", "extra column"],
    )
    def test_read_uses_the_table_policy(self, tmp_path, text, message):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: {message}$"):
            read_results(path)

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("metric,mean,std\n\npower,0.5,0.1\n\n")
        assert read_results(path) == {"power": (0.5, 0.1)}


class TestPredictionOutputs:
    @pytest.fixture
    def prediction(self, two_class_data):
        batch = TestBatch(
            features=np.array([[0.0, 0.0], [10.0, 10.0], [500.0, -500.0]])
        )
        return predict(two_class_data, batch, alpha=0.1)

    def test_pvalues_csv(self, tmp_path, prediction):
        pvals, _ = prediction
        path = tmp_path / "p.csv"
        write_pvalues_csv(path, pvals)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,raw_1,raw_2,adjusted_1,adjusted_2"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pvals.raw[0, 0]
        assert float(first[4]) == pvals.adjusted[0, 1]

    def test_thresholds_csv(self, tmp_path, prediction):
        pvals, _ = prediction
        path = tmp_path / "t.csv"
        write_thresholds_csv(path, pvals)
        lines = path.read_text().splitlines()
        assert lines[0] == "class,threshold,alpha"
        assert lines[1].split(",") == ["1", repr(5 / 51), "0.1"]
        assert lines[2].split(",")[0] == "2"

    def test_sets_round_trip(self, tmp_path, prediction):
        _, sets = prediction
        path = tmp_path / "s.csv"
        write_sets_csv(path, sets)
        back = read_sets_csv(path, n_classes=2)
        np.testing.assert_array_equal(back.member, sets.member)

    def test_sets_csv_layout(self, tmp_path):
        sets = PredictionSets(np.array([[1, 1, 0], [0, 0, 0]], dtype=bool))
        path = tmp_path / "s.csv"
        write_sets_csv(path, sets)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,size,labels"
        assert lines[1] == "0,2,1;2"  # sorted, ;-joined
        assert lines[2] == "1,0,"

    def test_read_sets_rejects_foreign(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="not a prediction-sets"):
            read_sets_csv(path, 2)

    def test_read_sets_rejects_label_out_of_range(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("index,size,labels\n0,1,1\n1,2,1;3\n")
        with pytest.raises(
            DataError, match=rf"^{re.escape(str(path))}: line 3: set label 3 outside 1\.\.2$"
        ):
            read_sets_csv(path, 2)
        path.write_text("index,size,labels\n0,1,0\n")
        with pytest.raises(DataError, match="line 2: set label 0 outside 1..2"):
            read_sets_csv(path, 2)

    def test_read_sets_rejects_short_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("index,size,labels\n0,1\n")
        with pytest.raises(DataError, match="line 2 has 2 cells"):
            read_sets_csv(path, 2)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,1,1\n7,1,2\n", "line 3: index '7', expected 1"),
            ("1,1,1\n", "line 2: index '1', expected 0"),
            ("0,1,1\nx,1,2\n", "line 3: index 'x', expected 1"),
            ("0,1,1\n1,3,2\n", "line 3: size '3', but the set has 1"),
            ("0,0,\n1,1,\n", "line 3: size '1', but the set has 0"),
            ("0,2,1;1\n", "line 2: size '2', but the set has 1"),
            ("0,1,1\n1,1,2,\n", "line 3 has 4 cells, header has 3"),
            ("", "no data rows"),
        ],
        ids=[
            "wrong index", "first index", "non-integer index", "size too large",
            "size of empty set", "repeated label", "extra cell", "header only",
        ],
    )
    def test_read_sets_rejects_inconsistent_row(self, tmp_path, rows, message):
        path = tmp_path / "x.csv"
        path.write_text("index,size,labels\n" + rows)
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: {message}$"):
            read_sets_csv(path, 2)

    def test_read_sets_counts_positions_past_blank_lines(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("index,size,labels\n0,2,1;2\n\n1,0,\n")
        sets = read_sets_csv(path, 2)
        np.testing.assert_array_equal(sets.member, [[True, True], [False, False]])


def _assert_same(a, b):
    assert type(a) is type(b)
    for name in ("means", "variances"):
        got, want = getattr(b, name), getattr(a, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        # bit for bit: keeps the sign of -0.0 and every subnormal
        assert got.tobytes() == want.tobytes()


class TestJsonSnapshots:
    def _cases(self):
        gen = np.random.default_rng(8)
        tame = LabeledDataset(
            features=gen.normal(size=(12, 7)),
            labels=np.repeat([1, 2, 3], 4),
        )
        big = np.finfo(np.float64).max  # about 1.8e308
        extreme = np.array([[-0.0, 5e-324, big, -big, *TRICKY]])
        return [
            fit_model(tame),
            oracle_params(multi_class_config(p=3, n_k=5, m=8, rho=0.3, run_seed=2)),
            # 1e-308 is subnormal, and its reciprocal is finite
            ClassModel(means=extreme, variances=np.abs(extreme) + 1e-308),
        ]

    def test_round_trip_every_container(self, tmp_path):
        for i, model in enumerate(self._cases()):
            path = tmp_path / f"snap_{i}.json"
            save_json(model, path)
            _assert_same(model, load_json(path))

    def test_documents_are_plain_json(self, tmp_path):
        path = tmp_path / "model.json"
        for model in self._cases():
            save_json(model, path)
            with open(path) as fh:
                doc = json.load(fh)
            assert doc["kind"] == "ClassModel"
            assert set(doc) == {"kind", "means", "variances"}

    def test_untagged_document_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        for text in ('{"features": []}', "[1, 2]", '"ClassModel"'):
            path.write_text(text)
            with pytest.raises(DataError, match="not a tagged container document"):
                load_json(path)

    def test_unknown_kind_rejected(self, tmp_path):
        # files tagged OracleParams predate ClassModel; simulate rewrites them
        path = tmp_path / "doc.json"
        for kind in ("Mystery", "OracleParams"):
            doc = {"kind": kind, "means": [[0.0]], "variances": [[1.0]]}
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError, match=f"unknown container kind '{kind}'"):
                load_json(path)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"means": [[0.0]]}, "malformed ClassModel document: KeyError 'variances'"),
            (
                {"means": [[0.0], [1.0, 2.0]], "variances": [[1.0]]},
                "malformed ClassModel document: ValueError",
            ),
            ({"means": [[0.0]], "variances": [[0.0]]}, "class variances must be positive"),
            (
                {"means": [[0.0]], "variances": [[5e-324]]},
                "class variances must exceed 1/max float, or their reciprocals overflow: "
                "class 1 has 5e-324 in feature column 0",
            ),
        ],
    )
    def test_malformed_model_names_the_file(self, tmp_path, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"kind": "ClassModel", **doc}))
        with pytest.raises(DataError) as err:
            load_json(path)
        assert str(err.value).startswith(f"{path}: {message}")
        assert len(str(err.value).splitlines()) == 1
