"""Block-wise CSV reading: the arrays of a whole-file parse at every block
edge, the first malformed line in file order named by its real line, and a
peak memory of a few copies of the returned array."""

import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confset import (
    DataError,
    TestBatch,
    load_csv,
    read_batch_csv,
    read_truth_csv,
    write_batch_csv,
)
from confset import io as cio

from conftest import naive_csv_table, naive_floats

# Finite cells in several spellings float() accepts; |x| stays far enough
# below the overflow edge that no spelling rounds to infinity.
CELLS = st.floats(min_value=-1e300, max_value=1e300).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.6e}", f" {x!r}\t", f"{x:.3f}"])
)


@st.composite
def tables(draw):
    """A labeled table and the block budget that puts its row count on an edge.

    The row count is one of 1, B-1, B, B+1 and 2B+3 for B rows per block;
    the label column sits anywhere, blank lines fall anywhere, and rows
    labeled "out" are outlier rows.
    """
    budget = draw(st.integers(1, 48))
    p = draw(st.integers(1, 4))
    block = max(1, budget // (p + 1))
    n = draw(st.sampled_from([1, block - 1, block, block + 1, 2 * block + 3]).filter(bool))
    at = draw(st.integers(0, p))
    labels = draw(st.lists(st.sampled_from(["a", " b ", "a", "out"]), min_size=n, max_size=n))
    rows = []
    for label in labels:
        row = draw(st.lists(CELLS, min_size=p, max_size=p))
        row.insert(at, label)
        rows.append(row)
    blanks = draw(st.lists(st.integers(0, n), max_size=3))
    header = [f"x{j + 1}" for j in range(p)]
    header.insert(at, "label")
    return SimpleNamespace(budget=budget, header=header, at=at, rows=rows, blanks=blanks)


def write_table(path, table, rows=None) -> list[int]:
    """Write ``table`` (with ``rows`` in place of its own); returns each row's line."""
    rows = table.rows if rows is None else rows
    text, lines = [",".join(table.header)], []
    for i, row in enumerate(rows):
        text += [""] * table.blanks.count(i)
        text.append(",".join(row))
        lines.append(len(text))
    text += [""] * table.blanks.count(len(rows))
    path.write_text("\n".join(text) + "\n")
    return lines


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks")


@given(table=tables())
def test_batch_matches_whole_file_parse(workdir, table):
    path = workdir / "batch.csv"
    write_table(path, table)
    _, rows = naive_csv_table(path)
    with mock.patch.object(cio, "_BLOCK_CELLS", table.budget):
        got = read_batch_csv(path, "label")
    assert bits(got.features) == bits(naive_floats(rows, skip=table.at))
    assert got.truth is None


@given(table=tables())
def test_load_csv_matches_whole_file_parse(workdir, table):
    path = workdir / "train.csv"
    write_table(path, table)
    _, rows = naive_csv_table(path)
    raw = [r[table.at].strip() for r in rows]
    inliers = [r for r, x in zip(rows, raw) if x != "out"]
    label_map = {}
    for x in raw:
        if x != "out":
            label_map.setdefault(x, len(label_map) + 1)
    labels = [label_map[x] for x in raw if x != "out"]
    with mock.patch.object(cio, "_BLOCK_CELLS", table.budget):
        if not inliers or min(labels.count(k) for k in label_map.values()) < 3:
            with pytest.raises(DataError, match="outlier label|every class needs >= 3"):
                load_csv(path, "label", outlier_label="out")
            return
        data, batch, got_map = load_csv(path, "label", outlier_label="out")
    assert list(got_map.items()) == list(label_map.items())
    # the dataset holds the inlier rows stably sorted by class id
    order = np.argsort(labels, kind="stable")
    assert bits(data.features) == bits(naive_floats(inliers, skip=table.at)[order])
    assert bits(data.labels) == bits(np.asarray(labels, dtype=np.int64)[order])
    outliers = [r for r, x in zip(rows, raw) if x == "out"]
    if not outliers:
        assert batch is None
    else:
        assert bits(batch.features) == bits(naive_floats(outliers, skip=table.at))
        assert set(batch.truth.tolist()) == {len(label_map) + 1}


@given(table=tables(), data=st.data())
def test_first_malformed_line_is_named(workdir, table, data):
    n, width = len(table.rows), len(table.header)
    features = [j for j in range(width) if j != table.at]
    # one or two faulty rows; two are adjacent, so mostly in one block
    first = data.draw(st.integers(0, n - 1))
    kinds = data.draw(
        st.lists(st.sampled_from(["cell", "short", "long"]), min_size=1, max_size=min(2, n - first))
    )
    faults = [(first + d, kind, data.draw(st.sampled_from(features))) for d, kind in enumerate(kinds)]
    rows = [list(r) for r in table.rows]
    for i, kind, j in faults:
        if kind == "cell":
            rows[i][j] = "bad"
        elif kind == "short":
            rows[i].pop(j)
        else:
            rows[i].append("0")
    path = workdir / "faulty.csv"
    lines = write_table(path, table, rows)
    i, kind, j = min(faults)
    if kind == "cell":
        message = f"non-numeric cell 'bad' at line {lines[i]}, column {table.header[j]!r}"
    else:
        message = f"line {lines[i]} has {len(rows[i])} cells, header has {width}"
    expected = f"^{re.escape(f'{path}: {message}')}$"
    with mock.patch.object(cio, "_BLOCK_CELLS", table.budget):
        with pytest.raises(DataError, match=expected):
            read_batch_csv(path, "label")
        with pytest.raises(DataError, match=expected):
            load_csv(path, "label", outlier_label="out")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1,truth\n1.0,1\n2.0,two\nbad,1\n", "non-integer cell 'two' at line 3, column 'truth'"),
        ("x1,truth\nbad,1\n2.0,two\n", "non-numeric cell 'bad' at line 2, column 'x1'"),
        ("truth,x1\n1,bad\n", "non-numeric cell 'bad' at line 2, column 'x1'"),
        ("truth,x1\n1.5,bad\n", "non-integer cell '1.5' at line 2, column 'truth'"),
        ("x1,truth\nbad,1\n2.0\n", "non-numeric cell 'bad' at line 2, column 'x1'"),
    ],
)
def test_integer_truth_and_features_report_in_file_order(tmp_path, text, message):
    # Each file has a bad truth cell, a bad feature cell or a short row.
    # read_truth_csv parses only the truth and read_batch_csv only the
    # features, so each names the first bad cell of its own columns.
    path = tmp_path / "t.csv"
    path.write_text(text)
    reader = read_truth_csv if message.endswith("column 'truth'") else read_batch_csv
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
        reader(path, "truth")


@pytest.mark.parametrize(
    "text, reader, message",
    [
        ("x1,truth\n1.0,1\n2.0,two\nbad,1\n", read_batch_csv,
         "non-numeric cell 'bad' at line 4, column 'x1'"),
        ("truth,x1\n1.5,bad\n", read_batch_csv, "non-numeric cell 'bad' at line 2, column 'x1'"),
        ("x1,truth\nbad,1\n2.0,two\n", read_truth_csv,
         "non-integer cell 'two' at line 3, column 'truth'"),
        ("x1,truth\nbad,1\n2.0\n", read_truth_csv, "line 3 has 1 cells, header has 2"),
        ("truth,x1\n1,bad\n", read_truth_csv, None),
    ],
    ids=["batch past bad truth", "batch beside bad truth", "truth past bad feature",
         "truth past bad feature to short row", "truth beside bad feature"],
)
def test_each_reader_skips_the_cells_it_does_not_parse(tmp_path, text, reader, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    if message is None:
        np.testing.assert_array_equal(reader(path, "truth"), [1])
        return
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
        reader(path, "truth")


@pytest.mark.parametrize("p", [1, 2, 7])
def test_block_edges_at_the_shipped_budget(tmp_path, p):
    block = cio._BLOCK_CELLS // (p + 1)
    gen = np.random.default_rng(p)
    for n in (1, block - 1, block, block + 1, 2 * block + 3):
        batch = TestBatch(features=gen.normal(size=(n, p)) * 1e3, truth=gen.integers(1, 3, size=n))
        path = tmp_path / f"b{n}.csv"
        write_batch_csv(path, batch)
        back = read_batch_csv(path, truth_column="truth")
        assert bits(back.features) == bits(batch.features)
        assert bits(read_truth_csv(path, "truth")) == bits(batch.truth)


class TestReadTruthCsv:
    def test_reads_only_the_truth(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,truth,x2\nbad,1,nan\n\n,3, inf\n1e999,2,\n")
        np.testing.assert_array_equal(read_truth_csv(path, "truth"), [1, 3, 2])
        assert read_truth_csv(path, "truth").dtype == np.int64

    def test_int64_edges(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("truth\n9223372036854775807\n-9223372036854775808\n")
        np.testing.assert_array_equal(read_truth_csv(path, "truth"), [2**63 - 1, -(2**63)])

    def test_truth_only_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("truth\n2\n 1 \n")
        np.testing.assert_array_equal(read_truth_csv(path, "truth"), [2, 1])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            ("x1,truth\n", "no data rows"),
            ("x1,x1\n1,2\n", "duplicate column name 'x1'"),
            ("x1,label\n1,2\n", "truth column 'truth' not in header ['x1', 'label']"),
            ("\nx1,truth\n1,2\n", "truth column 'truth' not in header []"),
            ("x1,truth\n1,2\n\n3\n", "line 4 has 1 cells, header has 2"),
            ("x1,truth\n1,2\nx,1.0\n", "non-integer cell '1.0' at line 3, column 'truth'"),
            (
                "x1,truth\n1,2\nx,9223372036854775808\n",
                "non-int64 cell '9223372036854775808' at line 3, column 'truth'",
            ),
            (
                "x1,truth\n1,-9223372036854775809\n",
                "non-int64 cell '-9223372036854775809' at line 2, column 'truth'",
            ),
        ],
    )
    def test_rejects_malformed(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_truth_csv(path, "truth")


@pytest.mark.parametrize("reader", ["read_batch_csv", "load_csv"])
def test_peak_memory_is_a_few_arrays(tmp_path, reader):
    # the per-block float arrays and their concatenation, plus one block of
    # cell strings; a whole-file parse holds every cell as a string
    gen = np.random.default_rng(5)
    batch = TestBatch(features=gen.normal(size=(1000, 200)), truth=np.repeat([1, 2, 3, 4], 250))
    path = tmp_path / "wide.csv"
    write_batch_csv(path, batch)
    tracemalloc.start()
    try:
        if reader == "load_csv":
            out = load_csv(path, "truth")[0].features
        else:
            out = read_batch_csv(path, truth_column="truth").features
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1000, 200)
    assert peak <= 4 * out.nbytes, peak / out.nbytes
