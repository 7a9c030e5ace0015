"""File formats: CSV datasets, experiment configs, result tables, class-moment JSON.

Numeric round-trips are exact: floats are written as their shortest
repr (which reparses to the identical float64), so saving and loading a
table or a ``ClassModel`` reproduces it bit for bit.

Every CSV read, results and prediction-sets tables included, goes through
one reader, ``_read_table``, with one policy: blank lines are skipped, the
header names each column once, and every row has a cell per header
column. It streams the table in blocks of rows. ``csv.reader`` splits
the lines; once the header is checked, rows are gathered into blocks of at
most ``_BLOCK_CELLS`` cells (8192, at least one row), and each block is
cast with one ``np.array(..., dtype=np.float64)`` call. numpy converts a
string cell through Python's ``float()``, so it accepts and rejects exactly
the cells a per-cell loop would. Labels are mapped and outlier rows split
per block, and the blocks' float arrays are joined once at the end. Only
when a block's cast raises does a per-cell loop run over that block, to
name the line and column of its first bad cell; a row with the wrong
number of cells is reported after the rows before it are checked, so the
first malformed line in file order is the one named.

A cell held as a Python string costs about ten times its float, so a
whole-file parse peaked near 12x the returned array. Streamed, the peak is
the per-block arrays and their join (about twice the array) plus one or
two blocks of strings: under 3x at 1000x200. ``read_batch_csv`` parses
only the features, never a truth column; ``read_truth_csv`` only the truth.

Every CSV is written by ``_write_csv``: the header, then one pre-joined line
per row, ended by ``"\r\n"``. A numeric row is the shortest reprs of its
floats, joined by commas, plus any integer cells: what ``csv.writer`` writes
for the same cells, none of which needs quoting, without a Python call per
cell. Lines are streamed to the file, so no text copy of the matrix is held.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import re
from contextlib import closing, contextmanager
from dataclasses import dataclass, fields
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import (
    ClassModel,
    DataError,
    LabeledDataset,
    PredictionSets,
    PValueMatrix,
    TestBatch,
)
from .datagen import (
    DEFAULT_ATOM_SEED,
    ScenarioConfig,
    check_seed,
    multi_class_config,
    one_class_config,
)
from .metrics import MetricsReport

__all__ = [
    "read_header",
    "load_csv",
    "read_batch_csv",
    "read_truth_csv",
    "write_dataset_csv",
    "write_batch_csv",
    "split_train_test",
    "ExperimentConfig",
    "load_config",
    "save_config",
    "write_results",
    "read_results",
    "render_results",
    "write_pvalues_csv",
    "write_thresholds_csv",
    "write_sets_csv",
    "read_sets_csv",
    "save_json",
    "load_json",
]


def _floats(values: list[float]) -> str:
    """Comma-joined shortest reprs of Python floats (as from ``tolist()``)."""
    return ",".join(map(repr, values))


@contextmanager
def _os_errors(verb: str, path):
    """Turn an OSError in the block into one DataError line naming ``path``."""
    try:
        yield
    except OSError as e:
        raise DataError(f"cannot {verb} {path}: {e.strerror or e}") from None


# Text is UTF-8 whatever the locale; everything written is ASCII.
def _open_read(path, **kwargs):
    with _os_errors("read", path):
        return open(path, encoding="utf-8", **kwargs)


def _open_write(path, **kwargs):
    with _os_errors("write", path):
        return open(path, "w", encoding="utf-8", **kwargs)


# Cells per block of parsed rows. Until its one cast, a block holds each
# cell as a Python string (about 80 bytes with its share of the row lists,
# against 8 bytes as a float), so the budget, not the file, bounds that copy.
# An interleaved sweep of 2^10 to 2^18 cells on a 2-vCPU x86 machine, reading
# 1000x201 and 800x201 CSVs, found every read time within run-to-run noise
# of the whole-file parse, and a tracemalloc peak rising from 2.2x to 11.8x
# the returned array; 2^13 cells keeps it near 2.5x.
_BLOCK_CELLS = 1 << 13


def _read_table(path):
    """Yield the checked header, then ``(rows, lines)`` blocks of non-blank rows.

    ``lines[i]`` is the file line on which ``rows[i]`` ends. A block holds
    at most ``_BLOCK_CELLS`` cells, and at least one row. A row whose cell
    count differs from the header's raises only after the rows before it
    have been yielded, so the caller checks those first and the first
    malformed line in file order is the one reported. Bytes that are not
    UTF-8, or a cell over ``csv``'s field size limit, are one DataError too.
    """
    with _open_read(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                dup = next(h for h in header if header.count(h) > 1)
                raise DataError(f"{path}: duplicate column name {dup!r}")
            yield header
            block_rows = max(1, _BLOCK_CELLS // max(1, len(header)))
            rows, lines = [], []
            yielded = False
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    if rows:
                        yield rows, lines
                    raise DataError(
                        f"{path}: line {reader.line_num} has {len(row)} cells, "
                        f"header has {len(header)}"
                    )
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == block_rows:
                    yield rows, lines
                    rows, lines = [], []
                    yielded = True
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e.reason}") from None
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}") from None
    if rows:
        yield rows, lines
    elif not yielded:
        raise DataError(f"{path}: no data rows")


def read_header(path) -> list[str]:
    """The header of a CSV, checked as every reader checks it; no row is read."""
    with closing(_read_table(path)) as table:
        return next(table)


def _column(path, header, name: str, role: str) -> int:
    if name not in header:
        raise DataError(f"{path}: {role} column {name!r} not in header {header}")
    return header.index(name)


def _feature_columns(path, header, name: str | None, role: str) -> list[int]:
    """Every column but the ``role`` column ``name`` (if named), in file order."""
    skip = None if name is None else _column(path, header, name, role)
    feature_cols = [c for c in range(len(header)) if c != skip]
    if not feature_cols:
        raise DataError(f"{path}: no feature columns besides the {role}")
    return feature_cols


def _parse_block(path, rows, lines, header, feature_cols) -> np.ndarray:
    """One block's feature cells as a float array. When the cast raises, the
    cells are checked one by one to name the first bad one in file order."""
    try:
        cells = np.array(list(map(itemgetter(*feature_cols), rows)), dtype=np.float64)
    except ValueError:
        _raise_bad_cell(path, rows, lines, header, feature_cols, float)
        raise
    return cells.reshape(len(rows), len(feature_cols))


def _raise_bad_cell(path, rows, lines, header, columns, parse) -> None:
    """Raise DataError naming the first cell of ``columns``, in file order,
    that ``parse`` rejects: ``float`` for features, ``int`` for truth."""
    kind = "non-numeric" if parse is float else "non-integer"
    for row, line in zip(rows, lines):
        for c in columns:
            cell = row[c].strip()
            try:
                parse(cell)
            except ValueError:
                raise DataError(
                    f"{path}: {kind} cell {cell!r} at line {line}, "
                    f"column {header[c]!r}"
                ) from None


def load_csv(
    path,
    label_column: str,
    outlier_label: str | None = None,
) -> tuple[LabeledDataset, TestBatch | None, dict[str, int]]:
    """Read a labeled CSV into training containers.

    The label column is named in the header; every other column is a float
    feature, kept in file order. Distinct labels map to 1..K by first
    appearance, and the dataset holds its rows sorted by class id, each
    class in file order. With ``outlier_label`` given, rows carrying that
    label are excluded from the map and split off into a test batch with
    truth K+1 (they can never be trained on).

    Returns
    -------
    (LabeledDataset, TestBatch | None, dict)
        The inlier dataset, the batch of outlier rows (None when no row
        carries ``outlier_label``), and the label -> id map.
    """
    table = _read_table(path)
    header = next(table)
    feature_cols = _feature_columns(path, header, label_column, "label")
    label_idx = header.index(label_column)

    label_map: dict[str, int] = {}
    labels: list[int] = []
    inliers, outliers = [], []
    for rows, lines in table:
        features = _parse_block(path, rows, lines, header, feature_cols)
        raw = [row[label_idx].strip() for row in rows]
        if outlier_label in raw:
            mask = np.array([r == outlier_label for r in raw])
            outliers.append(features[mask])
            features = features[~mask]
            raw = [r for r in raw if r != outlier_label]
        labels += [label_map.setdefault(r, len(label_map) + 1) for r in raw]
        inliers.append(features)
    if not labels:
        raise DataError(f"{path}: every row carries the outlier label")

    data = LabeledDataset(
        features=np.concatenate(inliers),
        labels=np.asarray(labels),
    )
    batch = None
    if outliers:
        out_features = np.concatenate(outliers)
        truth = np.full(out_features.shape[0], data.n_classes + 1)
        batch = TestBatch(features=out_features, truth=truth)
    return data, batch, label_map


def read_batch_csv(path, truth_column: str | None = None) -> TestBatch:
    """Read the features of a test CSV as an unlabeled batch.

    A named ``truth_column`` is left out of the features and never parsed;
    :func:`read_truth_csv` reads it.
    """
    table = _read_table(path)
    header = next(table)
    feature_cols = _feature_columns(path, header, truth_column, "truth")
    blocks = [_parse_block(path, rows, lines, header, feature_cols) for rows, lines in table]
    return TestBatch(features=np.concatenate(blocks))


def read_truth_csv(path, truth_column: str) -> np.ndarray:
    """Only the integer truth column of a test CSV, as int64.

    The other cells are split but never parsed, so a file that
    :func:`read_batch_csv` rejects for its feature cells, or for having no
    feature column, still gives its truth. Every row must have a cell per
    header column, and every truth cell must be an integer.
    """
    table = _read_table(path)
    header = next(table)
    t_idx = _column(path, header, truth_column, "truth")
    truth: list[int] = []
    for rows, lines in table:
        try:
            truth += [int(row[t_idx].strip()) for row in rows]
        except ValueError:
            _raise_bad_cell(path, rows, lines, header, [t_idx], int)
            raise
    return np.asarray(truth, dtype=np.int64)


def _write_csv(path, header: list[str], lines) -> None:
    """The comma-joined ``header``, then each pre-joined line, each ended by
    ``"\r\n"``, as ``csv.writer`` ends them."""
    with _open_write(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for line in lines:
            fh.write(line + "\r\n")


def _write_features(path, features: np.ndarray, tag: str | None, tags) -> None:
    """Columns x1..xp[,tag] with one integer from ``tags`` per row."""
    head = [f"x{j + 1}" for j in range(features.shape[1])]
    if tag is None:
        tails = repeat("")
    else:
        head.append(tag)
        tails = (f",{t}" for t in tags.tolist())
    lines = (_floats(row.tolist()) + t for row, t in zip(features, tails))
    _write_csv(path, head, lines)


def write_dataset_csv(path, data: LabeledDataset) -> None:
    """Columns x1..xp,label; floats written exactly."""
    _write_features(path, data.features, "label", data.labels)


def write_batch_csv(path, batch: TestBatch) -> None:
    """Columns x1..xp[,truth]; floats written exactly."""
    tag = None if batch.truth is None else "truth"
    _write_features(path, batch.features, tag, batch.truth)


def split_train_test(
    data: LabeledDataset,
    fraction: float = 0.7,
    seed: int = 0,
) -> tuple[LabeledDataset, TestBatch]:
    """Stratified split: round(fraction * n_k) rows of each class train.

    The test batch keeps class labels as truth (it contains no outliers;
    merge outlier rows separately). Errors out if any class would train on
    fewer than 3 rows or the test side would be empty.
    """
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for class_id, n_train in enumerate(_train_counts(data, fraction), start=1):
        perm = rng.permutation(np.flatnonzero(data.labels == class_id))
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    train = LabeledDataset(
        features=data.features[train_idx],
        labels=data.labels[train_idx],
    )
    test = TestBatch(
        features=data.features[test_idx], truth=data.labels[test_idx]
    )
    return train, test


def _train_counts(data: LabeledDataset, fraction: float) -> list[int]:
    """Training rows per class of ``split_train_test``, round(fraction * n_k)
    each: a DataError unless each is >= 3 and one row is left to test. The
    rule reads no seed, so one call checks every split of ``data``."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    counts = [int(math.floor(fraction * n + 0.5)) for n in data.class_counts.tolist()]
    for class_id, n_train in enumerate(counts, start=1):
        if n_train < 3:
            raise DataError(f"class {class_id} would train on {n_train} rows; needs >= 3")
    if sum(counts) == data.n:
        raise DataError("split leaves no test rows; lower the fraction")
    return counts


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; the grid is the cross product p x n_k x rho.

    For ``scenario: csv`` the grid is checked but not run, and replicates
    are repeated stratified train/test re-splits of the file.
    """

    scenario: str
    p: tuple[int, ...] = (500,)
    n_k: tuple[int, ...] = (500,)
    rho: tuple[float, ...] = (0.0,)
    m: int = 1000
    alpha: float = 0.05
    inlier_ratio: float = 3.0
    replicates: int = 10
    test_sets: int = 10
    mode: str = "empirical"
    master_seed: int = 0
    atom_seed: int = DEFAULT_ATOM_SEED
    out_dir: str = "results"
    csv_path: str | None = None
    label_column: str | None = None
    outlier_label: str | None = None
    train_fraction: float = 0.7

    def __post_init__(self):
        if self.scenario not in ("one_class", "multi_class", "csv"):
            raise DataError(f"unknown scenario {self.scenario!r}")
        if self.mode not in ("empirical", "oracle", "both"):
            raise DataError(f"unknown mode {self.mode!r}")
        for name in ("p", "n_k", "rho"):
            value = getattr(self, name)
            try:
                value = (value,) if np.isscalar(value) else tuple(value)
            except TypeError:  # None, a date or another non-iterable scalar
                value = (value,)
            if not value:
                raise DataError(f"{name} grid must not be empty")
            for entry in value:
                _check_number(f"each {name} value", entry, integer=name != "rho")
            object.__setattr__(self, name, value)
        for name in ("m", "replicates", "test_sets"):
            _check_number(name, getattr(self, name), integer=True)
        for name in ("alpha", "inlier_ratio", "train_fraction"):
            _check_number(name, getattr(self, name))
        for name in ("out_dir", "csv_path", "label_column", "outlier_label"):
            value = getattr(self, name)
            if not isinstance(value, str) and (value is not None or name == "out_dir"):
                raise DataError(f"{name} must be a string, got {value!r}")
        if self.replicates < 1 or self.test_sets < 1:
            raise DataError("replicates and test_sets must be >= 1")
        check_seed("master_seed", self.master_seed)
        # ScenarioConfig checks the ranges of the simulated fields, a csv
        # config's too, and two cells of one results name would write over
        # each other
        named = {}
        for cell in self.cells():
            self.cell_scenario(*cell)
            name = _cell_name(self.scenario, *cell)
            if name in named:
                raise DataError(
                    f"grid cells {named[name]} and {cell} share the results name {name!r}"
                )
            named[name] = cell
        if self.scenario != "csv":
            return
        if not self.csv_path or not self.label_column:
            raise DataError("csv scenario needs csv_path and label_column")
        if self.mode != "empirical":
            raise DataError("csv data has no oracle parameters; use mode: empirical")
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError(f"train_fraction must be in (0, 1), got {self.train_fraction}")

    def cells(self) -> list[tuple[int, int, float]]:
        return [(p, n, r) for p in self.p for n in self.n_k for r in self.rho]

    def cell_scenario(self, p: int, n_k: int, rho: float) -> ScenarioConfig:
        """The simulation design of the grid cell (p, n_k, rho)."""
        maker = one_class_config if self.scenario == "one_class" else multi_class_config
        return maker(
            p=p,
            n_k=n_k,
            rho=rho,
            m=self.m,
            alpha=self.alpha,
            inlier_ratio=self.inlier_ratio,
            atom_seed=self.atom_seed,
        )


def _cell_name(scenario: str, p: int, n_k: int, rho: float) -> str:
    """The results name of a grid cell, less its mode."""
    return f"{scenario}_p{p}_nk{n_k}_rho{rho:g}"


def _check_number(name: str, value, integer: bool = False) -> None:
    """DataError unless ``value`` is a number (an integer if ``integer``), not a bool."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise DataError(f"{name} must be {what}, got {value!r}")


_CONFIG_LIST_KEYS = {"p", "n_k", "rho"}


# YAML 1.2 floats that YAML 1.1, the version PyYAML reads, leaves as
# strings: an exponent without a dot before it or a sign in it (5e-2, 1e5).
_YAML12_FLOAT = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$")


# save_config and load_config import yaml when called, so the CLI commands
# that never touch a config do not pay for loading it.
def _yaml12():
    """yaml, and a SafeLoader and a SafeDumper that also resolve
    ``_YAML12_FLOAT``; the dumper quotes a string of that form."""
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    class Dumper(yaml.SafeDumper):
        pass

    for cls in (Loader, Dumper):
        cls.add_implicit_resolver(
            "tag:yaml.org,2002:float", _YAML12_FLOAT, list("-+.0123456789")
        )
    return yaml, Loader, Dumper


def save_config(config: ExperimentConfig, path) -> None:
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        doc[f.name] = list(value) if f.name in _CONFIG_LIST_KEYS else value
    yaml, _, dumper = _yaml12()
    with _open_write(path) as fh:
        yaml.dump(doc, fh, Dumper=dumper, sort_keys=False)


def load_config(path) -> ExperimentConfig:
    yaml, loader, _ = _yaml12()
    with _open_read(path) as fh:
        try:
            doc = yaml.load(fh, Loader=loader)
        except (yaml.YAMLError, UnicodeDecodeError) as e:
            mark = getattr(e, "problem_mark", None)
            where = f" line {mark.line + 1}:" if mark is not None else ""
            problem = getattr(e, "problem", None) or str(e).splitlines()[0]
            raise DataError(f"{path}:{where} not valid YAML: {problem}") from None
    known = {f.name for f in fields(ExperimentConfig)}
    try:
        unknown = doc.keys() - known
    except AttributeError:
        raise DataError(f"{path}: config must be a flat key: value mapping") from None
    if unknown:
        raise DataError(f"{path}: unknown config keys {sorted(unknown, key=str)}")
    if "scenario" not in doc:
        raise DataError(f"{path}: config needs a scenario")
    try:
        return ExperimentConfig(**doc)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# result tables


def _aggregate(reports: list[MetricsReport]) -> list[tuple[str, float, float]]:
    if not reports:
        raise DataError("no reports to aggregate")
    names = [name for name, _ in reports[0].rows()]
    rows = [[v for _, v in r.rows()] for r in reports]
    if any(len(row) != len(names) for row in rows):
        raise DataError("reports have inconsistent class counts")
    table = np.asarray(rows, dtype=np.float64)
    means = table.mean(axis=0)
    stds = table.std(axis=0, ddof=1) if len(reports) > 1 else np.zeros(len(names))
    return list(zip(names, means.tolist(), stds.tolist()))


def render_results(
    reports: list[MetricsReport], time_s: float | None = None
) -> str:
    """mean(std) text table, three decimals."""
    rows = _aggregate(reports)
    width = max(len(n) for n, _, _ in rows) + 2
    lines = [f"{'metric':<{width}}mean(std)  [{len(reports)} runs]"]
    for name, mean, std in rows:
        lines.append(f"{name:<{width}}{mean:.3f}({std:.3f})")
    if time_s is not None:
        lines.append(f"{'time_s':<{width}}{time_s:.3f}")
    return "\n".join(lines) + "\n"


def write_results(
    reports: list[MetricsReport],
    path,
    time_s: float | None = None,
) -> str:
    """Write metric,mean,std CSV plus a rendered text table next to it.

    The CSV keeps full float precision; the sibling ``.txt`` holds the
    three-decimal mean(std) rendering, which is also returned.
    """
    path = Path(path)
    lines = [f"{name},{mean!r},{std!r}" for name, mean, std in _aggregate(reports)]
    if time_s is not None:
        lines.append(f"time_s,{float(time_s)!r},0.0")
    _write_csv(path, ["metric", "mean", "std"], lines)
    text = render_results(reports, time_s)
    with _open_write(path.with_suffix(".txt")) as fh:
        fh.write(text)
    return text


def read_results(path) -> dict[str, tuple[float, float]]:
    """Parse a results CSV back into {metric: (mean, std)}."""
    table = _read_table(path)
    if next(table) != ["metric", "mean", "std"]:
        raise DataError(f"{path}: not a results table")
    out = {}
    for rows, lines in table:
        for row, line in zip(rows, lines):
            try:
                out[row[0]] = (float(row[1]), float(row[2]))
            except ValueError:
                raise DataError(
                    f"{path}: line {line}: non-numeric mean or std in {row}"
                ) from None
    return out


# ---------------------------------------------------------------------------
# prediction outputs


def write_pvalues_csv(path, pvals: PValueMatrix) -> None:
    k = pvals.n_classes
    head = (
        ["index"]
        + [f"raw_{c + 1}" for c in range(k)]
        + [f"adjusted_{c + 1}" for c in range(k)]
    )
    rows = np.hstack([pvals.raw, pvals.adjusted])
    _write_csv(path, head, (f"{i},{_floats(row.tolist())}" for i, row in enumerate(rows)))


def write_thresholds_csv(path, pvals: PValueMatrix) -> None:
    alpha = repr(float(pvals.alpha))
    lines = (f"{c},{t!r},{alpha}" for c, t in enumerate(pvals.thresholds.tolist(), start=1))
    _write_csv(path, ["class", "threshold", "alpha"], lines)


def write_sets_csv(path, sets: PredictionSets) -> None:
    """Columns index,size,labels with labels ';'-joined, empty for outliers."""
    lines = (f"{i},{len(s)},{';'.join(map(str, sorted(s)))}" for i, s in enumerate(sets.sets))
    _write_csv(path, ["index", "size", "labels"], lines)


def read_sets_csv(path, n_classes: int) -> PredictionSets:
    """Read the sets that :func:`write_sets_csv` wrote, as an (m, K) mask.

    Row i must hold index i, a ';'-joined list of labels in 1..n_classes,
    and the size of that set; any other row is one ``DataError`` naming
    its line.
    """
    table = _read_table(path)
    if next(table) != ["index", "size", "labels"]:
        raise DataError(f"{path}: not a prediction-sets table")
    member = []
    for rows, lines in table:
        for (index, size, cell), line in zip(rows, lines):
            where = f"{path}: line {line}"
            if index.strip() != str(len(member)):
                raise DataError(f"{where}: index {index!r}, expected {len(member)}")
            cell = cell.strip()
            try:
                labels = [int(t) for t in cell.split(";")] if cell else []
            except ValueError:
                raise DataError(
                    f"{where}: labels cell {cell!r} is not a ';'-joined list of integers"
                ) from None
            row = [False] * n_classes
            for k in labels:
                if not 1 <= k <= n_classes:
                    raise DataError(f"{where}: set label {k} outside 1..{n_classes}")
                row[k - 1] = True
            if size.strip() != str(sum(row)):
                raise DataError(f"{where}: size {size!r}, but the set has {sum(row)}")
            member.append(row)
    return PredictionSets(np.array(member, dtype=bool))


# ---------------------------------------------------------------------------
# class moments as JSON


def save_json(model: ClassModel, path) -> None:
    """Write ``model`` as ``{"kind": "ClassModel", "means": ..., "variances": ...}``."""
    doc = {
        "kind": "ClassModel",
        "means": model.means.tolist(),
        "variances": model.variances.tolist(),
    }
    with _open_write(path) as fh:
        json.dump(doc, fh)


def load_json(path) -> ClassModel:
    """Read a ``ClassModel`` written by :func:`save_json`, bit for bit.

    Every problem with the file is one ``DataError`` line naming it.
    """
    with _open_read(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise DataError(f"{path}: not valid JSON: {e}") from None
    try:
        kind = doc["kind"]
    except (KeyError, TypeError):
        raise DataError(f"{path}: not a tagged container document") from None
    if kind != "ClassModel":
        raise DataError(f"{path}: unknown container kind {kind!r}")
    try:
        return ClassModel(
            means=np.asarray(doc["means"], dtype=np.float64),
            variances=np.asarray(doc["variances"], dtype=np.float64),
        )
    except DataError as e:
        raise DataError(f"{path}: {e}") from None
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(
            f"{path}: malformed ClassModel document: {type(e).__name__} {e}"
        ) from None
