"""Grid experiments: the config, its YAML, and replicated runs aggregated into tables.

An ``ExperimentConfig`` (YAML through :func:`load_config` and
:func:`save_config`) is a cross product of (dimension, training size,
correlation) cells. Each cell runs ``replicates`` independent draws; each
draw fits one training set and scores ``test_sets`` fresh batches, so a
cell aggregates replicates * test_sets metric reports per predictor. A
``csv`` experiment is one cell whose replicates are stratified re-splits
(:func:`split_train_test`) of a labeled file, one batch each. Both kinds
of replicate predict and evaluate their batches in one loop, and
``validate``'s benchmark tables are one-cell experiments run through
:func:`run_cell`, so every replicated table comes from here.
:func:`run_experiment` computes every cell before it makes ``out_dir``,
so a run that fails part way writes nothing.

Determinism: the replicate stream seed is derived from
(master_seed, cell_index, replicate_index) through ``SeedSequence``, so
results depend only on the config — not on worker count or scheduling.
Reported time is the wall-clock spent inside prediction alone, with each
``conformal.PREDICTORS`` row call, which makes the class fit and scores the
calibration rows once per training set, counted to that row's name. In the
calling process a helper thread draws a replicate's next test batch during
that time, so prediction shares the cores with it and a replicate holds one
more batch. That thread is the process's one helper, so ``score_classes``
then scores every batch on the calling thread. The workers of a process
pool draw their batches in order: ``scoring._one_helper`` starts no helper
in a process that multiprocessing started.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .conformal import PREDICTORS, predict
from .core import ClassModel, DataError, LabeledDataset, TestBatch
from .datagen import (
    SCENARIOS, ScenarioConfig, check_number, check_seed, make_atoms,
    generate_test_batch, generate_training, oracle_params, with_run_seed,
)
from .io import _opened, _os_errors, load_csv, write_results
from .metrics import MetricsReport, evaluate_sets
from .scoring import _one_helper

__all__ = [
    "ExperimentConfig",
    "load_config",
    "save_config",
    "split_train_test",
    "replicate_seed",
    "run_replicate",
    "run_cell",
    "run_experiment",
    "CellResult",
]


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; the grid is the cross product p x n_k x rho.

    For ``scenario: csv`` the grid is checked but not run, and replicates
    are repeated stratified train/test re-splits of the file.
    """

    scenario: str
    p: tuple[int, ...] = (ScenarioConfig.p,)
    n_k: tuple[int, ...] = (ScenarioConfig.n_k,)
    rho: tuple[float, ...] = (ScenarioConfig.rho,)
    m: int = ScenarioConfig.m
    alpha: float = ScenarioConfig.alpha
    inlier_ratio: float = ScenarioConfig.inlier_ratio
    replicates: int = 10
    test_sets: int = 10
    mode: tuple[str, ...] = ("empirical",)
    master_seed: int = 0
    atom_seed: int = ScenarioConfig.atom_seed
    out_dir: str = "results"
    csv_path: str | None = None
    label_column: str | None = None
    outlier_label: str | None = None
    train_fraction: float = 0.7

    def __post_init__(self):
        if self.scenario not in ("csv", *SCENARIOS):
            raise DataError(f"unknown scenario {self.scenario!r}")
        mode = tuple(self.mode) if isinstance(self.mode, (list, tuple)) else (self.mode,)
        object.__setattr__(self, "mode", mode)
        named = {name for name in mode if isinstance(name, str) and name in PREDICTORS}
        if not mode or len(named) < len(mode):  # empty, unknown or repeated
            rows = list(PREDICTORS)
            raise DataError(f"mode must name distinct predictors of {rows}, got {list(mode)}")
        for name in ("p", "n_k", "rho"):
            value = getattr(self, name)
            value = tuple(value) if isinstance(value, (list, tuple)) else (value,)
            if not value:
                raise DataError(f"{name} grid must not be empty")
            object.__setattr__(self, name, value)
        for name in ("replicates", "test_sets", "train_fraction"):
            check_number(name, getattr(self, name), integer=name != "train_fraction")
        for name in ("out_dir", "csv_path", "label_column", "outlier_label"):
            value = getattr(self, name)
            if not isinstance(value, str) and (value is not None or name == "out_dir"):
                raise DataError(f"{name} must be a string, got {value!r}")
        if self.replicates < 1 or self.test_sets < 1:
            raise DataError("replicates and test_sets must be >= 1")
        check_seed("master_seed", self.master_seed)
        # ScenarioConfig checks the type and range of each simulated field,
        # a csv config's too, and two cells of one results name would write
        # over each other
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
        if "oracle" in self.mode:
            raise DataError("csv data has no oracle parameters; leave oracle out of mode")
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError(f"train_fraction must be in (0, 1), got {self.train_fraction}")

    def cells(self) -> list[tuple[int, int, float]]:
        return [(p, n, r) for p in self.p for n in self.n_k for r in self.rho]

    def cell_scenario(self, p: int, n_k: int, rho: float) -> ScenarioConfig:
        """The simulation design of the grid cell (p, n_k, rho): the cell's
        grid values and every other field this config shares with
        ``ScenarioConfig``, by name."""
        shared = {f.name for f in fields(ScenarioConfig)} & {f.name for f in fields(self)}
        design = {name: getattr(self, name) for name in shared} | dict(p=p, n_k=n_k, rho=rho)
        return SCENARIOS.get(self.scenario, ScenarioConfig)(**design)


def _cell_name(scenario: str, p: int, n_k: int, rho: float) -> str:
    """The results name of a grid cell, less its mode."""
    return f"{scenario}_p{p}_nk{n_k}_rho{rho:g}"


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
        doc[f.name] = list(value) if isinstance(value, tuple) else value
    yaml, _, dumper = _yaml12()
    with _opened(path, "w") as fh:
        yaml.dump(doc, fh, Dumper=dumper, sort_keys=False)


def load_config(path) -> ExperimentConfig:
    yaml, loader, _ = _yaml12()
    with _opened(path) as fh:
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
# replication engine


def replicate_seed(master_seed: int, cell_index: int, rep: int) -> int:
    """Independent, reproducible stream seed for one replicate of one cell."""
    return int(
        np.random.SeedSequence([master_seed, cell_index, rep]).generate_state(1)[0]
    )


def _score_batches(
    train: LabeledDataset,
    batches,
    alpha: float,
    modes: tuple[str, ...],
    known: ClassModel | None = None,
) -> tuple[dict[str, list[MetricsReport]], dict[str, float]]:
    """Predict every batch once per row of ``PREDICTORS`` named in ``modes``
    and evaluate its sets. Each row is called once, with ``known`` as its
    known moments, so its fit and training scores serve every batch; its
    call and its ``predict`` calls are timed under its name."""
    reports: dict[str, list[MetricsReport]] = {mode: [] for mode in modes}
    seconds, rows = {}, {}
    for mode in modes:
        started = time.perf_counter()
        rows[mode] = PREDICTORS[mode](train, known, None)
        seconds[mode] = time.perf_counter() - started
    for batch in batches:
        for mode, row in rows.items():
            started = time.perf_counter()
            _, sets = predict(train, batch, alpha, rank=row)
            seconds[mode] += time.perf_counter() - started
            reports[mode].append(evaluate_sets(sets, batch.truth))
    return reports, seconds


def _one_ahead(helper, draw, pending, left: int):
    """``pending``'s result, then ``left`` more results of ``draw``. Each
    call is submitted to ``helper`` as the result before it is handed out,
    so the calls run one at a time and in order, one ahead of the caller."""
    for _ in range(left):
        ready = pending.result()
        pending = helper.submit(draw)
        yield ready
    yield pending.result()


def run_replicate(
    config: ScenarioConfig,
    test_sets: int,
    modes: tuple[str, ...],
) -> tuple[dict[str, list[MetricsReport]], dict[str, float]]:
    """One training draw scored on ``test_sets`` fresh batches per
    predictor named in ``modes``.

    Every predictor sees the identical data; the known moments its row may
    take are the design's ``oracle_params``. Outside a process pool, the
    process's one helper thread (``scoring._one_helper``) draws the batches
    from the replicate's stream, each one while the batch before it is
    predicted (numpy's fills release the GIL), so ``predict`` splits no
    batch across threads meanwhile. The helper alone uses the stream after
    the training draw and draws in order, so the reports equal those of an
    in-order draw, and a failing draw or ``predict`` raises the same error
    once the helper has stopped.
    """
    atoms = make_atoms(config.atom_seed, config.p)
    rng = np.random.default_rng(config.run_seed)
    train = generate_training(config, rng, atoms)
    draw = partial(generate_test_batch, config, rng, atoms)
    known = oracle_params(config)
    # leaving the block joins the helper, also when a draw or a predict raises
    with _one_helper(test_sets > 0) as helper:
        if helper is None:
            batches = (draw() for _ in range(test_sets))
        else:
            batches = _one_ahead(helper, draw, helper.submit(draw), test_sets - 1)
        return _score_batches(train, batches, config.alpha, modes, known)


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
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    counts = [int(math.floor(fraction * n + 0.5)) for n in data.class_counts.tolist()]
    for class_id, n_train in enumerate(counts, start=1):
        if n_train < 3:
            raise DataError(f"class {class_id} would train on {n_train} rows; needs >= 3")
    if sum(counts) == data.n:
        raise DataError("split leaves no test rows; lower the fraction")
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for class_id, n_train in enumerate(counts, start=1):
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


def _split_replicate(
    data: LabeledDataset,
    outliers: TestBatch | None,
    fraction: float,
    alpha: float,
    modes: tuple[str, ...],
    seed: int,
) -> tuple[dict[str, list[MetricsReport]], dict[str, float]]:
    """One stratified re-split of a labeled file, scored by each predictor
    in ``modes``; every outlier row joins the test batch."""
    train, batch = split_train_test(data, fraction, seed)
    if outliers is not None:
        batch = TestBatch(
            features=np.vstack([batch.features, outliers.features]),
            truth=np.concatenate([batch.truth, outliers.truth]),
        )
    return _score_batches(train, [batch], alpha, modes)


def _map_jobs(run, jobs, workers: int):
    """``run(job)`` for each job, in job order; ``run`` pickles (a top-level
    function or a ``partial`` of one). At most ``workers`` jobs run at once
    and none starts after one fails, so the first failure in job order, as
    at one worker, is raised once the jobs in flight end. A pool worker
    starts no helper thread (``scoring._one_helper``), so it draws each
    replicate's batches in order and scores each batch on one thread."""
    if workers <= 1 or len(jobs) <= 1:
        return [run(job) for job in jobs]
    # Imported here: only a parallel run pays for loading the process pool.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    # the pool starts all its workers at once, so never more than there are jobs
    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures, running = [], set()
        for job in jobs:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(future.exception() is not None for future in done):
                    break
            futures.append(pool.submit(run, job))
            running.add(futures[-1])
        return [future.result() for future in futures]


@dataclass(frozen=True)
class CellResult:
    """Aggregated output of one grid cell."""

    scenario: str
    p: int
    n_k: int
    rho: float
    reports: dict[str, list[MetricsReport]]
    predict_seconds: dict[str, float]

    def tag(self, mode: str) -> str:
        return f"{_cell_name(self.scenario, self.p, self.n_k, self.rho)}_{mode}"


def _pool_cell(scenario: str, p: int, n_k: int, rho: float, outputs) -> CellResult:
    """One cell from the (reports, seconds) pairs of its replicates."""
    reports, seconds = {}, {}
    for rep_reports, rep_seconds in outputs:
        for mode, mode_reports in rep_reports.items():
            reports.setdefault(mode, []).extend(mode_reports)
            seconds[mode] = seconds.get(mode, 0.0) + rep_seconds[mode]
    return CellResult(scenario, p, n_k, rho, reports, seconds)


def run_cell(exp: ExperimentConfig, cell_index: int = 0, workers: int = 1) -> CellResult:
    """All replicates of the simulated grid cell ``exp.cells()[cell_index]``."""
    p, n_k, rho = exp.cells()[cell_index]
    base = exp.cell_scenario(p, n_k, rho)
    configs = [
        with_run_seed(base, replicate_seed(exp.master_seed, cell_index, r))
        for r in range(exp.replicates)
    ]
    run = partial(run_replicate, test_sets=exp.test_sets, modes=exp.mode)
    return _pool_cell(exp.scenario, p, n_k, rho, _map_jobs(run, configs, workers))


def run_experiment(
    exp: ExperimentConfig,
    workers: int = 1,
    echo=None,
) -> list[CellResult]:
    """Run every grid cell and write one results table per cell and predictor.

    Every cell is computed before anything is written, so a bad input or a
    failing cell leaves no ``out_dir``. Then ``out_dir`` receives a copy of
    the resolved config and ``<tag>.csv`` / ``<tag>.txt`` per table; an
    ``out_dir`` that cannot be created is therefore reported only after
    every cell ran.
    ``echo`` (e.g. ``print``) receives each table's heading and text.
    """
    if exp.scenario == "csv":
        data, outliers, _ = load_csv(exp.csv_path, exp.label_column, exp.outlier_label)
        seeds = [replicate_seed(exp.master_seed, 0, r) for r in range(exp.replicates)]
        run = partial(_split_replicate, data, outliers, exp.train_fraction, exp.alpha, exp.mode)
        outputs = _map_jobs(run, seeds, workers)
        cells = [_pool_cell("csv", data.n_features, min(data.class_counts), 0.0, outputs)]
    else:
        cells = [run_cell(exp, i, workers) for i in range(len(exp.cells()))]
    out_dir = Path(exp.out_dir)
    with _os_errors("create", out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    save_config(exp, out_dir / "config.yaml")
    for cell in cells:
        for mode, reports in cell.reports.items():
            tag = cell.tag(mode)
            text = write_results(
                reports, out_dir / f"{tag}.csv", time_s=cell.predict_seconds[mode]
            )
            if echo is not None:
                echo(f"== {tag} ==")
                echo(text)
    return cells
