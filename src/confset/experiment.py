"""Grid experiment runner: replicated simulations aggregated into tables.

An experiment is a cross product of (dimension, training size, correlation)
cells. Each cell runs ``replicates`` independent draws; each draw fits one
training set and scores ``test_sets`` fresh batches, so a cell aggregates
replicates * test_sets metric reports per predictor. A ``csv`` experiment
is one cell whose replicates are stratified re-splits of a labeled file,
one batch each. Both kinds of replicate predict and evaluate their batches
in one loop, and ``validate``'s benchmark tables are one-cell experiments
run through :func:`run_cell`, so every replicated table comes from here.

Determinism: the replicate stream seed is derived from
(master_seed, cell_index, replicate_index) through ``SeedSequence``, so
results depend only on the config — not on worker count or scheduling.
Reported time is the wall-clock spent inside prediction alone, with the
one class fit per training set counted in the empirical mode's time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .conformal import predict
from .core import ClassModel, LabeledDataset, TestBatch
from .datagen import (
    ScenarioConfig,
    make_atoms,
    generate_test_batch,
    generate_training,
    oracle_params,
    with_run_seed,
)
from .io import ExperimentConfig, load_csv, save_config, split_train_test, write_results
from .io import _cell_name, _os_errors, _train_counts
from .metrics import MetricsReport, evaluate_sets
from .scoring import fit_model

__all__ = [
    "replicate_seed",
    "run_replicate",
    "run_cell",
    "run_experiment",
    "CellResult",
]


def replicate_seed(master_seed: int, cell_index: int, rep: int) -> int:
    """Independent, reproducible stream seed for one replicate of one cell."""
    return int(
        np.random.SeedSequence([master_seed, cell_index, rep]).generate_state(1)[0]
    )


def _score_batches(
    train: LabeledDataset,
    batches,
    alpha: float,
    models: dict[str, ClassModel | None],
) -> tuple[dict[str, list[MetricsReport]], dict[str, float]]:
    """Predict every batch once per mode and evaluate its sets, timing the
    fit and ``predict`` per mode. ``models`` maps each mode to the class
    moments its ``predict`` calls score with; ``None``, as in ``predict``,
    stands for the moments fitted on ``train``, fitted once here."""
    reports: dict[str, list[MetricsReport]] = {mode: [] for mode in models}
    seconds = dict.fromkeys(models, 0.0)
    models = dict(models)
    for mode, model in models.items():
        if model is None:
            started = time.perf_counter()
            models[mode] = fit_model(train)
            seconds[mode] += time.perf_counter() - started
    for batch in batches:
        for mode, model in models.items():
            started = time.perf_counter()
            _, sets = predict(train, batch, alpha, oracle=model)
            seconds[mode] += time.perf_counter() - started
            reports[mode].append(evaluate_sets(sets, batch.truth))
    return reports, seconds


def run_replicate(
    config: ScenarioConfig,
    test_sets: int,
    modes: tuple[str, ...],
) -> tuple[dict[str, list[MetricsReport]], dict[str, float]]:
    """One training draw scored on ``test_sets`` fresh batches per mode.

    Both modes see the identical data; they differ only in whether class
    parameters are estimated from the training set, once per replicate, or
    taken as known. The fit's time counts to the empirical seconds.
    """
    atoms = make_atoms(config.atom_seed, config.p)
    rng = np.random.default_rng(config.run_seed)
    train = generate_training(config, rng, atoms)
    models = {
        mode: oracle_params(config) if mode == "oracle" else None for mode in modes
    }
    batches = (generate_test_batch(config, rng, atoms) for _ in range(test_sets))
    return _score_batches(train, batches, config.alpha, models)


def _split_replicate(
    data: LabeledDataset,
    outliers: TestBatch | None,
    fraction: float,
    alpha: float,
    seed: int,
) -> tuple[dict[str, list[MetricsReport]], dict[str, float]]:
    """One stratified re-split of a labeled file, scored in the empirical
    mode; every outlier row joins the test batch."""
    train, batch = split_train_test(data, fraction, seed)
    if outliers is not None:
        batch = TestBatch(
            features=np.vstack([batch.features, outliers.features]),
            truth=np.concatenate([batch.truth, outliers.truth]),
        )
    return _score_batches(train, [batch], alpha, {"empirical": None})


def _map_jobs(run, jobs, workers: int):
    """``run(job)`` for each job, in order; ``run`` pickles (a top-level
    function or a ``partial`` of one)."""
    if workers <= 1 or len(jobs) <= 1:
        return [run(job) for job in jobs]
    # Imported here: only a parallel run pays for loading the process pool.
    from concurrent.futures import ProcessPoolExecutor

    # the pool starts all its workers at once, so never more than there are jobs
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(run, jobs))


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
    modes = ("empirical", "oracle") if exp.mode == "both" else (exp.mode,)
    base = exp.cell_scenario(p, n_k, rho)
    configs = [
        with_run_seed(base, replicate_seed(exp.master_seed, cell_index, r))
        for r in range(exp.replicates)
    ]
    run = partial(run_replicate, test_sets=exp.test_sets, modes=modes)
    return _pool_cell(exp.scenario, p, n_k, rho, _map_jobs(run, configs, workers))


def _run_csv_experiment(
    exp: ExperimentConfig, data: LabeledDataset, outliers: TestBatch | None, workers: int
) -> CellResult:
    seeds = [replicate_seed(exp.master_seed, 0, r) for r in range(exp.replicates)]
    run = partial(_split_replicate, data, outliers, exp.train_fraction, exp.alpha)
    outputs = _map_jobs(run, seeds, workers)
    return _pool_cell("csv", data.n_features, min(data.class_counts), 0.0, outputs)


def run_experiment(
    exp: ExperimentConfig,
    workers: int = 1,
    echo=None,
) -> list[CellResult]:
    """Run every grid cell and write one results table per cell and mode.

    ``out_dir`` receives ``<tag>.csv`` / ``<tag>.txt`` per table plus a copy
    of the resolved config. ``echo`` (e.g. ``print``) receives progress lines
    and rendered tables.
    """
    if exp.scenario == "csv":  # an unreadable file or split leaves no out_dir behind
        data, outliers, _ = load_csv(exp.csv_path, exp.label_column, exp.outlier_label)
        _train_counts(data, exp.train_fraction)
    out_dir = Path(exp.out_dir)
    with _os_errors("create", out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    save_config(exp, out_dir / "config.yaml")
    if exp.scenario == "csv":
        cells = [_run_csv_experiment(exp, data, outliers, workers)]
    else:
        cells = [run_cell(exp, i, workers) for i in range(len(exp.cells()))]
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
