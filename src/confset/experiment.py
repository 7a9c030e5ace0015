"""Grid experiment runner: replicated simulations aggregated into tables.

An experiment is a cross product of (dimension, training size, correlation)
cells. Each cell runs ``replicates`` independent draws; each draw fits one
training set and scores ``test_sets`` fresh batches, so a cell aggregates
replicates * test_sets metric reports per predictor.

Determinism: the replicate stream seed is derived from
(master_seed, cell_index, replicate_index) through ``SeedSequence``, so
results depend only on the config — not on worker count or scheduling.
Reported time is the wall-clock spent inside prediction alone, with the
one class fit per training set counted in the empirical mode's time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conformal import predict
from .core import ClassModel, DataError, LabeledDataset, TestBatch
from .datagen import (
    ScenarioConfig,
    make_atoms,
    generate_test_batch,
    generate_training,
    oracle_params,
    with_run_seed,
)
from .io import ExperimentConfig, load_csv, save_config, split_train_test, write_results
from .metrics import MetricsReport, evaluate_sets
from .scoring import fit_model

__all__ = [
    "evaluate_prediction",
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


def evaluate_prediction(
    train: LabeledDataset,
    batch: TestBatch,
    alpha: float,
    oracle: ClassModel | None = None,
    variance_floor: float | None = None,
) -> tuple[MetricsReport, float]:
    """Predict on one batch and score it. Returns (report, predict seconds)."""
    if batch.truth is None:
        raise DataError("cannot evaluate an unlabeled batch")
    started = time.perf_counter()
    _, sets = predict(train, batch, alpha, oracle=oracle, variance_floor=variance_floor)
    elapsed = time.perf_counter() - started
    return evaluate_sets(sets, batch.truth), elapsed


@dataclass(frozen=True)
class _SimJob:
    config: ScenarioConfig
    test_sets: int
    modes: tuple[str, ...]


@dataclass(frozen=True)
class _SplitJob:
    data: LabeledDataset
    outliers: TestBatch | None
    fraction: float
    alpha: float
    seed: int


def run_replicate(
    config: ScenarioConfig,
    test_sets: int,
    modes: tuple[str, ...],
) -> tuple[dict[str, list[MetricsReport]], dict[str, float]]:
    """One training draw scored on ``test_sets`` fresh batches per mode.

    Both modes see the identical data; they differ only in whether class
    parameters are estimated from the training set or taken as known. The
    training set is fitted once, and the fit is passed to every empirical
    ``predict`` as its class moments, which gives the same output as letting
    each call refit. The fit's time is added once to the empirical seconds.
    """
    atoms = make_atoms(config.atom_seed, config.p)
    rng = np.random.default_rng(config.run_seed)
    train = generate_training(config, rng, atoms)
    reports: dict[str, list[MetricsReport]] = {mode: [] for mode in modes}
    seconds = dict.fromkeys(modes, 0.0)
    models = {}
    if "empirical" in modes:
        started = time.perf_counter()
        models["empirical"] = fit_model(train)
        seconds["empirical"] += time.perf_counter() - started
    if "oracle" in modes:
        models["oracle"] = oracle_params(config)
    for _ in range(test_sets):
        batch = generate_test_batch(config, rng, atoms)
        for mode in modes:
            report, elapsed = evaluate_prediction(
                train, batch, config.alpha, oracle=models[mode]
            )
            reports[mode].append(report)
            seconds[mode] += elapsed
    return reports, seconds


def _run_sim_job(job: _SimJob):
    return run_replicate(job.config, job.test_sets, job.modes)


def _run_split_job(job: _SplitJob):
    train, batch = split_train_test(job.data, job.fraction, job.seed)
    if job.outliers is not None:
        batch = TestBatch(
            features=np.vstack([batch.features, job.outliers.features]),
            truth=np.concatenate([batch.truth, job.outliers.truth]),
        )
    report, elapsed = evaluate_prediction(train, batch, job.alpha)
    return {"empirical": [report]}, {"empirical": elapsed}


def _modes(exp: ExperimentConfig) -> tuple[str, ...]:
    return ("empirical", "oracle") if exp.mode == "both" else (exp.mode,)


def _map_jobs(run, jobs, workers: int):
    """``run(job)`` for each job, in order; ``run`` is top-level, so it pickles."""
    if workers <= 1 or len(jobs) <= 1:
        return [run(job) for job in jobs]
    # Imported here: only a parallel run pays for loading the process pool.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
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
        return f"{self.scenario}_p{self.p}_nk{self.n_k}_rho{self.rho:g}_{mode}"


def run_cell(
    exp: ExperimentConfig,
    p: int,
    n_k: int,
    rho: float,
    cell_index: int = 0,
    workers: int = 1,
) -> CellResult:
    """All replicates of one simulated grid cell."""
    modes = _modes(exp)
    base = exp.cell_scenario(p, n_k, rho)
    jobs = [
        _SimJob(
            config=with_run_seed(base, replicate_seed(exp.master_seed, cell_index, r)),
            test_sets=exp.test_sets,
            modes=modes,
        )
        for r in range(exp.replicates)
    ]
    outputs = _map_jobs(_run_sim_job, jobs, workers)
    reports: dict[str, list[MetricsReport]] = {mode: [] for mode in modes}
    seconds = dict.fromkeys(modes, 0.0)
    for rep_reports, rep_seconds in outputs:
        for mode in modes:
            reports[mode].extend(rep_reports[mode])
            seconds[mode] += rep_seconds[mode]
    return CellResult(
        scenario=exp.scenario,
        p=p,
        n_k=n_k,
        rho=rho,
        reports=reports,
        predict_seconds=seconds,
    )


def _run_csv_experiment(exp: ExperimentConfig, workers: int) -> CellResult:
    if exp.outlier_label is None:
        data, _ = load_csv(exp.csv_path, exp.label_column)
        outliers = None
    else:
        data, outliers, _ = load_csv(
            exp.csv_path, exp.label_column, outlier_label=exp.outlier_label
        )
    jobs = [
        _SplitJob(
            data=data,
            outliers=outliers,
            fraction=exp.train_fraction,
            alpha=exp.alpha,
            seed=replicate_seed(exp.master_seed, 0, r),
        )
        for r in range(exp.replicates)
    ]
    outputs = _map_jobs(_run_split_job, jobs, workers)
    reports = [r for rep_reports, _ in outputs for r in rep_reports["empirical"]]
    seconds = sum(s["empirical"] for _, s in outputs)
    return CellResult(
        scenario="csv",
        p=data.n_features,
        n_k=min(data.class_counts),
        rho=0.0,
        reports={"empirical": reports},
        predict_seconds={"empirical": seconds},
    )


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
    out_dir = Path(exp.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(exp, out_dir / "config.yaml")
    if exp.scenario == "csv":
        cells = [_run_csv_experiment(exp, workers)]
    else:
        cells = [
            run_cell(exp, p, n_k, rho, cell_index=i, workers=workers)
            for i, (p, n_k, rho) in enumerate(exp.cells())
        ]
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
