"""Grid experiment runner: replicated simulations aggregated into tables.

An experiment is a cross product of (dimension, training size, correlation)
cells. Each cell runs ``replicates`` independent draws; each draw fits one
training set and scores ``test_sets`` fresh batches, so a cell aggregates
replicates * test_sets metric reports per predictor. A ``csv`` experiment
is one cell whose replicates are stratified re-splits of a labeled file,
one batch each. Both kinds of replicate predict and evaluate their batches
in one loop, and ``validate``'s benchmark tables are one-cell experiments
run through :func:`run_cell`, so every replicated table comes from here.
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
more batch; the workers of a process pool draw their batches in order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .conformal import PREDICTORS, predict
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
from .io import _cell_name, _os_errors
from .metrics import MetricsReport, evaluate_sets

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
            _, sets = predict(train, batch, alpha, **row)
            seconds[mode] += time.perf_counter() - started
            reports[mode].append(evaluate_sets(sets, batch.truth))
    return reports, seconds


# False in a process-pool worker, whose sibling workers already fill the cores
# that a helper thread would draw on.
_draw_ahead = True


def _draw_in_order() -> None:
    global _draw_ahead
    _draw_ahead = False


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
    take are the design's ``oracle_params``. Outside a process pool, one
    helper thread draws the batches from the replicate's stream, each one
    while the batch before it is predicted (numpy's fills release the GIL).
    It alone uses the stream after the training draw and draws in order,
    so the reports equal those of an in-order draw, and a failing draw or
    ``predict`` raises the same error once the helper has stopped.
    """
    atoms = make_atoms(config.atom_seed, config.p)
    rng = np.random.default_rng(config.run_seed)
    train = generate_training(config, rng, atoms)
    draw = partial(generate_test_batch, config, rng, atoms)
    known = oracle_params(config)
    if not _draw_ahead or test_sets < 1:
        batches = (draw() for _ in range(test_sets))
        return _score_batches(train, batches, config.alpha, modes, known)
    # Imported here, as the process pool is: the CLI does not pay for loading it.
    from concurrent.futures import ThreadPoolExecutor

    # leaving the block joins the helper, also when a draw or a predict raises
    with ThreadPoolExecutor(max_workers=1) as helper:
        batches = _one_ahead(helper, draw, helper.submit(draw), test_sets - 1)
        return _score_batches(train, batches, config.alpha, modes, known)


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
    at one worker, is raised once the jobs in flight end. Pool workers draw
    each replicate's batches in order, on no helper thread."""
    if workers <= 1 or len(jobs) <= 1:
        return [run(job) for job in jobs]
    # Imported here: only a parallel run pays for loading the process pool.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    # the pool starts all its workers at once, so never more than there are jobs
    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(max_workers=workers, initializer=_draw_in_order) as pool:
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
