"""Self-tests of the benchmark at the smoke size.

    python3 -m pytest perfbench/selftest.py -q

They show that the output check can fail (a corrupted output raises
``error_ratio``), that the exact counts repeat for a seed, that every
declared metric is printed, and that the run refuses to start without the
program's source.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

workloads, spans = run.load()

from confset import PredictionSets, conformal, datagen, experiment  # noqa: E402

import reference  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
SECONDS = 0.5


def smoke(workload: str, trace: bool = False, seed: int = 7) -> dict:
    return run.run(workload, seed, SECONDS, trace, size="smoke")


def flipped(sets: PredictionSets) -> PredictionSets:
    member = sets.member.copy()
    member[0, 0] = not member[0, 0]
    return PredictionSets(member)


def test_reference_accepts_confset_and_flags_one_flipped_membership():
    config = datagen.multi_class_config(p=20, n_k=100, rho=0.8, m=200, run_seed=3)
    train, batch = datagen.generate(config)
    pvals, sets = conformal.predict(train, batch, 0.05)
    args = (train.features, train.labels, train.n_classes, batch.features, 0.05, pvals.raw, pvals.adjusted, pvals.thresholds)
    assert reference.check_prediction(*args, sets.member).ok
    bad = reference.check_prediction(*args, flipped(sets).member)
    assert bad.mismatches == 1 and "membership" in bad.detail


def _corrupt_predict_large(monkeypatch):
    real = workloads.PredictLarge.op

    def op(self, i, tracer):
        pvals, sets, report = real(self, i, tracer)
        return (pvals, flipped(sets), report) if i == 0 else (pvals, sets, report)

    monkeypatch.setattr(workloads.PredictLarge, "op", op)


def _corrupt_mc_replicates(monkeypatch):
    real_op, real_predict = workloads.McReplicates.op, experiment.predict

    def first_call_flipped(*args, **kwargs):
        pvals, sets = real_predict(*args, **kwargs)
        experiment.predict = real_predict
        return pvals, flipped(sets)

    def op(self, i, tracer):
        if i == 0:
            experiment.predict = first_call_flipped
        try:
            return real_op(self, i, tracer)
        finally:
            experiment.predict = real_predict

    monkeypatch.setattr(workloads.McReplicates, "op", op)


def _corrupt_cli_files(monkeypatch):
    real = workloads.CliFiles.op

    def op(self, i, tracer):
        out = real(self, i, tracer)
        if i == 0:
            path = out["dir"] / "r_sets.csv"
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            labels = {int(t) for t in rows[1][2].split(";") if t} ^ {1}
            rows[1][1:] = [str(len(labels)), ";".join(map(str, sorted(labels)))]
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        return out

    monkeypatch.setattr(workloads.CliFiles, "op", op)


CORRUPT = {
    "predict_large": _corrupt_predict_large,
    "mc_replicates": _corrupt_mc_replicates,
    "cli_files": _corrupt_cli_files,
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_error_ratio_counts_a_single_flipped_membership(workload, monkeypatch):
    CORRUPT[workload](monkeypatch)
    record = smoke(workload)
    assert "0" in record["failures"]
    assert record["failed"] == 1
    assert record["error_ratio"] == 1 / record["attempted"]
    assert record["metrics"]["success_ratio"]["value"] < 1.0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_is_correct_and_prints_every_end_to_end_metric(workload):
    record = smoke(workload)
    assert record["failed"] == 0 and record["error_ratio"] == 0
    assert list(record["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["provenance"]["nproc"] >= 1
    assert record["load"] == {"loop": "closed", "clients": 1}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly_for_a_seed(workload):
    first, second = smoke(workload, trace=True), smoke(workload, trace=True)
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = {name: first["metrics"][name]["value"] for name in spans.COUNT_NAMES}
    assert counts == {name: second["metrics"][name]["value"] for name in spans.COUNT_NAMES}
    assert counts["scoring.score_rows"] > 0 and counts["conformal.rejections"] > 0
    if workload == "cli_files":
        assert counts["io.bytes_read"] > 0 and counts["io.bytes_written"] > 0
    assert first["failed"] == 0 and second["failed"] == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = run.tail([float(x) for x in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100 / 3, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_replicates", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_rejection_counts_match_the_sets():
    tracer = spans.Tracer()
    config = datagen.multi_class_config(p=20, n_k=100, rho=0.8, m=200, run_seed=5)
    train, batch = datagen.generate(config)
    with spans.tracing(tracer):
        _, sets = conformal.predict(train, batch, 0.05)
    assert tracer.counts[0]["conformal.rejections"] == int(np.sum(~sets.member))
    assert tracer.counts[0]["conformal.empty_sets"] == int(np.sum(sets.sizes == 0))
    assert tracer.counts[0]["scoring.score_rows"] == 4 * (100 + 200)
