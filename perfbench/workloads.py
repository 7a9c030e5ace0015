"""The benchmark's three workloads: set-up, one operation, output check.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs come from the workload seed; the
program only ever sees the generated inputs.

* ``cli_files``: ``simulate`` -> ``predict`` -> ``evaluate`` as three fresh
  ``python -m confset.cli`` processes on files. Start-up, imports and CSV
  I/O dominate; scoring hardly shows.
* ``mc_replicates``: one in-process ``experiment.run_replicate`` on the
  pinned acceptance design. Data generation, twenty small ``predict`` calls
  and the metrics share the time; there is no I/O.
* ``predict_large``: ``predict`` + ``evaluate_sets`` at the large size on a
  fixed training set and a small pool of pre-generated test batches.
  Scoring the batch dominates; data generation and I/O are bypassed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from confset import conformal, datagen, experiment, metrics

import reference
import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
TRACED_CLI = BENCH_DIR / "traced_cli.py"
OP_TIMEOUT_S = 120
MAX_CHECKED = 8

SIZES = {
    "full": {
        "cli_files": dict(p=200, n_k=200, m=1000, rho=0.8, alpha=0.05),
        "mc_replicates": dict(p=200, n_k=200, m=1000, rho=0.8, alpha=0.05, test_sets=10),
        "predict_large": dict(p=500, n_k=2000, m=20000, rho=0.8, alpha=0.05, pool=2),
    },
    "smoke": {
        "cli_files": dict(p=20, n_k=100, m=100, rho=0.8, alpha=0.05),
        "mc_replicates": dict(p=20, n_k=100, m=100, rho=0.8, alpha=0.05, test_sets=2),
        "predict_large": dict(p=30, n_k=100, m=1000, rho=0.8, alpha=0.05, pool=2),
    },
}


@dataclass
class CheckOutcome:
    failed: dict[int, str] = field(default_factory=dict)
    excused: int = 0
    checked: int = 0


def evenly_spaced(n: int, k: int = MAX_CHECKED) -> list[int]:
    """Up to k operation indices spread evenly over 0..n-1, always with 0."""
    if n <= k:
        return list(range(n))
    return sorted({round(j * (n - 1) / (k - 1)) for j in range(k)})


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    name = ""
    setup_repeats = 3

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.workdir = workdir

    def setup(self) -> None:
        """Build inputs and warm up; repeated, the last build is kept."""

    def op(self, i: int, tracer: spans.Tracer | None):
        raise NotImplementedError

    def keep(self, i: int, out) -> None:
        """Store what the check needs from operation i (outside timing)."""

    def check(self, ops: list[int]) -> CheckOutcome:
        raise NotImplementedError

    @property
    def rows_per_op(self) -> int:
        raise NotImplementedError

    def inputs(self) -> dict:
        return dict(self.size)

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_SELF)


def _check_each(ops: list[int], check_one) -> CheckOutcome:
    outcome = CheckOutcome(checked=len(ops))
    for i in ops:
        try:
            verdict = check_one(i)
        except Exception as e:  # a malformed output is a failed check
            outcome.failed[i] = f"check raised {e!r}"
            continue
        outcome.excused += verdict.excused
        if not verdict.ok:
            outcome.failed[i] = f"{verdict.mismatches} mismatches; first: {verdict.detail}"
    return outcome


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------


class CliFiles(Workload):
    name = "cli_files"
    # Set-up is only an interpreter warm-up, short and noisy: take more.
    setup_repeats = 5

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.n_classes = len(datagen.MULTI_CLASS_SHIFTS)
        self.outputs = {}

    @property
    def rows_per_op(self) -> int:
        return self.size["m"]

    def inputs(self) -> dict:
        return dict(self.size, scenario="multi_class", mode="empirical", op_seed="SeedSequence([seed, op])")

    def setup(self) -> None:
        # The interpreter, numpy and confset are read (and confset's bytecode
        # compiled) once before timing, as for any installed tool.
        subprocess.run(
            [sys.executable, "-c", "import confset.cli"],
            env=self.env,
            check=True,
            capture_output=True,
            timeout=OP_TIMEOUT_S,
        )

    def op_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def commands(self, seed: int) -> list[list[str]]:
        s = self.size
        return [
            ["simulate", "--scenario", "multi", "--p", str(s["p"]), "--nk", str(s["n_k"]),
             "--m", str(s["m"]), "--rho", repr(s["rho"]), "--seed", str(seed), "--out", "r"],
            ["predict", "--train", "r_train.csv", "--test", "r_test.csv", "--truth-column", "truth",
             "--alpha", repr(s["alpha"]), "--mode", "empirical", "--out", "r"],
            ["evaluate", "--sets", "r_sets.csv", "--test", "r_test.csv", "--truth-column", "truth",
             "--n-classes", str(self.n_classes)],
        ]

    def op(self, i, tracer):
        seed = self.op_seed(i)
        opdir = self.workdir / f"op{i:05d}"
        opdir.mkdir()
        stdout = {}
        for argv in self.commands(seed):
            if tracer is None:
                cmd = [sys.executable, "-m", "confset.cli", *argv]
            else:
                cmd = [sys.executable, str(TRACED_CLI), "spans.json", repr(spans.now()), *argv]
            done = subprocess.run(
                cmd, cwd=opdir, env=self.env, capture_output=True, text=True, timeout=OP_TIMEOUT_S
            )
            if done.returncode != 0:
                tail = (done.stderr.strip().splitlines() or [""])[-1]
                raise RuntimeError(f"{argv[0]} exited {done.returncode}: {tail}")
            stdout[argv[0]] = done.stdout
            if tracer is not None:
                tracer.merge(json.loads((opdir / "spans.json").read_text()))
        return {"dir": opdir, "seed": seed, "stdout": stdout}

    def keep(self, i, out):
        self.outputs[i] = out

    def check(self, ops):
        return _check_each([ops[j] for j in evenly_spaced(len(ops))], self._check_op)

    def _check_op(self, i) -> reference.Verdict:
        out = self.outputs[i]
        opdir, k, s = out["dir"], self.n_classes, self.size
        verdict = reference.Verdict()
        config = datagen.multi_class_config(
            p=s["p"], n_k=s["n_k"], rho=s["rho"], m=s["m"], run_seed=out["seed"]
        )
        train, test = datagen.generate(config)
        columns = ",".join(f"x{j + 1}" for j in range(s["p"]))
        for name, last in (("r_train.csv", "label"), ("r_test.csv", "truth")):
            with open(opdir / name) as fh:
                header = fh.readline().strip()
            verdict.fail(header != f"{columns},{last}", f"{name}: unexpected header")
        tr = np.loadtxt(opdir / "r_train.csv", delimiter=",", skiprows=1, ndmin=2)
        te = np.loadtxt(opdir / "r_test.csv", delimiter=",", skiprows=1, ndmin=2)
        verdict.fail(
            not (_bits_equal(tr[:, :-1], train.features) and np.array_equal(tr[:, -1], train.labels)),
            "r_train.csv does not parse back to the generated training set",
        )
        verdict.fail(
            not (_bits_equal(te[:, :-1], test.features) and np.array_equal(te[:, -1], test.truth)),
            "r_test.csv does not parse back to the generated test batch",
        )
        pv = np.loadtxt(opdir / "r_pvalues.csv", delimiter=",", skiprows=1, ndmin=2)
        thresholds = np.loadtxt(opdir / "r_thresholds.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        member = self._read_sets(opdir / "r_sets.csv", te.shape[0], verdict)
        truth = te[:, -1].astype(np.int64)
        verdict.absorb(
            reference.check_prediction(
                tr[:, :-1], tr[:, -1].astype(np.int64), k, te[:, :-1], s["alpha"],
                pv[:, 1 : k + 1], pv[:, k + 1 :], thresholds, member,
            )
        )
        verdict.absorb(_check_table(out["stdout"]["evaluate"], member, truth))
        return verdict

    def _read_sets(self, path, m, verdict) -> np.ndarray:
        member = np.zeros((m, self.n_classes), dtype=bool)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        verdict.fail(rows[0] != ["index", "size", "labels"], f"{path.name}: header {rows[0]}")
        verdict.fail(len(rows) - 1 != m, f"{path.name}: {len(rows) - 1} rows for {m} points")
        for i, (index, size, labels) in enumerate(rows[1 : m + 1]):
            ks = [int(t) for t in labels.split(";")] if labels else []
            member[i, [c - 1 for c in ks]] = True
            verdict.fail(int(index) != i or int(size) != len(ks), f"{path.name}: bad row {i}")
        return member

    def peak_rss_mb(self):
        # the harness process plus the largest subcommand process
        return _peak_rss_mb(resource.RUSAGE_SELF) + _peak_rss_mb(resource.RUSAGE_CHILDREN)


def _check_table(text: str, member: np.ndarray, truth: np.ndarray) -> reference.Verdict:
    """``evaluate`` prints one mean(std) line per metric over one run."""
    verdict = reference.Verdict()
    lines = [" ".join(line.split()) for line in text.splitlines()]
    expected = ["metric mean(std) [1 runs]"] + [
        f"{name} {value:.3f}(0.000)" for name, value in reference.metrics(member, truth).items()
    ]
    diff = [j for j, (a, b) in enumerate(zip(lines, expected)) if a != b]
    if len(lines) != len(expected) or diff:
        j = diff[0] if diff else min(len(lines), len(expected))
        verdict.fail(1, f"evaluate table line {j}: {lines[j:j + 1]} != {expected[j:j + 1]}")
    return verdict


# ---------------------------------------------------------------------------


class McReplicates(Workload):
    name = "mc_replicates"
    MODES = ("empirical", "oracle")
    # one set-up is a single replicate, about as noisy as one operation
    setup_repeats = 5

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        s = self.size
        self.base = datagen.multi_class_config(p=s["p"], n_k=s["n_k"], rho=s["rho"], m=s["m"], alpha=s["alpha"])
        self.reports = {}

    @property
    def rows_per_op(self) -> int:
        return self.size["m"] * self.size["test_sets"] * len(self.MODES)

    def inputs(self) -> dict:
        return dict(self.size, scenario="multi_class", modes=list(self.MODES), op_seed="replicate_seed(seed, 0, op)")

    def config(self, i: int):
        return datagen.with_run_seed(self.base, experiment.replicate_seed(self.seed, 0, i))

    def setup(self) -> None:
        # one warm-up replicate on a stream that no timed operation uses
        warm = datagen.with_run_seed(self.base, experiment.replicate_seed(self.seed, 1, 0))
        experiment.run_replicate(warm, self.size["test_sets"], self.MODES)

    def op(self, i, tracer):
        config = self.config(i)
        if tracer is None:
            return experiment.run_replicate(config, self.size["test_sets"], self.MODES)[0]
        with spans.tracing(tracer):
            return experiment.run_replicate(config, self.size["test_sets"], self.MODES)[0]

    def keep(self, i, out):
        self.reports[i] = out

    def check(self, ops):
        return _check_each([ops[j] for j in evenly_spaced(len(ops))], self._check_op)

    def _check_op(self, i) -> reference.Verdict:
        """Replay the replicate's draws and check each prediction and report."""
        config = self.config(i)
        atoms = datagen.make_atoms(config.atom_seed, config.p)
        rng = np.random.default_rng(config.run_seed)
        train = datagen.generate_training(config, rng, atoms)
        oracle = datagen.oracle_params(config)
        verdict = reference.Verdict()
        for t in range(self.size["test_sets"]):
            batch = datagen.generate_test_batch(config, rng, atoms)
            for mode in self.MODES:
                known = oracle if mode == "oracle" else None
                pvals, sets = conformal.predict(train, batch, config.alpha, oracle=known)
                verdict.absorb(
                    reference.check_prediction(
                        train.features, train.labels, train.n_classes, batch.features, config.alpha,
                        pvals.raw, pvals.adjusted, pvals.thresholds, sets.member,
                        oracle=None if known is None else (known.means, known.variances),
                    )
                )
                verdict.absorb(reference.check_metrics(self.reports[i][mode][t].rows(), sets.member, batch.truth))
        return verdict


# ---------------------------------------------------------------------------


class PredictLarge(Workload):
    name = "predict_large"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        s = self.size
        self.config = datagen.multi_class_config(
            p=s["p"], n_k=s["n_k"], rho=s["rho"], m=s["m"], alpha=s["alpha"],
            run_seed=experiment.replicate_seed(seed, 2, 0),
        )
        self.train = None
        self.pool = []
        self.results = {}  # op -> (batch index, digest)
        self.distinct = {}  # (batch index, digest) -> one full output

    @property
    def rows_per_op(self) -> int:
        return self.size["m"]

    def inputs(self) -> dict:
        return dict(self.size, scenario="multi_class", mode="empirical", train_seed="replicate_seed(seed, 2, 0)")

    def setup(self) -> None:
        self.train, self.pool = None, []  # release the previous build first
        config = self.config
        atoms = datagen.make_atoms(config.atom_seed, config.p)
        rng = np.random.default_rng(config.run_seed)
        self.train = datagen.generate_training(config, rng, atoms)
        self.pool = [datagen.generate_test_batch(config, rng, atoms) for _ in range(self.size["pool"])]
        self._predict(0)

    def _predict(self, i):
        batch = self.pool[i % len(self.pool)]
        pvals, sets = conformal.predict(self.train, batch, self.config.alpha)
        return pvals, sets, metrics.evaluate_sets(sets, batch.truth)

    def op(self, i, tracer):
        if tracer is None:
            return self._predict(i)
        with spans.tracing(tracer):
            return self._predict(i)

    def keep(self, i, out):
        pvals, sets, report = out
        h = hashlib.sha256()
        for a in (pvals.raw, pvals.adjusted, pvals.thresholds, sets.member):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr(report.rows()).encode())
        key = (i % len(self.pool), h.hexdigest())
        self.results[i] = key
        self.distinct.setdefault(key, out)

    def check(self, ops):
        """Every operation: each distinct output per batch is checked in full."""
        verdicts = _check_each(list(self.distinct), self._check_output)  # keyed by output
        outcome = CheckOutcome(excused=verdicts.excused, checked=len(ops))
        for i in ops:
            if self.results[i] in verdicts.failed:
                outcome.failed[i] = verdicts.failed[self.results[i]]
        return outcome

    def _check_output(self, key) -> reference.Verdict:
        pvals, sets, report = self.distinct[key]
        batch, train = self.pool[key[0]], self.train
        verdict = reference.check_prediction(
            train.features, train.labels, train.n_classes, batch.features, self.config.alpha,
            pvals.raw, pvals.adjusted, pvals.thresholds, sets.member,
        )
        verdict.absorb(reference.check_metrics(report.rows(), sets.member, batch.truth))
        return verdict


WORKLOADS = {w.name: w for w in (CliFiles, McReplicates, PredictLarge)}
