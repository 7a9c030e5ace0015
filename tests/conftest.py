"""Shared fixtures and naive reference implementations.

The ``naive_*`` helpers re-derive every pipeline stage with plain Python
loops, straight from the definitions, so the vectorized library code can be
cross-checked against an independently written oracle on random instances.
"""

from __future__ import annotations

import csv
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from confset import DataError, LabeledDataset, PredictionSets, TestBatch, scoring

# the container class is named like a test class; keep pytest from collecting it
TestBatch.__test__ = False

# Property tests replay the same examples on every run, write no example
# database, and have no per-example deadline, so a slow or shared machine
# neither fails them nor changes what they check.
settings.register_profile(
    "confset", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("confset")


# ---------------------------------------------------------------------------
# naive reference implementations (loop-based, definition-first)


def naive_conformal_pvalue(train_scores, test_score) -> float:
    n_at_least = sum(1 for s in train_scores if s >= test_score)
    return (1 + n_at_least) / (len(train_scores) + 1)


def naive_bh(pvalues) -> list:
    """BH adjusted values by the definition; exact on ``Fraction`` inputs."""
    m = len(pvalues)
    indexed = sorted(range(m), key=lambda i: pvalues[i])
    out = [0.0] * m
    for pos, i in enumerate(indexed, start=1):
        candidates = []
        for pos2, j in enumerate(indexed, start=1):
            if pos2 >= pos:
                candidates.append(min(1.0, m * pvalues[j] / pos2))
        out[i] = min(candidates)
    return out


def naive_step_up(pvalues: np.ndarray, alpha: float) -> np.ndarray:
    """Textbook step-up rule, written independently of bh_adjust: reject the
    R smallest p-values, R the largest i with p_(i) <= alpha * i / m."""
    m = pvalues.size
    order = np.argsort(pvalues, kind="stable")
    ranked = pvalues[order]
    ok = np.flatnonzero(ranked <= alpha * np.arange(1, m + 1) / m)
    reject = np.zeros(m, dtype=bool)
    if ok.size:
        reject[order[: ok.max() + 1]] = True
    return reject


def naive_grid_count(n_k: int, alpha: float) -> int:
    """The grid points j / (n_k + 1) at or below alpha, counted one by one
    in exact rationals on the shortest decimal that prints alpha."""
    target = (n_k + 1) * Fraction(repr(float(alpha)))
    k = 0
    while k + 1 <= target:
        k += 1
    return k


def naive_keeps(raw: list[Fraction], n_k: int, alpha) -> list[bool]:
    """Which points keep their class: the step-up of one class's exact
    rational p-values, each adjusted value compared with the exact cutoff."""
    adjusted = raw if len(raw) == 1 else naive_bh(raw)
    cut = Fraction(naive_grid_count(n_k, alpha), n_k + 1)
    return [a > cut for a in adjusted]


def naive_predict(data: LabeledDataset, test: TestBatch, alpha, oracle=None):
    """Loop-based re-derivation of the full pipeline; returns list of sets.

    Each class is ranked among, and cut at the count of, its rows in
    ``data``; with ``oracle`` fitted elsewhere, ``data`` is a calibration set.
    P-values, their step-up and the cutoff are exact rationals."""
    m = test.m
    member = np.zeros((m, data.n_classes), dtype=bool)
    for k in range(1, data.n_classes + 1):
        rows = data.class_rows(k)
        if oracle is None:
            mean = rows.mean(axis=0)
            var = rows.var(axis=0, ddof=1)
        else:
            mean, var = oracle.class_params(k)
        def score(x):
            return sum((x[j] - mean[j]) ** 2 / var[j] for j in range(len(mean)))
        train_scores = [score(r) for r in rows]
        n_k = len(train_scores)
        test_scores = [score(x) for x in test.features]
        raw = [Fraction(1 + sum(1 for s in train_scores if s >= t), n_k + 1) for t in test_scores]
        member[:, k - 1] = naive_keeps(raw, n_k, alpha)
    return [set(np.flatnonzero(row) + 1) for row in member]


def naive_csv_table(path) -> tuple[list[str], list[list[str]]]:
    """Header (cells stripped) and non-blank rows of a whole CSV file."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return [h.strip() for h in rows[0]], rows[1:]


def naive_csv_write(path, header, rows) -> bytes:
    """The bytes ``csv.writer`` gives ``header`` and ``rows``, one call per row.

    Float cells are passed as ``repr(float(x))``, as the writers format
    them; integers and strings as they are.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with open(path, "rb") as fh:
        return fh.read()


def naive_floats(rows, skip=None) -> np.ndarray:
    """Every cell outside column ``skip``, parsed one at a time by ``float()``."""
    return np.array(
        [[float(cell) for j, cell in enumerate(row) if j != skip] for row in rows],
        dtype=np.float64,
    )


def naive_metrics(sets: list[set], truth, n_classes: int) -> dict:
    """Loop-based metric counting straight from the definitions."""
    truth = list(int(t) for t in truth)
    m = len(sets)
    outlier_label = n_classes + 1
    out = {}
    v_total, denom_total, r_total = 0, 0, 0
    cw = []
    for k in range(1, n_classes + 1):
        rejected = [i for i in range(m) if k not in sets[i]]
        false_rej = [i for i in rejected if truth[i] == k]
        cw.append(len(false_rej) / max(1, len(rejected)))
        v_total += len(false_rej)
        denom_total += max(1, len(rejected))
        r_total += len(rejected)
    out["cw_fdr"] = tuple(cw)
    out["scw_fdr"] = v_total / denom_total
    out["rejection_fdp"] = v_total / max(1, r_total)
    empty = [i for i in range(m) if not sets[i]]
    out["fdr"] = (
        sum(1 for i in empty if truth[i] != outlier_label) / max(1, len(empty))
    )
    outliers = [i for i in range(m) if truth[i] == outlier_label]
    inliers = [i for i in range(m) if truth[i] != outlier_label]
    out["power"] = sum(1 for i in outliers if not sets[i]) / max(1, len(outliers))
    out["coverage"] = (
        sum(1 for i in inliers if truth[i] in sets[i]) / max(1, len(inliers))
    )
    out["flr"] = sum(1 for i in outliers if sets[i]) / m
    out["accuracy"] = (
        sum(1 for i in inliers if sets[i] == {truth[i]}) / max(1, len(inliers))
    )
    nonempty = [i for i in range(m) if sets[i]]
    out["ambiguity"] = (
        sum(len(sets[i]) for i in nonempty) / len(nonempty) if nonempty else 0.0
    )
    return out


def naive_sample_component(spec, n, rho, atoms, rng) -> np.ndarray:
    """One mixture component drawn on its own: Gaussian block, AR(1) column
    loop, then atom picks, X = sqrt(scale) * (Z + shift) + atoms[idx]."""
    p = atoms.shape[0]
    g = rng.standard_normal(size=(n, p))
    z = g.copy()
    if rho != 0.0:
        innov = math.sqrt(1.0 - rho * rho)
        for j in range(1, p):
            z[:, j] = rho * z[:, j - 1] + innov * g[:, j]
    idx = rng.integers(0, p, size=(n, p))
    return math.sqrt(spec.scale) * (z + spec.shift) + atoms[idx]


def naive_generate(config):
    """(train features, labels, test features, truth, next draw) of
    ``generate(config)``, drawn one component at a time, skipping test
    components with no rows; the next draw is the generator's
    ``random()`` after both blocks."""
    from confset import apportion_test_counts, make_atoms

    atoms = make_atoms(config.atom_seed, config.p)
    rng = np.random.default_rng(config.run_seed)
    train = [
        naive_sample_component(spec, config.n_k, config.rho, atoms, rng)
        for spec in config.class_specs
    ]
    labels = [k for k in range(1, config.n_classes + 1) for _ in range(config.n_k)]
    counts, n_out = apportion_test_counts(config.m, config.inlier_ratio, config.n_classes)
    specs = config.class_specs + (config.outlier_spec,)
    test, truth = [], []
    for k, (spec, n) in enumerate(zip(specs, counts + [n_out]), start=1):
        if n > 0:
            test.append(naive_sample_component(spec, n, config.rho, atoms, rng))
            truth += [k] * n
    return (
        np.vstack(train), np.array(labels), np.vstack(test), np.array(truth), rng.random()
    )


def random_instance(rng, n_classes=None, p=None, n_k=None, m=None):
    """A small random but valid (train, test) pair with separated classes."""
    n_classes = n_classes or int(rng.integers(1, 5))
    p = p or int(rng.integers(1, 6))
    n_k = n_k or int(rng.integers(4, 26))
    m = m or int(rng.integers(1, 30))
    centers = rng.normal(scale=4.0, size=(n_classes, p))
    features = np.vstack(
        [centers[k] + rng.normal(size=(n_k, p)) for k in range(n_classes)]
    )
    labels = np.repeat(np.arange(1, n_classes + 1), n_k)
    data = LabeledDataset(features=features, labels=labels)
    pick = rng.integers(0, n_classes, size=m)
    test_rows = centers[pick] + rng.normal(size=(m, p)) * rng.uniform(0.5, 3.0)
    truth = rng.integers(1, n_classes + 2, size=m)
    return data, TestBatch(features=test_rows, truth=truth)


def sets_equal(sets_obj: PredictionSets, expected: list[set]) -> bool:
    return [set(s) for s in sets_obj.sets] == [set(s) for s in expected]


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def two_class_data():
    """Two well-separated classes in the plane, 50 rows each."""
    gen = np.random.default_rng(7)
    a = gen.normal(loc=0.0, size=(50, 2))
    b = gen.normal(loc=10.0, size=(50, 2))
    features = np.vstack([a, b])
    labels = np.repeat([1, 2], 50)
    return LabeledDataset(features=features, labels=labels)



def forbid_helper(monkeypatch) -> None:
    """This process starts no helper thread, as while another helper runs:
    the lock that each helper takes first is already held."""
    held = threading.Lock()
    held.acquire()
    monkeypatch.setattr(scoring, "_helper_busy", held)


def helper_in_this_process() -> bool:
    """Whether ``scoring._one_helper`` hands this process a helper thread;
    top-level, so a spawned pool worker can import it."""
    with scoring._one_helper(True) as helper:
        return helper is not None


def spy_score_threads(monkeypatch, fail_off_main: bool = False) -> list[bool]:
    """Rebind ``scoring.score_batch``, the call ``score_classes`` makes per
    block and class, to record whether each call ran on the main thread.
    With ``fail_off_main``, a call on any other thread raises instead."""
    real, on_main = scoring.score_batch, []

    def spy(model, rows, class_id):
        on_main.append(threading.current_thread() is threading.main_thread())
        if fail_off_main and not on_main[-1]:
            raise DataError("scored on a helper thread")
        return real(model, rows, class_id)

    monkeypatch.setattr(scoring, "score_batch", spy)
    return on_main


@pytest.fixture
def scoring_calls(monkeypatch):
    """Every class fit (its class id) and every ``score_batch`` call (its
    class id and rows), recorded by spies rebound in every confset
    namespace, as perfbench/spans.py rebinds the functions it traces."""
    calls = {"fit": [], "score": []}
    fit, score = scoring.fit_class_summary, scoring.score_batch

    def fit_spy(data, class_id):
        calls["fit"].append(class_id)
        return fit(data, class_id)

    def score_spy(model, rows, class_id):
        calls["score"].append((class_id, rows))
        return score(model, rows, class_id)

    for real, spy in ((fit, fit_spy), (score, score_spy)):
        for name, module in list(sys.modules.items()):
            if name == "confset" or name.startswith("confset."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, spy)
    return calls
