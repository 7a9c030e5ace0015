"""Plain-numpy reference for confset's output, written from README steps 1-4.

Nothing here calls confset. For every class k: fit the mean and unbiased
diagonal variance with an explicit loop over classes, score points by the
standardized squared distance, count training scores ``>=`` each test score
by broadcasting, form p = (1 + count) / (n_k + 1), run the textbook BH
step-up over the m test points and keep k when it is not rejected at the
cutoff floor((n_k + 1) alpha) / (n_k + 1).

Float ties are the only excuse for a difference: a test score within
``TIE_REL`` (relative) of a training score, where summation order decides the
rank, or an adjusted p-value within ``CUT_TOL`` of the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TIE_REL = 1e-9
CUT_TOL = 1e-12
PVALUE_REL = 1e-12
METRIC_ABS = 1e-12
CHUNK = 2048


@dataclass
class Verdict:
    """Outcome of comparing one prediction with the reference."""

    mismatches: int = 0
    excused: int = 0
    detail: str = ""

    def fail(self, count: int, detail: str) -> None:
        if count and not self.mismatches:
            self.detail = detail
        self.mismatches += int(count)

    def absorb(self, other: "Verdict") -> None:
        self.fail(other.mismatches, other.detail)
        self.excused += other.excused

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def scores(x: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], CHUNK):
        d = x[start : start + CHUNK] - mean
        out[start : start + CHUNK] = (d * d / var).sum(axis=1)
    return out


def at_least_counts(train_scores: np.ndarray, test_scores: np.ndarray) -> np.ndarray:
    """#{training scores >= test score} for each test score."""
    out = np.empty(test_scores.shape[0], dtype=np.int64)
    for start in range(0, test_scores.shape[0], CHUNK):
        block = test_scores[start : start + CHUNK, None]
        out[start : start + CHUNK] = (train_scores[None, :] >= block).sum(axis=1)
    return out


def near_ties(train_scores: np.ndarray, test_scores: np.ndarray) -> np.ndarray:
    """Test scores within TIE_REL of some training score."""
    ordered = np.sort(train_scores)
    pos = np.searchsorted(ordered, test_scores)
    near = np.zeros(test_scores.shape[0], dtype=bool)
    for neighbour in (pos - 1, pos):
        ok = (neighbour >= 0) & (neighbour < ordered.size)
        ref = ordered[np.clip(neighbour, 0, ordered.size - 1)]
        near |= ok & (np.abs(test_scores - ref) <= TIE_REL * np.abs(ref))
    return near


def bh_adjusted(p: np.ndarray) -> np.ndarray:
    """min over j >= rank of min(1, m p_(j) / j), by an explicit backward pass."""
    m = p.shape[0]
    order = sorted(range(m), key=lambda i: (p[i], i))
    out = np.empty(m)
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        running = min(running, p[i] * m / rank)
        out[i] = running
    return out


def step_up_rejected(p: np.ndarray, cut: float) -> np.ndarray:
    """Textbook BH: reject every p <= p_(k*), k* = max{i : p_(i) <= i cut / m}."""
    m = p.shape[0]
    ordered = np.sort(p)
    passing = np.flatnonzero(ordered <= np.arange(1, m + 1) * cut / m)
    if passing.size == 0:
        return np.zeros(m, dtype=bool)
    return p <= ordered[passing[-1]]


def cutoff(n_k: int, alpha: float) -> float:
    return math.floor((n_k + 1) * Fraction(repr(alpha))) / (n_k + 1)


def check_prediction(
    train_x: np.ndarray,
    train_y: np.ndarray,
    n_classes: int,
    test_x: np.ndarray,
    alpha: float,
    raw: np.ndarray,
    adjusted: np.ndarray,
    thresholds: np.ndarray,
    member: np.ndarray,
    oracle: tuple[np.ndarray, np.ndarray] | None = None,
) -> Verdict:
    """Compare one prediction's p-values, cutoffs and sets with the reference.

    ``oracle`` is an optional (means, variances) pair of (K, p) arrays used
    in place of the fitted moments, as in confset's oracle mode.
    """
    verdict = Verdict()
    m = test_x.shape[0]
    if raw.shape != (m, n_classes) or adjusted.shape != raw.shape or member.shape != raw.shape:
        verdict.fail(1, f"output shapes {raw.shape}, {adjusted.shape}, {member.shape}")
        return verdict
    for k in range(1, n_classes + 1):
        c = k - 1
        rows = train_x[train_y == k]
        n_k = rows.shape[0]
        if oracle is None:
            mean = rows.sum(axis=0) / n_k
            var = ((rows - mean) ** 2).sum(axis=0) / (n_k - 1)
        else:
            mean, var = oracle[0][c], oracle[1][c]
        train_scores = scores(rows, mean, var)
        test_scores = scores(test_x, mean, var)
        ref_raw = (1 + at_least_counts(train_scores, test_scores)) / (n_k + 1)
        tie = near_ties(train_scores, test_scores)
        off = ~np.isclose(raw[:, c], ref_raw, rtol=PVALUE_REL, atol=0.0)
        verdict.fail(np.sum(off & ~tie), f"class {k}: raw p-value differs at row {np.argmax(off & ~tie)}")
        # a tie may rank either way; take the program's value there
        p = np.where(tie, raw[:, c], ref_raw)
        cut = cutoff(n_k, alpha)
        verdict.fail(abs(thresholds[c] - cut) > CUT_TOL, f"class {k}: cutoff {thresholds[c]!r} != {cut!r}")
        ref_adj = bh_adjusted(p)
        off = ~np.isclose(adjusted[:, c], ref_adj, rtol=PVALUE_REL, atol=0.0)
        verdict.fail(np.sum(off), f"class {k}: adjusted p-value differs at row {np.argmax(off)}")
        on_cut = np.abs(ref_adj - cut) <= CUT_TOL
        kept = ~step_up_rejected(p, cut)
        off = (member[:, c] != kept) & ~on_cut
        verdict.fail(np.sum(off), f"class {k}: set membership differs at row {np.argmax(off)}")
        verdict.excused += int(np.sum(tie | on_cut))
    return verdict


def metrics(member: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """The eight README metrics, class-wise FDR expanded per class."""
    m, k = member.shape
    truth = np.asarray(truth)
    sizes = member.sum(axis=1)
    empty = sizes == 0
    inlier = truth <= k
    outlier = truth == k + 1
    out = {}
    v_total = denom = 0
    for c in range(k):
        rejected = ~member[:, c]
        v = int(np.sum(rejected & (truth == c + 1)))
        r = int(np.sum(rejected))
        out[f"cw_fdr_{c + 1}"] = v / max(1, r)
        v_total += v
        denom += max(1, r)
    out["scw_fdr"] = v_total / denom
    out["fdr"] = int(np.sum(empty & inlier)) / max(1, int(np.sum(empty)))
    out["power"] = int(np.sum(empty & outlier)) / max(1, int(np.sum(outlier)))
    n_in = int(np.sum(inlier))
    idx = np.flatnonzero(inlier)
    hit = member[idx, truth[idx] - 1]
    exact = hit & (sizes[inlier] == 1)
    out["coverage"] = int(np.sum(hit)) / n_in if n_in else 0.0
    out["flr"] = int(np.sum(outlier & ~empty)) / m
    out["accuracy"] = int(np.sum(exact)) / n_in if n_in else 0.0
    nonempty = sizes[~empty]
    out["ambiguity"] = int(nonempty.sum()) / nonempty.size if nonempty.size else 0.0
    return out


def check_metrics(rows: list[tuple[str, float]], member: np.ndarray, truth: np.ndarray) -> Verdict:
    """Compare (name, value) rows, as ``MetricsReport.rows()`` gives them."""
    verdict = Verdict()
    ref = metrics(member, truth)
    got = dict(rows)
    if list(got) != list(ref):
        verdict.fail(1, f"metric names {list(got)} != {list(ref)}")
        return verdict
    for name, value in ref.items():
        if not abs(got[name] - value) <= METRIC_ABS:
            verdict.fail(1, f"metric {name}: {got[name]!r} != {value!r}")
    return verdict
