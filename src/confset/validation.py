"""Monte Carlo checks of the procedure's statistical guarantees.

Each check draws fresh data from seeded generators, measures an empirical
frequency or trend, and compares it against what the theory promises plus
explicit Monte Carlo slack. Checks come in two groups:

* ``DEFAULT_CHECKS`` and ``EXTRA_CHECKS`` validate distributional
  guarantees (p-value super-uniformity, known-parameter coverage,
  error-rate control, loss orderings, step-up behaviour, convergence
  trends). These hold by construction and pass at the default seeds.
* ``BENCHMARK_CHECKS`` rerun the two simulation benchmarks at pinned
  designs. Error-control lines are held to fixed targets; efficiency
  lines (power, false label rate, set size) to the known-parameter
  procedure run on the same data, within Monte Carlo slack. They are
  costly, so they run only when named explicitly.

``cw_fdr`` and the two benchmarks read simulation tables. A table is the
one-cell ``ExperimentConfig`` of its design and seed, run by
:func:`confset.experiment.run_cell` like any experiment cell; checks on
an equal table share one run.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, replace

import numpy as np

from .conformal import acceptance_threshold, bh_adjust, predict, set_size_discrepancy
from .core import ClassModel, DataError, DeviationBound, PredictionSets
from .datagen import (
    ScenarioConfig,
    generate_test_batch,
    generate_training,
    make_atoms,
    multi_class_config,
    one_class_config,
    oracle_params,
)
from .experiment import run_cell
from .io import ExperimentConfig
from .metrics import evaluate_sets, rejection_global_fdp

__all__ = [
    "CheckResult",
    "check_super_uniformity",
    "check_oracle_coverage",
    "check_deviation_trend",
    "check_set_size_trend",
    "check_cw_fdr_control",
    "check_scw_bound",
    "check_loss_construction",
    "check_bh_procedure",
    "check_multiclass_benchmark",
    "check_oneclass_benchmark",
    "CHECKS",
    "DEFAULT_CHECKS",
    "EXTRA_CHECKS",
    "BENCHMARK_CHECKS",
    "run_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    elapsed_s: float
    bounds: tuple[BoundResult, ...] = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.elapsed_s:.1f}s): {self.details}"

    def bound(self, metric: str) -> BoundResult:
        """The benchmark line of ``metric``."""
        for result in self.bounds:
            if result.bound.metric == metric:
                return result
        raise KeyError(f"{self.name} has no bound on {metric!r}")


def _timed(
    name: str,
    started: float,
    passed: bool,
    details: str,
    bounds: tuple[BoundResult, ...] = (),
) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(passed),
        details=details,
        elapsed_s=time.perf_counter() - started,
        bounds=bounds,
    )


def _draw_pvalues(
    config: ScenarioConfig,
    draws: int,
    rng: np.random.Generator,
    oracles: tuple[ClassModel | None, ...],
) -> np.ndarray:
    """Raw p-values of fresh inliers as ``predict`` ships them, shape
    (draws, len(oracles)).

    Each draw makes a fresh one-class training set and one inlier from
    ``rng``, then ranks the inlier through :func:`predict` once per entry of
    ``oracles``: known class moments, or ``None`` for the moments fitted on
    that training set, as ``predict``'s ``oracle=`` takes them. With m = 1
    ``predict`` leaves the p-value unadjusted.
    """
    atoms = make_atoms(config.atom_seed, config.p)
    pvals = np.empty((draws, len(oracles)))
    for i in range(draws):
        train = generate_training(config, rng, atoms)
        batch = generate_test_batch(config, rng, atoms)
        for j, oracle in enumerate(oracles):
            pvals[i, j] = predict(train, batch, config.alpha, oracle=oracle)[0].raw[0, 0]
    return pvals


def check_super_uniformity(
    seed: int = 0,
    draws: int = 2000,
    p: int = 50,
    n_k: int = 200,
    rho: float = 0.8,
    alphas: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2),
) -> CheckResult:
    """Known-parameter p-values are super-uniform: P(p <= a) <= a + MC slack.

    With class parameters known, training and test scores of a true inlier
    are exchangeable, so the p-value's exceedance rate sits at or below
    ``a`` exactly; the bound allows 3 * sqrt(a(1-a)/draws) of Monte Carlo
    slack. Each draw uses a fresh single-class training set and one fresh
    inlier, ranked through ``predict``.
    """
    started = time.perf_counter()
    config = one_class_config(p=p, n_k=n_k, rho=rho, m=1, alpha=min(alphas))
    rng = np.random.default_rng(seed)
    pvals = _draw_pvalues(config, draws, rng, (oracle_params(config),))[:, 0]
    parts = []
    passed = True
    for a in alphas:
        rate = float(np.mean(pvals <= a))
        bound = a + 3.0 * np.sqrt(a * (1.0 - a) / draws)
        ok = rate <= bound
        passed &= ok
        parts.append(f"P(p<={a:g})={rate:.4f} (bound {bound:.4f})")
    return _timed("super_uniformity", started, passed, "; ".join(parts))


def check_oracle_coverage(
    seed: int = 1,
    draws: int = 2000,
    p: int = 50,
    n_k: int = 200,
    rho: float = 0.8,
    alpha: float = 0.05,
    slack: float | None = None,
) -> CheckResult:
    """With known parameters, a fresh inlier keeps its class in the set
    at rate >= 1 - alpha - slack (default slack: 3-sigma Monte Carlo)."""
    started = time.perf_counter()
    if slack is None:
        slack = 3.0 * float(np.sqrt(alpha * (1.0 - alpha) / draws))
    config = one_class_config(p=p, n_k=n_k, rho=rho, m=1, alpha=alpha)
    rng = np.random.default_rng(seed)
    pvals = _draw_pvalues(config, draws, rng, (oracle_params(config),))[:, 0]
    rate = np.count_nonzero(pvals > acceptance_threshold(n_k, alpha)) / draws
    target = 1.0 - alpha - slack
    details = f"coverage {rate:.4f} >= {target:.4f} (alpha={alpha:g}, n_k={n_k})"
    return _timed("coverage", started, rate >= target, details)


def check_deviation_trend(
    seed: int = 2,
    n_grid: tuple[int, ...] = (100, 400, 1600),
    draws: int = 200,
    p: int = 100,
    rho: float = 0.8,
    a: float = 2.0,
) -> CheckResult:
    """|estimated p-value - known-parameter p-value| shrinks with n.

    For each training size the 95th percentile of the gap (same training
    set, same test point, estimated vs known parameters) must decrease
    strictly along the grid and sit below the theoretical envelope
    4(sqrt(a) + 2a/3) sqrt(log n / n).
    """
    started = time.perf_counter()
    bound = DeviationBound(a=a)
    q95 = []
    for idx, n_k in enumerate(n_grid):
        config = one_class_config(p=p, n_k=n_k, rho=rho, m=1)
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        pvals = _draw_pvalues(config, draws, rng, (None, oracle_params(config)))
        q95.append(float(np.quantile(np.abs(pvals[:, 0] - pvals[:, 1]), 0.95)))
    decreasing = all(q95[i + 1] < q95[i] for i in range(len(q95) - 1))
    ratios = [q / bound.bound(n) for q, n in zip(q95, n_grid)]
    below = all(r < 1.0 for r in ratios)
    details = "; ".join(
        f"n={n}: q95={q:.4f}, q95/bound={r:.3f}"
        for n, q, r in zip(n_grid, q95, ratios)
    )
    details += f"; strictly decreasing: {decreasing}"
    return _timed("deviation", started, decreasing and below, details)


def check_set_size_trend(
    seed: int = 3,
    n_grid: tuple[int, ...] = (100, 400, 1600),
    n_seeds: int = 50,
    p: int = 50,
    rho: float = 0.8,
    m: int = 200,
    alpha: float = 0.05,
) -> CheckResult:
    """Estimated-parameter sets approach known-parameter sets as n grows.

    One fixed test batch; for each training size, the median (over seeds)
    mean absolute set-size gap between the two predictors must not increase
    along the grid.
    """
    started = time.perf_counter()
    base = multi_class_config(p=p, n_k=n_grid[0], rho=rho, m=m, alpha=alpha)
    atoms = make_atoms(base.atom_seed, p)
    batch = generate_test_batch(
        base, np.random.default_rng(np.random.SeedSequence([seed, 10**6])), atoms
    )
    oracle = oracle_params(base)
    medians = []
    for idx, n_k in enumerate(n_grid):
        config = multi_class_config(p=p, n_k=n_k, rho=rho, m=m, alpha=alpha)
        gaps = np.empty(n_seeds)
        for s in range(n_seeds):
            rng = np.random.default_rng(np.random.SeedSequence([seed, idx, s]))
            train = generate_training(config, rng, atoms)
            _, est_sets = predict(train, batch, alpha)
            _, known_sets = predict(train, batch, alpha, oracle=oracle)
            gaps[s] = set_size_discrepancy(est_sets, known_sets)
        medians.append(float(np.median(gaps)))
    monotone = all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1))
    details = "; ".join(
        f"n={n}: median gap {g:.4f}" for n, g in zip(n_grid, medians)
    )
    return _timed("set_size", started, monotone, details)


def check_scw_bound(
    seed: int = 4,
    trials: int = 10000,
    max_classes: int = 6,
) -> CheckResult:
    """Set-wise class loss never exceeds the rejection-level false discovery
    proportion, on random prediction sets and truths. Exact, zero tolerance."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -np.inf
    for _ in range(trials):
        k = int(rng.integers(1, max_classes + 1))
        n_points = int(rng.integers(1, 30))
        member = rng.random((n_points, k)) < rng.random()
        truth = rng.integers(1, k + 2, size=n_points)
        sets = PredictionSets(member=member)
        scw = evaluate_sets(sets, truth).scw_fdr
        fdp = rejection_global_fdp(sets, truth)
        worst = max(worst, scw - fdp)
        violations += scw > fdp
    details = (
        f"{trials} random instances, {violations} violations; "
        f"max(scw - fdp) = {worst:.3e}"
    )
    return _timed("scw", started, violations == 0, details)


def check_loss_construction(
    seed: int = 5,
    trials: int = 100000,
    beta: float = 0.15,
    scw_target: float = 0.075,
    scw_tol: float = 0.005,
    fdr_target: float = 0.15,
    fdr_tol: float = 0.01,
) -> CheckResult:
    """A two-class, two-point configuration with one rejected label.

    Point 0 predicts {2} (rejects class 1), point 1 predicts {1, 2}. Point 0
    is truly class 1 with probability beta, otherwise an outlier. The single
    rejection is false with probability beta, counted against one rejection
    globally but against two class denominators set-wise, so the means over
    trials must approach beta and beta/2. Each trial's losses depend only
    on point 0's truth, so both outcomes are evaluated once and weighted by
    the share of trials that drew each.
    """
    started = time.perf_counter()
    sets = PredictionSets(member=np.array([[False, True], [True, True]]))

    def losses(t0: int) -> tuple[float, float]:
        truth = np.array([t0, 2])
        return evaluate_sets(sets, truth).scw_fdr, rejection_global_fdp(sets, truth)

    hit, miss = losses(1), losses(3)  # point 0 truly class 1, or an outlier
    rng = np.random.default_rng(seed)
    share = np.count_nonzero(rng.random(trials) < beta) / trials
    scw_mean, fdp_mean = (share * h + (1.0 - share) * o for h, o in zip(hit, miss))
    ok = abs(scw_mean - scw_target) <= scw_tol and abs(fdp_mean - fdr_target) <= fdr_tol
    details = (
        f"mean scw {scw_mean:.4f} (target {scw_target:g}+-{scw_tol:g}); "
        f"mean global fdp {fdp_mean:.4f} (target {fdr_target:g}+-{fdr_tol:g})"
    )
    return _timed("construction", started, ok, details)


def _classic_step_up(pvalues: np.ndarray, alpha: float) -> np.ndarray:
    """Textbook step-up rule, written independently of bh_adjust."""
    m = pvalues.size
    order = np.argsort(pvalues, kind="stable")
    ranked = pvalues[order]
    ok = np.flatnonzero(ranked <= alpha * np.arange(1, m + 1) / m)
    reject = np.zeros(m, dtype=bool)
    if ok.size:
        reject[order[: ok.max() + 1]] = True
    return reject


def check_bh_procedure(
    seed: int = 6,
    n_vectors: int = 1000,
    alphas: tuple[float, ...] = (
        0.01, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5,
    ),
    null_trials: int = 5000,
    null_m: int = 20,
    null_alpha: float = 0.1,
    null_bound: float = 0.11,
) -> CheckResult:
    """Adjusted p-values reproduce the classic step-up rejection set exactly,
    and under a global null the rejection rate stays near the target level."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(n_vectors):
        m = int(rng.integers(1, 40))
        pvec = rng.random(m)
        adjusted = bh_adjust(pvec)
        for alpha in alphas:
            if not np.array_equal(adjusted <= alpha, _classic_step_up(pvec, alpha)):
                mismatches += 1
    any_reject = 0
    for _ in range(null_trials):
        pvec = rng.random(null_m)
        any_reject += bool(np.any(bh_adjust(pvec) <= null_alpha))
    null_rate = any_reject / null_trials
    ok = mismatches == 0 and null_rate <= null_bound
    details = (
        f"{n_vectors} vectors x {len(alphas)} levels: {mismatches} mismatches; "
        f"global-null rejection rate {null_rate:.4f} (bound {null_bound:g} "
        f"at level {null_alpha:g})"
    )
    return _timed("bh", started, ok, details)


# Monte Carlo slack of the benchmark tables: a mean over 20 x 10 batches of
# m = 1000 points may sit this far on the wrong side of what it estimates.
MC_SLACK = 0.02


@dataclass(frozen=True)
class Bound:
    """One line of a benchmark table: ``metric direction target``.

    With ``limit`` set, the target is that fixed number. Without it, the
    target is the same metric of the known-parameter procedure on the same
    training sets and batches, moved by ``MC_SLACK`` in the worse
    direction; the efficiency lines that no valid procedure can promise a
    fixed value for on a given design (set size, one-class power and false
    label rate) are of that kind.
    """

    metric: str
    direction: str
    limit: float | None = None

    @property
    def rule(self) -> str:
        if self.limit is not None:
            return f"{self.direction} {self.limit:g}"
        sign = "+" if self.direction == "<=" else "-"
        return f"{self.direction} oracle {sign} {MC_SLACK:g}"

    def evaluate(
        self, means: dict[str, float], oracle_means: dict[str, float] | None
    ) -> BoundResult:
        value = means[self.metric]
        oracle = None if oracle_means is None else oracle_means[self.metric]
        if self.limit is not None:
            target = self.limit
        elif self.direction == "<=":
            target = oracle + MC_SLACK
        else:
            target = oracle - MC_SLACK
        passed = value <= target if self.direction == "<=" else value >= target
        return BoundResult(self, value, oracle, target, passed)


@dataclass(frozen=True)
class BoundResult:
    bound: Bound
    value: float
    oracle: float | None
    target: float
    passed: bool

    def text(self) -> str:
        status = "ok" if self.passed else "FAIL"
        oracle = "" if self.oracle is None else f", oracle {self.oracle:.4f}"
        target = "" if self.bound.limit is not None else f" = {self.target:.4f}"
        return (
            f"{self.bound.metric}={self.value:.4f}{oracle} "
            f"({status} {self.bound.rule}{target})"
        )


def _table_means(reports) -> dict[str, float]:
    means = {
        metric: float(np.mean([getattr(r, metric) for r in reports]))
        for metric in ("power", "coverage", "flr", "fdr", "scw_fdr", "ambiguity")
    }
    means["max_cw_fdr"] = float(np.max(np.mean([r.cw_fdr for r in reports], axis=0)))
    return means


def _cw_fdr_bounds(alpha: float) -> tuple[Bound, ...]:
    return (
        Bound("max_cw_fdr", "<=", alpha + MC_SLACK),
        Bound("scw_fdr", "<=", alpha),
    )


def _multiclass_bounds(alpha: float) -> tuple[Bound, ...]:
    return (
        Bound("power", ">=", 0.95),
        Bound("flr", "<=", 0.01),
        *_cw_fdr_bounds(alpha),
        Bound("coverage", ">=", 0.93),
        Bound("ambiguity", "<="),
    )


def _oneclass_bounds(alpha: float) -> tuple[Bound, ...]:
    return (
        Bound("power", ">="),
        Bound("fdr", "<=", 0.08),
        Bound("coverage", ">=", 0.95),
        Bound("flr", "<="),
    )


# The checks that hold bounds, a function of alpha, on one simulation table.
_TABLE_CHECKS = {
    "cw_fdr": ("multi_class", _cw_fdr_bounds),
    "multiclass": ("multi_class", _multiclass_bounds),
    "oneclass": ("one_class", _oneclass_bounds),
}


def _table(name, seed, replicates, test_sets, p, n_k, rho, alpha, m) -> ExperimentConfig:
    """The one-cell experiment that check ``name`` reads, from its arguments."""
    return ExperimentConfig(
        _TABLE_CHECKS[name][0], p, n_k, rho, m, alpha,
        replicates=replicates, test_sets=test_sets, master_seed=seed,
    )


def _table_mode(name: str, alpha: float) -> str:
    """The known-parameter procedure runs only when a bound of check
    ``name`` is measured against it."""
    bounds = _TABLE_CHECKS[name][1](alpha)
    return "both" if any(bound.limit is None for bound in bounds) else "empirical"


def _benchmark(
    name: str,
    table: ExperimentConfig,
    mode: str | None = None,
    shared: dict[ExperimentConfig, dict[str, list]] | None = None,
) -> CheckResult:
    """Hold the means of ``table`` to the bounds of check ``name``.

    ``shared`` holds the reports of tables that earlier checks ran; a table
    found there is not run again. Otherwise the table runs in ``mode``,
    by default the mode this check needs, and is added to ``shared``.
    """
    started = time.perf_counter()
    needed = _table_mode(name, table.alpha)
    shared = {} if shared is None else shared
    if table not in shared:
        (cell,) = table.cells()
        shared[table] = run_cell(replace(table, mode=mode or needed), *cell).reports
    # only the modes this check needs, so its line is the same either way
    empirical = _table_means(shared[table]["empirical"])
    oracle = _table_means(shared[table]["oracle"]) if needed == "both" else None
    bounds = _TABLE_CHECKS[name][1](table.alpha)
    lines = tuple(bound.evaluate(empirical, oracle) for bound in bounds)
    details = "; ".join(line.text() for line in lines)
    passed = all(line.passed for line in lines)
    return _timed(name, started, passed, details, lines)


def check_cw_fdr_control(
    seed: int = 7,
    replicates: int = 20,
    test_sets: int = 10,
    p: int = 200,
    n_k: int = 200,
    rho: float = 0.8,
    alpha: float = 0.05,
    m: int = 1000,
) -> CheckResult:
    """Per-class false discovery control holds on the four-class benchmark.

    Runs the pinned multi-class design and asserts only the error-control
    bounds: every class-wise FDR mean <= alpha + 0.02 and the summarized
    class-wise FDR mean <= alpha. Power and set-size lines are checked
    separately by the full benchmark.
    """
    table = _table("cw_fdr", seed, replicates, test_sets, p, n_k, rho, alpha, m)
    return _benchmark("cw_fdr", table)


def check_multiclass_benchmark(
    seed: int = 7,
    replicates: int = 20,
    test_sets: int = 10,
    p: int = 200,
    n_k: int = 200,
    rho: float = 0.8,
    alpha: float = 0.05,
    m: int = 1000,
) -> CheckResult:
    """Four-class benchmark at the pinned design.

    Power, false label rate, class-wise and summarized FDR and coverage are
    held to fixed targets; the mean non-empty set size to the
    known-parameter procedure's plus ``MC_SLACK``.
    """
    table = _table("multiclass", seed, replicates, test_sets, p, n_k, rho, alpha, m)
    return _benchmark("multiclass", table)


def check_oneclass_benchmark(
    seed: int = 8,
    replicates: int = 20,
    test_sets: int = 10,
    p: int = 200,
    n_k: int = 200,
    rho: float = 0.8,
    alpha: float = 0.05,
    m: int = 1000,
) -> CheckResult:
    """Single-class benchmark at the pinned design.

    FDR and coverage are held to fixed targets; power and false label rate
    to the known-parameter procedure's, less or plus ``MC_SLACK``.
    """
    table = _table("oneclass", seed, replicates, test_sets, p, n_k, rho, alpha, m)
    return _benchmark("oneclass", table)


# The default suite covers the distributional guarantees; all of them hold
# by construction and pass at the default seeds. The extra checks are
# further guarantee checks run by the test suite (and on request); the
# benchmark checks rerun the pinned simulation tables and are costly, so
# they run only when named.
DEFAULT_CHECKS = (
    "super_uniformity",
    "coverage",
    "deviation",
    "cw_fdr",
    "scw",
)
EXTRA_CHECKS = ("set_size", "construction", "bh")
BENCHMARK_CHECKS = ("multiclass", "oneclass")

CHECKS = {
    "super_uniformity": check_super_uniformity,
    "coverage": check_oracle_coverage,
    "deviation": check_deviation_trend,
    "set_size": check_set_size_trend,
    "cw_fdr": check_cw_fdr_control,
    "scw": check_scw_bound,
    "construction": check_loss_construction,
    "bh": check_bh_procedure,
    "multiclass": check_multiclass_benchmark,
    "oneclass": check_oneclass_benchmark,
}


def run_checks(
    names: tuple[str, ...] | list[str] | None = None,
    echo=None,
    **overrides,
) -> list[CheckResult]:
    """Run named checks (default: all of ``DEFAULT_CHECKS``) in order.

    Keyword overrides (seed, alpha, n_k, ...) are forwarded to each check
    that accepts the parameter and ignored by the rest.
    """
    if names is None:
        names = DEFAULT_CHECKS
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise DataError(
            f"unknown checks {unknown}; available: {sorted(CHECKS)}"
        )
    # A table that several checks hold bounds on runs once, in every mode
    # one of them needs: equal tables draw equal data, and a mode's reports
    # do not depend on the modes run beside it.
    kwargs, tables, modes = {}, {}, {}
    for name in names:
        signature = inspect.signature(CHECKS[name])
        kwargs[name] = {k: v for k, v in overrides.items() if k in signature.parameters}
        if name in _TABLE_CHECKS:
            args = signature.bind(**kwargs[name])
            args.apply_defaults()
            table = tables[name] = _table(name, **args.arguments)
            if modes.get(table) != "both":
                modes[table] = _table_mode(name, table.alpha)
    shared = {}
    results = []
    for name in names:
        if name in tables:
            result = _benchmark(name, tables[name], modes[tables[name]], shared)
        else:
            result = CHECKS[name](**kwargs[name])
        if echo is not None:
            echo(result.line())
        results.append(result)
    return results
