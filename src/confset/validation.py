"""Monte Carlo checks of the procedure's statistical guarantees.

Each check draws fresh data from seeded generators, measures an empirical
frequency or trend, and compares it against what the theory promises plus
explicit Monte Carlo slack. The guarantee checks (p-value
super-uniformity, known-parameter coverage, convergence trends) hold by
construction and pass at the default seeds; ``DEFAULT_CHECKS`` runs when
no check is named. The identities of deterministic code (the set-wise loss
never above the pooled exclusion FDP, the two-point loss construction, BH's
step-up equivalence) are not drawn here: the tier-1 tests in
``tests/test_acceptance.py`` assert them (targets 5, 6 and 9).

``cw_fdr``, ``multiclass`` and ``oneclass`` are the rows of ``_TABLES``,
each a scenario, a default seed and bounds as a function of alpha, all
read by :func:`check_table`. Each table check runs its own one-cell
``ExperimentConfig`` of its design and seed through
:func:`confset.experiment.run_cell`. Error-control lines are held to
targets set by alpha, efficiency lines to the known-parameter procedure
on the same data, within Monte Carlo slack. Every check parameter is a
``confset validate`` flag; the other settings are module constants.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .conformal import PREDICTORS, acceptance_threshold, predict
from .core import DataError
from .datagen import (
    ScenarioConfig,
    generate_test_batch,
    generate_training,
    make_atoms,
    multi_class_config,
    oracle_params,
)
from .experiment import ExperimentConfig, run_cell
from .io import _aggregate

__all__ = [
    "CheckResult",
    "check_super_uniformity",
    "check_oracle_coverage",
    "check_deviation_trend",
    "check_set_size_trend",
    "check_table",
    "CHECKS",
    "DEFAULT_CHECKS",
    "run_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    elapsed_s: float
    # a table check's benchmark lines by metric, in the order of its details
    bounds: dict[str, BoundResult] = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.elapsed_s:.1f}s): {self.details}"


def _timed(
    name: str,
    started: float,
    passed: bool,
    details: str,
    bounds: dict[str, BoundResult] | None = None,
) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(passed),
        details=details,
        elapsed_s=time.perf_counter() - started,
        bounds=bounds or {},
    )


def _draw_pvalues(
    config: ScenarioConfig,
    draws: int,
    rng: np.random.Generator,
    modes: tuple[str, ...],
) -> np.ndarray:
    """Raw p-values of fresh inliers as ``predict`` ships them, shape
    (draws, len(modes)).

    Each draw makes a fresh one-class training set and one inlier from
    ``rng``, then ranks the inlier through :func:`predict` once per
    predictor named in ``modes``, a row of ``PREDICTORS`` given the design's
    known moments. With m = 1 ``predict`` leaves the p-value unadjusted.
    """
    atoms = make_atoms(config.atom_seed, config.p)
    known = oracle_params(config)
    pvals = np.empty((draws, len(modes)))
    for i in range(draws):
        train = generate_training(config, rng, atoms)
        batch = generate_test_batch(config, rng, atoms)
        for j, mode in enumerate(modes):
            row = PREDICTORS[mode](train, known, None)
            pvals[i, j] = predict(train, batch, config.alpha, **row)[0].raw[0, 0]
    return pvals


# Levels a at which check_super_uniformity bounds P(p <= a).
UNIFORMITY_LEVELS = (0.01, 0.05, 0.1, 0.2)


def check_super_uniformity(
    seed: int = 0,
    draws: int = 2000,
    p: int = 50,
    n_k: int = 200,
    rho: float = 0.8,
) -> CheckResult:
    """Known-parameter p-values are super-uniform: P(p <= a) <= a + MC slack,
    at each level a of ``UNIFORMITY_LEVELS``.

    With class parameters known, training and test scores of a true inlier
    are exchangeable, so the p-value's exceedance rate sits at or below
    ``a`` exactly; the bound allows 3 * sqrt(a(1-a)/draws) of Monte Carlo
    slack. Each draw uses a fresh single-class training set and one fresh
    inlier, ranked through ``predict``.
    """
    started = time.perf_counter()
    config = ScenarioConfig(p=p, n_k=n_k, rho=rho, m=1, alpha=min(UNIFORMITY_LEVELS))
    rng = np.random.default_rng(seed)
    pvals = _draw_pvalues(config, draws, rng, ("oracle",))[:, 0]
    parts = []
    passed = True
    for a in UNIFORMITY_LEVELS:
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
) -> CheckResult:
    """With known parameters, a fresh inlier keeps its class in the set
    at rate >= 1 - alpha - 3 sqrt(alpha(1-alpha)/draws), 3-sigma slack."""
    started = time.perf_counter()
    slack = 3.0 * float(np.sqrt(alpha * (1.0 - alpha) / draws))
    config = ScenarioConfig(p=p, n_k=n_k, rho=rho, m=1, alpha=alpha)
    rng = np.random.default_rng(seed)
    pvals = _draw_pvalues(config, draws, rng, ("oracle",))[:, 0]
    rate = np.count_nonzero(pvals > acceptance_threshold(n_k, alpha)) / draws
    target = 1.0 - alpha - slack
    details = f"coverage {rate:.4f} >= {target:.4f} (alpha={alpha:g}, n_k={n_k})"
    return _timed("coverage", started, rate >= target, details)


def _deviation_bound(n: int, a: float) -> float:
    """Envelope 4(sqrt(a) + 2a/3) sqrt(log n / n) on |estimated - known|
    p-values of a class with n training points, exceeded with probability
    at most 2 n^-a. It is vacuous (> 1) for small n."""
    return 4.0 * (math.sqrt(a) + 2.0 * a / 3.0) * math.sqrt(math.log(n) / n)


# The exponent a of check_deviation_trend's envelope; the envelope holds for a >= 2.
DEVIATION_A = 2.0
# The training sizes of both trend checks, and check_set_size_trend's
# training seeds per size and test batch size.
TREND_N_GRID = (100, 400, 1600)
SET_SIZE_SEEDS = 50
SET_SIZE_M = 200


def check_deviation_trend(
    seed: int = 2,
    draws: int = 200,
    p: int = 100,
    rho: float = 0.8,
) -> CheckResult:
    """|estimated p-value - known-parameter p-value| shrinks with n.

    For each training size of ``TREND_N_GRID`` the 95th percentile of the
    gap (same training set, same test point, estimated vs known parameters)
    must decrease strictly along the grid and sit below the theoretical
    envelope 4(sqrt(a) + 2a/3) sqrt(log n / n) at a = ``DEVIATION_A``.
    """
    started = time.perf_counter()
    q95 = []
    for idx, n_k in enumerate(TREND_N_GRID):
        config = ScenarioConfig(p=p, n_k=n_k, rho=rho, m=1)
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        pvals = _draw_pvalues(config, draws, rng, ("empirical", "oracle"))
        q95.append(float(np.quantile(np.abs(pvals[:, 0] - pvals[:, 1]), 0.95)))
    decreasing = all(q95[i + 1] < q95[i] for i in range(len(q95) - 1))
    ratios = [q / _deviation_bound(n, DEVIATION_A) for q, n in zip(q95, TREND_N_GRID)]
    below = all(r < 1.0 for r in ratios)
    details = "; ".join(
        f"n={n}: q95={q:.4f}, q95/bound={r:.3f}"
        for n, q, r in zip(TREND_N_GRID, q95, ratios)
    )
    details += f"; strictly decreasing: {decreasing}"
    return _timed("deviation", started, decreasing and below, details)


def check_set_size_trend(
    seed: int = 3,
    p: int = 50,
    rho: float = 0.8,
    alpha: float = 0.05,
) -> CheckResult:
    """Estimated-parameter sets approach known-parameter sets as n grows.

    One fixed test batch of ``SET_SIZE_M`` points; for each training size of
    ``TREND_N_GRID``, the median over ``SET_SIZE_SEEDS`` seeds of the mean
    absolute set-size gap between the two predictors must not increase
    along the grid.
    """
    started = time.perf_counter()
    base = multi_class_config(p=p, n_k=TREND_N_GRID[0], rho=rho, m=SET_SIZE_M, alpha=alpha)
    atoms = make_atoms(base.atom_seed, p)
    batch = generate_test_batch(
        base, np.random.default_rng(np.random.SeedSequence([seed, 10**6])), atoms
    )
    known = oracle_params(base)
    medians = []
    for idx, n_k in enumerate(TREND_N_GRID):
        config = multi_class_config(p=p, n_k=n_k, rho=rho, m=SET_SIZE_M, alpha=alpha)
        gaps = np.empty(SET_SIZE_SEEDS)
        for s in range(SET_SIZE_SEEDS):
            rng = np.random.default_rng(np.random.SeedSequence([seed, idx, s]))
            train = generate_training(config, rng, atoms)
            est, exact = (
                predict(train, batch, alpha, **PREDICTORS[mode](train, known, None))[1].sizes
                for mode in ("empirical", "oracle")
            )
            gaps[s] = np.abs(est - exact).mean()
        medians.append(float(np.median(gaps)))
    monotone = all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1))
    details = "; ".join(
        f"n={n}: median gap {g:.4f}" for n, g in zip(TREND_N_GRID, medians)
    )
    return _timed("set_size", started, monotone, details)


# The test batch size of the benchmark tables.
TABLE_M = 1000
# Monte Carlo slack of the benchmark tables: a mean over 20 x 10 batches of
# TABLE_M points may sit this far on the wrong side of what it estimates.
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
    """The metric means of ``confset experiment``'s results table, plus the
    largest class-wise FDR mean as ``max_cw_fdr``."""
    means = {name: mean for name, mean, _ in _aggregate(reports)}
    means["max_cw_fdr"] = max(v for k, v in means.items() if k.startswith("cw_fdr_"))
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
        Bound("coverage", ">=", 1.0 - alpha - MC_SLACK),
        Bound("ambiguity", "<="),
    )


def _oneclass_bounds(alpha: float) -> tuple[Bound, ...]:
    return (
        Bound("power", ">="),
        Bound("fdr", "<=", alpha + 0.03),
        Bound("coverage", ">=", 1.0 - alpha),
        Bound("flr", "<="),
    )


# The simulation tables: each table check's scenario, its default seed and
# its bounds, a function of alpha.
_TABLES = {
    "cw_fdr": ("multi_class", 7, _cw_fdr_bounds),
    "multiclass": ("multi_class", 7, _multiclass_bounds),
    "oneclass": ("one_class", 8, _oneclass_bounds),
}


def check_table(
    name: str,
    seed: int | None = None,
    replicates: int = 20,
    test_sets: int = 10,
    p: int = 200,
    n_k: int = 200,
    rho: float = 0.8,
    alpha: float = 0.05,
) -> CheckResult:
    """Hold the means of the simulation table of check ``name`` to its bounds.

    The table is the one-cell experiment of the check's scenario and design
    at ``seed`` (default: the check's own) with test batches of ``TABLE_M``
    points, run by :func:`run_cell`. The ``oracle`` predictor runs only when
    a bound is measured against it.
    """
    started = time.perf_counter()
    scenario, default_seed, bounds_of = _TABLES[name]
    bounds = bounds_of(alpha)
    relative = any(bound.limit is None for bound in bounds)
    reports = run_cell(ExperimentConfig(
        scenario, p, n_k, rho, TABLE_M, alpha, replicates=replicates, test_sets=test_sets,
        mode=("empirical", "oracle") if relative else ("empirical",),
        master_seed=default_seed if seed is None else seed,
    )).reports
    means = {mode: _table_means(mode_reports) for mode, mode_reports in reports.items()}
    lines = {b.metric: b.evaluate(means["empirical"], means.get("oracle")) for b in bounds}
    details = "; ".join(line.text() for line in lines.values())
    passed = all(line.passed for line in lines.values())
    return _timed(name, started, passed, details, lines)


# The default suite; the other checks run when named: set_size checks a
# further trend, multiclass and oneclass are costly tables.
DEFAULT_CHECKS = (
    "super_uniformity",
    "coverage",
    "deviation",
    "cw_fdr",
)

CHECKS = {
    "super_uniformity": check_super_uniformity,
    "coverage": check_oracle_coverage,
    "deviation": check_deviation_trend,
    "set_size": check_set_size_trend,
    "cw_fdr": partial(check_table, "cw_fdr"),
    "multiclass": partial(check_table, "multiclass"),
    "oneclass": partial(check_table, "oneclass"),
}


def run_checks(
    names: tuple[str, ...] | list[str] | None = None,
    echo=None,
    **overrides,
) -> list[CheckResult]:
    """Run named checks (default: all of ``DEFAULT_CHECKS``) in order.

    Keyword overrides (seed, alpha, n_k, ...) are forwarded to each check
    that accepts the parameter and ignored by the rest; an override that
    none of the named checks accepts is a DataError.
    """
    if names is None:
        names = DEFAULT_CHECKS
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise DataError(
            f"unknown checks {unknown}; available: {sorted(CHECKS)}"
        )
    kwargs = {}
    for name in names:
        takes = inspect.signature(CHECKS[name]).parameters
        kwargs[name] = {k: v for k, v in overrides.items() if k in takes}
    unused = [k for k in overrides if not any(k in kw for kw in kwargs.values())]
    if unused:
        raise DataError(f"no check of {list(names)} takes {unused}")
    results = []
    for name in names:
        result = CHECKS[name](**kwargs[name])
        if echo is not None:
            echo(result.line())
        results.append(result)
    return results
