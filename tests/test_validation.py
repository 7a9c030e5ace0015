"""validate's checks: the p-value draw loop, pinned check lines, the
benchmark tables each check runs, and the flags that set check parameters."""

import inspect
from functools import partial

import numpy as np
import pytest

from confset import DataError, experiment, read_results, validation
from confset.cli import build_parser, main
from confset.datagen import ScenarioConfig
from confset.experiment import run_experiment
from confset.io import ExperimentConfig
from confset.validation import (
    CHECKS,
    _draw_pvalues,
    check_deviation_trend,
    check_loss_construction,
    check_oracle_coverage,
    check_scw_bound,
    check_set_size_trend,
    check_super_uniformity,
    check_table,
    run_checks,
)

SMALL = dict(replicates=2, test_sets=2, p=6, n_k=20)


@pytest.fixture
def small_tables(monkeypatch):
    """Benchmark tables of 40-point test batches, for the SMALL design."""
    monkeypatch.setattr(validation, "TABLE_M", 40)


@pytest.fixture
def replicate_modes(monkeypatch):
    """The modes of every run_replicate call the checks make."""
    calls = []
    real = experiment.run_replicate

    def spy(config, test_sets, modes):
        calls.append(modes)
        return real(config, test_sets, modes)

    monkeypatch.setattr(experiment, "run_replicate", spy)
    return calls


@pytest.mark.usefixtures("small_tables")
def test_each_table_check_runs_its_own_table(replicate_modes):
    # cw_fdr and multiclass read the same seed-7 table, each in its own modes
    together = run_checks(["cw_fdr", "multiclass"], **SMALL)
    assert replicate_modes == [("empirical",)] * 2 + [("empirical", "oracle")] * 2
    alone = [check_table("cw_fdr", **SMALL), check_table("multiclass", **SMALL)]
    assert [(r.name, r.passed, r.details) for r in together] == [
        (r.name, r.passed, r.details) for r in alone
    ]


@pytest.mark.usefixtures("small_tables")
def test_different_tables_run_apart(replicate_modes):
    # same seed, but one-class and multi-class designs draw different data
    shared = run_checks(["cw_fdr", "oneclass"], seed=7, **SMALL)
    assert replicate_modes == [("empirical",)] * 2 + [("empirical", "oracle")] * 2
    alone = [check_table("cw_fdr", seed=7, **SMALL), check_table("oneclass", seed=7, **SMALL)]
    assert [r.details for r in shared] == [r.details for r in alone]


@pytest.mark.parametrize(
    "argv, seed",
    [(["--check", "multiclass", "--seed", "3"], 3), (["--check", "oneclass"], 8)],
)
def test_validate_flags_pick_the_table_seed(monkeypatch, argv, seed):
    seeds = []
    real = validation.run_cell

    def spy(table, *cell):
        seeds.append(table.master_seed)
        return real(table, *cell)

    monkeypatch.setattr(validation, "run_cell", spy)
    # a table this small may fail its bounds; only the seed it ran at counts
    small = ["--replicates", "2", "--test-sets", "2", "--p", "6", "--nk", "20"]
    main(["validate", *argv, *small])
    assert seeds == [seed]


@pytest.mark.usefixtures("small_tables")
def test_multiclass_error_bounds_follow_alpha():
    result = check_table("multiclass", alpha=0.1, **SMALL)
    assert result.bounds["max_cw_fdr"].bound.rule == "<= 0.12"
    assert result.bounds["scw_fdr"].bound.rule == "<= 0.1"
    assert result.bounds["coverage"].bound.rule == ">= 0.88"


def test_oneclass_bounds_follow_alpha():
    result = check_table("oneclass", alpha=0.2, replicates=2, test_sets=2)
    assert result.bounds["fdr"].bound.rule == "<= 0.23"
    coverage = result.bounds["coverage"]
    assert coverage.bound.rule == ">= 0.8"
    assert coverage.passed, coverage.text()


def test_in_sample_pvalues_are_anti_conservative():
    """The documented defect of the in-sample default (ROADMAP item 1).

    At n_k = 20, p = 200 a true inlier's in-sample p-value is at most 0.05
    far more often than 5 % of the time, while the known-moment p-value of
    the same draw stays within Monte Carlo slack of 0.05. Once full
    conformal calibration becomes the default (ROADMAP step 1c), the first
    assertion flips.
    """
    config = ScenarioConfig(p=200, n_k=20, rho=0.0, m=1)
    draws = 200
    pvals = _draw_pvalues(
        config, draws, np.random.default_rng(12), ("empirical", "oracle")
    )
    assert pvals.shape == (draws, 2)
    in_sample, known = np.mean(pvals <= 0.05, axis=0)
    assert in_sample >= 0.3
    assert known <= 0.05 + 3.0 * np.sqrt(0.05 * 0.95 / draws)


# Recorded before the three p-value checks shared one draw loop; they pin
# that the loop consumes the generator in the same order and ranks the same
# scores. The scw and construction lines were recorded while both checks
# still called one function per loss; they pin that evaluate_sets gives the
# same losses and that one vector draw gives the same stream.
# The set_size line was recorded while the gap still came from a public
# set_size_discrepancy helper; it pins the inlined mean |size difference|.
# The cw_fdr, multiclass and oneclass lines were recorded while the
# benchmark tables still had their own replicate loop; they pin that
# run_cell draws and scores the same replicates.
@pytest.mark.parametrize(
    "check, kwargs, details",
    [
        (
            check_super_uniformity,
            dict(draws=300, p=20, n_k=50),
            "P(p<=0.01)=0.0000 (bound 0.0272); P(p<=0.05)=0.0467 (bound 0.0877); "
            "P(p<=0.1)=0.1033 (bound 0.1520); P(p<=0.2)=0.1867 (bound 0.2693)",
        ),
        (
            check_oracle_coverage,
            dict(draws=300, p=20, n_k=50),
            "coverage 0.9533 >= 0.9123 (alpha=0.05, n_k=50)",
        ),
        (
            check_deviation_trend,
            dict(draws=100, p=20),
            "n=50: q95=0.2167, q95/bound=0.070; n=200: q95=0.0898, "
            "q95/bound=0.050; strictly decreasing: True",
        ),
        (
            check_set_size_trend,
            dict(p=20),
            "n=50: median gap 0.5000; n=200: median gap 0.0700",
        ),
        (
            check_scw_bound,
            dict(trials=2000),
            "2000 random instances, 0 violations; max(scw - fdp) = 0.000e+00",
        ),
        (
            check_loss_construction,
            dict(trials=20000),
            "mean scw 0.0756 (target 0.075+-0.005); "
            "mean global fdp 0.1512 (target 0.15+-0.01)",
        ),
        (
            partial(check_table, "cw_fdr"),
            dict(replicates=2, test_sets=2),
            "max_cw_fdr=0.0181 (ok <= 0.07); scw_fdr=0.0134 (ok <= 0.05)",
        ),
        (
            partial(check_table, "multiclass"),
            dict(replicates=2, test_sets=2),
            "power=0.9960, oracle 0.9930 (ok >= 0.95); "
            "flr=0.0010, oracle 0.0018 (ok <= 0.01); "
            "max_cw_fdr=0.0181, oracle 0.0106 (ok <= 0.07); "
            "scw_fdr=0.0134, oracle 0.0100 (ok <= 0.05); "
            "coverage=0.9427, oracle 0.9577 (ok >= 0.93); "
            "ambiguity=1.1019, oracle 1.1286 (ok <= oracle + 0.02 = 1.1486)",
        ),
        (
            partial(check_table, "oneclass"),
            dict(replicates=2, test_sets=2),
            "power=0.8330, oracle 0.8020 (ok >= oracle - 0.02 = 0.7820); "
            "fdr=0.0506, oracle 0.0303 (ok <= 0.08); "
            "coverage=0.9850, oracle 0.9913 (ok >= 0.95); "
            "flr=0.0418, oracle 0.0495 (ok <= oracle + 0.02 = 0.0695)",
        ),
    ],
    ids=[
        "super_uniformity", "coverage", "deviation", "set_size", "scw", "construction",
        "cw_fdr", "multiclass", "oneclass",
    ],
)
def test_check_lines_are_pinned(monkeypatch, check, kwargs, details):
    # the trend checks at the grid, seeds and batch size the lines were recorded at
    for name, value in [
        ("TREND_N_GRID", (50, 200)), ("SET_SIZE_SEEDS", 5), ("SET_SIZE_M", 100)
    ]:
        monkeypatch.setattr(validation, name, value)
    result = check(**kwargs)
    assert result.passed
    assert result.details == details


def test_construction_targets_follow_beta(monkeypatch):
    monkeypatch.setattr(validation, "CONSTRUCTION_BETA", 0.3)
    result = check_loss_construction(trials=20000)
    assert result.passed
    assert "(target 0.15+-0.005)" in result.details
    assert "(target 0.3+-0.01)" in result.details


def test_overrides_no_named_check_takes_are_a_data_error():
    # scw takes seed and trials; coverage takes alpha but is not named
    with pytest.raises(DataError, match=r"^no check of \['scw'\] takes \['alpha', 'draws'\]$"):
        run_checks(["scw"], seed=1, alpha=0.3, draws=5)
    # an override that one named check takes is fine for the others
    results = run_checks(["scw", "construction"], trials=500)
    assert [r.name for r in results] == ["scw", "construction"]


def test_check_parameters_are_the_validate_flags():
    # every check parameter but check_table's bound name is a flag dest, and
    # every flag but the check names sets a parameter of some check
    flags = set(vars(build_parser().parse_args(["validate"]))) - {"command", "func", "check"}
    taken = set()
    for name, check in CHECKS.items():
        parameters = inspect.signature(check).parameters.values()
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters), name
        names = {p.name for p in parameters} - {"name"}
        assert names <= flags, f"{name} takes {sorted(names - flags)}, which no flag sets"
        taken |= names
    assert taken == flags


def test_table_means_are_the_experiment_means(tmp_path):
    # bit for bit the means of the results tables `confset experiment` writes;
    # eight reports, so a pairwise sum would differ from adding them in order
    result = check_table("multiclass", replicates=2, test_sets=4)
    cell, = run_experiment(ExperimentConfig(
        "multi_class", 200, 200, 0.8, validation.TABLE_M, 0.05, replicates=2,
        test_sets=4, mode=("empirical", "oracle"), master_seed=7, out_dir=str(tmp_path),
    ))
    for mode in ("empirical", "oracle"):
        table = read_results(tmp_path / f"{cell.tag(mode)}.csv")
        means = {metric: mean for metric, (mean, _) in table.items()}
        means["max_cw_fdr"] = max(means[f"cw_fdr_{k}"] for k in range(1, 5))
        for line in result.bounds.values():
            reported = line.value if mode == "empirical" else line.oracle
            assert reported == means[line.bound.metric], (mode, line.text())
