"""Release acceptance: pinned statistical and performance targets.

Every test asserts one target at its stated tolerance, at pinned seeds,
so this file is the release gate for the whole procedure. Two kinds of
line appear:

* fixed guarantees: a bound the procedure promises on any design
  (super-uniformity, coverage, class-wise and summarized FDR, the loss
  ordering, step-up equivalence), plus the multi-class power and false
  label rate targets and the runtime budgets;
* oracle-relative efficiency lines: multi-class set size, one-class power
  and one-class false label rate. No valid procedure promises a fixed
  value for these on a given design, so the estimated-parameter metric is
  compared with the known-parameter metric on the same training sets and
  batches, with 0.02 of Monte Carlo slack (the README's "Benchmark lines"
  section has the measurements).

The benchmark lines read their bounds from ``confset.validation``, the
same checks that ``confset validate --check multiclass,oneclass`` runs;
each test also pins the rule it expects. A red line here is a finding,
not a flake. Do not loosen a tolerance or reseed to force a line green.

Targets covered, in order:
 1. known-parameter p-values are super-uniform (and the check is fast)
 2. known-parameter coverage at alpha = 0.05 within 3-sigma Monte Carlo
    slack: at least 0.95 - 3 sqrt(0.05 * 0.95 / 2000) = 0.9354
 3. four-class benchmark table at p=200, n_k=200, rho=0.8: fixed power,
    FLR, class-wise FDR, summarized FDR and coverage targets; set size
    against the known-parameter procedure
 4. one-class benchmark table at the same scale: fixed FDR and coverage
    targets; power and FLR against the known-parameter procedure
 5. summarized class-wise loss never exceeds the pooled FDP, pointwise
 6. the two-point construction separating the two loss notions
 7. empirical p-values approach known-parameter p-values as n_k grows
 8. prediction-set sizes converge likewise
 9. step-up adjustment matches the classical procedure and controls FDR
10. the experiment command is deterministic end to end
"""

import numpy as np
import pytest

from confset import (
    PredictionSets,
    evaluate_sets,
    read_results,
    rejection_global_fdp,
)
from confset.cli import EXIT_OK, main
from confset.validation import (
    check_bh_procedure,
    check_deviation_trend,
    check_loss_construction,
    check_oracle_coverage,
    check_scw_bound,
    check_set_size_trend,
    check_super_uniformity,
    check_table,
)

# ---------------------------------------------------------------------------
# criteria 1-2: known-parameter validity at K=1, p=50, n_k=200, 2000 draws


@pytest.fixture(scope="module")
def super_uniformity():
    return check_super_uniformity()  # pinned defaults: seed 0, 2000 draws


def test_c01_oracle_pvalues_super_uniform(super_uniformity):
    # P(p <= a) <= a + 3 sqrt(a(1-a)/2000) at a in {0.01, 0.05, 0.1, 0.2}
    assert super_uniformity.passed, super_uniformity.details


def test_c01_runtime_under_30s(super_uniformity):
    assert super_uniformity.elapsed_s < 30.0, f"took {super_uniformity.elapsed_s:.1f}s"


def test_c02_oracle_coverage_within_002():
    result = check_oracle_coverage(alpha=0.05)
    assert ">= 0.9354 " in result.details
    assert result.passed, result.details


# ---------------------------------------------------------------------------
# criteria 3-4: benchmark tables, 20 replicates x 10 test sets of m=1000


@pytest.fixture(scope="module")
def multiclass():
    # test batches of validation.TABLE_M = 1000 points
    return check_table(
        "multiclass", seed=7, replicates=20, test_sets=10,
        p=200, n_k=200, rho=0.8, alpha=0.05,
    )


@pytest.fixture(scope="module")
def oneclass():
    return check_table(
        "oneclass", seed=8, replicates=20, test_sets=10,
        p=200, n_k=200, rho=0.8, alpha=0.05,
    )


def _assert_line(result, metric, rule):
    # the check's own line for the metric, so `confset validate --check
    # multiclass,oneclass` passes and fails with these tests
    line = result.bounds[metric]
    assert line.bound.rule == rule, f"{metric} is held to {line.bound.rule}, not {rule}"
    assert line.passed, line.text()


def test_c03_multiclass_power(multiclass):
    _assert_line(multiclass, "power", ">= 0.95")


def test_c03_multiclass_flr(multiclass):
    _assert_line(multiclass, "flr", "<= 0.01")


def test_c03_multiclass_every_classwise_fdr(multiclass):
    _assert_line(multiclass, "max_cw_fdr", "<= 0.07")  # alpha + 0.02


def test_c03_multiclass_scw_fdr(multiclass):
    _assert_line(multiclass, "scw_fdr", "<= 0.05")


def test_c03_multiclass_coverage(multiclass):
    _assert_line(multiclass, "coverage", ">= 0.93")


def test_c03_multiclass_ambiguity(multiclass):
    # mean non-empty set size, against known parameters on the same batches
    _assert_line(multiclass, "ambiguity", "<= oracle + 0.02")


def test_c03_multiclass_runtime_under_10min(multiclass):
    # the whole table, known-parameter pass included
    assert multiclass.elapsed_s < 600.0, f"took {multiclass.elapsed_s:.1f}s"


def test_c04_oneclass_power(oneclass):
    _assert_line(oneclass, "power", ">= oracle - 0.02")


def test_c04_oneclass_fdr(oneclass):
    _assert_line(oneclass, "fdr", "<= 0.08")


def test_c04_oneclass_coverage(oneclass):
    _assert_line(oneclass, "coverage", ">= 0.95")


def test_c04_oneclass_flr(oneclass):
    _assert_line(oneclass, "flr", "<= oracle + 0.02")


# ---------------------------------------------------------------------------
# criterion 5: summarized class-wise loss <= pooled FDP, exactly, pointwise


def test_c05_scw_bounded_by_pooled_fdp_pointwise():
    # 10000 random instances at seed 4 (K in 1..6, m in 1..29, random sets
    # and truths), zero tolerance
    result = check_scw_bound()
    assert result.passed, result.details
    assert result.details == (
        "10000 random instances, 0 violations; max(scw - fdp) = 0.000e+00"
    )


# ---------------------------------------------------------------------------
# criterion 6: the construction where the two loss notions separate by half


def test_c06_two_point_construction_means():
    # Two test points over two classes: the first is rejected from class 1
    # and is a true class-1 point with probability beta = 0.15; the second
    # is a correctly accepted class-2 point. Class 2 never rejects, so its
    # clamped count pads the summarized denominator: the summarized loss
    # halves while the pooled FDP does not.
    sets = PredictionSets(member=np.array([[False, True], [True, True]]))
    value = {
        t0: (
            evaluate_sets(sets, np.array([t0, 2])).scw_fdr,
            rejection_global_fdp(sets, np.array([t0, 2])),
        )
        for t0 in (1, 3)
    }
    assert value[1] == (0.5, 1.0) and value[3] == (0.0, 0.0)

    # 100000 trials at seed 5: means within 0.005 of 0.075 and 0.01 of 0.15
    result = check_loss_construction()
    assert result.passed, result.details
    assert result.details == (
        "mean scw 0.0746 (target 0.075+-0.005); "
        "mean global fdp 0.1493 (target 0.15+-0.01)"
    )


# ---------------------------------------------------------------------------
# criteria 7-8: estimated parameters converge to known parameters in n_k


def test_c07_pvalue_deviation_strictly_decreasing():
    # q95 |p_est - p_known| over 200 draws falls across n_k in {100, 400,
    # 1600} and stays below the theoretical envelope at a = 2
    result = check_deviation_trend()
    assert result.passed, result.details


def test_c08_set_size_gap_non_increasing():
    # median over 50 seeds of the mean set-size gap on a fixed batch
    result = check_set_size_trend()
    assert result.passed, result.details


# ---------------------------------------------------------------------------
# criterion 9: step-up adjustment equals the classical procedure


def test_c09_stepup_equivalence_and_null_fdr():
    # 1000 random p-vectors at 10 alpha levels; then 5000 global-null
    # trials at alpha = 0.1 keep empirical FDR <= 0.11
    result = check_bh_procedure()
    assert result.passed, result.details


# ---------------------------------------------------------------------------
# criterion 10: the experiment command is reproducible


def _strip_times(path):
    return [
        line
        for line in path.read_text().splitlines()
        if not line.startswith("time_s")
    ]


def test_c10_experiment_command_deterministic(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(
        "scenario: multi_class\np: [20]\nn_k: [30]\nrho: [0.0]\n"
        "m: 60\nalpha: 0.1\nreplicates: 3\ntest_sets: 2\nmaster_seed: 5\n"
        f"out_dir: {tmp_path / 'a'}\n"
    )
    assert main(["experiment", "--config", str(config)]) == EXIT_OK
    assert (
        main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / "b")])
        == EXIT_OK
    )
    capsys.readouterr()
    tag = "multi_class_p20_nk30_rho0_empirical"
    table_a = _strip_times(tmp_path / "a" / f"{tag}.csv")
    table_b = _strip_times(tmp_path / "b" / f"{tag}.csv")
    assert table_a == table_b and len(table_a) > 1
    # and the parsed numbers really are the full-precision metric means
    values_a = read_results(tmp_path / "a" / f"{tag}.csv")
    values_b = read_results(tmp_path / "b" / f"{tag}.csv")
    values_a.pop("time_s"), values_b.pop("time_s")
    assert values_a == values_b
