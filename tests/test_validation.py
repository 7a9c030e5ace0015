"""run_checks: benchmark checks on one simulation table share one run."""

import pytest

from confset import validation
from confset.validation import (
    check_cw_fdr_control,
    check_multiclass_benchmark,
    check_oneclass_benchmark,
    run_checks,
)

SMALL = dict(replicates=2, test_sets=2, p=6, n_k=20, m=40)


@pytest.fixture
def replicate_modes(monkeypatch):
    """The modes of every run_replicate call the checks make."""
    modes = []
    real = validation.run_replicate

    def spy(config, test_sets, run_modes):
        modes.append(run_modes)
        return real(config, test_sets, run_modes)

    monkeypatch.setattr(validation, "run_replicate", spy)
    return modes


def test_cw_fdr_and_multiclass_share_one_table(replicate_modes):
    shared = run_checks(["cw_fdr", "multiclass"], **SMALL)
    # one run of the seed-7 table, in the union of the two checks' modes
    assert replicate_modes == [("empirical", "oracle")] * 2
    replicate_modes.clear()
    alone = [check_cw_fdr_control(**SMALL), check_multiclass_benchmark(**SMALL)]
    assert replicate_modes == [("empirical",)] * 2 + [("empirical", "oracle")] * 2
    assert [(r.name, r.passed, r.details) for r in shared] == [
        (r.name, r.passed, r.details) for r in alone
    ]


def test_different_tables_run_apart(replicate_modes):
    # same seed, but one-class and multi-class designs draw different data
    shared = run_checks(["cw_fdr", "oneclass"], seed=7, **SMALL)
    assert replicate_modes == [("empirical",)] * 2 + [("empirical", "oracle")] * 2
    alone = [check_cw_fdr_control(seed=7, **SMALL), check_oneclass_benchmark(seed=7, **SMALL)]
    assert [r.details for r in shared] == [r.details for r in alone]
