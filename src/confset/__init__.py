"""Set-valued classification with simultaneous outlier detection.

Given labeled training data, the procedure scores a test point against each
class with a variance-scaled squared distance, converts the scores to
conformal p-values against the class's own training scores, applies a
step-up multiplicity adjustment across the m test points within each class,
and keeps every class whose adjusted p-value clears a level-dependent
threshold.
The result is a label set per test point: a singleton is a confident
classification, a larger set an ambiguous one, and the empty set flags the
point as an outlier belonging to no known class. Acceptance thresholds are
calibrated so that, per class, wrongly excluded true labels are controlled
at the target rate in the false-discovery sense.

Quick start::

    import confset

    config = confset.multi_class_config(p=100, n_k=200, rho=0.5)
    train, test = confset.generate(config)
    pvals, sets = confset.predict(train, test, alpha=0.05)
    report = confset.evaluate_sets(sets, test.truth)
    print(confset.render_results([report]))
"""

from .core import (
    ClassModel,
    DataError,
    DegenerateVarianceError,
    LabeledDataset,
    PredictionSets,
    PValueMatrix,
    TestBatch,
)
from .scoring import fit_class_summary, fit_model, score_batch, score_classes
from .conformal import (
    acceptance_threshold,
    bh_adjust,
    conformal_pvalues,
    predict,
)
from .metrics import MetricsReport, evaluate_sets, rejection_global_fdp
from .datagen import (
    DEFAULT_ATOM_SEED,
    ComponentSpec,
    ScenarioConfig,
    apportion_test_counts,
    generate,
    generate_test_batch,
    generate_training,
    make_atoms,
    multi_class_config,
    one_class_config,
    oracle_params,
    sample_points,
    with_run_seed,
)
from .io import (
    ExperimentConfig,
    load_config,
    load_csv,
    load_json,
    read_batch_csv,
    read_results,
    read_sets_csv,
    read_truth_csv,
    render_results,
    save_config,
    save_json,
    split_train_test,
    write_batch_csv,
    write_dataset_csv,
    write_results,
    write_pvalues_csv,
    write_sets_csv,
    write_thresholds_csv,
)
from .experiment import (
    CellResult,
    replicate_seed,
    run_cell,
    run_experiment,
    run_replicate,
)
from .validation import (
    CHECKS,
    DEFAULT_CHECKS,
    CheckResult,
    run_checks,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # containers and errors
    "ClassModel",
    "DataError",
    "DegenerateVarianceError",
    "LabeledDataset",
    "PredictionSets",
    "PValueMatrix",
    "TestBatch",
    # scoring
    "fit_class_summary",
    "fit_model",
    "score_batch",
    "score_classes",
    # conformal prediction
    "acceptance_threshold",
    "bh_adjust",
    "conformal_pvalues",
    "predict",
    # metrics
    "MetricsReport",
    "evaluate_sets",
    "rejection_global_fdp",
    # data generation
    "DEFAULT_ATOM_SEED",
    "ComponentSpec",
    "ScenarioConfig",
    "apportion_test_counts",
    "generate",
    "generate_test_batch",
    "generate_training",
    "make_atoms",
    "multi_class_config",
    "one_class_config",
    "oracle_params",
    "sample_points",
    "with_run_seed",
    # file formats
    "ExperimentConfig",
    "load_config",
    "load_csv",
    "load_json",
    "read_batch_csv",
    "read_results",
    "read_sets_csv",
    "read_truth_csv",
    "render_results",
    "save_config",
    "save_json",
    "split_train_test",
    "write_batch_csv",
    "write_dataset_csv",
    "write_results",
    "write_pvalues_csv",
    "write_sets_csv",
    "write_thresholds_csv",
    # experiments
    "CellResult",
    "replicate_seed",
    "run_cell",
    "run_experiment",
    "run_replicate",
    # validation
    "CHECKS",
    "DEFAULT_CHECKS",
    "CheckResult",
    "run_checks",
]
