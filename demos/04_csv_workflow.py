"""End-to-end workflow on CSV files, the way real data arrives.

Builds a small labeled CSV, splits it into train/test, runs prediction
through the same code paths as the command-line tool, then drives a tiny
grid experiment from a YAML config and reads the results table back.

Everything happens inside a temporary directory that is removed at the
end. Run:  python3 demos/04_csv_workflow.py
"""

import tempfile
from pathlib import Path

from confset import (
    ExperimentConfig,
    evaluate_sets,
    generate,
    load_csv,
    multi_class_config,
    predict,
    read_results,
    run_experiment,
    save_config,
    split_train_test,
    write_dataset_csv,
)

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    # --- 1. write a labeled CSV, as an upstream system might hand us ---
    train, _ = generate(multi_class_config(p=20, n_k=80, m=1, run_seed=3))
    csv_path = tmp / "measurements.csv"
    write_dataset_csv(csv_path, train)
    print(f"wrote {csv_path.name}: {train.n} rows, {train.n_classes} classes")

    # --- 2. load it back and split ---
    # the middle item is the batch of rows split off by outlier_label=...
    data, _, label_map = load_csv(csv_path, label_column="label")
    print(f"labels found: {label_map}")
    fit_part, test_part = split_train_test(data, fraction=0.75, seed=9)
    print(f"split: {fit_part.n} rows to calibrate, {test_part.m} rows to score")

    # --- 3. predict and score ---
    pvals, sets = predict(fit_part, test_part, alpha=0.1)
    report = evaluate_sets(sets, test_part.truth)
    print(f"coverage {report.coverage:.3f}, ambiguity {report.ambiguity:.3f}, "
          f"accuracy {report.accuracy:.3f}  (accuracy counts exact singleton hits;\n"
          f"  overlapping classes widen sets instead of costing coverage)\n")

    # --- 4. a small simulation experiment from a config file ---
    out_dir = tmp / "results"
    config = ExperimentConfig(
        scenario="one_class",
        p=(40,),
        n_k=(50, 200),
        rho=(0.2,),
        m=100,
        alpha=0.1,
        replicates=3,
        test_sets=2,
        mode="empirical",
        master_seed=42,
        out_dir=str(out_dir),
    )
    config_path = tmp / "experiment.yaml"
    save_config(config, config_path)
    print(f"experiment config written to {config_path.name}:")
    print("  " + "\n  ".join(config_path.read_text().strip().splitlines()))

    run_experiment(config)
    print(f"\nresult files: {sorted(f.name for f in out_dir.iterdir())}")

    for cell_csv in sorted(out_dir.glob("*_empirical.csv")):
        table = read_results(cell_csv)
        print(f"\n{cell_csv.stem}:")
        for name in ("power", "fdr", "coverage"):
            mean, std = table[name]
            print(f"  {name:<9} {mean:.4f} (sd {std:.4f})")

print("\ntemporary directory removed; nothing persisted.")
