"""Command-line interface.

Subcommands::

    confset simulate    write a synthetic training set + labeled test batch
    confset predict     score a test CSV against a training CSV
    confset evaluate    score prediction sets against known truth
    confset experiment  run a replicated grid experiment from a YAML config
    confset validate    run Monte Carlo checks of the statistical guarantees

Exit codes: 0 success, 1 stdout closed before the command finished,
2 usage error, 3 data/validation error, 4 one or more validate checks failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .conformal import PREDICTORS, _bh_floor, _grid_count, predict
from .core import DataError
from .datagen import SCENARIOS, ScenarioConfig, generate, oracle_params
from .experiment import load_config, run_experiment
from .io import (
    load_csv,
    load_json,
    read_batch_csv,
    read_header,
    read_sets_csv,
    read_truth_csv,
    render_results,
    save_json,
    write_batch_csv,
    write_dataset_csv,
    write_results,
    write_pvalues_csv,
    write_sets_csv,
    write_thresholds_csv,
)
from .metrics import evaluate_sets
from .validation import CHECKS, run_checks

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CHECK = 4


def _checked(parse, ok, need: str):
    """argparse type: ``parse(text)``, a usage error unless ``ok`` holds."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {parse.__name__} value: {text!r}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    return convert


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_level = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_finite_positive = _checked(float, lambda v: 0.0 < v < np.inf, "finite and positive")
_SHORTHANDS = {"one": "one_class", "multi": "multi_class"}


def _add_simulate(sub):
    # each design flag's dest is a ScenarioConfig field; one left out keeps its default
    p = sub.add_parser(
        "simulate",
        help="generate a synthetic dataset and test batch as CSV",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument(
        "--scenario",
        choices=[*SCENARIOS, *_SHORTHANDS],
        default="multi_class",
        help="'one'/'multi' are accepted shorthands",
    )
    p.add_argument("--p", type=int, help="feature dimension")
    p.add_argument("--nk", dest="n_k", metavar="NK", type=int, help="training rows per class")
    p.add_argument("--m", type=int, help="test batch size")
    p.add_argument("--rho", type=float, help="serial correlation")
    p.add_argument("--inlier-ratio", type=float)
    p.add_argument(
        "--seed", dest="run_seed", metavar="SEED", type=_non_negative_int,
        help="stream seed for the draws",
    )
    p.add_argument("--atom-seed", type=_non_negative_int)
    p.add_argument(
        "--out",
        required=True,
        metavar="PREFIX",
        help="writes PREFIX_train.csv, PREFIX_test.csv, PREFIX_oracle.json",
    )
    p.set_defaults(func=cmd_simulate)


def cmd_simulate(args) -> int:
    scenario = _SHORTHANDS.get(args.scenario, args.scenario)
    design = vars(args).keys() & {f.name for f in fields(ScenarioConfig)}
    config = SCENARIOS[scenario](**{name: getattr(args, name) for name in design})
    train, test = generate(config)
    write_dataset_csv(f"{args.out}_train.csv", train)
    write_batch_csv(f"{args.out}_test.csv", test)
    save_json(oracle_params(config), f"{args.out}_oracle.json")
    n_out = int(np.sum(test.truth == config.n_classes + 1))
    print(
        f"{scenario}: {train.n} training rows over {train.n_classes} classes, "
        f"p={train.n_features}"
    )
    print(f"test batch: {test.m} rows ({test.m - n_out} inliers, {n_out} outliers)")
    print(f"wrote {args.out}_train.csv, {args.out}_test.csv, {args.out}_oracle.json")
    return EXIT_OK


def _add_predict(sub):
    p = sub.add_parser(
        "predict", help="compute p-values and prediction sets for a test CSV"
    )
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--label-column", default="label")
    p.add_argument(
        "--outlier-label",
        default=None,
        help="training rows with this label are excluded from fitting",
    )
    p.add_argument("--test", required=True, help="test CSV")
    p.add_argument(
        "--truth-column",
        default=None,
        help="optional truth column in the test CSV, ignored for prediction",
    )
    p.add_argument("--alpha", type=_level, default=0.05)
    p.add_argument("--mode", choices=list(PREDICTORS), default="empirical")
    p.add_argument(
        "--oracle-params",
        default=None,
        help="JSON file with known class parameters (required for --mode oracle)",
    )
    p.add_argument(
        "--variance-floor",
        type=_finite_positive,
        default=None,
        help="variance floor of each fitted class (not with --mode oracle)",
    )
    p.add_argument(
        "--out",
        required=True,
        metavar="PREFIX",
        help="writes PREFIX_pvalues.csv, PREFIX_sets.csv, PREFIX_thresholds.csv",
    )
    p.set_defaults(func=cmd_predict)


def cmd_predict(args) -> int:
    # each flag below works in one mode only, and --mode oracle needs its file
    if args.oracle_params and args.mode != "oracle":
        return _usage_error("--oracle-params needs --mode oracle")
    if args.mode == "oracle" and not args.oracle_params:
        return _usage_error("--mode oracle needs --oracle-params")
    if args.variance_floor is not None and args.mode == "oracle":
        return _usage_error("--variance-floor has no effect with --mode oracle")
    data, dropped, label_map = load_csv(args.train, args.label_column, args.outlier_label)
    if dropped is not None:
        print(
            f"note: {dropped.m} rows labeled {args.outlier_label!r} "
            "excluded from fitting"
        )
    # before the fit, so a class id in an error line can be read as its label
    print("classes: " + ", ".join(f"{k}={label}" for label, k in label_map.items()))
    _check_test_columns(args)
    batch = read_batch_csv(args.test, args.truth_column)
    known = load_json(args.oracle_params) if args.oracle_params else None
    row = PREDICTORS[args.mode](data, known, args.variance_floor)
    pvals, sets = predict(data, batch, args.alpha, **row)
    write_pvalues_csv(f"{args.out}_pvalues.csv", pvals)
    write_sets_csv(f"{args.out}_sets.csv", sets)
    write_thresholds_csv(f"{args.out}_thresholds.csv", pvals)
    sizes = sets.sizes
    print(
        f"predicted {sets.m} rows over {sets.n_classes} classes at "
        f"alpha={args.alpha:g} ({args.mode})"
    )
    print(
        f"sets: {int(np.sum(sizes == 0))} empty (flagged outliers), "
        f"{int(np.sum(sizes == 1))} singletons, mean size {sizes.mean():.3f}"
    )
    for k, n_k in enumerate(data.class_counts.tolist(), start=1):
        if _grid_count(n_k, args.alpha) <= 1:
            print(
                f"note: class {k} (n_k={n_k}) is dropped from no set or from all "
                f"{sets.m} at alpha={args.alpha:g}; dropping fewer needs "
                f"n_k >= {_bh_floor(args.alpha)}"
            )
    print(f"wrote {args.out}_pvalues.csv, {args.out}_sets.csv, {args.out}_thresholds.csv")
    return EXIT_OK


def _check_test_columns(args) -> None:
    """The test header, less its truth column, must name the training
    features in order: ``predict`` pairs the columns by position."""
    features = [h for h in read_header(args.train) if h != args.label_column]
    given = [h for h in read_header(args.test) if h != args.truth_column]
    for i, name in enumerate(given):
        if name not in features:
            raise DataError(
                f"{args.test}: column {name!r} is not a training feature "
                "(if it holds the truth, name it with --truth-column)"
            )
        if name != features[i]:
            raise DataError(
                f"{args.test}: column {i + 1} is {name!r}, "
                f"training feature {i + 1} is {features[i]!r}"
            )
    if len(given) < len(features):
        raise DataError(f"{args.test}: missing training feature {features[len(given)]!r}")


def _add_evaluate(sub):
    p = sub.add_parser(
        "evaluate", help="compute error/power metrics for prediction sets"
    )
    p.add_argument("--sets", required=True, help="prediction-sets CSV from predict")
    p.add_argument("--test", required=True, help="test CSV holding the truth column")
    p.add_argument("--truth-column", default="truth")
    p.add_argument(
        "--n-classes",
        type=_positive_int,
        required=True,
        help="number of training classes",
    )
    p.add_argument("--out", default=None, help="optional results CSV path")
    p.set_defaults(func=cmd_evaluate)


def cmd_evaluate(args) -> int:
    sets = read_sets_csv(args.sets, args.n_classes)
    truth = read_truth_csv(args.test, args.truth_column)
    if truth.size != sets.m:
        raise DataError(
            f"{args.sets} has {sets.m} rows but {args.test} has {truth.size}"
        )
    report = evaluate_sets(sets, truth)
    if args.out:
        print(write_results([report], args.out), end="")
        print(f"wrote {args.out}")
    else:
        print(render_results([report]), end="")
    return EXIT_OK


def _add_experiment(sub):
    p = sub.add_parser(
        "experiment", help="run a replicated grid experiment from a YAML config"
    )
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--workers", type=_positive_int, default=1, help="worker processes")
    p.add_argument("--out-dir", default=None, help="override the config out_dir")
    p.set_defaults(func=cmd_experiment)


def cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.out_dir:
        config = replace(config, out_dir=args.out_dir)
    run_experiment(config, workers=args.workers, echo=print)
    return EXIT_OK


def _add_validate(sub):
    p = sub.add_parser(
        "validate", help="Monte Carlo checks of the statistical guarantees"
    )
    p.add_argument(
        "--check",
        action="append",
        default=None,
        metavar="NAME",
        help=f"check(s) to run, comma-separable; available: {', '.join(sorted(CHECKS))}",
    )
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--alpha", type=_level, default=None)
    p.add_argument(
        "--nk", dest="n_k", type=int, default=None, help="training rows per class"
    )
    p.add_argument("--p", type=int, default=None, help="feature dimension")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--draws", type=_positive_int, default=None)
    p.add_argument("--replicates", type=_positive_int, default=None)
    p.add_argument("--test-sets", type=_positive_int, default=None)
    p.set_defaults(func=cmd_validate)


def cmd_validate(args) -> int:
    names = None
    if args.check is not None:
        names = [n for chunk in args.check for n in map(str.strip, chunk.split(",")) if n]
        if not names:
            return _usage_error("--check names no check")
    # every other flag sets the check parameter named by its dest
    skip = ("command", "func", "check")
    overrides = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    results = run_checks(names, echo=print, **overrides)
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confset",
        description=(
            "Set-valued classification with simultaneous outlier detection "
            "via conformal p-values and per-class FDR control."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_predict(sub)
    _add_evaluate(sub)
    _add_experiment(sub)
    _add_validate(sub)
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # the reader left early: what stdout still buffers goes to devnull,
        # so the flush at interpreter exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
