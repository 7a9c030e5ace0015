"""Spans around confset's public functions, recorded from outside the package.

``install`` rebinds every public function of the library modules, in every
``confset`` namespace that imported it, to a wrapper that records a span
(name, start, end, parent) and, for a few functions, exact work counts.
The containers' ``__post_init__`` methods are wrapped the same way, so
structural validation shows up as the ``core`` layer. ``uninstall`` puts the
original objects back, so untraced operations run the unmodified library.

Times come from CLOCK_MONOTONIC, which is system-wide on Linux, so a child
process can report spans that start at a timestamp taken by its parent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Library modules whose public functions get spans. The cli module is left
# out: traced_cli.py records one span per subcommand itself, but the names
# cli imported from the other modules are rebound like any others.
LAYERS = ("core", "scoring", "conformal", "metrics", "datagen", "io", "experiment", "validation")

READERS = {f"io.{n}" for n in ("load_csv", "read_batch_csv", "read_sets_csv", "load_json", "load_config", "read_results")}
WRITERS = {
    f"io.{n}"
    for n in (
        "write_dataset_csv",
        "write_batch_csv",
        "write_pvalues_csv",
        "write_sets_csv",
        "write_thresholds_csv",
        "write_results",
        "save_json",
        "save_config",
    )
}
CLI_COMMANDS = ("simulate", "predict", "evaluate")

# Counts taken per operation; they depend only on the inputs, so two runs
# with the same seed give identical values.
COUNT_NAMES = (
    "datagen.rows",
    "scoring.score_rows",
    "scoring.flops_computed",
    "scoring.bytes_computed",
    "io.bytes_read",
    "io.bytes_written",
    "conformal.rejections",
    "conformal.empty_sets",
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span and count store for one benchmark run.

    A span is ``[op, parent, name, start, end]``; ``parent`` indexes
    ``spans`` (-1 for a root). Spans of one operation share ``op``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, parent, name, now(), None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][4] = now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def record(self, name: str, start: float, end: float) -> None:
        """A finished root span measured by the caller."""
        self.spans.append([self.op, -1, name, start, end])

    def add(self, name: str, value) -> None:
        self.counts[self.op][name] += int(value)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts.get(self.op, {}))}

    def merge(self, doc: dict) -> None:
        """Add the spans and counts another process exported, under ``self.op``."""
        offset = len(self.spans)
        for _, parent, name, start, end in doc["spans"]:
            self.spans.append([self.op, parent + offset if parent >= 0 else -1, name, start, end])
        for name, value in doc["counts"].items():
            self.add(name, value)


# ---------------------------------------------------------------------------
# work counts


def _count_rows(tracer, a, result):
    tracer.add("datagen.rows", result.shape[0])


def _count_score(tracer, a, result):
    # d = x - mean, d / var, then a multiply-add per element: 4 flops per
    # element. Bytes are the input and output arrays, not cache traffic.
    n, p = np.shape(a["rows"])
    tracer.add("scoring.score_rows", n)
    tracer.add("scoring.flops_computed", 4 * n * p)
    tracer.add("scoring.bytes_computed", 8 * n * p + 16 * p + 8 * n)


def _count_fit(tracer, a, result):
    # mean (1 add per element) and variance (subtract, square, add).
    data = a["data"]
    n, p = int(data.class_counts[a["class_id"] - 1]), data.n_features
    tracer.add("scoring.flops_computed", 4 * n * p)
    tracer.add("scoring.bytes_computed", 8 * n * p + 16 * p)


def _count_predict(tracer, a, result):
    member = result[1].member
    tracer.add("conformal.rejections", member.size - member.sum())
    tracer.add("conformal.empty_sets", (~member.any(axis=1)).sum())


def _count_read(tracer, a, result):
    tracer.add("io.bytes_read", os.path.getsize(a["path"]))


def _count_write(tracer, a, result):
    tracer.add("io.bytes_written", os.path.getsize(a["path"]))


COUNTERS = {
    "datagen.sample_points": _count_rows,
    "scoring.score_batch": _count_score,
    "scoring.fit_class_summary": _count_fit,
    "conformal.predict": _count_predict,
    **dict.fromkeys(READERS, _count_read),
    **dict.fromkeys(WRITERS, _count_write),
}


def _wrap(tracer: Tracer, name: str, fn, count=None):
    signature = inspect.signature(fn) if count is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if count is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            count(tracer, bound.arguments, result)
        return result

    return traced


def install(tracer: Tracer) -> list:
    """Wrap the library's public functions; returns what ``uninstall`` needs."""
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"confset.{layer}"]
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrappers[obj] = _wrap(tracer, name, obj, COUNTERS.get(name))
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "confset" and not modname.startswith("confset."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    core = sys.modules["confset.core"]
    for attr in core.__all__:
        cls = getattr(core, attr)
        if inspect.isclass(cls) and "__post_init__" in vars(cls):
            original = vars(cls)["__post_init__"]
            undo.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", _wrap(tracer, f"core.{attr}.__post_init__", original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


@contextlib.contextmanager
def tracing(tracer: Tracer):
    undo = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(undo)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, traced_ops: list[int], scale: dict[int, float]) -> dict[str, float]:
    """Per-layer busy and self times per traced operation, plus exact counts.

    Busy time sums the outermost spans that match a selection, so nested
    calls inside the same selection are not counted twice. Self time is a
    span's duration minus its direct children's. Counts come from the first
    traced operation; rates use all traced operations. Times are multiplied
    by ``scale[op]``, the operation's reference seconds per wall second.
    """
    wanted = set(traced_ops)
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[0] in wanted]
    child_time = defaultdict(float)
    for s in tracer.spans:
        if s[1] >= 0:
            child_time[s[1]] += s[4] - s[3]

    def matches_ancestor(s, select) -> bool:
        parent = s[1]
        while parent >= 0:
            p = tracer.spans[parent]
            if select(p[2]):
                return True
            parent = p[1]
        return False

    def busy(select) -> float:
        return sum(
            (s[4] - s[3]) * scale[s[0]] for _, s in spans if select(s[2]) and not matches_ancestor(s, select)
        )

    def self_time(select) -> float:
        return sum((s[4] - s[3] - child_time[i]) * scale[s[0]] for i, s in spans if select(s[2]))

    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    def named(*names):
        return lambda name: name in names

    n = max(1, len(traced_ops))
    out = {
        "cli.startup_s": busy(named("cli.startup")),
        **{f"cli.{c}_s": busy(named(f"cli.{c}")) for c in CLI_COMMANDS},
        "io.read_s": busy(lambda name: name in READERS),
        "io.write_s": busy(lambda name: name in WRITERS),
        "datagen.busy_s": busy(layer("datagen")),
        "scoring.fit_s": busy(named("scoring.fit_class_summary")),
        "scoring.score_s": busy(named("scoring.score_batch", "scoring.empirical_score", "scoring.oracle_score")),
        "conformal.rank_s": busy(named("conformal.conformal_pvalues", "conformal.conformal_pvalue")),
        "conformal.bh_s": busy(named("conformal.bh_adjust")),
        "conformal.predict_self_s": self_time(named("conformal.predict")),
        "core.validate_s": busy(lambda name: name.startswith("core.") and name.endswith(".__post_init__")),
        "metrics.evaluate_s": busy(layer("metrics")),
        "experiment.replicate_s": busy(named("experiment.run_replicate")),
        "experiment.self_s": self_time(layer("experiment")),
    }
    out = {name: value / n for name, value in out.items()}
    totals = Counter()
    for op in traced_ops:
        totals.update(tracer.counts.get(op, {}))
    for kind, count in (("read", "io.bytes_read"), ("write", "io.bytes_written")):
        seconds = out[f"io.{kind}_s"] * n
        out[f"io.{kind}_MBps"] = totals[count] / seconds / 1e6 if seconds else 0.0
    first = tracer.counts.get(traced_ops[0], {}) if traced_ops else {}
    out.update({name: int(first.get(name, 0)) for name in COUNT_NAMES})
    return out
