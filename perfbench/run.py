"""Run one confset benchmark workload and print its metrics.

    python3 perfbench/run.py --workload predict_large --seed 1 --seconds 30 --trace 0

Workloads: cli_files, mc_replicates, predict_large (see workloads.py and
README.md). The run sets up (several times, keeping the last), runs
operations in a closed loop with one client for ``--seconds``, checks the
outputs against a plain-numpy reference, and prints a summary, one JSON
record with provenance, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.

The program under test is the confset source in ``src/`` next to this
directory; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("cli_files", "mc_replicates", "predict_large")

# Every reported time is in reference seconds: wall time scaled by
# PROBE_REF_S over the calibration kernel's time measured just before and
# just after. Host speed on small shared machines drifts between regimes
# about 1.5x apart for seconds to minutes; the kernel slows with it, so the
# ratio drifts far less than raw wall time does. Raw wall times are kept in
# the record.
PROBE_REF_S = 0.005
_PROBE_DATA = np.arange(50_000, dtype=np.float64)


def _probe_once() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    a = _PROBE_DATA * 1.0001
    (a * a / 3.0).sum()
    np.sort(a[::-1])
    return time.perf_counter() - started


def probe() -> float:
    """Median time of three runs of a fixed interpreter + numpy kernel."""
    return statistics.median(_probe_once() for _ in range(3))


class Stopwatch:
    """Times one call at a time, probing the host speed after each.

    After a call, ``wall`` is its wall time and ``factor`` the reference
    seconds per wall second, from the probes just before and just after.
    """

    def __init__(self):
        self.probes = [probe()]
        self.wall = self.factor = 0.0

    def __call__(self, fn, *args):
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.wall = time.perf_counter() - started
            self.probes.append(probe())
            self.factor = 2 * PROBE_REF_S / (self.probes[-2] + self.probes[-1])


class SetupError(Exception):
    """The program or the benchmark definition is missing."""


def load():
    """Import the workloads, built on the confset found in ``src/``."""
    if not (SRC / "confset" / "__init__.py").is_file():
        raise SetupError(f"no confset source under {SRC}")
    if not SPEC.is_file():
        raise SetupError(f"missing {SPEC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import confset

    if Path(confset.__file__).resolve().parent != (SRC / "confset").resolve():
        raise SetupError(f"confset imported from {confset.__file__}, not from {SRC}")
    import spans
    import workloads

    return workloads, spans


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    ten samples above it; with fewer than eleven samples, the smallest."""
    ordered = sorted(times)
    idx = max(0, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the full record (see ``main`` for output)."""
    workloads, spans = load()
    spec = json.loads(SPEC.read_text())
    workdir = WORKDIR / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[workload](seed, size, workdir)
        watch = Stopwatch()
        wall = {"setup": [], False: [], True: []}
        ref = {"setup": [], False: [], True: []}
        for _ in range(wl.setup_repeats):
            watch(wl.setup)
            wall["setup"].append(watch.wall)
            ref["setup"].append(watch.wall * watch.factor)

        tracer = spans.Tracer() if trace else None
        traced_ops, kept, raised = [], [], {}
        scale = {}  # op -> reference seconds per wall second
        i = 0
        start = time.perf_counter()
        while True:
            traced = tracer is not None and i % 2 == 0
            if traced:
                tracer.op = i
                traced_ops.append(i)
            try:
                out = watch(wl.op, i, tracer if traced else None)
            except Exception as e:  # counted as a failed operation
                out, raised[i] = None, f"{type(e).__name__}: {e}"
            scale[i] = watch.factor
            wall[traced].append(watch.wall)
            ref[traced].append(watch.wall * watch.factor)
            if out is not None:
                wl.keep(i, out)
                kept.append(i)
            i += 1
            if time.perf_counter() - start >= seconds and (tracer is None or i >= 2):
                break
        timed_s = time.perf_counter() - start
        peak_mb = wl.peak_rss_mb()
        outcome = wl.check(kept)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = {**outcome.failed, **raised}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "load": {"loop": "closed", "clients": 1},
        "inputs": wl.inputs(),
        "attempted": i,
        "failed": len(failed),
        "error_ratio": len(failed) / i,
        "failures": {str(k): v for k, v in sorted(failed.items())[:5]},
        "checked_ops": outcome.checked,
        "excused_pairs": outcome.excused,
        "timed_s": timed_s,
        "setup_runs_s": ref["setup"],
        "op_times_s": ref[False],
        "probe_s": watch.probes,
        "wall": {
            "op_p50_s": statistics.median(wall[False]),
            "op_tail_s": tail(wall[False])[0],
            "rows_per_s": wl.rows_per_op * len(kept) / sum(wall[False] + wall[True]),
            "setup_s": statistics.median(wall["setup"]),
        },
        "provenance": provenance(),
    }
    if trace:
        values = spans.layer_metrics(tracer, traced_ops, scale)
        values["trace.overhead_ratio"] = statistics.median(ref[True]) / statistics.median(ref[False])
        record["traced_ops"] = len(traced_ops)
        declared = spec["per_layer"]
    else:
        value, pct, beyond = tail(ref[False])
        values = {
            "op_p50_s": statistics.median(ref[False]),
            "op_tail_s": value,
            "rows_per_s": wl.rows_per_op * len(kept) / sum(ref[False] + ref[True]),
            "peak_rss_mb": peak_mb,
            "setup_s": statistics.median(ref["setup"]),
            "success_ratio": 1.0 - len(failed) / i,
        }
        record["op_tail"] = {"percentile": pct, "samples": len(ref[False]), "beyond": beyond}
        declared = spec["end_to_end"]
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return record


# ---------------------------------------------------------------------------
# provenance


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "confset").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {}
    blas["threads"] = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------


def summary(record: dict) -> str:
    r = record
    lines = [
        f"{r['workload']} seed={r['seed']} trace={r['trace']}: {r['attempted']} ops in "
        f"{r['timed_s']:.1f} s, closed loop with 1 client; {r['failed']} failed, "
        f"{r['checked_ops']} checked, {r['excused_pairs']} point-class pairs excused as float ties"
    ]
    for name, m in r["metrics"].items():
        lines.append(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    if not r["trace"]:
        t = r["op_tail"]
        lines.append(f"  op_tail_s is p{t['percentile']:.1f} of {t['samples']} samples ({t['beyond']} beyond)")
        lines.append(f"  {'error_ratio':<26} {r['error_ratio']:.6g} ({r['failed']} of {r['attempted']} ops)")
    for op, why in r["failures"].items():
        lines.append(f"  op {op} failed: {why}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for the self-tests"
    )
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(summary(record))
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
