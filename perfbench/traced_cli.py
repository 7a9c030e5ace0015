"""Run one confset subcommand with spans recorded; used by the traced cli_files run.

    python3 perfbench/traced_cli.py SPANS_JSON LAUNCH_TIME SUBCOMMAND [ARGS...]

LAUNCH_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so ``cli.startup`` covers interpreter start-up plus
``import confset.cli``. Spans stay in memory until the subcommand returns,
then go to SPANS_JSON. The exit code is the subcommand's.
"""

import sys
import time

import confset.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out, launch, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.record("cli.startup", launch, IMPORTED)
    with spans.tracing(tracer), tracer.span(f"cli.{argv[0]}"):
        code = confset.cli.main(argv)
    with open(out, "w") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
