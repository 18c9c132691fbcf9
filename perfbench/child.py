"""One gridhalo CLI invocation in its own process, timed from the inside.

Usage: python3 perfbench/child.py SIDECAR MODE -- <gridhalo CLI arguments>

MODE is ``setup`` (import and parse the configuration, then stop), ``run``
(also call ``gridhalo.cli.main``) or ``trace`` (as ``run``, with every
public gridhalo function wrapped in a span).  The process writes a JSON
sidecar with monotonic-clock marks, ``ru_maxrss`` and, when traced, the
span summary; it exits with the CLI's exit code.  The parent measures
set-up time from its own clock mark taken just before the spawn, since
CLOCK_MONOTONIC is shared by all processes.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    sidecar, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("setup", "run", "trace"):
        raise SystemExit("usage: child.py SIDECAR setup|run|trace -- ARGS")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    t_start = time.monotonic()
    import numpy
    import scipy

    from gridhalo import cli
    from gridhalo.config import ExperimentConfig

    t_imported = time.monotonic()
    args = cli._build_parser().parse_args(argv)
    ExperimentConfig.from_mapping(args.command, cli._merged_mapping(args))
    t_ready = time.monotonic()

    record = {
        "ready": t_ready,
        "import_s": t_imported - t_start,
        "parse_s": t_ready - t_imported,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    code = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t_run = time.monotonic()
        code = cli.main(argv)
        record["wall_s"] = time.monotonic() - t_run
        record["exit"] = code
        if tracer is not None:
            record["trace"] = tracer.summary()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(sidecar, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
