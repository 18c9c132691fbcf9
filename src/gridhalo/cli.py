"""Command-line front end: one experiment per invocation.

``main`` is the frame every run shares: it parses the flags into an
``ExperimentConfig``, builds the report with its meta, times the runner
as the ``total`` span, and writes the report only once the runner has
returned, so a refused or infeasible run writes nothing.  A runner in
``experiments`` fills in its rows, checks and meta extras alone.

Exit codes: 0 success, 2 invalid configuration (``ConfigError``), 3
infeasible construction at the configured grid or depth (``InfeasibleError``),
4 internal verification failure (``VerificationError``: an exact invariant
re-check failed, which is always a bug).  Every run computes afresh:
there is no result cache, so exit 0 always means this run's artifacts.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import ConfigError, ExperimentConfig
from .grid import InfeasibleError, VerificationError
from .reports import RunReport, write_report
from . import experiments

__all__ = ["main"]

_RUNNERS = {
    "halo": experiments.run_halo,
    "lemmas": experiments.run_lemma_checks,
    "zygmund": experiments.run_zygmund,
    "resonance": experiments.run_resonance,
    "rearrange": experiments.run_rearrangement_demo,
    "maxfield": experiments.run_maxfield,
}


def _build_parser() -> argparse.ArgumentParser:
    # one parser: every subcommand takes the same options, and
    # ExperimentConfig refuses those its runner does not read
    parser = argparse.ArgumentParser(
        prog="gridhalo",
        description="Exact maximal-operator and resonance experiments on dyadic grids",
    )
    parser.add_argument("command", choices=_RUNNERS, help="experiment to run")
    parser.add_argument("--grid", dest="grid_bits", type=int, help="grid resolution exponent per axis")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--depth", type=int)
    parser.add_argument("--style", choices=["deep", "square"])
    parser.add_argument("--h-list", help="comma-separated h samples")
    parser.add_argument("--t-list", help="comma-separated truncation multipliers")
    parser.add_argument("--r-list", help="comma-separated ball radii in cells")
    parser.add_argument("--rotations", dest="rotations_deg", help="comma-separated rotations in degrees")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="set a config key the run reads",
    )
    return parser


def _merged_mapping(args) -> dict:
    # each flag's dest is the config field it sets
    mapping = {
        key: str(value)
        for key, value in vars(args).items()
        if key not in ("command", "set") and value is not None
    }
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _meta(config: ExperimentConfig) -> dict:
    return {
        "kind": config.kind,
        "n": config.n,
        "k": config.k,
        # every run computes in exact rational arithmetic
        "mode": "rational",
        # no run draws a random number; the key keeps report.json stable
        "seed": 0,
        "grid_bits": config.grid_bits,
    }


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_mapping(args.command, _merged_mapping(args))
        report = RunReport(_meta(config))
        t0 = time.perf_counter()
        _RUNNERS[args.command](config, report)
        report.timings["total"] = time.perf_counter() - t0
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"verification failure (bug): {e}", file=sys.stderr)
        return 4

    paths = write_report(report, config.out)
    for item in report.verified:
        print(f"{'ok  ' if item['ok'] else 'FAIL'} {item['name']}")
    print(f"report: {paths['json']}")
    if not report.all_verified():
        print("verification failure (bug): a checklist item failed", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
