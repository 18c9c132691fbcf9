"""Command-line front end: one experiment per invocation.

Exit codes: 0 success, 2 invalid configuration, 3 infeasible construction
at the configured resolution, 4 internal verification failure (an exact
invariant re-check failed, which is always a bug).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig, read_config_file
from .halo import DomainTooSmallError, QuadratureError
from .maxop import EmptyFamilyError
from .reports import cache_key, cache_lookup, cache_store, write_report
from .resonance import InfeasibleError, ResolutionCapError, VerificationError
from .witness import WitnessError
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

_INFEASIBLE = (
    InfeasibleError,
    ResolutionCapError,
    EmptyFamilyError,
    WitnessError,
    DomainTooSmallError,
    QuadratureError,
)

# per-subcommand defaults on top of ExperimentConfig's
_DEFAULTS = {
    "rearrange": {"style": "square", "depth": "2"},
    "zygmund": {"h_list": "4"},
    # a grid whose full field finishes in seconds; larger grids are bounded
    # by experiments.MAXFIELD_SHAPE_CELLS
    "maxfield": {"grid_bits": "5"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridhalo",
        description="Exact maximal-operator and resonance experiments on dyadic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file (supports include)")
        p.add_argument("--grid", type=int, help="grid resolution exponent per axis")
        p.add_argument("--out", help="output directory")
        p.add_argument("--mode", help="value arithmetic: rational (the only one)")
        p.add_argument("--seed", type=int)
        p.add_argument("--depth", type=int)
        p.add_argument("--style", choices=["deep", "square"])
        p.add_argument("--h-list", help="comma-separated h samples")
        p.add_argument("--t-list", help="comma-separated truncation multipliers")
        p.add_argument("--r-list", help="comma-separated ball radii in cells")
        p.add_argument("--rotations", help="comma-separated rotations in degrees")
        p.add_argument("--resolution-cap", type=int)
        p.add_argument("--use-cache", action="store_true")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key",
        )
    return parser


def _merged_mapping(args) -> dict:
    mapping = dict(_DEFAULTS.get(args.command, {}))
    if args.config:
        mapping.update(read_config_file(args.config))
    flat = {
        "grid_bits": args.grid,
        "out": args.out,
        "mode": args.mode,
        "seed": args.seed,
        "depth": args.depth,
        "style": args.style,
        "h_list": args.h_list,
        "t_list": args.t_list,
        "r_list": args.r_list,
        "rotations_deg": args.rotations,
        "resolution_cap": args.resolution_cap,
    }
    for key, value in flat.items():
        if value is not None:
            mapping[key] = str(value)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_mapping(args.command, _merged_mapping(args))
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2

    key = cache_key(config.canonical_text())
    cache_dir = f"{config.out}/.cache"
    if args.use_cache:
        hit = cache_lookup(cache_dir, key, f"{config.out}/report.json")
        if hit is not None:
            print(f"cache hit {key[:12]}; report reused from {cache_dir}")
            return 0

    try:
        report = _RUNNERS[args.command](config)
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    except _INFEASIBLE as e:
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
    # only verified reports are cached, so a hit never masks a failed run
    cache_store(cache_dir, key, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
