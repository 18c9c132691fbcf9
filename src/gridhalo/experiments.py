"""Experiment orchestration behind the command-line front end.

Each ``run_*`` function takes an ExperimentConfig and the RunReport that
``cli.main`` built for the run, performs the computation with its exact
re-checks, and fills in the report's rows, meta extras and ``verified``
checklist, which mirrors checks that the underlying modules can
reproduce in isolation, and writes its own artifacts (``plan.json``,
``g.txt``, ``field.txt``, the permutation).  The meta every report shares,
the run's ``total`` span and the writing of the report are ``cli.main``'s.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from .config import ConfigError, ExperimentConfig
from .grid import DyadicGrid, InfeasibleError, StepFunction, save_step_function
from .growth import log_power_growth
from .halo import halo_estimate, halo_fit, lemma9_integral, lemma10_levelset_measure
from .maxop import (
    BasisSpec,
    dyadic_ladder,
    enumerate_shapes,
    level_set,
    max_field_brute,
    max_field_fast,
    save_max_field,
)
from .reports import RunReport
from .resonance import (
    build_rearrangement,
    build_resonance_function,
    save_plan,
    save_rearrangement,
    shipped_rearrangement_depth,
    synthetic_resonance_input,
)
from .witness import central_block

__all__ = [
    "run_halo",
    "run_lemma_checks",
    "run_zygmund",
    "run_resonance",
    "run_rearrangement_demo",
    "run_maxfield",
]


# Largest ball box, in cells, of a halo sample: the placement pass costs
# about 4 c^2 placements per shape on a c x c box, so r = 256 (a 512 x 512
# box, 13 s and 410 MB as a process at --grid 24 on a 2-vCPU VM) is the
# largest radius under the bound, each doubling of r costing about four
# times the time; --r-list 100000 asked numpy for a 200000 x 200000 box.
HALO_BALL_CELLS = 1 << 18


def run_halo(config: ExperimentConfig, report: RunReport) -> None:
    """Halo-function sweep over h with the growth-model band fit."""
    half = 1 << (config.grid_bits - 1)
    for r in config.r_list:
        side = 2 * min(r, half)
        if side * side > HALO_BALL_CELLS:
            raise InfeasibleError(
                f"the ball of radius {r} cells on the grid with 2^{config.grid_bits} cells "
                f"per axis has a box of {side}x{side} cells, above the bound "
                f"{HALO_BALL_CELLS}; use a smaller --r-list"
            )
    basis = BasisSpec("axis", config.k)
    ests = halo_estimate(basis, config.grid_bits, config.h_list, config.t_list, config.r_list)
    phis = []
    for h, (phi_hat, clipped) in zip(config.h_list, ests):
        if clipped:
            # a resolution limit of the sample, not an invariant failure
            raise InfeasibleError(
                f"level set for h={h:g} reaches the boundary of the grid with "
                f"2^{config.grid_bits} cells per axis; use a finer grid or smaller h"
            )
        phis.append(phi_hat)
        report.rows.append(
            {
                "h": float(h),
                "phi_hat": phi_hat,
                "phi_over_h": phi_hat / float(h),
                "samples": len(config.t_list) * len(config.r_list),
                "clipped": clipped,
            }
        )
    lo, hi = halo_fit(config.h_list, phis, config.growth_exponent - 1)
    report.meta["band_low"] = lo
    report.meta["band_high"] = hi
    ratios = [row["phi_over_h"] for row in report.rows]
    rises = [a < b for a, b in zip(ratios, ratios[1:])]
    if not all(rises):  # a flat estimate from balls of a few cells, not a bug
        h0, h1 = config.h_list[rises.index(False) :][:2]
        raise InfeasibleError(
            f"phi_hat/h does not increase from h={h0:g} to h={h1:g} on the grid "
            f"with 2^{config.grid_bits} cells per axis; use a finer grid"
        )
    report.check("phi_over_h_monotone", all(rises))
    report.check("no_boundary_clipping", not any(row["clipped"] for row in report.rows))
    report.check("band_positive", lo > 0)


_L9_CASES = tuple(
    (n, h) for n in (1, 2, 3) for h in (math.e, math.e**2, 10.0)
)


# Largest rectangle, in cells, of the lemmas level-set growth check: its
# side is the grid's over 64, so --grid 14 (256 x 256 cells, 3.0 s and
# 189 MB as a process on a 2-vCPU VM) is the finest grid under the bound;
# --grid 16 took 53 s and 1.7 GB, and --grid 40 (2^68 cells) cannot be
# allocated at all.
LEMMAS_RECT_CELLS = 1 << 16


def run_lemma_checks(config: ExperimentConfig, report: RunReport) -> None:
    """Log-region integral vs its closed form, and level-set growth ratios."""
    grid = DyadicGrid((config.grid_bits,) * 2)
    w = max(grid.shape[0] // 64, 1)
    if w * w > LEMMAS_RECT_CELLS:
        raise InfeasibleError(
            f"the level-set growth check on the grid with 2^{config.grid_bits} cells per "
            f"axis needs a rectangle of {w}x{w} cells, above the bound "
            f"{LEMMAS_RECT_CELLS}; use a smaller --grid"
        )
    # keep the level set, whose arms reach a few h rectangle-lengths, off the walls
    too_big = [h for h in config.h_list if h * w * 8 >= grid.shape[0]]
    if too_big:
        raise InfeasibleError(
            f"the grid with 2^{config.grid_bits} cells per axis is too small for "
            f"the level-set growth check at h = {', '.join(f'{h:g}' for h in too_big)}: "
            f"it needs h * {8 * w} < {grid.shape[0]}; use a finer grid or a smaller h"
        )
    all_close = True
    for n, h in _L9_CASES:
        value = lemma9_integral(n, h)
        closed = math.log(h) ** n / math.factorial(n)
        rel = abs(value - closed) / closed
        all_close &= rel < 1e-6
        report.rows.append(
            {
                "check": "log_region_integral",
                "n": n,
                "h": h,
                "value": value,
                "closed_form": closed,
                "rel_err": rel,
            }
        )
    report.check("log_region_matches_closed_form", all_close)

    # a central w x w rectangle I, its measures against the model Phi_2(h) |I|
    lo = grid.shape[0] // 2 - w // 2
    ladder = dyadic_ladder(max(grid.shape))
    h_sweep = [float(h) for h in config.h_list]
    measures = lemma10_levelset_measure((lo, lo), (lo + w, lo + w), h_sweep, 2, grid, ladder=ladder)
    rect = float(w * w * grid.cell_volume)
    model = log_power_growth(2)
    ok10 = True
    for h, meas in zip(h_sweep, measures):
        ratio = float(meas) / (model(h) * rect)
        ok10 &= ratio > 0
        report.rows.append(
            {
                "check": "levelset_growth",
                "n": 2,
                "h": h,
                "value": float(meas),
                "closed_form": float("nan"),
                "rel_err": float("nan"),
                "ratio_exponent_km1": ratio,
                "normalization_ok": h > 2**grid.n,
            }
        )
    report.check("levelset_growth_positive", ok10)


def _staged_plan(config: ExperimentConfig, bases) -> tuple:
    """The shipped input for the configured depth and style, and its
    staged plan against ``bases``."""
    phi = log_power_growth(config.growth_exponent)
    f, pads = synthetic_resonance_input(phi, config.depth, style=config.style)
    plan = build_resonance_function(f, bases, phi, config.depth, pads=pads)
    return f, plan


def _check_half_union_mass(report: RunReport, plan, depth: int, name: str) -> None:
    """A union mass below 1/2 is a limit of the depth (exit 3), not a bug;
    past that, the line ``name`` records that every basis reaches 1/2."""
    short = [f"{key} reaches {u}" for key, (u, _, _) in plan.union_masses.items() if u < 0.5]
    if short:
        raise InfeasibleError(f"union mass below 1/2 at depth {depth}: {', '.join(short)}")
    report.check(name, all(u >= Fraction(1, 2) for u, _, _ in plan.union_masses.values()))


def run_zygmund(config: ExperimentConfig, report: RunReport) -> None:
    """Staged divergence masses against Λ = {I(γ)}, with the six witness
    conditions checked on every stage tile that g is built from."""
    phi = log_power_growth(config.growth_exponent)
    bases = [BasisSpec("rotated", config.k, math.radians(d)) for d in config.rotations_deg]
    # every basis is keyed by its description, which rounds gamma
    seen = {}
    for d, basis in zip(config.rotations_deg, bases):
        key = basis.describe()
        if key in seen:
            raise ConfigError(f"rotations {seen[key]} and {d} degrees share the basis key {key}")
        seen[key] = d

    _, plan = _staged_plan(config, bases)
    # one line per condition, in verify's order, true on every stage tile
    verdicts = [s.tile.verify(phi) for s in plan.stages]
    for name in verdicts[0]:
        report.check(f"witness_{name}", all(v[name] for v in verdicts))
    for key, per_depth in plan.unions.items():
        basis = plan.stages[0].tile.bases[key]
        for depth, (union, _, _) in enumerate(per_depth, start=1):
            report.rows.append(
                {
                    "gamma_deg": math.degrees(basis.gamma),
                    "depth": depth,
                    "union_mass": float(union),
                    "union_mass_exact": str(union),
                }
            )
    report.check("plan_verified", plan.verified())
    _check_half_union_mass(report, plan, config.depth, "final_masses_at_least_half")
    report.check(
        "masses_nondecreasing_in_depth",
        all(a <= b for seq in plan.unions.values() for (a, _, _), (b, _, _) in zip(seq, seq[1:])),
    )
    save_plan(plan, config.out)


def run_resonance(config: ExperimentConfig, report: RunReport) -> None:
    """Full staged construction for the axis basis."""
    _, plan = _staged_plan(config, [BasisSpec("axis", config.k)])
    for k, ((_, h, q), s) in enumerate(zip(plan.selection, plan.stages), start=1):
        row = {
            "stage": k,
            "q": q,
            "h": str(h),
            "resolution": "x".join(map(str, s.j)),
            "measure_E": str(s.E.relative_measure()),
            "uniform": s.uniform_ok,
        }
        for key, P in s.p_sets.items():
            row[f"measure_P[{key}]"] = str(P.relative_measure())
        report.rows.append(row)
    report.check("stages_uniform", all(s.uniform_ok for s in plan.stages))
    report.check(
        "independence_product_rule",
        all(r["ok"] for rep in plan.independence.values() for r in rep),
    )
    report.check(
        "union_identity",
        all(ok for seq in plan.unions.values() for _, _, ok in seq),
    )
    _check_half_union_mass(report, plan, config.depth, "union_at_least_half")
    report.check("mass_bounded_by_input", plan.integral_g <= plan.integral_f)
    report.meta["union_masses"] = {
        key: str(u) for key, (u, _, _) in plan.union_masses.items()
    }
    save_plan(plan, config.out)


def run_rearrangement_demo(config: ExperimentConfig, report: RunReport) -> None:
    """Build the rearrangement for the shipped input and report the
    verdicts of its proof."""
    need = shipped_rearrangement_depth(config.style)
    if config.depth < need:
        raise InfeasibleError(
            f"rearrange needs --depth {need} or more for the {config.style} input: "
            f"a depth-{config.depth} plan ends on a grid coarser than the input's"
        )
    f, plan = _staged_plan(config, [BasisSpec("axis", config.k)])
    omega = build_rearrangement(f, plan)
    for value, before, after in omega.histogram:
        report.rows.append(
            {"value": str(value), "cells_before": before, "cells_after": after}
        )
    for name, ok in omega.checks.items():
        report.check(name, ok)
    save_rearrangement(omega, config.out)
    save_step_function(plan.g, os.path.join(config.out, "g.txt"))


# Largest shapes x cells product a maxfield run may take: every shape costs
# a few passes over the cells its placements cover.  At n = 2, k = 2 the
# product is 2^28 for --grid 7 (3-4 s on a 2-vCPU VM, with about half the
# shapes skipped as dominated) and grows 16-fold per grid bit, so --grid 8
# (2^32) and --grid 10 (2^40, about 4 hours by that growth) are refused.
MAXFIELD_SHAPE_CELLS = 1 << 30


def _shape_count(n: int, widths: int, k: int) -> int:
    """The shapes ``enumerate_shapes`` lists on an isotropic grid of
    ``widths`` cells per axis without truncation: the n-tuples of widths
    with at most k distinct entries.  For each j <= k, C(widths, j) sets of
    j widths, times the surjections of the n axes onto them."""
    def surjections(j):
        return sum((-1) ** i * math.comb(j, i) * (j - i) ** n for i in range(j + 1))

    return sum(math.comb(widths, j) * surjections(j) for j in range(1, min(k, n) + 1))


def run_maxfield(config: ExperimentConfig, report: RunReport) -> None:
    """One maximal-operator field over a central-block indicator."""
    grid = DyadicGrid((config.grid_bits,) * config.n)
    basis = BasisSpec("axis", config.k)
    # counted, not listed, so a refused run lists no shape
    count = _shape_count(config.n, grid.shape[0], config.k)
    work = count * grid.total_cells
    if work > MAXFIELD_SHAPE_CELLS:
        raise InfeasibleError(
            f"maxfield on {'x'.join(map(str, grid.shape))} cells needs "
            f"{count} shapes x {grid.total_cells} cells "
            f"= {work}, above the bound {MAXFIELD_SHAPE_CELLS}; use a smaller --grid"
        )
    shapes = enumerate_shapes(basis, grid)
    E = central_block(grid)
    amp = config.h_list[0]
    f = StepFunction.indicator(E, amp)
    fld = max_field_fast(f, basis, r=None, shapes=shapes)
    ls = level_set(fld, 1)
    report.rows.append(
        {
            "grid": "x".join(map(str, grid.shape)),
            "amplitude": float(amp),
            "levelset_cells": ls.popcount,
            "levelset_measure": float(ls.relative_measure()),
        }
    )
    if max(grid.shape) <= 64:
        brute = max_field_brute(f, basis, r=None, shapes=shapes)
        # equal tables and codes: every cell takes the same exact value
        report.check(
            "routes_agree",
            fld.table == brute.table and np.array_equal(fld.codes, brute.codes),
        )
    os.makedirs(config.out, exist_ok=True)
    save_max_field(fld, basis, None, os.path.join(config.out, "field.txt"))
