"""Experiment orchestration behind the command-line front end.

Each ``run_*`` function takes an ExperimentConfig, performs the
computation with its exact re-checks, and returns a RunReport whose
``verified`` checklist mirrors checks that the underlying modules can
reproduce in isolation.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction

import numpy as np

from .config import ExperimentConfig
from .grid import DyadicGrid, GridSet, StepFunction, _scaled, save_step_function
from .growth import log_power_growth
from .halo import (
    DomainTooSmallError,
    HaloProbe,
    halo_estimate,
    halo_fit,
    lemma9_integral,
    lemma10_levelset_measure,
)
from .grid import AxisRect
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
    InfeasibleError,
    build_rearrangement,
    build_resonance_function,
    save_plan,
    save_rearrangement,
    synthetic_resonance_input,
)
from .witness import central_block, mphi_witness_for_rotations

__all__ = [
    "run_halo",
    "run_lemma_checks",
    "run_zygmund",
    "run_resonance",
    "run_rearrangement_demo",
    "run_maxfield",
]


def _meta(config: ExperimentConfig) -> dict:
    return {
        "kind": config.kind,
        "n": config.n,
        "k": config.k,
        "mode": config.mode,
        "seed": config.seed,
        "grid_bits": config.grid_bits,
    }


def run_halo(config: ExperimentConfig) -> RunReport:
    """Halo-function sweep over h with the growth-model band fit."""
    report = RunReport("halo", _meta(config))
    t0 = time.perf_counter()
    basis = BasisSpec("axis", config.k)
    phis = []
    for h in config.h_list:
        est = halo_estimate(
            HaloProbe(basis, float(h), config.grid_bits), config.t_list, config.r_list
        )
        clipped = any(s.clipped for s in est.samples)
        if clipped:
            # a resolution limit of the sample, not an invariant failure
            raise DomainTooSmallError(
                f"level set for h={h:g} reaches the boundary of the grid with "
                f"2^{config.grid_bits} cells per axis; use a finer grid or smaller h"
            )
        phis.append(est.phi_hat)
        report.rows.append(
            {
                "h": float(h),
                "phi_hat": est.phi_hat,
                "phi_over_h": est.phi_hat / float(h),
                "samples": len(est.samples),
                "clipped": clipped,
            }
        )
    lo, hi = halo_fit(config.h_list, phis, config.growth_exponent - 1)
    report.meta["band_low"] = lo
    report.meta["band_high"] = hi
    ratios = [row["phi_over_h"] for row in report.rows]
    report.check(
        "phi_over_h_monotone", all(a < b for a, b in zip(ratios, ratios[1:]))
    )
    report.check("no_boundary_clipping", not any(row["clipped"] for row in report.rows))
    report.check("band_positive", lo > 0)
    report.timings["total"] = time.perf_counter() - t0
    return report


_L9_CASES = tuple(
    (n, h) for n in (1, 2, 3) for h in (math.e, math.e**2, 10.0)
)


def run_lemma_checks(config: ExperimentConfig) -> RunReport:
    """Log-region integral vs its closed form, and level-set growth ratios."""
    report = RunReport("lemmas", _meta(config))
    t0 = time.perf_counter()
    all_close = True
    for n, h in _L9_CASES:
        value = lemma9_integral(n, [1.0] * n, h)
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

    grid = DyadicGrid((config.grid_bits,) * 2)
    w = max(grid.shape[0] // 64, 1)
    lo = grid.shape[0] // 2 - w // 2
    rect = AxisRect((lo, lo), (lo + w, lo + w))
    ladder = dyadic_ladder(max(grid.shape))
    # keep the level set well inside the box: its arms extend a few h
    # rectangle-lengths from the center
    h_sweep = [h for h in config.h_list if h * w * 8 < grid.shape[0]] or [
        grid.shape[0] / (16 * w)
    ]
    ok10 = True
    for h in h_sweep[:3]:
        res = lemma10_levelset_measure(rect, float(h), 2, grid, ladder=ladder)
        ok10 &= res.ratio_exponent_km1 > 0
        report.rows.append(
            {
                "check": "levelset_growth",
                "n": 2,
                "h": float(h),
                "value": float(res.levelset_measure),
                "closed_form": float("nan"),
                "rel_err": float("nan"),
                "ratio_exponent_km1": res.ratio_exponent_km1,
                "normalization_ok": res.normalization_ok,
            }
        )
    report.check("levelset_growth_positive", ok10)
    report.timings["total"] = time.perf_counter() - t0
    return report


def _staged_plan(config: ExperimentConfig, bases) -> tuple:
    """The shipped input for the configured depth and style, and its
    staged plan against ``bases``."""
    phi = log_power_growth(config.growth_exponent)
    f, pads = synthetic_resonance_input(phi, config.depth, style=config.style)
    plan = build_resonance_function(
        f, bases, phi, config.depth, pads=pads, resolution_cap=config.resolution_cap
    )
    return f, plan


def _require_half_union_mass(plan, depth: int) -> None:
    """A union mass below 1/2 is a limit of the depth (exit 3), not a bug."""
    short = [f"{key} reaches {u}" for key, (u, _, _) in plan.union_masses.items() if u < 0.5]
    if short:
        raise InfeasibleError(f"union mass below 1/2 at depth {depth}: {', '.join(short)}")


def run_zygmund(config: ExperimentConfig) -> RunReport:
    """Per-rotation witness + staged divergence masses against Λ = {I(γ)}."""
    report = RunReport("zygmund", _meta(config))
    t0 = time.perf_counter()
    phi = log_power_growth(config.growth_exponent)
    gammas = [math.radians(d) for d in config.rotations_deg]

    witness = mphi_witness_for_rotations(
        gammas, float(config.h_list[0]), 1.0, phi, k=config.k
    )
    for name, ok in witness.verify(phi).items():
        report.check(f"witness_{name}", ok)
    report.timings["witness"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    _, plan = _staged_plan(config, [BasisSpec("rotated", config.k, g) for g in gammas])
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
    _require_half_union_mass(plan, config.depth)
    report.check(
        "final_masses_at_least_half",
        all(u >= Fraction(1, 2) for u, _, _ in plan.union_masses.values()),
    )
    masses = {}
    for row in report.rows:
        masses.setdefault(row["gamma_deg"], []).append(row["union_mass_exact"])
    report.check(
        "masses_nondecreasing_in_depth",
        all(
            Fraction(a) <= Fraction(b)
            for seq in masses.values()
            for a, b in zip(seq, seq[1:])
        ),
    )
    save_plan(plan, config.out)
    report.timings["resonance"] = time.perf_counter() - t1
    return report


def run_resonance(config: ExperimentConfig) -> RunReport:
    """Full staged construction for the axis basis."""
    report = RunReport("resonance", _meta(config))
    t0 = time.perf_counter()
    _, plan = _staged_plan(config, [BasisSpec("axis", config.k)])
    for k, ((_, h, q), s) in enumerate(zip(plan.selection.entries, plan.stages), start=1):
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
    _require_half_union_mass(plan, config.depth)
    report.check(
        "union_at_least_half",
        all(u >= Fraction(1, 2) for u, _, _ in plan.union_masses.values()),
    )
    report.check("mass_bounded_by_input", plan.integral_g <= plan.integral_f)
    report.meta["union_masses"] = {
        key: str(u) for key, (u, _, _) in plan.union_masses.items()
    }
    save_plan(plan, config.out)
    report.timings["total"] = time.perf_counter() - t0
    return report


def run_rearrangement_demo(config: ExperimentConfig) -> RunReport:
    """Build the rearrangement for the shipped input and prove its claims."""
    report = RunReport("rearrange", _meta(config))
    t0 = time.perf_counter()
    f, plan = _staged_plan(config, [BasisSpec("axis", config.k)])
    omega = build_rearrangement(f, plan)

    extra = tuple(
        r - m for r, m in zip(plan.final_grid.resolution, f.grid.resolution)
    )
    nums = np.unique(f.num)
    before = np.searchsorted(nums, f.refine(extra).num.ravel())
    after = before[omega.perm]
    counts_before = np.bincount(before, minlength=len(nums))
    counts_after = np.bincount(after, minlength=len(nums))
    for p, b, a in zip(nums.tolist(), counts_before.tolist(), counts_after.tolist()):
        report.rows.append(
            {"value": str(Fraction(p, f.den)), "cells_before": b, "cells_after": a}
        )
    report.check("is_permutation", omega.is_permutation())
    report.check("histogram_preserved", np.array_equal(counts_before, counts_after))
    g = plan.g
    report.check(
        "rearranged_dominates_g",
        bool(np.all(_scaled(nums, g.den)[after] >= _scaled(g.num.ravel(), f.den))),
    )
    # the domain is every cell a stage set E_k or a band A_k touches
    domain = np.zeros(plan.final_grid.shape, dtype=bool)
    for E_f in plan.e_final:
        domain |= E_f.mask
    for A, _, _ in plan.selection.entries:
        domain |= A.refine(extra).mask
    outside = np.flatnonzero(~domain.ravel())
    report.check(
        "identity_outside_domain", bool(np.array_equal(omega.perm[outside], outside))
    )
    os.makedirs(config.out, exist_ok=True)
    save_rearrangement(omega, config.out)
    save_step_function(plan.g, os.path.join(config.out, "g.txt"))
    report.timings["total"] = time.perf_counter() - t0
    return report


# Largest shapes x cells product a maxfield run may take: every shape costs
# a few passes over every cell.  At n = 2, k = 2 the product is 2^28 for
# --grid 7 (27 s on a 2-vCPU VM) and grows 16-fold per grid bit, so
# --grid 8 (2^32) and the roughly 30-hour --grid 10 (2^40) are refused.
MAXFIELD_SHAPE_CELLS = 1 << 30


def run_maxfield(config: ExperimentConfig) -> RunReport:
    """One maximal-operator field over a central-block indicator."""
    report = RunReport("maxfield", _meta(config))
    t0 = time.perf_counter()
    grid = DyadicGrid((config.grid_bits,) * config.n)
    basis = BasisSpec("axis", config.k)
    shapes = enumerate_shapes(basis, grid)
    work = len(shapes) * grid.total_cells
    if work > MAXFIELD_SHAPE_CELLS:
        raise InfeasibleError(
            f"maxfield on {'x'.join(map(str, grid.shape))} cells needs "
            f"{len(shapes)} shapes x {grid.total_cells} cells = {work}, above "
            f"the bound {MAXFIELD_SHAPE_CELLS}; use a smaller --grid"
        )
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
        report.check(
            "routes_agree",
            np.array_equal(fld.num, brute.num) and np.array_equal(fld.den, brute.den),
        )
    os.makedirs(config.out, exist_ok=True)
    save_max_field(fld, os.path.join(config.out, "field.txt"))
    report.timings["total"] = time.perf_counter() - t0
    return report
