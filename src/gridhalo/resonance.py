"""Staged resonance pipeline on dyadic grids.

From an input step function this module selects level-set bands with
prescribed growth mass, replicates a tile witness uniformly across every
coarse cell (which makes the per-stage divergence sets exactly
independent), assembles the resonance function g, certifies the union
mass through the closed-form product formula, and finally produces the
measure-preserving cell rearrangement.

All measures, containments, independence products and the union identity
are checked in exact rational arithmetic; rotated-basis level sets are
certified lower bounds (see gridhalo.witness).  Values stay integer
numerators over one denominator, down to the rearrangement's domination
proof, one cross-multiplied integer compare.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grid import (
    DyadicGrid,
    GridSet,
    StepFunction,
    _scaled,
    _text_chunks,
    _value_table,
    save_step_function,
    uniform_distribution_check,
)
from .growth import GrowthFunction
from .witness import MPhiWitness, _within, build_tile_witness

__all__ = [
    "InfeasibleError",
    "ResolutionCapError",
    "VerificationError",
    "select_level_sets",
    "LevelSelection",
    "build_divergent_sequences",
    "ReplicationResult",
    "replicate_configuration",
    "check_independence",
    "StageRecord",
    "ResonancePlan",
    "build_resonance_function",
    "Rearrangement",
    "build_rearrangement",
    "synthetic_resonance_input",
    "save_plan",
    "save_rearrangement",
]


class InfeasibleError(RuntimeError):
    """The requested mass/depth cannot be supplied; carries what was achieved."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ResolutionCapError(RuntimeError):
    """The construction would exceed the configured grid resolution."""

    def __init__(self, message, achievable_depth=None, required=None):
        super().__init__(message)
        self.achievable_depth = achievable_depth
        self.required = required


class VerificationError(RuntimeError):
    """An exact invariant re-check failed; this always indicates a bug."""


# ---------------------------------------------------------------------------
# level-set selection


def _alpha_value(alpha, t: float) -> float:
    return float(alpha(t)) if callable(alpha) else float(alpha)


def select_level_sets(
    phi,
    f: StepFunction,
    q: int,
    alpha,
    target,
    available: np.ndarray | None = None,
):
    """Bands (A_j, h_j) of f with q < h_j = f|_{A_j}, each |A_j| capped by
    alpha(h_j/q), accumulating sum phi(h_j/q)|A_j| >= target.

    Values are consumed in increasing order so later (larger-q) stages can
    still find mass.  Returns the selected pairs; raises InfeasibleError
    with the achieved mass when f cannot supply the target.
    """
    if f.mode != "rational":
        raise ValueError("band selection needs rational values")
    if target <= 0:
        raise ValueError("target mass must be positive")
    grid = f.grid
    cv = grid.cell_volume
    if available is None:
        available = np.ones(grid.shape, dtype=bool)
    nums = np.unique(f.num[available])
    out = []
    mass = 0.0
    for p in nums[nums > q * f.den].tolist():
        v = Fraction(p, f.den)
        ratio = float(v) / q
        cap = _alpha_value(alpha, ratio)
        cap_cells = int(cap / float(cv))
        if cap_cells < 1:
            raise InfeasibleError(
                f"size cap alpha({ratio:.6g}) is below one cell", achieved=mass
            )
        cells = np.argwhere((f.num == p) & available)
        for start in range(0, len(cells), cap_cells):
            chunk = cells[start : start + cap_cells]
            A = GridSet.from_indices(grid, (tuple(c) for c in chunk))
            out.append((A, v))
            mass += phi(ratio) * float(A.measure())
            if mass >= target:
                return out
    raise InfeasibleError(
        f"input supplies growth mass {mass:.6g} < target {target:.6g}", achieved=mass
    )


@dataclass(frozen=True)
class LevelSelection:
    """Per-stage bands: entries (A_k, h_k, q_k) with disjoint A_k and
    nondecreasing divisors q_k."""

    entries: tuple  # of (GridSet, Fraction, int)
    targets: tuple

    def validate(self, phi) -> None:
        acc = None
        prev_q = 0
        for A, h, q in self.entries:
            if q < prev_q:
                raise VerificationError("divisors must be nondecreasing")
            prev_q = q
            if not Fraction(h) > q:
                raise VerificationError("need q < h on every band")
            inter = A.mask if acc is None else (acc & A.mask)
            if acc is not None and inter.any():
                raise VerificationError("bands are not pairwise disjoint")
            acc = A.mask if acc is None else (acc | A.mask)
        for stage, target in enumerate(self.targets, start=1):
            mass = sum(
                phi(float(h) / q) * float(A.measure())
                for A, h, q in self.entries
                if q == stage
            )
            if mass < target:
                raise VerificationError(f"stage {stage} mass {mass} below {target}")


def build_divergent_sequences(phi, f: StepFunction, alpha, K: int) -> LevelSelection:
    """Concatenated stage selections i = 1..K with per-stage target i."""
    if K < 1:
        raise ValueError("depth must be >= 1")
    available = np.ones(f.grid.shape, dtype=bool)
    entries = []
    for i in range(1, K + 1):
        try:
            picked = select_level_sets(phi, f, i, alpha, i, available)
        except InfeasibleError as e:
            raise InfeasibleError(
                f"stage {i} infeasible (achieved mass {e.achieved}); "
                f"largest achievable depth is {i - 1}",
                achieved=i - 1,
            ) from e
        for A, h in picked:
            entries.append((A, h, i))
            available &= ~A.mask
    sel = LevelSelection(tuple(entries), tuple(range(1, K + 1)))
    sel.validate(phi)
    return sel


# ---------------------------------------------------------------------------
# replication


@dataclass(frozen=True)
class ReplicationResult:
    E: GridSet
    p_sets: dict
    j: tuple
    tile: MPhiWitness
    pad: tuple


def _scaled_shapes(shapes, factor):
    return [tuple(w * f for w, f in zip(s, factor)) for s in shapes]


def replicate_configuration(
    w: MPhiWitness,
    delta,
    m,
    eps,
    phi: GrowthFunction,
    pad=None,
    refine_extra: int = 3,
    margin: float = 1e-9,
) -> ReplicationResult:
    """Dilute the witness tile to measure <= delta and tile it over every
    coarse cell of resolution m.

    The witness pattern is re-derived on the diluted tile (its level sets
    only grow with the extra room), then replicated; replication cannot
    shrink level sets either, so the containments survive.  They are
    re-checked for every basis: exactly on the replicated grid, or against
    the tile's certificate for disk-certified rotations.  Returns sets at
    the fine resolution j = m + tile exponents.
    """
    delta = Fraction(delta)
    n = w.grid.n
    if not 0 < delta <= w.c_of_h:
        raise InfeasibleError(
            f"target measure {delta} exceeds the witness density {w.c_of_h}"
        )
    d = w.c_of_h
    if pad is None:
        need = 0
        while d / (1 << need) > delta:
            need += 1
        pad = tuple(need // n + (1 if ax < need % n else 0) for ax in range(n))
    pad = tuple(int(p) for p in pad)
    m = tuple(int(x) for x in m)
    tile_bits = tuple(b + p for b, p in zip(w.grid.resolution, pad))
    density = Fraction(w.E.popcount, 1 << sum(tile_bits))
    if not delta / 4**n <= density <= delta:
        raise InfeasibleError(
            f"diluted density {density} outside [{delta / 4**n}, {delta}]"
        )
    tile_grid = DyadicGrid(
        tile_bits, side=tuple(Fraction(1, 1 << mi) for mi in m)
    )
    tile = build_tile_witness(
        tile_grid,
        list(w.bases.values()),
        w.h,
        Fraction(eps),
        phi,
        refine_extra=refine_extra,
        margin=margin,
    )
    j = tuple(mi + tb for mi, tb in zip(m, tile_bits))
    full = DyadicGrid(j)
    reps = tuple(1 << mi for mi in m)
    E_full = GridSet(full, np.tile(tile.E.mask, reps))
    p_full = {}
    memo = {}
    for key, P in tile.p_sets.items():
        Pf = GridSet(full, np.tile(P.mask, reps))
        if not uniform_distribution_check(Pf, m):
            raise VerificationError("replicated set is not uniformly distributed")
        if not _within(tile, key, memo, E_full, Pf, tile.shapes):
            raise VerificationError("level-set containment lost under tiling")
        p_full[key] = Pf
    if not uniform_distribution_check(E_full, m):
        raise VerificationError("replicated E is not uniformly distributed")
    e_rel = E_full.relative_measure()
    if not delta / 4**n <= e_rel <= delta:
        raise VerificationError("replicated measure escaped its bounds")
    for P in p_full.values():
        if float(P.relative_measure()) < tile.c * tile.phi_at_h * float(e_rel) - 1e-12:
            raise VerificationError("replicated P lost its mass bound")
    return ReplicationResult(E_full, p_full, j, tile, pad)


# ---------------------------------------------------------------------------
# independence


def check_independence(sets) -> list[dict]:
    """Product rule |∩ A_i| = ∏|A_i| (relative measures) for every subset
    of two or more sets, in exact rational arithmetic."""
    sets = list(sets)
    report = []
    for size in range(2, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            inter = sets[combo[0]].mask
            rhs = sets[combo[0]].relative_measure()
            for i in combo[1:]:
                inter = inter & sets[i].mask
                rhs *= sets[i].relative_measure()
            lhs = Fraction(int(inter.sum()), sets[0].grid.total_cells)
            report.append(
                {"subset": combo, "intersection": lhs, "product": rhs, "ok": lhs == rhs}
            )
    return report


# ---------------------------------------------------------------------------
# the staged construction


@dataclass(frozen=True)
class StageRecord:
    k: int
    q: int
    h: Fraction
    amp: Fraction  # h/q: the level sets of amp chi_E at threshold 1 are
    # exactly those of h chi_E at threshold q
    delta: Fraction
    eps: Fraction
    m: tuple
    j: tuple
    pad: tuple
    E: GridSet  # at resolution j
    p_sets: dict  # at resolution j
    tile: MPhiWitness
    uniform_ok: bool


@dataclass(frozen=True)
class ResonancePlan:
    stages: tuple
    final_grid: DyadicGrid
    g: StepFunction
    basis_keys: tuple
    selection: LevelSelection
    union_masses: dict  # key -> (union, product_formula, ok)
    independence: dict  # key -> report list
    containment_ok: dict  # key -> tuple of bools per stage
    integral_f: Fraction
    integral_g: Fraction
    e_final: tuple = ()  # per-stage E masks refined to the final grid
    p_final: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.stages)

    def verified(self) -> bool:
        return (
            all(s.uniform_ok for s in self.stages)
            and all(ok for _, _, ok in self.union_masses.values())
            and all(
                r["ok"] for rep in self.independence.values() for r in rep
            )
            and all(all(v) for v in self.containment_ok.values())
            and self.integral_g <= self.integral_f
        )


def _refine_to(s: GridSet, res: tuple) -> GridSet:
    extra = tuple(r - m for r, m in zip(res, s.grid.resolution))
    if any(e < 0 for e in extra):
        raise ValueError("cannot coarsen")
    return s.refine(extra) if any(extra) else s


def build_resonance_function(
    f: StepFunction,
    bases,
    phi: GrowthFunction,
    K: int,
    alpha=None,
    pads=None,
    resolution_cap: int = 12,
    base_bits=(2, 2),
    refine_extra: int = 3,
    margin: float = 1e-9,
    deep_verify: bool = False,
) -> ResonancePlan:
    """Full staged construction against the basis family.

    Per stage k the band (A_k, h_k, q_k) yields a replicated configuration
    for amplitude h_k/q_k at truncation 1/k and target measure |A_k|;
    resolutions chain (the next coarse resolution is this stage's fine
    one), which is what makes the stages exactly independent.
    """
    n = f.grid.n
    bases = list(bases)
    if alpha is None:
        alpha = 1.0
    selection = build_divergent_sequences(phi, f, alpha, K)
    if len(selection.entries) != K:
        raise InfeasibleError(
            "a stage split into several bands; enlarge alpha so each stage "
            "is a single configuration"
        )
    m = (0,) * n
    stages = []
    for k, (A, h, q) in enumerate(selection.entries, start=1):
        amp = Fraction(h) / q
        delta = A.relative_measure()
        eps = Fraction(1, k)
        required = tuple(
            mi + bb + (pads[k - 1][ax] if pads else 0)
            for ax, (mi, bb) in enumerate(zip(m, base_bits))
        )
        if max(required) > resolution_cap:
            raise ResolutionCapError(
                f"stage {k} needs resolution {required} beyond cap {resolution_cap}; "
                f"achievable depth is {k - 1}",
                achievable_depth=k - 1,
                required=required,
            )
        base_grid = DyadicGrid(
            base_bits, side=tuple(Fraction(1, 1 << mi) for mi in m)
        )
        base_w = build_tile_witness(
            base_grid, bases, amp, eps, phi, refine_extra=refine_extra, margin=margin
        )
        rep = replicate_configuration(
            base_w,
            delta,
            m,
            eps,
            phi,
            pad=pads[k - 1] if pads else None,
            refine_extra=refine_extra,
            margin=margin,
        )
        if max(rep.j) > resolution_cap:
            raise ResolutionCapError(
                f"stage {k} landed at resolution {rep.j} beyond cap {resolution_cap}",
                achievable_depth=k - 1,
                required=rep.j,
            )
        uniform_ok = uniform_distribution_check(rep.E, m) and all(
            uniform_distribution_check(P, m) for P in rep.p_sets.values()
        )
        stages.append(
            StageRecord(
                k=k,
                q=q,
                h=Fraction(h),
                amp=amp,
                delta=delta,
                eps=eps,
                m=m,
                j=rep.j,
                pad=rep.pad,
                E=rep.E,
                p_sets=rep.p_sets,
                tile=rep.tile,
                uniform_ok=uniform_ok,
            )
        )
        m = rep.j
    final_res = stages[-1].j
    final_grid = DyadicGrid(final_res)
    basis_keys = tuple(stages[0].p_sets.keys())

    e_final = tuple(_refine_to(s.E, final_res) for s in stages)
    p_final = {
        key: tuple(_refine_to(s.p_sets[key], final_res) for s in stages)
        for key in basis_keys
    }

    # Stage containment was proven exactly at each stage's native resolution
    # (replicate_configuration raises otherwise).  Refining both sides
    # preserves it: the scaled shapes cover the same physical rectangles, so
    # every average is unchanged.  With deep_verify the level sets are
    # recomputed from scratch on the final grid anyway.  Disk-certified
    # sets are re-located against the stage tile's certificate.
    containment_ok = {}
    stage_memos = [{} for _ in stages]
    for key in basis_keys:
        per_stage = []
        for s, E_f, P_f, memo in zip(stages, e_final, p_final[key], stage_memos):
            if deep_verify and s.j != final_res:
                factor = tuple(1 << (r - jj) for r, jj in zip(final_res, s.j))
                shapes = _scaled_shapes(s.tile.shapes, factor)
                per_stage.append(_within(s.tile, key, memo, E_f, P_f, shapes))
            elif key in s.tile.certificates:
                per_stage.append(_within(s.tile, key, memo))
            else:
                per_stage.append(True)  # checked exactly at resolution s.j
        containment_ok[key] = tuple(per_stage)

    independence = {
        key: check_independence(p_final[key]) for key in basis_keys
    }

    union_masses = {}
    for key in basis_keys:
        acc = np.zeros(final_grid.shape, dtype=bool)
        formula = Fraction(1)
        for P in p_final[key]:
            acc |= P.mask
            formula *= 1 - P.relative_measure()
        union = Fraction(int(acc.sum()), final_grid.total_cells)
        union_masses[key] = (union, 1 - formula, union == 1 - formula)

    # assemble g = sup_k h_k chi_{E_k}: each cell takes the code of the
    # last stage whose E_k holds it (the h_k increase, so later stages win)
    codes = np.zeros(final_grid.shape, dtype=np.intp)
    for k, E_f in enumerate(e_final, start=1):
        codes[E_f.mask] = k
    g = StepFunction.from_table(final_grid, [0] + [s.h for s in stages], codes)
    integral_g = g.integral()
    integral_f = f.integral()
    if integral_g > integral_f:
        raise VerificationError("resonance function exceeds the input mass")

    plan = ResonancePlan(
        stages=tuple(stages),
        final_grid=final_grid,
        g=g,
        basis_keys=basis_keys,
        selection=selection,
        union_masses=union_masses,
        independence=independence,
        containment_ok=containment_ok,
        integral_f=integral_f,
        integral_g=integral_g,
        e_final=e_final,
        p_final=p_final,
    )
    if not plan.verified():
        raise VerificationError("an exact invariant failed after assembly")
    return plan


# ---------------------------------------------------------------------------
# rearrangement


@dataclass(frozen=True)
class Rearrangement:
    """A permutation of the cells of ``grid`` (identity off the box is
    implicit: the grid is the whole domain)."""

    grid: DyadicGrid
    perm: np.ndarray
    source_checksum: str

    def __post_init__(self):
        object.__setattr__(self, "perm", np.asarray(self.perm, dtype=np.int64))

    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm), dtype=np.int64)
        return inv

    def is_permutation(self) -> bool:
        return bool(
            len(self.perm) == self.grid.total_cells
            and np.array_equal(np.sort(self.perm), np.arange(len(self.perm)))
        )


def _checksum(f: StepFunction) -> str:
    hsh = hashlib.sha256()
    hsh.update(" ".join(map(str, f.grid.resolution)).encode())
    for text in _text_chunks(*_value_table(f.num, f.den), end=""):
        hsh.update(text.encode())
    return hsh.hexdigest()


def build_rearrangement(f: StepFunction, plan: ResonancePlan) -> Rearrangement:
    """Cell permutation omega with (f o omega) >= g everywhere.

    Cells of E'_k = E_k minus all later E_j are sent into the band A_k
    (where f equals h_k = g on E'_k); the displaced band cells absorb the
    vacated ones.  Histogram preservation is automatic for a permutation
    and re-checked as a multiset identity.
    """
    final_res = plan.final_grid.resolution
    extra = tuple(r - m for r, m in zip(final_res, f.grid.resolution))
    if any(e < 0 for e in extra):
        raise ValueError("input lives on a finer grid than the plan")
    # per-cell index of f's numerator among its distinct ones, ascending
    table = np.unique(f.num)
    codes = np.searchsorted(table, f.refine(extra).num.ravel())
    N = plan.final_grid.total_cells
    perm = np.arange(N, dtype=np.int64)

    later = np.zeros(plan.final_grid.shape, dtype=bool)
    eprimes = []
    for E_f in reversed(plan.e_final):
        eprimes.append(E_f.mask & ~later)
        later |= E_f.mask
    eprimes.reverse()

    src_used = np.zeros(N, dtype=bool)
    tgt_used = np.zeros(N, dtype=bool)
    for (A, h, q), ep in zip(plan.selection.entries, eprimes):
        src = np.flatnonzero(ep.ravel())
        tgt = np.flatnonzero(_refine_to(A, final_res).mask.ravel())
        if len(tgt) < len(src):
            raise InfeasibleError(
                f"band for q={q} holds {len(tgt)} cells < {len(src)} needed; "
                "refine the input first"
            )
        tgt = tgt[: len(src)]
        perm[src] = tgt
        src_used[src] = True
        tgt_used[tgt] = True
    displaced = np.flatnonzero(tgt_used & ~src_used)
    vacated = np.flatnonzero(src_used & ~tgt_used)
    perm[displaced] = vacated
    out = Rearrangement(plan.final_grid, perm, _checksum(f))

    if not out.is_permutation():
        raise VerificationError("rearrangement is not a bijection")
    rearranged = codes[perm]
    if not np.array_equal(np.bincount(rearranged, minlength=len(table)),
                          np.bincount(codes, minlength=len(table))):
        raise VerificationError("value histogram changed")
    g = plan.g
    if not np.all(_scaled(table, g.den)[rearranged] >= _scaled(g.num.ravel(), f.den)):
        raise VerificationError("f o omega fails to dominate g somewhere")
    return out


# ---------------------------------------------------------------------------
# shipped inputs


_DEEP_DELTAS = (Fraction(12, 64), Fraction(15, 64), Fraction(11, 64), Fraction(15, 64))
_DEEP_PADS = ((0, 1), (1, 0), (1, 1), (1, 1))
_SQUARE_DELTAS = (Fraction(1, 4),) * 4
# stage 1 replicates undiluted; later stages dilute isotropically so the
# largest admissible rectangle cannot saturate the whole tile
_SQUARE_PADS = ((0, 0), (1, 1), (1, 1), (1, 1))


def _amp_for(phi, need: float, grain: int = 64) -> Fraction:
    """Smallest multiple of 1/grain with phi(amp) >= need (amp > 1)."""
    lo, hi = 1.0, 2.0
    while phi(hi) < need:
        hi *= 2
        if hi > 1e9:
            raise InfeasibleError("growth function too flat for this target")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if phi(mid) >= need:
            hi = mid
        else:
            lo = mid
    amp = Fraction(math.ceil(hi * grain), grain)
    while phi(float(amp)) < need:
        amp += Fraction(1, grain)
    return amp


def synthetic_resonance_input(
    phi: GrowthFunction, K: int, style: str = "deep"
) -> tuple[StepFunction, tuple]:
    """A step function whose bands make depth-K selection feasible, plus
    the matching per-stage dilution pads.

    Style "deep" alternates anisotropic dilution so four stages fit in a
    2048^2 grid with non-degenerate divergence sets; style "square" keeps
    every tile square (exact quarter-turn symmetry) at the cost of
    saturating late stages.
    """
    if style not in ("deep", "square"):
        raise ValueError("style must be 'deep' or 'square'")
    if not 1 <= K <= 4:
        raise InfeasibleError("shipped inputs support depth 1..4")
    deltas, pads = (
        (_DEEP_DELTAS, _DEEP_PADS) if style == "deep" else (_SQUARE_DELTAS, _SQUARE_PADS)
    )
    grid = DyadicGrid((3, 3))
    cells = grid.total_cells
    values = np.full(grid.shape, Fraction(0), dtype=object).ravel()
    pos = 0
    prev_h = Fraction(0)
    for k in range(1, K + 1):
        delta = deltas[k - 1]
        count = delta * cells
        if count.denominator != 1:
            raise ValueError("band measure is not a whole number of cells")
        amp = _amp_for(phi, k / float(delta))
        h = max(amp * k, prev_h + Fraction(1, 64))
        if not h > k:
            h = Fraction(k) + Fraction(1, 64)
        prev_h = h
        values[pos : pos + int(count)] = h
        pos += int(count)
    if pos > cells:
        raise InfeasibleError("bands exceed the unit cube")
    f = StepFunction(grid, values.reshape(grid.shape), "rational")
    return f, pads[:K]


# ---------------------------------------------------------------------------
# serialization


def save_plan(plan: ResonancePlan, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "final_resolution": list(plan.final_grid.resolution),
        "bases": list(plan.basis_keys),
        "integral_f": str(plan.integral_f),
        "integral_g": str(plan.integral_g),
        "stages": [
            {
                "k": s.k,
                "q": s.q,
                "h": str(s.h),
                "m": list(s.m),
                "j": list(s.j),
                "pad": list(s.pad),
                "measure_E": str(s.E.relative_measure()),
                "uniform": s.uniform_ok,
                "bases": {
                    key: {
                        "measure_P": str(P.relative_measure()),
                        "verified": bool(plan.containment_ok[key][s.k - 1]),
                    }
                    for key, P in s.p_sets.items()
                },
            }
            for s in plan.stages
        ],
        "union_masses": {
            key: {"union": str(u), "product_formula": str(p), "ok": ok}
            for key, (u, p, ok) in plan.union_masses.items()
        },
        "independence_ok": {
            key: all(r["ok"] for r in rep) for key, rep in plan.independence.items()
        },
    }
    path = os.path.join(out_dir, "plan.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    save_step_function(plan.g, os.path.join(out_dir, "g.txt"))
    return path


def save_rearrangement(r: Rearrangement, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "permutation.npy")
    np.save(path, r.perm)
    with open(os.path.join(out_dir, "permutation.json"), "w") as fh:
        json.dump(
            {
                "resolution": list(r.grid.resolution),
                "source_checksum": r.source_checksum,
                "cells": int(len(r.perm)),
            },
            fh,
            indent=2,
        )
    return path
