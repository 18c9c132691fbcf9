"""Staged resonance pipeline on dyadic grids.

From an input step function this module selects level-set bands with
prescribed growth mass, replicates a tile witness uniformly across every
coarse cell (which makes the per-stage divergence sets exactly
independent), assembles the resonance function g, certifies the union
mass after every stage through the closed-form product formula, and
finally produces the measure-preserving cell rearrangement.

Each stage is one pass: its dilution pad and fine resolution come first
(one resolution-cap check), then one tile witness is built on the diluted
tile and replicated, and uniformity and level-set containment are checked
once, where the replicated sets are made, with their verdicts recorded
in the stage's record.

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
from dataclasses import dataclass
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
from .witness import MPhiWitness, build_tile_witness

__all__ = [
    "InfeasibleError",
    "ResolutionCapError",
    "VerificationError",
    "select_level_sets",
    "LevelSelection",
    "build_divergent_sequences",
    "StageRecord",
    "replicate_configuration",
    "check_independence",
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

# Every stage dilutes one base layout: E is the central 2x2 block of a 4x4
# tile, so the undiluted witness density is 4/16 = 1/4.
_BASE_BITS = (2, 2)
_BASE_DENSITY = Fraction(4, 1 << sum(_BASE_BITS))


@dataclass(frozen=True)
class StageRecord:
    """One stage: the tile witness diluted by ``pad`` and replicated over
    every coarse cell of resolution m, its sets at the fine resolution j,
    and the verdicts of the checks made where those sets were built."""

    m: tuple
    j: tuple
    pad: tuple
    E: GridSet  # at resolution j
    p_sets: dict  # at resolution j
    tile: MPhiWitness  # amplitude tile.h, truncation tile.trunc
    uniform_ok: bool
    containment_ok: dict  # key -> containment verdict at resolution j


def _dilution_pad(delta, pad=None) -> tuple:
    """Per-axis dilution exponents of the base tile for target measure
    delta: ``pad`` as given, else the fewest halvings of the base density
    that reach delta, spread over the axes."""
    if not 0 < delta <= _BASE_DENSITY:
        raise InfeasibleError(
            f"target measure {delta} exceeds the witness density {_BASE_DENSITY}"
        )
    if pad is None:
        n = len(_BASE_BITS)
        need = 0
        while _BASE_DENSITY / (1 << need) > delta:
            need += 1
        pad = tuple(need // n + (1 if ax < need % n else 0) for ax in range(n))
    return tuple(int(p) for p in pad)


def replicate_configuration(
    bases,
    amp,
    delta,
    m,
    eps,
    phi: GrowthFunction,
    pad=None,
) -> StageRecord:
    """Build the tile witness for ``bases`` at amplitude ``amp`` and
    truncation eps on the base tile diluted to measure <= delta, and tile
    it over every coarse cell of resolution m.

    Replication cannot shrink level sets, so the tile's containments
    survive.  Each replicated set is checked once, where it is made: for
    uniform distribution over the coarse cells, and for containment in its
    basis's certified level set, by the tile witness's own check on the
    replicated grid.  A failed check raises; the verdicts are recorded.
    Returns the stage at the fine resolution j = m + base bits + pad.
    """
    delta = Fraction(delta)
    pad = _dilution_pad(delta, pad)
    m = tuple(int(x) for x in m)
    n = len(_BASE_BITS)
    density = _BASE_DENSITY / (1 << sum(pad))
    if not delta / 4**n <= density <= delta:
        raise InfeasibleError(
            f"diluted density {density} outside [{delta / 4**n}, {delta}]"
        )
    tile_bits = tuple(b + p for b, p in zip(_BASE_BITS, pad))
    tile_grid = DyadicGrid(
        tile_bits, side=tuple(Fraction(1, 1 << mi) for mi in m)
    )
    tile = build_tile_witness(tile_grid, bases, amp, Fraction(eps), phi)
    j = tuple(mi + tb for mi, tb in zip(m, tile_bits))
    full = DyadicGrid(j)
    reps = tuple(1 << mi for mi in m)
    E = GridSet(full, np.tile(tile.E.mask, reps))
    p_sets = {
        key: GridSet(full, np.tile(P.mask, reps)) for key, P in tile.p_sets.items()
    }
    uniform_ok = all(
        uniform_distribution_check(s, m) for s in (E, *p_sets.values())
    )
    if not uniform_ok:
        raise VerificationError("replicated set is not uniformly distributed")
    containment_ok = tile.containment(E, p_sets)
    if not all(containment_ok.values()):
        raise VerificationError("level-set containment lost under tiling")
    e_rel = E.relative_measure()
    if e_rel != density:
        raise VerificationError("replicated E lost the tile density")
    for P in p_sets.values():
        if float(P.relative_measure()) < tile.c * tile.phi_at_h * float(e_rel) - 1e-12:
            raise VerificationError("replicated P lost its mass bound")
    return StageRecord(m, j, pad, E, p_sets, tile, uniform_ok, containment_ok)


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
class ResonancePlan:
    stages: tuple  # of StageRecord, one per entry of the selection
    final_grid: DyadicGrid
    g: StepFunction
    basis_keys: tuple
    selection: LevelSelection
    unions: dict  # key -> (union, product_formula, ok) after each stage
    independence: dict  # key -> report list
    integral_f: Fraction
    integral_g: Fraction
    e_final: tuple  # per-stage E masks refined to the final grid
    p_final: dict  # key -> per-stage P masks refined to the final grid

    @property
    def depth(self) -> int:
        return len(self.stages)

    @property
    def containment_ok(self) -> dict:
        """key -> the stages' containment verdicts, each checked where its
        sets were made.  Refining both sides preserves them: the scaled shapes
        cover the same physical rectangles, and a disk-certified set refines
        with its tile cells; ``tile.containment`` decides the same on the
        final grid."""
        return {key: tuple(s.containment_ok[key] for s in self.stages) for key in self.basis_keys}

    @property
    def union_masses(self) -> dict:
        """key -> (union, product_formula, ok) over all stages."""
        return {key: per_depth[-1] for key, per_depth in self.unions.items()}

    def verified(self) -> bool:
        return (
            all(s.uniform_ok for s in self.stages)
            and all(ok for seq in self.unions.values() for _, _, ok in seq)
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
    pads=None,
    resolution_cap: int = 12,
) -> ResonancePlan:
    """Full staged construction against the basis family.

    Per stage k the band (A_k, h_k, q_k) yields a replicated configuration
    for amplitude h_k/q_k at truncation 1/k and target measure |A_k|;
    resolutions chain (the next coarse resolution is this stage's fine
    one), which is what makes the stages exactly independent.  Each stage
    is one pass: its pad and fine resolution (checked against the cap),
    one tile witness, and its replication with the checks made there.
    """
    bases = list(bases)
    selection = build_divergent_sequences(phi, f, 1.0, K)
    if len(selection.entries) != K:
        raise InfeasibleError(
            "a stage took several bands; each stage must be a single configuration"
        )
    m = (0,) * f.grid.n
    stages = []
    for k, (A, h, q) in enumerate(selection.entries, start=1):
        delta = A.relative_measure()
        pad = _dilution_pad(delta, pads[k - 1] if pads else None)
        j = tuple(mi + b + p for mi, b, p in zip(m, _BASE_BITS, pad))
        if max(j) > resolution_cap:
            raise ResolutionCapError(
                f"stage {k} needs resolution {j} beyond cap {resolution_cap}; "
                f"achievable depth is {k - 1}",
                achievable_depth=k - 1,
                required=j,
            )
        stages.append(
            replicate_configuration(bases, Fraction(h) / q, delta, m, Fraction(1, k), phi, pad)
        )
        m = stages[-1].j
    final_res = stages[-1].j
    final_grid = DyadicGrid(final_res)
    basis_keys = tuple(stages[0].p_sets)

    e_final = tuple(_refine_to(s.E, final_res) for s in stages)
    p_final = {
        key: tuple(_refine_to(s.p_sets[key], final_res) for s in stages)
        for key in basis_keys
    }

    independence = {
        key: check_independence(p_final[key]) for key in basis_keys
    }

    # the union after each stage, accumulated once per basis, and the
    # product identity 1 - prod(1 - |P_i|) at every depth
    unions = {}
    for key in basis_keys:
        acc = np.zeros(final_grid.shape, dtype=bool)
        rest = Fraction(1)
        per_depth = []
        for P in p_final[key]:
            acc |= P.mask
            rest *= 1 - P.relative_measure()
            union = Fraction(int(acc.sum()), final_grid.total_cells)
            per_depth.append((union, 1 - rest, union == 1 - rest))
        unions[key] = tuple(per_depth)

    # assemble g = sup_k h_k chi_{E_k}: each cell takes the code of the
    # last stage whose E_k holds it (the h_k increase, so later stages win)
    codes = np.zeros(final_grid.shape, dtype=np.intp)
    for k, E_f in enumerate(e_final, start=1):
        codes[E_f.mask] = k
    g = StepFunction.from_table(
        final_grid, [0] + [h for _, h, _ in selection.entries], codes
    )
    plan = ResonancePlan(
        stages=tuple(stages),
        final_grid=final_grid,
        g=g,
        basis_keys=basis_keys,
        selection=selection,
        unions=unions,
        independence=independence,
        integral_f=f.integral(),
        integral_g=g.integral(),
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
    f = StepFunction(grid, values.reshape(grid.shape))
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
                "k": k,
                "q": q,
                "h": str(h),
                "m": list(s.m),
                "j": list(s.j),
                "pad": list(s.pad),
                "measure_E": str(s.E.relative_measure()),
                "uniform": s.uniform_ok,
                "bases": {
                    key: {
                        "measure_P": str(P.relative_measure()),
                        "verified": bool(plan.containment_ok[key][k - 1]),
                    }
                    for key, P in s.p_sets.items()
                },
            }
            for k, ((_, h, q), s) in enumerate(
                zip(plan.selection.entries, plan.stages), start=1
            )
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
