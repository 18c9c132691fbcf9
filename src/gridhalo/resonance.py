"""Staged resonance pipeline on dyadic grids.

From an input step function this module selects one level-set band per
stage with prescribed growth mass, replicates a tile witness uniformly
across every coarse cell (which makes the per-stage divergence sets
exactly independent), assembles the resonance function g, certifies the
union mass after every stage through the closed-form product formula, and
finally produces the measure-preserving cell rearrangement with its proof.

Each stage is one pass: one tile witness is built on the base tile
diluted by the stage's pad and replicated, and uniformity and level-set
containment are checked once, where the replicated sets are made, with
their verdicts recorded in the stage's record.

All measures, containments, independence products and the union identity
are checked in exact rational arithmetic; rotated-basis level sets are
certified lower bounds (see gridhalo.witness).  Independence and the
union identity read the histogram of one code per final-grid cell and
basis, bit k-1 set in P_k; g is one stage code per cell, and the
rearrangement's domination proof is one gather from an exact table over
the pairs (value of f, value of g).
"""

from __future__ import annotations

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
    InfeasibleError,
    StepFunction,
    VerificationError,
    _counts,
    _repeat,
    _text_chunks,
    save_step_function,
    uniform_distribution_check,
)
from .witness import MPhiWitness, build_tile_witness

__all__ = [
    "build_divergent_sequences",
    "StageRecord",
    "replicate_configuration",
    "check_independence",
    "ResonancePlan",
    "build_resonance_function",
    "Rearrangement",
    "build_rearrangement",
    "synthetic_resonance_input",
    "shipped_rearrangement_depth",
    "save_plan",
    "save_rearrangement",
]


# ---------------------------------------------------------------------------
# level-set selection


def build_divergent_sequences(phi, f: StepFunction, K: int) -> tuple:
    """One band per stage k = 1..K, as the tuple of (A_k, h_k, k): A_k is
    the set where f equals h_k, its smallest value above both k and the
    previous stage's value, so the h_k strictly increase and the bands are
    disjoint.  A stage whose band has growth mass phi(h_k/k)|A_k| below k
    is infeasible."""
    if K < 1:
        raise ValueError("depth must be >= 1")
    entries = []
    taken = _counts(f.codes, len(f.table))
    h = 0
    for k in range(1, K + 1):
        # the table ascends, so the first value taken above k and h is next
        i = next((i for i, v in enumerate(f.table) if v > max(k, h) and taken[i]), None)
        mass = 0.0
        if i is not None:
            h = f.table[i]
            A = GridSet._own(f.grid, f.codes == i)
            mass = phi(float(h) / k) * float(A.measure())
        if mass < k:
            raise InfeasibleError(
                f"stage {k} infeasible: its band has growth mass {mass:.6g} < {k}; "
                f"largest achievable depth is {k - 1}"
            )
        entries.append((A, h, k))
    return tuple(entries)


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


def replicate_configuration(
    bases,
    amp,
    delta,
    m,
    eps,
    phi,
    pad,
) -> StageRecord:
    """Build the tile witness for ``bases`` at amplitude ``amp`` and
    truncation eps on the base tile diluted by ``pad`` (per-axis
    exponents) to a measure in [delta / 4^n, delta], and tile it over
    every coarse cell of resolution m.

    Each replicated set is checked once, where it is made: for uniform
    distribution over the coarse cells, and for containment in its basis's
    certified level set, by the tile witness's own check on the replicated
    grid.  That check folds the replicated E and P onto the tile grid and
    compares them with the tile's E and certified cells, proved once on
    the tile, instead of recomputing the level set of the whole grid.  A
    failed check raises; the verdicts are recorded.
    Returns the stage at the fine resolution j = m + base bits + pad.
    """
    delta = Fraction(delta)
    if not 0 < delta <= _BASE_DENSITY:
        raise InfeasibleError(
            f"target measure {delta} exceeds the witness density {_BASE_DENSITY}"
        )
    pad = tuple(int(p) for p in pad)
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
    E = GridSet._own(full, np.tile(tile.E.mask, reps))
    p_sets = {key: GridSet._own(full, np.tile(P.mask, reps)) for key, P in tile.p_sets.items()}
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


def check_independence(atoms) -> list[dict]:
    """Product rule |∩ P_i| = ∏|P_i| (relative measures) for every subset
    of two or more sets, exactly, from their atom histogram: ``atoms[c]``
    counts the cells whose code is c, with bit i set in set i."""
    codes = np.arange(len(atoms))
    # the measure of the intersection of every bit set s (all cells for s = 0)
    inter = [Fraction(int(atoms[codes & s == s].sum()), int(atoms.sum())) for s in codes]
    n = len(atoms).bit_length() - 1
    report = []
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            lhs = inter[sum(1 << i for i in combo)]
            rhs = math.prod(inter[1 << i] for i in combo)
            report.append(
                {"subset": combo, "intersection": lhs, "product": rhs, "ok": lhs == rhs}
            )
    return report


def _stage_code(stages, key=None) -> np.ndarray:
    """One code per final-grid cell, walked up the stages without refining
    a stage's set: bit k-1 says the cell is in P_k of basis ``key``; with no
    key the code is g's, the last k whose E_k holds the cell."""
    code = np.zeros([1 << m for m in stages[0].m], np.min_scalar_type((1 << len(stages)) - 1))
    for k, s in enumerate(stages, start=1):
        code = _repeat(code, [j - m for j, m in zip(s.j, s.m)])
        if key is None:
            code[s.E.mask] = k
        else:
            np.bitwise_or(code, 1 << (k - 1), out=code, where=s.p_sets[key].mask)
    return code


# ---------------------------------------------------------------------------
# the staged construction


@dataclass(frozen=True)
class ResonancePlan:
    stages: tuple  # of StageRecord, one per entry of the selection
    final_grid: DyadicGrid
    g: StepFunction
    basis_keys: tuple
    selection: tuple  # of (A_k, h_k, k), from build_divergent_sequences
    unions: dict  # key -> (union, product_formula, ok) after each stage
    independence: dict  # key -> report list
    integral_f: Fraction
    integral_g: Fraction

    @property
    def containment_ok(self) -> dict:
        """key -> the stages' containment verdicts, each checked where its
        sets were made.  Refining both sides preserves them: the tile's
        certified cells are proved once on the tile, a certificate scaled
        to finer cells covers the same physical rectangle and the same part
        of E, and a disk-certified set refines with its tile cells;
        ``tile.containment`` decides the same on the final grid."""
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


def build_resonance_function(
    f: StepFunction,
    bases,
    phi,
    K: int,
    pads,
) -> ResonancePlan:
    """Full staged construction against the basis family.

    Per stage k the band (A_k, h_k) yields a replicated configuration for
    amplitude h_k/k at truncation 1/k and target measure |A_k|;
    resolutions chain (the next coarse resolution is this stage's fine
    one), which is what makes the stages exactly independent.  Each stage
    is one pass: one tile witness diluted by its pad ``pads[k - 1]``, and
    its replication with the checks made there.
    ``synthetic_resonance_input`` ships the pads of its inputs.
    """
    bases = list(bases)
    selection = build_divergent_sequences(phi, f, K)
    m = (0,) * f.grid.n
    stages = []
    for A, h, k in selection:
        stages.append(
            replicate_configuration(
                bases, h / k, A.relative_measure(), m, Fraction(1, k), phi, pads[k - 1]
            )
        )
        m = stages[-1].j
    final_grid = DyadicGrid(stages[-1].j)
    basis_keys = tuple(stages[0].p_sets)

    # per basis, the counts of its 2^K stage codes are the atoms of the P_k;
    # the union of P_1..P_d is every code that is not a multiple of 2^d
    atoms = {key: _counts(_stage_code(stages, key), 1 << len(stages)) for key in basis_keys}
    independence = {key: check_independence(a) for key, a in atoms.items()}
    unions = {}
    for key, a in atoms.items():
        per_depth = []
        for d in range(1, len(stages) + 1):
            union = Fraction(int(a.sum() - a[:: 1 << d].sum()), final_grid.total_cells)
            formula = 1 - math.prod(1 - s.p_sets[key].relative_measure() for s in stages[:d])
            per_depth.append((union, formula, union == formula))
        unions[key] = tuple(per_depth)
    # g = sup_k h_k chi_{E_k}: the h_k increase, so later stages win
    g = StepFunction.from_table(
        final_grid, [0] + [h for _, h, _ in selection], _stage_code(stages)
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
    )
    if not plan.verified():
        raise VerificationError("an exact invariant failed after assembly")
    return plan


# ---------------------------------------------------------------------------
# rearrangement


@dataclass(frozen=True)
class Rearrangement:
    """A permutation of the cells of ``grid``, int32 (identity off the box
    is implicit: the grid is the whole domain), the verdicts of its proof by
    name, and per value of f its cell counts (value, before, after)."""

    grid: DyadicGrid
    perm: np.ndarray
    source_checksum: str
    checks: dict
    histogram: tuple


def _checksum(f: StepFunction) -> str:
    import hashlib  # only the rearrangement hashes, so only it loads OpenSSL

    hsh = hashlib.sha256()
    hsh.update(" ".join(map(str, f.grid.resolution)).encode())
    for text in _text_chunks(f.table, f.codes.ravel(), end=""):
        hsh.update(text.encode())
    return hsh.hexdigest()


# cells per chunk of the rearrangement's walks over the final grid
_CHUNK = 1 << 16


def _slices(size: int):
    return (slice(start, start + _CHUNK) for start in range(0, size, _CHUNK))


def _send(perm: np.ndarray, sources, targets, taken=None) -> None:
    """``perm`` sends the cells where ``sources`` holds, in order, to as
    many of the cells where ``targets`` holds, in order, and marks those in
    ``taken``.  ``sources(sl)`` and ``targets(sl)`` are the bool masks of
    the cells in slice ``sl``, and there must be enough targets.  Both are
    walked a chunk at a time, so no whole-grid mask or index array is made:
    the targets not yet sent to are at most about two chunks."""
    found = (np.flatnonzero(targets(sl)) + sl.start for sl in _slices(perm.size))
    free = np.empty(0, dtype=np.int64)
    for sl in _slices(perm.size):
        mask = sources(sl)
        n = int(np.count_nonzero(mask))
        while len(free) < n:
            free = np.concatenate([free, next(found)])
        perm[sl][mask] = free[:n]
        if taken is not None:
            taken[free[:n]] = True
        free = free[n:]


# cells of the largest final grid an int32 permutation can index, past
# every supported depth (2^22 cells at depth 4)
PERMUTATION_CELLS = 1 << 31


def _permutation(stage_codes: np.ndarray, band_codes: np.ndarray, depth: int) -> np.ndarray:
    """Cells of E'_k = E_k minus all later E_j (g's code k) go into the
    band A_k (band code k), k = 1 .. depth, the displaced band cells into
    the vacated ones; every other cell stays.  The permutation is int32,
    half the memory of int64, so grids of ``PERMUTATION_CELLS`` or more
    cells are refused."""
    if stage_codes.size >= PERMUTATION_CELLS:
        raise InfeasibleError(
            f"the rearrangement of {stage_codes.size} cells needs an int32 permutation, "
            f"which indexes fewer than {PERMUTATION_CELLS} cells"
        )
    perm = np.arange(stage_codes.size, dtype=np.int32)
    need = _counts(stage_codes, depth + 1).tolist()
    have = _counts(band_codes, depth + 1).tolist()
    taken = np.zeros(perm.size, dtype=bool)
    for k in range(depth, 0, -1):
        if have[k] < need[k]:
            raise InfeasibleError(
                f"band for q={k} holds {have[k]} cells < {need[k]} needed; "
                "refine the input first"
            )
        _send(perm, lambda sl: stage_codes[sl] == k, lambda sl: band_codes[sl] == k, taken)
    # every cell of some E'_k is a source: the targets that are not go to
    # the sources that are not targets, in order
    _send(
        perm,
        lambda sl: taken[sl] & (stage_codes[sl] == 0),
        lambda sl: (stage_codes[sl] != 0) & ~taken[sl],
    )
    return perm


def _dominance(f_table, g_table) -> np.ndarray:
    """Exact ``f_table[i] >= g_table[j]`` for every pair of values."""
    return np.array([[a >= b for b in g_table] for a in f_table], dtype=bool)


def build_rearrangement(f: StepFunction, plan: ResonancePlan) -> Rearrangement:
    """Cell permutation omega with (f o omega) >= g everywhere.

    Its four invariants are proved here, once, in this order:
    is_permutation (every cell is hit), histogram_preserved (f o omega
    takes each value on as many cells as f), rearranged_dominates_g (one
    gather from the table of f value >= g value) and identity_outside_domain
    (omega fixes every cell outside all E_k and bands A_k).  The verdicts
    are recorded, and any that fails raises VerificationError naming it.
    """
    final_res = plan.final_grid.resolution
    extra = tuple(r - m for r, m in zip(final_res, f.grid.resolution))
    if any(e < 0 for e in extra):
        raise ValueError("input lives on a finer grid than the plan")
    # the bands are disjoint: band k as code k on the input grid, refined
    masks = [A.mask for A, _, _ in plan.selection]
    bands = _repeat(np.select(masks, range(1, len(masks) + 1)).astype(np.uint8), extra).ravel()
    g_codes = plan.g.codes.ravel()
    perm = _permutation(g_codes, bands, len(masks))
    N = plan.final_grid.total_cells
    seen = np.zeros(N, dtype=bool)
    seen[perm] = True
    is_permutation = len(perm) == N and bool(seen.all())
    del seen
    codes = _repeat(f.codes, extra).ravel()
    before = _counts(codes, len(f.table))
    dominates = _dominance(f.table, plan.g.table)
    # omega a chunk at a time: the histogram of f o omega, its domination
    # of g, and that omega fixes every cell outside all E_k and bands A_k
    after = np.zeros_like(before)
    dominated = fixed = True
    for sl in _slices(N):
        part = perm[sl]
        moved = codes[part]
        after += np.bincount(moved, minlength=len(f.table))
        dominated = dominated and bool(dominates[moved, g_codes[sl]].all())
        outside = (g_codes[sl] == 0) & (bands[sl] == 0)
        fixed = fixed and np.array_equal(part[outside], np.flatnonzero(outside) + sl.start)
    checks = {
        "is_permutation": is_permutation,
        "histogram_preserved": bool(np.array_equal(before, after)),
        "rearranged_dominates_g": dominated,
        "identity_outside_domain": fixed,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise VerificationError(f"rearrangement fails {', '.join(failed)}")
    histogram = tuple(
        (v, b, a) for v, b, a in zip(f.table, before.tolist(), after.tolist()) if b
    )
    return Rearrangement(plan.final_grid, perm, _checksum(f), checks, histogram)


# ---------------------------------------------------------------------------
# shipped inputs


_DEEP_DELTAS = (Fraction(12, 64), Fraction(15, 64), Fraction(11, 64), Fraction(15, 64))
_DEEP_PADS = ((0, 1), (1, 0), (1, 1), (1, 1))
_SQUARE_DELTAS = (Fraction(1, 4),) * 4
# stage 1 replicates undiluted; later stages dilute isotropically so the
# largest admissible rectangle cannot saturate the whole tile
_SQUARE_PADS = ((0, 0), (1, 1), (1, 1), (1, 1))
# the shipped input lives on 2^3 cells per axis
_INPUT_BITS = 3


def _amp_for(phi, need: float) -> Fraction:
    """Smallest multiple m/64 of 1/64 above 1 with phi(m/64) >= need, phi
    increasing: the upper end m doubles from 128 until phi reaches need
    there, then an integer bisection keeps phi(lo/64) < need <= phi(hi/64)."""
    lo, hi = 64, 128
    while phi(hi / 64) < need:
        lo, hi = hi, 2 * hi
        if hi > 64 * 10**9:
            raise InfeasibleError("growth function too flat for this target")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if phi(mid / 64) >= need:
            hi = mid
        else:
            lo = mid
    return Fraction(hi, 64)


def synthetic_resonance_input(
    phi, K: int, style: str = "deep"
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
    grid = DyadicGrid((_INPUT_BITS,) * len(_BASE_BITS))
    cells = grid.total_cells
    # band k is code k of the value table [0, h_1, .., h_K]
    codes = np.zeros(cells, dtype=np.uint8)
    table = [Fraction(0)]
    pos = 0
    prev_h = Fraction(0)
    for k in range(1, K + 1):
        delta = deltas[k - 1]
        count = delta * cells
        if count.denominator != 1:
            raise ValueError("band measure is not a whole number of cells")
        amp = _amp_for(phi, k / float(delta))
        # amp > 1, so h > k, and h rises by at least 1/64 per band
        h = max(amp * k, prev_h + Fraction(1, 64))
        prev_h = h
        codes[pos : pos + int(count)] = k
        table.append(h)
        pos += int(count)
    if pos > cells:
        raise InfeasibleError("bands exceed the unit cube")
    return StepFunction.from_table(grid, table, codes), pads[:K]


def shipped_rearrangement_depth(style: str) -> int:
    """The least depth whose plan for the shipped input of ``style`` ends
    on a grid at least as fine as the input's, as its rearrangement needs:
    stage resolutions chain, each stage adding the base bits and its pad."""
    pads = _DEEP_PADS if style == "deep" else _SQUARE_PADS
    finals = itertools.accumulate(np.add(_BASE_BITS, pads))
    return next(d for d, j in enumerate(finals, start=1) if min(j) >= _INPUT_BITS)


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
                zip(plan.selection, plan.stages), start=1
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
    """``permutation.npy``, the int64 file ``np.save`` writes, converted
    from the int32 permutation a chunk at a time, and ``permutation.json``."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "permutation.npy")
    descr = np.lib.format.dtype_to_descr(np.dtype(np.int64))
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": descr, "fortran_order": False, "shape": r.perm.shape}
        )
        for sl in _slices(r.perm.size):
            fh.write(r.perm[sl].astype(np.int64).tobytes())
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
