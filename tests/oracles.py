"""Reference implementations the tests compare the package against.

Polygon clipping gives float averages over rotated rectangles,
independent of the witness's disk certificates; ``step_function`` builds
a step function from its per-cell values; ``load_step_function``
reads a saved step function back exactly, and ``save_by_numerators``
writes one from a sort of its numerators; ``field_values`` spells a max
field out as per-cell Fractions from its table and codes; ``refine`` re-represents a cell set on
a finer grid; ``stage_sets_on_final_grid``,
``permutation_by_stage_sets`` and ``dominates_by_numerators`` rebuild the
rearrangement from bool masks and cross-multiplied integers;
``p_sets_on_final_grid``, ``independence_by_masks`` and
``unions_by_masks`` recheck exact independence and the union identity by
ANDing and ORing the refined stage sets;
``kernel_containment`` and
``tile_certificate_ok`` recompute what a witness's winning placements
claim, from the kernel's level set and from a direct count,
``placement_cover`` paints the tile cells they cover, and
``certified_sets_on_grid`` places a witness's certified sets on a whole
replica grid (``place`` refines and tiles a tile mask), counting the
placements on E itself in every copy (``box_counts``); ``boundary_touch``
reads boundary contact off a whole-grid mask; ``difference`` is the set
difference of two cell sets on one grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from gridhalo import witness
from gridhalo.grid import DyadicGrid, GridSet, StepFunction, _repeat, _text_chunks
from gridhalo.maxop import BasisSpec


def polygon_area(poly: Sequence[tuple[float, float]]) -> float:
    """Shoelace area of a simple polygon (positive for CCW order)."""
    a = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        a += x0 * y1 - x1 * y0
    return a / 2.0


def _clip_halfplane(poly, inside, intersect):
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        cin, nin = inside(cur), inside(nxt)
        if cin:
            out.append(cur)
            if not nin:
                out.append(intersect(cur, nxt))
        elif nin:
            out.append(intersect(cur, nxt))
    return out


def clip_polygon_box(poly, x0, y0, x1, y1):
    """Sutherland-Hodgman clip of a convex polygon to [x0,x1] x [y0,y1]."""

    def x_cut(bound):
        def inter(p, q):
            t = (bound - p[0]) / (q[0] - p[0])
            return (bound, p[1] + t * (q[1] - p[1]))

        return inter

    def y_cut(bound):
        def inter(p, q):
            t = (bound - p[1]) / (q[1] - p[1])
            return (p[0] + t * (q[0] - p[0]), bound)

        return inter

    edges = [
        (lambda p: p[0] >= x0, x_cut(x0)),
        (lambda p: p[0] <= x1, x_cut(x1)),
        (lambda p: p[1] >= y0, y_cut(y0)),
        (lambda p: p[1] <= y1, y_cut(y1)),
    ]
    for inside, inter in edges:
        if not poly:
            return []
        poly = _clip_halfplane(poly, inside, inter)
    return poly


def rotated_rect_polygon(center, sides, gamma: float):
    """Corner list (CCW) of the rectangle with given center/sides rotated by gamma."""
    cx, cy = float(center[0]), float(center[1])
    a, b = float(sides[0]) / 2.0, float(sides[1]) / 2.0
    if a <= 0 or b <= 0:
        raise ValueError("degenerate rectangle")
    cg, sg = math.cos(gamma), math.sin(gamma)
    corners = [(-a, -b), (a, -b), (a, b), (-a, b)]
    return [(cx + cg * u - sg * v, cy + sg * u + cg * v) for u, v in corners]


def rotated_average(f: StepFunction, center, sides, gamma: float) -> float:
    """Average of f over the gamma-rotated rectangle.

    Computed as sum_cells f(cell) * area(cell ∩ rect) / |rect| with areas
    from convex polygon clipping; cells outside the grid contribute zero
    while the full rectangle area stays in the denominator.
    """
    if f.grid.n != 2:
        raise ValueError("rotated averages are planar")
    poly = rotated_rect_polygon(center, sides, gamma)
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    cw, ch = (float(v) for v in f.grid.cell_size)
    nx, ny = f.grid.shape
    i0 = max(int(math.floor(min(xs) / cw)), 0)
    i1 = min(int(math.ceil(max(xs) / cw)), nx)
    j0 = max(int(math.floor(min(ys) / ch)), 0)
    j1 = min(int(math.ceil(max(ys) / ch)), ny)
    total = 0.0
    for i in range(i0, i1):
        for j in range(j0, j1):
            v = f.values[i, j]
            if v == 0:
                continue
            cell = clip_polygon_box(poly, i * cw, j * ch, (i + 1) * cw, (j + 1) * ch)
            if len(cell) >= 3:
                total += float(v) * abs(polygon_area(cell))
    return total / (float(sides[0]) * float(sides[1]))


def step_function(grid: DyadicGrid, values) -> StepFunction:
    """Oracle: the step function taking ``values`` (an array of the grid's
    shape) cell by cell, its table from np.unique over the cells."""
    src = np.asarray(values, dtype=object)
    if src.shape != grid.shape:
        raise ValueError("values shape does not match grid")
    table, codes = np.unique(src.ravel(), return_inverse=True)
    return StepFunction.from_table(grid, table.tolist(), codes)


def load_step_function(path) -> StepFunction:
    """Each token is read exactly: ``p/q``, integer and decimal forms alike."""
    with open(path) as fh:
        header = fh.readline().split()
        toks = np.array(fh.read().split())
    grid = DyadicGrid(tuple(int(x) for x in header[1 : 1 + int(header[0])]))
    if len(toks) != grid.total_cells:
        raise ValueError("value count does not match grid")
    table, codes = np.unique(toks, return_inverse=True)
    return StepFunction.from_table(grid, [Fraction(t) for t in table.tolist()], codes)


def numerator_table(f: StepFunction):
    """(table, codes) of f's cells from one sort of its numerators."""
    flat = f.num.ravel()
    nums = np.sort(flat)
    nums = nums[np.append(True, nums[1:] != nums[:-1])]
    return [Fraction(p, f.den) for p in nums.tolist()], np.searchsorted(nums, flat)


def save_by_numerators(f: StepFunction, path):
    """The text format of ``save_step_function``, written from the
    numerator route."""
    with open(path, "w") as fh:
        fh.write(f"{f.grid.n} " + " ".join(str(m) for m in f.grid.resolution) + "\n")
        fh.writelines(_text_chunks(*numerator_table(f)))


def refine(s: GridSet, extra) -> GridSet:
    """The set re-represented on its grid refined by ``extra``."""
    return GridSet(s.grid.refine(extra), _repeat(s.mask, extra))


def _on_final_grid(plan, s, stage_set) -> GridSet:
    return refine(stage_set, [r - j for r, j in zip(plan.final_grid.resolution, s.j)])


def stage_sets_on_final_grid(plan) -> list:
    """Each stage's E_k refined to the plan's final grid."""
    return [_on_final_grid(plan, s, s.E) for s in plan.stages]


def p_sets_on_final_grid(plan) -> dict:
    """key -> each stage's P_k of that basis refined to the final grid."""
    return {
        key: [_on_final_grid(plan, s, s.p_sets[key]) for s in plan.stages]
        for key in plan.basis_keys
    }


def independence_by_masks(sets) -> list[dict]:
    """The product rule |∩ A_i| = ∏|A_i| for every subset of two or more
    sets of one grid, by ANDing and counting their masks."""
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


def unions_by_masks(sets) -> tuple:
    """(union, 1 - prod(1 - |A_i|), ok) after each of the sets of one grid,
    from a running OR of their masks."""
    acc = np.zeros(sets[0].grid.shape, dtype=bool)
    rest = Fraction(1)
    per_depth = []
    for A in sets:
        acc |= A.mask
        rest *= 1 - A.relative_measure()
        union = Fraction(int(acc.sum()), A.grid.total_cells)
        per_depth.append((union, 1 - rest, union == 1 - rest))
    return tuple(per_depth)


def permutation_by_stage_sets(e_final, bands) -> np.ndarray:
    """The rearrangement's permutation from the refined stage sets and
    band masks: E'_k = E_k minus all later E_j, by a running mask of the
    later stages, goes into A_k, the displaced band cells into the vacated
    ones."""
    perm = np.arange(bands[0].size, dtype=np.int64)
    src_used = np.zeros(perm.size, dtype=bool)
    tgt_used = np.zeros(perm.size, dtype=bool)
    later = np.zeros(bands[0].shape, dtype=bool)
    for k in reversed(range(len(bands))):
        src = np.flatnonzero(e_final[k].mask & ~later)
        later |= e_final[k].mask
        tgt = np.flatnonzero(bands[k])[: len(src)]
        assert len(tgt) == len(src)
        perm[src] = tgt
        src_used[src] = True
        tgt_used[tgt] = True
    perm[tgt_used & ~src_used] = np.flatnonzero(src_used & ~tgt_used)
    return perm


def dominates_by_numerators(f: StepFunction, g: StepFunction, perm) -> bool:
    """Whether f o perm >= g in every cell of g's grid, as one
    cross-multiplied compare of Python-int numerators."""
    extra = [r - m for r, m in zip(g.grid.resolution, f.grid.resolution)]
    moved = _repeat(f.num, extra).ravel().astype(object)[perm]
    return bool(np.all(moved * g.den >= g.num.ravel().astype(object) * f.den))


def field_values(fld: StepFunction) -> np.ndarray:
    """The field as per-cell Fractions: each cell's entry of the table."""
    return np.array(fld.table, dtype=object)[fld.codes]


def boundary_touch(mask: np.ndarray) -> bool:
    """Whether the mask holds a cell on the first or last slice of some axis."""
    return any(
        bool(mask.take(0, axis=ax).any() or mask.take(-1, axis=ax).any())
        for ax in range(mask.ndim)
    )


def difference(a: GridSet, b: GridSet) -> GridSet:
    """Oracle: the cells of ``a`` outside ``b``; both on one grid."""
    if a.grid != b.grid:
        raise ValueError("operands live on different grids")
    return GridSet(a.grid, a.mask & ~b.mask)


def kernel_containment(w, E, p_sets):
    """Oracle: per exact-route key, whether P lies in the level set of
    amp*chi_E that the kernel recomputes on E's grid over w's shapes scaled
    to E's cells (the same physical rectangles)."""
    placement = witness._placement(w.grid, E.grid)
    shapes = [tuple(x * f for x, (f, _) in zip(s, placement)) for s in w.shapes]
    k = next(iter(w.bases.values())).k
    level = witness.axis_level_set_exact(E, w.h, w.trunc, BasisSpec("axis", k), shapes)
    return {
        key: P.grid == E.grid and difference(P, level).popcount == 0
        for key, P in p_sets.items()
        if witness._route(w.bases[key]) == 0
    }


def tile_certificate_ok(w, shape, corner):
    """Oracle: whether the rectangle of ``shape`` at lower ``corner``, with
    E zero outside the tile, holds more than |R|/amp of E's cells, counted
    by slicing a zero-padded copy of the tile's E."""
    pad = max(w.grid.shape) * 2
    E = np.pad(w.E.mask, pad)
    count = int(E[tuple(slice(c + pad, c + pad + s) for c, s in zip(corner, shape))].sum())
    return count * w.h > math.prod(shape)


def placement_cover(w) -> np.ndarray:
    """Oracle: the tile cells that w's placements cover, every cell tested
    against every rectangle."""
    n = w.grid.n
    cells = np.indices(w.grid.shape).reshape(n, -1).T
    low = w.placements[:, None, 1:]
    high = low + np.array(w.shapes, dtype=np.int64).reshape(-1, n)[w.placements[:, 0], None]
    return ((low <= cells) & (cells < high)).all(axis=2).any(axis=0).reshape(w.grid.shape)


def box_counts(E: np.ndarray, low: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Oracle: the cells of the mask E in each box [low, low + size),
    clipped to E's grid (the leading axes of ``low`` and ``size``
    broadcast), by inclusion-exclusion on a prefix-sum table of the whole
    grid."""
    n = E.ndim
    table = np.pad(E, [(1, 0)] * n).astype(np.int64)
    for ax in range(n):
        table = np.cumsum(table, axis=ax)
    lo, hi = np.clip(low, 0, E.shape), np.clip(low + size, 0, E.shape)
    out = 0
    for far in itertools.product((0, 1), repeat=n):
        at = tuple((hi if f else lo)[..., ax] for ax, f in enumerate(far))
        out = out + (-1) ** (n - sum(far)) * table[at]
    return out


def place(mask: np.ndarray, placement) -> np.ndarray:
    """Oracle: a tile-grid mask refined by each axis's factor and tiled
    into its copies, for a ``witness._placement`` of (factor, copies)."""
    for ax, (factor, _) in enumerate(placement):
        mask = np.repeat(mask, factor, axis=ax)
    return np.tile(mask, [reps for _, reps in placement])


@functools.lru_cache(maxsize=None)
def _admissible(shapes, cell_size, k, trunc) -> tuple:
    """Oracle: per shape of ``shapes`` (in cells of ``cell_size``), whether
    it has at most k distinct edge lengths and diameter < trunc, in
    Fractions."""
    out = []
    for shape in shapes:
        lengths = [x * c for x, c in zip(shape, cell_size)]
        diameter_sq = sum(x * x for x in lengths)
        out.append(min(shape) >= 1 and len(set(lengths)) <= k and diameter_sq < trunc * trunc)
    return tuple(out)


def certified_sets_on_grid(w, E: np.ndarray, placement) -> dict:
    """Oracle: per basis key of w, its certified cells placed on the whole
    grid of ``placement``, given the mask E there.  The disk route places
    the tile preimage, empty unless E holds the placed tile E; the exact
    route places the tile cells w's placements cover, empty unless every
    placement, scaled to E's cells and moved into every copy of the tile,
    holds enough cells of E itself, clipped to the grid."""
    n = w.grid.n
    index, corners = w.placements[:, 0], w.placements[:, 1:]
    k = next(iter(w.bases.values())).k
    admissible = _admissible(w.shapes, w.grid.cell_size, k, w.trunc)
    ok = all(admissible[i] for i in set(index.tolist()))
    factor, reps = (np.array(v) for v in zip(*placement))
    copies = np.array(list(itertools.product(*(range(r) for r in reps)))) * factor * w.grid.shape
    size = np.array(w.shapes, dtype=np.int64).reshape(-1, n)[index] * factor
    counts = box_counts(E, corners[:, None] * factor + copies, size[:, None])
    ok &= bool((counts * w.h.numerator > size.prod(axis=1)[:, None] * w.h.denominator).all())
    holds = not (place(w.E.mask, placement) & ~E).any()
    exact = placement_cover(w) if ok else np.zeros(w.grid.shape, dtype=bool)
    out = {}
    for key, basis in w.bases.items():
        if witness._route(basis) is None:
            pre = witness.rotation_preimage(w.grid, w.disk, basis.gamma)
            tile = pre.mask & holds
        else:
            tile = exact
        out[key] = place(tile, placement)
    return out
