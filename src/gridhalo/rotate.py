"""Rotated planar rectangles: exact clipping averages and quarter-turn maps.

For a rotation by a multiple of pi/2 on a square grid everything maps
cell-to-cell, so ``rot90_set`` is an exact index permutation.  Averages over
generic-angle rectangles go through convex polygon / cell clipping; they
are floating point.  Both are references for tests only: the certified
rotated level sets come from gridhalo.witness, where a quarter-turn basis
is the axis basis itself.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .grid import DyadicGrid, GridSet, StepFunction

__all__ = [
    "polygon_area",
    "clip_polygon_box",
    "rotated_rect_polygon",
    "rotated_average",
    "rot90_set",
    "quarter_turns",
]


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

    def x_cut(c, bound):
        def inter(p, q):
            t = (bound - p[0]) / (q[0] - p[0])
            return (bound, p[1] + t * (q[1] - p[1]))

        return inter

    def y_cut(c, bound):
        def inter(p, q):
            t = (bound - p[1]) / (q[1] - p[1])
            return (p[0] + t * (q[0] - p[0]), bound)

        return inter

    edges = [
        (lambda p: p[0] >= x0, x_cut(0, x0)),
        (lambda p: p[0] <= x1, x_cut(0, x1)),
        (lambda p: p[1] >= y0, y_cut(1, y0)),
        (lambda p: p[1] <= y1, y_cut(1, y1)),
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
    ox, oy = (float(v) for v in f.grid.origin)
    cw, ch = (float(v) for v in f.grid.cell_size)
    nx, ny = f.grid.shape
    i0 = max(int(math.floor((min(xs) - ox) / cw)), 0)
    i1 = min(int(math.ceil((max(xs) - ox) / cw)), nx)
    j0 = max(int(math.floor((min(ys) - oy) / ch)), 0)
    j1 = min(int(math.ceil((max(ys) - oy) / ch)), ny)
    total = 0.0
    for i in range(i0, i1):
        for j in range(j0, j1):
            v = f.values[i, j]
            if v == 0:
                continue
            cell = clip_polygon_box(
                poly, ox + i * cw, oy + j * ch, ox + (i + 1) * cw, oy + (j + 1) * ch
            )
            if len(cell) >= 3:
                total += float(v) * abs(polygon_area(cell))
    return total / (float(sides[0]) * float(sides[1]))


def quarter_turns(gamma: float) -> int | None:
    """Number of pi/2 turns if gamma is (numerically) a multiple of pi/2."""
    q = gamma / (math.pi / 2)
    if abs(q - round(q)) < 1e-12:
        return int(round(q)) % 4
    return None


def _require_square(grid: DyadicGrid):
    if grid.n != 2 or grid.resolution[0] != grid.resolution[1]:
        raise ValueError("quarter-turn maps need a square planar grid")


def rot90_set(s: GridSet, times: int = 1) -> GridSet:
    """Exact image of a cell set under rotation by times * pi/2 about the box center."""
    _require_square(s.grid)
    return GridSet(s.grid, np.rot90(s.mask, k=times % 4))
