"""Single-tile resonance witnesses: the six-condition configurations.

A witness is a set E inside a box Q together with, for each basis in the
family, a set P contained in the level set {M^(trunc)(h chi_E) > 1}, plus
the measured constants.  Axis-parallel bases and every quarter turn get P
as the exact rational axis level set: turning a rectangle by a multiple of
90 degrees about its own center swaps its edges, and the family with at
most k distinct edge lengths is closed under that, so a quarter-turn basis
is the axis basis itself on any tile.  Every other rotation gets P through
a disk reduction that stays certified without any rotated-measure
computation:

    E contains a closed disk D about the box center O (radius = the
    inscribed radius of E).  If an axis rectangle R0 satisfies
    h|R0 ∩ K|/|R0| > 1 for a set K of fine subcells lying inside D, then
    for the rotation rho by gamma about O the rectangle R' = rho(R0) has

        h|R' ∩ E|/|R'| >= h|R' ∩ D|/|R0| = h|R0 ∩ D|/|R0| > 1,

    because D ⊆ E, D is rho-invariant, and |R'| = |R0|.  So a cell x
    belongs to the rotated level set whenever rho^{-1}(center(x)) lies in
    the axis level set U of h chi_K.  U is computed in exact rational
    arithmetic on a refined grid; only the final point location uses
    floats, guarded by a boundary margin, so dropped cells are possible
    but wrongly included ones are not (P is a certified lower bound).

The exact route is a certifying algorithm.  Its certificates are the
winning placements of one placement pass of the kernel
(``maxop._winners``): each is an admissible shape and a lower corner
(the placement may overhang the box) whose rectangle holds count cells of
E with count * amp.num > |R| * amp.den.  They are proved once, on the
tile, counted on its E with zeros outside it; the tile cells the proved
placements cover are the basis's certified cells, and the tile's P.  The
bases are translation invariant, so a placement moved into any copy of
the tile on a replica stays a member, and there it holds at least the
cells of that copy's tile E; refined by f per axis, its count and its
area both scale by f^n.  So on a replica or refinement of the tile a P
passes when the E given holds the tile E in every copy and every cell of
P lies in a certified tile cell: a pass proves that P lies in E's level
set, and a wrong certificate can only fail.  E and P are each read once,
folded onto the tile grid through views over their copies (a logical-and
of E, a logical-or of P), so the check builds no array larger than a
tile and never the level set of the whole grid.

The refinement depth of K's grid and the point-location margin are fixed
constants.  ``MPhiWitness.containment`` is the one containment check, on
the tile, on replicas of it and on refinements of those; it alone knows
the routes and the certified cells.  The staged
construction (gridhalo.resonance) builds one witness per stage, directly
on the diluted tile, and calls it once, where the replicated sets are made.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .grid import DyadicGrid, GridSet, InfeasibleError, StepFunction, VerificationError
from .maxop import (
    BasisSpec,
    _embed,
    _exceeds,
    _paint,
    _summed_area,
    _winners,
    dyadic_ladder,
    enumerate_shapes,
    max_level_set,
)
from .halo import discrete_ball
from .rotate import quarter_turns

__all__ = [
    "MPhiWitness",
    "central_block",
    "inscribed_radius_sq",
    "disk_core",
    "axis_level_set_exact",
    "rotation_preimage",
    "build_tile_witness",
    "mphi_witness_for_rotations",
]


# the disk core K lives on a square-subcell refinement of the tile this
# many levels deep, and a rotated tile-cell center must clear the walls of
# its subcell by _MARGIN before the cell is certified
_REFINE_EXTRA = 3
_MARGIN = 1e-9

# the ball witness's E: the cells within _BALL_CELLS cells of the center
# of a grid with 2^_BALL_GRID_BITS cells per axis
_BALL_GRID_BITS = 5
_BALL_CELLS = 2


def central_block(grid: DyadicGrid) -> GridSet:
    """The block of 2 cells per axis around the box center (per-axis shape
    even, >= 2), in any dimension."""
    if any(s < 2 or s % 2 for s in grid.shape):
        raise ValueError("need an even number of cells (>= 2) per axis")
    mask = np.zeros(grid.shape, dtype=bool)
    mask[tuple(slice(s // 2 - 1, s // 2 + 1) for s in grid.shape)] = True
    return GridSet._own(grid, mask)


def _box_center(grid: DyadicGrid) -> tuple[Fraction, ...]:
    return tuple(s / 2 for s in grid.side)


def _cell_distances_sq(grid: DyadicGrid):
    """Squared distances from the box center to the nearest point and to
    the farthest corner of every cell, in units of 1/scale^2, and the scale.

    Scaled by the common denominator of the walls and the center (a power
    of two on a dyadic grid), a cell's walls sit at integer offsets lo < hi
    per axis: the nearest point is max(lo, -hi, 0) away, the farthest
    corner max(-lo, hi).  int64 while the largest sum fits, else Python ints."""
    cs, center = grid.cell_size, _box_center(grid)
    scale = math.lcm(*(v.denominator for v in (*cs, *center)))
    walls = []
    for c, x, s in zip(cs, center, grid.shape):
        lo, step = int(-x * scale), int(c * scale)
        walls.append([lo + i * step for i in range(s + 1)])
    top = sum(max(-w[0], w[-1]) ** 2 for w in walls)
    dtype = np.int64 if top < 1 << 63 else object
    near = far = 0
    for j, w in enumerate(walls):
        axis = [-1 if a == j else 1 for a in range(grid.n)]
        lo, hi = (np.array(v, dtype=dtype).reshape(axis) for v in (w[:-1], w[1:]))
        near = near + np.maximum(np.maximum(lo, -hi), 0) ** 2
        far = far + np.maximum(-lo, hi) ** 2
    return near, far, scale


def inscribed_radius_sq(E: GridSet) -> Fraction:
    """Exact squared radius of the largest disk about the box center inside
    E.

    Computed as the minimum over cells outside E of the squared distance
    from the center to the nearest point of that cell.
    """
    near, _, scale = _cell_distances_sq(E.grid)
    outside = near[~E.mask]
    if outside.size == 0 or outside.min() == 0:
        raise InfeasibleError("no disk about the center fits inside E")
    return Fraction(int(outside.min()), scale * scale)


def _square_refine_bits(grid: DyadicGrid, extra: int) -> tuple[int, ...]:
    """Per-axis refinement exponents making subcells square, then ``extra`` deep."""
    cs = grid.cell_size
    cmin = min(cs)
    bits = []
    for c in cs:
        ratio = c / cmin
        if ratio.denominator != 1 or ratio.numerator & (ratio.numerator - 1):
            raise ValueError("cell aspect ratio must be a power of two")
        bits.append(extra + ratio.numerator.bit_length() - 1)
    return tuple(bits)


def disk_core(grid: DyadicGrid, rho_sq: Fraction) -> GridSet:
    """Cells of ``grid`` that lie entirely inside the disk of squared radius
    rho_sq about the box center c (exact corner test).

    A cell is inside when its farthest corner is: sum over axes of
    max(|lo - c|, |hi - c|)^2 <= rho_sq, on the scaled integers of
    ``_cell_distances_sq``."""
    _, far, scale = _cell_distances_sq(grid)
    limit = min(math.floor(rho_sq * scale * scale), int(far.max()))
    out = GridSet._own(grid, far <= limit)
    if out.popcount == 0:
        raise InfeasibleError("disk core is empty; refine deeper")
    return out


def axis_level_set_exact(E: GridSet, amp, trunc, basis: BasisSpec, shapes) -> GridSet:
    """Exact truncated level set {M(amp chi_E) > 1} of the axis family over
    ``shapes``: all of them, a dyadic ladder, or recorded shapes scaled to a
    finer grid.  A restricted family gives a certified subset of the
    full-family level set, still exact per shape."""
    f = StepFunction.indicator(E, Fraction(amp))
    return max_level_set(f, BasisSpec("axis", basis.k), 1, r=trunc, shapes=list(shapes))


def _cell_centres(grid: DyadicGrid, ax: int) -> np.ndarray:
    """The cell centres of ``grid`` along axis ``ax``, each its exact value
    (i + 1/2) c rounded once to a float, as ``float(Fraction)`` rounds.

    On the denominator D of c/2 the centres are the integers (2i + 1) B,
    exact in float64 while they and D stay below 2^53, so one correctly
    rounded division per centre gives that float."""
    half = grid.cell_size[ax] / 2
    den, b = half.denominator, half.numerator
    odd = np.arange(1, 2 * grid.shape[ax], 2, dtype=np.int64)
    assert max(b * int(odd[-1]), den) < 1 << 53, "centres past exact float64"
    return (b * odd).astype(np.float64) / den


def rotation_preimage(tile_grid: DyadicGrid, U: GridSet, gamma: float) -> GridSet:
    """Tile cells whose center, rotated by -gamma about the box center,
    falls inside a cell of U with at least ``_MARGIN`` to spare.

    Every cell runs the same float operations in the same order (each
    center rounded once from its exact value, ``_cell_centres``, no fused
    multiply-add), so the set is the one a cell-by-cell evaluation
    gives."""
    fine = U.grid
    cw, ch = (float(v) for v in fine.cell_size)
    nx, ny = fine.shape
    ccx, ccy = (float(v) for v in _box_center(tile_grid))
    cg, sg = math.cos(-gamma), math.sin(-gamma)
    px, py = _cell_centres(tile_grid, 0), _cell_centres(tile_grid, 1)
    dx, dy = (px - ccx)[:, None], (py - ccy)[None, :]
    x = ccx + cg * dx - sg * dy
    y = ccy + sg * dx + cg * dy
    i = np.floor(x / cw)
    j = np.floor(y / ch)
    inside = (0 <= i) & (i < nx) & (0 <= j) & (j < ny)
    hit = U.mask[np.where(inside, i, 0).astype(np.intp), np.where(inside, j, 0).astype(np.intp)]
    # stay clear of the subcell walls so float rounding cannot flip cells
    inx = np.minimum(x - i * cw, (i + 1) * cw - x)
    iny = np.minimum(y - j * ch, (j + 1) * ch - y)
    return GridSet._own(tile_grid, inside & hit & (inx > _MARGIN) & (iny > _MARGIN))


def _route(basis: BasisSpec) -> int | None:
    """How ``basis`` gets its level set: 0 is the exact axis level set,
    None the disk-certified preimage.

    A quarter turn about a rectangle's own center swaps its edges, and the
    family with at most k distinct edge lengths is closed under that swap,
    so a quarter-turn basis is the axis basis itself, on any tile."""
    if basis.kind == "axis" or quarter_turns(basis.gamma) is not None:
        return 0
    return None


def _placement(tile: DyadicGrid, grid: DyadicGrid):
    """Per axis (refinement factor, replica count) taking the tile grid onto
    ``grid``, or None unless ``grid`` covers whole copies of the tile box in
    cells that split the tile's evenly.  Both boxes start at 0, so the
    copies are aligned with the tile."""
    ratios = [
        (c / gc, gs / s)
        for s, c, gs, gc in zip(tile.side, tile.cell_size, grid.side, grid.cell_size)
    ]
    if grid.n != tile.n or any(v.denominator != 1 for r in ratios for v in r):
        return None
    return [(factor.numerator, reps.numerator) for factor, reps in ratios]


def _fold(mask: np.ndarray, placement, tile_shape, op) -> np.ndarray:
    """The tile-grid mask that ``op`` (np.logical_and or np.logical_or)
    makes of a mask on the grid of ``placement``, over every copy of the
    tile and every subcell of a tile cell, through a view of the mask.

    The copy axes go first, outermost first, then the subcell axes: each
    reduction over one axis is a pass over whole rows, where one call over
    several axes walks the view element by element (about 60 times slower
    on a (256, 8, 256, 8) view), and the first pass already leaves an
    array one copy count smaller than the grid."""
    view = mask.reshape([v for (f, r), t in zip(placement, tile_shape) for v in (r, t, f)])
    for ax in (*range(0, view.ndim, 3), *range(2, view.ndim, 3)):
        if view.shape[ax] > 1:
            view = op.reduce(view, axis=ax, keepdims=True)
    return view.reshape(tile_shape)


def _rect_counts(table: np.ndarray, start, size) -> np.ndarray | None:
    """Cell counts of the rectangles [start[i], start[i] + size[i]) in
    table indices, by inclusion-exclusion over one gather of every
    rectangle's 2^n corners.  None when a corner would leave the table,
    where fancy indexing would wrap a negative index round silently."""
    start, size = np.atleast_2d(start), np.atleast_2d(size)
    n = start.shape[1]
    if start.min(initial=0) < 0 or ((start + size).max(axis=0, initial=0) >= table.shape).any():
        return None
    far = np.array(list(itertools.product((1, 0), repeat=n)))
    at = start + far[:, None] * size
    sign = np.where((n - far.sum(axis=1)) % 2, -1, 1).astype(table.dtype)
    return np.tensordot(sign, table[tuple(at[..., ax] for ax in range(n))], axes=1)


def _placements(index: np.ndarray, low: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The winning runs of ``_winners`` a placement per row (shape index,
    lower corner): run i is ``count[i]`` placements of shape ``index[i]``,
    from ``low[i]`` on along the last axis."""
    run = np.repeat(np.arange(len(low)), count)
    low = low[run]
    low[:, -1] += np.arange(len(run)) - np.repeat(np.cumsum(count) - count, count)
    return np.column_stack([index[run], low])


def _placements_hold(w) -> bool:
    """Whether every placement of w proves its rectangle on the tile: its
    shape is admissible (at most k distinct edge lengths, diameter < trunc)
    and no wider than the tile, and the rectangle holds c cells of the tile
    E, read as zero outside the tile, with c * amp.num > |R| * amp.den.

    Admissibility is read off the edge lengths in units of the cells'
    common denominator, integers on a dyadic grid, so the check never
    consults the shape family it checks.  The counts come from one
    summed-area table of the tile E, padded for the rectangles' overhang,
    in one gather of every placement's corners.  Moved into any copy of the
    tile on a replica, and scaled to a refinement, a rectangle that passes
    here holds at least as many cells of any E that holds that copy's tile
    E, against an area scaled by the same factor, so the tile's verdict is
    every copy's."""
    n, shape = w.grid.n, w.grid.shape
    index, low = w.placements[:, 0], w.placements[:, 1:]
    if not ((0 <= index) & (index < len(w.shapes))).all():
        return False
    size = np.array(w.shapes, dtype=np.int64).reshape(-1, n)[index]
    # widths from 1 to the tile's; a rectangle that misses the tile holds
    # no cell of E
    if not ((1 <= size) & (size <= shape) & (low < shape) & (low + size > 0)).all():
        return False
    scale = math.lcm(*(c.denominator for c in w.grid.cell_size))
    units = [int(c * scale) for c in w.grid.cell_size]
    top = sum((s * u) ** 2 for s, u in zip(shape, units))
    lengths = np.sort(size.astype(np.int64 if top < 1 << 62 else object) * units, axis=1)
    k = next(iter(w.bases.values())).k
    if ((lengths[:, 1:] != lengths[:, :-1]).sum(axis=1) >= k).any():
        return False
    # an integer diameter^2 is < trunc^2 exactly when it is < ceil(trunc^2)
    if ((lengths * lengths).sum(axis=1) >= min(top + 1, math.ceil(w.trunc**2 * scale**2))).any():
        return False
    lo = np.maximum(-low.min(axis=0, initial=0), 0)
    hi = np.maximum((low + size).max(axis=0, initial=0) - shape, 0)
    counts = _rect_counts(_summed_area(w.E.mask, lo, hi), low + lo, size)
    area = size.prod(axis=1)
    return counts is not None and bool(
        _exceeds(counts.astype(np.int64), w.h.numerator, area, w.h.denominator, w.E.popcount).all()
    )


def _cover(w) -> np.ndarray:
    """The tile cells that w's placements cover: each placement is a run
    of one for ``maxop._paint``, clipped to the tile."""
    shape, index, low = w.grid.shape, w.placements[:, 0], w.placements[:, 1:]
    widths = np.array(w.shapes, dtype=np.int64).reshape(-1, w.grid.n)
    return _embed(shape, *_paint(shape, widths, index, low, np.ones(len(low), dtype=np.int64)))


def _certified_sets(w) -> dict:
    """Per basis key of w, the read-only tile-grid mask of its certified
    cells: on the exact route the tile cells that w's placements cover,
    empty unless every placement holds (one check for an axis basis and its
    quarter turns); on the disk route the tile preimage, at the basis's
    angle, of the shared disk certificate ``w.disk``.
    ``MPhiWitness._certified`` keeps them, computed once."""
    out, exact = {}, None
    for key, basis in w.bases.items():
        if _route(basis) is None:
            out[key] = rotation_preimage(w.grid, w.disk, basis.gamma).mask
        else:
            if exact is None:
                exact = _cover(w) if _placements_hold(w) else np.zeros(w.grid.shape, dtype=bool)
                exact.setflags(write=False)
            out[key] = exact
    return out


@dataclass(frozen=True)
class MPhiWitness:
    """A six-condition configuration (E, {P_B}, Q) on one tile grid.

    Q is the grid's box.  ``h`` is the amplitude whose level sets (at
    threshold 1) contain the P sets; ``trunc`` caps the certificate
    rectangle diameters; ``epsilon`` bounds diam Q (trunc <= epsilon).
    """

    grid: DyadicGrid
    h: Fraction
    epsilon: Fraction
    trunc: Fraction
    E: GridSet
    p_sets: dict
    bases: dict
    shapes: tuple
    placements: np.ndarray  # rows (shape index, lower corner)
    disk: GridSet | None = None  # U, shared by every generic angle
    c: float = 0.0
    c_of_h: Fraction = Fraction(0)
    phi_at_h: float = 0.0

    def box_diam_sq(self) -> Fraction:
        return sum((s * s for s in self.grid.side), Fraction(0))

    _certified = cached_property(_certified_sets)

    def containment(self, E: GridSet | None = None, p_sets: dict | None = None) -> dict:
        """Per key of ``p_sets``, whether that P lies in its basis's
        certified level set of amp*chi_E.

        E and the P sets default to the witness's own.  They may also live
        on a replica of the tile over whole copies of its box, a refinement,
        or both; P must be on E's grid, and any other grid gives False.
        A P passes when E holds the tile's E in every copy and every cell
        of P lies in a certified tile cell: the winning placements, proved
        on the tile, hold in every copy of any such E, so the level set of
        E is never computed.  E and each P are folded onto the tile grid
        through views over their copies, so a replica costs a pass over its
        masks and a tile of memory."""
        E = self.E if E is None else E
        p_sets = self.p_sets if p_sets is None else p_sets
        placement = _placement(self.grid, E.grid)
        holds = placement is not None and not (
            self.E.mask & ~_fold(E.mask, placement, self.grid.shape, np.logical_and)
        ).any()
        sets = self._certified
        return {
            key: holds
            and key in sets
            and P.grid == E.grid
            and not (_fold(P.mask, placement, self.grid.shape, np.logical_or) & ~sets[key]).any()
            for key, P in p_sets.items()
        }

    def verify(self, phi) -> dict:
        """Re-check all six conditions; exact except the rotated point maps."""
        results = {}
        # Q is the grid's box: E and every P lie in it iff they are sets of its grid
        in_box = all(s.grid == self.grid for s in (self.E, *self.p_sets.values()))
        results["levelset_containment"] = in_box and all(self.containment().values())
        results["common_resolution"] = all(
            P.grid == self.grid for P in self.p_sets.values()
        )
        phi_h = phi(float(self.h))
        results["p_mass"] = all(
            float(P.measure()) >= self.c * phi_h * float(self.E.measure()) - 1e-12
            for P in self.p_sets.values()
        )
        results["containment_in_box"] = in_box
        results["box_diameter"] = self.box_diam_sq() < self.epsilon**2
        results["e_density"] = self.E.measure() >= self.c_of_h * self.grid.box_volume
        return results


def _witness(E, bases, amp, trunc, epsilon, phi) -> MPhiWitness:
    """The witness loop: each basis takes its certified level set as P.

    All generic angles share one disk certificate: the inscribed disk of E,
    its core K on a square-subcell refinement, and the axis level set U of
    amp*chi_K over dyadic widths (a certified subset that keeps the family
    small)."""
    grid = E.grid
    if len({b.k for b in bases}) != 1:
        raise ValueError("witness bases must share k: they share one shape family")
    axis = BasisSpec("axis", bases[0].k)
    basis_map = {b.describe(): b for b in bases}
    if len(basis_map) < len(bases):
        raise ValueError("two bases share a key; their P sets would merge")
    generic = [key for key, b in basis_map.items() if _route(b) is None]
    shapes = enumerate_shapes(axis, grid, r=trunc)
    placements = np.zeros((0, grid.n + 1), dtype=np.int64)
    if len(generic) < len(basis_map):
        # one placement pass: its winners are the certificates, P their cover
        _, *runs = _winners(StepFunction.indicator(E, amp), axis, 1, r=trunc, shapes=shapes)
        placements = _placements(*runs)
    placements.setflags(write=False)
    U = None
    if generic:
        rho_sq = inscribed_radius_sq(E)
        fine = grid.refine(_square_refine_bits(grid, _REFINE_EXTRA))
        K = disk_core(fine, rho_sq)
        ladder = dyadic_ladder(max(fine.shape))
        fine_shapes = enumerate_shapes(axis, fine, r=trunc, ladder=ladder)
        U = axis_level_set_exact(K, amp, trunc, axis, fine_shapes)
    w = MPhiWitness(
        grid=grid,
        h=amp,
        epsilon=epsilon,
        trunc=trunc,
        E=E,
        p_sets={},
        bases=basis_map,
        shapes=tuple(tuple(s) for s in shapes),
        placements=placements,
        disk=U,
        c_of_h=Fraction(E.popcount, grid.total_cells),
    )
    p_sets = {key: GridSet._own(grid, mask) for key, mask in w._certified.items()}
    for key, P in p_sets.items():
        if P.popcount == 0 and key not in generic and len(placements):
            raise VerificationError(f"the tile's own certificates fail for basis {key}")
        if P.popcount == 0:
            raise InfeasibleError(f"empty P set for basis {key}")
    phi_h = phi(float(amp))
    c = min(float(P.measure()) / (phi_h * float(E.measure())) for P in p_sets.values())
    out = replace(w, p_sets=p_sets, c=c, phi_at_h=phi_h)
    # the certified masks read none of the fields replace changes
    vars(out)["_certified"] = w._certified
    return out


def build_tile_witness(
    tile_grid: DyadicGrid,
    bases,
    amp,
    trunc,
    phi,
) -> MPhiWitness:
    """Witness with E = central 2x2 block and per-basis certified P sets."""
    if tile_grid.n != 2:
        raise ValueError("tile witnesses are planar")
    amp = Fraction(amp)
    trunc = Fraction(trunc)
    if amp <= 1:
        raise ValueError("amplitude must exceed 1")
    # epsilon >= trunc and > diam Q: the l1 norm of the box sides dominates it
    epsilon = max(trunc, sum(tile_grid.side, Fraction(0)))
    return _witness(central_block(tile_grid), list(bases), amp, trunc, epsilon, phi)


def mphi_witness_for_rotations(
    gammas,
    h,
    epsilon,
    phi,
    k: int = 2,
) -> MPhiWitness:
    """Ball-centered witness for a finite family of rotations.

    E is the set of cells whose centers lie in the Euclidean ball of
    ``_BALL_CELLS`` cells about the box center, on a square grid of
    ``_BALL_GRID_BITS`` bits per axis scaled so the box diameter stays
    below epsilon; certificate rectangles are capped at the same epsilon.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # shrink the box until its diameter (= side * sqrt(2)) is below epsilon
    side = Fraction(1)
    while 2 * side * side >= epsilon * epsilon:
        side /= 2
    grid = DyadicGrid((_BALL_GRID_BITS,) * 2, side=(side, side))
    E = discrete_ball(grid, _BALL_CELLS)
    bases = [BasisSpec("rotated", k, float(g)) for g in gammas]
    return _witness(E, bases, Fraction(h), epsilon, epsilon, phi)
