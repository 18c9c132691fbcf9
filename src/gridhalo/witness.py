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

The refinement depth of K's grid and the point-location margin are fixed
constants.  The staged construction (gridhalo.resonance) builds one
witness per stage, directly on the diluted tile, and re-checks each P
against it once, where the replicated sets are made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grid import DyadicGrid, GridSet, StepFunction
from .growth import GrowthFunction
from .maxop import BasisSpec, dyadic_ladder, enumerate_shapes, max_level_set
from .rotate import quarter_turns

__all__ = [
    "MPhiWitness",
    "RotationCertificate",
    "WitnessError",
    "central_block",
    "inscribed_radius_sq",
    "disk_core",
    "axis_level_set_exact",
    "rotation_preimage",
    "build_tile_witness",
    "mphi_witness_for_rotations",
]


class WitnessError(RuntimeError):
    """A witness construction could not satisfy its quantitative targets."""


# the disk core K lives on a square-subcell refinement of the tile this
# many levels deep, and a rotated tile-cell center must clear the walls of
# its subcell by _MARGIN before the cell is certified
_REFINE_EXTRA = 3
_MARGIN = 1e-9


def central_block(grid: DyadicGrid) -> GridSet:
    """The 2x2 block of cells around the box center (per-axis shape even, >= 2)."""
    if grid.n != 2:
        raise ValueError("tile witnesses are planar")
    if any(s < 2 or s % 2 for s in grid.shape):
        raise ValueError("need an even number of cells (>= 2) per axis")
    mask = np.zeros(grid.shape, dtype=bool)
    cx, cy = (s // 2 for s in grid.shape)
    mask[cx - 1 : cx + 1, cy - 1 : cy + 1] = True
    return GridSet(grid, mask)


def _box_center(grid: DyadicGrid) -> tuple[Fraction, ...]:
    return tuple(o + s / 2 for o, s in zip(grid.origin, grid.side))


def inscribed_radius_sq(E: GridSet, center) -> Fraction:
    """Exact squared radius of the largest disk about ``center`` inside E.

    Computed as the minimum over cells outside E of the squared distance
    from the center to the nearest point of that cell.
    """
    grid = E.grid
    cs = grid.cell_size
    best = None
    for idx in np.ndindex(*grid.shape):
        if E.mask[idx]:
            continue
        d2 = Fraction(0)
        for j, i in enumerate(idx):
            lo = grid.origin[j] + i * cs[j]
            hi = lo + cs[j]
            if center[j] < lo:
                d2 += (lo - center[j]) ** 2
            elif center[j] > hi:
                d2 += (center[j] - hi) ** 2
        if best is None or d2 < best:
            best = d2
    if best is None or best == 0:
        raise WitnessError("no disk about the center fits inside E")
    return best


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


def disk_core(grid: DyadicGrid, center, rho_sq: Fraction) -> GridSet:
    """Cells of ``grid`` that lie entirely inside the disk of squared radius
    rho_sq about ``center`` (exact corner test).

    A cell is inside when its farthest corner is: sum over axes of
    max(|lo - c|, |hi - c|)^2 <= rho_sq.  Coordinates are scaled by the
    common denominator of the cell walls and the center (a power of two
    on a dyadic grid) so the test runs on integers: int64 while the
    largest sum fits, Python ints past that."""
    cs = grid.cell_size
    center = [Fraction(c) for c in center]
    scale = math.lcm(*(v.denominator for v in (*grid.origin, *cs, *center)))
    # per axis, the farthest-wall distance of each cell, in units of 1/scale
    far = []
    for o, c, x, s in zip(grid.origin, cs, center, grid.shape):
        walls = [int((o + i * c - x) * scale) for i in range(s + 1)]
        far.append([max(abs(lo), abs(hi)) for lo, hi in zip(walls, walls[1:])])
    top = sum(max(d) ** 2 for d in far)
    limit = min(math.floor(rho_sq * scale * scale), top)
    dtype = np.int64 if top < 1 << 63 else object
    d2 = np.zeros(grid.shape, dtype=dtype)
    for j, d in enumerate(far):
        d = np.array(d, dtype=dtype)
        d2 = d2 + (d * d).reshape([-1 if a == j else 1 for a in range(grid.n)])
    out = GridSet(grid, d2 <= limit)
    if out.popcount == 0:
        raise WitnessError("disk core is empty; refine deeper")
    return out


def axis_level_set_exact(E: GridSet, amp, trunc, basis: BasisSpec, shapes=None):
    """Exact truncated level set {M(amp chi_E) > 1} and the shape list used.

    Explicit ``shapes`` restrict the family (a dyadic ladder, or recorded
    shapes scaled to a finer grid); the level set is then a certified
    subset of the full-family one, still exact per shape."""
    axis = BasisSpec("axis", basis.k)
    if shapes is None:
        shapes = enumerate_shapes(axis, E.grid, r=trunc)
    f = StepFunction.indicator(E, Fraction(amp))
    return max_level_set(f, axis, 1, r=trunc, shapes=list(shapes)), shapes


@dataclass(frozen=True)
class RotationCertificate:
    """Everything needed to re-check a rotated P set: the exact axis level
    set U of amp*chi_K on the refined grid, and the point-location margin."""

    U: GridSet
    K: GridSet
    gamma: float
    rho_sq: Fraction
    margin: float


def rotation_preimage(
    tile_grid: DyadicGrid,
    U: GridSet,
    gamma: float,
    margin: float,
) -> GridSet:
    """Tile cells whose center, rotated by -gamma about the box center,
    falls inside a cell of U with at least ``margin`` to spare."""
    fine = U.grid
    ox, oy = (float(v) for v in fine.origin)
    cw, ch = (float(v) for v in fine.cell_size)
    nx, ny = fine.shape
    ccx, ccy = (float(v) for v in _box_center(tile_grid))
    cg, sg = math.cos(-gamma), math.sin(-gamma)
    mask = np.zeros(tile_grid.shape, dtype=bool)
    for idx in np.ndindex(*tile_grid.shape):
        px, py = (float(v) for v in tile_grid.cell_center(idx))
        dx, dy = px - ccx, py - ccy
        x = ccx + cg * dx - sg * dy
        y = ccy + sg * dx + cg * dy
        i = math.floor((x - ox) / cw)
        j = math.floor((y - oy) / ch)
        if not (0 <= i < nx and 0 <= j < ny):
            continue
        if not U.mask[i, j]:
            continue
        # stay clear of the subcell walls so float rounding cannot flip cells
        inx = min(x - (ox + i * cw), ox + (i + 1) * cw - x)
        iny = min(y - (oy + j * ch), oy + (j + 1) * ch - y)
        if inx > margin and iny > margin:
            mask[idx] = True
    return GridSet(tile_grid, mask)


def _route(basis: BasisSpec) -> int | None:
    """How ``basis`` gets its level set: 0 is the exact axis level set,
    None the disk-certified preimage.

    A quarter turn about a rectangle's own center swaps its edges, and the
    family with at most k distinct edge lengths is closed under that swap,
    so a quarter-turn basis is the axis basis itself, on any tile."""
    if basis.kind == "axis" or quarter_turns(basis.gamma) is not None:
        return 0
    return None


def _level_set(basis, tile_grid, E, amp, trunc, shapes, memo, certificate) -> GridSet:
    """The certified level set a P for ``basis`` on ``tile_grid`` lies in.

    The exact route takes the axis level set of amp*chi_E, kept in ``memo``
    per k, so an axis basis and its quarter turns cost one field; E is the
    tile's E or a replica or refinement of it, with ``shapes`` to match.
    The disk route locates the tile cells against the certificate."""
    if _route(basis) is None:
        return rotation_preimage(tile_grid, certificate.U, certificate.gamma, certificate.margin)
    if basis.k not in memo:
        memo[basis.k], _ = axis_level_set_exact(E, amp, trunc, basis, shapes)
    return memo[basis.k]


def _within(w, key, memo, E=None, P=None, shapes=None) -> bool:
    """Re-check that P lies in the certified level set of w's basis ``key``.

    E and P default to w's own sets; a replica or refinement of them needs
    ``shapes`` scaled to match.  A set certified on w's tile grid (the disk
    route, or w's own E) is compared with w's own P."""
    E = w.E if E is None else E
    cert = w.certificates.get(key)
    ls = _level_set(w.bases[key], w.grid, E, w.h, w.trunc, shapes, memo, cert)
    if ls.grid == w.grid:
        P = w.p_sets[key]
    return (P - ls).popcount == 0


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
    certificates: dict = field(default_factory=dict)
    c: float = 0.0
    c_of_h: Fraction = Fraction(0)
    phi_at_h: float = 0.0

    def box_diam_sq(self) -> Fraction:
        return sum((s * s for s in self.grid.side), Fraction(0))

    def verify(self, phi: GrowthFunction) -> dict:
        """Re-check all six conditions; exact except the rotated point maps."""
        results = {}
        memo = {}
        # Q is the grid's box: E and every P lie in it iff they are sets of its grid
        in_box = all(s.grid == self.grid for s in (self.E, *self.p_sets.values()))
        results["levelset_containment"] = in_box and all(
            _within(self, key, memo) for key in self.p_sets
        )
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


def _epsilon_for(grid: DyadicGrid, trunc: Fraction) -> Fraction:
    """Smallest convenient epsilon with diam Q < epsilon and trunc <= epsilon.

    The l1 norm of the box sides dominates its diameter, so it is a valid
    rational upper bound."""
    l1 = sum(grid.side, Fraction(0))
    return max(Fraction(trunc), l1)


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
    shapes = enumerate_shapes(axis, grid, r=trunc)
    p_sets, basis_map, certificates, memo = {}, {}, {}, {}
    disk = None
    for basis in bases:
        key = basis.describe()
        basis_map[key] = basis
        if _route(basis) is None:
            if disk is None:
                center = _box_center(grid)
                rho_sq = inscribed_radius_sq(E, center)
                fine = grid.refine(_square_refine_bits(grid, _REFINE_EXTRA))
                K = disk_core(fine, center, rho_sq)
                ladder = dyadic_ladder(max(fine.shape))
                fine_shapes = enumerate_shapes(axis, fine, r=trunc, ladder=ladder)
                U, _ = axis_level_set_exact(K, amp, trunc, axis, fine_shapes)
                disk = (U, K, rho_sq)
            U, K, rho_sq = disk
            certificates[key] = RotationCertificate(U, K, basis.gamma, rho_sq, _MARGIN)
        P = _level_set(basis, grid, E, amp, trunc, shapes, memo, certificates.get(key))
        if P.popcount == 0:
            raise WitnessError(f"empty P set for basis {key}")
        p_sets[key] = P
    phi_h = phi(float(amp))
    c = min(float(P.measure()) / (phi_h * float(E.measure())) for P in p_sets.values())
    return MPhiWitness(
        grid=grid,
        h=amp,
        epsilon=epsilon,
        trunc=trunc,
        E=E,
        p_sets=p_sets,
        bases=basis_map,
        shapes=tuple(tuple(s) for s in shapes),
        certificates=certificates,
        c=c,
        c_of_h=Fraction(E.popcount, grid.total_cells),
        phi_at_h=phi_h,
    )


def build_tile_witness(
    tile_grid: DyadicGrid,
    bases,
    amp,
    trunc,
    phi: GrowthFunction,
) -> MPhiWitness:
    """Witness with E = central 2x2 block and per-basis certified P sets."""
    amp = Fraction(amp)
    trunc = Fraction(trunc)
    if amp <= 1:
        raise ValueError("amplitude must exceed 1")
    return _witness(
        central_block(tile_grid),
        list(bases),
        amp,
        trunc,
        _epsilon_for(tile_grid, trunc),
        phi,
    )


def mphi_witness_for_rotations(
    gammas,
    h,
    epsilon,
    phi: GrowthFunction,
    grid_bits: int = 5,
    r_cells: int = 2,
    k: int = 2,
) -> MPhiWitness:
    """Ball-centered witness for a finite family of rotations.

    E is the set of cells whose centers lie in the Euclidean ball of
    ``r_cells`` cells about the box center, on a square grid scaled so the
    box diameter stays below epsilon; certificate rectangles are capped at
    the same epsilon.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # shrink the box until its diameter (= side * sqrt(2)) is below epsilon
    side = Fraction(1)
    while 2 * side * side >= epsilon * epsilon:
        side /= 2
    grid = DyadicGrid((grid_bits, grid_bits), side=(side, side))
    shape = grid.shape
    center_cells = tuple(s / 2.0 for s in shape)
    ii, jj = np.indices(shape).astype(float) + 0.5
    d2 = (ii - center_cells[0]) ** 2 + (jj - center_cells[1]) ** 2
    E = GridSet(grid, d2 < float(r_cells) ** 2)
    if E.popcount < 4:
        raise WitnessError("ball too small at this resolution")
    bases = [BasisSpec("rotated", k, float(g)) for g in gammas]
    return _witness(E, bases, Fraction(h), epsilon, epsilon, phi)
