"""Six-condition witness tiles and their rotation certificates."""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gridhalo import witness
from gridhalo.grid import DyadicGrid, GridSet, InfeasibleError, StepFunction, VerificationError
from gridhalo.growth import log_power_growth
from gridhalo.maxop import BasisSpec, enumerate_shapes
from gridhalo.resonance import build_resonance_function, synthetic_resonance_input
from gridhalo.rotate import quarter_turns
from gridhalo.witness import (
    _MARGIN,
    _box_center,
    _route,
    axis_level_set_exact,
    build_tile_witness,
    central_block,
    disk_core,
    inscribed_radius_sq,
    mphi_witness_for_rotations,
    rotation_preimage,
)
from oracles import (
    certified_sets_on_grid,
    difference,
    kernel_containment,
    p_sets_on_final_grid,
    place,
    placement_cover,
    refine,
    rotated_average,
    stage_sets_on_final_grid,
    tile_certificate_ok,
)

PHI = log_power_growth(2)


def loop_disk_core(grid, rho_sq):
    """Oracle: the farthest-corner test cell by cell, in Fractions."""
    cs = grid.cell_size
    center = [s / 2 for s in grid.side]
    mask = np.zeros(grid.shape, dtype=bool)
    for idx in np.ndindex(*grid.shape):
        d2 = Fraction(0)
        for j, i in enumerate(idx):
            lo = i * cs[j]
            hi = lo + cs[j]
            d2 += max(abs(lo - center[j]), abs(hi - center[j])) ** 2
        mask[idx] = d2 <= rho_sq
    return mask


def loop_inscribed_radius_sq(E):
    """Oracle: the nearest-point distance to the box center cell by cell,
    in Fractions; the least over cells outside E, or None when no cell is
    outside."""
    grid = E.grid
    cs = grid.cell_size
    center = [s / 2 for s in grid.side]
    best = None
    for idx in np.ndindex(*grid.shape):
        if E.mask[idx]:
            continue
        d2 = Fraction(0)
        for j, i in enumerate(idx):
            lo = i * cs[j]
            hi = lo + cs[j]
            if center[j] < lo:
                d2 += (lo - center[j]) ** 2
            elif center[j] > hi:
                d2 += (center[j] - hi) ** 2
        if best is None or d2 < best:
            best = d2
    return best


def _cell_center(grid, idx):
    """The cell's exact center, as floats."""
    return [float((i + Fraction(1, 2)) * c) for i, c in zip(idx, grid.cell_size)]


def loop_rotation_preimage(tile_grid, U, gamma, margin):
    """Oracle: the point location cell by cell, in Python floats."""
    fine = U.grid
    cw, ch = (float(v) for v in fine.cell_size)
    nx, ny = fine.shape
    ccx, ccy = (float(v) for v in _box_center(tile_grid))
    cg, sg = math.cos(-gamma), math.sin(-gamma)
    mask = np.zeros(tile_grid.shape, dtype=bool)
    for idx in np.ndindex(*tile_grid.shape):
        px, py = _cell_center(tile_grid, idx)
        dx, dy = px - ccx, py - ccy
        x = ccx + cg * dx - sg * dy
        y = ccy + sg * dx + cg * dy
        i = math.floor(x / cw)
        j = math.floor(y / ch)
        if not (0 <= i < nx and 0 <= j < ny) or not U.mask[i, j]:
            continue
        inx = min(x - i * cw, (i + 1) * cw - x)
        iny = min(y - j * ch, (j + 1) * ch - y)
        mask[idx] = inx > margin and iny > margin
    return mask


class TestGeometryHelpers:
    def test_central_block_in_any_dimension(self):
        line = central_block(DyadicGrid((3,))).mask
        assert np.flatnonzero(line).tolist() == [3, 4]
        box = central_block(DyadicGrid((1, 2, 3))).mask
        assert box.sum() == 8 and box[0:2, 1:3, 3:5].all()

    def test_central_block_is_two_by_two(self):
        E = central_block(DyadicGrid((2, 3)))
        assert E.popcount == 4
        assert {tuple(i) for i in __import__("numpy").argwhere(E.mask)} == {
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
        }

    def test_inscribed_radius_exact(self):
        g = DyadicGrid((2, 2))
        E = central_block(g)
        # nearest non-E cell point is at distance 1/4 from the center
        assert inscribed_radius_sq(E) == Fraction(1, 16)

    def test_disk_core_is_inside_disk(self):
        g = DyadicGrid((4, 4))
        center = (Fraction(1, 2), Fraction(1, 2))
        rho_sq = Fraction(1, 16)
        K = disk_core(g, rho_sq)
        assert K.popcount > 0
        # every corner of every core cell is within the radius
        for idx in __import__("numpy").argwhere(K.mask):
            for dx in (0, 1):
                for dy in (0, 1):
                    x = Fraction(int(idx[0]) + dx, 16) - center[0]
                    y = Fraction(int(idx[1]) + dy, 16) - center[1]
                    assert x * x + y * y <= rho_sq

    @pytest.mark.parametrize(
        "bits, side, rho_sq",
        [
            # the witness case: square subcells of the unit box
            ((5, 5), None, Fraction(1, 16)),
            # anisotropic cells of a 1/2 x 2 box; rho^2 exactly at corners
            # (1/8, 1/2) from the center
            ((3, 4), (Fraction(1, 2), Fraction(2)), Fraction(17, 64)),
            # three axes, an odd side
            ((2, 3, 1), (Fraction(1), Fraction(1, 2), Fraction(3, 4)), Fraction(1, 4)),
            # coordinates far beyond int64 once scaled: object ints
            ((2, 2), (Fraction(1, 2**30), Fraction(2**40)), Fraction(2**78)),
        ],
    )
    def test_disk_core_matches_the_cell_loop(self, bits, side, rho_sq):
        g = DyadicGrid(bits, side=side)
        want = loop_disk_core(g, rho_sq)
        assert want.any() and not want.all()
        assert np.array_equal(disk_core(g, rho_sq).mask, want)
        # the nearest-point distance shares the scaled walls: the largest
        # disk about the center that misses the box's corner cells
        E = np.ones(g.shape, dtype=bool)
        E[np.ix_(*[[0, -1]] * g.n)] = False
        E = GridSet(g, E)
        assert inscribed_radius_sq(E) == loop_inscribed_radius_sq(E) > 0

    def test_disk_core_empty_raises(self):
        g = DyadicGrid((1, 1))
        with pytest.raises(InfeasibleError):
            disk_core(g, Fraction(1, 100))


class TestAxisWitness:
    def test_level_set_contains_e_and_respects_amplitude(self):
        g = DyadicGrid((2, 2))
        E = central_block(g)
        shapes = enumerate_shapes(BasisSpec("axis", 2), g, r=1)
        P = axis_level_set_exact(E, Fraction(9, 4), Fraction(1), BasisSpec("axis", 2), shapes)
        assert difference(E, P).popcount == 0
        assert all(len(set(s)) <= 2 for s in shapes)

    def test_tile_witness_conditions(self):
        g = DyadicGrid((2, 3))
        w = build_tile_witness(g, [BasisSpec("axis", 2)], Fraction(27, 10), Fraction(1), PHI)
        checks = w.verify(PHI)
        assert all(checks.values()), checks
        assert w.c_of_h == Fraction(4, 32)
        assert w.epsilon >= w.trunc

    def test_bases_must_share_k(self):
        # a witness records one shape family, which its re-checks reuse
        g = DyadicGrid((2, 2))
        bases = [BasisSpec("axis", 1), BasisSpec("axis", 2)]
        with pytest.raises(ValueError, match="share k"):
            build_tile_witness(g, bases, Fraction(9, 4), Fraction(1), PHI)

    def test_tile_witness_is_planar(self):
        with pytest.raises(ValueError, match="planar"):
            build_tile_witness(
                DyadicGrid((2, 2, 2)), [BasisSpec("axis", 2)], Fraction(9, 4), Fraction(1), PHI
            )

    def test_amplitude_must_exceed_one(self):
        g = DyadicGrid((2, 2))
        with pytest.raises(ValueError):
            build_tile_witness(g, [BasisSpec("axis", 2)], Fraction(1, 2), Fraction(1), PHI)


class TestRotationCertificates:
    def test_quarter_turn_sets_are_rotated_axis_sets(self):
        g = DyadicGrid((3, 3))
        bases = [BasisSpec("rotated", 2, 0.0), BasisSpec("rotated", 2, math.pi / 2)]
        w = build_tile_witness(g, bases, Fraction(5, 2), Fraction(1, 2), PHI)
        p0 = w.p_sets[bases[0].describe()]
        p90 = w.p_sets[bases[1].describe()]
        assert np.array_equal(np.rot90(p0.mask), p90.mask)
        assert p0.measure() == p90.measure()

    def test_generic_rotation_certified_subset_of_axis(self):
        # the disk-reduction certificate can only certify cells whose
        # rotated rectangle argument goes through the inscribed disk, so
        # it is weaker than the direct axis level set
        g = DyadicGrid((3, 3))
        gamma = math.pi / 4
        w = build_tile_witness(
            g,
            [BasisSpec("rotated", 2, 0.0), BasisSpec("rotated", 2, gamma)],
            Fraction(5, 2),
            Fraction(1, 2),
            PHI,
        )
        pr = w.p_sets[BasisSpec("rotated", 2, gamma).describe()]
        assert pr.popcount > 0
        checks = w.verify(PHI)
        assert all(checks.values()), checks

    def test_quarter_turns_take_the_axis_route(self):
        # a quarter turn about a rectangle's own center swaps its edges, and
        # the family with <= k distinct edge lengths is closed under that
        for turns in range(-1, 5):
            assert _route(BasisSpec("rotated", 2, turns * math.pi / 2)) == 0
        assert _route(BasisSpec("axis", 2)) == 0
        assert _route(BasisSpec("rotated", 2, math.pi / 4)) is None

    def test_quarter_turn_on_non_square_tile_is_the_axis_set(self):
        bases = [BasisSpec("rotated", 2, 0.0), BasisSpec("rotated", 2, math.pi / 2)]
        wide = DyadicGrid((3, 3), side=(Fraction(1), Fraction(1, 2)))
        for g in (DyadicGrid((2, 3)), wide):
            w = build_tile_witness(g, bases, Fraction(5, 2), Fraction(1, 2), PHI)
            p0, p90 = (w.p_sets[b.describe()] for b in bases)
            assert p0.popcount > 0 and np.array_equal(p0.mask, p90.mask)
            axis = axis_level_set_exact(w.E, w.h, w.trunc, BasisSpec("axis", 2), w.shapes)
            assert np.array_equal(p0.mask, axis.mask)
            assert all(w.verify(PHI).values())

    def test_set_off_the_tile_grid_fails_containment_in_box(self):
        g = DyadicGrid((2, 2))
        w = build_tile_witness(g, [BasisSpec("axis", 2)], Fraction(9, 4), Fraction(1), PHI)
        assert w.verify(PHI)["containment_in_box"]
        # a box of another side, which no copy of the tile fills
        other = DyadicGrid((2, 2), side=(Fraction(3, 2), Fraction(1)))
        moved = dataclasses.replace(w, E=GridSet(other, w.E.mask))
        checks = moved.verify(PHI)
        assert not checks["containment_in_box"]
        assert not checks["levelset_containment"]

    def test_extra_cell_outside_certificate_is_rejected(self):
        g = DyadicGrid((3, 3))
        basis = BasisSpec("rotated", 2, math.pi / 4)
        key = basis.describe()
        w = build_tile_witness(g, [basis], Fraction(5, 2), Fraction(1, 2), PHI)
        assert w.containment() == {key: True}
        P = w.p_sets[key]
        outside = tuple(np.argwhere(~P.mask)[0])
        mask = P.mask.copy()
        mask[outside] = True
        grown = GridSet(g, mask)
        assert w.containment(p_sets={key: grown}) == {key: False}
        bad = dataclasses.replace(w, p_sets={key: grown})
        assert not bad.verify(PHI)["levelset_containment"]

    @pytest.mark.parametrize(
        "grid", [DyadicGrid((3, 3)), DyadicGrid((3, 2), side=(Fraction(1, 4), Fraction(1, 8)))]
    )
    @pytest.mark.parametrize("amp", [Fraction(5, 2), Fraction(37, 10), Fraction(4)])
    def test_rotation_preimage_matches_the_cell_loop(self, grid, amp):
        basis = BasisSpec("rotated", 2, math.pi / 8)
        w = build_tile_witness(grid, [basis], amp, Fraction(1, 2), PHI)
        U = w.disk
        turns = [0.0, 1e-12, -1e-12, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]
        gammas = turns + [math.pi * t / 37 for t in range(-37, 75)]
        for gamma in gammas:
            want = loop_rotation_preimage(grid, U, gamma, _MARGIN)
            assert np.array_equal(rotation_preimage(grid, U, gamma).mask, want), gamma
            # at a quarter turn every tile center lands on a subcell wall,
            # which the margin refuses; every other angle certifies cells
            assert want.any() == (quarter_turns(gamma) is None), gamma

    @pytest.mark.parametrize(
        "grid",
        [
            DyadicGrid((5, 3)),
            DyadicGrid((3, 2), side=(Fraction(1, 4), Fraction(1, 8))),
            DyadicGrid((4, 6), side=(Fraction(5, 7), 3)),
        ],
    )
    def test_cell_centres_are_the_exact_centres_rounded_once(self, grid):
        # the vectorised centres against the Fraction of every centre
        for ax, (c, s) in enumerate(zip(grid.cell_size, grid.shape)):
            want = [float((2 * i + 1) * c / 2) for i in range(s)]
            assert witness._cell_centres(grid, ax).tolist() == want

    def test_rotation_preimage_deterministic(self):
        g = DyadicGrid((3, 3))
        E = central_block(g)
        axis = BasisSpec("axis", 2)
        shapes = enumerate_shapes(axis, g, r=Fraction(1, 2))
        U = axis_level_set_exact(E, Fraction(5, 2), Fraction(1, 2), axis, shapes)
        a = rotation_preimage(g, U, 0.7)
        b = rotation_preimage(g, U, 0.7)
        assert a.grid == b.grid and np.array_equal(a.mask, b.mask)

    def test_anisotropic_tile_certificate_nonempty(self):
        # anisotropic cells: the certificate is built on a square-subcell
        # refinement, which keeps the rotated set nonempty
        g = DyadicGrid((3, 2), side=(Fraction(1, 4), Fraction(1, 8)))
        w = build_tile_witness(
            g,
            [BasisSpec("rotated", 2, math.pi / 8)],
            Fraction(37, 10),
            Fraction(1, 2),
            PHI,
        )
        key = BasisSpec("rotated", 2, math.pi / 8).describe()
        assert w.p_sets[key].popcount > 0
        assert all(w.verify(PHI).values())


class TestRotationFamilyWitness:
    def test_witness_for_rotation_sample(self):
        gammas = [0.0, math.pi / 8, math.pi / 4]
        w = mphi_witness_for_rotations(gammas, 4.0, 1.0, PHI)
        checks = w.verify(PHI)
        assert all(checks.values()), checks
        assert len(w.p_sets) == len(gammas)
        assert w.box_diam_sq() < w.epsilon**2

    def test_epsilon_shrinks_the_box(self):
        w = mphi_witness_for_rotations([0.0], 4.0, 0.25, PHI)
        assert w.box_diam_sq() < Fraction(1, 16)


def _certificate_rectangle(K: GridSet, amp: Fraction, point):
    """Smallest-diameter axis rectangle R0 of K's grid (any widths) holding
    ``point`` in one of its cells with amp*|R0 ∩ K|/|R0| > 1, as
    (lower-left cell, widths), or None."""
    grid = K.grid
    nx, ny = grid.shape
    cw, ch = grid.cell_size
    i = math.floor(point[0] / float(cw))
    j = math.floor(point[1] / float(ch))
    S = np.zeros((nx + 1, ny + 1), dtype=np.int64)
    S[1:, 1:] = K.mask.cumsum(0).cumsum(1)
    widths = sorted(
        ((a, b) for a in range(1, nx + 1) for b in range(1, ny + 1)),
        key=lambda ab: (ab[0] * cw) ** 2 + (ab[1] * ch) ** 2,
    )
    for a, b in widths:
        # |R0 ∩ K| for every placement (i0, j0) whose cells include (i, j)
        i0 = np.arange(max(i - a + 1, 0), min(i, nx - a) + 1)[:, None]
        j0 = np.arange(max(j - b + 1, 0), min(j, ny - b) + 1)[None, :]
        if not (i0.size and j0.size):
            continue
        hits = S[i0 + a, j0 + b] - S[i0, j0 + b] - S[i0 + a, j0] + S[i0, j0]
        best = np.unravel_index(np.argmax(hits), hits.shape)
        if amp * int(hits[best]) > a * b:
            return (int(i0[best[0], 0]), int(j0[0, best[1]])), (a, b)
    return None


@pytest.mark.parametrize(
    "grid, amp",
    [
        (DyadicGrid((3, 3)), Fraction(5, 2)),
        (DyadicGrid((3, 2), side=(Fraction(1, 4), Fraction(1, 8))), Fraction(37, 10)),
    ],
)
def test_rotated_p_cells_pass_a_sampled_clipping_oracle(grid, amp):
    # independent of the certificate's level-set kernel: for sampled cells x
    # of a 22.5-degree P, search K's grid for a rectangle R0 through the
    # rotated-back center of x with amp*|R0 ∩ K|/|R0| > 1, turn it by gamma
    # about the box center and average amp*chi_E over it by polygon clipping
    gamma = math.pi / 8
    basis = BasisSpec("rotated", 2, gamma)
    key = basis.describe()
    w = build_tile_witness(grid, [basis], amp, Fraction(1, 2), PHI)
    # the disk core the witness's U was computed from, rebuilt from E
    fine = grid.refine(witness._square_refine_bits(grid, witness._REFINE_EXTRA))
    K = disk_core(fine, inscribed_radius_sq(w.E))
    f = StepFunction.indicator(w.E, w.h)
    cx, cy = (float(s / 2) for s in grid.side)
    cg, sg = math.cos(gamma), math.sin(gamma)
    cells = np.argwhere(w.p_sets[key].mask)
    assert len(cells) > 0
    for idx in cells[:: -(-len(cells) // 8)]:
        px, py = _cell_center(grid, idx)
        dx, dy = px - cx, py - cy
        back = (cx + cg * dx + sg * dy, cy - sg * dx + cg * dy)
        found = _certificate_rectangle(K, w.h, back)
        assert found is not None, tuple(idx)
        (i0, j0), (a, b) = found
        sides = (a * K.grid.cell_size[0], b * K.grid.cell_size[1])
        assert sides[0] ** 2 + sides[1] ** 2 < w.trunc**2
        ux = float((i0 + Fraction(a, 2)) * K.grid.cell_size[0]) - cx
        uy = float((j0 + Fraction(b, 2)) * K.grid.cell_size[1]) - cy
        center = (cx + cg * ux - sg * uy, cy + sg * ux + cg * uy)
        assert rotated_average(f, center, sides, gamma) > 1 + 1e-9, tuple(idx)


_CERT_BASES = [
    BasisSpec("axis", 2),
    BasisSpec("rotated", 2, math.pi / 2),
    BasisSpec("rotated", 2, math.pi / 8),
]


@pytest.fixture(scope="module", params=[1, 2, 3])
def cert_plan(request):
    """Deep-style plans of depth 1-3 against an axis basis, a quarter turn
    and pi/8 (stage grids 4x8, 32x32 and 256x256)."""
    f, pads = synthetic_resonance_input(PHI, request.param, style="deep")
    return build_resonance_function(f, _CERT_BASES, PHI, request.param, pads=pads)


def _exact_keys(w):
    return sorted(key for key, b in w.bases.items() if _route(b) == 0)


def _sample(rows):
    """A fixed sample of a witness's placement rows: the first placement
    of each shape, and the first and last rows."""
    _, first = np.unique(rows[:, 0], return_index=True)
    return sorted({0, len(rows) - 1, *first.tolist()})


_SHIFTS = ((1, 0), (-1, 0), (0, 1), (0, -1), (7, 7))


class TestCellCertificates:
    def test_verdicts_equal_the_kernel_recomputation(self, cert_plan):
        # on every stage grid and on the final grid, where every stage's E
        # holds its tile's E in every copy
        e_final = stage_sets_on_final_grid(cert_plan)
        p_final = p_sets_on_final_grid(cert_plan)
        for i, s in enumerate(cert_plan.stages):
            final = {key: p_final[key][i] for key in cert_plan.basis_keys}
            for E, p_sets in ((s.E, s.p_sets), (e_final[i], final)):
                want = kernel_containment(s.tile, E, p_sets)
                got = s.tile.containment(E, p_sets)
                assert len(want) == 2 and all(want.values())
                assert {key: got[key] for key in want} == want

    def test_sound_for_an_e_without_the_tile_e(self, cert_plan):
        # E loses cells, so the replication argument no longer applies; a
        # passing verdict must still mean P lies in E's kernel level set
        rng = np.random.default_rng(7)
        failed = 0
        for s in cert_plan.stages:
            for drop in (1, 4, s.E.popcount // 3):
                mask = s.E.mask.copy()
                cells = np.argwhere(mask)
                mask[tuple(cells[rng.choice(len(cells), drop, replace=False)].T)] = False
                E = GridSet(s.E.grid, mask)
                want = kernel_containment(s.tile, E, s.p_sets)
                got = s.tile.containment(E, s.p_sets)
                assert all(want[key] for key in want if got[key])
                failed += sum(not got[key] for key in want)
        assert failed > 0

    def test_sound_for_an_e_holding_more_than_the_tile_e(self, cert_plan):
        # extra cells only raise the counts: every verdict still passes,
        # and so does the kernel's recomputation on that E
        rng = np.random.default_rng(11)
        for s in cert_plan.stages:
            E = GridSet(s.E.grid, s.E.mask | (rng.random(s.E.grid.shape) < 0.1))
            want = kernel_containment(s.tile, E, s.p_sets)
            assert all(want.values())
            assert s.tile.containment(E, s.p_sets) == {key: True for key in s.p_sets}

    def test_dropped_certificate_fails(self, cert_plan):
        # dropping every placement that covers one P cell leaves that cell
        # uncertified; dropping one whose cells other placements also
        # cover still passes
        for s in cert_plan.stages:
            w, rows = s.tile, s.tile.placements
            size = np.array(w.shapes)[rows[:, 0]]
            cell = np.argwhere(w.p_sets[_exact_keys(w)[0]].mask)[0]
            covers = ((rows[:, 1:] <= cell) & (cell < rows[:, 1:] + size)).all(axis=1)
            got = dataclasses.replace(w, placements=rows[~covers]).containment(s.E, s.p_sets)
            assert not any(got[key] for key in _exact_keys(w))
            depth = np.zeros(w.grid.shape, dtype=int)
            boxes = [
                tuple(slice(max(c, 0), max(c + z, 0)) for c, z in zip(corner, shape))
                for corner, shape in zip(rows[:, 1:].tolist(), size.tolist())
            ]
            for box in boxes:
                depth[box] += 1
            redundant = next(i for i, box in enumerate(boxes) if (depth[box] > 1).all())
            mutant = dataclasses.replace(w, placements=np.delete(rows, redundant, axis=0))
            assert mutant.containment(s.E, s.p_sets) == {key: True for key in s.p_sets}

    def test_shifted_certificate_passes_only_when_it_still_proves_its_cell(self, cert_plan):
        # a sample of placements, each moved by one cell along either axis
        # and by (7, 7): the verdict is the direct count on the tile, since
        # E is the replicated tile E and the outermost copy of an
        # overhanging rectangle reads zeros where the tile would, and the
        # moved placements must still cover P
        for s in cert_plan.stages:
            w, rows = s.tile, s.tile.placements
            P = w.p_sets[_exact_keys(w)[0]].mask
            verdicts = set()
            for row, shift in itertools.product(_sample(rows), _SHIFTS):
                moved = rows.copy()
                moved[row, 1:] += shift
                mutant = dataclasses.replace(w, placements=moved)
                want = tile_certificate_ok(w, w.shapes[moved[row, 0]], moved[row, 1:])
                want &= not (P & ~placement_cover(mutant)).any()
                got = mutant.containment(s.E, s.p_sets)
                assert all(got[key] == want for key in _exact_keys(w)), (row, shift)
                verdicts.add(want)
            # the 4x8 stage-1 tile included, some shifts pass and some fail
            assert verdicts == {False, True}

    def test_one_e_cell_lost_in_the_last_copy_fails(self, cert_plan):
        # the last stage's E (256x256 at depth 3, 32 x 32 copies of its
        # tile) minus one cell of its last copy: E no longer holds the
        # placed tile E, so both routes must notice
        s = cert_plan.stages[-1]
        w = s.tile
        placement = witness._placement(w.grid, s.E.grid)
        step = [f * m for (f, _), m in zip(placement, w.grid.shape)]
        last = [(r - 1) * t for (_, r), t in zip(placement, step)]
        block = tuple(slice(a, a + t) for a, t in zip(last, step))
        mask = s.E.mask.copy()
        mask[tuple(np.argwhere(mask[block])[0] + last)] = False
        E = GridSet(s.E.grid, mask)
        got = w.containment(E, s.p_sets)
        assert kernel_containment(w, E, s.p_sets) == {key: False for key in _exact_keys(w)}
        assert got == {key: False for key in s.p_sets}

    @pytest.mark.parametrize("factor", [1, 2])
    def test_shifted_corner_fails_on_the_tile_and_its_refinement(self, factor):
        # a placement moved by one cell that still meets the tile but no
        # longer clears the threshold: refusing it at reps = 1, on the tile
        # and on its refinement by 2, takes the count
        w = build_tile_witness(DyadicGrid((2, 3)), _CERT_BASES[:2], 4, Fraction(1, 2), PHI)
        n, rows = w.grid.n, w.placements
        mutants = []
        for row, shift in itertools.product(range(len(rows)), _SHIFTS[:4]):
            index, corner = rows[row, 0], rows[row, 1:] + shift
            shape = w.shapes[index]
            meets = all(c < t and c + z > 0 for c, z, t in zip(corner, shape, w.grid.shape))
            if meets and not tile_certificate_ok(w, shape, corner):
                moved = rows.copy()
                moved[row, 1:] = corner
                mutants.append(dataclasses.replace(w, placements=moved))
        assert mutants
        extra = (factor.bit_length() - 1,) * n
        E = refine(w.E, extra)
        p_sets = {key: refine(P, extra) for key, P in w.p_sets.items()}
        assert w.containment(E, p_sets) == {key: True for key in w.p_sets}
        for mutant in mutants:
            assert mutant.containment(E, p_sets) == {key: False for key in w.p_sets}

    def test_grown_p_fails(self, cert_plan):
        for s in cert_plan.stages:
            for key in _exact_keys(s.tile):
                P = s.p_sets[key]
                mask = P.mask.copy()
                mask[tuple(np.argwhere(~mask)[0])] = True
                got = s.tile.containment(s.E, {key: GridSet(P.grid, mask)})
                assert got == {key: False}

    def test_inadmissible_shape_fails(self):
        # at trunc 1/4 on 1/8 cells only 1x1 rectangles are admissible; a
        # 2x2 rectangle over E clears the threshold, but its diameter is
        # too long
        g = DyadicGrid((3, 3))
        w = build_tile_witness(g, [BasisSpec("axis", 2)], Fraction(40), Fraction(1, 4), PHI)
        assert w.shapes == ((1, 1),) and w.containment() == {"I^2": True}
        rows = w.placements.copy()
        rows[0] = (1, *np.argwhere(w.E.mask).min(axis=0))
        assert tile_certificate_ok(w, (2, 2), rows[0, 1:])
        mutant = dataclasses.replace(w, shapes=((1, 1), (2, 2)), placements=rows)
        assert mutant.containment() == {"I^2": False}
        # with an admissible truncation the same certificate passes
        wide = dataclasses.replace(mutant, trunc=Fraction(1, 2))
        assert wide.containment() == {"I^2": True}
        # an index off the shape list names no shape (-1 must not wrap round)
        for index in (-1, len(w.shapes)):
            rows = w.placements.copy()
            rows[0, 0] = index
            assert dataclasses.replace(w, placements=rows).containment() == {"I^2": False}

    def test_cover_equals_the_cell_by_cell_oracle(self, replica_tile):
        # random placements of the tile's shapes, overhanging any side of
        # the tile or meeting it in one cell, against every cell tested
        # against every rectangle
        w = replica_tile
        rng = np.random.default_rng(5)
        for count in (1, 2, 7, 40):
            index = rng.integers(0, len(w.shapes), count)
            size = np.array(w.shapes)[index]
            low = rng.integers(1 - size, w.grid.shape)
            mutant = dataclasses.replace(w, placements=np.column_stack([index, low]))
            assert np.array_equal(witness._cover(mutant), placement_cover(mutant))

    def test_a_shape_with_more_than_k_edge_lengths_fails(self):
        # against I^1 only squares are admissible; a 2x1 rectangle over E
        # clears the threshold, but it has two edge lengths
        g = DyadicGrid((3, 3))
        w = build_tile_witness(g, [BasisSpec("axis", 1)], Fraction(4), Fraction(1), PHI)
        assert all(len(set(shape)) == 1 for shape in w.shapes)
        assert w.containment() == {"I^1": True}
        corner = np.argwhere(w.E.mask).min(axis=0)
        assert tile_certificate_ok(w, (2, 1), corner)
        rows = np.vstack([w.placements, [len(w.shapes), *corner]])
        mutant = dataclasses.replace(w, shapes=(*w.shapes, (2, 1)), placements=rows)
        assert mutant.containment() == {"I^1": False}
        assert not certified_sets_on_grid(mutant, w.E.mask, [(1, 1), (1, 1)])["I^1"].any()

    def test_certificate_for_a_cell_off_the_tile_fails(self):
        # a placement overhanging the tile may clear the threshold; the
        # cell it covers outside the tile must not stand in for a tile cell
        # (row -1 wrapping round to row 3)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 1] = True
        E = GridSet(DyadicGrid((2, 2)), mask)
        w = witness._witness(E, [BasisSpec("axis", 2)], Fraction(3), Fraction(1), Fraction(2), PHI)
        P = w.p_sets["I^2"]
        assert not P.mask[3, 1] and w.containment() == {"I^2": True}
        grown = P.mask.copy()
        grown[3, 1] = True
        grown = {"I^2": GridSet(E.grid, grown)}
        assert kernel_containment(w, E, grown) == {"I^2": False}
        index = w.shapes.index((2, 1))
        assert tile_certificate_ok(w, (2, 1), (-1, 1))
        mutant = dataclasses.replace(w, placements=np.vstack([w.placements, [index, -1, 1]]))
        assert mutant.containment() == {"I^2": True}
        assert mutant.containment(p_sets=grown) == {"I^2": False}

    def test_rect_counts_refuse_views_off_the_table(self):
        # a negative corner would wrap round under fancy indexing
        table = witness._summed_area(np.ones((4, 4), dtype=bool), (0, 0), (0, 0))
        assert witness._rect_counts(table, (0, 0), (2, 2)).tolist() == [4]
        counts = witness._rect_counts(table, [(0, 0), (1, 0)], [(2, 2), (1, 2)])
        assert counts.tolist() == [4, 2]
        assert witness._rect_counts(table, (-1, 0), (2, 2)) is None
        assert witness._rect_counts(table, (3, 0), (2, 2)) is None
        assert witness._rect_counts(table, (9, 0), (1, 1)) is None

    def test_exact_route_p_is_the_kernel_level_set(self):
        # the tile cells the proved winning placements cover are the whole
        # level set of the tile E, on the deep depth-4 tiles (4x8, 8x4,
        # 8x8, 8x8) and on zygmund's 32x32 ball witness
        f, pads = synthetic_resonance_input(PHI, 4, style="deep")
        plan = build_resonance_function(f, [BasisSpec("axis", 2)], PHI, 4, pads=pads)
        gammas = [math.radians(d) for d in (0.0, 22.5, 45.0, 67.5)]
        ball = mphi_witness_for_rotations(gammas, 4.0, 1.0, PHI)
        tiles = [s.tile for s in plan.stages] + [ball]
        assert [w.grid.shape for w in tiles] == [(4, 8), (8, 4), (8, 8), (8, 8), (32, 32)]
        for w in tiles:
            level = axis_level_set_exact(w.E, w.h, w.trunc, BasisSpec("axis", 2), w.shapes)
            assert np.array_equal(w.p_sets[_exact_keys(w)[0]].mask, level.mask)


@pytest.fixture(scope="module")
def replica_tile():
    """An 8x8 tile against an axis basis, a quarter turn and pi/8, with
    193 winning placements of 29 shapes."""
    return build_tile_witness(DyadicGrid((3, 3)), _CERT_BASES, 4, Fraction(2), PHI)


@pytest.fixture(scope="module")
def replica_mutants(replica_tile):
    """The replica tile and, per sampled placement and shift, the tile
    with that placement moved, each with its verdict on the tile; built
    once, so each keeps its certified masks across the replicas."""
    w, rows = replica_tile, replica_tile.placements
    mutants = [w]
    for row, shift in itertools.product(_sample(rows), _SHIFTS):
        moved = rows.copy()
        moved[row, 1:] += shift
        mutants.append(dataclasses.replace(w, placements=moved))
    return [(mutant, witness._placements_hold(mutant)) for mutant in mutants]


_REPS = [(1, 1), (2, 2), (3, 3), (5, 5), (1, 5), (3, 2)]


def _replica(w, placement, E):
    """The mask E and w's P sets placed, as sets of the replica grid of
    ``placement``, or None when no dyadic grid has that many cells."""
    cells = [f * r for f, r in placement]
    if any(v & (v - 1) for v in cells):
        return None
    grid = DyadicGrid(
        tuple(m + v.bit_length() - 1 for m, v in zip(w.grid.resolution, cells)),
        tuple(s * r for s, (_, r) in zip(w.grid.side, placement)),
    )
    p_sets = {key: GridSet(grid, place(P.mask, placement)) for key, P in w.p_sets.items()}
    return GridSet(grid, E), p_sets


class TestReplicaCounts:
    """The placements proved on the tile against the full-grid route of
    ``oracles.certified_sets_on_grid``, on placements that no dyadic grid
    takes (3 and 5 copies) as well as on those that one does."""

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("reps", _REPS)
    def test_verdicts_equal_the_full_grid_route(self, replica_tile, replica_mutants, reps, factor):
        # on the placed tile E the tile's verdicts equal the whole-grid
        # counts in every copy, for the witness's own placements and for a
        # sample of them, each moved by one cell or by (7, 7), overhanging
        # its copy
        w = replica_tile
        placement = [(factor, r) for r in reps]
        E = place(w.E.mask, placement)
        replica = _replica(w, placement, E)
        for mutant, tile in replica_mutants:
            want = certified_sets_on_grid(mutant, E, placement)
            got = mutant._certified
            assert got.keys() == want.keys()
            for key, mask in got.items():
                assert (place(mask, placement) == want[key]).all(), (key, reps, factor)
            # the replica's verdict is the tile's
            assert bool(want["I^2"].any()) == tile
            if replica is not None:
                assert mutant.containment(*replica) == mutant.containment()
        assert {tile for _, tile in replica_mutants} == {False, True}
        assert all(m.any() for m in witness._certified_sets(w).values())

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("reps", _REPS)
    def test_a_superset_of_the_placed_tile_e_still_passes(self, replica_tile, reps, factor):
        # more E only raises the counts: E still holds the tile E in every
        # copy, the whole-grid counts keep every certified cell, and so
        # does the check on a replica grid
        w = replica_tile
        placement = [(factor, r) for r in reps]
        E = place(w.E.mask, placement)
        E |= np.random.default_rng(sum(reps) + factor).random(E.shape) < 0.2
        assert not (w.E.mask & ~witness._fold(E, placement, w.grid.shape, np.logical_and)).any()
        got = witness._certified_sets(w)
        want = certified_sets_on_grid(w, E, placement)
        for key, mask in got.items():
            assert (mask == w.p_sets[key].mask).all()
            assert (place(mask, placement) == want[key]).all()
        replica = _replica(w, placement, E)
        if replica is not None:
            assert w.containment(*replica) == {key: True for key in w.bases}

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("reps", [(3, 3), (5, 5), (3, 2), (4, 4)])
    def test_a_tile_e_cell_dropped_in_an_inner_copy_fails_both_routes(self, replica_tile, reps, factor):
        # a superset of the placed tile E, minus one subcell of a tile-E
        # cell in the middle copy along the first axis: the fold of E loses
        # that tile-E cell, so every basis fails, on the exact route as on
        # the disk route
        w = replica_tile
        placement = [(factor, r) for r in reps]
        E = place(w.E.mask, placement)
        E |= np.random.default_rng(1).random(E.shape) < 0.2
        step = [factor * t for t in w.grid.shape]
        inner = np.argwhere(w.E.mask)[-1] * factor + [(r // 2) * t for r, t in zip(reps, step)]
        E[tuple(inner)] = False
        lost = w.E.mask & ~witness._fold(E, placement, w.grid.shape, np.logical_and)
        assert np.argwhere(lost).tolist() == [np.argwhere(w.E.mask)[-1].tolist()]
        want = certified_sets_on_grid(w, E, placement)
        assert not any(want[key].any() for key, b in w.bases.items() if _route(b) is None)
        replica = _replica(w, placement, E)
        if replica is not None:
            assert w.containment(*replica) == {key: False for key in w.bases}

    @pytest.mark.parametrize("reps", [(1, 1), (3, 3)])
    def test_a_certificate_wider_than_the_tile_is_refused(self, reps):
        # on a 4x8 tile of cells 1/4 x 1/8, a 5x2 rectangle from row -1
        # holds the four cells of E: 4 * 4 > 10, admissible at trunc 2,
        # but it could reach two copies past its own
        w = build_tile_witness(DyadicGrid((2, 3)), [BasisSpec("axis", 2)], 4, Fraction(2), PHI)
        assert w.shapes == tuple(sorted(w.shapes)) and max(w.shapes) <= w.grid.shape
        cell = np.argwhere(w.E.mask)[0]
        rows = np.vstack([w.placements, [len(w.shapes), cell[0] - 1, cell[1]]])
        wide = dataclasses.replace(w, shapes=(*w.shapes, (5, 2)), placements=rows)
        assert tile_certificate_ok(wide, (5, 2), (cell[0] - 1, cell[1]))
        placement = [(1, r) for r in reps]
        E = place(w.E.mask, placement)
        assert certified_sets_on_grid(wide, E, placement)["I^2"].any()
        assert not witness._certified_sets(wide)["I^2"].any()
        assert wide.containment() == {"I^2": False}

    def test_replica_containment_stays_within_a_tile_of_memory(self):
        # 256 x 256 copies of an 8x8 tile on a 2048^2 grid: the check folds
        # E and P through views onto the tile, whose certificates were
        # proved when it was built, so its peak stays far below one
        # grid-sized mask (4 MB)
        tile = DyadicGrid((3, 3), side=(Fraction(1, 256),) * 2)
        w = build_tile_witness(tile, _CERT_BASES, 4, Fraction(1, 128), PHI)
        full = DyadicGrid((11, 11))
        E = GridSet(full, np.tile(w.E.mask, (256, 256)))
        p_sets = {key: GridSet(full, np.tile(P.mask, (256, 256))) for key, P in w.p_sets.items()}
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            got = w.containment(E, p_sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == {key: True for key in w.bases}
        assert peak - entry < 1 << 20


class TestFreshCertificates:
    def test_certificates_and_certified_masks_are_read_only(self):
        # the certified masks are computed from the placements once per
        # witness, so neither may change under them
        w = build_tile_witness(DyadicGrid((2, 3)), _CERT_BASES, 4, Fraction(1, 2), PHI)
        with pytest.raises(ValueError):
            w.placements[0, -1] += 1
        for mask in witness._certified_sets(w).values():
            with pytest.raises(ValueError):
                mask[0, 0] = True

    def test_one_rotation_preimage_per_witness_and_generic_basis(self, monkeypatch):
        # the disk route's certified cells are computed when the witness is
        # built and reused by every containment check after that
        calls = []
        preimage = witness.rotation_preimage

        def counted(*args):
            calls.append(args[2])
            return preimage(*args)

        monkeypatch.setattr(witness, "rotation_preimage", counted)
        f, pads = synthetic_resonance_input(PHI, 2, style="deep")
        plan = build_resonance_function(f, _CERT_BASES, PHI, 2, pads=pads)
        assert calls == [math.pi / 8] * len(plan.stages) == [math.pi / 8] * 2
        calls.clear()
        gammas = [math.radians(d) for d in (0.0, 22.5, 45.0, 67.5)]
        ball = mphi_witness_for_rotations(gammas, 4.0, 1.0, PHI)
        assert ball.verify(PHI)["levelset_containment"]
        assert calls == gammas[1:]

    def test_a_failing_fresh_certificate_is_a_bug(self, monkeypatch, tmp_path):
        # one corner moved 8 cells per axis, a whole tile or more away:
        # the rectangle holds no cell of E there, so the tile's own check
        # fails and P comes out empty, which is a verification failure,
        # not infeasibility
        placements = witness._placements

        def shifted(*runs):
            rows = placements(*runs)
            rows[0, 1:] += 8
            return rows

        monkeypatch.setattr(witness, "_placements", shifted)
        with pytest.raises(VerificationError, match="own certificates"):
            build_tile_witness(DyadicGrid((3, 3)), _CERT_BASES, 4, Fraction(2), PHI)
        from gridhalo.cli import main

        assert main(["resonance", "--depth", "1", "--out", str(tmp_path)]) == 4

    def test_a_pass_with_no_winners_is_infeasible(self):
        E = GridSet(DyadicGrid((2, 2)), np.zeros((4, 4), dtype=bool))
        with pytest.raises(InfeasibleError, match="empty P set"):
            witness._witness(E, [BasisSpec("axis", 2)], Fraction(3), Fraction(1), Fraction(2), PHI)

    def test_bases_with_one_key_are_refused(self):
        bases = [BasisSpec("rotated", 2, math.radians(d)) for d in (22.5, 22.50001)]
        with pytest.raises(ValueError, match="share a key"):
            build_tile_witness(DyadicGrid((3, 3)), bases, 4, Fraction(2), PHI)
