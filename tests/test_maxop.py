"""Maximal-operator fields: dual-route equality and a from-scratch oracle."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridhalo import halo, maxop
from gridhalo.grid import DyadicGrid, GridSet, InfeasibleError, StepFunction
from gridhalo.maxop import (
    BasisSpec,
    _exceeds,
    dyadic_ladder,
    enumerate_shapes,
    level_set,
    max_field_brute,
    max_field_fast,
    max_level_set,
)
from gridhalo.witness import axis_level_set_exact, central_block
from oracles import difference, field_values, step_function


def reference_field(f: StepFunction, basis: BasisSpec, r=None):
    """Independent oracle: loop every shape/placement/cell directly.

    Averages use the full rectangle volume; values outside the grid count
    as zero.  Quadratic and readable, for small grids only.
    """
    grid = f.grid
    shape = grid.shape
    best = np.full(shape, Fraction(0), dtype=object)
    for widths in enumerate_shapes(basis, grid, r):
        volume = 1
        for w in widths:
            volume *= w
        for corner in product(*[range(1 - w, s) for w, s in zip(widths, shape)]):
            total = Fraction(0)
            for offs in product(*[range(w) for w in widths]):
                idx = tuple(c + o for c, o in zip(corner, offs))
                if all(0 <= i < s for i, s in zip(idx, shape)):
                    total += f.values[idx]
            avg = total / volume
            for offs in product(*[range(w) for w in widths]):
                idx = tuple(c + o for c, o in zip(corner, offs))
                if all(0 <= i < s for i, s in zip(idx, shape)):
                    if avg > best[idx]:
                        best[idx] = avg
    return best


def random_step(grid, rng, max_num=8, max_den=4):
    vals = np.array(
        [
            Fraction(int(rng.integers(0, max_num + 1)), int(rng.integers(1, max_den + 1)))
            for _ in range(grid.total_cells)
        ],
        dtype=object,
    ).reshape(grid.shape)
    return step_function(grid, vals)


def loop_shapes(basis: BasisSpec, grid: DyadicGrid, r=None, ladder=None):
    """Oracle: every width tuple in product order, tested with Fractions."""
    r2 = None if r is None else Fraction(r) ** 2
    if ladder is None:
        per_axis = [range(1, s + 1) for s in grid.shape]
    else:
        per_axis = [[w for w in ladder if 1 <= w <= s] for s in grid.shape]
    shapes = []
    for widths in product(*per_axis):
        lengths = tuple(w * c for w, c in zip(widths, grid.cell_size))
        if len(set(lengths)) > basis.k:
            continue
        if r2 is not None and sum((e * e for e in lengths), Fraction(0)) >= r2:
            continue
        shapes.append(widths)
    return shapes


@st.composite
def dominance_cases(draw):
    """A small grid of 2 or 3 axes, a few cells with values over a constant
    floor (0 included), and a shape order, None for enumeration order."""
    bits = draw(st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 3), (1, 1, 1), (1, 2, 1)]))
    grid = DyadicGrid(bits)
    cell = st.tuples(*(st.integers(0, s - 1) for s in grid.shape))
    cells = draw(st.dictionaries(cell, st.integers(1, 9), max_size=4))
    floor = draw(st.sampled_from([0, 0, 1, 3]))
    order = draw(st.one_of(st.none(), st.randoms(use_true_random=False)))
    return grid, cells, floor, order


def dominance_function(grid, cells, floor, order):
    """The step function and shape list of a ``dominance_cases`` draw."""
    vals = np.full(grid.shape, Fraction(floor), dtype=object)
    for idx, v in cells.items():
        vals[idx] = Fraction(v)
    shapes = enumerate_shapes(BasisSpec("axis", 2), grid)
    if order is not None:
        order.shuffle(shapes)
    return step_function(grid, vals), shapes


class TestShapeEnumeration:
    @pytest.mark.parametrize(
        "bits, side",
        [
            ((4, 4), None),
            ((3, 5), None),
            ((5, 3), (Fraction(1, 2), Fraction(3))),
            ((2, 3, 2), None),
            ((1, 2, 3), (Fraction(1, 4), Fraction(1), Fraction(5, 2))),
        ],
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_list_as_the_fraction_loop(self, bits, side, k):
        grid = DyadicGrid(bits, side=side)
        basis = BasisSpec("axis", k)
        for r in (None, Fraction(3, 4), Fraction(7, 16), 0.6180339887, Fraction(1, 2)):
            for ladder in (None, dyadic_ladder(32), [3, 1, 5]):
                want = loop_shapes(basis, grid, r, ladder)
                if not want:
                    with pytest.raises(InfeasibleError):
                        enumerate_shapes(basis, grid, r, ladder)
                    continue
                assert enumerate_shapes(basis, grid, r, ladder) == want

    def test_diameter_exactly_at_the_radius_is_excluded(self):
        # 3x4 cells of side 1/16: diameter 5/16 exactly, excluded at r = 5/16
        g = DyadicGrid((4, 4))
        basis = BasisSpec("axis", 2)
        assert (3, 4) not in enumerate_shapes(basis, g, r=Fraction(5, 16))
        assert (3, 4) in enumerate_shapes(basis, g, r=Fraction(5, 16) + Fraction(1, 2**40))

    def test_distinct_edge_count_filter(self):
        g = DyadicGrid((2, 2))
        cubes = enumerate_shapes(BasisSpec("axis", 1), g)
        assert all(len(set(s)) == 1 for s in cubes)
        free = enumerate_shapes(BasisSpec("axis", 2), g)
        assert set(cubes) < set(free)
        assert len(free) == 16

    def test_anisotropic_cells_change_edge_lengths(self):
        # 1x2-cell rectangles have equal physical edges on this grid
        g = DyadicGrid((2, 3))
        cubes = enumerate_shapes(BasisSpec("axis", 1), g)
        assert (1, 2) in cubes and (2, 4) in cubes and (2, 2) not in cubes

    def test_truncation_is_strict_on_diameter(self):
        g = DyadicGrid((2, 2))
        # a single cell has diameter sqrt(2)/4; r equal to that is excluded
        shapes = enumerate_shapes(BasisSpec("axis", 2), g, r=Fraction(1, 2))
        assert (1, 1) in shapes and (2, 1) not in shapes
        with pytest.raises(InfeasibleError):
            enumerate_shapes(BasisSpec("axis", 2), g, r=Fraction(1, 4))

    def test_ladder_restricts_widths(self):
        g = DyadicGrid((3, 3))
        shapes = enumerate_shapes(BasisSpec("axis", 2), g, ladder=dyadic_ladder(8))
        assert all(w in (1, 2, 4, 8) for s in shapes for w in s)


class TestFieldRoutes:
    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fast_equals_brute_equals_oracle_4x4(self, seed):
        g = DyadicGrid((2, 2))
        f = random_step(g, np.random.default_rng(seed))
        basis = BasisSpec("axis", 2)
        fast = max_field_fast(f, basis)
        brute = max_field_brute(f, basis)
        assert np.array_equal(field_values(fast), field_values(brute))
        assert np.array_equal(field_values(fast), reference_field(f, basis))

    def test_oracle_8x8_with_truncation(self):
        g = DyadicGrid((3, 3))
        f = random_step(g, np.random.default_rng(7))
        basis = BasisSpec("axis", 2)
        r = Fraction(1, 2)
        fast = max_field_fast(f, basis, r=r)
        assert np.array_equal(field_values(fast), reference_field(f, basis, r=r))

    def test_three_dimensional_routes_agree(self):
        g = DyadicGrid((1, 1, 1))
        f = random_step(g, np.random.default_rng(3))
        basis = BasisSpec("axis", 2)
        assert np.array_equal(
            field_values(max_field_fast(f, basis)), field_values(max_field_brute(f, basis))
        )

    def test_overhang_keeps_full_denominator(self):
        # one bright corner cell: the 2x2 average at the corner may cover
        # cells outside the box, which contribute zero but still divide
        g = DyadicGrid((1, 1))
        f = StepFunction.indicator(GridSet(g, [[True, False], [False, False]]), 8)
        vals = field_values(max_field_fast(f, BasisSpec("axis", 1)))
        assert vals[0, 0] == Fraction(8, 1)  # the 1x1 rectangle wins
        assert vals[1, 1] == Fraction(8, 4)  # only via the 2x2

    def test_ladder_field_is_lower_bound(self):
        g = DyadicGrid((3, 3))
        f = random_step(g, np.random.default_rng(5))
        basis = BasisSpec("axis", 2)
        full = max_field_fast(f, basis)
        laddered = max_field_fast(f, basis, ladder=dyadic_ladder(8))
        assert all(
            a <= b for a, b in zip(field_values(laddered).ravel(), field_values(full).ravel())
        )

    def test_explicit_shapes_override(self):
        g = DyadicGrid((2, 2))
        f = random_step(g, np.random.default_rng(1))
        basis = BasisSpec("axis", 2)
        only = max_field_fast(f, basis, shapes=[(2, 2)])
        assert np.array_equal(
            field_values(only), field_values(max_field_brute(f, basis, shapes=[(2, 2)]))
        )
        # only a caller's bug passes an empty family: a bad argument
        with pytest.raises(ValueError, match="empty explicit shape list"):
            max_field_fast(f, basis, shapes=[])

    @given(dominance_cases())
    @example((DyadicGrid((2, 2)), {}, 3, None))  # a tie on every cell after (1, 1)
    @example((DyadicGrid((3, 3)), {(3, 3): 4, (3, 4): 4, (4, 3): 4, (4, 4): 4}, 0, None))
    @settings(max_examples=100, deadline=None)
    def test_dominance_prune_equals_the_brute_field(self, case):
        # a shape is skipped unspread where its largest placement sum beats
        # the kept average on no cell of its box; the brute route spreads
        # every shape, so the fields agree only if no skipped shape could
        # have won a cell
        f, shapes = dominance_function(*case)
        basis = BasisSpec("axis", 2)
        fast = max_field_fast(f, basis, shapes=shapes)
        brute = max_field_brute(f, basis, shapes=shapes)
        assert fast.table == brute.table and np.array_equal(fast.codes, brute.codes)

    @pytest.mark.parametrize("bits", [(2, 2), (3, 3), (1, 1, 1)])
    def test_a_constant_function_ties_every_shape_after_the_first(self, bits):
        # after (1, 1) every cell keeps 3, and every other shape's largest
        # placement, inside the grid, averages exactly 3: at the tie the
        # strict compare wins no cell, so only (1, 1) is spread
        g = DyadicGrid(bits)
        f = StepFunction.indicator(GridSet(g, np.ones(g.shape, dtype=bool)), 3)
        basis = BasisSpec("axis", 2)
        with mock.patch.object(maxop, "_spread", wraps=maxop._spread) as spread:
            fast = max_field_fast(f, basis)
        assert spread.call_count == 1
        assert fast.table == (3,) and fast.table == max_field_brute(f, basis).table

    def test_the_central_block_skips_shapes(self):
        # the maxfield input: on 16x16 cells part of the family is
        # dominated, and the field is brute's
        g = DyadicGrid((4, 4))
        f = StepFunction.indicator(central_block(g), 4)
        basis = BasisSpec("axis", 2)
        shapes = enumerate_shapes(basis, g)
        with mock.patch.object(maxop, "_spread", wraps=maxop._spread) as spread:
            fast = max_field_fast(f, basis, shapes=shapes)
        brute = max_field_brute(f, basis, shapes=shapes)
        assert fast.table == brute.table and np.array_equal(fast.codes, brute.codes)
        assert 0 < spread.call_count < len(shapes)


class TestLevelSet:
    def test_strictly_greater(self):
        g = DyadicGrid((1, 1))
        f = step_function(g, np.array([[1, 2], [3, 4]], dtype=object))
        fld = max_field_fast(f, BasisSpec("axis", 2), shapes=[(1, 1)])
        assert level_set(fld, 1).popcount == 3  # the value-1 cell is out
        assert level_set(fld, Fraction(7, 2)).popcount == 1

    def test_int64_and_object_paths_agree(self):
        g = DyadicGrid((2, 2))
        basis = BasisSpec("axis", 2)
        f = random_step(g, np.random.default_rng(9))
        E = GridSet(g, np.random.default_rng(9).random(g.shape) < 0.3)
        c = E.popcount
        # on 16 cells the kernels sum int64 while 16 * 1.01 * sum(f) < 2^61
        # (_prepare_values); heights h with h * c = 2^56 and > 2^57 straddle it;
        # a height of 2^63 does not fit the step function's own int64 payload
        cases = [(f, np.int64)]
        for h, dtype in ((2**56 // c, np.int64), (2**57 // c + 1, object), (2**63, object)):
            cases.append((StepFunction.indicator(E, h), dtype))
        for f, dtype in cases:
            assert f.num.dtype == (object if f.num.max() >= 2**63 else np.int64)
            assert maxop._prepare_values(f.num, g.total_cells).dtype == dtype
            fld = max_field_fast(f, basis)
            # brute shares _prepare_values, so the Fraction loop is the oracle
            want = reference_field(f, basis)
            assert np.array_equal(field_values(fld), want)
            assert np.array_equal(field_values(max_field_brute(f, basis)), want)
            top = max(want.ravel())
            # thresholds of small and huge numerators and denominators
            for lam in (
                Fraction(3, 2),
                top / 2,
                top / 2 + Fraction(1, 2**9),
                Fraction(1, 2**9),
                Fraction(2**62),
            ):
                slow = np.array([v > lam for v in want.ravel()]).reshape(g.shape)
                assert np.array_equal(level_set(fld, lam).mask, slow)
            assert 0 < level_set(fld, top / 2).popcount < g.total_cells

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cuts_the_table_like_the_fraction_compare(self, data):
        # numerators and denominators past 2^63; thresholds at every table
        # value, between two, below the least, 0 and above the top
        g = DyadicGrid((data.draw(st.integers(0, 2)), data.draw(st.integers(0, 3))))
        numerator = st.one_of(st.integers(0, 9), st.integers(0, 2**70))
        value = st.builds(Fraction, numerator, st.one_of(st.integers(1, 4), st.integers(1, 2**66)))
        values = data.draw(st.lists(value, min_size=g.total_cells, max_size=g.total_cells))
        f = step_function(g, np.array(values, dtype=object).reshape(g.shape))
        table = sorted(set(values))
        between = [(a + b) / 2 for a, b in zip(table, table[1:])]
        for lam in (*table, *between, table[0] / 2, 0, table[-1] + Fraction(1, 2**70)):
            want = np.array([v > lam for v in values]).reshape(g.shape)
            assert np.array_equal(level_set(f, lam).mask, want)
        with pytest.raises(ValueError):
            level_set(f, -Fraction(1, 2**70))

    def test_kernel_needs_no_scipy_ndimage(self):
        import gridhalo

        code = (
            "import sys\n"
            "from gridhalo.grid import DyadicGrid, StepFunction\n"
            "from gridhalo.maxop import BasisSpec, max_field_fast\n"
            "from gridhalo.witness import central_block\n"
            "f = StepFunction.indicator(central_block(DyadicGrid((3, 3))), 5)\n"
            "max_field_fast(f, BasisSpec('axis', 2))\n"
            "print('scipy.ndimage' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(gridhalo.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=20, deadline=None)
    def test_level_sets_nested_in_threshold(self, seed):
        g = DyadicGrid((2, 2))
        f = random_step(g, np.random.default_rng(seed))
        fld = max_field_fast(f, BasisSpec("axis", 2))
        hi = level_set(fld, 2)
        lo = level_set(fld, 1)
        assert difference(hi, lo).popcount == 0

    def test_truncated_level_sets_increase_to_untruncated(self):
        g = DyadicGrid((3, 3))
        f = random_step(g, np.random.default_rng(13))
        basis = BasisSpec("axis", 2)
        prev = None
        for r in (Fraction(1, 2), Fraction(3, 4), Fraction(1), None):
            ls = level_set(max_field_fast(f, basis, r=r), 1)
            if prev is not None:
                assert difference(prev, ls).popcount == 0
            prev = ls


def fraction_level_set(f, basis, lam, r=None, ladder=None, shapes=None):
    """Oracle: the brute field compared cell by cell as Fractions."""
    fld = max_field_brute(f, basis, r=r, ladder=ladder, shapes=shapes)
    return np.array([v > lam for v in field_values(fld).ravel()]).reshape(f.grid.shape)


@st.composite
def level_set_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    bits = tuple(draw(st.integers(0, 3 if n == 2 else 2)) for _ in range(n))
    grid = DyadicGrid(bits)
    value = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=0, max_value=8, max_denominator=6)
    )
    values = np.array(
        draw(st.lists(value, min_size=grid.total_cells, max_size=grid.total_cells)),
        dtype=object,
    ).reshape(grid.shape)
    if draw(st.booleans()):
        # confine f's support to a random sub-box, at an edge or inside
        box = []
        for s in grid.shape:
            lo = draw(st.integers(0, s - 1))
            box.append(slice(lo, draw(st.integers(lo + 1, s))))
        inside = np.zeros(grid.shape, dtype=bool)
        inside[tuple(box)] = True
        values[~inside] = Fraction(0)
    f = step_function(grid, values)
    basis = BasisSpec("axis", draw(st.integers(1, n)))
    r = draw(st.one_of(st.none(), st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=16)))
    ladder = shapes = None
    family = draw(st.sampled_from(["all", "ladder", "shapes"]))
    if family == "ladder":
        ladder = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True))
    elif family == "shapes":
        width = st.tuples(*(st.integers(1, s) for s in grid.shape))
        shapes = draw(st.lists(width, min_size=1, max_size=5))
    lam = draw(
        st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=6, max_denominator=7))
    )
    return f, basis, lam, r, ladder, shapes


@st.composite
def placement_pass_cases(draw):
    """f, basis, r and shapes for the placement pass: 1-3 axes, supports up
    to the whole grid (a 128-cell line or a 16x16 square spans several
    batches), payloads from zero to past the int64 guard, truncation radii
    or explicit shapes out of product order."""
    n = draw(st.integers(1, 3))
    wide = draw(st.booleans())
    top = (7, 4, 2)[n - 1]
    bits = tuple(top if wide else draw(st.integers(0, top)) for _ in range(n))
    grid = DyadicGrid(bits)
    scale = draw(st.sampled_from([0, 1, 1, 1, 2**40, 2**62]))
    cells = st.integers(1 if wide else 0, 3) if draw(st.booleans()) else st.just(1)
    values = np.array(
        draw(st.lists(cells, min_size=grid.total_cells, max_size=grid.total_cells)),
        dtype=object,
    ).reshape(grid.shape)
    values *= scale
    f = step_function(grid, values * Fraction(1, draw(st.integers(1, 4))))
    basis = BasisSpec("axis", draw(st.integers(1, n)))
    r = shapes = None
    if wide:
        pass
    elif draw(st.booleans()):
        r = draw(st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=16))
    else:
        shapes = draw(st.permutations(loop_shapes(basis, grid)))[: draw(st.integers(1, 12))]
    return f, basis, r, shapes


class TestMaxLevelSet:
    @given(placement_pass_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_placement_pass_equals_the_brute_level_set(self, case, data):
        f, basis, r, shapes = case
        try:
            brute = max_field_brute(f, basis, r=r, shapes=shapes)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                max_level_set(f, basis, 1, r=r, shapes=shapes)
            return
        # a value the field takes is an exact tie on the cells that hold it
        ties = sorted(set(field_values(brute).ravel()))
        lam = data.draw(st.one_of(st.sampled_from(ties), st.fractions(0, 4 * int(f.num.max()) + 1)))
        got = max_level_set(f, basis, lam, r=r, shapes=shapes)
        assert np.array_equal(got.mask, level_set(brute, lam).mask)

    @given(placement_pass_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_threshold_list_equals_one_pass_per_threshold(self, case, data):
        # 1-4 thresholds, unsorted, repeated, and ties: a value the field
        # takes is an exact tie S * q == p * |R| on the cells that hold it
        f, basis, r, shapes = case
        try:
            brute = max_field_brute(f, basis, r=r, shapes=shapes)
        except InfeasibleError:
            return
        ties = sorted(set(field_values(brute).ravel()))
        lam = st.one_of(st.sampled_from(ties), st.fractions(0, 4 * int(f.num.max()) + 1))
        lams = data.draw(st.lists(lam, min_size=1, max_size=4))
        if len(lams) < 4 and data.draw(st.booleans()):
            lams = data.draw(st.permutations(lams + [lams[0]]))
        support = maxop._support(f.num)
        passes = maxop._placement_pass(f.grid, f.den, support, basis, lams, r, None, shapes)
        assert len(passes) == len(lams)
        for lam, runs in zip(lams, passes):
            alone = maxop._winners(f, basis, lam, r=r, shapes=shapes)
            assert all(np.array_equal(a, b) for a, b in zip(runs, alone))
            box, corner = maxop._paint(f.grid.shape, *runs)
            painted = maxop._embed(f.grid.shape, box, corner)
            assert np.array_equal(painted, level_set(brute, lam).mask)

    @pytest.mark.parametrize("hs", [[1e20, 4.0], [2.0, 1e300, 1e20], [3.0, 1e300, 3.0]])
    def test_amplitudes_as_thresholds_on_the_object_path(self, hs):
        # {M(h chi_E) > 1} = {M chi_E > 1/h}: one pass over chi_E at the
        # thresholds 1/h against the brute field of h chi_E at 1; the
        # numerator of 1e20 or 1e300 is past 2^62, so those compares run on
        # Python ints
        g = DyadicGrid((3, 3))
        E = np.zeros(g.shape, dtype=bool)
        E[3, 2:5] = E[4, 3] = True
        basis = BasisSpec("axis", 2)
        lams = [1 / Fraction(h) for h in hs]
        assert any(lam.denominator >= 2**62 for lam in lams)
        passes = maxop._placement_pass(g, 1, maxop._support(E), basis, lams)
        for h, runs in zip(hs, passes):
            box, corner = maxop._paint(g.shape, *runs)
            f = StepFunction.indicator(GridSet(g, E), h)
            want = level_set(max_field_brute(f, basis), 1).mask
            assert np.array_equal(maxop._embed(g.shape, box, corner), want)
            assert np.array_equal(max_level_set(f, basis, 1).mask, want)

    @pytest.mark.parametrize("bits", [33, 62])
    def test_areas_past_int64_are_skipped_exactly(self, bits):
        # a 2^32 x 2^32 shape has area 2^64, which int64 wraps to 0: the
        # mass skip then kept it and laid out its 2^32 x 2^32 placements.
        # With exact areas it is skipped, and the pass is the 3x3 one
        g = DyadicGrid((bits, bits))
        E = np.ones((1, 2), dtype=bool)
        support = maxop._support(E, (2**bits // 2, 2**bits // 2))
        wide = 2**32 if bits == 33 else 2**61
        shapes = [(1, 1), (1, 2), (2, 2), (wide, wide), (wide, 1)]
        basis, lams = BasisSpec("axis", 2), [Fraction(1, 4)]
        (runs,) = maxop._placement_pass(g, 1, support, basis, lams, shapes=shapes)
        small = maxop._support(E, (4, 4))
        (want,) = maxop._placement_pass(DyadicGrid((3, 3)), 1, small, basis, lams, shapes=shapes[:3])
        widths, index, low, count = runs
        assert set(index.tolist()) <= {0, 1, 2}
        assert np.array_equal(index, want[1]) and np.array_equal(count, want[3])
        assert np.array_equal(low - 2**bits // 2, want[2] - 4)

    def test_a_support_over_several_batches(self):
        g = DyadicGrid((4, 4))
        f = random_step(g, np.random.default_rng(11))
        basis = BasisSpec("axis", 2)
        shapes = enumerate_shapes(basis, g)
        lam = Fraction(9, 2)
        total, p, q = f.integral() / g.cell_volume, lam.numerator, lam.denominator
        kept = [s for s in shapes if total * q > p * math.prod(s)]
        placements = sum(math.prod(w + 15 for w in s) for s in kept)
        assert np.count_nonzero(f.num[[0, -1]]) and np.count_nonzero(f.num[:, [0, -1]])
        assert placements > 10 * maxop._PLACEMENT_BUDGET
        want = level_set(max_field_brute(f, basis), lam).mask
        assert 0 < want.sum() < g.total_cells
        assert np.array_equal(max_level_set(f, basis, lam).mask, want)

    @given(level_set_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_brute_field_level_set(self, case):
        f, basis, lam, r, ladder, shapes = case
        family = dict(r=r, ladder=ladder, shapes=shapes)
        try:
            brute = max_field_brute(f, basis, **family)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                max_level_set(f, basis, lam, **family)
            with pytest.raises(InfeasibleError):
                max_field_fast(f, basis, **family)
            return
        fast = max_field_fast(f, basis, **family)
        assert np.array_equal(fast.num, brute.num) and np.array_equal(fast.den, brute.den)
        got = max_level_set(f, basis, lam, **family)
        assert np.array_equal(got.mask, level_set(brute, lam).mask)

    # f = h on two central cells (den 1), lam = p/q; each case names the side
    # of the 2^62 guard that total*q and the largest p*|R|*den of an
    # evaluated shape sit on (int64 wraps at 2^63).  total*q below with
    # p*|R|*den above cannot occur: such a shape is pruned.  The last two
    # cases sum object ints (_prepare_values), where the guard is moot.
    @pytest.mark.parametrize(
        "bits, h, p, q, total_q_fits, rhs_fits",
        [
            ((2, 2), 2**54, 127 * 2**53 + 5, 127, True, True),
            ((2, 2), 2**54, 2**60 + 5, 128, False, True),
            ((2, 2), 2**54, 2**61 + 5, 256, False, False),
            ((2, 2), 2**54, 2**62 - 1, 256, False, False),
            ((3, 3), 2**52, 3 * 2**56 + 1, 512, False, True),
            ((2, 2), 2**60, 2**59 + 1, 1, True, True),
            ((2, 2), 2**62, 3 * 2**61 + 1, 2, False, False),
        ],
    )
    def test_both_sides_of_the_compare_guard(self, bits, h, p, q, total_q_fits, rhs_fits):
        g = DyadicGrid(bits)
        c = g.shape[0] // 2
        pair = np.zeros(g.shape, dtype=bool)
        pair[c - 1, c - 1 : c + 1] = True
        f = StepFunction.indicator(GridSet(g, pair), h)
        lam = Fraction(p, q)
        assert (lam.numerator, lam.denominator) == (p, q)
        basis = BasisSpec("axis", 2)
        total = 2 * h
        evaluated = [
            math.prod(s) for s in enumerate_shapes(basis, g) if total * q > p * math.prod(s)
        ]
        assert (total * q < 2**62) == total_q_fits
        assert (p * max(evaluated) < 2**62) == rhs_fits
        want = fraction_level_set(f, basis, lam)
        assert 0 < want.sum() < g.total_cells
        assert np.array_equal(max_level_set(f, basis, lam).mask, want)

    def test_exceeds_guards_each_product(self):
        # num_max * q just below 2^62 stays int64; at 2^63 int64 would wrap
        num = np.array([2**60, 2**60 - 1], dtype=np.int64)
        assert _exceeds(num, 3, 1, 3 * 2**60 - 1, 2**60).tolist() == [True, False]
        assert _exceeds(num, 8, 1, 2**63 - 8, 2**60).tolist() == [True, False]
        # c * max(den) just below 2^62 stays int64; at 2^64 - 8 it would wrap
        num = np.array([2**61, 2**62 - 1], dtype=np.int64)
        den = np.array([1, 2], dtype=np.int64)
        assert _exceeds(num, 1, den, 2**61 - 1, 2**62 - 1).tolist() == [True, True]
        den = np.array([1, 8], dtype=np.int64)
        assert _exceeds(num, 1, den, 2**61 - 1, 2**62 - 1).tolist() == [True, False]
        # q alone past int64 with all-zero numerators (an empty or zero field)
        assert _exceeds(np.zeros(2, dtype=np.int64), 2**63, 1, 1, 0).tolist() == [False, False]

    def test_shape_at_the_tie_is_pruned_without_changing_the_set(self):
        # total 3 * 2 = 6, lam = 3/2: the 2x2 shape has total * q == p * |R|,
        # so no placement can average strictly above lam and it is skipped
        g = DyadicGrid((3, 3))
        pair = np.zeros(g.shape, dtype=bool)
        pair[3, 3:5] = True
        f = StepFunction.indicator(GridSet(g, pair), 3)
        lam = Fraction(3, 2)
        basis = BasisSpec("axis", 2)
        shapes = [(2, 2), (1, 2), (4, 1)]
        assert 6 * lam.denominator == lam.numerator * 4
        got = max_level_set(f, basis, lam, shapes=shapes)
        assert np.array_equal(got.mask, fraction_level_set(f, basis, lam, shapes=shapes))
        fewer = max_level_set(f, basis, lam, shapes=[(1, 2), (4, 1)])
        assert np.array_equal(got.mask, fewer.mask)

    @pytest.mark.parametrize("corner", list(product((0, -1), repeat=2)))
    @pytest.mark.parametrize("lam", [Fraction(1, 2), 2, Fraction(9, 2)])
    def test_runs_boxed_at_a_grid_corner(self, corner, lam):
        # f on a 2x1 pair in one corner of a 16x8 grid: the runs' box, on
        # which the set is painted, starts at 0 or ends at the grid size on
        # both axes
        g = DyadicGrid((4, 3))
        pair = np.zeros(g.shape, dtype=bool)
        pair[corner] = True
        pair[corner[0] + (1 if corner[0] == 0 else -1), corner[1]] = True
        f = StepFunction.indicator(GridSet(g, pair), 5)
        basis = BasisSpec("axis", 2)
        box, at = maxop._paint(g.shape, *maxop._winners(f, basis, lam))
        for a, s, m, c in zip(at, box.shape, g.shape, corner):
            assert (a == 0) if c == 0 else (a + s == m)
        want = level_set(max_field_brute(f, basis), lam).mask
        assert np.array_equal(max_level_set(f, basis, lam).mask, want)
        assert 0 < int(box.sum()) == want.sum()

    @pytest.mark.parametrize("lam", [0, Fraction(1, 3), 2])
    def test_all_zero_function(self, lam):
        g = DyadicGrid((2, 3))
        f = step_function(g, np.zeros(g.shape, dtype=object))
        got = max_level_set(f, BasisSpec("axis", 2), lam)
        assert got.popcount == 0
        assert np.array_equal(got.mask, fraction_level_set(f, BasisSpec("axis", 2), lam))

    def test_negative_threshold_rejected(self):
        g = DyadicGrid((1, 1))
        with pytest.raises(ValueError):
            max_level_set(step_function(g, np.ones(g.shape, dtype=object)), BasisSpec("axis", 1), -1)

    def test_callers_build_no_field(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a full max field was built")

        monkeypatch.setattr(maxop, "_value_table", refuse)
        ((phi_hat, _),) = halo.halo_estimate(BasisSpec("axis", 2), 6, [8.0], [math.inf, 2.0], [1, 2])
        assert phi_hat > 1
        (meas,) = halo.lemma10_levelset_measure((30, 30), (34, 34), [6.0], 2, DyadicGrid((6, 6)))
        assert meas > 16 * DyadicGrid((6, 6)).cell_volume
        E = central_block(DyadicGrid((3, 3)))
        shapes = enumerate_shapes(BasisSpec("axis", 2), E.grid, r=1)
        P = axis_level_set_exact(E, Fraction(9, 4), Fraction(1), BasisSpec("axis", 2), shapes)
        assert difference(E, P).popcount == 0
