"""Grid primitives: cells, sets, step functions, rectangles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridhalo.grid import (
    AxisRect,
    DyadicGrid,
    GridSet,
    StepFunction,
    load_grid_set,
    load_step_function,
    save_grid_set,
    save_step_function,
    uniform_distribution_check,
)


def small_grids():
    return st.builds(
        DyadicGrid,
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
    )


def sets_on(grid_strategy):
    @st.composite
    def build(draw):
        grid = draw(grid_strategy)
        bits = draw(
            st.lists(
                st.booleans(),
                min_size=grid.total_cells,
                max_size=grid.total_cells,
            )
        )
        return GridSet(grid, np.array(bits, dtype=bool).reshape(grid.shape))

    return build()


class TestDyadicGrid:
    def test_cell_geometry_exact(self):
        g = DyadicGrid((2, 3))
        assert g.shape == (4, 8)
        assert g.cell_size == (Fraction(1, 4), Fraction(1, 8))
        assert g.cell_volume == Fraction(1, 32)
        assert g.cell_center((0, 0)) == (Fraction(1, 8), Fraction(1, 16))

    def test_anisotropic_box(self):
        g = DyadicGrid((1, 1), side=(Fraction(1, 4), Fraction(1, 8)))
        assert g.box_volume == Fraction(1, 32)
        assert g.cell_size == (Fraction(1, 8), Fraction(1, 16))

    def test_refine_splits_cells(self):
        g = DyadicGrid((2, 2)).refine((1, 0))
        assert g.shape == (8, 4)

    def test_invalid_resolution_rejected(self):
        with pytest.raises(ValueError):
            DyadicGrid((-1, 2))

    @given(small_grids(), st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def test_refine_preserves_box_volume(self, grid, extra):
        assert grid.refine(extra).box_volume == grid.box_volume


class TestGridSet:
    def test_measure_is_popcount_times_cell_volume(self):
        g = DyadicGrid((2, 2))
        s = GridSet.from_indices(g, [(0, 0), (1, 3), (3, 3)])
        assert s.measure() == 3 * Fraction(1, 16)
        assert s.relative_measure() == Fraction(3, 16)

    def test_set_algebra(self):
        g = DyadicGrid((1, 1))
        a = GridSet.from_indices(g, [(0, 0), (0, 1)])
        b = GridSet.from_indices(g, [(0, 1), (1, 1)])
        assert (a & b).popcount == 1
        assert (a | b).popcount == 3
        assert (a - b).popcount == 1
        assert a.complement().popcount == 2

    @given(sets_on(small_grids()), st.tuples(st.integers(0, 2), st.integers(0, 2)))
    @settings(max_examples=50)
    def test_refine_preserves_measure_exactly(self, s, extra):
        assert s.refine(extra).measure() == s.measure()

    @given(sets_on(small_grids()))
    @settings(max_examples=50)
    def test_complement_partitions_the_box(self, s):
        assert s.measure() + s.complement().measure() == s.grid.box_volume

    def test_uniform_distribution_check(self):
        g = DyadicGrid((2, 2))
        tile = np.array([[True, False], [False, False]])
        s = GridSet(g, np.tile(tile, (2, 2)))
        assert uniform_distribution_check(s, (1, 1))
        lopsided = GridSet.from_indices(g, [(0, 0), (0, 1)])
        assert not uniform_distribution_check(lopsided, (1, 1))

    def test_roundtrip(self, tmp_path):
        g = DyadicGrid((2, 3))
        s = GridSet.from_indices(g, [(0, 0), (3, 7)])
        path = tmp_path / "s.txt"
        save_grid_set(s, path)
        assert load_grid_set(path) == s


class TestStepFunction:
    def test_rational_integral_exact(self):
        g = DyadicGrid((1, 1))
        f = StepFunction(g, np.array([[1, 2], [3, 4]], dtype=object))
        assert f.integral() == Fraction(10, 4)

    def test_negative_rejected(self):
        g = DyadicGrid((1, 1))
        with pytest.raises(ValueError):
            StepFunction(g, np.array([[1, -2], [3, 4]], dtype=object))

    def test_indicator_support_roundtrip(self):
        g = DyadicGrid((2, 2))
        s = GridSet.from_indices(g, [(1, 1), (2, 2)])
        f = StepFunction.indicator(s, Fraction(7, 3))
        assert f.support() == s
        assert f.integral() == Fraction(7, 3) * s.measure()

    def test_scaled_integers_common_denominator(self):
        g = DyadicGrid((1, 0))
        f = StepFunction(g, np.array([[Fraction(1, 6)], [Fraction(3, 4)]], dtype=object))
        ints, den = f.scaled_integers()
        assert den == 12
        assert [int(v) for v in ints.ravel()] == [2, 9]

    @given(
        st.lists(st.fractions(min_value=0, max_value=10), min_size=4, max_size=4)
    )
    @settings(max_examples=50)
    def test_refine_preserves_integral(self, vals):
        g = DyadicGrid((1, 1))
        f = StepFunction(g, np.array(vals, dtype=object).reshape(2, 2))
        assert f.refine((1, 2)).integral() == f.integral()

    def test_double_mode_matches_rational(self):
        g = DyadicGrid((2, 2))
        vals = np.arange(16, dtype=float).reshape(4, 4)
        fr = StepFunction(g, vals.astype(object))
        fd = StepFunction(g, vals, "double")
        assert math.isclose(float(fr.integral()), fd.integral(), rel_tol=1e-12)

    def test_roundtrip(self, tmp_path):
        g = DyadicGrid((1, 2))
        f = StepFunction(
            g, np.array([Fraction(i, 7) for i in range(8)], dtype=object).reshape(2, 4)
        )
        path = tmp_path / "f.txt"
        save_step_function(f, path)
        g2 = load_step_function(path)
        assert g2.grid == f.grid
        assert np.array_equal(g2.values, f.values)


class TestAxisRectAndPrefixSums:
    def test_rect_geometry(self):
        g = DyadicGrid((2, 2))
        r = AxisRect((0, 1), (2, 3))
        assert r.shape == (2, 2)
        assert r.volume(g) == Fraction(4, 16)
        assert r.diameter_sq(g) == Fraction(1, 2)
        assert r.contains_index((1, 2)) and not r.contains_index((2, 1))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            AxisRect((0, 0), (0, 2))
