"""Grid primitives: cells, sets, step functions, rectangles."""

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridhalo.grid import (
    AxisRect,
    DyadicGrid,
    GridSet,
    StepFunction,
    _scaled,
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


@st.composite
def rational_arrays(draw):
    grid = DyadicGrid(draw(st.tuples(st.integers(0, 2), st.integers(0, 2))))
    n = grid.total_cells
    vals = draw(st.lists(st.fractions(min_value=0, max_value=10), min_size=n, max_size=n))
    return grid, vals


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

    def test_payload_common_denominator(self):
        g = DyadicGrid((1, 0))
        f = StepFunction(g, np.array([[Fraction(1, 6)], [Fraction(3, 4)]], dtype=object))
        assert f.den == 12
        assert f.num.dtype == np.int64
        assert f.num.ravel().tolist() == [2, 9]

    @given(rational_arrays())
    @example((DyadicGrid((1, 0)), [Fraction(1, 3**40), Fraction(5, 7**23)]))
    @settings(max_examples=50)
    def test_refine_preserves_integral(self, grid_and_vals):
        # random nonnegative rationals; large denominators push the common-
        # denominator numerators past int64, and only then onto object ints
        grid, vals = grid_and_vals
        cells = np.array(vals, dtype=object).reshape(grid.shape)
        f = StepFunction(grid, cells)
        widest = max(v.numerator * (f.den // v.denominator) for v in vals)
        assert f.num.dtype == (object if widest >= 2**63 else np.int64)
        assert all(a == b for a, b in zip(f.values.ravel(), vals))
        assert f.integral() == sum(vals, Fraction(0)) * grid.cell_volume
        fine = f.refine((1, 2))
        expected = np.repeat(np.repeat(cells, 2, axis=0), 4, axis=1)
        assert all(a == b for a, b in zip(fine.values.ravel(), expected.ravel()))
        assert fine.integral() == f.integral()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            save_step_function(f, path)
            back = load_step_function(path)
        assert back.grid == grid
        assert all(a == b for a, b in zip(back.values.ravel(), vals))
        assert back.integral() == f.integral()

    @pytest.mark.parametrize("c", [2, 8, 3])
    def test_scaled_overflow_bound(self, c):
        # the rearrangement's domination compare multiplies numerators by
        # the other side's denominator: int64 while the largest product is
        # below 2^63, object ints from 2^63 on, the Python-int product either way
        below = np.array([0, 1, (2**63 - 1) // c], dtype=np.int64)
        at = np.array([0, 1, -(-(2**63) // c)], dtype=np.int64)
        assert int(below.max()) * c < 2**63 <= int(at.max()) * c
        for num, dtype in ((below, np.int64), (at, object)):
            out = _scaled(num, c)
            assert out.dtype == dtype
            assert [int(v) for v in out] == [int(v) * c for v in num]

    def test_load_reads_every_token_exactly(self, tmp_path):
        # decimal tokens are decimal fractions, not the nearest double
        path = tmp_path / "f.txt"
        path.write_text("2 1 1\n0.1\n1/3\n2\n1e-3\n")
        f = load_step_function(path)
        expected = [Fraction(1, 10), Fraction(1, 3), Fraction(2), Fraction(1, 1000)]
        assert f.values.ravel().tolist() == expected
        assert f.den == 3000
        path.write_text("2 1 1\n0.1\n1/3\n2\n1e-3x\n")
        with pytest.raises(ValueError):
            load_step_function(path)

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
