"""Grid primitives: cells, sets, step functions."""

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridhalo.grid import (
    DyadicGrid,
    GridSet,
    StepFunction,
    _counts,
    _text_chunks,
    save_step_function,
    uniform_distribution_check,
)
from oracles import difference, load_step_function, refine, save_by_numerators, step_function


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


@st.composite
def value_tables(draw):
    """(grid, table, codes): a table with repeated values in any order,
    heights from 2^63 on among them, and codes that may skip values."""
    grid = DyadicGrid(draw(st.tuples(st.integers(0, 2), st.integers(0, 2))))
    heights = st.one_of(
        st.fractions(min_value=0, max_value=10),
        st.integers(2**63 - 2, 2**65).map(Fraction),
        st.builds(Fraction, st.integers(2**63, 2**65), st.integers(1, 7)),
    )
    table = draw(st.lists(heights, min_size=1, max_size=5))
    table = draw(st.permutations(table + draw(st.lists(st.sampled_from(table), max_size=3))))
    n = grid.total_cells
    codes = draw(st.lists(st.integers(0, len(table) - 1), min_size=n, max_size=n))
    return grid, table, codes


class TestDyadicGrid:
    def test_cell_geometry_exact(self):
        g = DyadicGrid((2, 3))
        assert g.shape == (4, 8)
        assert g.cell_size == (Fraction(1, 4), Fraction(1, 8))
        assert g.cell_volume == Fraction(1, 32)

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
        mask = np.zeros(g.shape, dtype=bool)
        mask[[0, 1, 3], [0, 3, 3]] = True
        s = GridSet(g, mask)
        assert s.measure() == 3 * Fraction(1, 16)
        assert s.relative_measure() == Fraction(3, 16)

    def test_set_algebra(self):
        g = DyadicGrid((1, 1))
        a = GridSet(g, np.array([[True, True], [False, False]]))
        b = GridSet(g, np.array([[False, True], [False, True]]))
        assert np.array_equal(difference(a, b).mask, [[True, False], [False, False]])
        with pytest.raises(ValueError):
            difference(a, GridSet(DyadicGrid((1, 0)), np.ones((2, 1), dtype=bool)))

    @given(sets_on(small_grids()), st.tuples(st.integers(0, 2), st.integers(0, 2)))
    @settings(max_examples=50)
    def test_refine_preserves_measure_exactly(self, s, extra):
        assert refine(s, extra).measure() == s.measure()

    def test_uniform_distribution_check(self):
        g = DyadicGrid((2, 2))
        tile = np.array([[True, False], [False, False]])
        s = GridSet(g, np.tile(tile, (2, 2)))
        assert uniform_distribution_check(s, (1, 1))
        lopsided = np.zeros(g.shape, dtype=bool)
        lopsided[0, :2] = True
        assert not uniform_distribution_check(GridSet(g, lopsided), (1, 1))


class TestStepFunction:
    def test_rational_integral_exact(self):
        g = DyadicGrid((1, 1))
        f = step_function(g, np.array([[1, 2], [3, 4]], dtype=object))
        assert f.integral() == Fraction(10, 4)

    def test_negative_rejected(self):
        g = DyadicGrid((1, 1))
        with pytest.raises(ValueError):
            step_function(g, np.array([[1, -2], [3, 4]], dtype=object))

    def test_indicator_support_roundtrip(self):
        g = DyadicGrid((2, 2))
        mask = np.zeros(g.shape, dtype=bool)
        mask[[1, 2], [1, 2]] = True
        s = GridSet(g, mask)
        f = StepFunction.indicator(s, Fraction(7, 3))
        assert np.array_equal(f.num != 0, s.mask)
        assert f.integral() == Fraction(7, 3) * s.measure()

    @pytest.mark.parametrize("height", [5, Fraction(7, 3), 64.0, 2**63])
    @pytest.mark.parametrize("fill", ["empty", "full", "random"])
    def test_indicator_equals_the_table_route(self, height, fill):
        # the scatter of one converted height against the general
        # table-and-codes constructor; 2^63 takes the object path
        g = DyadicGrid((3, 2))
        mask = {
            "empty": np.zeros(g.shape, dtype=bool),
            "full": np.ones(g.shape, dtype=bool),
            "random": np.random.default_rng(4).random(g.shape) < 0.4,
        }[fill]
        s = GridSet(g, mask)
        f = StepFunction.indicator(s, height)
        ref = StepFunction.from_table(g, [0, height], s.mask)
        assert f.num.dtype == ref.num.dtype == (object if height == 2**63 else np.int64)
        assert np.array_equal(f.num, ref.num) and f.den == ref.den
        assert [type(v) for v in f.num.ravel()] == [type(v) for v in ref.num.ravel()]
        assert f.integral() == Fraction(height) * s.measure()

    def test_payload_common_denominator(self):
        g = DyadicGrid((1, 0))
        f = step_function(g, np.array([[Fraction(1, 6)], [Fraction(3, 4)]], dtype=object))
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
        f = step_function(grid, cells)
        widest = max(v.numerator * (f.den // v.denominator) for v in vals)
        assert f.num.dtype == (object if widest >= 2**63 else np.int64)
        assert all(a == b for a, b in zip(f.values.ravel(), vals))
        assert f.integral() == sum(vals, Fraction(0)) * grid.cell_volume
        expected = np.repeat(np.repeat(cells, 2, axis=0), 4, axis=1)
        assert step_function(grid.refine((1, 2)), expected).integral() == f.integral()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            save_step_function(f, path)
            back = load_step_function(path)
        assert back.grid == grid
        assert all(a == b for a, b in zip(back.values.ravel(), vals))
        assert back.integral() == f.integral()

    @given(value_tables())
    @example((DyadicGrid((1, 1)), [Fraction(2**63), Fraction(1, 3), Fraction(2**63)], [0, 0, 2, 0]))
    @example((DyadicGrid((0, 1)), [Fraction(5), Fraction(0), Fraction(2**64, 3)], [1, 0]))
    @settings(max_examples=80, deadline=None)
    def test_from_table_equals_the_unique_route(self, case):
        # unsorted, repeated and unused values are canonicalised without
        # looking at the cells; np.unique over the table is the reference
        grid, table, codes = case
        codes = np.array(codes).reshape(grid.shape)
        f = StepFunction.from_table(grid, table, codes)
        uniq, inv = np.unique(np.array(table, dtype=object), return_inverse=True)
        ref = StepFunction.from_table(grid, uniq.tolist(), inv.ravel()[codes])
        assert f.table == ref.table == tuple(sorted(set(table)))
        assert f.codes.dtype == ref.codes.dtype == np.uint8
        assert np.array_equal(f.codes, ref.codes)
        widest = max(v.numerator * (f.den // v.denominator) for v in table)
        assert f.den == ref.den
        assert f.num.dtype == ref.num.dtype == (object if widest >= 2**63 else np.int64)
        assert np.array_equal(f.num, ref.num)
        cells = [table[c] for c in codes.ravel()]
        assert f.values.ravel().tolist() == ref.values.ravel().tolist() == cells
        assert f.integral() == ref.integral() == sum(cells, Fraction(0)) * grid.cell_volume
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / name for name in ("f", "ref", "oracle")]
            save_step_function(f, paths[0])
            save_step_function(ref, paths[1])
            save_by_numerators(f, paths[2])
            assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    @pytest.mark.parametrize("size, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_codes_take_the_smallest_unsigned_dtype(self, size, dtype):
        g = DyadicGrid((9,))
        codes = np.arange(g.total_cells) % size
        f = StepFunction.from_table(g, range(size), codes)
        assert f.codes.dtype == dtype
        assert np.array_equal(f.codes, codes)

    @pytest.mark.parametrize("code", [-1, 3, 256])
    def test_codes_outside_the_table_rejected(self, code):
        g = DyadicGrid((1, 1))
        with pytest.raises(ValueError, match="outside the value table"):
            StepFunction.from_table(g, [0, 1, 2], [[0, 1], [2, code]])

    @pytest.mark.parametrize("cells", [1, 1000, 4096])
    @pytest.mark.parametrize("chunk", [1, 7, 512, 1000, 1 << 13, 1 << 14])
    def test_chunked_counts_and_text_equal_one_chunk(self, cells, chunk):
        # chunks that do and do not divide the cell count, and one past it
        table = [Fraction(0), Fraction(1, 3), Fraction(5), Fraction(7, 2)]
        codes = (np.arange(cells) * 7919 % 5 % 4).astype(np.uint8)
        whole = _counts(codes, len(table), chunk=cells)
        assert np.array_equal(_counts(codes, len(table), chunk=chunk), whole)
        assert whole.tolist() == [int((codes == c).sum()) for c in range(len(table))]
        for end in ("\n", ""):
            one = list(_text_chunks(table, codes, end=end, chunk=cells))
            assert len(one) == 1
            assert "".join(_text_chunks(table, codes, end=end, chunk=chunk)) == one[0]

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
        f = step_function(
            g, np.array([Fraction(i, 7) for i in range(8)], dtype=object).reshape(2, 4)
        )
        path = tmp_path / "f.txt"
        save_step_function(f, path)
        g2 = load_step_function(path)
        assert g2.grid == f.grid
        assert np.array_equal(g2.values, f.values)
