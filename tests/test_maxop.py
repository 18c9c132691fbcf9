"""Maximal-operator fields: dual-route equality and a from-scratch oracle."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridhalo.grid import DyadicGrid, GridSet, StepFunction
from gridhalo.maxop import (
    BasisSpec,
    EmptyFamilyError,
    dyadic_ladder,
    enumerate_shapes,
    level_set,
    max_field_brute,
    max_field_fast,
)


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
    return StepFunction(grid, vals)


class TestShapeEnumeration:
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
        with pytest.raises(EmptyFamilyError):
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
        assert np.array_equal(fast.values, brute.values)
        assert np.array_equal(fast.values, reference_field(f, basis))

    def test_oracle_8x8_with_truncation(self):
        g = DyadicGrid((3, 3))
        f = random_step(g, np.random.default_rng(7))
        basis = BasisSpec("axis", 2)
        r = Fraction(1, 2)
        fast = max_field_fast(f, basis, r=r)
        assert np.array_equal(fast.values, reference_field(f, basis, r=r))

    def test_three_dimensional_routes_agree(self):
        g = DyadicGrid((1, 1, 1))
        f = random_step(g, np.random.default_rng(3))
        basis = BasisSpec("axis", 2)
        assert np.array_equal(
            max_field_fast(f, basis).values, max_field_brute(f, basis).values
        )

    def test_double_mode_close_to_rational(self):
        g = DyadicGrid((3, 3))
        fr = random_step(g, np.random.default_rng(11))
        fd = StepFunction(g, np.array([float(v) for v in fr.values.ravel()]).reshape(g.shape), "double")
        basis = BasisSpec("axis", 2)
        exact = np.array([float(v) for v in max_field_fast(fr, basis).values.ravel()])
        approx = max_field_fast(fd, basis).values.ravel()
        assert np.allclose(exact, approx, rtol=1e-12, atol=1e-12)

    def test_overhang_keeps_full_denominator(self):
        # one bright corner cell: the 2x2 average at the corner may cover
        # cells outside the box, which contribute zero but still divide
        g = DyadicGrid((1, 1))
        f = StepFunction.indicator(GridSet.from_indices(g, [(0, 0)]), 8)
        fld = max_field_fast(f, BasisSpec("axis", 1))
        assert fld.values[0, 0] == Fraction(8, 1)  # the 1x1 rectangle wins
        assert fld.values[1, 1] == Fraction(8, 4)  # only via the 2x2

    def test_ladder_field_is_lower_bound(self):
        g = DyadicGrid((3, 3))
        f = random_step(g, np.random.default_rng(5))
        basis = BasisSpec("axis", 2)
        full = max_field_fast(f, basis)
        laddered = max_field_fast(f, basis, ladder=dyadic_ladder(8))
        assert all(
            a <= b for a, b in zip(laddered.values.ravel(), full.values.ravel())
        )

    def test_explicit_shapes_override(self):
        g = DyadicGrid((2, 2))
        f = random_step(g, np.random.default_rng(1))
        basis = BasisSpec("axis", 2)
        only = max_field_fast(f, basis, shapes=[(2, 2)])
        assert np.array_equal(
            only.values, max_field_brute(f, basis, shapes=[(2, 2)]).values
        )
        with pytest.raises(EmptyFamilyError):
            max_field_fast(f, basis, shapes=[])


class TestLevelSet:
    def test_strictly_greater(self):
        g = DyadicGrid((1, 1))
        f = StepFunction(g, np.array([[1, 2], [3, 4]], dtype=object))
        fld = max_field_fast(f, BasisSpec("axis", 2), shapes=[(1, 1)])
        assert level_set(fld, 1).popcount == 3  # the value-1 cell is out
        assert level_set(fld, Fraction(7, 2)).popcount == 1

    def test_int64_and_object_paths_agree(self):
        g = DyadicGrid((2, 2))
        basis = BasisSpec("axis", 2)
        f = random_step(g, np.random.default_rng(9))
        E = GridSet(g, np.random.default_rng(9).random(g.shape) < 0.3)
        c = E.popcount
        # on 16 cells the payload stays int64 while 16 * 1.01 * sum(f) < 2^61
        # (_prepare_values); heights h with h * c = 2^56 and > 2^57 straddle it;
        # a height of 2^63 does not fit the step function's own int64 payload
        cases = [(f, np.int64)]
        for h, dtype in ((2**56 // c, np.int64), (2**57 // c + 1, object), (2**63, object)):
            cases.append((StepFunction.indicator(E, h), dtype))
        for f, dtype in cases:
            assert f.num.dtype == (object if f.num.max() >= 2**63 else np.int64)
            fld = max_field_fast(f, basis)
            assert fld.num.dtype == dtype
            assert np.array_equal(fld.values, max_field_brute(f, basis).values)
            top = max(fld.values.ravel())
            # num * q and p * scale * den below and above level_set's 2^62
            # guard: small p/q, q = 2^9 against num ~ 2^56, and p = 2^62
            for lam in (
                Fraction(3, 2),
                top / 2,
                top / 2 + Fraction(1, 2**9),
                Fraction(1, 2**9),
                Fraction(2**62),
            ):
                fast_mask = level_set(fld, lam).mask
                slow = np.array([v > lam for v in fld.values.ravel()]).reshape(g.shape)
                assert np.array_equal(fast_mask, slow)
            assert 0 < level_set(fld, top / 2).popcount < g.total_cells

    def test_kernel_needs_no_scipy_ndimage(self):
        import gridhalo

        code = (
            "import sys\n"
            "from gridhalo.grid import DyadicGrid, StepFunction\n"
            "from gridhalo.maxop import BasisSpec, max_field_fast\n"
            "from gridhalo.witness import central_block\n"
            "f = StepFunction.indicator(central_block(DyadicGrid((3, 3))), 5)\n"
            "max_field_fast(f, BasisSpec('axis', 2))\n"
            "max_field_fast(StepFunction(f.grid, f.values, 'double'), BasisSpec('axis', 2))\n"
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
        assert (hi - lo).popcount == 0

    def test_truncated_level_sets_increase_to_untruncated(self):
        g = DyadicGrid((3, 3))
        f = random_step(g, np.random.default_rng(13))
        basis = BasisSpec("axis", 2)
        prev = None
        for r in (Fraction(1, 2), Fraction(3, 4), Fraction(1), None):
            ls = level_set(max_field_fast(f, basis, r=r), 1)
            if prev is not None:
                assert (prev - ls).popcount == 0
            prev = ls
