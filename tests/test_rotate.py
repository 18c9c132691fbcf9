"""Rotated rectangles: the clipping oracle and quarter-turn exactness."""

import math

import numpy as np
import pytest

from gridhalo.grid import DyadicGrid, GridSet, StepFunction
from gridhalo.maxop import BasisSpec, level_set, max_field_fast
from gridhalo.rotate import quarter_turns
from oracles import (
    clip_polygon_box,
    field_values,
    polygon_area,
    rotated_average,
    rotated_rect_polygon,
    step_function,
)


def mc_rotated_average(f, center, sides, gamma, n_samples, seed):
    """Monte Carlo oracle: sample the rotated rectangle uniformly."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-sides[0] / 2, sides[0] / 2, n_samples)
    v = rng.uniform(-sides[1] / 2, sides[1] / 2, n_samples)
    cg, sg = math.cos(gamma), math.sin(gamma)
    x = center[0] + cg * u - sg * v
    y = center[1] + sg * u + cg * v
    cw, ch = (float(c) for c in f.grid.cell_size)
    i = np.floor(x / cw).astype(int)
    j = np.floor(y / ch).astype(int)
    nx, ny = f.grid.shape
    inside = (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
    vals = np.zeros(n_samples)
    flat = np.array([float(val) for val in f.values.ravel()]).reshape(f.grid.shape)
    vals[inside] = flat[i[inside], j[inside]]
    return float(vals.mean())


class TestPolygonPrimitives:
    def test_shoelace_unit_square(self):
        assert polygon_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(1.0)

    def test_rotated_rect_polygon_preserves_area(self):
        poly = rotated_rect_polygon((0.3, 0.7), (0.5, 0.2), 0.9)
        assert abs(polygon_area(poly)) == pytest.approx(0.1, rel=1e-12)

    def test_clip_to_box(self):
        # the triangle covers the full strip x in [1/2, 1] of the unit box
        tri = [(0.5, -0.5), (1.5, 0.5), (0.5, 1.5)]
        clipped = clip_polygon_box(tri, 0, 0, 1, 1)
        assert abs(polygon_area(clipped)) == pytest.approx(0.5, rel=1e-12)

    def test_quarter_turn_detection(self):
        assert quarter_turns(0.0) == 0
        assert quarter_turns(math.pi / 2) == 1
        assert quarter_turns(-math.pi / 2) == 3
        assert quarter_turns(math.pi / 4) is None


class TestRotatedAverage:
    def test_axis_aligned_matches_exact_average(self):
        g = DyadicGrid((2, 2))
        mask = np.zeros(g.shape, dtype=bool)
        mask[1:3, 1:3] = True
        f = StepFunction.indicator(GridSet(g, mask), 2)
        # the central half-box covers exactly the four chosen cells
        avg = rotated_average(f, (0.5, 0.5), (0.5, 0.5), 0.0)
        assert avg == pytest.approx(2.0, abs=1e-12)

    def test_against_monte_carlo_at_pi_over_4(self):
        g = DyadicGrid((3, 3))
        rng = np.random.default_rng(42)
        vals = rng.integers(0, 5, g.shape).astype(object)
        f = step_function(g, vals)
        gamma = math.pi / 4
        exact = rotated_average(f, (0.5, 0.5), (0.6, 0.3), gamma)
        mc = mc_rotated_average(f, (0.5, 0.5), (0.6, 0.3), gamma, 400_000, seed=0)
        assert exact == pytest.approx(mc, abs=2e-2)

    def test_overhang_counts_as_zero_with_full_denominator(self):
        g = DyadicGrid((1, 1))
        f = StepFunction.indicator(GridSet(g, np.ones(g.shape, dtype=bool)), 3)
        # rectangle centered at the corner: only a quarter lies inside
        avg = rotated_average(f, (0.0, 0.0), (0.5, 0.5), 0.0)
        assert avg == pytest.approx(0.75, abs=1e-12)


class TestQuarterTurnExactness:
    # the axis family is closed under swapping edges, so on a square grid
    # the field of a quarter-turned function is the quarter-turned field:
    # the fact behind taking the quarter-turned axis level set
    def test_rotated_field_at_quarter_turn_is_coordinate_mapped(self):
        g = DyadicGrid((3, 3))
        rng = np.random.default_rng(5)
        f = step_function(g, rng.integers(0, 4, g.shape).astype(object))
        axis = max_field_fast(f, BasisSpec("axis", 2))
        turned = step_function(g, np.rot90(f.values, k=1))
        rot = max_field_fast(turned, BasisSpec("axis", 2))
        assert np.array_equal(np.rot90(field_values(axis), k=1), field_values(rot))

    def test_level_sets_coordinate_mapped(self):
        g = DyadicGrid((3, 3))
        mask = np.zeros(g.shape, dtype=bool)
        mask[3, 4] = mask[4, 3] = True
        s = GridSet(g, mask)
        axis_ls = level_set(max_field_fast(StepFunction.indicator(s, 6), BasisSpec("axis", 2)), 1)
        turned = StepFunction.indicator(GridSet(g, np.rot90(mask)), 6)
        rot_ls = level_set(max_field_fast(turned, BasisSpec("axis", 2)), 1)
        assert np.array_equal(np.rot90(axis_ls.mask), rot_ls.mask)
        assert axis_ls.measure() == rot_ls.measure()
