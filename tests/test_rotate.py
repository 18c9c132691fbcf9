"""Rotated rectangles: clipping areas and quarter-turn exactness."""

import math

import numpy as np
import pytest

from gridhalo.grid import DyadicGrid, GridSet, StepFunction
from gridhalo.maxop import BasisSpec, level_set, max_field_fast
from gridhalo.rotate import (
    clip_polygon_box,
    polygon_area,
    quarter_turns,
    rot90_set,
    rotated_average,
    rotated_rect_polygon,
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
        s = GridSet.from_indices(g, [(1, 1), (1, 2), (2, 1), (2, 2)])
        f = StepFunction.indicator(s, 2)
        # the central half-box covers exactly the four chosen cells
        avg = rotated_average(f, (0.5, 0.5), (0.5, 0.5), 0.0)
        assert avg == pytest.approx(2.0, abs=1e-12)

    def test_against_monte_carlo_at_pi_over_4(self):
        g = DyadicGrid((3, 3))
        rng = np.random.default_rng(42)
        vals = rng.integers(0, 5, g.shape).astype(object)
        f = StepFunction(g, vals)
        gamma = math.pi / 4
        exact = rotated_average(f, (0.5, 0.5), (0.6, 0.3), gamma)
        mc = mc_rotated_average(f, (0.5, 0.5), (0.6, 0.3), gamma, 400_000, seed=0)
        assert exact == pytest.approx(mc, abs=2e-2)

    def test_overhang_counts_as_zero_with_full_denominator(self):
        g = DyadicGrid((1, 1))
        f = StepFunction.indicator(GridSet.full(g), 3)
        # rectangle centered at the corner: only a quarter lies inside
        avg = rotated_average(f, (0.0, 0.0), (0.5, 0.5), 0.0)
        assert avg == pytest.approx(0.75, abs=1e-12)


class TestQuarterTurnExactness:
    def test_rot90_set_is_exact_involution(self):
        g = DyadicGrid((2, 2))
        s = GridSet.from_indices(g, [(0, 0), (1, 3), (2, 2)])
        assert rot90_set(rot90_set(s, 1), 3) == s
        assert rot90_set(s, 4) == s

    def test_rot90_requires_square_grid(self):
        s = GridSet.empty(DyadicGrid((1, 2)))
        with pytest.raises(ValueError):
            rot90_set(s)

    # the axis family is closed under swapping edges, so on a square grid
    # the field of a quarter-turned function is the quarter-turned field:
    # the fact behind taking rot90_set of an axis level set
    def test_rotated_field_at_quarter_turn_is_coordinate_mapped(self):
        g = DyadicGrid((3, 3))
        rng = np.random.default_rng(5)
        f = StepFunction(g, rng.integers(0, 4, g.shape).astype(object))
        axis = max_field_fast(f, BasisSpec("axis", 2))
        turned = StepFunction(g, np.rot90(f.values, k=1))
        rot = max_field_fast(turned, BasisSpec("axis", 2))
        assert np.array_equal(np.rot90(axis.values, k=1), rot.values)

    def test_level_sets_coordinate_mapped(self):
        g = DyadicGrid((3, 3))
        s = GridSet.from_indices(g, [(3, 4), (4, 3)])
        axis_ls = level_set(max_field_fast(StepFunction.indicator(s, 6), BasisSpec("axis", 2)), 1)
        turned = StepFunction.indicator(rot90_set(s, 1), 6)
        rot_ls = level_set(max_field_fast(turned, BasisSpec("axis", 2)), 1)
        assert rot90_set(axis_ls, 1) == rot_ls
        assert axis_ls.measure() == rot_ls.measure()
