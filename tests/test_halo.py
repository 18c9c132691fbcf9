"""Halo-ratio estimation and the log-region/level-set growth checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gridhalo.grid import AxisRect, DyadicGrid, GridSet, StepFunction
from gridhalo.halo import (
    DomainTooSmallError,
    HaloProbe,
    discrete_ball,
    halo_estimate,
    halo_fit,
    lemma9_integral,
    lemma10_levelset_measure,
)
from gridhalo.maxop import BasisSpec, dyadic_ladder, level_set, max_field_brute


def mc_log_region(n, h, n_samples, seed):
    """Monte Carlo oracle for the log-region integral.

    Substituting x_j = exp(u_j) turns the integral of 1/prod(x) over
    {x_j > 1, prod x < h} into the volume of {u_j > 0, sum u < ln h},
    estimated by uniform sampling of the bounding cube.
    """
    rng = np.random.default_rng(seed)
    L = math.log(h)
    u = rng.uniform(0.0, L, size=(n_samples, n))
    return L**n * float(np.mean(u.sum(axis=1) < L))


class TestDiscreteBall:
    def test_small_ball_is_symmetric_about_corner(self):
        g = DyadicGrid((4, 4))
        ball = discrete_ball(g, 1)
        assert ball.popcount == 4
        idx = np.argwhere(ball.mask)
        center = idx.mean(axis=0)
        assert np.allclose(idx.max(axis=0) - center, center - idx.min(axis=0))

    def test_radius_two_ball(self):
        g = DyadicGrid((4, 4))
        # strictly-within-r centers: the 4x4 block minus its 4 corners
        assert discrete_ball(g, 2).popcount == 12


class TestHaloEstimate:
    def test_exact_small_instance(self):
        # h=4, one-cell ball, untruncated: the level set is the plus-shaped
        # region of cells whose best dyadic rectangle still averages > 1
        probe = HaloProbe(BasisSpec("axis", 2), 4.0, 5)
        est = halo_estimate(probe, [math.inf], [1])
        assert est.phi_hat == pytest.approx(5.0)

    def test_truncated_below_untruncated(self):
        probe = HaloProbe(BasisSpec("axis", 2), 8.0, 5)
        full = halo_estimate(probe, [math.inf], [1]).phi_hat
        trunc = halo_estimate(probe, [2.0], [1]).phi_hat
        assert trunc <= full

    def test_rotated_probe_rejected(self):
        # a discrete ball is not rotation invariant, so the axis ratio is
        # no measurement of a rotated basis
        with pytest.raises(ValueError, match="axis basis only"):
            HaloProbe(BasisSpec("rotated", 2, 0.61), 4.0, 5)

    def test_clipped_flag_when_levelset_hits_boundary(self):
        # huge h on a tiny grid: the level set floods to the boundary
        probe = HaloProbe(BasisSpec("axis", 2), 64.0, 3)
        est = halo_estimate(probe, [math.inf], [1])
        assert any(s.clipped for s in est.samples)

    def test_empty_sample_lists_rejected(self):
        probe = HaloProbe(BasisSpec("axis", 2), 4.0, 4)
        with pytest.raises(ValueError):
            halo_estimate(probe, [], [1])



class TestHaloFit:
    def test_band_of_exact_model(self):
        hs = [4.0, 8.0, 16.0, 32.0]
        phis = [3.0 * h * (1 + math.log(h)) for h in hs]
        lo, hi = halo_fit(hs, phis, 1)
        assert lo == pytest.approx(3.0) and hi == pytest.approx(3.0)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            halo_fit([2, 4], [1, 2], 1)


class TestLogRegionIntegral:
    def test_monte_carlo_oracle_confirms_closed_form(self):
        # oracle first: the closed form (ln h)^n / n! must match sampling
        for n in (1, 2, 3):
            for h in (math.e, math.e**2, 10.0):
                closed = math.log(h) ** n / math.factorial(n)
                mc = mc_log_region(n, h, 200_000, seed=10 * n + int(h))
                assert mc == pytest.approx(closed, rel=2e-2)

    def test_quadrature_matches_closed_form(self):
        for n in (1, 2, 3):
            for h in (math.e, math.e**2, 10.0):
                value = lemma9_integral(n, [1.0] * n, h)
                closed = math.log(h) ** n / math.factorial(n)
                assert value == pytest.approx(closed, rel=1e-6)

    def test_deltas_cancel(self):
        a = lemma9_integral(2, [1.0, 1.0], 5.0)
        b = lemma9_integral(2, [0.25, 3.0], 5.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lemma9_integral(2, [1.0], 5.0)
        with pytest.raises(ValueError):
            lemma9_integral(1, [1.0], 0.5)


class TestLevelsetGrowth:
    def test_ratios_and_flags(self):
        grid = DyadicGrid((7, 7))
        rect = AxisRect((62, 62), (66, 66))
        res = lemma10_levelset_measure(rect, 6.0, 2, grid)
        assert res.rect_measure == Fraction(16, 128 * 128)
        assert res.normalization_ok  # 6 > 2^2
        assert res.ratio_exponent_km1 > 0
        model_ratio = res.ratio_exponent_k * (1 + math.log(6.0))
        assert model_ratio == pytest.approx(res.ratio_exponent_km1)

    def test_small_h_flagged_not_rejected(self):
        grid = DyadicGrid((6, 6))
        rect = AxisRect((30, 30), (34, 34))
        res = lemma10_levelset_measure(rect, 3.0, 2, grid)
        assert not res.normalization_ok

    def test_boundary_clipping_rejected(self):
        grid = DyadicGrid((4, 4))
        rect = AxisRect((6, 6), (10, 10))
        with pytest.raises(DomainTooSmallError):
            lemma10_levelset_measure(rect, 64.0, 2, grid)

    def test_rational_mode_exact_measure(self):
        grid = DyadicGrid((6, 6))
        rect = AxisRect((30, 30), (34, 34))
        ladder = dyadic_ladder(64)
        res = lemma10_levelset_measure(rect, 6.0, 2, grid, ladder=ladder)
        assert isinstance(res.levelset_measure, Fraction)
        # oracle: the brute route's level set of the same indicator
        mask = np.zeros(grid.shape, dtype=bool)
        mask[30:34, 30:34] = True
        f = StepFunction.indicator(GridSet(grid, mask), 6)
        brute = max_field_brute(f, BasisSpec("axis", 2), ladder=ladder)
        assert res.levelset_measure == level_set(brute, 1).measure()
