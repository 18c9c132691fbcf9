"""Halo-ratio estimation and the log-region/level-set growth checks."""

import json
import math
from fractions import Fraction

import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridhalo.config import ExperimentConfig
from gridhalo.cli import main
from gridhalo.experiments import run_halo
from gridhalo.grid import DyadicGrid, GridSet, InfeasibleError, StepFunction
from gridhalo.halo import (
    _gauss_quad,
    discrete_ball,
    halo_estimate,
    halo_fit,
    lemma9_integral,
    lemma10_levelset_measure,
)
from gridhalo import maxop
from gridhalo.maxop import BasisSpec, dyadic_ladder, level_set, max_field_brute, max_level_set
from oracles import boundary_touch


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


def dense_ball(grid, r_cells):
    """Oracle: every cell's squared distance to the box center, summed over
    the whole grid."""
    shape = grid.shape
    grids = np.indices(shape).astype(np.float64) + 0.5
    d2 = np.zeros(shape)
    for ax in range(grid.n):
        d2 += (grids[ax] - shape[ax] / 2.0) ** 2
    return d2 < float(r_cells) ** 2


@st.composite
def ball_cases(draw):
    """A grid of 1-3 axes with square cells, 2^0 up to 2^top cells per axis
    (each box side follows its cell count), and a radius."""
    n = draw(st.integers(1, 3))
    bits = tuple(draw(st.integers(0, (6, 4, 3)[n - 1])) for _ in range(n))
    m = 1 << max(bits)
    r = draw(
        st.one_of(
            st.sampled_from([0, 0.5]),
            st.integers(0, 4 * m + 4).map(lambda k: k / 2),
            st.floats(0, 2 * m + 2, allow_nan=False),
        )
    )
    return DyadicGrid(bits, side=tuple(Fraction(1 << b, m) for b in bits)), r


# 16 x 1 square cells: the box center is (8, 1/2), so cell (i, 0) lies
# |i + 1/2 - 8| from it, exactly 5/2 for i = 5 and i = 10
_STRIP = DyadicGrid((4, 0), side=(1, Fraction(1, 16)))


class TestDiscreteBall:
    @given(ball_cases())
    @example((_STRIP, 2.5))  # cells at exactly r
    @example((DyadicGrid((3, 3)), 0))  # empty ball
    @example((DyadicGrid((2, 2)), 40.5))  # ball larger than the grid
    @example((DyadicGrid((0, 3, 1), side=(Fraction(1, 8), 1, Fraction(1, 4))), 1.5))
    @settings(max_examples=300, deadline=None)
    def test_box_ball_equals_the_dense_formula(self, case):
        grid, r = case
        assert np.array_equal(discrete_ball(grid, r).mask, dense_ball(grid, r))

    def test_sphere_cells_are_left_out(self):
        # the compare is strict: centres at distance exactly r are outside
        ball = discrete_ball(_STRIP, 2.5)
        assert np.flatnonzero(ball.mask).tolist() == [6, 7, 8, 9]

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
        ((phi_hat, clipped),) = halo_estimate(BasisSpec("axis", 2), 5, [4.0], [math.inf], [1])
        assert phi_hat == pytest.approx(5.0) and not clipped

    def test_truncated_below_untruncated(self):
        ((full, _),) = halo_estimate(BasisSpec("axis", 2), 5, [8.0], [math.inf], [1])
        ((trunc, _),) = halo_estimate(BasisSpec("axis", 2), 5, [8.0], [2.0], [1])
        assert trunc <= full

    def test_rotated_probe_rejected(self):
        # a discrete ball is not rotation invariant, so the axis ratio is
        # no measurement of a rotated basis
        with pytest.raises(ValueError, match="axis basis only"):
            halo_estimate(BasisSpec("rotated", 2, 0.61), 5, [4.0], [math.inf], [1])

    def test_clipped_flag_when_levelset_hits_boundary(self):
        # huge h on a tiny grid: the level set floods to the boundary
        ((_, clipped),) = halo_estimate(BasisSpec("axis", 2), 3, [64.0], [math.inf], [1])
        assert clipped

    def test_empty_sample_lists_rejected(self):
        with pytest.raises(ValueError):
            halo_estimate(BasisSpec("axis", 2), 4, [4.0], [], [1])

    @pytest.mark.parametrize("t,r", [(0.5, 1), (1.0, 1), (math.nan, 1), (2.0, 0), (2.0, -1)])
    def test_bad_samples_rejected(self, t, r):
        with pytest.raises(ValueError, match="t > 1|at least 1 cell"):
            halo_estimate(BasisSpec("axis", 2), 4, [4.0], [t], [r])

    @pytest.mark.parametrize("h", [64.0, 256.0])
    def test_one_sample_allocates_less_than_4_mb(self, h):
        # on 512^2 cells one float64 or intp grid is 2 MB; a sample of a
        # three-h sweep, up to h, is one pass and keeps to the ball's box,
        # a few bool masks and three sets of runs, and h = 256 has the
        # widest level set of the halo-sparse samples
        sweep = (BasisSpec("axis", 2), 9, (h / 16, h / 4, h), [math.inf], [1])
        halo_estimate(*sweep)
        tracemalloc.start()
        try:
            halo_estimate(*sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_one_sample_on_a_4096_grid_allocates_less_than_1_mb(self):
        # one int64 array of 4096^2 cells is 128 MiB and one bool mask
        # 16 MiB: a sample of a three-h sweep keeps to the ball's box and
        # each h's runs' box
        sweep = (BasisSpec("axis", 2), 12, (4.0, 16.0, 64.0), [math.inf], [1])
        halo_estimate(*sweep)
        tracemalloc.start()
        try:
            ests = halo_estimate(*sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the level set holds the ball and more
        assert all(phi_hat > 1 and not clipped for phi_hat, clipped in ests)
        assert peak < 2**20

    @given(
        st.integers(3, 7).flatmap(
            lambda bits: st.tuples(
                st.just(bits),
                # small balls, and balls reaching (or passing) the grid edge
                st.one_of(st.integers(1, 3), st.integers(2 ** (bits - 1) - 1, 2 ** (bits - 1) + 1)),
            )
        ),
        st.sampled_from([math.inf, 1.5, 2.0, 4.0]),
        st.sampled_from([2.0, 4.0, 16.0, 64.0, 256.0, 1024.0]),
    )
    @example((3, 1), math.inf, 64.0)  # the level set floods to the boundary
    @example((3, 4), math.inf, 2.0)  # the ball reaches the grid edge
    @example((7, 2), 2.0, 256.0)  # finite t on the largest grid
    @settings(max_examples=60, deadline=None)
    def test_box_sample_equals_the_whole_grid_route(self, bits_r, t, h):
        # oracle: the ball mask, its whole-grid indicator, the level set
        # painted on the grid, its popcount and a scan of the grid's faces
        bits, r = bits_r
        basis = BasisSpec("axis", 2)
        (sample,) = halo_estimate(basis, bits, [h], [t], [r])
        grid = DyadicGrid((bits, bits))
        ball = discrete_ball(grid, r)
        r_phys = None if math.isinf(t) else t * r * float(grid.cell_size[0])
        f = StepFunction.indicator(ball, h)
        ls = max_level_set(f, basis, 1, r=r_phys, ladder=dyadic_ladder(grid.shape[0]))
        assert sample == (ls.popcount / ball.popcount, boundary_touch(ls.mask))

    @given(
        st.integers(3, 7),
        st.lists(st.sampled_from([math.inf, 1.5, 2.0, 4.0, 8.0]), min_size=1, max_size=3, unique=True),
        st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from([1.5, 2.0, 4.0, 16.0, 64.0, 256.0, 1e20]), min_size=1, max_size=4),
    )
    @example(3, [math.inf], [1], [4.0, 64.0, 2.0])  # 64 floods the 8x8 grid, 2 and 4 do not
    @example(5, [2.0, math.inf], [1, 3], [1e20, 4.0, 4.0])  # repeated h, and the object path
    @settings(max_examples=40, deadline=None)
    def test_sweep_equals_per_h_samples(self, bits, ts, rs, hs):
        # the shared pass at thresholds 1/h against one pass per h and per
        # (t, r) sample, clipped samples included: per h, the largest ratio
        # and whether any sample clipped
        basis = BasisSpec("axis", 2)
        sweep = halo_estimate(basis, bits, hs, ts, rs)
        assert len(sweep) == len(hs)
        for h, est in zip(hs, sweep):
            samples = [halo_estimate(basis, bits, [h], [t], [r])[0] for r in rs for t in ts]
            assert est == (max(phi for phi, _ in samples), any(c for _, c in samples))

    def test_sweep_keeps_the_clipped_samples_apart(self):
        # on 32x32 cells h = 256 floods to the boundary and h = 4 does not
        (_, small), (_, big) = halo_estimate(
            BasisSpec("axis", 2), 5, (4.0, 256.0), [math.inf, 2.0], [1, 2]
        )
        assert not small and big

    @pytest.mark.parametrize(
        "bits, hs, named",
        [(5, "4,64,256", "h=64"), (6, "2,3,1e20", "h=1e+20"), (6, "2,1e20,1e300", "h=1e+20")],
    )
    def test_run_halo_names_the_first_clipped_h(self, bits, hs, named, tmp_path):
        # every h of the sweep is sampled before any is checked; the error
        # still names the first h, in sweep order, whose level set clips
        config = ExperimentConfig.from_mapping(
            "halo", {"grid_bits": bits, "h_list": hs, "out": str(tmp_path)}
        )
        with pytest.raises(InfeasibleError) as exc:
            run_halo(config)
        assert str(exc.value) == (
            f"level set for {named} reaches the boundary of the grid with 2^{bits} cells "
            "per axis; use a finer grid or smaller h"
        )

    @pytest.mark.parametrize(
        "bits, hs, match",
        [
            (5, [], "at least one amplitude"),
            (5, [4.0, 1.0], "h > 1"),
            (5, [math.nan], "h > 1"),
            (1, [4.0], "too small"),
        ],
    )
    def test_bad_sweep_rejected(self, bits, hs, match):
        with pytest.raises(ValueError, match=match):
            halo_estimate(BasisSpec("axis", 2), bits, hs, [math.inf], [1])

    @pytest.mark.parametrize("bits", [32, 33, 53, 54, 62])
    def test_samples_past_32_bits_equal_the_10_bit_samples(self, bits):
        # the ball box spans the ball alone, and a 2^32 x 2^32 shape's area
        # is an exact integer (int64 would wrap it to 0 and keep the shape),
        # so a sample on a grid far larger than memory equals the 2^10
        # sample wherever that one's level sets fit its grid
        sweep = ([4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0], [2.0, 8.0, math.inf], [1, 2])
        want = halo_estimate(BasisSpec("axis", 2), 10, *sweep)
        assert halo_estimate(BasisSpec("axis", 2), bits, *sweep) == want

    @pytest.mark.parametrize("bits", [33, 62])
    def test_placement_pass_past_32_bits_stays_int64(self, bits, monkeypatch):
        # a placement sum is bounded by the ball's mass, not by the grid's
        # cell count, and every area kept past the mass skip fits int64, so
        # each compare of the pass takes int64 operands and no product
        # reaches its 2^62 guard
        seen = []

        def spy(num, q, den, c, num_max):
            guard = max(num_max, 1) * q < 1 << 62 and c * int(np.max(den, initial=1)) < 1 << 62
            seen.append((num.dtype, np.asarray(den).dtype, guard))
            return real(num, q, den, c, num_max)

        real = maxop._exceeds
        monkeypatch.setattr(maxop, "_exceeds", spy)
        halo_estimate(BasisSpec("axis", 2), bits, [4.0, 64.0, 256.0], [2.0, math.inf], [1, 2])
        assert seen and set(seen) == {(np.dtype(np.int64), np.dtype(np.int64), True)}



class TestHaloFit:
    def test_band_of_exact_model(self):
        hs = [4.0, 8.0, 16.0, 32.0]
        phis = [3.0 * h * (1 + math.log(h)) for h in hs]
        lo, hi = halo_fit(hs, phis, 1)
        assert lo == pytest.approx(3.0) and hi == pytest.approx(3.0)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            halo_fit([2, 4], [1, 2], 1)

    @given(
        st.lists(st.floats(1.0, 1e12, exclude_min=True), min_size=3, max_size=6),
        st.floats(1e-3, 1e3),
        st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_band_is_the_inline_model_bit_for_bit(self, hs, scale, e):
        # the band's scale comes from growth.log_power_growth(e + 1); it must
        # be the float h (1 + ln h)^e, not merely close to it
        phis = [scale * h for h in hs]
        ratios = [p / (h * (1 + math.log(h)) ** e) for h, p in zip(hs, phis)]
        assert halo_fit(hs, phis, e) == (min(ratios), max(ratios))


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
                value = lemma9_integral(n, h)
                closed = math.log(h) ** n / math.factorial(n)
                assert value == pytest.approx(closed, rel=1e-6)

    def test_rule_agrees_with_scipy_quad(self):
        # the same Fubini recursion on scipy's QUADPACK quad, the oracle
        def quad(n, h):
            if n == 1:
                return math.log(h)
            val, _ = scipy.integrate.quad(
                lambda t: quad(n - 1, h / t) / t, 1.0, h, epsabs=1e-10, epsrel=1e-10, limit=200
            )
            return val

        for n in (1, 2, 3):
            for h in (math.e, math.e**2, 10.0):
                assert lemma9_integral(n, h) == pytest.approx(quad(n, h), rel=1e-14)

    @pytest.mark.parametrize(
        "f, a, b, exact",
        [
            # x^6 / 2 - x^3 / 3 + 7 x from -1 to 2
            (lambda x: 3 * x**5 - x**2 + 7, -1.0, 2.0, 49.5),
            (math.exp, 0.0, 3.0, math.expm1(3.0)),
            (lambda t: 1 / t, 1.0, 10.0, math.log(10.0)),
            (lambda t: 1 / t, 1.0, 1e6, math.log(1e6)),
            # a peak of height 1000 and width about 0.03 at 0.3
            (
                lambda x: 1 / (1e-3 + (x - 0.3) ** 2),
                0.0,
                1.0,
                (math.atan(0.7 / 1e-3**0.5) + math.atan(0.3 / 1e-3**0.5)) / 1e-3**0.5,
            ),
        ],
    )
    def test_rule_reaches_the_tolerance_on_known_integrals(self, f, a, b, exact):
        assert abs(_gauss_quad(f, a, b) - exact) <= 1e-10 * max(1.0, abs(exact))

    def test_rule_refuses_an_integrand_it_cannot_resolve(self):
        # 16 million periods: 200 panels leave an error estimate near 1e-2
        with pytest.raises(InfeasibleError, match="estimated error"):
            _gauss_quad(lambda x: math.sin(1e8 * x), 0.0, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lemma9_integral(0, 5.0)
        with pytest.raises(ValueError):
            lemma9_integral(1, 0.5)


def _levelset_rows(tmp_path, h_list, bits=8):
    """The ``levelset_growth`` rows of ``lemmas --grid bits --h-list h_list``."""
    assert main(["lemmas", "--grid", str(bits), "--h-list", h_list, "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    return [r for r in rows if r["check"] == "levelset_growth"]


class TestLevelsetGrowth:
    def test_ratios_and_flags(self, tmp_path):
        (row,) = _levelset_rows(tmp_path, "6", bits=7)
        assert row["normalization_ok"]  # 6 > 2^2
        assert row["ratio_exponent_km1"] > 0

    def test_small_h_flagged_not_rejected(self, tmp_path):
        (row,) = _levelset_rows(tmp_path, "3", bits=6)
        assert not row["normalization_ok"]

    def test_rows_are_the_brute_measure_over_the_model(self, tmp_path):
        # --grid 8 puts I at cells [126, 130)^2; oracle: the brute route's
        # field of chi_I, whose level set at 1/h is {M(h chi_I) > 1} (M is
        # positively homogeneous), and Phi_2(h) |I| written out
        rows = _levelset_rows(tmp_path, "2,3,4,5")
        grid = DyadicGrid((8, 8))
        mask = np.zeros(grid.shape, dtype=bool)
        mask[126:130, 126:130] = True
        f = StepFunction.indicator(GridSet(grid, mask))
        brute = max_field_brute(f, BasisSpec("axis", 2), ladder=dyadic_ladder(256))
        rect = float(16 * grid.cell_volume)
        assert [row["h"] for row in rows] == [2.0, 3.0, 4.0, 5.0]
        for row in rows:
            h = row["h"]
            meas = float(level_set(brute, 1 / Fraction(h)).measure())
            assert row["value"] == meas
            assert row["ratio_exponent_km1"] == meas / (h * (1 + math.log(h)) * rect)

    def test_boundary_clipping_rejected(self):
        grid = DyadicGrid((4, 4))
        with pytest.raises(InfeasibleError):
            lemma10_levelset_measure((6, 6), (10, 10), [64.0], 2, grid)

    @pytest.mark.parametrize("lo, hi", [((0, 0), (0, 2)), ((3, 1), (2, 2)), ((0,), (1, 1))])
    def test_empty_box_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="need lo_j < hi_j on every axis"):
            lemma10_levelset_measure(lo, hi, [6.0], 2, DyadicGrid((6, 6)))

    @given(
        st.integers(3, 6),
        st.integers(1, 2),
        st.lists(st.integers(-3, 11), min_size=2, max_size=2),
        st.integers(1, 6),
        st.integers(1, 6),
        st.sampled_from([1.5, 3.0, 6.0, 20.0, 64.0]),
    )
    @example(4, 2, [6, 6], 4, 4, 64.0)  # the level set reaches the boundary
    @example(5, 1, [-2, 30], 4, 4, 6.0)  # the rectangle overhangs two walls
    @settings(max_examples=60, deadline=None)
    def test_box_route_equals_the_whole_grid_route(self, bits, k, lo, w0, w1, h):
        # oracle: the rectangle's whole-grid mask (clipped to the grid, as
        # the function is zero past its walls), its indicator and the level
        # set painted on the grid; a face scan decides the boundary case
        grid = DyadicGrid((bits, bits))
        hi = (lo[0] + w0, lo[1] + (w0 if k == 1 else w1))
        mask = np.zeros(grid.shape, dtype=bool)
        mask[tuple(slice(max(a, 0), max(b, 0)) for a, b in zip(lo, hi))] = True
        f = StepFunction.indicator(GridSet(grid, mask), h)
        ladder = dyadic_ladder(grid.shape[0])
        ls = max_level_set(f, BasisSpec("axis", k), 1, ladder=ladder)
        if boundary_touch(ls.mask):
            with pytest.raises(InfeasibleError):
                lemma10_levelset_measure(lo, hi, [h], k, grid, ladder=ladder)
        else:
            (meas,) = lemma10_levelset_measure(lo, hi, [h], k, grid, ladder=ladder)
            assert meas == ls.measure()

    def test_rational_mode_exact_measure(self):
        grid = DyadicGrid((6, 6))
        ladder = dyadic_ladder(64)
        (meas,) = lemma10_levelset_measure((30, 30), (34, 34), [6.0], 2, grid, ladder=ladder)
        assert isinstance(meas, Fraction)
        # oracle: the brute route's level set of the same indicator
        mask = np.zeros(grid.shape, dtype=bool)
        mask[30:34, 30:34] = True
        f = StepFunction.indicator(GridSet(grid, mask), 6)
        brute = max_field_brute(f, BasisSpec("axis", 2), ladder=ladder)
        assert meas == level_set(brute, 1).measure()
