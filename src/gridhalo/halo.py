"""Halo-function estimation and the quantitative level-set lemmas.

The halo function of a basis is the limiting normalized measure of
{M^(tr)(h·chi_ball) > 1} relative to the ball.  The double limit is not
computable, so the estimator reports the measured ratio on a finite
(t, r) lattice and aggregates by max; each sample is therefore a certified
lower bound and convergence can be inspected sample by sample.  Level sets
are exact, over the dyadic width ladder and without building the field.
The maximal operator is positively homogeneous, so {M(h·chi) > 1} =
{M chi > 1/h}: h only moves the threshold, and a sweep over h (halo, or
Lemma 10's amplitudes on one rectangle) is one placement pass per ball
and truncation.  Such a pass runs on the support box from input to
verdict: chi_ball, or chi_I, is a numerator crop of its bounding box, one
placement pass of ``maxop`` finds, for every h at once, the rectangles
that average above 1/h, as runs, boxes of placements with a count per
axis; a shape wider than the support costs what one as wide as it does,
since its placements covering the support share one sum, evaluated once.
One paint per h cuts the runs' bounding box into slabs at their walls:
the set's cells are the painted slabs' volumes, and boundary contact is
read off the outer walls.  No array spans the grid, nor the set.  Only
shapes small enough to average above the smallest threshold on the
ball's mass are evaluated, and only near the ball.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .grid import DyadicGrid, InfeasibleError
from .growth import log_power_growth
from .maxop import BasisSpec, _paint, _placement_pass, _support, dyadic_ladder

__all__ = [
    "halo_estimate",
    "halo_fit",
    "lemma9_integral",
    "lemma10_levelset_measure",
]


def _ball_box(grid: DyadicGrid, r: int):
    """The cells whose centres lie less than ``r`` cells from the centre of
    a square grid of an even number of cells per axis: the lower corner
    of the ball's bounding box and its cells as a bool mask of the box.

    Cell m/2 + j of an axis of m cells lies (2j + 1)/2 cells from the
    centre along it, so the ball is sum_j (2j + 1)^2 < 4 r^2, on integers,
    and its box spans j in [-r, r) on each axis, clipped to the grid."""
    half = grid.shape[0] // 2
    reach = min(r, half)
    odd2 = (2 * np.arange(-reach, reach) + 1) ** 2
    return (half - reach,) * grid.n, sum(np.ix_(*(odd2,) * grid.n)) < 4 * r * r


def _level_set_box(grid: DyadicGrid, support, basis: BasisSpec, hs, r=None, ladder=None):
    """Per amplitude h of ``hs``, the cell count of {M(h f) > 1} for the
    indicator f at ``support = (crop, corner)`` (``maxop._placement_pass``,
    den 1), and whether the set reaches the grid boundary.

    M is positively homogeneous, so {M(h f) > 1} = {M f > 1/h}: one
    placement pass at the thresholds 1/h serves every h, and one paint per
    h, in slab space, where the set's cells are the sum of its slabs'
    volumes; its walls bound the set tightly, so the set touches the
    boundary exactly when the first wall is 0 or the last the grid size on
    some axis.  The compare S * h_num > h_den * |R| is the one a pass over
    the numerators h * f makes."""
    out = []
    for runs in _placement_pass(grid, 1, support, basis, [1 / Fraction(h) for h in hs], r, ladder):
        slabs, walls = _paint(grid.shape, *runs)
        # Python ints once the box could hold 2^63 cells; einsum casts the
        # slabs in buffered chunks, never the whole array at once
        big = math.prod(int(cut[-1] - cut[0]) for cut in walls) >= 1 << 63
        cells = slabs
        for cut in reversed(walls):
            cells = np.einsum("...j,j->...", cells, np.diff(cut).astype(object if big else np.int64))
        touch = any(cut[0] == 0 or cut[-1] == m for cut, m in zip(walls, grid.shape))
        out.append((int(cells), slabs.size > 0 and touch))
    return out


def halo_estimate(
    basis: BasisSpec, grid_bits: int, hs, t_list, r_list
) -> tuple[tuple[float, bool], ...]:
    """Measured halo ratios of the axis ``basis`` on the grid with
    2^grid_bits cells per axis, over a finite (t, r) lattice: per amplitude
    h of the sweep ``hs``, ``(phi_hat, clipped)``, the largest ratio
    |{M(h chi_ball) > 1}| / |ball| over the lattice and whether any of its
    level sets reaches the grid boundary.

    Each sample runs on the ball's bounding box: the indicator chi_ball is
    a numerator crop of that box, one placement pass per (ball, t) serves
    every h, and each level set is counted in the slab space of its
    winning runs, so no array spans the grid."""
    hs = [float(h) for h in hs]
    t_list = [float(t) for t in t_list]
    r_list = [int(r) for r in r_list]
    if basis.kind != "axis":
        raise ValueError("halo estimates take the axis basis only")
    if not hs:
        raise ValueError("the h sweep needs at least one amplitude")
    if not all(h > 1 for h in hs):
        raise ValueError("halo amplitudes must satisfy h > 1")
    if grid_bits < 2:
        raise ValueError("grid too small")
    if not t_list or not r_list:
        raise ValueError("t/r sample lists must be nonempty")
    if not all(t > 1 for t in t_list):
        raise ValueError("truncation multipliers must satisfy t > 1")
    if any(r < 1 for r in r_list):
        raise ValueError("ball radii must be at least 1 cell")
    grid = DyadicGrid((grid_bits,) * 2)
    ladder = dyadic_ladder(max(grid.shape))
    best = [(0.0, False)] * len(hs)
    for r_cells in r_list:
        corner, inside = _ball_box(grid, r_cells)
        support, ball_cells = _support(inside, corner), int(inside.sum())
        for t in t_list:
            # t = inf drops the truncation entirely (still a valid sample:
            # the truncated level sets increase to the untruncated one)
            r_phys = None if math.isinf(t) else t * r_cells * float(grid.cell_size[0])
            sets = _level_set_box(grid, support, basis, hs, r_phys, ladder)
            best = [
                (max(phi, cells / ball_cells), clipped or touch)
                for (phi, clipped), (cells, touch) in zip(best, sets)
            ]
    return tuple(best)


def halo_fit(h_samples, phi_values, model_exponent: int) -> tuple[float, float]:
    """Band of Phi(h) / (h (1+ln h)^exponent) over the sweep, the scale
    being ``log_power_growth(exponent + 1)``; an ``InfeasibleError`` when
    the model's scale passes the float range."""
    hs = [float(h) for h in h_samples]
    ps = [float(p) for p in phi_values]
    if len(hs) != len(ps) or len(hs) < 3:
        raise ValueError("need at least three matched samples")
    if any(h <= 1 for h in hs):
        raise ValueError("samples need h > 1")
    model = log_power_growth(model_exponent + 1)
    ratios = []
    for h, p in zip(hs, ps):
        # past the float range the power raises OverflowError, or its
        # product with h rounds to inf: either way the band is out of reach
        try:
            scale = model(h)
        except OverflowError:
            scale = math.inf
        if scale == math.inf:
            raise InfeasibleError(
                f"the band model h (1 + ln h)^{model_exponent} overflows a float at "
                f"h={h:g}; use a smaller growth_exponent"
            )
        ratios.append(p / scale)
    if min(ratios) <= 0:
        raise ValueError("non-positive halo estimate")
    return min(ratios), max(ratios)


# absolute and relative tolerance of each quadrature step of Lemma 9
_LEMMA9_TOL = 1e-10


@functools.cache
def _gauss_nodes():
    """The (node, weight) pairs of the 7- and 15-point Gauss-Legendre rules on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss  # on first use: only lemmas needs it
    return tuple(list(zip(x.tolist(), w.tolist())) for x, w in map(leggauss, (7, 15)))


def _gauss_quad(f, a: float, b: float) -> float:
    """Integral of f over [a, b] to ``_LEMMA9_TOL``, absolute or relative.

    Each panel is integrated by the 7- and 15-point Gauss rules: its value
    is the 15-point sum and its error estimate the difference of the two.
    The panel with the largest estimate is bisected (the QAG scheme of
    QUADPACK) until the total estimate meets the tolerance or 200 panels
    are reached; an estimate still far above it is an ``InfeasibleError``."""
    import heapq

    def panel(lo: float, hi: float):
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        g7, g15 = (half * sum(w * f(mid + half * x) for x, w in rule) for rule in _gauss_nodes())
        return -abs(g15 - g7), lo, hi, g15

    heap = [panel(a, b)]
    while True:
        val, err = math.fsum(p[3] for p in heap), -math.fsum(p[0] for p in heap)
        if err <= max(_LEMMA9_TOL, _LEMMA9_TOL * abs(val)) or len(heap) >= 200:
            break
        _, lo, hi, _ = heapq.heappop(heap)
        heapq.heappush(heap, panel(lo, (lo + hi) / 2))
        heapq.heappush(heap, panel((lo + hi) / 2, hi))
    if err > max(_LEMMA9_TOL * 100, abs(val) * 1e-6):
        raise InfeasibleError(f"estimated error {err} too large for tolerance {_LEMMA9_TOL}")
    return val


def _log_region_integral(n: int, h: float) -> float:
    """Integral of 1/(x_1...x_n) over {x_j > 1, prod x_j < h}, by the
    one-variable Fubini recursion, to ``_LEMMA9_TOL``."""
    if n == 1:
        return math.log(h)
    if h <= 1:
        return 0.0
    return _gauss_quad(lambda t: _log_region_integral(n - 1, h / t) / t, 1.0, h)


def lemma9_integral(n: int, h: float) -> float:
    """Integral of 1/(x_1...x_n) over {x_j > delta_j, prod x_j < h prod delta_j}
    for any positive deltas: the substitution y_j = x_j / delta_j removes
    them exactly, so the value depends on n and h alone."""
    if n < 1:
        raise ValueError("need at least one axis")
    if h <= 1:
        raise ValueError("h > 1 required")
    return _log_region_integral(n, float(h))


def lemma10_levelset_measure(
    lo, hi, hs, k: int, grid: DyadicGrid, ladder=None
) -> tuple[Fraction, ...]:
    """Exact measures of the level sets {M(h chi_I) > 1} for the
    <=k-distinct-edges basis, one per amplitude h of ``hs``, all from one
    placement pass (``_level_set_box``); an ``InfeasibleError`` when any
    of them reaches the grid boundary.

    I is the cell box ``[lo_j, hi_j)``, nonempty on every axis; it may
    overhang the grid, past whose walls the function is zero.  I must have
    equal physical edges on axes k..n.
    """
    hs = list(hs)
    if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
        raise ValueError("need lo_j < hi_j on every axis")
    edges = [(b - a) * c for a, b, c in zip(lo, hi, grid.cell_size)]
    if len(set(edges[k - 1 :])) != 1:
        raise ValueError("edges k..n of I must be equal")
    if not hs or any(h <= 1 for h in hs):
        raise ValueError("h > 1 required")
    # I's cells on the grid (the function is zero past its walls)
    lo = [max(a, 0) for a in lo]
    size = [max(min(b, m) - a, 0) for a, b, m in zip(lo, hi, grid.shape)]
    support = _support(np.ones(size, dtype=bool), lo)
    # basis with <= k distinct edge values (k = 1: cubes)
    sets = _level_set_box(grid, support, BasisSpec("axis", min(k, grid.n)), hs, ladder=ladder)
    if any(touch for _, touch in sets):
        raise InfeasibleError("level set reaches the grid boundary")
    return tuple(cells * grid.cell_volume for cells, _ in sets)
