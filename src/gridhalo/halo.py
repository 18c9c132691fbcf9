"""Halo-function estimation and the quantitative level-set lemmas.

The halo function of a basis is the limiting normalized measure of
{M^(tr)(h·chi_ball) > 1} relative to the ball.  The double limit is not
computable, so the estimator reports the measured ratio on a finite
(t, r) lattice and aggregates by max; each sample is therefore a certified
lower bound and convergence can be inspected sample by sample.  Level sets
are exact, over the dyadic width ladder and without building the field,
and a sample (a halo or Lemma-10 one) runs on the support box from input to
verdict: h·chi_ball, or h·chi_I, is a rational numerator crop of its
bounding box, one placement pass of ``maxop`` finds the rectangles that
average above 1, and one paint draws their union on the runs' bounding box,
where the cells are counted and boundary contact is read off the box's
walls.  No array spans the grid.  Only shapes small enough to average above
1 on the ball's mass are evaluated, and only near the ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import DyadicGrid, GridSet, _payload
from .maxop import BasisSpec, _embed, _paint, _placement_pass, _support, dyadic_ladder

__all__ = [
    "HaloProbe",
    "HaloEstimate",
    "HaloSample",
    "DomainTooSmallError",
    "discrete_ball",
    "halo_estimate",
    "halo_fit",
    "lemma9_integral",
    "lemma10_levelset_measure",
    "Lemma10Result",
    "QuadratureError",
]


class DomainTooSmallError(RuntimeError):
    """The grid is too small for the sample (a level set reaches its
    boundary, or no sweep value fits); enlarge the domain."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class HaloProbe:
    """One halo-estimation setup: an axis basis, amplitude and grid."""

    basis: BasisSpec
    h: float
    grid_bits: int

    def __post_init__(self):
        if self.basis.kind != "axis":
            raise ValueError("halo probes take the axis basis only")
        if self.h <= 1:
            raise ValueError("halo amplitude must satisfy h > 1")
        if self.grid_bits < 2:
            raise ValueError("grid too small")


@dataclass(frozen=True)
class HaloSample:
    t: float
    r_cells: int
    ball_cells: int
    levelset_cells: int
    ratio: float
    clipped: bool  # level set touched the grid boundary


@dataclass(frozen=True)
class HaloEstimate:
    h: float
    samples: tuple[HaloSample, ...]
    phi_hat: float


def _ball_box(grid: DyadicGrid, r_cells: float, center=None):
    """``discrete_ball`` on the ball's bounding box: the box's lower corner
    and its cells inside the ball, as a bool mask of the box.

    A float sum of nonnegative terms is at least each term, so a cell whose
    offset along one axis already squares to r^2 or more lies outside.
    Inside the box the terms are summed in axis order, as a whole-grid sum
    adds them, so the mask is the same bit for bit."""
    if len(set(grid.cell_size)) != 1:
        raise ValueError("discrete balls need an isotropic grid")
    if center is None:
        center = tuple(s / 2.0 for s in grid.shape)
    if len(center) != grid.n:
        raise ValueError(f"center needs {grid.n} coordinates, got {len(center)}")
    r2 = float(r_cells) ** 2
    corner, d2 = [], 0.0
    for ax, (m, c) in enumerate(zip(grid.shape, center)):
        term = (np.arange(m, dtype=np.float64) + 0.5 - float(c)) ** 2
        near = np.flatnonzero(term < r2)
        if not near.size:
            return (0,) * grid.n, np.zeros((0,) * grid.n, dtype=bool)
        corner.append(int(near[0]))
        d2 = d2 + term[near[0] : near[-1] + 1].reshape((-1,) + (1,) * (grid.n - 1 - ax))
    return tuple(corner), d2 < r2


def discrete_ball(grid: DyadicGrid, r_cells: float, center=None) -> GridSet:
    """Cells whose centers lie within Euclidean distance r of the center.

    Distances are in cell units of axis 0; the grid must be isotropic.
    Only the ball's bounding box is computed (``_ball_box``)."""
    corner, inside = _ball_box(grid, r_cells, center)
    return GridSet._own(grid, _embed(grid.shape, inside, corner))


def _level_set_box(grid: DyadicGrid, den: int, support, basis: BasisSpec, r=None, ladder=None):
    """The cell count of {M f > 1} for f = crop / den at ``support = (crop,
    corner)`` (``maxop._placement_pass``), and whether the set reaches the
    grid boundary: one placement pass and one paint, on the winning runs'
    bounding box, which is tight, so the set touches the boundary exactly
    when the box starts at 0 or ends at the grid size on some axis."""
    box, corner = _paint(grid.shape, *_placement_pass(grid, den, support, basis, 1, r, ladder))
    ends = zip(corner, box.shape, grid.shape)
    return int(box.sum()), box.size > 0 and any(c == 0 or c + s == m for c, s, m in ends)


def halo_estimate(probe: HaloProbe, t_list, r_list) -> HaloEstimate:
    """Measured halo ratios over a finite (t, r) lattice, aggregated by max.

    Each sample runs on the ball's bounding box: the indicator h * chi_ball
    is a numerator crop of that box, and the level set is counted on the
    bounding box of its winning runs, so no array spans the grid."""
    t_list = [float(t) for t in t_list]
    r_list = [int(r) for r in r_list]
    if not t_list or not r_list:
        raise ValueError("t/r sample lists must be nonempty")
    if not all(t > 1 for t in t_list):
        raise ValueError("truncation multipliers must satisfy t > 1")
    if any(r < 1 for r in r_list):
        raise ValueError("ball radii must be at least 1 cell")
    grid = DyadicGrid((probe.grid_bits,) * 2)
    ladder = dyadic_ladder(max(grid.shape))
    top, den = _payload([0, probe.h], [1])
    samples = []
    for r_cells in r_list:
        corner, inside = _ball_box(grid, r_cells)
        crop = np.zeros(inside.shape, dtype=top.dtype)
        crop[inside] = top
        support, ball_cells = _support(crop, corner), int(inside.sum())
        for t in t_list:
            # t = inf drops the truncation entirely (still a valid sample:
            # the truncated level sets increase to the untruncated one)
            r_phys = None if math.isinf(t) else t * r_cells * float(grid.cell_size[0])
            cells, clipped = _level_set_box(grid, den, support, probe.basis, r_phys, ladder)
            samples.append(HaloSample(t, r_cells, ball_cells, cells, cells / ball_cells, clipped))
    phi_hat = max(s.ratio for s in samples)
    return HaloEstimate(probe.h, tuple(samples), phi_hat)


def halo_fit(h_samples, phi_values, model_exponent: int) -> tuple[float, float]:
    """Band of Phi(h) / (h (1+ln h)^exponent) over the sweep."""
    hs = [float(h) for h in h_samples]
    ps = [float(p) for p in phi_values]
    if len(hs) != len(ps) or len(hs) < 3:
        raise ValueError("need at least three matched samples")
    if any(h <= 1 for h in hs):
        raise ValueError("samples need h > 1")
    ratios = [p / (h * (1 + math.log(h)) ** model_exponent) for h, p in zip(hs, ps)]
    if min(ratios) <= 0:
        raise ValueError("non-positive halo estimate")
    return min(ratios), max(ratios)


def _log_region_integral(n: int, h: float, tol: float) -> float:
    """Integral of 1/(x_1...x_n) over {x_j > 1, prod x_j < h}, by the
    one-variable Fubini recursion."""
    from scipy.integrate import quad  # on first use: most of the import time
    if n == 1:
        return math.log(h)
    if h <= 1:
        return 0.0

    def integrand(t: float) -> float:
        return _log_region_integral(n - 1, h / t, tol) / t

    val, err = quad(integrand, 1.0, h, epsabs=tol, epsrel=tol, limit=200)
    if err > max(tol * 100, abs(val) * 1e-6):
        raise QuadratureError(f"estimated error {err} too large for tolerance {tol}")
    return val


def lemma9_integral(n: int, deltas, h: float, tol: float = 1e-10) -> float:
    """Integral of 1/(x_1...x_n) over {x_j > delta_j, prod x_j < h prod delta_j}.

    The substitution y_j = x_j / delta_j removes the deltas exactly, so the
    value depends on h alone; deltas are validated and then cancel.
    """
    deltas = [float(d) for d in deltas]
    if len(deltas) != n:
        raise ValueError("need one delta per axis")
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    if h <= 1:
        raise ValueError("h > 1 required")
    return _log_region_integral(n, float(h), tol)


@dataclass(frozen=True)
class Lemma10Result:
    levelset_measure: Fraction
    rect_measure: Fraction
    ratio_exponent_k: float  # |levelset| / (h (1+ln h)^k |I|)
    ratio_exponent_km1: float  # same with exponent k-1
    normalization_ok: bool  # whether h > 2^n held


def lemma10_levelset_measure(
    I,
    h: float,
    k: int,
    grid: DyadicGrid,
    ladder=None,
) -> Lemma10Result:
    """Measured level set {M(h chi_I) > 1} for the <=k-distinct-edges basis.

    I must have equal physical edges on axes k..n.  Returns the measured
    level-set measure and its ratios to both candidate growth models.
    """
    n = grid.n
    edges = I.edge_lengths(grid)
    if len(set(edges[k - 1 :])) != 1:
        raise ValueError("edges k..n of I must be equal")
    if h <= 1:
        raise ValueError("h > 1 required")
    normalization_ok = h > 2**n
    # I's cells on the grid (the function is zero past its walls)
    lo = [max(a, 0) for a in I.lo]
    top, den = _payload([0, h], [1])
    size = [max(min(b, m) - a, 0) for a, b, m in zip(lo, I.hi, grid.shape)]
    support = _support(np.full(size, top[0], dtype=top.dtype), lo)
    # basis with <= k distinct edge values (k = 1: cubes)
    cells, touch = _level_set_box(grid, den, support, BasisSpec("axis", min(k, n)), ladder=ladder)
    if touch:
        raise DomainTooSmallError("level set reaches the grid boundary")
    meas = cells * grid.cell_volume
    rect = I.volume(grid)
    model_k = float(h) * (1 + math.log(h)) ** k * float(rect)
    model_km1 = float(h) * (1 + math.log(h)) ** (k - 1) * float(rect)
    return Lemma10Result(
        levelset_measure=meas,
        rect_measure=rect,
        ratio_exponent_k=float(meas) / model_k,
        ratio_exponent_km1=float(meas) / model_km1,
        normalization_ok=normalization_ok,
    )
