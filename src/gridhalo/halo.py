"""Halo-function estimation and the quantitative level-set lemmas.

The halo function of a basis is the limiting normalized measure of
{M^(tr)(h·chi_ball) > 1} relative to the ball.  The double limit is not
computable, so the estimator reports the measured ratio on a finite
(t, r) lattice and aggregates by max; each sample is therefore a certified
lower bound and convergence can be inspected sample by sample.  Level sets
are exact: the ball indicator is a rational step function and every
sample's field is the exact axis-basis field over the dyadic width ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from .grid import DyadicGrid, GridSet, StepFunction
from .maxop import BasisSpec, dyadic_ladder, level_set, max_field_fast

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
    """The level set reaches the grid boundary; enlarge the domain."""


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


def discrete_ball(grid: DyadicGrid, r_cells: float, center=None) -> GridSet:
    """Cells whose centers lie within Euclidean distance r of the center.

    Distances are in cell units of axis 0; the grid must be isotropic.
    """
    if len(set(grid.cell_size)) != 1:
        raise ValueError("discrete balls need an isotropic grid")
    shape = grid.shape
    if center is None:
        center = tuple(s / 2.0 for s in shape)
    grids = np.indices(shape).astype(np.float64) + 0.5
    d2 = np.zeros(shape)
    for ax in range(grid.n):
        d2 += (grids[ax] - center[ax]) ** 2
    return GridSet(grid, d2 < float(r_cells) ** 2)


def _boundary_touch(mask: np.ndarray) -> bool:
    return any(
        bool(mask.take(0, axis=ax).any() or mask.take(-1, axis=ax).any())
        for ax in range(mask.ndim)
    )


def halo_estimate(probe: HaloProbe, t_list, r_list) -> HaloEstimate:
    """Measured halo ratios over a finite (t, r) lattice, aggregated by max."""
    t_list = [float(t) for t in t_list]
    r_list = [int(r) for r in r_list]
    if not t_list or not r_list:
        raise ValueError("t/r sample lists must be nonempty")
    if any(t <= 1 for t in t_list):
        raise ValueError("truncation multipliers must satisfy t > 1")
    grid = DyadicGrid((probe.grid_bits,) * 2)
    ladder = dyadic_ladder(max(grid.shape))
    samples = []
    for r_cells in r_list:
        ball = discrete_ball(grid, r_cells)
        f = StepFunction.indicator(ball, probe.h)
        for t in t_list:
            # t = inf drops the truncation entirely (still a valid sample:
            # the truncated level sets increase to the untruncated one)
            r_phys = None if math.isinf(t) else t * r_cells * float(grid.cell_size[0])
            fld = max_field_fast(f, probe.basis, r=r_phys, ladder=ladder)
            ls = level_set(fld, 1)
            samples.append(
                HaloSample(
                    t=t,
                    r_cells=r_cells,
                    ball_cells=ball.popcount,
                    levelset_cells=ls.popcount,
                    ratio=ls.popcount / ball.popcount,
                    clipped=_boundary_touch(ls.mask),
                )
            )
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
    mask = np.zeros(grid.shape, dtype=bool)
    sl = tuple(slice(lo, hi) for lo, hi in zip(I.lo, I.hi))
    mask[sl] = True
    ind = GridSet(grid, mask)
    f = StepFunction.indicator(ind, h)
    # basis with <= k distinct edge values (k = 1: cubes)
    fld = max_field_fast(f, BasisSpec("axis", min(k, n)), r=None, ladder=ladder)
    ls = level_set(fld, 1)
    if _boundary_touch(ls.mask):
        raise DomainTooSmallError("level set reaches the grid boundary")
    meas = ls.measure()
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
