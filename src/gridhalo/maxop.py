"""Truncated maximal-operator fields and level sets over rectangle bases.

One per-shape step (window sums over every placement of the shape) feeds
two reductions.  The field reduction takes the sliding maximum over the
placements that contain each cell and keeps the larger average per cell;
it has two routes, a brute one (direct repeated-addition window sums and a
linear placement scan), kept as the oracle, and the production one
(differences of one summed-area table and a sparse-table sliding
maximum).  Both work on
common-denominator integers (int64, or Python ints when int64 could
overflow), so they agree bit for bit; a field keeps only that integer
payload, and ``level_set`` compares it cross-multiplied with the
threshold.

The level-set reduction, ``max_level_set``, computes {M f > lam} without
the field.  It skips every shape whose average cannot exceed lam even
with the whole mass of f inside (exact, since f is nonnegative), works
only on the support's bounding box, decides each placement by one
cross-multiplied integer compare, and dilates the mask of winning
placements by the shape.

Evaluation point is the cell center; since admissible rectangles are
cell-aligned, "contains the center" and "contains the cell" coincide.
Rectangles may overhang the ambient box: the function is extended by zero
and the full rectangle volume stays in the denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .grid import DyadicGrid, GridSet, StepFunction, _frozen, _text_chunks, _value_table

__all__ = [
    "BasisSpec",
    "MaxField",
    "EmptyFamilyError",
    "enumerate_shapes",
    "max_field_brute",
    "max_field_fast",
    "level_set",
    "max_level_set",
    "dyadic_ladder",
    "save_max_field",
]


class EmptyFamilyError(ValueError):
    """No admissible rectangle exists (truncation too tight for the grid)."""


@dataclass(frozen=True)
class BasisSpec:
    """Axis-interval basis with <= k distinct edge lengths, or its rotation.

    kind "axis": members are axis-parallel intervals whose physical edge
    lengths take at most ``k`` distinct values.  kind "rotated" (n = 2):
    members are the same rectangles rotated by ``gamma`` about their own
    center.
    """

    kind: str = "axis"
    k: int = 2
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("axis", "rotated"):
            raise ValueError("kind must be 'axis' or 'rotated'")
        if self.k < 1:
            raise ValueError("k >= 1 required")

    def describe(self) -> str:
        if self.kind == "axis":
            return f"I^{self.k}"
        return f"I^{self.k}(gamma={self.gamma:.6g})"


@dataclass(frozen=True, eq=False)
class MaxField:
    """Per-cell truncated maximal function values at cell centers.

    The exact payload is value = num / (den * scale), as int64 arrays or,
    when int64 could overflow, object arrays of ints.
    """

    grid: DyadicGrid
    basis: BasisSpec
    r: object  # truncation radius (Fraction or None for infinity)
    num: np.ndarray
    den: np.ndarray
    scale: int = 1

    @cached_property
    def values(self) -> np.ndarray:
        """The field as Fractions, built on first use."""
        table, codes = _value_table(self.num, self.scale, self.den)
        return _frozen(table[codes].reshape(self.grid.shape))


def dyadic_ladder(maxw: int) -> list[int]:
    """Widths 1, 2, 4, ... up to maxw."""
    out = []
    w = 1
    while w <= maxw:
        out.append(w)
        w *= 2
    return out


def _radius_sq(r) -> Fraction | None:
    if r is None or r == math.inf:
        return None
    rf = Fraction(r)
    if rf <= 0:
        raise ValueError("truncation radius must be positive")
    return rf * rf


def enumerate_shapes(
    basis: BasisSpec,
    grid: DyadicGrid,
    r=None,
    ladder: Sequence[int] | None = None,
) -> list[tuple[int, ...]]:
    """Admissible rectangle shapes in cells, deduplicated.

    A shape is admissible when its physical edge lengths take at most
    ``basis.k`` distinct values and its Euclidean diameter is < r.  With a
    ``ladder`` only those per-axis widths are sampled (the resulting field
    is then a certified lower bound on the full-family field).
    """
    r2 = _radius_sq(r)
    # edge lengths in units of 1/scale are integers (scale is a power of two
    # for dyadic cells), so both tests run on ints
    scale = math.lcm(*(c.denominator for c in grid.cell_size))
    units = [int(c * scale) for c in grid.cell_size]
    if ladder is None:
        per_axis = [list(range(1, s + 1)) for s in grid.shape]
    else:
        per_axis = [[w for w in ladder if 1 <= w <= s] for s in grid.shape]
    if not all(per_axis):
        raise EmptyFamilyError("no admissible rectangle shape under this truncation")
    top = sum((max(ws) * u) ** 2 for ws, u in zip(per_axis, units))
    # an integer diameter^2 is < r^2 exactly when it is < ceil(r^2)
    limit = top + 1 if r2 is None else min(top + 1, math.ceil(r2 * scale * scale))
    dtype = np.int64 if top < 1 << 62 else object
    *head, last = per_axis
    last_w = np.array(last)
    last_len = np.array([w * units[-1] for w in last], dtype=dtype)
    # the last axis is vectorised; the product order is that of itertools
    shapes = []
    for prefix in itertools.product(*head):
        lengths = {w * u for w, u in zip(prefix, units)}
        if len(lengths) > basis.k:
            continue
        ok = sum(w * w * u * u for w, u in zip(prefix, units)) + last_len * last_len < limit
        if len(lengths) == basis.k:
            ok &= np.isin(last_len, list(lengths))
        shapes.extend((*prefix, w) for w in last_w[ok].tolist())
    if not shapes:
        raise EmptyFamilyError("no admissible rectangle shape under this truncation")
    return shapes


# ---------------------------------------------------------------------------
# shared low-level pieces


def _prepare_values(f: StepFunction) -> np.ndarray:
    """The numerators to sum: int64, or object ints when a window sum could
    overflow int64."""
    total = float(f.num.astype(np.float64).sum())
    # float estimate of the worst numerator (at most total cells of shape
    # volume); the factor-2 headroom (2^61, not 2^62) absorbs its rounding
    fits = (total * 1.01 + 1) * f.grid.total_cells < float(1 << 61)
    return f.num.astype(np.int64 if fits else object, copy=False)


def _summed_area(arr: np.ndarray) -> np.ndarray:
    """Prefix sums along every axis: the table ``_window_sums_fast``
    differences, built once and shared by every shape."""
    for ax in range(arr.ndim):
        arr = np.cumsum(arr, axis=ax)
    return arr


def _window_sums_fast(c: np.ndarray, w: int, axis: int, scratch=None) -> np.ndarray:
    """Placement sums from prefix sums ``c`` along axis (c[i] = sum of
    cells 0..i); output length N + w - 1 along axis.

    Placement j covers cells j-w+1 .. j clipped to the box, so it sums to
    c[min(j, N-1)] - c[j-w], with no subtrahend while j < w; the pieces
    are written straight into one output, a new array or the head of the
    flat ``scratch`` array."""
    n = c.shape[axis]

    def at(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    shape = c.shape[:axis] + (n + w - 1,) + c.shape[axis + 1 :]
    if scratch is None:
        out = np.empty(shape, dtype=c.dtype)
    else:
        out = scratch[: math.prod(shape)].reshape(shape)
    head, tail = min(w, n), max(n, w)
    out[at(0, head)] = c[at(0, head)]
    if w < n:
        np.subtract(c[at(w, n)], c[at(0, n - w)], out=out[at(w, n)])
    else:
        out[at(n, w)] = c[at(n - 1, n)]
    np.subtract(c[at(n - 1, n)], c[at(tail - w, n - 1)], out=out[at(tail, None)])
    return out


def _window_sums_direct(arr: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Placement sums by direct repeated addition (brute route)."""
    arr = np.moveaxis(arr, axis, -1)
    n = arr.shape[-1]
    pad = np.zeros(arr.shape[:-1] + (n + 2 * (w - 1),), dtype=arr.dtype)
    pad[..., w - 1 : w - 1 + n] = arr
    out = np.zeros(arr.shape[:-1] + (n + w - 1,), dtype=arr.dtype)
    for o in range(w):
        out = out + pad[..., o : o + n + w - 1]
    return np.moveaxis(out, -1, axis)


def _sliding_max_fast(arr: np.ndarray, w: int, axis: int) -> np.ndarray:
    """max over arr[i : i+w] by sparse-table doubling (exact for every
    dtype); output length L-w+1 along axis."""
    arr = np.moveaxis(arr, axis, -1)
    if w > 1:
        p = 1 << (w.bit_length() - 1)
        step = 1
        while step < p:
            arr = np.maximum(arr[..., :-step], arr[..., step:])
            step *= 2
        arr = np.maximum(arr[..., : arr.shape[-1] - (w - p)], arr[..., w - p :])
    return np.moveaxis(arr, -1, axis)


def _placement_max_direct(arr: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Same reduction as _sliding_max_fast but by a plain linear scan."""
    arr = np.moveaxis(arr, axis, -1)
    L = arr.shape[-1]
    out = arr[..., : L - w + 1].copy()
    for t in range(1, w):
        out = np.maximum(out, arr[..., t : t + L - w + 1])
    return np.moveaxis(out, -1, axis)


def _accumulate(best_num, best_den, S, d):
    """Pointwise keep the larger average; exact compare is cross-multiplied."""
    better = S * best_den > best_num * d
    return np.where(better, S, best_num), np.where(better, d, best_den)


def _family(f: StepFunction, basis: BasisSpec, r, ladder, shapes) -> list:
    """The shapes a kernel runs over: ``shapes`` when given, else every
    admissible shape."""
    if basis.kind != "axis":
        raise NotImplementedError(
            "max fields are axis-basis only; rotated bases get certified level "
            "sets from gridhalo.witness"
        )
    if shapes is None:
        return enumerate_shapes(basis, f.grid, r, ladder)
    if not shapes:
        raise EmptyFamilyError("empty explicit shape list")
    return shapes


def _placement_sums(table: np.ndarray, shape, window_sums) -> np.ndarray:
    """The per-shape step: the sum of f over every placement of ``shape``
    that meets the box, N + w - 1 placements per axis, from a route's table
    of f."""
    for ax, w in enumerate(shape):
        table = window_sums(table, w, ax)
    return table


# a route: the table of f's numerators that its per-axis window sums read,
# those window sums, and the per-axis max over the placements at a cell
_BRUTE = (lambda arr: arr, _window_sums_direct, _placement_max_direct)
_FAST = (_summed_area, _window_sums_fast, _sliding_max_fast)


def _max_field(f: StepFunction, basis: BasisSpec, r, ladder, route, shapes=None) -> MaxField:
    shapes = _family(f, basis, r, ladder, shapes)
    table, window_sums, placement_max = route
    arr = _prepare_values(f)
    best_num = np.zeros(f.grid.shape, dtype=arr.dtype)
    best_den = np.ones(f.grid.shape, dtype=arr.dtype)
    tab = table(arr)
    for shape in shapes:
        S = _placement_sums(tab, shape, window_sums)
        for ax, w in enumerate(shape):
            S = placement_max(S, w, ax)
        best_num, best_den = _accumulate(best_num, best_den, S, math.prod(shape))
    r = None if r is None else Fraction(r)
    return MaxField(f.grid, basis, r, best_num, best_den, f.den)


def max_field_brute(f: StepFunction, basis: BasisSpec, r=None, ladder=None, shapes=None) -> MaxField:
    """Reference field: direct window accumulation, linear placement scan."""
    return _max_field(f, basis, r, ladder, _BRUTE, shapes)


def max_field_fast(f: StepFunction, basis: BasisSpec, r=None, ladder=None, shapes=None) -> MaxField:
    """Summed-area window sums + doubling sliding max; contract-identical
    to brute.

    An explicit ``shapes`` list restricts the family to those cell shapes
    (used to re-verify recorded certificates on refined grids).
    """
    return _max_field(f, basis, r, ladder, _FAST, shapes)


def _exceeds(num: np.ndarray, q: int, den, c: int, num_max: int) -> np.ndarray:
    """``num * q > den * c`` elementwise and exactly, given num <= num_max
    and ``den`` an int or an array: int64 products while num_max * q and
    c * max(den) stay below 2^62, Python ints past that."""
    if num.dtype != object and not (
        num_max * q < 1 << 62 and c * int(np.max(den, initial=1)) < 1 << 62
    ):
        num = num.astype(object)
        if isinstance(den, np.ndarray):
            den = den.astype(object)
    return (num if q == 1 else num * q) > den * c


def level_set(field: MaxField, lam) -> GridSet:
    """Cells where the field value is strictly greater than lam."""
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    lam = Fraction(lam)
    num = field.num
    return GridSet(
        field.grid,
        _exceeds(num, lam.denominator, field.den, lam.numerator * field.scale, int(num.max(initial=0))),
    )


def _bounding_box(mask: np.ndarray) -> list[tuple[int, int]] | None:
    """Per-axis [lo, hi) of the true cells, from one ``any`` reduction per
    axis; None when no cell is true."""
    box = []
    for ax in range(mask.ndim):
        hit = mask.any(axis=tuple(j for j in range(mask.ndim) if j != ax))
        lo = int(hit.argmax())
        if not hit[lo]:
            return None
        box.append((lo, len(hit) - int(hit[::-1].argmax())))
    return box


def max_level_set(f: StepFunction, basis: BasisSpec, lam, r=None, ladder=None, shapes=None) -> GridSet:
    """{M f > lam} over the same family as ``max_field_fast``, without the
    field: equal to ``level_set(max_field_fast(...), lam)``.

    A shape R can only win where some placement holds more than
    lam * |R| of the mass; no placement holds more than the total, so a
    shape with total * q <= p * |R| * den (lam = p/q, f = num/den) is
    skipped.  Placements that miss the support sum to zero and never win,
    so the work runs on the support's bounding box; each winning
    placement then marks the cells it covers.
    """
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    shapes = _family(f, basis, r, ladder, shapes)
    arr = _prepare_values(f)
    out = np.zeros(f.grid.shape, dtype=bool)
    support = _bounding_box(arr != 0)
    if support is None:
        return GridSet(f.grid, out)
    total = int(arr.sum())
    shapes = [s for s in shapes if total * q > p * math.prod(s) * f.den]
    table = _summed_area(arr[tuple(slice(lo, hi) for lo, hi in support)])
    # every shape's placement sums go to two scratch arrays sized for the
    # largest: fresh arrays per shape would each fault in fresh pages
    size = max((math.prod(n + w - 1 for n, w in zip(table.shape, s)) for s in shapes), default=0)
    scratch = [np.empty(size, dtype=table.dtype) for _ in range(2)]
    for shape in shapes:
        S = table
        for ax, w in enumerate(shape):
            S = _window_sums_fast(S, w, ax, scratch[ax % 2])
        wins = _exceeds(S, q, math.prod(shape), p * f.den, total)
        placed = _bounding_box(wins)
        if placed is None:
            continue
        # pad by w - 1 zeros, then the sliding max over w placements marks
        # every cell a winning placement covers
        m = wins[tuple(slice(lo, hi) for lo, hi in placed)].astype(np.uint8)
        m = np.pad(m, [(w - 1, w - 1) for w in shape])
        for ax, w in enumerate(shape):
            m = _sliding_max_fast(m, w, ax)
        # placement i covers cells a + i - w + 1 .. a + i, so m starts at
        # cell a + lo - w + 1; clip it to the box
        dst, src = [], []
        for (a, _), (lo, _), w, n, size in zip(support, placed, shape, out.shape, m.shape):
            start = a + lo - w + 1
            dst.append(slice(max(start, 0), min(start + size, n)))
            src.append(slice(max(start, 0) - start, min(start + size, n) - start))
        out[tuple(dst)] |= m[tuple(src)].astype(bool)
    return GridSet(f.grid, out)


def save_max_field(field: MaxField, path):
    with open(path, "w") as fh:
        r = "inf" if field.r is None else str(field.r)
        fh.write(
            f"basis={field.basis.kind} k={field.basis.k} "
            f"gamma={field.basis.gamma!r} r={r} mode=rational\n"
        )
        fh.write(f"{field.grid.n} " + " ".join(str(m) for m in field.grid.resolution) + "\n")
        fh.writelines(_text_chunks(*_value_table(field.num, field.scale, field.den)))
