"""Truncated maximal-operator fields and level sets over rectangle bases.

One per-shape step, ``_shape_sums``, crops f to its support's bounding
box and differences one summed-area table into two scratch arrays: the
sum over every placement of the shape that meets the support.  It feeds
two reductions, both of which spread per-placement values to the cells
the placements cover by a sparse-table sliding maximum.  ``max_field_fast``
spreads the sums and keeps the larger average per cell;
``max_level_set`` computes {M f > lam} without the field: it skips every
shape whose average cannot exceed lam even with the whole mass of f
inside (exact, since f is nonnegative) and spreads the placements that
win one cross-multiplied integer compare.  ``max_field_brute`` (direct
repeated-addition window sums and a linear placement scan on the whole
grid) is the oracle.  All work on common-denominator integers (int64, or
Python ints when int64 could overflow), so the fields agree bit for bit;
a field keeps only that integer payload, and ``level_set`` compares it
cross-multiplied with the threshold.

Evaluation point is the cell center; since admissible rectangles are
cell-aligned, "contains the center" and "contains the cell" coincide.
Rectangles may overhang the ambient box: the function is extended by zero
and the full rectangle volume stays in the denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Sequence

import numpy as np

from .grid import DyadicGrid, GridSet, StepFunction, _text_chunks, _value_table

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
    total = float(f.num.sum(dtype=np.float64))
    # float estimate of the worst numerator (at most total cells of shape
    # volume); the factor-2 headroom (2^61, not 2^62) absorbs its rounding
    fits = (total * 1.01 + 1) * f.grid.total_cells < float(1 << 61)
    return f.num.astype(np.int64 if fits else object, copy=False)


def _along(axis: int, start, stop) -> tuple:
    """The index selecting ``start:stop`` along ``axis`` only."""
    return (slice(None),) * axis + (slice(start, stop),)


def _window_sums_fast(c: np.ndarray, w: int, axis: int, scratch: np.ndarray) -> np.ndarray:
    """Placement sums from prefix sums ``c`` along axis (c[i] = sum of
    cells 0..i); output length N + w - 1 along axis.

    Placement j covers cells j-w+1 .. j clipped to the box, so it sums to
    c[min(j, N-1)] - c[j-w], with no subtrahend while j < w; the pieces
    are written straight into the head of the flat ``scratch`` array."""
    n = c.shape[axis]
    at = partial(_along, axis)
    shape = c.shape[:axis] + (n + w - 1,) + c.shape[axis + 1 :]
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
    at = partial(_along, axis)
    n = arr.shape[axis]
    shape = list(arr.shape)
    shape[axis] = n + 2 * (w - 1)
    pad = np.zeros(shape, dtype=arr.dtype)
    pad[at(w - 1, w - 1 + n)] = arr
    shape[axis] = n + w - 1
    out = np.zeros(shape, dtype=arr.dtype)
    for o in range(w):
        out += pad[at(o, o + n + w - 1)]
    return out


def _sliding_max_fast(arr: np.ndarray, w: int, axis: int) -> np.ndarray:
    """max over arr[i : i+w] by sparse-table doubling (exact for every
    dtype); output length L-w+1 along axis."""
    at = partial(_along, axis)
    if w > 1:
        p = 1 << (w.bit_length() - 1)
        step = 1
        while step < p:
            arr = np.maximum(arr[at(None, -step)], arr[at(step, None)])
            step *= 2
        arr = np.maximum(arr[at(None, arr.shape[axis] - (w - p))], arr[at(w - p, None)])
    return arr


def _placement_max_direct(arr: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Same reduction as _sliding_max_fast but by a plain linear scan."""
    at = partial(_along, axis)
    L = arr.shape[axis]
    out = arr[at(0, L - w + 1)].copy()
    for t in range(1, w):
        np.maximum(out, arr[at(t, t + L - w + 1)], out=out)
    return out


def _shape_sums(arr: np.ndarray, shapes):
    """The per-shape step: yields ``(shape, S, corner)``, S the sum of
    ``arr`` over every placement of ``shape`` that meets the support's
    bounding box, ``S[i]`` the placement whose last cell is ``corner + i``.
    The other placements sum to zero; an all-zero ``arr`` yields nothing.

    S is differenced from one summed-area table of the crop into two
    scratch arrays sized for the largest shape (fresh arrays per shape
    would each fault in fresh pages), so use S before the next shape."""
    support = _bounding_box(arr != 0)
    if support is None:
        return
    table = arr[tuple(slice(lo, hi) for lo, hi in support)]
    for ax in range(table.ndim):
        table = np.cumsum(table, axis=ax)
    size = max((math.prod(n + w - 1 for n, w in zip(table.shape, s)) for s in shapes), default=0)
    scratch = [np.empty(size, dtype=table.dtype) for _ in range(2)]
    corner = tuple(lo for lo, _ in support)
    for shape in shapes:
        S = table
        for ax, w in enumerate(shape):
            S = _window_sums_fast(S, w, ax, scratch[ax % 2])
        yield shape, S, corner


def _spread(vals: np.ndarray, shape, corner, box) -> tuple[tuple[slice, ...], np.ndarray]:
    """The slices of ``box`` that placements of ``shape`` cover, and per
    cell the max of ``vals`` over the placements covering it: ``vals[i]``
    is the placement whose last cell is ``corner + i``, and every other
    placement counts as zero."""
    # pad by w - 1 zeros (Python ints on the object path); the sliding max
    # over w placements then starts at cell corner - w + 1
    pad = np.zeros([n + 2 * (w - 1) for n, w in zip(vals.shape, shape)], dtype=vals.dtype)
    pad[tuple(slice(w - 1, w - 1 + n) for n, w in zip(vals.shape, shape))] = vals
    for ax, w in enumerate(shape):
        pad = _sliding_max_fast(pad, w, ax)
    dst, src = [], []
    for c, w, n, size in zip(corner, shape, box, pad.shape):
        start = c - w + 1
        dst.append(slice(max(start, 0), min(start + size, n)))
        src.append(slice(max(start, 0) - start, min(start + size, n) - start))
    return tuple(dst), pad[tuple(src)]


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


def max_field_brute(f: StepFunction, basis: BasisSpec, r=None, ladder=None, shapes=None) -> MaxField:
    """Reference field: direct window accumulation and a linear placement
    scan on the whole grid, sharing no step with ``max_field_fast``."""
    shapes = _family(f, basis, r, ladder, shapes)
    arr = _prepare_values(f)
    best_num = np.zeros(f.grid.shape, dtype=arr.dtype)
    best_den = np.ones(f.grid.shape, dtype=arr.dtype)
    for shape in shapes:
        S = arr
        for ax, w in enumerate(shape):
            S = _window_sums_direct(S, w, ax)
        for ax, w in enumerate(shape):
            S = _placement_max_direct(S, w, ax)
        d = math.prod(shape)
        better = S * best_den > best_num * d
        best_num, best_den = np.where(better, S, best_num), np.where(better, d, best_den)
    return MaxField(f.grid, basis, None if r is None else Fraction(r), best_num, best_den, f.den)


def max_field_fast(f: StepFunction, basis: BasisSpec, r=None, ladder=None, shapes=None) -> MaxField:
    """The field from ``_shape_sums``; contract-identical to brute.

    Each shape's placement maxima go to the cells its placements cover,
    where the larger average is kept (a strict cross-multiplied compare,
    so ties keep the earlier shape).  An explicit ``shapes`` list
    restricts the family to those cell shapes.
    """
    shapes = _family(f, basis, r, ladder, shapes)
    arr = _prepare_values(f)
    best_num = np.zeros(f.grid.shape, dtype=arr.dtype)
    best_den = np.ones(f.grid.shape, dtype=arr.dtype)
    for shape, S, corner in _shape_sums(arr, shapes):
        dst, top = _spread(S, shape, corner, f.grid.shape)
        num, den = best_num[dst], best_den[dst]
        d = math.prod(shape)
        better = top * den > num * d
        np.copyto(num, top, where=better)
        den[better] = d
    return MaxField(f.grid, basis, None if r is None else Fraction(r), best_num, best_den, f.den)


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
    skipped.  Each placement is decided by one cross-multiplied compare,
    and the winners, cropped to their bounding box, mark the cells they
    cover.
    """
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    shapes = _family(f, basis, r, ladder, shapes)
    arr = _prepare_values(f)
    out = np.zeros(f.grid.shape, dtype=bool)
    total = int(arr.sum())
    shapes = [s for s in shapes if total * q > p * math.prod(s) * f.den]
    for shape, S, corner in _shape_sums(arr, shapes):
        wins = _exceeds(S, q, math.prod(shape), p * f.den, total)
        placed = _bounding_box(wins)
        if placed is None:
            continue
        crop = tuple(slice(lo, hi) for lo, hi in placed)
        last = [c + lo for c, (lo, _) in zip(corner, placed)]
        dst, covered = _spread(wins[crop], shape, last, out.shape)
        out[dst] |= covered
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
