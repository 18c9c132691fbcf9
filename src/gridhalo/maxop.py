"""Truncated maximal-operator fields and level sets over rectangle bases.

Both kernels crop f to its support's bounding box and read placement sums
from one summed-area table of the crop.  ``max_field_fast`` takes each
shape's sums as strided views of the table (``_shape_sums``), skips a
shape whose largest sum beats no kept average in the box it covers,
spreads the others' sums to the cells the placements cover by a
sparse-table sliding maximum and keeps the larger average per cell.
``max_level_set`` computes {M f > lam} without the field, in one placement
pass over a support, a numerator crop and its lower corner
(``_placement_pass``; ``_winners`` passes f's own and one threshold): it
skips every shape whose average cannot exceed the smallest threshold even
with the whole mass of f inside (exact, since f is nonnegative), lays the
other shapes' placements out clipped to the crop, so that along an axis
where a shape is at least as wide as the crop the plateau of placements
covering it, which share one sum, is evaluated once, as flat index arrays
in batches of a fixed size, decides each batch with one cross-multiplied
integer compare per threshold, and returns a threshold's winners as runs,
boxes of placements with a count per axis.  ``_paint`` draws a threshold's
runs once in slab space, the boxes the runs' walls cut: halo samples count
the set there, as the painted slabs' volumes, and ``max_level_set``
stretches the slabs back to a mask of the grid (``_mask``).  Halo samples
build their crop on the ball's box alone, every amplitude of a sweep a
threshold of one pass.  The tile witness takes its certificates from the
same winners, one placement each.  ``max_field_brute`` (direct
repeated-addition window sums and a linear placement scan on the whole
grid) is the oracle.  Both compare averages cross-multiplied on
common-denominator integers (int64, or Python ints when int64 could
overflow) and convert the winners once, at the end, to a ``StepFunction``:
M f at cell centers is cell-constant, so a field is a step function like
f, and ``level_set`` cuts its sorted value table.

Evaluation point is the cell center; since admissible rectangles are
cell-aligned, "contains the center" and "contains the cell" coincide.
Rectangles may overhang the ambient box: the function is extended by zero
and the full rectangle volume stays in the denominator.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Sequence

import numpy as np

from .grid import DyadicGrid, GridSet, InfeasibleError, StepFunction, _step_text, _value_table

__all__ = [
    "BasisSpec",
    "enumerate_shapes",
    "max_field_brute",
    "max_field_fast",
    "level_set",
    "max_level_set",
    "dyadic_ladder",
    "save_max_field",
]


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
        raise InfeasibleError("no admissible rectangle shape under this truncation")
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
        raise InfeasibleError("no admissible rectangle shape under this truncation")
    return shapes


# ---------------------------------------------------------------------------
# shared low-level pieces

# placements one batch of the level-set pass evaluates at once: enough to
# spread numpy's per-call cost thin, few enough that a batch's arrays stay
# in cache and its memory small
_PLACEMENT_BUDGET = 1 << 12


def _prepare_values(num: np.ndarray, cells: int) -> np.ndarray:
    """The numerators to sum: int64, or object ints when a window sum could
    overflow int64 (its numerator times a shape volume of at most ``cells``
    cells)."""
    total = float(num.sum(dtype=np.float64))
    # float estimate of the worst numerator; the factor-2 headroom (2^61,
    # not 2^62) absorbs its rounding
    fits = (total * 1.01 + 1) * cells < float(1 << 61)
    return num.astype(np.int64 if fits else object, copy=False)


def _along(axis: int, start, stop) -> tuple:
    """The index selecting ``start:stop`` along ``axis`` only."""
    return (slice(None),) * axis + (slice(start, stop),)


def _support(crop: np.ndarray, corner=None):
    """``crop``, lying at ``corner`` (0 on every axis when None), trimmed to the
    bounding box of its nonzero cells, and that box's lower corner; None
    when every cell is zero.

    One ``any`` reduction per axis, each on what the axes before it left,
    so only the first reads the whole of ``crop``."""
    corner = [0] * crop.ndim if corner is None else list(corner)
    for ax in range(crop.ndim):
        hit = crop.any(axis=tuple(j for j in range(crop.ndim) if j != ax))
        if not hit.any():
            return None
        lo = int(hit.argmax())
        crop = crop[_along(ax, lo, len(hit) - int(hit[::-1].argmax()))]
        corner[ax] += lo
    return crop, tuple(corner)


def _summed_area(arr: np.ndarray, lo, hi) -> np.ndarray:
    """Summed-area table of ``arr`` (int32 for bool cells while any sum of
    2^n entries fits it, int64 for other bool or int64 cells, else Python
    ints), edge-padded: per axis, index i + lo holds the sum of the cells
    below cell i, read as 0 for i <= 0 and as the sum of the whole box past
    its far end (``lo`` and ``hi`` extra entries), so a rectangle
    overhanging the box sums zeros there."""
    dtype = object if arr.dtype == object else np.int64
    if arr.dtype == bool and arr.size << arr.ndim < 1 << 31:
        dtype = np.int32
    table = np.zeros([n + 1 + a + b for n, a, b in zip(arr.shape, lo, hi)], dtype=dtype)
    inner = table[tuple(slice(a + 1, a + 1 + n) for n, a in zip(arr.shape, lo))]
    # the contiguous last axis first: numpy accumulates it several times faster
    np.cumsum(arr, axis=-1, dtype=dtype, out=inner)
    for ax in reversed(range(arr.ndim - 1)):
        np.cumsum(inner, axis=ax, out=inner)
    for ax, (n, a) in enumerate(zip(arr.shape, lo)):
        table[_along(ax, a + n + 1, None)] = table[_along(ax, a + n, a + n + 1)]
    return table


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


def _shape_sums(crop: np.ndarray, corner, shapes):
    """The per-shape step of the field: yields ``(shape, S, corner)``, S the
    sum of ``crop`` (f's numerators on its support's bounding box, lower
    corner ``corner``) over every placement of ``shape`` that meets the
    box, ``S[i]`` the placement whose last cell is ``corner + i``.

    S is a strided view of one summed-area table of the crop, edge-padded
    for the widest shape, differenced along each axis in turn."""
    pad = (np.max(shapes, axis=0) - 1).tolist()
    table = _summed_area(crop, pad, pad)
    for shape in shapes:
        # placement j reads table entries a + j - w + 1 and a + j + 1 per axis
        S = table[tuple(slice(a - w + 1, a + n + w) for a, w, n in zip(pad, shape, crop.shape))]
        for ax, w in enumerate(shape):
            S = S[_along(ax, w, None)] - S[_along(ax, 0, -w)]
        yield shape, S, corner


def _cover_box(placed, shape, corner, box) -> tuple[slice, ...]:
    """The slices of ``box`` that the placements of ``shape`` cover, for a
    ``placed``-shaped array of placements whose first has its last cell at
    ``corner``: per axis from ``corner - w + 1`` over ``n + w - 1`` cells,
    clipped to the box."""
    return tuple(
        slice(max(c - w + 1, 0), min(c + n, size))
        for c, w, n, size in zip(corner, shape, placed, box)
    )


def _spread(vals: np.ndarray, shape, corner, dst) -> np.ndarray:
    """The max of ``vals`` over the placements covering each cell of
    ``dst``, the slices of ``_cover_box``: ``vals[i]`` is the placement
    whose last cell is ``corner + i``, and every other placement counts as
    zero."""
    # pad by w - 1 zeros (Python ints on the object path); the sliding max
    # over w placements then starts at cell corner - w + 1
    pad = np.zeros([n + 2 * (w - 1) for n, w in zip(vals.shape, shape)], dtype=vals.dtype)
    pad[tuple(slice(w - 1, w - 1 + n) for n, w in zip(vals.shape, shape))] = vals
    for ax, w in enumerate(shape):
        pad = _sliding_max_fast(pad, w, ax)
    shift = [c - w + 1 for c, w in zip(corner, shape)]
    return pad[tuple(slice(sl.start - s, sl.stop - s) for sl, s in zip(dst, shift))]


def _family(grid: DyadicGrid, basis: BasisSpec, r, ladder, shapes) -> list:
    """The shapes a kernel runs over: ``shapes`` when given, else every
    admissible shape."""
    if basis.kind != "axis":
        raise NotImplementedError(
            "max fields are axis-basis only; rotated bases get certified level "
            "sets from gridhalo.witness"
        )
    if shapes is None:
        return enumerate_shapes(basis, grid, r, ladder)
    if not shapes:
        raise ValueError("empty explicit shape list")
    return shapes


def max_field_brute(
    f: StepFunction, basis: BasisSpec, r=None, ladder=None, shapes=None
) -> StepFunction:
    """Reference field: direct window accumulation and a linear placement
    scan on the whole grid, sharing no step with ``max_field_fast``."""
    shapes = _family(f.grid, basis, r, ladder, shapes)
    arr = _prepare_values(f.num, f.grid.total_cells)
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
    return StepFunction.from_table(f.grid, *_value_table(best_num, f.den, best_den))


def max_field_fast(
    f: StepFunction, basis: BasisSpec, r=None, ladder=None, shapes=None
) -> StepFunction:
    """The field from ``_shape_sums``, equal to brute's.

    Each shape's placement maxima go to the cells its placements cover,
    where the larger average is kept, as a numerator and a shape area per
    cell under a strict cross-multiplied compare.  A shape whose largest
    placement sum beats the kept average on no cell of that box is skipped
    unspread: it would win no cell, so the kept numerators and areas are
    the same, ties included.  The winners become the field's value table
    once, at the end.  An explicit ``shapes`` list restricts the family to
    those cell shapes.
    """
    shapes = _family(f.grid, basis, r, ladder, shapes)
    crop, corner = _support(f.num) or (np.zeros((0,) * f.grid.n, dtype=np.int64), None)
    crop = _prepare_values(crop, f.grid.total_cells)
    best_num = np.zeros(f.grid.shape, dtype=crop.dtype)
    best_den = np.ones(f.grid.shape, dtype=crop.dtype)
    for shape, S, corner in _shape_sums(crop, corner, shapes) if crop.size else ():
        dst = _cover_box(S.shape, shape, corner, f.grid.shape)
        num, den = best_num[dst], best_den[dst]
        d = math.prod(shape)
        # no cell of the box takes more than S.max(): where that cannot
        # beat the kept average on any cell, the shape changes nothing
        if not (S.max() * den > num * d).any():
            continue
        top = _spread(S, shape, corner, dst)
        better = top * den > num * d
        np.copyto(num, top, where=better)
        den[better] = d
    return StepFunction.from_table(f.grid, *_value_table(best_num, f.den, best_den))


def _exceeds(num: np.ndarray, q: int, den, c: int, num_max: int) -> np.ndarray:
    """``num * q > den * c`` elementwise and exactly, given num <= num_max
    and ``den`` an int or an array: int64 products while q, num_max * q and
    c * max(den) stay below 2^62, Python ints past that."""
    if num.dtype == object or not (
        max(num_max, 1) * q < 1 << 62 and c * int(np.max(den, initial=1)) < 1 << 62
    ):
        num = num.astype(object, copy=False)
        if isinstance(den, np.ndarray):
            den = den.astype(object, copy=False)
    return (num if q == 1 else num * q) > den * c


def level_set(f: StepFunction, lam) -> GridSet:
    """Cells where f is strictly greater than lam: the cells whose code
    lies past every table value <= lam."""
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    cut = bisect.bisect_right(f.table, Fraction(lam))
    return GridSet._own(f.grid, f.codes >= cut)


def _corner_sum(flat: np.ndarray, corners, rows, at) -> np.ndarray:
    """The inclusion-exclusion sum over ``corners``, a list of (base,
    minus): each gathers ``flat`` at ``base[rows] + at`` and adds, or
    subtracts where minus is 1 (the first adds).  Two index and value
    buffers serve every corner."""
    out = idx = vals = None
    for base, minus in corners:
        idx = np.take(base, rows, out=idx)
        idx += at
        vals = np.take(flat, idx, out=vals)
        if out is None:
            out, vals = vals, None
        elif minus:
            out -= vals
        else:
            out += vals
    return out


def _winners(f: StepFunction, basis: BasisSpec, lam, r=None, ladder=None, shapes=None):
    """``_placement_pass`` over the support of f at the one threshold lam."""
    (runs,) = _placement_pass(f.grid, f.den, _support(f.num), basis, [lam], r, ladder, shapes)
    return runs


def _placement_pass(
    grid: DyadicGrid, den: int, support, basis: BasisSpec, lams, r=None, ladder=None, shapes=None
):
    """The placement pass: per threshold lam of ``lams``, in order, the
    placements of family shapes whose average of f exceeds lam, for f =
    crop / den at ``support = (crop, corner)``, the nonzero bounding box of
    its numerators on ``grid`` and the box's lower corner (None when f is
    zero), zero elsewhere.  A threshold's placements come as runs
    ``(widths, index, low, counts)``: run i is the box of placements of
    shape ``widths[index[i]]`` whose lower corners run from ``low[i]`` to
    ``low[i] + counts[i] - 1`` per axis (in cells; a placement may overhang
    the box), in family order and, per shape, in row-major order of the
    corner; expanded, they are the winning placements in that order.

    A shape R can only win where some placement holds more than lam * |R|
    of the mass; no placement holds more than the total, so a shape with
    total * q <= p * |R| * den (lam = p/q the smallest threshold) is
    skipped, and so is a row whose band holds too little.  Along an axis
    where a shape is at least as wide as the crop, its placements that
    cover the crop have one sum, the plateau, and each other placement sums
    what a placement of the shape clipped to the crop width sums.  So the
    pass lays out the clipped shapes' placements that meet the crop, in
    rows along the last axis, whole rows to a batch of at most
    ``_PLACEMENT_BUDGET`` placements (or one row); a clipped placement at
    lower corner 0 stands for the w - c + 1 plateau placements, and one
    below 0 for the placement w - c lower.  A shape then costs fewer than
    2^n c_1 ... c_n placements, whatever its widths.  Each placement
    sum is 2^n gathers from one summed-area table of the crop, and one
    cross-multiplied compare per threshold, against the unclipped area,
    decides a batch.  Both skips only drop placements that no threshold can
    pass, so each threshold's runs are those of a pass at that threshold
    alone.  M is positively homogeneous, {M(h f) > lam} = {M f > lam / h}:
    a sweep over amplitudes of one f is one pass over its thresholds.
    """
    lams = [Fraction(lam) for lam in lams]
    if any(lam < 0 for lam in lams):
        raise ValueError("threshold must be >= 0")
    least = min(lams)
    p, q = least.numerator, least.denominator
    shapes = _family(grid, basis, r, ladder, shapes)
    n = grid.n
    widths = np.array(shapes, dtype=np.int64).reshape(len(shapes), n)
    crop, corner = support or (np.zeros((0,) * n, dtype=np.int64), (0,) * n)
    # every placement sum is at most the total, and a sum of 2^n signed
    # table entries, each at most the total, is built from partial sums
    # below 2^n times it
    crop = _prepare_values(crop, 1 << n)
    total = int(crop.sum())
    # int64 areas while the widest box fits (a 2^32 x 2^32 shape wraps to 0)
    fits = math.prod(widths.max(axis=0, initial=1).tolist()) < 1 << 63
    area = widths.astype(np.int64 if fits else object).prod(axis=1)
    kept = np.flatnonzero([total * q > p * a * den for a in area.tolist()])
    if not fits and p and total * q <= (p * den) << 63:
        # past the mass skip every area is below total * q / (p * den)
        area = np.zeros(len(area), dtype=np.int64)
        area[kept] = widths[kept].astype(object).prod(axis=1)
    # the pass lays out each shape clipped to the crop; skip is how much
    # wider than the crop the shape is, per axis
    reach = np.minimum(widths, crop.shape)
    skip = widths - reach
    # a row is a kept shape with the lower corner of its placements on
    # every axis but the last; its placements meeting the crop follow
    # along the last axis
    per = (reach[kept] + crop.shape - 1)[:, :-1].prod(axis=1)
    k = np.repeat(kept, per)
    rest = np.arange(len(k)) - np.repeat(np.cumsum(per) - per, per)
    w = reach[k]
    lo = np.zeros((len(k), n), dtype=np.int64)
    for ax in reversed(range(n - 1)):
        rest, lo[:, ax] = np.divmod(rest, w[:, ax] + crop.shape[ax] - 1)
    lo -= w - 1
    # the table pads the last axis for the widest clipped shape; the other
    # axes clip per row, so a row's corner entries sit at fixed offsets
    pad = [0] * (n - 1) + [int(w[:, -1].max(initial=1)) - 1]
    table = _summed_area(crop, pad, pad)
    flat = table.ravel()
    walls = []
    for near in itertools.product((1, 0), repeat=n - 1):
        off = np.zeros(len(k), dtype=np.int64)
        for ax, c in enumerate(near):
            wall = np.clip(lo[:, ax] + c * w[:, ax], 0, crop.shape[ax])
            off += wall * (table.strides[ax] // table.itemsize)
        walls.append((off, (n - 1 - sum(near)) % 2))
    # a row whose band holds too little of the mass cannot win anywhere
    band = _corner_sum(flat, walls, np.arange(len(k)), table.shape[-1] - 1)
    live = np.flatnonzero(_exceeds(band, q, area[k], p * den, total))
    k, w, lo = k[live], w[live], lo[live]
    need = area[k]
    length = w[:, -1] + crop.shape[-1] - 1
    ends = np.cumsum(length)
    starts = ends - length
    # placement j of a row reads its corners at base + j
    bases = [
        (off[live] + pad[-1] + 1 - starts - (w[:, -1] if lower else 0), minus ^ lower)
        for off, minus in walls
        for lower in (0, 1)
    ]
    row, runs = 0, [[np.zeros((3, 0), dtype=np.int64)] for _ in lams]
    while row < len(k):
        stop = max(int(np.searchsorted(ends, starts[row] + _PLACEMENT_BUDGET, "right")), row + 1)
        rows = np.repeat(np.arange(row, stop), length[row:stop])
        at = np.arange(starts[row], ends[stop - 1])
        sums, areas = _corner_sum(flat, bases, rows, at), need[rows]
        same = rows[1:] == rows[:-1]
        for lam, out in zip(lams, runs):
            win = _exceeds(sums, lam.denominator, areas, lam.numerator * den, total)
            # a run is winners one after another in one row: it starts at a
            # winner not linked to the one before, and ends at one not
            # linked to the one after
            link = win[1:] & win[:-1] & same
            head, tail = win.copy(), win
            head[1:] &= ~link
            tail[:-1] &= ~link
            head, tail = np.flatnonzero(head), np.flatnonzero(tail)
            out.append(np.stack([rows[head], at[head], at[tail]]))
        row = stop
    passes = []
    for out in runs:
        run, head, tail = np.concatenate(out, axis=1)
        low, high = lo[run], lo[run]
        low[:, -1] += head - starts[run]
        high[:, -1] += tail - starts[run]
        # back from the clipped shape: corner 0 opens the plateau, and the
        # corners below it move down by the skip
        wide = skip[k[run]]
        low -= wide * (low <= 0)
        high -= wide * (high < 0)
        passes.append((widths, k[run], low + corner, high - low + 1))
    return passes


def _paint(shape, widths: np.ndarray, index: np.ndarray, low: np.ndarray, counts: np.ndarray):
    """The union of the runs of ``_placement_pass`` on a grid of ``shape``,
    in slab space: run i covers the box from ``low[i]`` to ``low[i] +
    widths[index[i]] + counts[i] - 1``, clipped to the grid.  Per axis the
    runs' walls cut the union's bounding box into slabs; returns which
    slabs the union covers, as a bool array, and the walls, an array of
    grid coordinates per axis, slab j lying between walls j and j + 1.
    Every run meets the support, so the first and last walls bound the
    union tightly.

    The runs go into one difference array over the slabs (int32 while
    fewer than 2^31 runs can cover a cell), whose prefix sums count the
    runs over each slab.  ``_mask`` stretches the slabs back to cells."""
    if not len(low):
        return np.zeros((0,) * len(shape), dtype=bool), [np.zeros(1, dtype=np.int64)] * len(shape)
    hi = low + widths[index] + counts - 1
    lo, hi = np.clip(low, 0, shape), np.clip(hi, 0, shape)
    walls, slab = [], []
    for ax in range(len(shape)):
        cut, at = np.unique(np.concatenate([lo[:, ax], hi[:, ax]]), return_inverse=True)
        walls.append(cut)
        slab.append(at.reshape(2, -1))
    diff = np.zeros([len(cut) for cut in walls], dtype=np.int32 if len(lo) < 1 << 31 else np.int64)
    strides = [s // diff.itemsize for s in diff.strides]
    for far in itertools.product((0, 1), repeat=len(shape)):
        at = sum(slab[ax][c] * st for ax, (c, st) in enumerate(zip(far, strides)))
        np.add.at(diff.reshape(-1), at, diff.dtype.type(-1 if sum(far) % 2 else 1))
    for ax in reversed(range(diff.ndim)):
        np.add.accumulate(diff, axis=ax, out=diff)
    return diff[tuple(slice(0, -1) for _ in shape)] > 0, walls


def _mask(shape, slabs: np.ndarray, walls) -> np.ndarray:
    """The bool mask of a grid of ``shape`` holding the union ``_paint``
    returns as ``(slabs, walls)``: each slab stretched back to its cells."""
    for ax, cut in enumerate(walls):
        slabs = np.repeat(slabs, np.diff(cut), axis=ax)
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(slice(cut[0], cut[-1]) for cut in walls)] = slabs
    return mask


def max_level_set(f: StepFunction, basis: BasisSpec, lam, r=None, ladder=None, shapes=None) -> GridSet:
    """{M f > lam} over the same family as ``max_field_fast``, without the
    field: equal to ``level_set(max_field_fast(...), lam)``.  The union of
    the winning runs of ``_winners``, painted once in slab space."""
    shape = f.grid.shape
    return GridSet._own(f.grid, _mask(shape, *_paint(shape, *_winners(f, basis, lam, r, ladder, shapes))))


def save_max_field(field: StepFunction, basis: BasisSpec, r, path):
    """The field of ``basis`` truncated at r (None for none): one header
    line, then the step-function text of ``grid.save_step_function``."""
    with open(path, "w") as fh:
        r = "inf" if r is None else str(Fraction(r))
        fh.write(f"basis={basis.kind} k={basis.k} gamma={basis.gamma!r} r={r} mode=rational\n")
        fh.writelines(_step_text(field))
