"""Truncated maximal-operator fields over rectangle bases.

Two routes compute the same field: a brute accumulation (per shape, direct
repeated-addition window sums and a linear scan over placements), kept as
the oracle, and the production one (prefix sums + sparse-table sliding
maximum).  Both work on common-denominator integers (int64, or Python ints
when int64 could overflow), so they must agree bit for bit; a field keeps
only that integer payload, and level sets compare it cross-multiplied
against the threshold.

Evaluation point is the cell center; since admissible rectangles are
cell-aligned, "contains the center" and "contains the cell" coincide.
Rectangles may overhang the ambient box: the function is extended by zero
and the full rectangle volume stays in the denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

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
    cell = grid.cell_size
    if ladder is None:
        per_axis = [range(1, s + 1) for s in grid.shape]
    else:
        per_axis = [[w for w in ladder if 1 <= w <= s] for s in grid.shape]
    shapes = []
    for widths in _product(per_axis):
        lengths = tuple(w * c for w, c in zip(widths, cell))
        if len(set(lengths)) > basis.k:
            continue
        if r2 is not None and sum((e * e for e in lengths), Fraction(0)) >= r2:
            continue
        shapes.append(tuple(widths))
    if not shapes:
        raise EmptyFamilyError("no admissible rectangle shape under this truncation")
    return shapes


def _product(axes: Sequence[Iterable[int]]):
    if not axes:
        yield ()
        return
    head, *rest = axes
    for w in head:
        for tail in _product(rest):
            yield (w, *tail)


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


def _window_sums_fast(arr: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Placement sums via prefix sums; output length N + w - 1 along axis."""
    arr = np.moveaxis(arr, axis, -1)
    # c[i] = sum of arr[:i] (zeros_like keeps object zeros Python ints);
    # edge padding clips every window to the box, so placement a (cells
    # a-w+1 .. a) sums to c[a + w] - c[a] after padding
    c = np.cumsum(np.concatenate([np.zeros_like(arr[..., :1]), arr], axis=-1), axis=-1)
    c = np.pad(c, [(0, 0)] * (arr.ndim - 1) + [(w - 1, w - 1)], mode="edge")
    return np.moveaxis(c[..., w:] - c[..., :-w], -1, axis)


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


def _max_field(
    f: StepFunction,
    basis: BasisSpec,
    r,
    ladder,
    window_sums,
    placement_max,
    shapes=None,
) -> MaxField:
    if basis.kind != "axis":
        raise NotImplementedError(
            "max fields are axis-basis only; rotated bases get certified level "
            "sets from gridhalo.witness"
        )
    if shapes is None:
        shapes = enumerate_shapes(basis, f.grid, r, ladder)
    elif not shapes:
        raise EmptyFamilyError("empty explicit shape list")
    arr = _prepare_values(f)
    best_num = np.zeros(f.grid.shape, dtype=arr.dtype)
    best_den = np.ones(f.grid.shape, dtype=arr.dtype)
    for shape in shapes:
        S = arr
        for ax, w in enumerate(shape):
            S = window_sums(S, w, ax)
        for ax, w in enumerate(shape):
            S = placement_max(S, w, ax)
        d = 1
        for w in shape:
            d *= w
        best_num, best_den = _accumulate(best_num, best_den, S, d)
    r = None if r is None else Fraction(r)
    return MaxField(f.grid, basis, r, best_num, best_den, f.den)


def max_field_brute(f: StepFunction, basis: BasisSpec, r=None, ladder=None, shapes=None) -> MaxField:
    """Reference field: direct window accumulation, linear placement scan."""
    return _max_field(f, basis, r, ladder, _window_sums_direct, _placement_max_direct, shapes)


def max_field_fast(f: StepFunction, basis: BasisSpec, r=None, ladder=None, shapes=None) -> MaxField:
    """Prefix-sum window sums + doubling sliding max; contract-identical to brute.

    An explicit ``shapes`` list restricts the family to those cell shapes
    (used to re-verify recorded certificates on refined grids).
    """
    return _max_field(f, basis, r, ladder, _window_sums_fast, _sliding_max_fast, shapes)


def level_set(field: MaxField, lam) -> GridSet:
    """Cells where the field value is strictly greater than lam."""
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    num, den, rhs = field.num, field.den, p * field.scale
    # cross-multiplied compare; widen to Python ints if int64 could overflow
    if num.dtype != object and not (
        int(np.abs(num).max(initial=0)) < (1 << 62) // q
        and rhs * int(den.max(initial=1)) < (1 << 62)
    ):
        num, den = num.astype(object), den.astype(object)
    return GridSet(field.grid, num * q > den * rhs)


def save_max_field(field: MaxField, path):
    with open(path, "w") as fh:
        r = "inf" if field.r is None else str(field.r)
        fh.write(
            f"basis={field.basis.kind} k={field.basis.k} "
            f"gamma={field.basis.gamma!r} r={r} mode=rational\n"
        )
        fh.write(f"{field.grid.n} " + " ".join(str(m) for m in field.grid.resolution) + "\n")
        fh.writelines(_text_chunks(*_value_table(field.num, field.scale, field.den)))
