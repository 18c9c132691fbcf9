"""Dyadic grids, exact-measure cell sets, step functions.

Everything here is measure bookkeeping for unions of dyadic cells.  Cell
counts are integers, cell volumes and function values are exact rationals,
so all measures and distribution identities can be checked with zero
tolerance.  A step function is an integer numerator array over one common
denominator; consumers work on those integers and per-cell Fractions exist
only when ``values`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DyadicGrid",
    "GridSet",
    "StepFunction",
    "AxisRect",
    "GridMismatchError",
    "ResolutionMismatchError",
    "uniform_distribution_check",
    "save_step_function",
    "load_step_function",
    "save_grid_set",
    "load_grid_set",
]


class GridMismatchError(ValueError):
    """Two operands live on different grids."""


class ResolutionMismatchError(ValueError):
    """A coarse resolution does not divide the fine one."""


def _as_fraction_tuple(values: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class DyadicGrid:
    """A dyadic partition of an axis-aligned box.

    ``resolution[j]`` is the per-axis exponent: the box is split into
    ``2**resolution[j]`` cells along axis ``j``.  The default box is the
    unit cube.
    """

    resolution: tuple[int, ...]
    origin: tuple[Fraction, ...] = None  # type: ignore[assignment]
    side: tuple[Fraction, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        res = tuple(int(m) for m in self.resolution)
        if not res or any(m < 0 for m in res):
            raise ValueError("resolution exponents must be non-negative")
        object.__setattr__(self, "resolution", res)
        n = len(res)
        origin = self.origin if self.origin is not None else (Fraction(0),) * n
        side = self.side if self.side is not None else (Fraction(1),) * n
        origin = _as_fraction_tuple(origin)
        side = _as_fraction_tuple(side)
        if len(origin) != n or len(side) != n:
            raise ValueError("origin/side dimension mismatch")
        if any(s <= 0 for s in side):
            raise ValueError("box side lengths must be positive")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "side", side)

    @property
    def n(self) -> int:
        return len(self.resolution)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(1 << m for m in self.resolution)

    @property
    def total_cells(self) -> int:
        return int(np.prod([1 << m for m in self.resolution], dtype=object))

    @property
    def cell_size(self) -> tuple[Fraction, ...]:
        return tuple(s / (1 << m) for s, m in zip(self.side, self.resolution))

    @property
    def cell_volume(self) -> Fraction:
        v = Fraction(1)
        for c in self.cell_size:
            v *= c
        return v

    @property
    def box_volume(self) -> Fraction:
        v = Fraction(1)
        for s in self.side:
            v *= s
        return v

    def cell_center(self, index: Sequence[int]) -> tuple[Fraction, ...]:
        cs = self.cell_size
        return tuple(o + (2 * i + 1) * c / 2 for o, i, c in zip(self.origin, index, cs))

    def refine(self, extra: Sequence[int]) -> "DyadicGrid":
        if len(extra) != self.n or any(e < 0 for e in extra):
            raise ValueError("bad refinement vector")
        return DyadicGrid(
            tuple(m + e for m, e in zip(self.resolution, extra)),
            self.origin,
            self.side,
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GridSet:
    """A union of grid cells, stored as a boolean mask."""

    grid: DyadicGrid
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != self.grid.shape:
            raise ValueError("mask shape does not match grid")
        object.__setattr__(self, "mask", _frozen(mask.copy()))

    @classmethod
    def empty(cls, grid: DyadicGrid) -> "GridSet":
        return cls(grid, np.zeros(grid.shape, dtype=bool))

    @classmethod
    def full(cls, grid: DyadicGrid) -> "GridSet":
        return cls(grid, np.ones(grid.shape, dtype=bool))

    @classmethod
    def from_indices(cls, grid: DyadicGrid, indices: Iterable[Sequence[int]]) -> "GridSet":
        mask = np.zeros(grid.shape, dtype=bool)
        for idx in indices:
            mask[tuple(idx)] = True
        return cls(grid, mask)

    @property
    def popcount(self) -> int:
        return int(self.mask.sum())

    def measure(self) -> Fraction:
        return self.popcount * self.grid.cell_volume

    def relative_measure(self) -> Fraction:
        return Fraction(self.popcount, self.grid.total_cells)

    def _require_same_grid(self, other: "GridSet"):
        if self.grid != other.grid:
            raise GridMismatchError("operands live on different grids")

    def intersection(self, other: "GridSet") -> "GridSet":
        self._require_same_grid(other)
        return GridSet(self.grid, self.mask & other.mask)

    def union(self, other: "GridSet") -> "GridSet":
        self._require_same_grid(other)
        return GridSet(self.grid, self.mask | other.mask)

    def difference(self, other: "GridSet") -> "GridSet":
        self._require_same_grid(other)
        return GridSet(self.grid, self.mask & ~other.mask)

    def complement(self) -> "GridSet":
        return GridSet(self.grid, ~self.mask)

    __and__ = intersection
    __or__ = union
    __sub__ = difference

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridSet):
            return NotImplemented
        return self.grid == other.grid and bool(np.array_equal(self.mask, other.mask))

    def __hash__(self):
        return hash((self.grid, self.mask.tobytes()))

    def refine(self, extra: Sequence[int]) -> "GridSet":
        """Re-represent on a finer grid; measure is preserved exactly."""
        mask = self.mask
        for ax, e in enumerate(extra):
            if e:
                mask = np.repeat(mask, 1 << e, axis=ax)
        return GridSet(self.grid.refine(extra), mask)


def _coarse_counts(mask: np.ndarray, fine_res: Sequence[int], coarse_res: Sequence[int]) -> np.ndarray:
    """Per-coarse-cell popcounts via block reshaping."""
    blocks = []
    newshape = []
    for m, c in zip(fine_res, coarse_res):
        if c > m:
            raise ResolutionMismatchError("coarse resolution exceeds grid resolution")
        newshape.extend([1 << c, 1 << (m - c)])
    counts = mask.astype(np.int64).reshape(newshape)
    # sum out every second (intra-block) axis
    for ax in reversed(range(1, 2 * len(fine_res), 2)):
        counts = counts.sum(axis=ax)
    return counts


def uniform_distribution_check(s: GridSet, m: Sequence[int]) -> bool:
    """Exact check of ``|P ∩ Q| = |P| |Q|`` over every coarse cell Q.

    Measures are normalized to the ambient box, so in cell counts the
    identity reads ``count_Q * total = count * cells_per_Q * n_coarse`` --
    equivalently every coarse cell holds the same count.
    """
    m = tuple(int(x) for x in m)
    if len(m) != s.grid.n:
        raise ResolutionMismatchError("dimension mismatch")
    counts = _coarse_counts(s.mask, s.grid.resolution, m)
    total = s.popcount
    n_coarse = int(np.prod([1 << c for c in m], dtype=object))
    # |P∩Q|·(#coarse cells) == |P| for every Q, all in exact integers
    return bool(np.all(counts * n_coarse == total))


def _scaled(num: np.ndarray, c: int) -> np.ndarray:
    """``num * c`` exactly for nonnegative numerators: int64 while the
    product fits, else object ints."""
    if num.dtype != object and int(num.max(initial=0)) * c >= 1 << 63:
        num = num.astype(object)
    return num * c


def _payload(table, codes):
    """(num, den) of the cells that take ``table[codes]``, converting each
    distinct value once onto one common denominator, the lcm of theirs."""
    if any(v < 0 for v in table):
        raise ValueError("step functions are nonnegative")
    codes = np.asarray(codes, dtype=np.intp)
    table = [Fraction(v) for v in table]
    den = math.lcm(*(v.denominator for v in table))
    nums = [v.numerator * (den // v.denominator) for v in table]
    return np.array(nums, dtype=np.int64 if max(nums) < 1 << 63 else object)[codes], den


def _value_table(num: np.ndarray, den: int, cell_den: np.ndarray | None = None):
    """(table, codes): the distinct values ``num / (cell_den * den)`` of a
    payload as Fractions, ``cell_den`` per cell (max fields) or absent
    (step functions); the row-major cells are ``table[codes]``."""
    flat = num.ravel()
    groups = [(1, slice(None))]
    if cell_den is not None:
        dens, which = np.unique(cell_den.ravel(), return_inverse=True)
        groups = [(d, which == i) for i, d in enumerate(dens.tolist())]
    table = []
    codes = np.empty(flat.size, dtype=np.intp)
    for d, cells in groups:
        part = flat[cells]
        nums = np.unique(part)
        codes[cells] = np.searchsorted(nums, part) + len(table)
        table.extend(Fraction(p, d * den) for p in nums.tolist())
    return np.array(table), codes


@dataclass(frozen=True, eq=False, init=False)
class StepFunction:
    """A nonnegative cell-constant function on a dyadic grid.

    The exact payload is value = num / den: one int ``den`` over int64
    numerators, or object ints when a numerator does not fit in int64.  The
    constructor converts each distinct value of any array once; ``values``
    is built on first read.
    """

    grid: DyadicGrid
    num: np.ndarray
    den: int

    def __init__(self, grid: DyadicGrid, values):
        src = np.asarray(values, dtype=object)
        if src.shape != grid.shape:
            raise ValueError("values shape does not match grid")
        table, codes = np.unique(src.ravel(), return_inverse=True)
        self._set(grid, *_payload(table.tolist(), codes))

    def _set(self, grid: DyadicGrid, num: np.ndarray, den: int) -> "StepFunction":
        self.__dict__.update(grid=grid, num=_frozen(num.reshape(grid.shape)), den=den)
        return self

    @classmethod
    def from_table(cls, grid: DyadicGrid, table, codes) -> "StepFunction":
        """The function whose row-major cells take ``table[codes]``."""
        return cls.__new__(cls)._set(grid, *_payload(table, codes))

    @classmethod
    def indicator(cls, s: GridSet, height=1) -> "StepFunction":
        return cls.from_table(s.grid, [0, height], s.mask)

    @property
    def mode(self) -> str:
        """The value arithmetic: always exact, "rational"."""
        return "rational"

    @cached_property
    def values(self) -> np.ndarray:
        """The cells as Fractions, built on first read."""
        table, codes = _value_table(self.num, self.den)
        return _frozen(table[codes].reshape(self.grid.shape))

    def integral(self) -> Fraction:
        cv = self.grid.cell_volume
        nums, counts = np.unique(self.num, return_counts=True)
        return Fraction(sum(p * c for p, c in zip(nums.tolist(), counts.tolist())), self.den) * cv

    def support(self) -> GridSet:
        return GridSet(self.grid, self.num != 0)

    def refine(self, extra: Sequence[int]) -> "StepFunction":
        num = self.num
        for ax, e in enumerate(extra):
            if e:
                num = np.repeat(num, 1 << e, axis=ax)
        return StepFunction.__new__(StepFunction)._set(self.grid.refine(extra), num, self.den)


@dataclass(frozen=True)
class AxisRect:
    """Half-open per-axis cell index ranges ``[lo_j, hi_j)``.

    Indices may run outside the grid: rectangles are allowed to overhang
    the ambient box (the function is extended by zero there).
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("need lo_j < hi_j on every axis")
        object.__setattr__(self, "lo", tuple(int(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(int(x) for x in self.hi))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def edge_lengths(self, grid: DyadicGrid) -> tuple[Fraction, ...]:
        return tuple(w * c for w, c in zip(self.shape, grid.cell_size))

    def volume(self, grid: DyadicGrid) -> Fraction:
        v = Fraction(1)
        for e in self.edge_lengths(grid):
            v *= e
        return v

    def diameter_sq(self, grid: DyadicGrid) -> Fraction:
        return sum((e * e for e in self.edge_lengths(grid)), Fraction(0))

    def contains_index(self, index: Sequence[int]) -> bool:
        return all(a <= i < b for a, i, b in zip(self.lo, index, self.hi))


# ---------------------------------------------------------------------------
# plain-text serialization: "n m_1 ... m_n" header then row-major values


def _format_value(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)


def _text_chunks(table, codes, end: str = "\n", chunk: int = 1 << 16):
    """Row-major cell text in chunks; each distinct value is formatted once."""
    tokens = np.array([_format_value(v) + end for v in table], dtype=object)
    for start in range(0, len(codes), chunk):
        yield "".join(tokens[codes[start : start + chunk]].tolist())


def save_step_function(f: StepFunction, path):
    with open(path, "w") as fh:
        fh.write(f"{f.grid.n} " + " ".join(str(m) for m in f.grid.resolution) + "\n")
        fh.writelines(_text_chunks(*_value_table(f.num, f.den)))


def _read_cells(path) -> tuple[DyadicGrid, np.ndarray]:
    """The grid named by a saved file's header, and its row-major cell tokens."""
    with open(path) as fh:
        header = fh.readline().split()
        toks = np.array(fh.read().split())
    grid = DyadicGrid(tuple(int(x) for x in header[1 : 1 + int(header[0])]))
    if len(toks) != grid.total_cells:
        raise ValueError("value count does not match grid")
    return grid, toks


def load_step_function(path) -> StepFunction:
    """Each token is read exactly: ``p/q``, integer and decimal forms alike."""
    grid, toks = _read_cells(path)
    table, codes = np.unique(toks, return_inverse=True)
    return StepFunction.from_table(grid, [Fraction(t) for t in table.tolist()], codes)


def save_grid_set(s: GridSet, path):
    with open(path, "w") as fh:
        fh.write(f"{s.grid.n} " + " ".join(str(m) for m in s.grid.resolution) + "\n")
        for v in s.mask.ravel():
            fh.write(("1" if v else "0") + "\n")


def load_grid_set(path) -> GridSet:
    grid, toks = _read_cells(path)
    return GridSet(grid, (toks == "1").reshape(grid.shape))
