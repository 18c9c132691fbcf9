"""Dyadic grids, exact-measure cell sets, step functions.

Everything here is measure bookkeeping for unions of dyadic cells.  Cell
counts are integers, cell volumes and function values are exact rationals,
so all measures and distribution identities can be checked with zero
tolerance.  A step function is its table of distinct values and one small
code per cell; the common-denominator numerators the summing kernels read
and per-cell Fractions exist only once ``num`` or ``values`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "DyadicGrid",
    "GridSet",
    "StepFunction",
    "InfeasibleError",
    "VerificationError",
    "uniform_distribution_check",
    "save_step_function",
]


class InfeasibleError(RuntimeError):
    """The construction cannot be carried out at the configured resolution
    or depth (CLI exit 3); the message says what is out of reach."""


class VerificationError(RuntimeError):
    """An exact invariant re-check failed; this always indicates a bug (CLI
    exit 4)."""


@dataclass(frozen=True)
class DyadicGrid:
    """A dyadic partition of the box [0, side_1) x ... x [0, side_n).

    ``resolution[j]`` is the per-axis exponent: the box is split into
    ``2**resolution[j]`` cells along axis ``j``.  The default box is the
    unit cube.  The bases are translation invariant, so every box is
    anchored at 0.
    """

    resolution: tuple[int, ...]
    side: tuple[Fraction, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        res = tuple(int(m) for m in self.resolution)
        if not res or any(m < 0 for m in res):
            raise ValueError("resolution exponents must be non-negative")
        object.__setattr__(self, "resolution", res)
        side = tuple(Fraction(s) for s in ((1,) * len(res) if self.side is None else self.side))
        if len(side) != len(res):
            raise ValueError("side dimension mismatch")
        if any(s <= 0 for s in side):
            raise ValueError("box side lengths must be positive")
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

    @cached_property
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

    def refine(self, extra: Sequence[int]) -> "DyadicGrid":
        if len(extra) != self.n or any(e < 0 for e in extra):
            raise ValueError("bad refinement vector")
        return DyadicGrid(tuple(m + e for m, e in zip(self.resolution, extra)), self.side)


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
    def _own(cls, grid: DyadicGrid, mask: np.ndarray) -> "GridSet":
        """The set of a fresh bool ``mask`` of the grid's shape that no
        caller keeps, frozen in place instead of copied."""
        out = cls.__new__(cls)
        out.__dict__.update(grid=grid, mask=_frozen(mask))
        return out

    @cached_property
    def popcount(self) -> int:
        """The cell count; the mask is a private read-only copy, so it is
        counted once."""
        return int(self.mask.sum())

    def measure(self) -> Fraction:
        return self.popcount * self.grid.cell_volume

    def relative_measure(self) -> Fraction:
        return Fraction(self.popcount, self.grid.total_cells)


def _repeat(arr: np.ndarray, extra: Sequence[int]) -> np.ndarray:
    """Each cell of ``arr`` as its 2**extra[ax] subcells along every axis."""
    for ax, e in enumerate(extra):
        if e:
            arr = np.repeat(arr, 1 << e, axis=ax)
    return arr


def _coarse_counts(mask: np.ndarray, fine_res: Sequence[int], coarse_res: Sequence[int]) -> np.ndarray:
    """Per-coarse-cell popcounts via block reshaping."""
    blocks = []
    newshape = []
    for m, c in zip(fine_res, coarse_res):
        if c > m:
            raise ValueError("coarse resolution exceeds grid resolution")
        newshape.extend([1 << c, 1 << (m - c)])
    # sum out every second (intra-block) axis, counting in int64 without
    # an int64 copy of the mask
    return mask.reshape(newshape).sum(axis=tuple(range(1, 2 * len(fine_res), 2)), dtype=np.int64)


def uniform_distribution_check(s: GridSet, m: Sequence[int]) -> bool:
    """Exact check of ``|P ∩ Q| = |P| |Q|`` over every coarse cell Q.

    Measures are normalized to the ambient box, so in cell counts the
    identity reads ``count_Q * total = count * cells_per_Q * n_coarse`` --
    equivalently every coarse cell holds the same count.
    """
    m = tuple(int(x) for x in m)
    if len(m) != s.grid.n:
        raise ValueError("dimension mismatch")
    counts = _coarse_counts(s.mask, s.grid.resolution, m)
    total = s.popcount
    n_coarse = int(np.prod([1 << c for c in m], dtype=object))
    # |P∩Q|·(#coarse cells) == |P| for every Q, all in exact integers
    return bool(np.all(counts * n_coarse == total))


def _payload(table, codes):
    """(num, den) of the cells that take ``table[codes]``, converting each
    distinct value once onto one common denominator, the lcm of theirs."""
    table = [Fraction(v) for v in table]
    den = math.lcm(*(v.denominator for v in table))
    nums = [v.numerator * (den // v.denominator) for v in table]
    return np.array(nums, dtype=np.int64 if max(nums) < 1 << 63 else object)[codes], den


def _value_table(num: np.ndarray, den: int, cell_den: np.ndarray):
    """(table, codes): the distinct values ``num / (cell_den * den)`` of
    per-cell numerators and denominators, such as a max field's best
    averages, as Fractions; the row-major cells are ``table[codes]``."""
    flat = num.ravel()
    dens, which = np.unique(cell_den.ravel(), return_inverse=True)
    table = []
    codes = np.empty(flat.size, dtype=np.intp)
    for i, d in enumerate(dens.tolist()):
        cells = which == i
        part = flat[cells]
        # distinct values by one vectorised sort: on 2048^2 payloads about
        # twice as fast as np.unique's hash table (which imports numpy.ma),
        # and without the argsort-sized arrays of its return_inverse
        nums = np.sort(part)
        nums = nums[np.append(True, nums[1:] != nums[:-1])]
        codes[cells] = np.searchsorted(nums, part) + len(table)
        table.extend(Fraction(p, d * den) for p in nums.tolist())
    return np.array(table), codes


def _counts(codes: np.ndarray, size: int, chunk: int = 1 << 14) -> np.ndarray:
    """How many cells take each code ``0 .. size - 1``, a chunk at a time:
    bincount copies its input as intp (32 MB for 2048^2 small codes), so
    a chunk copies 128 KB."""
    flat = codes.ravel()
    parts = (np.bincount(flat[i : i + chunk], minlength=size) for i in range(0, flat.size, chunk))
    return sum(parts, np.zeros(size, dtype=np.int64))


@dataclass(frozen=True, eq=False, init=False)
class StepFunction:
    """A nonnegative cell-constant function on a dyadic grid.

    ``table`` holds the distinct values as Fractions, ascending (a value
    no cell takes may stay), and ``codes`` one index into it per cell, in
    the smallest unsigned dtype that fits.  The kernels' payload num / den
    (int64, or object ints past int64) and ``values`` are built on read.
    """

    grid: DyadicGrid
    table: tuple
    codes: np.ndarray

    def _set(self, grid: DyadicGrid, table, codes) -> "StepFunction":
        """Sort and deduplicate ``table`` in O(table) work; ``codes`` are
        remapped only when that changed it, and kept if of the code dtype."""
        table = [Fraction(v) for v in table]
        if any(v < 0 for v in table):
            raise ValueError("step functions are nonnegative")
        codes = np.asarray(codes).reshape(grid.shape)
        if codes.size and (codes.min() < 0 or codes.max() >= len(table)):
            raise ValueError("codes outside the value table")
        distinct = sorted(set(table))
        if distinct != table:
            index = {v: i for i, v in enumerate(distinct)}
            codes = np.array([index[v] for v in table])[codes]
        codes = codes.astype(np.min_scalar_type(len(distinct) - 1), copy=False)
        self.__dict__.update(grid=grid, table=tuple(distinct), codes=_frozen(codes))
        return self

    @classmethod
    def from_table(cls, grid: DyadicGrid, table, codes) -> "StepFunction":
        """The function whose row-major cells take ``table[codes]``."""
        return cls.__new__(cls)._set(grid, table, codes)

    @classmethod
    def indicator(cls, s: GridSet, height=1) -> "StepFunction":
        return cls.from_table(s.grid, [0, height], s.mask)

    @property
    def mode(self) -> str:
        """The value arithmetic: always exact, "rational"."""
        return "rational"

    @cached_property
    def den(self) -> int:
        return math.lcm(*(v.denominator for v in self.table))

    @cached_property
    def num(self) -> np.ndarray:
        return _frozen(_payload(self.table, self.codes)[0])

    @cached_property
    def values(self) -> np.ndarray:
        """The cells as Fractions, built on first read."""
        return _frozen(np.array(self.table, dtype=object)[self.codes])

    def integral(self) -> Fraction:
        counts = _counts(self.codes, len(self.table)).tolist()
        return sum((v * c for v, c in zip(self.table, counts)), Fraction(0)) * self.grid.cell_volume


# ---------------------------------------------------------------------------
# plain-text serialization: "n m_1 ... m_n" header then row-major values


def _format_value(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)


def _text_chunks(table, codes, end: str = "\n", chunk: int = 1 << 13):
    """Row-major cell text in chunks; each distinct value is formatted once.
    A chunk's object gather, list and joined text are the writer's peak,
    so a chunk is a few thousand cells."""
    tokens = np.array([_format_value(v) + end for v in table], dtype=object)
    for start in range(0, len(codes), chunk):
        yield "".join(tokens[codes[start : start + chunk]].tolist())


def _step_text(f: StepFunction):
    """The text of ``f``: its header line, then its cells in chunks."""
    yield f"{f.grid.n} " + " ".join(str(m) for m in f.grid.resolution) + "\n"
    yield from _text_chunks(f.table, f.codes.ravel())


def save_step_function(f: StepFunction, path):
    with open(path, "w") as fh:
        fh.writelines(_step_text(f))
