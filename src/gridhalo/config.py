"""Experiment configuration: one table of the fields each run reads.

A run takes only the fields its runner reads (``_READ_DEFAULTS``), plus
``out``: any other key is refused by name, so no setting is silently
ignored, and every field the run reads that is not set takes its default
from the same table.  ``from_mapping(kind, {})`` is the configuration of
a bare ``gridhalo KIND``.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["ConfigError", "ExperimentConfig"]

# the fields each kind's runner reads, each with its default; zygmund and
# maxfield read one h sample, lemmas refuses h >= 8 on every grid (its
# level set reaches too near the walls), and a 2^5 maxfield grid finishes
# in seconds, larger ones being bounded by experiments.MAXFIELD_SHAPE_CELLS
_READ_DEFAULTS = {
    "halo": {
        "grid_bits": 10,
        "h_list": (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        "t_list": (math.inf,),
        "r_list": (1,),
        "k": 2,
        "growth_exponent": 2,
    },
    "lemmas": {"grid_bits": 10, "h_list": (4.0,)},
    "zygmund": {
        "depth": 4,
        "style": "deep",
        "growth_exponent": 2,
        "h_list": (4.0,),
        "k": 2,
        "rotations_deg": (0.0, 22.5, 45.0, 67.5),
    },
    "resonance": {"depth": 4, "style": "deep", "growth_exponent": 2, "k": 2},
    "rearrange": {"depth": 2, "style": "square", "growth_exponent": 2, "k": 2},
    "maxfield": {"grid_bits": 5, "h_list": (4.0,), "k": 2, "n": 2},
}

# the finest grid: cell indices along an axis, and the grid size 2^bits,
# must fit int64
MAX_GRID_BITS = 62


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


# how each settable field parses from its text
_PARSERS = {
    "n": int,
    "k": int,
    "rotations_deg": _floats,
    "grid_bits": int,
    "h_list": _floats,
    "t_list": _floats,
    "r_list": _ints,
    "depth": int,
    "style": str,
    "growth_exponent": int,
    "out": str,
}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one run, as ``from_mapping`` builds them.  A field
    the kind's runner does not read is None, but for the three that
    report.json records for every kind (n, k, grid_bits), which keep the
    values below; out is the artifact directory."""

    kind: str
    rotations_deg: tuple | None
    h_list: tuple | None
    t_list: tuple | None
    r_list: tuple | None
    depth: int | None
    style: str | None
    growth_exponent: int | None
    n: int = 2
    k: int = 2
    grid_bits: int = 10
    out: str = "out"

    def __post_init__(self):
        if self.kind not in _READ_DEFAULTS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.n < 1 or self.k < 1:
            raise ConfigError("n and k must be positive")
        for name in ("h_list", "t_list", "r_list", "rotations_deg"):
            if getattr(self, name) == ():
                raise ConfigError(f"{name} must be nonempty")
        # an unread sample list is None and has nothing to check
        hs, ts, rs = (getattr(self, name) or () for name in ("h_list", "t_list", "r_list"))
        if not all(1 < h < math.inf for h in hs):
            raise ConfigError("h samples must be finite and exceed 1")
        if self.kind == "halo" and len(hs) < 3:
            raise ConfigError("the halo band fit needs at least three h samples")
        if self.kind == "halo" and sorted(set(hs)) != list(hs):
            raise ConfigError("halo h samples must be strictly increasing")
        if self.kind in ("zygmund", "maxfield") and len(hs) > 1:
            raise ConfigError(f"{self.kind} reads one h sample, not the {len(hs)} of h_list")
        for name, values in (("t_list", ts), ("r_list", rs)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} repeats a value: {values}")
        if not all(t > 1 for t in ts):
            raise ConfigError("truncation multipliers t must exceed 1")
        if any(r < 1 for r in rs):
            raise ConfigError("ball radii must be at least 1 cell")
        if not all(math.isfinite(g) for g in self.rotations_deg or ()):
            raise ConfigError("rotations must be finite")
        if self.growth_exponent is not None and self.growth_exponent < 1:
            raise ConfigError("growth_exponent must be >= 1")
        if self.depth is not None and self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.grid_bits < 2:
            raise ConfigError("grid resolution too small to hold one tile")
        if self.grid_bits > MAX_GRID_BITS:
            raise ConfigError(
                f"grid {self.grid_bits} above {MAX_GRID_BITS} bits per axis: "
                "cell indices are int64"
            )
        if self.style not in (None, "deep", "square"):
            raise ConfigError("style must be deep or square")

    @classmethod
    def from_mapping(cls, kind: str, mapping: dict) -> "ExperimentConfig":
        """The configuration of a ``kind`` run from text values, refusing a
        key that is no field and a field that the run would not read; each
        field the run reads and ``mapping`` leaves out takes its default."""
        if kind not in _READ_DEFAULTS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        unknown = sorted(set(mapping) - set(_PARSERS))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        unread = sorted(set(mapping) - set(_READ_DEFAULTS[kind]) - {"out"})
        if unread:
            raise ConfigError(f"{kind} runs do not read {', '.join(unread)}")
        # the fields without a default are None unless the run reads them
        required = (f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING)
        kw = dict(dict.fromkeys(required), **_READ_DEFAULTS[kind], kind=kind)
        for name, value in mapping.items():
            try:
                kw[name] = _PARSERS[name](str(value))
            except ValueError as e:
                raise ConfigError(f"bad value for {name}: {value!r}") from e
        return cls(**kw)
