"""Flat key=value experiment configuration.

Files hold ``key = value`` lines, ``#`` comments, and ``include PATH``
lines (relative to the including file).  Later keys override earlier
ones; command-line overrides are merged last.  A run takes only the
fields its runner reads (``_READS``), plus ``out`` and ``n``: any other
key is refused, so no setting is silently ignored.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

__all__ = ["ConfigError", "read_config_file", "ExperimentConfig"]

# the fields each kind's runner reads; every kind also takes out, where its
# artifacts go, and n, which the planar rule reads
_READS = {
    "halo": ("grid_bits", "h_list", "t_list", "r_list", "k", "growth_exponent"),
    "lemmas": ("grid_bits", "h_list"),
    "zygmund": ("depth", "style", "growth_exponent", "h_list", "k", "rotations_deg"),
    "resonance": ("depth", "style", "growth_exponent", "k"),
    "rearrange": ("depth", "style", "growth_exponent", "k"),
    "maxfield": ("grid_bits", "h_list", "k"),
}

# the finest grid: cell indices along an axis, and the grid size 2^bits,
# must fit int64
MAX_GRID_BITS = 62


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def read_config_file(path: str) -> dict:
    out: dict = {}
    seen = set()
    _read_into(os.path.abspath(path), out, seen)
    return out


def _read_into(path: str, out: dict, seen: set) -> None:
    if path in seen:
        raise ConfigError(f"include cycle at {path}")
    seen.add(path)
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("include "):
            target = line[len("include ") :].strip()
            if not os.path.isabs(target):
                target = os.path.join(os.path.dirname(path), target)
            _read_into(os.path.abspath(target), out, seen)
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()


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


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int = 2
    k: int = 2
    rotations_deg: tuple = (0.0, 22.5, 45.0, 67.5)
    grid_bits: int = 10
    h_list: tuple = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
    t_list: tuple = (float("inf"),)
    r_list: tuple = (1,)
    depth: int = 4
    style: str = "deep"
    growth_exponent: int = 2
    out: str = "out"

    def __post_init__(self):
        if self.kind not in _READS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.n < 1 or self.k < 1:
            raise ConfigError("n and k must be positive")
        if self.n != 2 and self.kind != "maxfield":
            raise ConfigError(f"{self.kind} runs are planar: n must be 2")
        for name in ("h_list", "t_list", "r_list", "rotations_deg"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        if not all(1 < h < math.inf for h in self.h_list):
            raise ConfigError("h samples must be finite and exceed 1")
        if self.kind == "halo" and len(self.h_list) < 3:
            raise ConfigError("the halo band fit needs at least three h samples")
        if self.kind == "halo" and sorted(set(self.h_list)) != list(self.h_list):
            raise ConfigError("halo h samples must be strictly increasing")
        if self.kind in ("zygmund", "maxfield") and len(self.h_list) > 1:
            raise ConfigError(
                f"{self.kind} reads one h sample, not the {len(self.h_list)} of h_list"
            )
        for name in ("t_list", "r_list"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} repeats a value: {values}")
        if not all(t > 1 for t in self.t_list):
            raise ConfigError("truncation multipliers t must exceed 1")
        if any(r < 1 for r in self.r_list):
            raise ConfigError("ball radii must be at least 1 cell")
        if not all(math.isfinite(g) for g in self.rotations_deg):
            raise ConfigError("rotations must be finite")
        if self.growth_exponent < 1:
            raise ConfigError("growth_exponent must be >= 1")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.grid_bits < 2:
            raise ConfigError("grid resolution too small to hold one tile")
        if self.grid_bits > MAX_GRID_BITS:
            raise ConfigError(
                f"grid {self.grid_bits} above {MAX_GRID_BITS} bits per axis: "
                "cell indices are int64"
            )
        if self.style not in ("deep", "square"):
            raise ConfigError("style must be deep or square")

    @classmethod
    def from_mapping(cls, kind: str, mapping: dict) -> "ExperimentConfig":
        """The configuration of a ``kind`` run from text values, refusing a
        key that is no field and a field that the run would not read."""
        if kind not in _READS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        unknown = sorted(set(mapping) - set(_PARSERS))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        unread = sorted(set(mapping) - set(_READS[kind]) - {"out", "n"})
        if unread:
            raise ConfigError(f"{kind} runs do not read {', '.join(unread)}")
        kw = {"kind": kind}
        for name, value in mapping.items():
            try:
                kw[name] = _PARSERS[name](str(value))
            except ValueError as e:
                raise ConfigError(f"bad value for {name}: {value!r}") from e
        return cls(**kw)
