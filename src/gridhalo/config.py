"""Flat key=value experiment configuration.

Files hold ``key = value`` lines, ``#`` comments, and ``include PATH``
lines (relative to the including file).  Later keys override earlier
ones; command-line overrides are merged last.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ConfigError", "read_config_file", "ExperimentConfig"]

_KINDS = ("halo", "lemmas", "zygmund", "resonance", "rearrange", "maxfield")


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
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as e:
        raise ConfigError(f"bad number list: {text!r}") from e


def _ints(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as e:
        raise ConfigError(f"bad integer list: {text!r}") from e


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int = 2
    k: int = 2
    rotations_deg: tuple = (0.0, 22.5, 45.0, 67.5)
    grid_bits: int = 10
    resolution_cap: int = 12
    h_list: tuple = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
    t_list: tuple = (float("inf"),)
    r_list: tuple = (1,)
    depth: int = 4
    style: str = "deep"
    growth_exponent: int = 2
    out: str = "out"
    # every run computes in exact rational arithmetic; the key stays because
    # report.json's meta records it
    mode: str = "rational"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.mode != "rational":
            raise ConfigError(f"mode must be rational, got {self.mode!r}")
        if self.n < 1 or self.k < 1:
            raise ConfigError("n and k must be positive")
        if self.n != 2 and self.kind != "maxfield":
            raise ConfigError(f"{self.kind} runs are planar: n must be 2")
        for name in ("h_list", "t_list", "r_list", "rotations_deg"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        if any(h <= 1 for h in self.h_list):
            raise ConfigError("h samples must exceed 1")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.grid_bits < 2 or self.resolution_cap < 2:
            raise ConfigError("grid resolution too small to hold one tile")
        if self.resolution_cap < 2 + 3 * (self.depth - 1):
            raise ConfigError(
                f"resolution cap {self.resolution_cap} below the minimum "
                f"feasible for depth {self.depth}"
            )
        if self.style not in ("deep", "square"):
            raise ConfigError("style must be deep or square")

    @classmethod
    def from_mapping(cls, kind: str, mapping: dict) -> "ExperimentConfig":
        mapping = dict(mapping)
        kw = {"kind": kind}
        simple = {
            "n": int,
            "k": int,
            "grid_bits": int,
            "resolution_cap": int,
            "depth": int,
            "seed": int,
            "growth_exponent": int,
            "out": str,
            "mode": str,
            "style": str,
        }
        for name, conv in simple.items():
            if name in mapping:
                try:
                    kw[name] = conv(mapping.pop(name))
                except ValueError as e:
                    raise ConfigError(f"bad value for {name}") from e
        for name, conv in (
            ("h_list", _floats),
            ("t_list", _floats),
            ("rotations_deg", _floats),
            ("r_list", _ints),
        ):
            if name in mapping:
                kw[name] = conv(str(mapping.pop(name)))
        if mapping:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(mapping))}")
        return cls(**kw)

    def canonical_text(self) -> str:
        """Stable text form, used for content-hash caching."""
        items = []
        for name in sorted(self.__dataclass_fields__):
            if name != "out":
                items.append(f"{name}={getattr(self, name)!r}")
        return "\n".join(items)
