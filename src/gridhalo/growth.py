"""Growth functions Phi used for mass accounting and halo models.

The one family the constructions use: t -> t(1+ln+ t)^(k-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["GrowthFunction", "log_power_growth"]


@dataclass(frozen=True)
class GrowthFunction:
    name: str
    fn: Callable[[float], float]

    def __call__(self, t) -> float:
        t = float(t)
        if t <= 0:
            raise ValueError("growth functions are defined on (0, inf)")
        return self.fn(t)


def log_power_growth(k: int = 2) -> GrowthFunction:
    """t(1 + ln+ t)^(k-1)."""
    if k < 1:
        raise ValueError("k >= 1 required")

    def fn(t: float) -> float:
        return t * (1.0 + max(math.log(t), 0.0)) ** (k - 1)

    return GrowthFunction(f"t(1+ln+t)^{k - 1}", fn)
