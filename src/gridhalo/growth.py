"""Growth functions Phi used for mass accounting and halo models.

Built-in family: t -> t(1+ln+ t)^(k-1) and t -> t^p, plus a user table.
The delta2 / non-regularity flags are caller declarations: limsup
properties are not decidable from finitely many samples.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = ["GrowthFunction", "log_power_growth", "power_growth", "table_growth"]


@dataclass(frozen=True)
class GrowthFunction:
    name: str
    fn: Callable[[float], float]
    satisfies_delta2: bool
    is_non_regular: bool

    def __call__(self, t) -> float:
        t = float(t)
        if t <= 0:
            raise ValueError("growth functions are defined on (0, inf)")
        return self.fn(t)

    def monotone_on_samples(self, samples: Sequence[float]) -> bool:
        xs = sorted(float(s) for s in samples)
        ys = [self(x) for x in xs]
        return all(a <= b for a, b in zip(ys, ys[1:]))


def log_power_growth(k: int = 2) -> GrowthFunction:
    """t(1 + ln+ t)^(k-1); non-regular for k >= 2, satisfies delta2."""
    if k < 1:
        raise ValueError("k >= 1 required")

    def fn(t: float) -> float:
        return t * (1.0 + max(math.log(t), 0.0)) ** (k - 1)

    return GrowthFunction(f"t(1+ln+t)^{k - 1}", fn, True, k >= 2)


def power_growth(p: float) -> GrowthFunction:
    if p <= 0:
        raise ValueError("p > 0 required")
    # t^p is doubling for every p > 0: (2t)^p = 2^p t^p
    return GrowthFunction(f"t^{p}", lambda t: t**p, True, p > 1)


def table_growth(
    points: Sequence[tuple[float, float]],
    satisfies_delta2: bool = False,
    is_non_regular: bool = False,
) -> GrowthFunction:
    """Piecewise-linear interpolation of user (t, Phi(t)) samples."""
    pts = sorted((float(a), float(b)) for a, b in points)
    if len(pts) < 2:
        raise ValueError("need at least two table points")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    if any(b < a for a, b in zip(ys, ys[1:])):
        raise ValueError("table must be nondecreasing")

    def fn(t: float) -> float:
        if t <= xs[0]:
            return ys[0]
        if t >= xs[-1]:
            return ys[-1]
        i = bisect.bisect_right(xs, t) - 1
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = ys[i], ys[i + 1]
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

    return GrowthFunction("table", fn, satisfies_delta2, is_non_regular)
