"""Growth functions Phi used for mass accounting and halo models.

The one family the constructions use: t -> t(1+ln+ t)^(k-1).  It is the
Phi of the witness and resonance constructions, the halo band's scale
(``halo.halo_fit``) and the model that Lemma 10's level-set measures are
divided by (``experiments.run_lemma_checks``); the model is written here
only.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["log_power_growth"]


def log_power_growth(k: int = 2) -> Callable[[float], float]:
    """t(1 + ln+ t)^(k-1), defined on (0, inf)."""
    if k < 1:
        raise ValueError("k >= 1 required")

    def phi(t) -> float:
        t = float(t)
        if t <= 0:
            raise ValueError("growth functions are defined on (0, inf)")
        return t * (1.0 + max(math.log(t), 0.0)) ** (k - 1)

    return phi
