"""The quarter-turn test that picks a rotated basis's witness route.

``witness._route`` sends a basis rotated by a multiple of pi/2 down the
exact axis route, since a quarter turn about a rectangle's own center
swaps its edges; every other angle takes the disk certificate.
"""

from __future__ import annotations

import math

__all__ = ["quarter_turns"]


def quarter_turns(gamma: float) -> int | None:
    """Number of pi/2 turns if gamma is (numerically) a multiple of pi/2."""
    q = gamma / (math.pi / 2)
    if abs(q - round(q)) < 1e-12:
        return int(round(q)) % 4
    return None
