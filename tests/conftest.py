"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from gridhalo import resonance


@pytest.fixture
def domain_breach(monkeypatch):
    """Make the rearrangement's permutation also swap the first two cells
    that no stage set E_k (g's code 0) and no band A_k (band code 0)
    touches."""
    real = resonance._permutation

    def swapped(stage_codes, band_codes, depth):
        perm = real(stage_codes, band_codes, depth)
        a, b = np.flatnonzero((stage_codes == 0) & (band_codes == 0))[:2]
        perm[[a, b]] = perm[[b, a]]
        return perm

    monkeypatch.setattr(resonance, "_permutation", swapped)
