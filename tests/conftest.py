"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from gridhalo import resonance


@pytest.fixture
def domain_breach(monkeypatch):
    """Make the rearrangement's permutation also swap the first two cells
    that no stage set E_k and no band A_k touches."""
    real = resonance._permutation

    def swapped(e_final, bands):
        perm = real(e_final, bands)
        domain = np.zeros(bands[0].shape, dtype=bool)
        for mask in (*(E.mask for E in e_final), *bands):
            domain |= mask
        a, b = np.flatnonzero(~domain)[:2]
        perm[[a, b]] = perm[[b, a]]
        return perm

    monkeypatch.setattr(resonance, "_permutation", swapped)
