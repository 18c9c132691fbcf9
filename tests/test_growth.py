"""The growth function the constructions use."""

import math

import pytest

from gridhalo.growth import log_power_growth


def test_log_power_values():
    phi = log_power_growth(2)
    assert phi(1.0) == pytest.approx(1.0)
    assert phi(math.e) == pytest.approx(2 * math.e)
    assert phi(0.5) == pytest.approx(0.5)  # ln+ vanishes below 1
