"""Exact maximal-operator fields, halo estimation, and staged resonance
constructions on dyadic grids."""

from .grid import (
    DyadicGrid,
    GridSet,
    StepFunction,
    uniform_distribution_check,
)
from .growth import log_power_growth
from .maxop import (
    BasisSpec,
    dyadic_ladder,
    enumerate_shapes,
    level_set,
    max_field_brute,
    max_field_fast,
    max_level_set,
)
from .halo import halo_estimate, halo_fit
from .witness import MPhiWitness, build_tile_witness
from .resonance import (
    Rearrangement,
    ResonancePlan,
    build_divergent_sequences,
    build_rearrangement,
    build_resonance_function,
    check_independence,
    replicate_configuration,
    synthetic_resonance_input,
)

__version__ = "0.1.0"
