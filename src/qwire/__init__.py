"""Steady states, heat currents and correlations of a two-node harmonic
wire between two thermal baths, solved by four methods (global GKLS,
local GKLS, partial Redfield, exact quantum Langevin)."""

from .model import (WireParams, NormalModes, normal_modes, spectral_density,
                    occupation, secular_validity_margin,
                    rotation_matrix)
from .results import SteadyStateResult, METHODS
from .gme import gme_steady_state, gme_heat_currents
from .lme import lme_steady_state, lme_heat_currents
from .redfield import redfield_steady_state
from .exact import exact_steady_state, exact_steady_states
from .compare import solve_all, sweep, correlation_report
from . import gaussian

__all__ = [
    "WireParams", "NormalModes", "normal_modes", "spectral_density",
    "occupation", "secular_validity_margin", "rotation_matrix",
    "SteadyStateResult", "METHODS",
    "gme_steady_state", "gme_heat_currents",
    "lme_steady_state", "lme_heat_currents",
    "redfield_steady_state",
    "exact_steady_state", "exact_steady_states",
    "solve_all", "sweep", "correlation_report",
    "gaussian",
]

__version__ = "0.1.0"
