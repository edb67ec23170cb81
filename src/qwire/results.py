"""Common result container shared by the four steady-state solvers.

No solver raises on a WireParams: a failed solve, of which only the exact
quadrature has any, is NaNs with the reason in diagnostics["error"]."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

METHODS = ("global", "local", "redfield", "exact")


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady state of one solver.

    method        : one of METHODS
    covariance    : 4x4 symmetric matrix in (X_c, P_c, X_h, P_h) ordering
    heat_currents : incoming currents (Qdot_c, Qdot_h); they sum to zero
    diagnostics   : figures of merit of a numerical solve; only the
                    exact quadrature reports any, its error estimate and
                    work.  Empty for the global and Redfield closed forms
                    and the local dense solve.  "error" holds the reason
                    of a failed solve, whose numbers are NaN
    """

    method: str
    covariance: np.ndarray
    heat_currents: tuple
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def qdot_c(self) -> float:
        return self.heat_currents[0]

    @property
    def qdot_h(self) -> float:
        return self.heat_currents[1]
