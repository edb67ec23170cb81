"""Local GKLS master equation as a drift/diffusion pair.

The local dissipators are derived for each node at zero inter-node
coupling; each damps and heats its own node only.  With the coupled
Hamiltonian they give a linear covariance dynamics that couples all ten
independent moments, and the steady state is a direct dense solve.
"""

from __future__ import annotations

import numpy as np

from .model import (WireParams, occupation, secular_validity_margin,
                    spectral_density)
from .moments import covariance, moment_equations, stationary
from .results import SteadyStateResult


def _local_drift(params: WireParams, om: float) -> float:
    """Drift Delta~ = -J(w) / w of a bare node of frequency w."""
    return -spectral_density(om, params) / om


def _bath_drift_diffusion(params: WireParams, alpha: str) -> tuple:
    """Drift and diffusion that the dissipator of bath alpha adds: its node
    relaxes at the rate -Delta~ and is heated with
    Sigma~ = -Delta~ (2n + 1)."""
    x, om = (0, params.omega_c) if alpha == "c" else (2, params.omega_h)
    delta = _local_drift(params, om)
    sigma = -delta * (2.0 * occupation(om, params.temperature(alpha)) + 1.0)
    a, d = np.zeros((2, 4, 4))
    a[x, x] = a[x + 1, x + 1] = delta / 2.0
    d[x, x] = sigma / (2.0 * om)
    d[x + 1, x + 1] = om * sigma / 2.0
    return a, d


def lme_drift_diffusion(params: WireParams) -> tuple:
    """Drift A and diffusion D over (X_c, P_c, X_h, P_h): the coupled
    Hamiltonian flow plus both local dissipators."""
    k = params.k
    flow = np.array([[0.0, 1.0, 0.0, 0.0],
                     [-(params.omega_c**2 + k), 0.0, k, 0.0],
                     [0.0, 0.0, 0.0, 1.0],
                     [k, 0.0, -(params.omega_h**2 + k), 0.0]])
    (a_c, d_c), (a_h, d_h) = (_bath_drift_diffusion(params, alpha)
                              for alpha in ("c", "h"))
    return flow + a_c + a_h, d_c + d_h


def lme_heat_currents(gamma: np.ndarray, params: WireParams) -> tuple:
    """Incoming currents per bath from the stationary covariance.

    The bath-a current is the energy its dissipator injects,
    h . (M_a y + c_a), with (M_a, c_a) the moment equations of that
    dissipator's drift and diffusion and h the coefficients of <H_S>.
    Written that way it is a sum of O(1) terms that cancel down to O(k^2).
    Stationarity of the node energy <P_a^2 + (w_a^2 + k) X_a^2>/2, which
    only bath a and the bond change, turns it into the bond form

        Qdot_h = -k (<X_c P_h> + Delta~_h/2 <X_c X_h>),
        Qdot_c = -k (<X_h P_c> + Delta~_c/2 <X_c X_h>),

    which has no cancellation and vanishes exactly at k = 0.
    """
    delta_c = _local_drift(params, params.omega_c)
    delta_h = _local_drift(params, params.omega_h)
    xcxh, xcph, xhpc = gamma[0, 2], gamma[0, 3], gamma[1, 2]
    return (-params.k * (xhpc + delta_c / 2.0 * xcxh),
            -params.k * (xcph + delta_h / 2.0 * xcxh))


def lme_steady_state(params: WireParams) -> SteadyStateResult:
    """Solve the stationary moment equations and package covariance plus
    heat currents."""
    y, residual = stationary(*moment_equations(*lme_drift_diffusion(params)))
    gamma = covariance(y)
    return SteadyStateResult(
        method="local",
        covariance=gamma,
        heat_currents=lme_heat_currents(gamma, params),
        diagnostics={"secular_margin": secular_validity_margin(params),
                     "residual": residual},
    )
