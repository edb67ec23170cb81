"""Partial Markovian Redfield equation.

Retains the near-degenerate non-secular channel at frequency
Omega_+ - Omega_- on top of the global dissipators.  At stationarity only
four quadratic averages survive: the mode occupations <n_+>, <n_-> and the
cross-mode combinations <d_+-> = i<a_+^dag a_- - a_+ a_-^dag> and
<s_+-> = <a_+^dag a_- + a_+ a_-^dag>, obeying dy/dt = B y + b.

Both baths share lambda^2 and the cutoff, so the drift terms that would
couple the occupations to the cross averages (each the spectral density
J(Omega) of one bath minus that of the other) cancel identically.
The occupations are then the global ones, and (d, s) solve the 2x2 block
[[kappa, -delta], [delta, kappa]] with damping
kappa = -sum_s J(Omega_s)/(2 Omega_s),
mode splitting delta = Omega_+ - Omega_- and the thermal drive
b_4 = -sin cos sum_s J(Omega_s) [n_h - n_c](Omega_s) / sqrt(Omega_+ Omega_-).
The current is the global one times delta^2 / (delta^2 + kappa^2): where
the mode splitting falls below the damping, the regime in which the
secular approximation breaks down, the retained cross coherence carries
heat back and suppresses the global current.
"""

from __future__ import annotations

import math

from .model import WireParams, rotation_matrix
from .gme import (gme_coefficients, gme_heat_currents,
                  gme_normal_mode_covariance, thermal_bias)
from .results import SteadyStateResult


def redfield_steady_state(params: WireParams) -> SteadyStateResult:
    """Partial-Redfield steady state in the local quadratures.  A closed
    form, so its diagnostics are empty."""
    coeffs = gme_coefficients(params)
    modes = coeffs.modes
    om_p, om_m = coeffs.omegas
    rates = [j / om for j, om in zip(coeffs.j, coeffs.omegas)]
    kappa = -0.5 * sum(rates)
    # Omega_+ - Omega_- = (Omega_+^2 - Omega_-^2) / (Omega_+ + Omega_-)
    delta = modes.splitting / (om_p + om_m)
    b4 = -modes.sin_cos * thermal_bias(coeffs) / math.sqrt(om_p * om_m)
    norm = delta**2 + kappa**2
    d_pm, s_pm = -delta * b4 / norm, -kappa * b4 / norm

    # normal-mode covariance over (eta_+, Pi_+, eta_-, Pi_-): the global
    # diagonal plus the cross entries of the coherence (d, s).  The two d
    # entries are time-reversed (CHANGES.md FOUND); they stay until the
    # frozen fig1b references are re-frozen with the fix.
    g_nm = gme_normal_mode_covariance(coeffs)
    g_nm[0, 2] = g_nm[2, 0] = s_pm / (2.0 * math.sqrt(om_p * om_m))
    g_nm[0, 3] = g_nm[3, 0] = 0.5 * math.sqrt(om_p / om_m) * d_pm
    g_nm[1, 2] = g_nm[2, 1] = -0.5 * math.sqrt(om_m / om_p) * d_pm
    g_nm[1, 3] = g_nm[3, 1] = 0.5 * math.sqrt(om_p * om_m) * s_pm
    rot = rotation_matrix(modes)
    # the global current scaled by a ratio <= 1, so that
    # 0 <= Qdot_h <= global also holds in floats
    qdot_h = gme_heat_currents(params, coeffs)[1] * (delta**2 / norm)
    return SteadyStateResult(
        method="redfield",
        covariance=rot @ g_nm @ rot.T,
        heat_currents=(-qdot_h, qdot_h),
    )
