"""Partial Markovian Redfield equation.

Retains the near-degenerate non-secular channel at frequency
Omega_+ - Omega_- on top of the global dissipators.  At stationarity only
four quadratic averages survive: the mode occupations <n_+->, <n_-> and the
cross-mode combinations <d_+-> = i<a_+^dag a_- - a_+ a_-^dag> and
<s_+-> = <a_+^dag a_- + a_+ a_-^dag>, obeying dy/dt = B y + b.

The tan/cot-weighted rate combinations of the printed coefficients are
evaluated in pre-multiplied form (sin(t)cos(t) times plain rates), which
keeps the k = 0 decoupled limit finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import WireParams, decay_rate, rotation_matrix, \
    secular_validity_margin
from .gme import gme_coefficients, GmeCoefficients
from .moments import stationary
from .results import SteadyStateResult


@dataclass(frozen=True)
class RedfieldSystem:
    """Linear system dy/dt = B y + b for (n_+, n_-, d_+-, s_+-)."""

    coeffs: GmeCoefficients
    b_matrix: np.ndarray
    b_vector: np.ndarray
    mixed_rates: dict


def _mixed_rates(params: WireParams, coeffs: GmeCoefficients) -> dict:
    """sin cos weighted rates V^a_{+-Omega_s} = sc gamma_a(+-Omega_s)/(2 Omega_s).

    These equal W^c tan(t) / W^h cot(t) (mode +) and W^c cot(t) /
    W^h tan(t) (mode -) wherever those are finite.
    """
    sc = coeffs.modes.sin_cos
    freqs = {"+": coeffs.modes.omega_plus, "-": coeffs.modes.omega_minus}
    out = {}
    for a in ("c", "h"):
        t = params.temperature(a)
        for s in ("+", "-"):
            om = freqs[s]
            out[(a, s, -1)] = sc * decay_rate(-om, t, params) / (2.0 * om)
            out[(a, s, +1)] = sc * decay_rate(om, t, params) / (2.0 * om)
    return out


def redfield_system(params: WireParams) -> RedfieldSystem:
    """Transcribe the 4x4 drift matrix B and the source vector b."""
    coeffs = gme_coefficients(params)
    v = _mixed_rates(params, coeffs)
    om_p, om_m = coeffs.modes.omega_plus, coeffs.modes.omega_minus
    rp = math.sqrt(om_p / om_m)   # sqrt(Omega_+/Omega_-)
    rm = 1.0 / rp

    b_vec = np.zeros(4)
    b_vec[0] = coeffs.w_neg["c"]["+"] + coeffs.w_neg["h"]["+"]
    b_vec[1] = coeffs.w_neg["c"]["-"] + coeffs.w_neg["h"]["-"]
    b_vec[3] = (rp * (v[("c", "+", -1)] - v[("h", "+", -1)])
                + rm * (v[("c", "-", -1)] - v[("h", "-", -1)]))

    delta_p = coeffs.delta_total("+")
    delta_m = coeffs.delta_total("-")
    b14 = 0.5 * rm * ((v[("c", "-", -1)] - v[("c", "-", +1)])
                      - (v[("h", "-", -1)] - v[("h", "-", +1)]))
    b24 = 0.5 * rp * ((v[("c", "+", -1)] - v[("c", "+", +1)])
                      - (v[("h", "+", -1)] - v[("h", "+", +1)]))

    b_mat = np.zeros((4, 4))
    b_mat[0, 0] = delta_p
    b_mat[1, 1] = delta_m
    b_mat[0, 3] = b14
    b_mat[3, 1] = 2.0 * b14
    b_mat[1, 3] = b24
    b_mat[3, 0] = 2.0 * b24
    b_mat[2, 2] = b_mat[3, 3] = 0.5 * (delta_p + delta_m)
    b_mat[2, 3] = om_m - om_p
    b_mat[3, 2] = om_p - om_m
    return RedfieldSystem(coeffs=coeffs, b_matrix=b_mat, b_vector=b_vec,
                          mixed_rates=v)


def redfield_covariance(y: np.ndarray, system: RedfieldSystem) -> np.ndarray:
    """Assemble the local-quadrature covariance from the four averages."""
    n_p, n_m, d_pm, s_pm = y
    om_p = system.coeffs.modes.omega_plus
    om_m = system.coeffs.modes.omega_minus
    # normal-mode covariance in the ordering (eta_+, Pi_+, eta_-, Pi_-)
    g_nm = np.zeros((4, 4))
    g_nm[0, 0] = (0.5 + n_p) / om_p
    g_nm[1, 1] = om_p * (0.5 + n_p)
    g_nm[2, 2] = (0.5 + n_m) / om_m
    g_nm[3, 3] = om_m * (0.5 + n_m)
    g_nm[0, 2] = g_nm[2, 0] = s_pm / (2.0 * math.sqrt(om_p * om_m))
    g_nm[0, 3] = g_nm[3, 0] = 0.5 * math.sqrt(om_p / om_m) * d_pm
    g_nm[1, 2] = g_nm[2, 1] = -0.5 * math.sqrt(om_m / om_p) * d_pm
    g_nm[1, 3] = g_nm[3, 1] = 0.5 * math.sqrt(om_p * om_m) * s_pm
    rot = rotation_matrix(system.coeffs.modes.theta)
    return rot @ g_nm @ rot.T


def redfield_heat_current(y: np.ndarray, system: RedfieldSystem) -> tuple:
    """Incoming currents (Qdot_c, Qdot_h) at the Redfield steady state.

    The printed expression equals the heat flowing out of the cold bath in
    the convention of the global-solution currents; the sign is normalized
    here so that Qdot_h > 0 for T_h > T_c (verified against the exact
    solver in the tests).
    """
    n_p, n_m, d_pm, s_pm = y
    c = system.coeffs
    om_p, om_m = c.modes.omega_plus, c.modes.omega_minus
    expr = (om_p * (c.w_pos["c"]["+"] * n_p - c.w_neg["c"]["+"] * (1.0 + n_p))
            + om_m * (c.w_pos["c"]["-"] * n_m
                      - c.w_neg["c"]["-"] * (1.0 + n_m)))
    sc_rates = system.mixed_rates
    expr += 0.5 * math.sqrt(om_p * om_m) * s_pm * (
        (sc_rates[("c", "-", +1)] - sc_rates[("c", "-", -1)])
        + (sc_rates[("c", "+", +1)] - sc_rates[("c", "+", -1)]))
    qdot_c = -expr
    return (qdot_c, -qdot_c)


def redfield_steady_state(params: WireParams) -> SteadyStateResult:
    """Partial-Redfield steady state in the local quadratures."""
    system = redfield_system(params)
    y, residual = stationary(system.b_matrix, system.b_vector)
    return SteadyStateResult(
        method="redfield",
        covariance=redfield_covariance(y, system),
        heat_currents=redfield_heat_current(y, system),
        diagnostics={"secular_margin": secular_validity_margin(params),
                     "residual": residual},
    )
