"""Global GKLS master equation in the normal-mode basis.

Each normal mode is a damped oscillator of its own: drift and diffusion
are block diagonal over (eta_+, Pi_+, eta_-, Pi_-), and the steady state
is a closed form, rotated back to the local quadratures.  The printed
equations of motion carry a stiffness term that must be quadratic in the
mode frequency for the stated stationary solution to be a fixed point;
the quadratic form is used here (validated against a generator oracle in
the tests).

The baths enter only through the spectral density J and the Bose
occupations n_a at the two mode frequencies.  Bath a couples to mode s
with the weight w^a_s, cos^2(theta) for (c, +) and (h, -) and sin^2 for
the other two, so w^c_s + w^h_s = 1.  Mode s then relaxes at the rate
J(Omega_s) / Omega_s toward the occupation
occ_s = w^c_s n_c(Omega_s) + w^h_s n_h(Omega_s), and the steady state is
each mode thermal at occ_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (WireParams, NormalModes, normal_modes, occupation,
                    rotation_matrix, spectral_density)
from .results import SteadyStateResult


@dataclass(frozen=True)
class GmeCoefficients:
    """The baths at the two normal modes, indexed s = 0 (+) and 1 (-).

    omegas[s] = Omega_s, j[s] = J(Omega_s), n[a][s] = n_a(Omega_s) with
    a = 0 (c) and 1 (h), and occ[s] = occ_s = sum_a w^a_s n_a(Omega_s),
    with the bath weights w^a_s = cos^2 for (c, +) and (h, -) and sin^2
    for the other two.
    """

    modes: NormalModes
    omegas: tuple
    j: tuple
    n: tuple
    occ: tuple


def gme_coefficients(params: WireParams) -> GmeCoefficients:
    """J and both baths' occupations at the two normal-mode frequencies."""
    modes = normal_modes(params)
    omegas = (modes.omega_plus, modes.omega_minus)
    n = tuple(tuple(occupation(om, t) for om in omegas)
              for t in (params.t_c, params.t_h))
    w = (modes.cos_sq, modes.sin_sq), (modes.sin_sq, modes.cos_sq)
    return GmeCoefficients(
        modes=modes, omegas=omegas,
        j=tuple(spectral_density(om, params) for om in omegas), n=n,
        occ=tuple(w[0][s] * n[0][s] + w[1][s] * n[1][s] for s in (0, 1)))


def gme_normal_mode_covariance(coeffs: GmeCoefficients) -> np.ndarray:
    """Closed-form stationary covariance over (eta_+, Pi_+, eta_-, Pi_-):
    each mode thermal at occ_s, <eta_s^2> = (occ_s + 1/2) / Omega_s and
    <Pi_s^2> = Omega_s (occ_s + 1/2)."""
    return np.diag([v for om, occ in zip(coeffs.omegas, coeffs.occ)
                    for v in ((occ + 0.5) / om, om * (occ + 0.5))])


def thermal_bias(coeffs: GmeCoefficients) -> float:
    """sum_s J(Omega_s) [n_h(Omega_s) - n_c(Omega_s)], the thermal drive of
    both the global and the Redfield current: exactly zero at equal
    temperatures and positive for T_h > T_c."""
    (nc, nh), j = coeffs.n, coeffs.j
    return sum(j[s] * (nh[s] - nc[s]) for s in (0, 1))


def gme_heat_currents(params: WireParams,
                      coeffs: GmeCoefficients | None = None) -> tuple:
    """Steady-state incoming heat currents (Qdot_c, Qdot_h).

    Bath a drives mode s at the rate w^a_s J(Omega_s) / Omega_s toward
    n_a(Omega_s), so it feeds the mode w^a_s J(Omega_s) (n_a - occ_s).
    With occ_s - n_c = w^h_s (n_h - n_c) and w^c_s w^h_s = sin^2 cos^2,
    Qdot_h = sin^2 cos^2 sum_s J(Omega_s) [n_h(Omega_s) - n_c(Omega_s)]
    (thermal_bias): a product of non-negative factors for T_h > T_c, free
    of cancellation at any k.  Qdot_c = -Qdot_h.
    """
    coeffs = gme_coefficients(params) if coeffs is None else coeffs
    qdot_h = coeffs.modes.sin_cos**2 * thermal_bias(coeffs)
    return (-qdot_h, qdot_h)


def gme_steady_state(params: WireParams) -> SteadyStateResult:
    """Global GKLS steady state in the local quadratures.  A closed form,
    so its diagnostics are empty."""
    coeffs = gme_coefficients(params)
    rot = rotation_matrix(coeffs.modes)
    return SteadyStateResult(
        method="global",
        covariance=rot @ gme_normal_mode_covariance(coeffs) @ rot.T,
        heat_currents=gme_heat_currents(params, coeffs),
    )
