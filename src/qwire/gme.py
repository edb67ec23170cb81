"""Global GKLS master equation in the normal-mode basis.

Each normal mode is a damped oscillator of its own: drift and diffusion
are block diagonal over (eta_+, Pi_+, eta_-, Pi_-), and the steady state
is a closed form, rotated back to the local quadratures.  The printed
equations of motion carry a stiffness term that must be quadratic in the
mode frequency for the stated stationary solution to be a fixed point;
the quadratic form is used here (validated against a generator oracle in
the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (WireParams, NormalModes, normal_modes, decay_rate,
                    rotation_matrix, secular_validity_margin)
from .moments import moment_equations, moments
from .results import SteadyStateResult

_ALPHAS = ("c", "h")
_SIGNS = ("+", "-")


@dataclass(frozen=True)
class GmeCoefficients:
    """Drift/diffusion coefficients of the global covariance dynamics.

    w_neg[a][s] is the rate W^a_{-Omega_s} (absorption from bath a via
    mode s) and w_pos[a][s] the emission rate W^a_{+Omega_s}; the drift
    Delta^a_s = w_neg - w_pos is negative and the diffusion
    Sigma^a_s = w_neg + w_pos positive at any finite temperature.
    """

    modes: NormalModes
    w_neg: dict
    w_pos: dict

    def omega(self, sign: str) -> float:
        return (self.modes.omega_plus if sign == "+"
                else self.modes.omega_minus)

    def delta(self, alpha: str, sign: str) -> float:
        return self.w_neg[alpha][sign] - self.w_pos[alpha][sign]

    def sigma(self, alpha: str, sign: str) -> float:
        return self.w_neg[alpha][sign] + self.w_pos[alpha][sign]

    def delta_total(self, sign: str) -> float:
        return self.delta("c", sign) + self.delta("h", sign)

    def sigma_total(self, sign: str) -> float:
        return self.sigma("c", sign) + self.sigma("h", sign)


def _mode_weight(alpha: str, sign: str, modes: NormalModes) -> float:
    # coupling weight of bath alpha to mode sign: cos^2 for (c,+) and
    # (h,-), sin^2 for the other two combinations
    return modes.cos_sq if (alpha == "c") == (sign == "+") else modes.sin_sq


def gme_coefficients(params: WireParams) -> GmeCoefficients:
    """All twelve W/Delta/Sigma coefficients of the global equation."""
    modes = normal_modes(params)
    freqs = {"+": modes.omega_plus, "-": modes.omega_minus}
    w_neg = {a: {} for a in _ALPHAS}
    w_pos = {a: {} for a in _ALPHAS}
    for a in _ALPHAS:
        t = params.temperature(a)
        for s in _SIGNS:
            om = freqs[s]
            weight = _mode_weight(a, s, modes) / (2.0 * om)
            w_neg[a][s] = weight * decay_rate(-om, t, params)
            w_pos[a][s] = weight * decay_rate(om, t, params)
    return GmeCoefficients(modes=modes, w_neg=w_neg, w_pos=w_pos)


def gme_drift_diffusion(coeffs: GmeCoefficients) -> tuple:
    """Drift A and diffusion D over (eta_+, Pi_+, eta_-, Pi_-)."""
    a, d = np.zeros((2, 4, 4))
    for x, sign in zip((0, 2), _SIGNS):
        om = coeffs.omega(sign)
        sg = coeffs.sigma_total(sign)
        a[x, x] = a[x + 1, x + 1] = coeffs.delta_total(sign) / 2.0
        a[x, x + 1] = 1.0
        a[x + 1, x] = -om**2
        d[x, x] = sg / (2.0 * om)
        d[x + 1, x + 1] = om * sg / 2.0
    return a, d


def gme_normal_mode_covariance(coeffs: GmeCoefficients) -> np.ndarray:
    """Closed-form stationary covariance over (eta_+, Pi_+, eta_-, Pi_-)."""
    gamma_nm = np.zeros((4, 4))
    for x, sign in zip((0, 2), _SIGNS):
        om = coeffs.omega(sign)
        dl = coeffs.delta_total(sign)
        sg = coeffs.sigma_total(sign)
        gamma_nm[x, x] = -sg / (2.0 * dl * om)
        gamma_nm[x + 1, x + 1] = -om * sg / (2.0 * dl)
    return gamma_nm


def thermal_bias(params: WireParams, modes: NormalModes) -> float:
    """sum_s J(Omega_s) [n_h(Omega_s) - n_c(Omega_s)].

    The thermal drive of both the global and the Redfield current, taken
    as half the difference of the two baths' absorption rates
    gamma(-Omega) = 2 J(Omega) n(Omega): exactly zero at equal
    temperatures and positive for T_h > T_c.
    """
    return 0.5 * sum(decay_rate(-om, params.t_h, params)
                     - decay_rate(-om, params.t_c, params)
                     for om in (modes.omega_plus, modes.omega_minus))


def gme_heat_currents(params: WireParams,
                      coeffs: GmeCoefficients | None = None) -> tuple:
    """Steady-state incoming heat currents (Qdot_c, Qdot_h).

    Eliminating the steady-state occupations from the per-bath expression
    leaves Qdot_h = sum_s Omega_s W^c_{Omega_s} W^h_{Omega_s}
    (e^{-Omega_s/T_h} - e^{-Omega_s/T_c}) / (-Delta_s).  With
    W^a_{Omega_s} = w^a_s J(Omega_s) (1 + n_a(Omega_s)) / Omega_s, whose
    bath weights satisfy w^c_s + w^h_s = 1 and w^c_s w^h_s = sin^2 cos^2,
    the net decay rate is -Delta_s = J(Omega_s) / Omega_s, and with
    (1 + n) e^{-Omega/T} = n this is
    Qdot_h = sin^2 cos^2 sum_s J(Omega_s) [n_h(Omega_s) - n_c(Omega_s)]
    (thermal_bias): a product of non-negative factors for T_h > T_c, free
    of cancellation at any k.  Qdot_c = -Qdot_h.
    """
    modes = normal_modes(params) if coeffs is None else coeffs.modes
    qdot_h = modes.sin_cos**2 * thermal_bias(params, modes)
    return (-qdot_h, qdot_h)


def gme_heat_currents_from_state(gamma_nm: np.ndarray,
                                 coeffs: GmeCoefficients) -> tuple:
    """Per-bath currents evaluated directly from the dissipator averages.

    Qdot_a = (1/2) sum_s [Delta^a_s (Omega_s^2 <eta_s^2> + <Pi_s^2>)
                          + Omega_s Sigma^a_s],
    with the second moments read off the normal-mode covariance gamma_nm.
    """
    out = []
    for a in _ALPHAS:
        q = 0.0
        for x, sign in zip((0, 2), _SIGNS):
            om = coeffs.omega(sign)
            eta2, pi2 = gamma_nm[x, x], gamma_nm[x + 1, x + 1]
            q += 0.5 * (coeffs.delta(a, sign) * (om**2 * eta2 + pi2)
                        + om * coeffs.sigma(a, sign))
        out.append(q)
    return tuple(out)


def gme_steady_state(params: WireParams) -> SteadyStateResult:
    """Global GKLS steady state in the local quadratures.

    The residual of the closed form is max|M y + c| / max|y| over its
    moment equations.
    """
    coeffs = gme_coefficients(params)
    gamma_nm = gme_normal_mode_covariance(coeffs)
    m, c = moment_equations(*gme_drift_diffusion(coeffs))
    y = moments(gamma_nm)
    residual = np.max(np.abs(m @ y + c)) / np.max(np.abs(y))
    rot = rotation_matrix(coeffs.modes.theta)
    return SteadyStateResult(
        method="global",
        covariance=rot @ gamma_nm @ rot.T,
        heat_currents=gme_heat_currents(params, coeffs),
        diagnostics={"secular_margin": secular_validity_margin(params),
                     "residual": residual},
    )
