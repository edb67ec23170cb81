"""Global GKLS master equation in the normal-mode basis.

The covariance dynamics closes on the six same-mode second moments; the
steady state is available in closed form and is rotated back to the local
quadratures.  The printed equations of motion carry a stiffness term that
must be quadratic in the mode frequency for the stated stationary solution
to be a fixed point; the quadratic form is used here (validated against a
generator oracle in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (WireParams, NormalModes, normal_modes, decay_rate,
                    rotation_matrix, secular_validity_margin)
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

    def delta(self, alpha: str, sign: str) -> float:
        return self.w_neg[alpha][sign] - self.w_pos[alpha][sign]

    def sigma(self, alpha: str, sign: str) -> float:
        return self.w_neg[alpha][sign] + self.w_pos[alpha][sign]

    def delta_total(self, sign: str) -> float:
        return sum(self.delta(a, sign) for a in _ALPHAS)

    def sigma_total(self, sign: str) -> float:
        return sum(self.sigma(a, sign) for a in _ALPHAS)


@dataclass(frozen=True)
class NormalModeState:
    """Second moments of the two normal modes.

    cross_pm = <{eta_pm, Pi_pm}> (anticommutator average).
    """

    eta2_plus: float
    pi2_plus: float
    cross_plus: float
    eta2_minus: float
    pi2_minus: float
    cross_minus: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.eta2_plus, self.pi2_plus, self.cross_plus,
                         self.eta2_minus, self.pi2_minus, self.cross_minus])


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


def gme_dynamics(state: NormalModeState,
                 coeffs: GmeCoefficients) -> NormalModeState:
    """Time derivative of the six normal-mode second moments."""
    out = []
    for sign, (eta2, pi2, cross) in zip(_SIGNS, [
            (state.eta2_plus, state.pi2_plus, state.cross_plus),
            (state.eta2_minus, state.pi2_minus, state.cross_minus)]):
        om = coeffs.modes.omega_plus if sign == "+" else coeffs.modes.omega_minus
        dl = coeffs.delta_total(sign)
        sg = coeffs.sigma_total(sign)
        d_eta2 = dl * eta2 + cross + sg / (2.0 * om)
        d_pi2 = dl * pi2 - om**2 * cross + om * sg / 2.0
        d_cross = 2.0 * pi2 - 2.0 * om**2 * eta2 + dl * cross
        out += [d_eta2, d_pi2, d_cross]
    return NormalModeState(out[0], out[1], out[2], out[3], out[4], out[5])


def gme_normal_mode_steady_state(coeffs: GmeCoefficients) -> NormalModeState:
    """Closed-form fixed point of the global covariance dynamics."""
    vals = {}
    for sign in _SIGNS:
        om = coeffs.modes.omega_plus if sign == "+" else coeffs.modes.omega_minus
        dl = coeffs.delta_total(sign)
        sg = coeffs.sigma_total(sign)
        vals[sign] = (-sg / (2.0 * dl * om), -om * sg / (2.0 * dl))
    return NormalModeState(eta2_plus=vals["+"][0], pi2_plus=vals["+"][1],
                           cross_plus=0.0,
                           eta2_minus=vals["-"][0], pi2_minus=vals["-"][1],
                           cross_minus=0.0)


def covariance_from_normal_modes(state: NormalModeState,
                                 modes: NormalModes) -> np.ndarray:
    """Rotate diagonal normal-mode second moments to local quadratures."""
    gamma_nm = np.diag([state.eta2_plus, state.pi2_plus,
                        state.eta2_minus, state.pi2_minus])
    if state.cross_plus or state.cross_minus:
        gamma_nm[0, 1] = gamma_nm[1, 0] = state.cross_plus / 2.0
        gamma_nm[2, 3] = gamma_nm[3, 2] = state.cross_minus / 2.0
    rot = rotation_matrix(modes.theta)
    return rot @ gamma_nm @ rot.T


def gme_heat_currents(params: WireParams,
                      coeffs: GmeCoefficients | None = None) -> tuple:
    """Steady-state incoming heat currents (Qdot_c, Qdot_h).

    Uses the detailed-balance form
    Qdot_h = sum_s Omega_s W^c_{Omega_s} W^h_{Omega_s}
             (e^{-Omega_s/T_h} - e^{-Omega_s/T_c}) / (-Delta_s);
    Qdot_c = -Qdot_h.  The denominator is the net decay rate
    -Delta_s = W_{Omega_s} - W_{-Omega_s} > 0 of mode s, which is what the
    per-bath expression reduces to after eliminating the steady-state
    occupations (checked to 1e-12 against that expression in the tests).
    """
    if coeffs is None:
        coeffs = gme_coefficients(params)
    qdot_h = 0.0
    for sign in _SIGNS:
        om = (coeffs.modes.omega_plus if sign == "+"
              else coeffs.modes.omega_minus)
        net = -coeffs.delta_total(sign)
        qdot_h += (om * coeffs.w_pos["c"][sign] * coeffs.w_pos["h"][sign] / net
                   * (math.exp(-om / params.t_h) - math.exp(-om / params.t_c)))
    return (-qdot_h, qdot_h)


def gme_heat_currents_from_state(state: NormalModeState,
                                 coeffs: GmeCoefficients) -> tuple:
    """Per-bath currents evaluated directly from the dissipator averages.

    Qdot_a = (1/2) sum_s [Delta^a_s (Omega_s^2 <eta_s^2> + <Pi_s^2>)
                          + Omega_s Sigma^a_s].
    """
    moments = {"+": (state.eta2_plus, state.pi2_plus),
               "-": (state.eta2_minus, state.pi2_minus)}
    out = []
    for a in _ALPHAS:
        q = 0.0
        for sign in _SIGNS:
            om = (coeffs.modes.omega_plus if sign == "+"
                  else coeffs.modes.omega_minus)
            eta2, pi2 = moments[sign]
            q += 0.5 * (coeffs.delta(a, sign) * (om**2 * eta2 + pi2)
                        + om * coeffs.sigma(a, sign))
        out.append(q)
    return tuple(out)


def gme_steady_state(params: WireParams) -> SteadyStateResult:
    """Global GKLS steady state in the local quadratures."""
    coeffs = gme_coefficients(params)
    nm_state = gme_normal_mode_steady_state(coeffs)
    cov = covariance_from_normal_modes(nm_state, coeffs.modes)
    residual = np.max(np.abs(gme_dynamics(nm_state, coeffs).as_vector()))
    scale = np.max(np.abs(nm_state.as_vector()))
    return SteadyStateResult(
        method="global",
        covariance=cov,
        heat_currents=gme_heat_currents(params, coeffs),
        diagnostics={"secular_margin": secular_validity_margin(params),
                     "residual": residual / scale},
    )
