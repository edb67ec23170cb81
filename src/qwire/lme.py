"""Local GKLS master equation as a drift/diffusion pair.

The local dissipators are derived for each node at zero inter-node
coupling; each damps and heats its own node only.  With the coupled
Hamiltonian they give a linear covariance dynamics that couples all ten
independent moments, and the steady state is a direct dense solve.  The
heat currents follow from the same equations in closed form.
"""

from __future__ import annotations

import numpy as np

from .model import WireParams, occupation, spectral_density
from .moments import covariance, moment_equations
from .results import SteadyStateResult


def _local_drift(params: WireParams, om: float) -> float:
    """Drift Delta~ = -J(w) / w of a bare node of frequency w."""
    return -spectral_density(om, params) / om


def _bath_drift_diffusion(params: WireParams, alpha: str) -> tuple:
    """Drift and diffusion that the dissipator of bath alpha adds: its node
    relaxes at the rate -Delta~ and is heated with
    Sigma~ = -Delta~ (2n + 1)."""
    x, om, t = ((0, params.omega_c, params.t_c) if alpha == "c"
                else (2, params.omega_h, params.t_h))
    delta = _local_drift(params, om)
    sigma = -delta * (2.0 * occupation(om, t) + 1.0)
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


def lme_heat_currents(params: WireParams) -> tuple:
    """Incoming currents per bath, (Qdot_c, Qdot_h), in closed form.

    Cramer's rule on the stationary moment equations of
    lme_drift_diffusion gives, with g_a = J(w_a)/w_a = -Delta~_a,
    s = g_c + g_h and u = w_c - w_h,

        Qdot_h = g_c g_h k^2 [2 w_c A_h (n_h - n_c) + 2 B (n_c + 1/2)]
                 / (w_c w_h Den),
        A_h = g_h s^2 + 4 s k + 4 g_h (w_c^2 + w_h^2) + 8 g_c w_h^2,
        B   = (w_c g_h - w_h g_c)(s^2 + 4 u^2) + 4 s k u,
        Den = g_c g_h (s^2 + 4 u^2)(s^2 + 4 (w_c + w_h)^2)
              + 16 g_c g_h s^2 k + 16 s^2 k^2,

    and Qdot_c = -Qdot_h.  Den is a sum of positive terms, and
    w_c g_h - w_h g_c is formed as the multiple of u that it is, so both
    terms of B share its sign: the current keeps its relative accuracy
    down to k = 0, where it vanishes, and wherever the covariance's cross
    moments cancel.
    """
    w_c, w_h, k = params.omega_c, params.omega_h, params.k
    g_c = -_local_drift(params, w_c)
    g_h = -_local_drift(params, w_h)
    s, u = g_c + g_h, w_c - w_h
    cut_sq = params.cutoff**2
    skew = (params.lambda_sq * cut_sq * u
            * (w_c * w_c + w_c * w_h + w_h * w_h + cut_sq)
            / ((w_c * w_c + cut_sq) * (w_h * w_h + cut_sq)))
    a_h = (g_h * s * s + 4.0 * s * k + 4.0 * g_h * (w_c * w_c + w_h * w_h)
           + 8.0 * g_c * w_h * w_h)
    b = skew * (s * s + 4.0 * u * u) + 4.0 * s * k * u
    den = (g_c * g_h * (s * s + 4.0 * u * u) * (s * s + 4.0 * (w_c + w_h)**2)
           + 16.0 * g_c * g_h * s * s * k + 16.0 * s * s * k * k)
    n_c = occupation(w_c, params.t_c)
    n_h = occupation(w_h, params.t_h)
    qdot_h = (g_c * g_h * k * k
              * (2.0 * w_c * a_h * (n_h - n_c) + 2.0 * b * (n_c + 0.5))
              / (w_c * w_h * den))
    return (-qdot_h, qdot_h)


def lme_steady_state(params: WireParams) -> SteadyStateResult:
    """Solve the stationary moment equations M y = -c (LU with partial
    pivoting) and package covariance plus heat currents."""
    m, c = moment_equations(*lme_drift_diffusion(params))
    return SteadyStateResult(
        method="local",
        covariance=covariance(np.linalg.solve(m, -c)),
        heat_currents=lme_heat_currents(params),
    )
