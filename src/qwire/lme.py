"""Local GKLS master equation: 10-dimensional linear covariance dynamics.

The local dissipators are derived for each node at zero inter-node
coupling, so the second-moment dynamics couples all ten independent
covariances, dy/dt = M y + c.  The steady state is a direct dense solve
of M y = -c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import WireParams, decay_rate, secular_validity_margin
from .results import SteadyStateResult

#: fixed ordering of the covariance vector y
LME_VARIABLES = ("xc2", "pc2", "xcpc", "xh2", "ph2", "xhph",
                 "xcxh", "pcph", "xcph", "xhpc")


class SingularSystemError(RuntimeError):
    """The local generator is singular at these parameters."""


@dataclass(frozen=True)
class LmeGenerator:
    """Affine generator dy/dt = M y + c of the local covariance dynamics."""

    m: np.ndarray
    c: np.ndarray


def _local_rates(params: WireParams, alpha: str) -> tuple:
    """Drift and diffusion of one bare node.

    Delta~ = [gamma(-w) - gamma(w)] / (2w), Sigma~ = [gamma(-w) + gamma(w)] / (2w).
    """
    om = params.omega_c if alpha == "c" else params.omega_h
    t = params.temperature(alpha)
    g_neg = decay_rate(-om, t, params)
    g_pos = decay_rate(om, t, params)
    return (g_neg - g_pos) / (2.0 * om), (g_neg + g_pos) / (2.0 * om)


def _hamiltonian_part(params: WireParams) -> np.ndarray:
    """Coherent part of the generator (coupling and free evolution)."""
    k = params.k
    nu_c2 = params.omega_c**2 + k
    nu_h2 = params.omega_h**2 + k
    m = np.zeros((10, 10))
    # d<Xc^2> = <{Xc,Pc}>
    m[0, 2] = 1.0
    # d<Pc^2> = 2k<Xh Pc> - nu_c^2 <{Xc,Pc}>
    m[1, 9] = 2.0 * k
    m[1, 2] = -nu_c2
    # d<{Xc,Pc}> = 2<Pc^2> - 2 nu_c^2 <Xc^2> + 2k<Xc Xh>
    m[2, 1] = 2.0
    m[2, 0] = -2.0 * nu_c2
    m[2, 6] = 2.0 * k
    # hot-node mirror images
    m[3, 5] = 1.0
    m[4, 8] = 2.0 * k
    m[4, 5] = -nu_h2
    m[5, 4] = 2.0
    m[5, 3] = -2.0 * nu_h2
    m[5, 6] = 2.0 * k
    # d<Xc Xh> = <Xc Ph> + <Xh Pc>
    m[6, 8] = 1.0
    m[6, 9] = 1.0
    # d<Pc Ph> = (k/2)(<{Xh,Ph}> + <{Xc,Pc}>) - nu_c^2 <Xc Ph> - nu_h^2 <Xh Pc>
    m[7, 5] = k / 2.0
    m[7, 2] = k / 2.0
    m[7, 8] = -nu_c2
    m[7, 9] = -nu_h2
    # d<Xc Ph> = <Pc Ph> + k<Xc^2> - nu_h^2 <Xc Xh>
    m[8, 7] = 1.0
    m[8, 0] = k
    m[8, 6] = -nu_h2
    # d<Xh Pc> = <Pc Ph> + k<Xh^2> - nu_c^2 <Xc Xh>
    m[9, 7] = 1.0
    m[9, 3] = k
    m[9, 6] = -nu_c2
    return m


def _dissipator_part(params: WireParams, alpha: str) -> tuple:
    """Damping matrix and constant vector contributed by one bath."""
    delta, sigma = _local_rates(params, alpha)
    om = params.omega_c if alpha == "c" else params.omega_h
    own = (0, 1, 2) if alpha == "c" else (3, 4, 5)
    m = np.zeros((10, 10))
    c = np.zeros(10)
    for i in own:
        m[i, i] = delta
    for i in (6, 7, 8, 9):
        m[i, i] = delta / 2.0
    c[own[0]] = sigma / (2.0 * om)
    c[own[1]] = om * sigma / 2.0
    return m, c


def lme_generator(params: WireParams) -> LmeGenerator:
    """Assemble dy/dt = M y + c for the ten covariances."""
    m = _hamiltonian_part(params)
    c = np.zeros(10)
    for alpha in ("c", "h"):
        dm, dc = _dissipator_part(params, alpha)
        m += dm
        c += dc
    return LmeGenerator(m=m, c=c)


def covariance_from_lme_vector(y: np.ndarray) -> np.ndarray:
    """Map the 10-vector of covariances to the symmetric 4x4 matrix."""
    xc2, pc2, xcpc, xh2, ph2, xhph, xcxh, pcph, xcph, xhpc = y
    return np.array([
        [xc2, xcpc / 2.0, xcxh, xcph],
        [xcpc / 2.0, pc2, xhpc, pcph],
        [xcxh, xhpc, xh2, xhph / 2.0],
        [xcph, pcph, xhph / 2.0, ph2],
    ])


def lme_heat_currents(y: np.ndarray, params: WireParams) -> tuple:
    """Incoming currents per bath from the stationary covariances.

    The bath-a current is the energy its dissipator injects,
    h . (M_a y + c_a) with h the coefficients of <H_S>.  Written that way
    it is a sum of O(1) terms that cancel down to O(k^2).  Stationarity
    of the node energy <P_a^2 + (w_a^2 + k) X_a^2>/2, which only bath a
    and the bond change, turns it into the bond form

        Qdot_h = -k (<X_c P_h> + Delta~_h/2 <X_c X_h>),
        Qdot_c = -k (<X_h P_c> + Delta~_c/2 <X_c X_h>),

    which has no cancellation and vanishes exactly at k = 0.
    """
    delta_c, _ = _local_rates(params, "c")
    delta_h, _ = _local_rates(params, "h")
    xcxh, xcph, xhpc = y[6], y[8], y[9]
    return (-params.k * (xhpc + delta_c / 2.0 * xcxh),
            -params.k * (xcph + delta_h / 2.0 * xcxh))


def lme_steady_state(params: WireParams) -> SteadyStateResult:
    """Solve M y = -c and package covariance plus heat currents."""
    gen = lme_generator(params)
    try:
        y = np.linalg.solve(gen.m, -gen.c)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "local covariance generator is singular") from exc
    residual = np.max(np.abs(gen.m @ y + gen.c)) / max(np.max(np.abs(gen.c)),
                                                       1e-300)
    return SteadyStateResult(
        method="local",
        covariance=covariance_from_lme_vector(y),
        heat_currents=lme_heat_currents(y, params),
        diagnostics={"secular_margin": secular_validity_margin(params),
                     "residual": residual},
    )
