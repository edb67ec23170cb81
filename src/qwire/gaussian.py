"""Gaussian state toolkit for one- and two-mode covariance matrices.

Quadrature ordering is (X_c, P_c, X_h, P_h) and covariances are the
symmetrized second moments [G]_kl = <{R_k, R_l}>/2 of a zero-mean state.
All entropic quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .model import WireParams

# nu may sit this far below 1/2 from round-off and still be clamped
PHYSICALITY_TOL = 1e-9


class NonPhysicalStateError(ValueError):
    """Covariance matrix violates the uncertainty bound nu >= 1/2."""


def symplectic_form(n_modes: int = 2) -> np.ndarray:
    """Block-diagonal J with 2x2 blocks [[0, 1], [-1, 0]]."""
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = j2
    return out


def symplectic_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a 2x2 or 4x4 covariance matrix, descending.

    Uses the closed form in the symplectic invariants: for one mode
    nu = sqrt(det G); for two modes nu^2 = (D +- sqrt(D^2 - 4 det G))/2
    with D = det A + det B + 2 det C.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape == (2, 2):
        return np.array([math.sqrt(max(np.linalg.det(gamma), 0.0))])
    if gamma.shape != (4, 4):
        raise ValueError("expected a 2x2 or 4x4 covariance matrix")
    a = np.linalg.det(gamma[:2, :2])
    b = np.linalg.det(gamma[2:, 2:])
    c = np.linalg.det(gamma[:2, 2:])
    dtot = np.linalg.det(gamma)
    delta = a + b + 2.0 * c
    disc = max(delta * delta - 4.0 * dtot, 0.0)
    root = math.sqrt(disc)
    nu_sq = np.array([(delta + root) / 2.0, (delta - root) / 2.0])
    return np.sqrt(np.clip(nu_sq, 0.0, None))


def _checked_nus(gamma: np.ndarray, tol: float = PHYSICALITY_TOL) -> np.ndarray:
    nus = symplectic_eigenvalues(gamma)
    if nus[-1] < 0.5 - tol:
        raise NonPhysicalStateError(
            f"smallest symplectic eigenvalue {nus[-1]:.6g} < 1/2")
    return np.maximum(nus, 0.5)


def is_physical(gamma: np.ndarray, tol: float = PHYSICALITY_TOL) -> bool:
    try:
        _checked_nus(gamma, tol)
    except NonPhysicalStateError:
        return False
    return True


def _entropy_term(nu: float) -> float:
    # (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2); zero at nu = 1/2
    up = nu + 0.5
    dn = nu - 0.5
    val = up * math.log(up)
    if dn > 0.0:
        val -= dn * math.log(dn)
    return val


def entropy(gamma: np.ndarray) -> float:
    """Von Neumann entropy of a Gaussian state (nats)."""
    return float(sum(_entropy_term(nu) for nu in _checked_nus(gamma)))


def mutual_information(gamma: np.ndarray) -> float:
    """I = S(G_c) + S(G_h) - S(G_ch) for a 4x4 covariance matrix."""
    gamma = np.asarray(gamma, dtype=float)
    return entropy(gamma[:2, :2]) + entropy(gamma[2:, 2:]) - entropy(gamma)


def fidelity(gamma1: np.ndarray, gamma2: np.ndarray) -> float:
    """Uhlmann fidelity of two zero-mean two-mode Gaussian states.

    F = (x + sqrt(x^2 - a)) / a with x = sqrt(b) + sqrt(c),
    a = det(G1 + G2), b = 2^4 det[(J G1)(J G2) - 1/4],
    c = 2^4 det(G1 + iJ/2) det(G2 + iJ/2).
    """
    g1 = np.asarray(gamma1, dtype=float)
    g2 = np.asarray(gamma2, dtype=float)
    _checked_nus(g1)
    _checked_nus(g2)
    jj = symplectic_form()
    a = np.linalg.det(g1 + g2)
    b = 16.0 * np.linalg.det((jj @ g1) @ (jj @ g2) - np.eye(4) / 4.0)
    c = 16.0 * float(np.real(np.linalg.det(g1 + 1j * jj / 2.0)
                             * np.linalg.det(g2 + 1j * jj / 2.0)))
    # tiny negative round-off under the square roots is clamped to zero
    scale = max(1.0, abs(a), abs(b), abs(c))
    b = _clamp_roundoff(b, 1e-12 * scale)
    c = _clamp_roundoff(c, 1e-12 * scale)
    x = math.sqrt(b) + math.sqrt(c)
    disc = _clamp_roundoff(x * x - a, 1e-12 * max(1.0, x * x))
    f = (x + math.sqrt(disc)) / a
    return min(f, 1.0)


def _clamp_roundoff(value: float, tol: float) -> float:
    return 0.0 if -tol <= value < 0.0 else value


def _blocks(gamma: np.ndarray, measured_node: str):
    gamma = np.asarray(gamma, dtype=float)
    if measured_node == "h":
        return gamma[:2, :2], gamma[2:, 2:], gamma[:2, 2:]
    if measured_node == "c":
        return gamma[2:, 2:], gamma[:2, :2], gamma[2:, :2]
    raise ValueError("measured_node must be 'c' or 'h'")


def _conditional_entropies(a, b, c, s_vals, phi_vals):
    """Entropy of the unmeasured node after measuring with seeds on a grid.

    Vectorized over the (s, phi) grid; the conditional covariance is the
    Schur complement A - C (B + G_m)^-1 C^T and its entropy only needs
    its determinant.
    """
    s = s_vals[:, None]
    co = np.cos(phi_vals)[None, :]
    si = np.sin(phi_vals)[None, :]
    # seed entries of 0.5 R diag(s, 1/s) R^T
    m11 = 0.5 * (s * co**2 + si**2 / s)
    m22 = 0.5 * (s * si**2 + co**2 / s)
    m12 = 0.5 * (s - 1.0 / s) * co * si
    t11 = b[0, 0] + m11
    t22 = b[1, 1] + m22
    t12 = b[0, 1] + m12
    det_t = t11 * t22 - t12**2
    # C T^-1 C^T entries via the 2x2 adjugate
    c11, c12, c21, c22 = c[0, 0], c[0, 1], c[1, 0], c[1, 1]
    q11 = (c11 * (t22 * c11 - t12 * c12) + c12 * (t11 * c12 - t12 * c11)) / det_t
    q22 = (c21 * (t22 * c21 - t12 * c22) + c22 * (t11 * c22 - t12 * c21)) / det_t
    q12 = (c11 * (t22 * c21 - t12 * c22) + c12 * (t11 * c22 - t12 * c21)) / det_t
    a11 = a[0, 0] - q11
    a22 = a[1, 1] - q22
    a12 = a[0, 1] - q12
    det_cond = np.clip(a11 * a22 - a12**2, 0.25, None)
    nu = np.sqrt(det_cond)
    up = nu + 0.5
    dn = nu - 0.5
    out = up * np.log(up)
    pos = dn > 0.0
    out[pos] -= dn[pos] * np.log(dn[pos])
    return out


def gaussian_discord(gamma: np.ndarray, measured_node: str = "h",
                     n_squeeze: int = 200, n_angle: int = 64,
                     s_max: float = 1e3, refine: bool = True) -> float:
    """Gaussian quantum discord revealed by measuring one node.

    Q = S(G_B) - S(G_AB) + min_m S(A | m), minimizing the conditional
    entropy over pure single-mode Gaussian measurement seeds on a dense
    (squeezing x angle) grid followed by coordinate-descent refinement.
    """
    gamma = np.asarray(gamma, dtype=float)
    _checked_nus(gamma)
    a, b, c = _blocks(gamma, measured_node)
    s_vals = np.logspace(math.log10(1.0 / s_max), math.log10(s_max), n_squeeze)
    phi_vals = np.linspace(0.0, math.pi, n_angle, endpoint=False)
    cond = _conditional_entropies(a, b, c, s_vals, phi_vals)
    flat_order = np.argsort(cond, axis=None)
    i_s, i_phi = np.unravel_index(flat_order[0], cond.shape)
    best = float(cond[i_s, i_phi])

    if refine:
        # the polisher may approach the homodyne (s -> inf) limit well
        # beyond the grid range; cap where float64 is still comfortable
        log_s_cap = max(math.log(s_max), math.log(1e9))

        def cost(z):
            # keep the polisher inside the sane squeezing range
            if abs(z[0]) > log_s_cap:
                return 1e6 + abs(z[0])
            val = _conditional_entropies(a, b, c,
                                         np.array([math.exp(z[0])]),
                                         np.array([z[1]]))
            out = float(val[0, 0])
            return out if math.isfinite(out) else 1e6

        # polish from the few best grid points that are not neighbours of
        # an already-used seed, so distinct shallow basins are all explored
        seeds = []
        for flat in flat_order[:40]:
            js, jp = np.unravel_index(flat, cond.shape)
            if all(abs(js - i) > 3 or min(abs(jp - j), n_angle
                                          - abs(jp - j)) > 3
                   for i, j in seeds):
                seeds.append((js, jp))
            if len(seeds) == 3:
                break
        for js, jp in seeds:
            start = np.array([math.log(s_vals[js]), phi_vals[jp]])
            res = minimize(cost, start, method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-13,
                                    "maxiter": 400})
            best = min(best, float(res.fun))

    q = entropy(np.array(b)) - entropy(gamma) + best
    return max(q, 0.0)


def classical_correlations(gamma: np.ndarray, measured_node: str = "h",
                           **kwargs) -> float:
    """C = I - Q: classical share of the correlations."""
    c = mutual_information(gamma) - gaussian_discord(gamma, measured_node,
                                                     **kwargs)
    return max(c, 0.0)


def log_negativity(gamma: np.ndarray) -> float:
    """Logarithmic negativity from the partially transposed covariance.

    The partial transpose flips the sign of the cold momentum,
    G~ = P G P with P = diag(1, -1, 1, 1).
    """
    gamma = np.asarray(gamma, dtype=float)
    _checked_nus(gamma)
    p = np.diag([1.0, -1.0, 1.0, 1.0])
    nus = symplectic_eigenvalues(p @ gamma @ p)
    return float(sum(max(0.0, -math.log(2.0 * nu)) for nu in nus))


def strong_coupling_asymptote(params: WireParams, tol: float = 1e-9) -> float:
    """Large-k limit of the global-solution log-negativity, resonant nodes.

    E = (1/4) ln[2k (1 - e^(w/T_c))^2 (1 - e^(w/T_h))^2
                 / ((1 - e^(2w/Tbar))^2 w^2)]
    with Tbar the harmonic mean of the two temperatures.  A negative value
    means no entanglement is predicted at that coupling.
    """
    d = abs(params.omega_h**2 - params.omega_c**2)
    if d > tol * (params.omega_h**2 + params.omega_c**2):
        raise ValueError("asymptote only defined for resonant nodes")
    if params.k <= 0:
        raise ValueError("asymptote requires k > 0")
    w = params.omega_c
    t_bar = 2.0 / (1.0 / params.t_c + 1.0 / params.t_h)
    num = 2.0 * params.k * (1.0 - math.exp(w / params.t_c))**2 \
        * (1.0 - math.exp(w / params.t_h))**2
    den = (1.0 - math.exp(2.0 * w / t_bar))**2 * w**2
    return 0.25 * math.log(num / den)


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation measures of one steady state (discord arrow fixed)."""

    fidelity_to_exact: float
    mutual_information: float
    discord_arrow: float
    classical_arrow: float
    log_negativity: float
    measured_node: str = "h"
