"""Gaussian state toolkit for one- and two-mode covariance matrices.

Quadrature ordering is (X_c, P_c, X_h, P_h) and covariances are the
symmetrized second moments [G]_kl = <{R_k, R_l}>/2 of a zero-mean state.
All entropic quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import WireParams

# nu may sit this far below 1/2 from round-off and still be clamped
PHYSICALITY_TOL = 1e-9
#: the discord search's grid spans squeezings in [1/_S_MAX, _S_MAX]
_S_MAX = 1e3
#: the polisher may approach the homodyne (s -> inf) limit well beyond
#: the grid range; cap ln s where float64 is still comfortable
_LOG_S_CAP = max(math.log(_S_MAX), math.log(1e9))


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

    With the Cholesky factor 2G = L L^T, the Hermitian matrix i L^T J L
    has eigenvalues +-2 nu.  Its eigensolve is accurate to rounding even
    near pure states, where the invariant formula
    nu^2 = (D +- sqrt(D^2 - 4 det G))/2 loses about half the digits.
    Factoring 2G rather than G keeps the vacuum exact: nu = 1/2.  A matrix
    that is not positive definite, or not finite, is no covariance; it
    gets zeros.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape not in ((2, 2), (4, 4)):
        raise ValueError("expected a 2x2 or 4x4 covariance matrix")
    n = gamma.shape[0] // 2
    if not np.isfinite(gamma).all():
        return np.zeros(n)
    try:
        low = np.linalg.cholesky(2.0 * gamma)
    except np.linalg.LinAlgError:
        return np.zeros(n)
    herm = 1j * (low.T @ symplectic_form(n) @ low)
    return 0.5 * np.linalg.eigvalsh(herm)[n:][::-1]


def _checked_nus(gamma: np.ndarray, tol: float = PHYSICALITY_TOL) -> np.ndarray:
    nus = symplectic_eigenvalues(gamma)
    if nus[-1] < 0.5 - tol:
        raise NonPhysicalStateError(
            "smallest symplectic eigenvalue below 1/2: "
            f"nu_min - 1/2 = {nus[-1] - 0.5:.3e}")
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


def _conditional_entropy(a, b, c, s, phi):
    """_conditional_entropies at one seed, on Python floats.

    a, b and c are the blocks as nested lists.  The operations and their
    order are those of the array kernel, so the two agree bit for bit:
    x * x for x**2, and max(d, 0.25), which keeps a NaN as np.clip does.
    cos, sin and log are numpy's, because math.log can differ from
    numpy's SIMD log in the last bit.  Raises ZeroDivisionError where the
    array kernel would divide by zero.
    """
    co = float(np.cos(phi))
    si = float(np.sin(phi))
    co2 = co * co
    si2 = si * si
    m11 = 0.5 * (s * co2 + si2 / s)
    m22 = 0.5 * (s * si2 + co2 / s)
    m12 = 0.5 * (s - 1.0 / s) * co * si
    t11 = b[0][0] + m11
    t22 = b[1][1] + m22
    t12 = b[0][1] + m12
    det_t = t11 * t22 - t12 * t12
    (c11, c12), (c21, c22) = c
    q11 = (c11 * (t22 * c11 - t12 * c12) + c12 * (t11 * c12 - t12 * c11)) / det_t
    q22 = (c21 * (t22 * c21 - t12 * c22) + c22 * (t11 * c22 - t12 * c21)) / det_t
    q12 = (c11 * (t22 * c21 - t12 * c22) + c12 * (t11 * c22 - t12 * c21)) / det_t
    a11 = a[0][0] - q11
    a22 = a[1][1] - q22
    a12 = a[0][1] - q12
    nu = math.sqrt(max(a11 * a22 - a12 * a12, 0.25))
    up = nu + 0.5
    dn = nu - 0.5
    out = up * float(np.log(up))
    if dn > 0.0:
        out -= dn * float(np.log(dn))
    return out


def _polish_cost(a, b, c):
    """Conditional entropy at (ln s, phi) as minimized by the polish."""
    blocks = (a.tolist(), b.tolist(), c.tolist())

    def cost(x, y):
        # keep the polisher inside the sane squeezing range
        if abs(x) > _LOG_S_CAP:
            return 1e6 + abs(x)
        s = math.exp(x)
        try:
            out = _conditional_entropy(*blocks, s, y)
        except ZeroDivisionError:
            # det(B + G_m) >= 1 for a physical state, so this needs a
            # rounding accident; numpy's inf/nan rules then decide
            out = float(_conditional_entropies(a, b, c, np.array([s]),
                                               np.array([y]))[0, 0])
        return out if math.isfinite(out) else 1e6

    return cost


def _nelder_mead_2d(cost, x0: float, y0: float) -> float:
    """Smallest cost found by Nelder-Mead from (x0, y0).

    Replays the reference minimize(method="Nelder-Mead") of
    tests/oracles.py, with its non-adaptive coefficients and xatol=1e-12,
    fatol=1e-13, maxiter=400, step for step on Python floats, so it
    returns the same minimum bit for bit: the same initial simplex, the
    same reflect, expand, contract and shrink steps, and the same stable
    re-sort of the vertices after each step.
    """
    sim = [(x0, y0),
           ((1 + 0.05) * x0 if x0 != 0 else 0.00025, y0),
           (x0, (1 + 0.05) * y0 if y0 != 0 else 0.00025)]
    fsim = [cost(x, y) for x, y in sim]
    # the reference counts iterations from 1 and stops at maxiter
    for _ in range(399):
        order = sorted(range(3), key=fsim.__getitem__)
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]
        (xb, yb), (xn, yn), (xw, yw) = sim
        if (max(abs(xn - xb), abs(yn - yb), abs(xw - xb), abs(yw - yb))
                <= 1e-12 and max(abs(fsim[0] - fsim[1]),
                                 abs(fsim[0] - fsim[2])) <= 1e-13):
            break
        xm = (xb + xn) / 2
        ym = (yb + yn) / 2
        xr, yr = 2 * xm - xw, 2 * ym - yw
        fr = cost(xr, yr)
        if fr < fsim[0]:
            xe, ye = 3 * xm - 2 * xw, 3 * ym - 2 * yw
            fe = cost(xe, ye)
            sim[2], fsim[2] = ((xe, ye), fe) if fe < fr else ((xr, yr), fr)
        elif fr < fsim[1]:
            sim[2], fsim[2] = (xr, yr), fr
        else:
            if fr < fsim[2]:
                # outside contraction
                xc, yc = 1.5 * xm - 0.5 * xw, 1.5 * ym - 0.5 * yw
                fc = cost(xc, yc)
                shrink = not fc <= fr
            else:
                # inside contraction
                xc, yc = 0.5 * xm + 0.5 * xw, 0.5 * ym + 0.5 * yw
                fc = cost(xc, yc)
                shrink = not fc < fsim[2]
            if shrink:
                for j in (1, 2):
                    xj, yj = sim[j]
                    sim[j] = (xb + 0.5 * (xj - xb), yb + 0.5 * (yj - yb))
                    fsim[j] = cost(*sim[j])
            else:
                sim[2], fsim[2] = (xc, yc), fc
    return min(fsim)


def _grid_search(a, b, c, n_squeeze: int, n_angle: int) -> tuple:
    """Grid minimum of the conditional entropy and the polish starts.

    The starts, as (ln s, phi), are the few best grid points that are not
    neighbours of an already-used start, so distinct shallow basins are
    all explored.
    """
    s_vals = np.logspace(math.log10(1.0 / _S_MAX), math.log10(_S_MAX),
                         n_squeeze)
    phi_vals = np.linspace(0.0, math.pi, n_angle, endpoint=False)
    cond = _conditional_entropies(a, b, c, s_vals, phi_vals)
    flat_order = np.argsort(cond, axis=None)
    seeds = []
    for flat in flat_order[:40]:
        js, jp = np.unravel_index(flat, cond.shape)
        if all(abs(js - i) > 3 or min(abs(jp - j), n_angle - abs(jp - j)) > 3
               for i, j in seeds):
            seeds.append((js, jp))
        if len(seeds) == 3:
            break
    best = float(cond.flat[flat_order[0]])
    return best, [(math.log(s_vals[js]), float(phi_vals[jp]))
                  for js, jp in seeds]


def _min_conditional_entropy(a, b, c, n_squeeze: int = 200,
                             n_angle: int = 64) -> float:
    """min over pure Gaussian measurement seeds of S(A | m): grid search,
    then a Nelder-Mead polish from each start."""
    best, starts = _grid_search(a, b, c, n_squeeze, n_angle)
    cost = _polish_cost(a, b, c)
    for x0, y0 in starts:
        best = min(best, _nelder_mead_2d(cost, x0, y0))
    return best


def gaussian_discord(gamma: np.ndarray, measured_node: str = "h",
                     n_squeeze: int = 200, n_angle: int = 64) -> float:
    """Gaussian quantum discord revealed by measuring one node.

    Q = S(G_B) - S(G_AB) + min_m S(A | m), minimizing the conditional
    entropy over pure single-mode Gaussian measurement seeds on a dense
    (squeezing x angle) grid, squeezings log-spaced in [1/_S_MAX, _S_MAX],
    followed by Nelder-Mead polishes from the best grid points.
    """
    gamma = np.asarray(gamma, dtype=float)
    _checked_nus(gamma)
    a, b, c = _blocks(gamma, measured_node)
    best = _min_conditional_entropy(a, b, c, n_squeeze, n_angle)
    q = entropy(np.array(b)) - entropy(gamma) + best
    return max(q, 0.0)


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
