"""Gaussian state toolkit for one- and two-mode covariance matrices.

Quadrature ordering is (X_c, P_c, X_h, P_h) and covariances are the
symmetrized second moments [G]_kl = <{R_k, R_l}>/2 of a zero-mean state.
All entropic quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import WireParams

# nu may sit this far below 1/2 from round-off and still be clamped
PHYSICALITY_TOL = 1e-9
#: squeezing of the homodyne (s -> inf) discord seed, and the cap of the
#: finite one.  The kernel's rounding there is up to about 1e-8 of the
#: conditional entropy; the frozen benchmark cells were searched at it.
_S_HOMODYNE = 1e9


class NonPhysicalStateError(ValueError):
    """Covariance matrix violates the uncertainty bound nu >= 1/2."""


_J1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
#: the symplectic forms of one and two modes, block diagonal in
#: [[0, 1], [-1, 0]], and the partial transpose diag(1, -1, 1, 1) that
#: flips the cold momentum; all read-only
SYMPLECTIC_FORMS = {1: _J1, 2: np.block([[_J1, np.zeros((2, 2))],
                                         [np.zeros((2, 2)), _J1]])}
_PARTIAL_TRANSPOSE = np.diag([1.0, -1.0, 1.0, 1.0])
for _m in (*SYMPLECTIC_FORMS.values(), _PARTIAL_TRANSPOSE):
    _m.setflags(write=False)


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
    herm = 1j * (low.T @ SYMPLECTIC_FORMS[n] @ low)
    return 0.5 * np.linalg.eigvalsh(herm)[n:][::-1]


def _entropy_term(nu: float) -> float:
    # (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2); zero at nu = 1/2
    up = nu + 0.5
    dn = nu - 0.5
    val = up * math.log(up)
    if dn > 0.0:
        val -= dn * math.log(dn)
    return val


class GaussianState:
    """A covariance matrix and its entropies, each taken once, on first use.
    The entropy is the check: it raises anew on every use, led by `label`."""

    def __init__(self, covariance: np.ndarray, label: str = ""):
        self.covariance = np.asarray(covariance, dtype=float)
        self.label = label

    @classmethod
    def of(cls, gamma) -> GaussianState:
        """gamma itself if it is a state, else a new state of it."""
        return gamma if isinstance(gamma, cls) else cls(gamma)

    @cached_property
    def entropy(self) -> float:
        """Von Neumann entropy (nats); raises NonPhysicalStateError."""
        nus = symplectic_eigenvalues(self.covariance)
        if nus[-1] < 0.5 - PHYSICALITY_TOL:
            raise NonPhysicalStateError(
                f"{self.label}smallest symplectic eigenvalue below 1/2: "
                f"nu_min - 1/2 = {nus[-1] - 0.5:.3e}")
        return float(sum(_entropy_term(nu) for nu in np.maximum(nus, 0.5)))

    @cached_property
    def node_entropies(self) -> tuple:
        """(S(G_c), S(G_h)) of a two-mode state that passes the check."""
        g = self.checked()
        return entropy(g[:2, :2]), entropy(g[2:, 2:])

    def checked(self) -> np.ndarray:
        """The covariance, once the state has passed the check."""
        self.entropy  # raises NonPhysicalStateError
        return self.covariance


def is_physical(gamma: np.ndarray) -> bool:
    try:
        entropy(gamma)
    except NonPhysicalStateError:
        return False
    return True


def entropy(gamma: np.ndarray) -> float:
    """Von Neumann entropy of a Gaussian state (nats)."""
    return GaussianState.of(gamma).entropy


def mutual_information(gamma) -> float:
    """I = S(G_c) + S(G_h) - S(G_ch) of a two-mode state."""
    state = GaussianState.of(gamma)
    s_c, s_h = state.node_entropies
    return s_c + s_h - state.entropy


def fidelity(gamma1, gamma2) -> float:
    """Uhlmann fidelity of two zero-mean two-mode Gaussian states.

    F = (x + sqrt(x^2 - a)) / a with x = sqrt(b) + sqrt(c),
    a = det(G1 + G2), b = 2^4 det[(J G1)(J G2) - 1/4],
    c = 2^4 det(G1 + iJ/2) det(G2 + iJ/2).
    """
    g1, g2 = (GaussianState.of(g).checked() for g in (gamma1, gamma2))
    jj = SYMPLECTIC_FORMS[2]
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
    if measured_node == "h":
        return gamma[:2, :2], gamma[2:, 2:], gamma[:2, 2:]
    if measured_node == "c":
        return gamma[2:, 2:], gamma[:2, :2], gamma[2:, :2]
    raise ValueError("measured_node must be 'c' or 'h'")


def _conditional_entropies(a, b, c, s, phi):
    """Entropy of the unmeasured node after measuring with seeds (s, phi).

    Vectorized over broadcast arrays s and phi; the conditional
    covariance is the Schur complement A - C (B + G_m)^-1 C^T and its
    entropy only needs its determinant.
    """
    co = np.cos(phi)
    si = np.sin(phi)
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


def _seed_form(x: np.ndarray) -> np.ndarray:
    """l(X) with det(X + G_m) = det X + 1/4 + l(X).m for the seed
    coordinates m = (m11 + m22, m11 - m22, 2 m12), which lie on the
    hyperboloid m0^2 - m1^2 - m2^2 = 1."""
    return np.array([(x[0, 0] + x[1, 1]) / 2, (x[1, 1] - x[0, 0]) / 2,
                     -x[0, 1]])


def _optimal_seeds(a, b, c) -> tuple:
    """(s, phi) arrays of the two candidates for the optimal measurement.

    Everything is written in D = C^T A^-1 C, so weak correlations do not
    cancel.  det(cond) = det A (1 - tau(m)) with the linear-fractional
    tau = (beta + l(D).m) / (alpha + l(B).m), alpha = det B + 1/4,
    beta = T - det D and T = tr(adj(B) D).  Its supremum over the
    hyperboloid is either the homodyne limit, the larger root of
    det(tau B - D) = 0, or the tangency of a level plane, the stable small
    root of (det B - 1/4)^2 tau^2 - (2 alpha beta - T) tau + beta^2 - det D
    (the two branches of Adesso and Datta, PRL 105, 030501 (2010)).  The
    seed is m ~ (q0, -q1, -q2) with q = tau l(B) - l(D).  A candidate that
    does not exist, as in a product state, comes out as NaN.
    """
    d = c.T @ np.linalg.solve(a, c)
    det_b = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    det_d = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]
    t = b[1, 1] * d[0, 0] + b[0, 0] * d[1, 1] - b[0, 1] * (d[0, 1] + d[1, 0])
    alpha = det_b + 0.25
    beta = t - det_d
    quad_b = 2.0 * alpha * beta - t
    quad_c = beta * beta - det_d
    root_h = math.sqrt(max(t * t - 4.0 * det_b * det_d, 0.0))
    root_g = math.sqrt(max(quad_b * quad_b
                           - 4.0 * (det_b - 0.25)**2 * quad_c, 0.0))
    with np.errstate(all="ignore"):
        tau = np.array([(t + root_h) / (2.0 * det_b),
                        2.0 * quad_c / (quad_b + root_g)])
        q = tau[:, None] * _seed_form(b) - _seed_form(d)
        # |(m1, m2)| = sinh(ln s) on the hyperboloid
        sinh = np.hypot(q[:, 1], q[:, 2]) / np.sqrt(
            q[:, 0]**2 - q[:, 1]**2 - q[:, 2]**2)
        s = np.minimum(np.exp(np.arcsinh(sinh)), _S_HOMODYNE)
    s[0] = _S_HOMODYNE
    return s, 0.5 * np.arctan2(-q[:, 2], -q[:, 1])


def gaussian_discord(gamma, measured_node: str = "h") -> float:
    """Gaussian quantum discord revealed by measuring one node.

    Q = S(G_B) - S(G_AB) + min_m S(A | m) over pure single-mode Gaussian
    measurement seeds, which is optimal among all measurements (Pirandola
    et al., PRL 113, 140405 (2014)).  The minimum is the smaller of the
    kernel's values at the two closed-form candidates of _optimal_seeds.
    """
    state = GaussianState.of(gamma)
    a, b, c = _blocks(state.checked(), measured_node)
    cond = _conditional_entropies(a, b, c, *_optimal_seeds(a, b, c))
    s_b = state.node_entropies["ch".index(measured_node)]
    q = s_b - state.entropy + float(np.fmin(*cond))
    return max(q, 0.0)


def log_negativity(gamma) -> float:
    """Logarithmic negativity from the partially transposed covariance.

    The partial transpose flips the sign of the cold momentum,
    G~ = P G P with P = diag(1, -1, 1, 1).
    """
    p = _PARTIAL_TRANSPOSE
    nus = symplectic_eigenvalues(p @ GaussianState.of(gamma).checked() @ p)
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
