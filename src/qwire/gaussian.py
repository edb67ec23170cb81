"""Gaussian state toolkit for two-mode covariance matrices.

Quadrature ordering is (X_c, P_c, X_h, P_h) and covariances are the
symmetrized second moments [G]_kl = <{R_k, R_l}>/2 of a zero-mean state.
All entropic quantities are in nats.  The four measures take a StateStack
and return one value per state, NaN where the state fails the
physicality check; the stack's reasons say why, and StateStack.check
raises NonPhysicalStateError with the reason.  A stack takes one
symplectic spectrum call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# nu may sit this far below 1/2 from round-off and still be clamped
PHYSICALITY_TOL = 1e-9
#: squeezing of the homodyne (s -> inf) discord seed, and the cap of the
#: finite one.  The kernel's rounding there is up to about 1e-8 of the
#: conditional entropy; the frozen benchmark cells were searched at it.
_S_HOMODYNE = 1e9
#: below this share of nu_max, the eigensolve cannot resolve nu_min
_RESOLVED = 1e-4
#: gaussian_discord's largest stack that it measures state by state
_MAX_SCALAR = 4


class NonPhysicalStateError(ValueError):
    """Covariance matrix violates the uncertainty bound nu >= 1/2."""


#: the two-mode symplectic form, block diagonal in [[0, 1], [-1, 0]], the
#: signs whose product with G is its partial transpose P G P with
#: P = diag(1, -1, 1, 1), and a term of the fidelity; all read-only
SYMPLECTIC_FORM = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
_PT_SIGNS = np.outer([1.0, -1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0])
_QUARTER = np.eye(4) / 4.0
for _m in (SYMPLECTIC_FORM, _PT_SIGNS, _QUARTER):
    _m.setflags(write=False)


def symplectic_eigenvalues(gamma) -> np.ndarray:
    """Symplectic spectra (m, 2), descending, of a stack of 4x4
    covariance matrices (m, 4, 4).

    With the Cholesky factor 2G = L L^T, the Hermitian matrix i L^T J L
    has eigenvalues +-2 nu.  Its eigensolve is accurate to rounding even
    near pure states, where the invariant formula
    nu^2 = (D +- sqrt(D^2 - 4 det G))/2 loses about half the digits.
    Factoring 2G rather than G keeps the vacuum exact: nu = 1/2.  Where
    nu_min < _RESOLVED nu_max, as when the nodes differ vastly in scale,
    nu_min is sqrt(det G) / nu_max = prod diag L / (4 nu_max) instead.
    The stack takes one cholesky and one eigvalsh call.  A matrix that is
    not positive definite, or not finite, is no covariance; it gets zeros.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 3 or gamma.shape[1:] != (4, 4):
        raise ValueError("expected a stack of 4x4 covariance matrices")
    bad = ~np.isfinite(gamma).all(axis=(1, 2))
    work = 2.0 * gamma
    if any_bad := bad.any():
        work[bad] = np.eye(4)
    try:
        low = np.linalg.cholesky(work)
    except np.linalg.LinAlgError:  # raised for the whole stack
        low = np.empty_like(work)
        for i, matrix in enumerate(work):
            try:
                low[i] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                low[i], bad[i], any_bad = np.eye(4), True, True
    herm = 1j * (np.swapaxes(low, 1, 2) @ SYMPLECTIC_FORM @ low)
    nus = 0.5 * np.linalg.eigvalsh(herm)[:, 2:][:, ::-1]
    if (lost := nus[:, 1] < _RESOLVED * nus[:, 0]).any():
        nus[lost, 1] = np.diagonal(low[lost], axis1=1, axis2=2).prod(
            axis=1) / (4.0 * nus[lost, 0])
    if any_bad:
        nus[bad] = 0.0
    return nus


def _entropy(nus) -> float:
    # sum of (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2), nu >= 1/2
    out = 0
    for nu in nus:
        nu = max(nu, 0.5)
        up, dn = nu + 0.5, nu - 0.5
        out += up * math.log(up) - (dn * math.log(dn) if dn > 0.0 else 0.0)
    return out


def _node_nu(x11: float, x12: float, x21: float, x22: float) -> float:
    # a one-mode spectrum; a failed state's det may be negative or not finite
    return math.sqrt(max(x11 * x22 - x12 * x21, 0.0))


def _reason(label: str, gamma: np.ndarray, nu_min: float):
    """Why a covariance fails the physicality check, led by label; None if
    it passes.  Only a matrix without a spectrum has nu_min = 0."""
    if nu_min == 0.0:
        kind = "positive definite" if np.isfinite(gamma).all() else "finite"
        return f"{label}covariance is not {kind}"
    if nu_min < 0.5 - PHYSICALITY_TOL:
        return (f"{label}smallest symplectic eigenvalue below 1/2: "
                f"nu_min - 1/2 = {nu_min - 0.5:.3e}")
    return None


class StateStack:
    """Two-mode states (n, 4, 4) with a label each, which leads the
    state's reason for failing the physicality check.  The measures take
    the first `measured` states, all by default; the others are only
    checked, as fidelity partners.  The spectra of the states and of the
    measured ones' partial transposes take the stack's one call; a node's
    symplectic eigenvalue is sqrt(det) of its 2x2 block."""

    def __init__(self, covariances, labels=None, measured=None):
        g = self.covariances = np.asarray(covariances, dtype=float)
        if g.ndim != 3 or g.shape[1:] != (4, 4):
            raise ValueError("expected a stack of 4x4 covariance matrices")
        m = self.measured = len(g) if measured is None else measured
        nus = symplectic_eigenvalues(np.concatenate((g, g[:m] * _PT_SIGNS)))
        self.nus, self.transposed_nus = nus[:len(g)], nus[len(g):]
        #: each state's reason for failing the check, None if it passes
        self.reasons = [_reason(*args) for args in zip(
            labels or [""] * len(g), g, self.nus[:, -1].tolist())]
        self.physical = np.array([r is None for r in self.reasons], bool)

    def check(self, i: int) -> None:
        """Raise NonPhysicalStateError, with its reason, if state i fails."""
        if self.reasons[i] is not None:
            raise NonPhysicalStateError(self.reasons[i])

    @cached_property
    def entropies(self) -> tuple:
        """(S(G_ch), S(G_c), S(G_h)) of the measured states."""
        m = self.measured
        g = self.covariances[:m]
        nodes = np.concatenate((g[:, :2, :2], g[:, 2:, 2:])).reshape(-1, 4)
        s = np.array([_entropy(nus) for nus in self.nus[:m].tolist()]
                     + [_entropy((_node_nu(*x),)) for x in nodes.tolist()])
        return s[:m], s[m:2 * m], s[2 * m:]


def mutual_information(states: StateStack) -> np.ndarray:
    """I = S(G_c) + S(G_h) - S(G_ch) of each measured state."""
    s, s_c, s_h = states.entropies
    return np.where(states.physical[:states.measured], s_c + s_h - s,
                    np.nan)


def fidelity(states: StateStack, partners) -> np.ndarray:
    """Uhlmann fidelity of each measured state G1 and its partner G2, the
    state at the given index of the same stack.

    F = (x + sqrt(x^2 - a)) / a with x = sqrt(b) + sqrt(c),
    a = det(G1 + G2), b = 2^4 det[(J G1)(J G2) - 1/4],
    c = 2^4 det(G1 + iJ/2) det(G2 + iJ/2) = 2^4 prod_k (nu_k^2 - 1/4)
    over both spectra (Williamson; Marian & Marian, PRA 86, 022340 (2012)).
    It is NaN where either state fails the physicality check.
    """
    partners = np.asarray(partners, dtype=int)
    ok = states.physical[:states.measured] & states.physical[partners]
    g1 = states.covariances[:states.measured][ok]
    g2 = states.covariances[partners[ok]]
    jj = SYMPLECTIC_FORM
    a, b = np.linalg.det(np.stack((g1 + g2,
                                   (jj @ g1) @ (jj @ g2) - _QUARTER)))
    nu = np.concatenate((states.nus[:states.measured][ok],
                         states.nus[partners[ok]]), axis=1)
    q = (nu - 0.5) * (nu + 0.5)
    b, c = 16.0 * b, 16.0 * (q[:, 0] * q[:, 1] * q[:, 2] * q[:, 3])
    f = np.full(len(ok), np.nan)
    f[ok] = [_fidelity(*abc) for abc in zip(a.tolist(), b.tolist(),
                                            c.tolist())]
    return f


def _fidelity(a: float, b: float, c: float) -> float:
    # negatives under the square roots, from round-off or from a nu that
    # the check lets sit below 1/2, are clamped to zero
    x = math.sqrt(max(b, 0.0)) + math.sqrt(max(c, 0.0))
    return min((x + math.sqrt(max(x * x - a, 0.0))) / a, 1.0)


def _blocks(gamma: np.ndarray, measured_node: str):
    if measured_node == "h":
        return gamma[..., :2, :2], gamma[..., 2:, 2:], gamma[..., :2, 2:]
    if measured_node == "c":
        return gamma[..., 2:, 2:], gamma[..., :2, :2], gamma[..., 2:, :2]
    raise ValueError("measured_node must be 'c' or 'h'")


def _block_entries(gamma: np.ndarray, measured_node: str) -> np.ndarray:
    """Entries 11, 12, 21, 22 of the blocks A, B, C and D = C^T A^-1 C of
    a stack (n, 4, 4), as an array (n, 4 blocks, 4 entries)."""
    a, b, c = _blocks(gamma, measured_node)
    d = np.swapaxes(c, 1, 2) @ np.linalg.solve(a, c)
    return np.concatenate((a, b, c, d), axis=1).reshape(-1, 4, 4)


def _conditional_entropies(a, b, c, s, phi):
    """Entropy of the unmeasured node after measuring with seeds (s, phi),
    elementwise on the entries (11, 12, 21, 22) of the blocks a, b, c:
    x * x, since x ** 2 is libm's pow on a float but not on an array.  The
    conditional covariance is the Schur complement A - C (B + G_m)^-1 C^T
    and its entropy only needs its determinant.
    """
    (a11, a12, _, a22), (b11, b12, _, b22), (c11, c12, c21, c22) = a, b, c
    co = np.cos(phi)
    si = np.sin(phi)
    co2, si2 = co * co, si * si
    # seed entries of 0.5 R diag(s, 1/s) R^T
    m11 = 0.5 * (s * co2 + si2 / s)
    m22 = 0.5 * (s * si2 + co2 / s)
    m12 = 0.5 * (s - 1.0 / s) * co * si
    t11 = b11 + m11
    t22 = b22 + m22
    t12 = b12 + m12
    det_t = t11 * t22 - t12 * t12
    # C T^-1 C^T entries via the 2x2 adjugate; (u, v) = adj(T) (c21, c22)
    u = t22 * c21 - t12 * c22
    v = t11 * c22 - t12 * c21
    q11 = (c11 * (t22 * c11 - t12 * c12) + c12 * (t11 * c12 - t12 * c11)) / det_t
    q22 = (c21 * u + c22 * v) / det_t
    q12 = (c11 * u + c12 * v) / det_t
    r12 = a12 - q12
    nu = np.sqrt(np.maximum((a11 - q11) * (a22 - q22) - r12 * r12, 0.25))
    up = nu + 0.5
    dn = nu - 0.5
    return up * np.log(up) - dn * np.log(dn + (dn == 0.0))


def _seed_form(x11, x12, x21, x22) -> tuple:
    """l(X) with det(X + G_m) = det X + 1/4 + l(X).m for the seed
    coordinates m = (m11 + m22, m11 - m22, 2 m12), which lie on the
    hyperboloid m0^2 - m1^2 - m2^2 = 1; elementwise on X's entries."""
    return (x11 + x22) / 2, (x22 - x11) / 2, -x12


def _seed_angle(numerator, denominator, form_b, form_d) -> tuple:
    """q = tau l(B) - l(D) at tau = numerator / denominator, and the
    seed's angle phi, elementwise."""
    tau = np.divide(numerator, denominator)
    q = tuple(tau * x - y for x, y in zip(form_b, form_d))
    return q, 0.5 * np.arctan2(-q[2], -q[1])


def _optimal_seeds(b, d) -> tuple:
    """The (s, phi) of the two candidates for the optimal measurement,
    homodyne first, elementwise on the entries of B and D = C^T A^-1 C.

    Everything is written in D, so weak correlations do not cancel.
    det(cond) = det A (1 - tau(m)) with the linear-fractional
    tau = (beta + l(D).m) / (alpha + l(B).m), alpha = det B + 1/4,
    beta = T - det D and T = tr(adj(B) D).  Its supremum over the
    hyperboloid is either the homodyne limit, the larger root of
    det(tau B - D) = 0, or the tangency of a level plane, the stable small
    root of (det B - 1/4)^2 tau^2 - (2 alpha beta - T) tau + beta^2 - det D
    (the two branches of Adesso and Datta, PRL 105, 030501 (2010)).  The
    seed is m ~ (q0, -q1, -q2) with q = tau l(B) - l(D).  A candidate that
    does not exist, as in a product state, comes out as NaN.
    """
    (b11, b12, b21, b22), (d11, d12, d21, d22) = b, d
    det_b = b11 * b22 - b12 * b21
    det_d = d11 * d22 - d12 * d21
    t = b22 * d11 + b11 * d22 - b12 * (d12 + d21)
    alpha = det_b + 0.25
    beta = t - det_d
    quad_b = 2.0 * alpha * beta - t
    quad_c = beta * beta - det_d
    root_h = np.sqrt(np.maximum(t * t - 4.0 * det_b * det_d, 0.0))
    # libm's pow per element, on a float and on an array alike, as the
    # frozen benchmark cells were computed: the rounded product x * x, and
    # np.power on AVX-512 hosts, differ in the last bit on a few blocks.
    # Re-freezing those cells lets this become x * x.
    square = np.float_power(det_b - 0.25, 2.0)
    root_g = np.sqrt(np.maximum(quad_b * quad_b - 4.0 * square * quad_c,
                                0.0))
    forms = _seed_form(*b), _seed_form(*d)
    phi_h = _seed_angle(t + root_h, 2.0 * det_b, *forms)[1]
    (q0, q1, q2), phi_g = _seed_angle(2.0 * quad_c, quad_b + root_g, *forms)
    # |(m1, m2)| = sinh(ln s) on the hyperboloid
    sinh = np.hypot(q1, q2) / np.sqrt(q0 * q0 - q1 * q1 - q2 * q2)
    return ((_S_HOMODYNE, phi_h),
            (np.minimum(np.exp(np.arcsinh(sinh)), _S_HOMODYNE), phi_g))


def _min_conditional_entropy(a, b, c, d):
    """min_m S(A | m): the smaller kernel value at the two candidate
    seeds, elementwise on the entries of A, B, C and D = C^T A^-1 C."""
    return np.fmin(*(_conditional_entropies(a, b, c, *seed)
                     for seed in _optimal_seeds(b, d)))


def gaussian_discord(states: StateStack,
                     measured_node: str = "h") -> np.ndarray:
    """Gaussian quantum discord of each measured state, revealed by
    measuring one node.

    Q = S(G_B) - S(G_AB) + min_m S(A | m) over pure single-mode Gaussian
    measurement seeds, which is optimal among all measurements (Pirandola
    et al., PRL 113, 140405 (2014)).  _min_conditional_entropy gives the
    minimum, once on arrays of the stack's entries, or state by state on
    floats in a stack of up to _MAX_SCALAR, with the same bits.
    """
    ok = states.physical[:states.measured]
    entries = _block_entries(states.covariances[:states.measured][ok],
                             measured_node)
    with np.errstate(all="ignore"):  # a missing candidate is NaN
        if states.measured > _MAX_SCALAR:
            cond = _min_conditional_entropy(*entries.transpose(1, 2, 0))
        else:
            cond = np.array([_min_conditional_entropy(*x)
                             for x in entries.tolist()])
    s, s_c, s_h = states.entropies
    s_b = s_c if measured_node == "c" else s_h
    q = np.full(len(ok), np.nan)
    q[ok] = np.maximum(s_b[ok] - s[ok] + cond, 0.0)
    return q


def log_negativity(states: StateStack) -> np.ndarray:
    """Logarithmic negativity of each measured state, from the symplectic
    spectrum of its partial transpose G~ = P G P with
    P = diag(1, -1, 1, 1)."""
    return np.array([sum(max(0.0, -math.log(2.0 * nu)) for nu in nus)
                     if ok else math.nan for nus, ok in
                     zip(states.transposed_nus.tolist(),
                         states.physical[:states.measured])])


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation measures of one steady state (discord arrow fixed)."""

    fidelity_to_exact: float
    mutual_information: float
    discord_arrow: float
    classical_arrow: float
    log_negativity: float
    measured_node: str = "h"
