"""Gaussian state toolkit for two-mode covariance matrices.

Quadrature ordering is (X_c, P_c, X_h, P_h) and covariances are the
symmetrized second moments [G]_kl = <{R_k, R_l}>/2 of a zero-mean state.
All entropic quantities are in nats.  The four measures take a StateStack
and return one value per state, NaN where the state fails the
physicality check; the stack's reasons say why, and StateStack.check
raises NonPhysicalStateError with the reason.  A stack takes one
symplectic spectrum pass.  It and the measures walk a small stack state
by state on floats (xp = _FLOATS: numpy's bits from math and Python), a
larger one on arrays (xp = numpy), through the same elementwise helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

# nu may sit this far below 1/2 from round-off and still be clamped
PHYSICALITY_TOL = 1e-9
#: squeezing of the homodyne (s -> inf) discord seed, and the cap of the
#: finite one.  The kernel's rounding there is up to about 1e-8 of the
#: conditional entropy; the frozen benchmark cells were searched at it.
_S_HOMODYNE = 1e9
#: the most states (measured ones, for the measures) walked one by one on
#: floats; arrays cost less from 5 on (fidelity and one node's discord)
_MAX_SCALAR = 4
_FLOATS = SimpleNamespace(sqrt=math.sqrt, maximum=max, minimum=min,
                          fmin=lambda x, y: y if x != x or y < x else x)


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
    covariance matrices (m, 4, 4), from one _spectra pass."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 3 or gamma.shape[1:] != (4, 4):
        raise ValueError("expected a stack of 4x4 covariance matrices")
    return np.array(_spectra(gamma.reshape(-1, 16).tolist() if len(gamma)
                             <= _MAX_SCALAR else gamma, 0)).reshape(-1, 2)


def _spectra(g, m: int) -> list:
    """The spectra of a stack, then of its first m's partial transposes:
    on floats for a list of row-major rows, else on arrays (n, 4, 4)."""
    if isinstance(g, list):
        return ([_float_spectrum(r, 1.0) for r in g]
                + [_float_spectrum(r, -1.0) for r in g[:m]])
    i, j = np.tril_indices(4)
    with np.errstate(all="ignore"):
        nus = np.array(_spectrum(*np.concatenate(
            (g, g[:m] * _PT_SIGNS))[:, i, j].T, np))
    nus[:, ~((0.0 < nus[1]) & (nus[0] < np.inf))] = 0.0
    return nus.T.tolist()


def _spectrum(g00, g10, g11, g20, g21, g22, g30, g31, g32, g33, xp):
    """(nu_max, nu_min) of G from its lower entries, elementwise in xp:
    with 2G = L L^T and a..f = K01, K02, K03, K12, K13, K23 of L^T J L,
    2(nu_max +- nu_min) = sqrt(sum k^2 +- 2 det L), sums of squares that
    cannot cancel (Serafini et al., J. Phys. B 37, L21 (2004))."""
    l00 = xp.sqrt(2.0 * g00)
    l10, l20, l30 = 2.0 * g10 / l00, 2.0 * g20 / l00, 2.0 * g30 / l00
    l11 = xp.sqrt(2.0 * g11 - l10 * l10)
    l21, l31 = (2.0 * g21 - l20 * l10) / l11, (2.0 * g31 - l30 * l10) / l11
    l22 = xp.sqrt(2.0 * g22 - l20 * l20 - l21 * l21)
    l32 = (2.0 * g32 - l30 * l20 - l31 * l21) / l22
    l33 = xp.sqrt(2.0 * g33 - l30 * l30 - l31 * l31 - l32 * l32)
    a = l00 * l11 + l20 * l31 - l30 * l21
    b, c, d = l20 * l32 - l30 * l22, l20 * l33, l21 * l32 - l31 * l22
    e, f = l21 * l33, l22 * l33
    plus = (a + f) * (a + f) + (b - e) * (b - e) + (c + d) * (c + d)
    minus = (a - f) * (a - f) + (b + e) * (b + e) + (c - d) * (c - d)
    nu_max = (xp.sqrt(plus) + xp.sqrt(minus)) / 4.0
    return nu_max, l00 * l11 * l22 * l33 / (4.0 * nu_max)


def _float_spectrum(r: list, s: float):
    # a float row's spectrum, or for s = -1.0 its partial transpose's
    try:
        nus = _spectrum(r[0], s * r[4], r[5], r[8], s * r[9], r[10], r[12],
                        s * r[13], r[14], r[15], _FLOATS)
    except (ValueError, ZeroDivisionError):
        return 0.0, 0.0
    return nus if 0.0 < nus[1] and nus[0] < math.inf else (0.0, 0.0)


def _entropy(nu: float) -> float:
    # (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2), nu >= 1/2, per mode
    nu = max(nu, 0.5)
    up, dn = nu + 0.5, nu - 0.5
    return up * math.log(up) - (dn * math.log(dn) if dn > 0.0 else 0.0)


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
    measured ones' partial transposes take the stack's one _spectra pass."""

    def __init__(self, covariances, labels=None, measured=None):
        g = self.covariances = np.asarray(covariances, dtype=float)
        if g.ndim != 3 or g.shape[1:] != (4, 4):
            raise ValueError("expected a stack of 4x4 covariance matrices")
        m = self.measured = len(g) if measured is None else measured
        # the states' row-major rows and spectra, all as floats
        rows = self._rows = g.reshape(-1, 16).tolist()
        self._spectra = _spectra(rows if len(g) <= _MAX_SCALAR else g, m)
        #: each state's reason for failing the check, None if it passes
        self.reasons = [_reason(label, gamma, nu[1]) for label, gamma, nu
                        in zip(labels or [""] * len(g), g, self._spectra)]

    #: the spectra (n, 2) and the partial transposes' (m, 2), when read
    nus = cached_property(lambda self: np.array(
        self._spectra[:len(self._rows)]).reshape(-1, 2))
    transposed_nus = cached_property(lambda self: np.array(
        self._spectra[len(self._rows):]).reshape(-1, 2))

    @cached_property
    def physical(self) -> np.ndarray:
        """Whether each state passes the check."""
        return np.array([r is None for r in self.reasons], bool)

    def check(self, i: int) -> None:
        """Raise NonPhysicalStateError, with its reason, if state i fails."""
        if self.reasons[i] is not None:
            raise NonPhysicalStateError(self.reasons[i])

    @cached_property
    def entropies(self) -> tuple:
        """(S(G_ch), S(G_c), S(G_h)) of the measured states, float lists."""
        m = self.measured
        return ([_entropy(nu_max) + _entropy(nu_min)
                 for nu_max, nu_min in self._spectra[:m]],
                *([_entropy(_node_nu(r[i], r[i + 1], r[i + 4], r[i + 5]))
                   for r in self._rows[:m]] for i in (0, 10)))


def mutual_information(states: StateStack) -> np.ndarray:
    """I = S(G_c) + S(G_h) - S(G_ch) of each measured state."""
    return np.array([s_c + s_h - s if r is None else math.nan for
                     s, s_c, s_h, r in zip(*states.entropies, states.reasons)])


def fidelity(states: StateStack, partners) -> np.ndarray:
    """Uhlmann fidelity of each measured state G1 and its partner G2, the
    state at the given index of the same stack.

    F = (x + sqrt(x^2 - a)) / a with x = sqrt(b) + sqrt(c),
    a = det(G1 + G2), b = 2^4 det[(J G1)(J G2) - 1/4],
    c = 2^4 det(G1 + iJ/2) det(G2 + iJ/2) = 2^4 prod_k (nu_k^2 - 1/4)
    over both spectra (Williamson; Marian & Marian, PRA 86, 022340 (2012)).
    It is NaN where either state fails the physicality check.
    """
    m, g, nus, reasons = (states.measured, states.covariances,
                          states._spectra, states.reasons)
    if m <= _MAX_SCALAR:
        return np.array([
            _fidelity(*np.linalg.det(_fidelity_matrices(g[i], g[j])).tolist(),
                      _det_products(*nus[i], *nus[j]))
            if reasons[i] is None and reasons[j] is None else math.nan
            for i, j in zip(range(m), partners)])
    partners = np.asarray(partners, dtype=int)
    ok = states.physical[:m] & states.physical[partners]
    a, b = np.linalg.det(_fidelity_matrices(g[:m][ok], g[partners[ok]]))
    nu = np.concatenate((states.nus[:m][ok], states.nus[partners[ok]]), 1)
    f = np.full(m, np.nan)
    f[ok] = [_fidelity(*abc) for abc in zip(
        a.tolist(), b.tolist(), _det_products(*nu.T).tolist())]
    return f


def _fidelity_matrices(g1, g2) -> np.ndarray:
    # G1 + G2 and (J G1)(J G2) - 1/4, of two states or two stacks
    jj = SYMPLECTIC_FORM
    return np.array((g1 + g2, (jj @ g1) @ (jj @ g2) - _QUARTER))


def _det_products(*nus):
    # prod_k (nu_k^2 - 1/4) over both spectra, elementwise
    q0, q1, q2, q3 = ((nu - 0.5) * (nu + 0.5) for nu in nus)
    return q0 * q1 * q2 * q3


def _fidelity(a: float, b: float, c: float) -> float:
    # b and c without their factor 2^4; negatives under the square roots,
    # from round-off or from a nu that the check lets sit below 1/2, are
    # clamped to zero
    x = math.sqrt(max(16.0 * b, 0.0)) + math.sqrt(max(16.0 * c, 0.0))
    return min((x + math.sqrt(max(x * x - a, 0.0))) / a, 1.0)


def _blocks(gamma: np.ndarray, measured_node: str):
    # measured_node is 'c' or 'h', as gaussian_discord checks
    if measured_node == "h":
        return gamma[..., :2, :2], gamma[..., 2:, 2:], gamma[..., :2, 2:]
    return gamma[..., 2:, 2:], gamma[..., :2, :2], gamma[..., 2:, :2]


#: the row-major indices of A's, B's and C's entries 11, 12, 21, 22
_ROW_BLOCKS = {node: [block.ravel().tolist() for block in _blocks(
    np.arange(16).reshape(4, 4), node)] for node in "ch"}


def _d_block(gamma: np.ndarray, measured_node: str) -> np.ndarray:
    # D = C^T A^-1 C of a state (4, 4) or of a stack (n, 4, 4)
    a, _, c = _blocks(gamma, measured_node)
    return np.swapaxes(c, -1, -2) @ np.linalg.solve(a, c)


def _conditional_entropies(a, b, c, s, phi, xp):
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
    nu = xp.sqrt(xp.maximum((a11 - q11) * (a22 - q22) - r12 * r12, 0.25))
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
    seed's angle phi, elementwise.  On floats, one of the two is a numpy
    scalar (it holds a root), so a zero denominator gives inf or NaN."""
    tau = numerator / denominator
    q = (tau * form_b[0] - form_d[0], tau * form_b[1] - form_d[1],
         tau * form_b[2] - form_d[2])
    return q, 0.5 * np.arctan2(-q[2], -q[1])


def _optimal_seeds(b, d, xp) -> tuple:
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
    root_h = np.sqrt(xp.maximum(t * t - 4.0 * det_b * det_d, 0.0))
    # libm's pow per element, on a float and on an array alike, as the
    # frozen benchmark cells were computed: the rounded product x * x, and
    # np.power on AVX-512 hosts, differ in the last bit on a few blocks.
    # Re-freezing those cells lets this become x * x.
    square = np.float_power(det_b - 0.25, 2.0)
    root_g = np.sqrt(xp.maximum(quad_b * quad_b - 4.0 * square * quad_c,
                                0.0))
    forms = _seed_form(*b), _seed_form(*d)
    phi_h = _seed_angle(t + root_h, 2.0 * det_b, *forms)[1]
    (q0, q1, q2), phi_g = _seed_angle(2.0 * quad_c, quad_b + root_g, *forms)
    # |(m1, m2)| = sinh(ln s) on the hyperboloid
    sinh = np.hypot(q1, q2) / np.sqrt(q0 * q0 - q1 * q1 - q2 * q2)
    return ((_S_HOMODYNE, phi_h),
            (xp.minimum(np.exp(np.arcsinh(sinh)), _S_HOMODYNE), phi_g))


def _min_conditional_entropy(a, b, c, d, xp):
    """min_m S(A | m): the smaller kernel value at the two candidate
    seeds, elementwise on the entries of A, B, C and D = C^T A^-1 C."""
    homodyne, general = _optimal_seeds(b, d, xp)
    return xp.fmin(_conditional_entropies(a, b, c, *homodyne, xp),
                   _conditional_entropies(a, b, c, *general, xp))


def gaussian_discord(states: StateStack,
                     measured_node: str = "h") -> np.ndarray:
    """Gaussian quantum discord of each measured state, revealed by
    measuring one node.

    Q = S(G_B) - S(G_AB) + min_m S(A | m) over pure single-mode Gaussian
    measurement seeds, which is optimal among all measurements (Pirandola
    et al., PRL 113, 140405 (2014)), from _min_conditional_entropy.
    """
    if measured_node not in ("c", "h"):
        raise ValueError("measured_node must be 'c' or 'h'")
    m, g = states.measured, states.covariances
    s, s_c, s_h = states.entropies
    s_b = s_h if measured_node == "h" else s_c
    with np.errstate(all="ignore"):  # a missing candidate is NaN
        if m <= _MAX_SCALAR:
            return np.array([_discord(b - t, _min_conditional_entropy(
                *([row[k] for k in ks] for ks in _ROW_BLOCKS[measured_node]),
                _d_block(gamma, measured_node).ravel().tolist(), _FLOATS),
                _FLOATS) if r is None else math.nan for row, gamma, t, b, r
                in zip(states._rows, g, s, s_b, states.reasons)])
        ok = states.physical[:m]
        rows = g[:m][ok].reshape(-1, 16)
        d = _d_block(g[:m][ok], measured_node).reshape(-1, 4).T
        q = np.full(m, np.nan)
        q[ok] = _discord(np.subtract(s_b, s)[ok], _min_conditional_entropy(
            *(rows[:, ks].T for ks in _ROW_BLOCKS[measured_node]), d, np), np)
    return q


def _discord(gap, cond, xp):
    # S(G_B) - S(G_AB) + min_m S(A | m), clamped at zero, elementwise
    return xp.maximum(gap + cond, 0.0)


def log_negativity(states: StateStack) -> np.ndarray:
    """Logarithmic negativity of each measured state, from the symplectic
    spectrum of its partial transpose G~ = P G P with
    P = diag(1, -1, 1, 1)."""
    return np.array([max(0.0, -math.log(2.0 * hi)) + max(0.0, -math.log(
        2.0 * lo)) if r is None else math.nan for (hi, lo), r in zip(
            states._spectra[len(states._rows):], states.reasons)])


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation measures of one steady state (discord arrow fixed)."""

    fidelity_to_exact: float
    mutual_information: float
    discord_arrow: float
    classical_arrow: float
    log_negativity: float
    measured_node: str = "h"
