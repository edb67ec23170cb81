"""Accuracy of the normal modes, of the global and Redfield
covariances and hot currents, and of the node spectra and the fidelity,
against high-precision twins.

The normal modes are checked against their defining equation: mpmath's
eigsy, at 40 digits, of the potential [[omega_c^2 + k, -k], [-k, omega_h^2
+ k]], from the same float inputs.  Each output's tolerance is the
first-order rounding bound of evaluating it without cancellation: d as
(omega_h - omega_c)(omega_h + omega_c) and Omega_-^2 as the product of
the roots over Omega_+^2 (ROADMAP item 9's forms), every other step as
the library takes it.  The inputs are exact floats, so this bound is the
accuracy that the point's conditioning allows.  The rows on the two
cancellations that item 9 removes are strict xfails.

The covariances are checked against 50-digit twins that evaluate, in
mpmath, the closed forms that the library evaluates in floats: the
weights from d and the root, Omega_+-, the occupations, the Redfield
coherence and the rotation back to the local quadratures.

Alongside each value a twin carries a first-order bound on the library's
relative error, in units of the unit roundoff u = eps/2 (class Rounded).
Every float operation adds its own rounding to its operands' errors
weighted by their conditioning, so the bound is derived from how each
entry is formed and is never fitted.  It is some tens of u where nothing
cancels, and grows only where a formula cancels: Omega_-^2 = (tr -
root)/2 at strong coupling, and the X_c-X_h and P_c-P_h entries,
differences of two near-equal mode variances.

The measures are checked against 50-digit evaluations of their formulas
on the float states.  A node's symplectic eigenvalue, sqrt(x11 x22 - x12
x21), carries the Rounded bound of that expression.  The fidelity's twin
takes det(G + iJ/2) from a complex LU rather than from the symplectic
spectrum, as the library does, and its bound (fidelity_twin) adds the
backward errors of numpy's LU determinants and of the symplectic
eigensolve, each from its textbook bound, to the roundings of the
closed form.

The local and the global state are also checked against their defining
equation: an mp LU, at 50 digits, of the ten moment equations built from
the float entries of their own drift and diffusion, the global one
rotated back in mp.  Those bounds are first order in u and carry the
condition number kappa of the 10x10 moment matrix.

Checked: every normal-mode output, every nonzero entry of the global
covariance, every X-X and P-P entry of the Redfield covariance, the
whole local and global covariance against their moment equations, both
closed-form hot currents (also where n_h - n_c cancels), every
node's symplectic eigenvalue of the physical pool states and of random
states, and the fidelity of every state of the fig1a, fig1b and strongly
coupled fig2c sweeps and of the pool to its exact partner.  The Redfield
X-P entries carry the time-reversed coherence (CHANGES.md FOUND) and
wait for its fix.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from qwire import (WireParams, gaussian, gme_heat_currents, gme_steady_state,
                   sweep)
from qwire.cli import PRESETS, parse_log_grid
from qwire.gme import gme_coefficients
from qwire.lme import lme_drift_diffusion, lme_steady_state
from qwire.model import (normal_modes, rotation_matrix,
                         secular_validity_margin)
from qwire.moments import MOMENTS, moment_equations
from qwire.redfield import redfield_steady_state
from conftest import pair_fidelity, pool_states
from oracles import gme_drift_diffusion, moments

DIGITS = 50

#: omega_h / omega_c away from degeneracy, where d = omega_h^2 - omega_c^2
#: is well conditioned, in both node orders; k over eleven decades
RATIOS = (2.0, 0.5, 1.5, 0.3)
COUPLINGS = tuple(float(k) for k in np.geomspace(1e-9, 30.0, 22))

#: the checked entries: (X_c, X_c), (X_c, X_h), (X_h, X_h) and the same
#: for the momenta, as ((i, j) in the 4x4 covariance, (a, b) in its block)
BLOCK_ENTRIES = {"X": (((0, 0), (0, 0)), ((0, 2), (0, 1)), ((2, 2), (1, 1))),
                 "P": (((1, 1), (0, 0)), ((1, 3), (0, 1)), ((3, 3), (1, 1)))}


def _power_of_two(v) -> bool:
    return (isinstance(v, float) and v != 0.0
            and abs(math.frexp(v)[0]) == 0.5)


class Rounded:
    """An exact value x and a bound r: the float the library computes for x
    lies within r u |x| of it, to first order in u.

    Inputs are exact (r = 0).  +, -, *, / and sqrt round once (correctly
    rounded in IEEE arithmetic); ** 2, hypot and expm1 are held to one ulp
    (two u).  A product with a power of two is exact.
    """

    def __init__(self, x, r=0.0):
        self.x, self.r = mp.mpf(x), r

    @staticmethod
    def lift(v) -> "Rounded":
        return v if isinstance(v, Rounded) else Rounded(v)

    def _plus(self, other) -> "Rounded":
        x = self.x + other.x
        return Rounded(x, (abs(self.x) * self.r + abs(other.x) * other.r)
                       / abs(x) + 1)

    def __add__(self, other):
        return self._plus(self.lift(other))

    def __sub__(self, other):
        return self._plus(-self.lift(other))

    def __neg__(self):
        return Rounded(-self.x, self.r)

    def __abs__(self):
        return Rounded(abs(self.x), self.r)

    def __mul__(self, other):
        rounding = 0 if _power_of_two(other) else 1
        other = self.lift(other)
        return Rounded(self.x * other.x, self.r + other.r + rounding)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.lift(other)
        return Rounded(self.x / other.x, self.r + other.r + 1)

    def __rtruediv__(self, other):
        return self.lift(other) / self

    def __pow__(self, two):
        assert two == 2
        return Rounded(self.x**2, 2 * self.r + 2)


def sqrt(a: Rounded) -> Rounded:
    return Rounded(mp.sqrt(a.x), a.r / 2 + 1)


def hypot(a: Rounded, b: Rounded) -> Rounded:
    sq = a.x**2 + b.x**2
    return Rounded(mp.sqrt(sq), (a.x**2 * a.r + b.x**2 * b.r) / sq + 2)


def expm1(a: Rounded) -> Rounded:
    """expm1 at one ulp; its condition number is x e^x / (e^x - 1)."""
    value = mp.expm1(a.x)
    return Rounded(value, a.x * mp.exp(a.x) / value * a.r + 2)


def matmul(a: list, b: list) -> list:
    """A product of square matrices of Rounded entries, exact zeros
    (Rounded(0)) skipped as the float sums skip them."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = [a[i][m] * b[m][j] for m in range(n)
                     if a[i][m].x != 0 and b[m][j].x != 0]
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            row.append(total)
        out.append(row)
    return out


def twins(params: WireParams) -> dict:
    """{(method, "X" or "P"): 2x2 block of Rounded} for the global and the
    Redfield covariance, and {(method, "qdot_h"): Rounded} for their hot
    currents, each operation in the library's order."""
    wc, wh, k = (Rounded(v) for v in (params.omega_c, params.omega_h,
                                      params.k))
    # model.normal_modes
    d = wh**2 - wc**2
    root = hypot(2.0 * k, d)
    sin_cos = k / root
    small = 2.0 * sin_cos * k / (root + abs(d))
    large = (root + abs(d)) / (2.0 * root)
    cos_sq, sin_sq = (small, large) if d.x > 0 else (large, small)
    tr = wc**2 + wh**2 + 2.0 * k
    om_p, om_m = sqrt(0.5 * (tr + root)), sqrt(0.5 * (tr - root))
    omegas = (om_p, om_m)

    # gme.gme_coefficients: model.occupation and model.spectral_density
    n = [[1.0 / expm1(om / Rounded(t)) for om in omegas]
         for t in (params.t_c, params.t_h)]
    cutoff_sq = Rounded(params.cutoff)**2
    j = [Rounded(params.lambda_sq) * om * cutoff_sq / (om**2 + cutoff_sq)
         for om in omegas]
    w = (cos_sq, sin_sq), (sin_sq, cos_sq)
    occ = [w[0][s] * n[0][s] + w[1][s] * n[1][s] for s in (0, 1)]
    eta_sq = [(occ[s] + 0.5) / omegas[s] for s in (0, 1)]
    pi_sq = [omegas[s] * (occ[s] + 0.5) for s in (0, 1)]

    # redfield.redfield_steady_state: the coherence s_+- and its two
    # entries in the position and the momentum block
    rates = [j[s] / omegas[s] for s in (0, 1)]
    kappa = -0.5 * (rates[0] + rates[1])
    delta = root / (om_p + om_m)
    bias = j[0] * (n[1][0] - n[0][0]) + j[1] * (n[1][1] - n[0][1])
    b4 = -sin_cos * bias / sqrt(om_p * om_m)
    norm = delta**2 + kappa**2
    s_pm = -kappa * b4 / norm
    cross = {"X": s_pm / (2.0 * sqrt(om_p * om_m)),
             "P": 0.5 * sqrt(om_p * om_m) * s_pm}

    # gme.gme_heat_currents, and the Redfield current scaled from it
    qdot_g = sin_cos**2 * bias
    out = {("global", "qdot_h"): qdot_g,
           ("redfield", "qdot_h"): qdot_g * (delta**2 / norm)}

    # model.rotation_matrix, rot @ gamma_nm @ rot.T block by block
    c, s = sqrt(cos_sq), sqrt(sin_sq)
    rot, rot_t = [[c, s], [-s, c]], [[c, -s], [s, c]]
    for name, (plus, minus) in (("X", eta_sq), ("P", pi_sq)):
        for method, x in (("global", Rounded(0)), ("redfield", cross[name])):
            block = [[plus, x], [x, minus]]
            out[method, name] = matmul(matmul(rot, block), rot_t)
    return out


@pytest.mark.parametrize("ratio", RATIOS)
def test_covariances_within_their_rounding_bound(ratio):
    """Every checked entry lies within its derived bound of the twin.

    The bound is first order in u and counts the worst case of every
    rounding, so it holds with room; a relative error in the rotation's
    weights or in Omega_+- beyond their roundings breaks it."""
    u = mp.mpf(np.finfo(float).eps) / 2
    with mp.workdps(DIGITS):
        for k in COUPLINGS:
            params = WireParams(omega_c=1.0, omega_h=ratio, k=k, t_c=2.0,
                                t_h=3.0, lambda_sq=1e-3, cutoff=1e3)
            twin = twins(params)
            for method, solve in (("global", gme_steady_state),
                                  ("redfield", redfield_steady_state)):
                gamma = solve(params).covariance
                for name, entries in BLOCK_ENTRIES.items():
                    for (i, jj), (a, b) in entries:
                        ref = twin[method, name][a][b]
                        err = abs(mp.mpf(gamma[i, jj]) - ref.x) / abs(ref.x)
                        assert err <= ref.r * u, (
                            f"{method} Gamma[{i},{jj}] at k={k!r}: "
                            f"{float(err / u):.3g} u > bound "
                            f"{float(ref.r):.3g} u")


#: the current rows: the covariance grid, plus t_h = t_c (1 + 1e-6), where
#: n_h - n_c cancels and the bound grows with it
CURRENT_POINTS = [WireParams(omega_c=1.0, omega_h=ratio, k=k, t_c=2.0,
                             t_h=3.0, lambda_sq=1e-3, cutoff=1e3)
                  for ratio in RATIOS for k in COUPLINGS] + [
    WireParams(omega_c=1.0, omega_h=2.0, k=0.01, t_c=2.0,
               t_h=2.0 * (1 + 1e-6), lambda_sq=1e-3, cutoff=1e3)]


@pytest.mark.parametrize("method, current", (
    ("global", lambda p: gme_heat_currents(p)[1]),
    ("redfield", lambda p: redfield_steady_state(p).qdot_h)),
    ids=("global", "redfield"))
def test_currents_within_their_rounding_bound(method, current):
    """Each closed-form hot current lies within its derived bound of the
    twin: Q_G = sin_cos^2 sum_s J_s (n_h - n_c) and
    Q_R = Q_G delta^2 / (delta^2 + kappa^2)."""
    u = mp.mpf(np.finfo(float).eps) / 2
    misses = []
    with mp.workdps(DIGITS):
        for params in CURRENT_POINTS:
            ref = twins(params)[method, "qdot_h"]
            err = abs(mp.mpf(current(params)) - ref.x) / abs(ref.x)
            if err > ref.r * u:
                misses.append(f"{params}: {float(err / u):.3g} u > "
                              f"{float(ref.r):.3g} u")
    assert not misses, misses


#: the normal-mode rows: omega_h / omega_c - 1 from near degeneracy to
#: well apart, in both node orders, and k from far below omega^2 to far
#: above it; lambda^2 enters only the secular margin, as a factor
NEAR, APART = (1e-9, 1e-6, 1e-3), (0.1, 0.5, 1.0, 3.0)
WEAK, MODERATE, STRONG = ((1e-12, 1e-9, 1e-6, 1e-3), (0.1, 1.0, 10.0),
                          (1e3, 1e5))
MODE_LAMBDA_SQ = 1e-3
#: outputs that read d = omega_h^2 - omega_c^2 beyond Omega_+-^2
MIXING = ("cos_sq", "sin_sq", "sin_cos", "splitting", "secular_margin")


def mode_points(detunings, couplings) -> list:
    return [(omega_c, omega_h, k) for delta in detunings
            for omega_c, omega_h in ((1.0, 1.0 + delta), (1.0 + delta, 1.0))
            for k in couplings]


@functools.lru_cache(maxsize=None)
def eigsy_modes(omega_c: float, omega_h: float, k: float) -> dict:
    """Every normal-mode output from mp.eigsy of the potential, at 40
    digits: Omega_+- are the square roots of its eigenvalues, as
    normal_modes returns them.  The + mode is the local vector (cos, -sin)
    (see model.rotation_matrix), so cos^2, sin^2 and sin cos are read off
    the larger eigenvalue's eigenvector, whose sign eigsy leaves open."""
    with mp.workdps(40):
        wc, wh, k = mp.mpf(omega_c), mp.mpf(omega_h), mp.mpf(k)
        e, q = mp.eigsy(mp.matrix([[wc**2 + k, -k], [-k, wh**2 + k]]))
        splitting = e[1] - e[0]
        return {"omega_plus": mp.sqrt(e[1]), "omega_minus": mp.sqrt(e[0]),
                "cos_sq": q[0, 1]**2, "sin_sq": q[1, 1]**2,
                "sin_cos": -q[0, 1] * q[1, 1], "splitting": splitting,
                "secular_margin": MODE_LAMBDA_SQ * mp.sqrt(2 * (wh**2 + wc**2))
                / splitting}


def stable_mode_bounds(omega_c: float, omega_h: float, k: float) -> dict:
    """Each output's rounding bound, in u, evaluated without cancellation
    (module docstring)."""
    wc, wh, k = (Rounded(v) for v in (omega_c, omega_h, k))
    d = (wh - wc) * (wh + wc)
    root = hypot(2.0 * k, d)
    sin_cos = k / root
    small = 2.0 * sin_cos * k / (root + abs(d))
    large = (root + abs(d)) / (2.0 * root)
    cos_sq, sin_sq = (small, large) if d.x > 0 else (large, small)
    plus_sq = 0.5 * (wc**2 + wh**2 + 2.0 * k + root)
    minus_sq = (wc**2 * wh**2 + k * (wc**2 + wh**2)) / plus_sq
    gap = root / sqrt(2.0 * (wh**2 + wc**2))
    return {"omega_plus": sqrt(plus_sq).r, "omega_minus": sqrt(minus_sq).r,
            "cos_sq": cos_sq.r, "sin_sq": sin_sq.r, "sin_cos": sin_cos.r,
            "splitting": root.r,
            "secular_margin": (Rounded(MODE_LAMBDA_SQ) / gap).r}


def library_modes(omega_c: float, omega_h: float, k: float) -> dict:
    params = WireParams(omega_c=omega_c, omega_h=omega_h, k=k, t_c=2.0,
                        t_h=3.0, lambda_sq=MODE_LAMBDA_SQ, cutoff=1e3)
    modes = normal_modes(params)
    return {"omega_plus": modes.omega_plus, "omega_minus": modes.omega_minus,
            "cos_sq": modes.cos_sq, "sin_sq": modes.sin_sq,
            "sin_cos": modes.sin_cos, "splitting": modes.splitting,
            "secular_margin": secular_validity_margin(params)}


D_CANCELS = pytest.mark.xfail(strict=True, reason=(
    "d = omega_h^2 - omega_c^2 is formed from two rounded squares "
    "(CHANGES.md FOUND: `model.normal_modes` forms d = ω_h² − ω_c² from "
    "two rounded squares); ROADMAP item 9 forms (omega_h - omega_c)"
    "(omega_h + omega_c)"))
MINUS_CANCELS = pytest.mark.xfail(strict=True, reason=(
    "Omega_-^2 = (tr - root)/2 cancels at k >> omega^2 (CHANGES.md "
    "FOUND: `model.normal_modes` forms Ω₋² = (tr − root)/2); ROADMAP item "
    "9 forms the product of the roots over Omega_+^2"))

NORMAL_MODE_ROWS = [
    pytest.param("omega_plus", mode_points(NEAR + APART,
                                           WEAK + MODERATE + STRONG),
                 id="omega_plus"),
    pytest.param("omega_minus", mode_points(NEAR + APART, WEAK + MODERATE),
                 id="omega_minus-weak_moderate"),
    pytest.param("omega_minus", mode_points(NEAR + APART, STRONG),
                 marks=MINUS_CANCELS, id="omega_minus-strong"),
    *(pytest.param(name, mode_points(APART, WEAK + MODERATE + STRONG)
                   + mode_points(NEAR, MODERATE + STRONG), id=name)
      for name in MIXING),
    *(pytest.param(name, mode_points(NEAR, WEAK), marks=D_CANCELS,
                   id=f"{name}-near_degenerate_weak")
      for name in MIXING),
]


@pytest.mark.parametrize("output, points", NORMAL_MODE_ROWS)
def test_normal_modes_within_their_rounding_bound(output, points):
    """The output at every point of the row lies within its
    cancellation-free rounding bound of the eigsy value."""
    u = mp.mpf(np.finfo(float).eps) / 2
    misses = []
    for point in points:
        ref = eigsy_modes(*point)[output]
        bound = stable_mode_bounds(*point)[output]
        err = abs(mp.mpf(library_modes(*point)[output]) - ref) / abs(ref)
        if err > bound * u:
            misses.append(f"(omega_c, omega_h, k)={point}: "
                          f"{float(err / u):.3g} u > {float(bound):.3g} u")
    assert not misses, misses


# ---------------------------------------------------------------------------
# the measures: node spectra and fidelity

#: mixes of the random states 1/2 + mix g g^T, from near pure to hot
RANDOM_MIXES = tuple(float(m) for m in np.geomspace(1e-8, 10.0, 19))


def random_states(seed: int = 11, per_mix: int = 8) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for mix in RANDOM_MIXES:
        for _ in range(per_mix):
            g = rng.normal(size=(4, 4))
            out.append(0.5 * np.eye(4) + mix * (g @ g.T))
    return out


def node_states(source: str) -> list:
    if source == "random":
        return random_states()
    return [gamma for _, gamma, _ in pool_states()
            if gaussian.StateStack([gamma]).physical[0]]


@pytest.mark.parametrize("source", ("pool", "random"))
def test_node_spectrum_within_its_rounding_bound(source):
    """Each node's symplectic eigenvalue, sqrt(x11 x22 - x12 x21) of its
    2x2 block, lies within its rounding bound of 50 digits of the same
    expression on the float block."""
    u = mp.mpf(np.finfo(float).eps) / 2
    misses = []
    with mp.workdps(DIGITS):
        for gamma in node_states(source):
            for block in (gamma[:2, :2], gamma[2:, 2:]):
                (x11, x12), (x21, x22) = block.tolist()
                ref = sqrt(Rounded(x11) * x22 - Rounded(x12) * x21)
                nu = gaussian._node_nu(x11, x12, x21, x22)
                err = abs(mp.mpf(nu) - ref.x) / ref.x
                if err > ref.r * u:
                    misses.append(f"{block.tolist()}: {float(err / u):.3g} u"
                                  f" > {float(ref.r):.3g} u")
    assert not misses, misses


def spectrum_errors(gamma: np.ndarray, u: float) -> list:
    """A bound on the absolute error of each symplectic eigenvalue that
    gaussian.symplectic_eigenvalues returns, first order in u.  Each of
    its three steps adds its own:

    - cholesky(2G) is exact for 2G + E with |E| <= 5u |L||L^T| (Higham,
      Accuracy and Stability of Numerical Algorithms, Thm 10.3, n + 1 =
      5).  The spectrum is monotone in G (Loewner order) and of degree
      one, so nu moves by at most eta nu, with eta = || |W| |E| |W| ||_2
      and W = (2G)^(-1/2);
    - the product (L^T J) L is exact in J and adds |F| <= 4u |L^T||J||L|;
    - eigvalsh is backward stable, |d lambda| <= p u ||H||_2 (LAPACK
      Users' Guide, 4.7), with p taken as n^2 = 16.
    The Hermitian matrix's eigenvalues are +-2 nu, so the last two halve.
    """
    low = np.linalg.cholesky(2.0 * gamma)
    w, v = np.linalg.eigh(2.0 * gamma)
    inv_sqrt = np.abs((v / np.sqrt(w)) @ v.T)
    eta = 5 * np.linalg.norm(inv_sqrt @ np.abs(low) @ np.abs(low.T)
                             @ inv_sqrt, 2)
    jj = np.abs(gaussian.SYMPLECTIC_FORM)
    product = 4 * np.linalg.norm(np.abs(low.T) @ jj @ np.abs(low), 2)
    nus = gaussian.symplectic_eigenvalues(gamma[None])[0]
    return [u * (nu * eta + (product + 16 * 2 * nus[0]) / 2) for nu in nus]


def det_error(m: np.ndarray, formed: np.ndarray, u: float) -> float:
    """A bound on the relative error of np.linalg.det of M, first order in
    u, where u formed bounds the error of M's entries as the library forms
    them.  LU with partial pivoting is exact for M + dM with |dM| <= 4u
    P|L||U| (Higham, Thm 9.3), and det M moves by det M sum (M^-1)_ji
    dM_ij.  numpy then takes det = sign exp(sum ln|U_ii|): each log to an
    ulp, their running sum to 3u of sum |ln|U_ii||, and the exp to an
    ulp."""
    perm, low, up = scipy.linalg.lu(m)
    backward = formed + 4 * perm @ np.abs(low) @ np.abs(up)
    logs = np.sum(np.abs(np.log(np.abs(np.diag(up)))))
    return u * (np.sum(np.abs(np.linalg.inv(m).T) * backward)
                + 5 * logs + 2)


def clamped_sqrt(x, err, u) -> tuple:
    """sqrt(max(x, 0)) and its error bound, given that the library's x is
    within err of it: |sqrt x' - sqrt x| <= min(err / sqrt x, sqrt err)
    holds also where x is near or below zero, and the root rounds once."""
    root = mp.sqrt(max(x, 0))
    spread = min(err / root, mp.sqrt(err)) if root > 0 else mp.sqrt(err)
    return root, spread + u * root


def lu_det(rows: list):
    """det of a square matrix of mp numbers, given as rows, by LU with
    partial pivoting at the working precision."""
    rows, det = [list(r) for r in rows], mp.mpf(1)
    for k in range(len(rows)):
        p = max(range(k, len(rows)), key=lambda i: abs(rows[i][k]))
        if p != k:
            rows[k], rows[p], det = rows[p], rows[k], -det
        det *= rows[k][k]
        for row in rows[k + 1:]:
            f = row[k] / rows[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], rows[k][k:])]
    return det


def mp_rows(m: np.ndarray) -> list:
    return [[mp.mpf(v) for v in row] for row in m.tolist()]


def half_ij_det(gamma: np.ndarray):
    """det(G + iJ/2) by a complex LU at 50 digits; it is real."""
    jj = gaussian.SYMPLECTIC_FORM.tolist()
    g = gamma.tolist()
    with mp.workdps(DIGITS):
        return mp.re(lu_det([[mp.mpc(g[i][j], jj[i][j] / 2)
                              for j in range(4)] for i in range(4)]))


def fidelity_twin(g1: np.ndarray, g2: np.ndarray) -> tuple:
    """(F, bound): F at 50 digits of the float states, its c from an mp
    complex LU of G + iJ/2 rather than from the spectrum, and a bound on
    the error of gaussian.fidelity, first order in u.  a and b carry
    det_error; c = 2^4 prod_k (nu_k - 1/2)(nu_k + 1/2) carries
    spectrum_errors through each factor and the roundings of its
    products; then every step of gaussian._fidelity adds its own."""
    u = np.finfo(float).eps / 2
    jj = gaussian.SYMPLECTIC_FORM
    j1, j2 = jj @ g1, jj @ g2
    m = j1 @ j2 - np.eye(4) / 4.0
    m_formed = 4 * np.abs(j1) @ np.abs(j2) + np.diag(np.abs(np.diag(m)))
    with mp.workdps(DIGITS):
        r1, r2 = mp_rows(g1), mp_rows(g2)
        a = lu_det([[x + y for x, y in zip(*rows)] for rows in zip(r1, r2)])
        # (J G1)(J G2) - 1/4; J G is exact in floats
        jr1, jr2 = mp_rows(j1), mp_rows(j2)
        b = 16 * lu_det([[mp.fsum(jr1[i][k] * jr2[k][j] for k in range(4))
                          - (0.25 if i == j else 0) for j in range(4)]
                         for i in range(4)])
        c = 16 * half_ij_det(g1) * half_ij_det(g2)
        err_a = abs(a) * det_error(g1 + g2, np.abs(g1 + g2), u)
        err_b = abs(b) * det_error(m, m_formed, u)
        nus = [mp.mpf(v) for g in (g1, g2)
               for v in gaussian.symplectic_eigenvalues(g[None])[0]]
        errs = spectrum_errors(g1, u) + spectrum_errors(g2, u)
        q = [(nu - 0.5) * (nu + 0.5) for nu in nus]
        q_err = [2 * nu * e + 3 * u * abs(f)
                 for nu, e, f in zip(nus, errs, q)]
        err_c = 16 * sum(q_err[k] * mp.fprod(abs(q[j]) + q_err[j]
                                             for j in range(4) if j != k)
                         for k in range(4)) + 3 * u * abs(c)
        root_b, err_rb = clamped_sqrt(b, err_b, u)
        root_c, err_rc = clamped_sqrt(c, err_c, u)
        x = root_b + root_c
        err_x = err_rb + err_rc + u * x
        y = x * x - a
        root_y, err_ry = clamped_sqrt(y, 2 * x * err_x + u * x * x + err_a
                                      + u * abs(y), u)
        num = x + root_y
        f = num / a
        return min(f, 1), (err_x + err_ry + u * num) / a \
            + num * err_a / a**2 + u * f


def fidelity_pairs(source: str) -> list:
    """(state, partner, the library's fidelity) of each physical pool
    state and its exact state, or of each state of a preset's 60-point
    sweep and the row's exact state; of fig2c only k >= 1e3, where both
    states are nearly pure and c is about 1e-26."""
    if source == "pool":
        return [(g, e, pair_fidelity(g, e)) for _, g, e in pool_states()
                if gaussian.StateStack([g, e]).physical.all()]
    name = source.split("-")[0]
    preset = dict(PRESETS[name])
    grid = parse_log_grid("{}:{}:60".format(*preset.pop("grid")))
    if name == "fig2c":
        grid = [k for k in grid if k >= 1e3]
    rows = sweep(WireParams(k=grid[0], **preset), "k", grid)
    return [(res.covariance, row.results[-1].covariance,
             row.metrics[res.method]["fidelity_to_exact"])
            for row in rows for res in row.results]


@pytest.mark.parametrize("source", ("fig1a", "fig1b", "fig2c-strong",
                                    "pool"))
def test_fidelity_within_its_rounding_bound(source):
    """Every fidelity lies within its derived bound of the 50-digit twin
    (fidelity_twin)."""
    misses = []
    for g1, g2, f in fidelity_pairs(source):
        ref, bound = fidelity_twin(g1, g2)
        if not abs(mp.mpf(f) - ref) <= bound:
            misses.append(f"F = {f!r}, twin {mp.nstr(ref, 17)}, bound "
                          f"{mp.nstr(bound, 3)}")
    assert not misses, misses


#: the moment-equation rows: the covariance grid at every third k, fig1b's
#: near-degenerate nodes on the same k, and resonant fig2c nodes up to
#: k = 1e5
MOMENT_POINTS = [WireParams(omega_c=1.0, omega_h=ratio, k=k, t_c=2.0,
                            t_h=3.0, lambda_sq=1e-3, cutoff=1e3)
                 for ratio in RATIOS + (math.sqrt(1.0 + 2e-6),)
                 for k in COUPLINGS[::3]] + [
    WireParams(omega_c=10.0, omega_h=10.0, k=k, t_c=1.0, t_h=2.0,
               lambda_sq=1e-3, cutoff=1e3) for k in (1e-3, 1.0, 1e3, 1e5)]
UPPER = [(i, j) for i in range(4) for j in range(i, 4)]


def lyapunov_twin(a: np.ndarray, d: np.ndarray):
    """The covariance G with A G + G A^T + D = 0, as a 4x4 mp matrix: the
    ten equations of its upper entries, built in mp from the float entries
    of A and D, solved by an mp LU."""
    a, d = mp_rows(a), mp_rows(d)
    slot = {ij: n for n, ij in enumerate(UPPER)}
    lhs, rhs = mp.matrix(10, 10), mp.matrix(10, 1)
    for r, (i, j) in enumerate(UPPER):
        for m in range(4):
            lhs[r, slot[min(m, j), max(m, j)]] += a[i][m]
            lhs[r, slot[min(i, m), max(i, m)]] += a[j][m]
        rhs[r] = -d[i][j]
    upper = mp.lu_solve(lhs, rhs)
    gamma = mp.matrix(4, 4)
    for n, (i, j) in enumerate(UPPER):
        gamma[i, j] = gamma[j, i] = upper[n]
    return gamma


def inf_norm(m):
    return max(sum(abs(x) for x in row) for row in m.tolist())


def kappa_inf(m: np.ndarray):
    """The condition number ||M|| ||M^-1|| in the max-row-sum norm of the
    library's float moment matrix, at the working precision."""
    exact = mp.matrix(mp_rows(m))
    return inf_norm(exact) * inf_norm(exact**-1)


def local_bound(m: np.ndarray, u):
    """A first-order bound on max|y - y'| / max|y'| of the local moment
    vector y that np.linalg.solve returns, against the exact solution y'
    of the same float entries.  Forming M adds at most one rounding per
    entry, |dM| <= u |M| (a sum of two drift entries of one sign; the
    weights are powers of two), and c = w d is exact.  LU with partial
    pivoting solves M + E with |E| <= 3n u |L||U|, n = 10 (Higham,
    Thm 9.4), and a perturbation dM moves y by at most
    kappa ||dM|| / ||M|| of ||y||."""
    _, low, up = scipy.linalg.lu(m)
    growth = (np.max(np.sum(np.abs(low) @ np.abs(up), axis=1))
              / np.max(np.sum(np.abs(m), axis=1)))
    return kappa_inf(m) * u * (1 + 30 * growth)


def global_bound(m: np.ndarray, rot: np.ndarray, twin, u):
    """An entrywise first-order bound on the global covariance, R G R^T
    in floats, against the twin R G' R^T rotated in mp, where G' solves
    the mode-basis moment equations of the float drift and diffusion.

    The closed form (occ + 1/2) / Omega and Omega (occ + 1/2) rounds
    twice, 2u |G'|.  The float drift entries -J / 2 Omega and -Omega^2
    are within 2u of their values at the float J, Omega and occ, so every
    entry of M is; the diffusion J (occ + 1/2) / Omega^2 is within 5u.
    These move G' by at most kappa (2u + 5u) of max|y'|, in any entry.
    The two float 4x4 products add 2 gamma_4 = 8u of |R||G'||R^T|."""
    y_norm = max(abs(w * twin[i, j]) for i, j, w in MOMENTS)
    spread = 7 * u * kappa_inf(m) * y_norm
    r_abs = mp.matrix(mp_rows(np.abs(rot)))
    twin_abs = mp.matrix([[abs(x) for x in row] for row in twin.tolist()])
    moved = mp.matrix([[2 * u * x + spread for x in row]
                       for row in twin_abs.tolist()])
    return r_abs * moved * r_abs.T + 8 * u * r_abs * twin_abs * r_abs.T


@pytest.mark.parametrize("method", ("local", "global"))
def test_state_within_its_moment_equation_bound(method):
    """The local and the global state against an mp LU of the ten moment
    equations of their own drift and diffusion, at 50 digits.  The local
    state is the float solve of those equations, held to max|y| times
    local_bound; the global state is a closed form rotated back to the
    local quadratures, held entry by entry to global_bound."""
    u = mp.mpf(np.finfo(float).eps) / 2
    misses = []
    with mp.workdps(DIGITS):
        for params in MOMENT_POINTS:
            if method == "local":
                a, d = lme_drift_diffusion(params)
                m, _ = moment_equations(a, d)
                twin = lyapunov_twin(a, d)
                y = [w * twin[i, j] for i, j, w in MOMENTS]
                y_lib = moments(lme_steady_state(params).covariance)
                err = (max(abs(mp.mpf(v) - t) for v, t in zip(y_lib, y))
                       / max(abs(t) for t in y))
                bound = local_bound(m, u)
            else:
                coeffs = gme_coefficients(params)
                a, d = gme_drift_diffusion(coeffs)
                rot = rotation_matrix(coeffs.modes)
                twin = lyapunov_twin(a, d)
                ref = mp.matrix(mp_rows(rot)) * twin * mp.matrix(
                    mp_rows(rot.T))
                bounds = global_bound(moment_equations(a, d)[0], rot, twin,
                                      u)
                gamma = gme_steady_state(params).covariance
                err, bound = max(
                    ((abs(mp.mpf(gamma[i, j]) - ref[i, j]), bounds[i, j])
                     for i in range(4) for j in range(4)),
                    key=lambda pair: pair[0] / pair[1])
            if not err <= bound:
                misses.append(f"{params}: {mp.nstr(err, 3)} > "
                              f"{mp.nstr(bound, 3)}")
    assert not misses, misses
