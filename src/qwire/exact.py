"""Exact steady state from the frequency-domain quantum Langevin equations.

Every covariance is a single integral over the real frequency axis of a
rational-times-coth kernel.  The integrand has resonances of width of
order lambda^2 near the (shifted) normal-mode frequencies, so the
adaptive quadrature is seeded with mandatory breakpoints there.  Its
integrand is evaluated a round of subintervals at a time, and gives the
same bits as node-by-node evaluation (see _BatchedIntegrand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.integrate import quad_vec

from .model import WireParams, secular_validity_margin
from .results import SteadyStateResult

#: (node index, momentum flag) for each quadrature (X_c, P_c, X_h, P_h)
_NODE = (0, 0, 1, 1)
_IS_MOMENTUM = (False, True, False, True)

#: upper-triangular element order used internally
_ELEMENTS = [(i, j) for i in range(4) for j in range(i, 4)]

#: abscissae of the 21-point Gauss-Kronrod rule, quad_vec's rule on
#: finite intervals, with the same decimal digits as scipy's
_GK21_HALF = (0.995657163025808080735527280689003,
              0.973906528517171720077964012084452,
              0.930157491355708226001207180059508,
              0.865063366688984510732096688423493,
              0.780817726586416897063717578345042,
              0.679409568299024406234327365114874,
              0.562757134668604683339000099272694,
              0.433395394129247190799265943165784,
              0.294392862701460198131126603103866,
              0.148874338981631210884826001129720)
_GK21_NODES = np.array(_GK21_HALF + (0.0,)
                       + tuple(-x for x in reversed(_GK21_HALF)))


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits of the covariance integrals."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_omega_factor: float = 100.0   # upper limit in units of the cutoff
    limit: int = 2000                 # max number of subintervals

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_omega_factor <= 1:
            raise ValueError("max_omega must exceed the cutoff")


def shifted_frequency_sq(params: WireParams, node: str) -> float:
    """Bare frequency squared plus the bath-induced shift lambda^2 cutoff."""
    om = params.omega_c if node == "c" else params.omega_h
    return om**2 + params.lambda_sq * params.cutoff


def chi_hat(omega, params: WireParams):
    """Fourier-domain dissipation kernel lambda^2 cutoff^2 / (cutoff - i w).

    Its imaginary part equals the (odd) spectral density for all real w
    and its real part obeys the Kramers-Kronig relation.
    """
    return params.lambda_sq * params.cutoff**2 / (params.cutoff - 1j * np.asarray(omega))


def _response_inverse(omega, params: WireParams):
    """Inverse of the 2x2 response matrix, vectorized over omega.

    A(w) = [[wc~^2 - w^2 + k - chi, -k], [-k, wh~^2 - w^2 + k - chi]].
    Returns the three independent entries (inv11, inv22, inv12).
    """
    chi = chi_hat(omega, params)
    omega = np.asarray(omega, dtype=float)
    d_c = shifted_frequency_sq(params, "c") - omega**2 + params.k - chi
    d_h = shifted_frequency_sq(params, "h") - omega**2 + params.k - chi
    # d_c * d_h in real arithmetic: numpy's vectorized complex product may
    # fuse multiply-adds, which would round differently at different
    # array lengths
    det = np.asarray(d_c.real * d_h.real - d_c.imag * d_h.imag
                     - params.k**2, dtype=complex)
    det.imag = d_c.real * d_h.imag + d_c.imag * d_h.real
    return d_h / det, d_c / det, params.k / det


def _noise_weight(omega, params: WireParams, temperature: float):
    """J(w) coth(w / 2T) with the analytic w -> 0 limit substituted.

    The limit is 2 T lambda^2 cutoff^2 / (w^2 + cutoff^2).
    """
    omega = np.asarray(omega, dtype=float)
    lorentz = params.lambda_sq * params.cutoff**2 / (omega**2 + params.cutoff**2)
    guard = 1e-8 * params.cutoff
    small = np.abs(omega) < guard
    x = np.where(small, 1.0, omega / (2.0 * temperature))
    out = np.where(small, 2.0 * temperature * lorentz,
                   lorentz * omega / np.tanh(x))
    return out


def _times_conj(x, y) -> tuple:
    """Re and Im of x * conj(y), in real arithmetic (see _response_inverse)."""
    return x.real * y.real + x.imag * y.imag, x.imag * y.real - x.real * y.imag


def _integrand_matrix(omega, params: WireParams) -> np.ndarray:
    """All ten covariance integrands at one frequency or an array of them.

    Gamma_ij = int_0^inf dw (1/pi) Re[f_i(w) f_j(-w) sum_a
               G_{m(i),a}(w) conj(G_{m(j),a}(w)) J(w) coth(w/2T_a)].

    Every operation is elementwise and rounds the same way at any array
    length, so a batch of nodes gives the per-node values bit for bit.
    """
    inv11, inv22, inv12 = _response_inverse(omega, params)
    g = ((inv11, inv12), (inv12, inv22))
    w_c = _noise_weight(omega, params, params.t_c)
    w_h = _noise_weight(omega, params, params.t_h)
    omega = np.asarray(omega, dtype=float)
    corr = {}   # (m, n) -> Re, Im of sum_a G_{m,a} conj(G_{n,a}) J coth_a
    for m, n in ((0, 0), (0, 1), (1, 1)):
        re_c, im_c = _times_conj(g[m][0], g[n][0])
        re_h, im_h = _times_conj(g[m][1], g[n][1])
        corr[m, n] = re_c * w_c + re_h * w_h, im_c * w_c + im_h * w_h
    out = []
    for i, j in _ELEMENTS:
        re, im = corr[_NODE[i], _NODE[j]]
        # f_i(w) f_j(-w): positions contribute 1, momenta -i w and +i w
        if _IS_MOMENTUM[i] and _IS_MOMENTUM[j]:
            val = omega**2 * re
        elif _IS_MOMENTUM[i] != _IS_MOMENTUM[j]:
            sign = 1.0 if _IS_MOMENTUM[j] else -1.0
            val = sign * omega * (-im)
        else:
            val = re
        out.append(val / math.pi)
    return np.array(out)


def integrand_probe(omega: float, i: int, j: int,
                    params: WireParams) -> float:
    """Value of the half-line integrand of Gamma_ij at one frequency."""
    idx = _ELEMENTS.index((min(i, j), max(i, j)))
    return float(_integrand_matrix(float(omega), params)[idx])


def _breakpoints(params: WireParams, max_omega: float) -> list:
    """Mandatory subdivision points: resonances, shifted bare lines, cutoff."""
    from .model import normal_modes
    nm = normal_modes(params)
    shift = params.lambda_sq * params.cutoff
    pts = {nm.omega_plus, nm.omega_minus,
           math.sqrt(nm.omega_plus**2 + shift),
           math.sqrt(nm.omega_minus**2 + shift),
           math.sqrt(shifted_frequency_sq(params, "c") + params.k),
           math.sqrt(shifted_frequency_sq(params, "h") + params.k),
           params.cutoff}
    return sorted(p for p in pts if 0.0 < p < max_omega)


class _BatchedIntegrand:
    """The integrand of quad_vec, evaluated a whole round of nodes at once.

    quad_vec asks for one node at a time.  It hands each round of interval
    subdivisions to its `workers` map, so map() first computes the GK21
    nodes of every interval that round will integrate, exactly as
    quad_vec's rule does, and evaluates them in one _integrand_matrix
    call.  The nodes are then answered from the memo.  A node the memo
    lacks, e.g. after a change of quad_vec's private work-item layout, is
    evaluated on its own and counted in `misses`: slower, never different.
    """

    def __init__(self, params: WireParams):
        self.params = params
        self.memo: dict = {}
        self.misses = 0

    def __call__(self, omega: float) -> np.ndarray:
        try:
            return self.memo[omega]
        except KeyError:
            self.misses += 1
            return _integrand_matrix(omega, self.params)

    def prefill(self, intervals: list) -> None:
        """Evaluate the GK21 nodes c + h x_i of every (a, b) interval."""
        if not intervals:
            return
        a, b = np.array(intervals, dtype=float).T
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        nodes = (c[:, None] + h[:, None] * _GK21_NODES).ravel()
        values = np.ascontiguousarray(_integrand_matrix(nodes, self.params).T)
        self.memo.update(zip(nodes.tolist(), values))

    def map(self, func, items):
        """quad_vec's map over its (interval, f, norm, rule) work items.

        Prefills both halves of each interval, and the interval itself
        when quad_vec no longer holds its integral and recomputes it.
        """
        items = list(items)
        intervals = []
        try:
            for (_, a, b, old_int), *_ in items:
                c = 0.5 * (a + b)
                intervals += [(a, c), (c, b)]
                if old_int is None:
                    intervals.append((a, b))
        except (TypeError, ValueError):
            intervals = []   # unknown layout: every node falls back
        self.prefill(intervals)
        return map(func, items)


def _integrate(params: WireParams, spec: QuadratureSpec) -> tuple:
    """quad_vec of the ten integrands over [0, max_omega], batched.

    Returns quad_vec's (values, error, info) and the integrand object.
    """
    max_omega = spec.max_omega_factor * params.cutoff
    edges = [0.0, *_breakpoints(params, max_omega), max_omega]
    integrand = _BatchedIntegrand(params)
    integrand.prefill(list(zip(edges, edges[1:])))
    values, err, info = quad_vec(integrand, 0.0, max_omega,
                                 epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                                 limit=spec.limit, points=edges[1:-1],
                                 norm="max", workers=integrand.map,
                                 full_output=True)
    return values, err, info, integrand


def exact_covariance(params: WireParams,
                     spec: QuadratureSpec = QuadratureSpec()) -> tuple:
    """Stationary covariance matrix and quadrature error estimate."""
    values, err, info, _ = _integrate(params, spec)
    if not info.success:
        raise QuadratureError(
            f"covariance quadrature did not converge; error estimate {err:.3g}")
    gamma = np.zeros((4, 4))
    for (i, j), v in zip(_ELEMENTS, values):
        gamma[i, j] = gamma[j, i] = v
    return gamma, float(err)


def exact_heat_current(gamma: np.ndarray, k: float) -> tuple:
    """Stationary currents from the cross covariances of the bond.

    The energy flow from the hot node into the coupling bond is
    -k <X_c P_h> and the flow out of the bond into the cold node is
    k <X_h P_c>; at stationarity both equal the hot-bath current, so
    Qdot_h = (k/2)(Gamma_23 - Gamma_14) and Qdot_c = -Qdot_h.
    """
    qdot_h = 0.5 * k * (gamma[1, 2] - gamma[0, 3])
    return (-qdot_h, qdot_h)


def exact_steady_state(params: WireParams,
                       spec: QuadratureSpec = QuadratureSpec()) -> SteadyStateResult:
    """Exact non-equilibrium steady state (ground truth for this model)."""
    gamma, err = exact_covariance(params, spec)
    return SteadyStateResult(
        method="exact",
        covariance=gamma,
        heat_currents=exact_heat_current(gamma, params.k),
        diagnostics={"secular_margin": secular_validity_margin(params),
                     "quadrature_error": err},
    )
