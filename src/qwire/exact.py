"""Exact steady state from the frequency-domain quantum Langevin equations.

Every covariance is a single integral over the real frequency axis of a
rational-times-coth kernel.  The integrand has resonances of width of
order lambda^2 near the (shifted) normal-mode frequencies, so the
adaptive quadrature is seeded with mandatory breakpoints there.  The
quadrature is the global-error adaptive Gauss-Kronrod scheme of QUADPACK
(Piessens et al., 1983) as quad_vec implements it, replayed in numpy; it
gives quad_vec's results bit for bit (see _replay).

The replay runs a batch of parameter points in lockstep
(exact_steady_states): each point keeps its own heap, cache, rounds and
termination tests, and each round evaluates the 21 nodes of the new
subintervals of every live point together, in kernel calls of at most
_MAX_ROUND intervals.  A point gets the same bits in any batch; a single
point is a batch of one.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .model import WireParams, secular_validity_margin
from .results import SteadyStateResult

#: (node index, momentum flag) for each quadrature (X_c, P_c, X_h, P_h)
_NODE = (0, 0, 1, 1)
_IS_MOMENTUM = (False, True, False, True)

#: upper-triangular element order used internally
_ELEMENTS = [(i, j) for i in range(4) for j in range(i, 4)]

#: the 21-point Gauss-Kronrod rule that quad_vec applies on finite
#: intervals, with QUADPACK's decimal digits: abscissae, Kronrod weights,
#: and the weights of the embedded 10-point Gauss rule, whose nodes are
#: the odd-numbered abscissae
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
_KRONROD_HALF = (0.011694638867371874278064396062192,
                 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580,
                 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366,
                 0.109387158802297641899210590325805,
                 0.123491976262065851077958109831074,
                 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717,
                 0.147739104901338491374841515972068)
_KRONROD = np.array(_KRONROD_HALF + (0.149445554002916905664936468389821,)
                    + tuple(reversed(_KRONROD_HALF)))[:, None, None]
_GAUSS_HALF = (0.066671344308688137593568809893332,
               0.149451349150580593145776339657697,
               0.219086362515982043995534934228163,
               0.269266719309996355091226921569469,
               0.295524224714752870173892994651338)
_GAUSS = np.array(_GAUSS_HALF + tuple(reversed(_GAUSS_HALF)))[:, None, None]

#: quad_vec subdivides at most this many intervals per round; a kernel
#: call evaluates at most this many, which bounds its memory
_MAX_ROUND = 128


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


class _Kernel(NamedTuple):
    """The constants of the ten integrands for a batch of points.

    A field is a float where every point of the batch has the same value
    and otherwise an array with one entry per point, so that a batch of
    one computes on floats alone.  Each entry is formed from its point's
    parameters in float arithmetic, so any batch rounds it alike.
    """

    cutoff: float
    lorentz: float      # lambda^2 cutoff^2
    cutoff_sq: float
    guard: float        # below it, the noise weight takes its w -> 0 limit
    shifted_c: float    # shifted_frequency_sq(params, "c")
    shifted_h: float
    k: float
    k_sq: float
    two_t_c: float
    two_t_h: float

    @classmethod
    def of(cls, points) -> "_Kernel":
        columns = zip(*((p.cutoff, p.lambda_sq * p.cutoff**2, p.cutoff**2,
                         1e-8 * p.cutoff, shifted_frequency_sq(p, "c"),
                         shifted_frequency_sq(p, "h"), p.k, p.k**2,
                         2.0 * p.t_c, 2.0 * p.t_h) for p in points))
        # equal means equal bits: k = 0.0 and k = -0.0 round differently
        return cls(*(column[0] if len({float(v).hex() for v in column}) == 1
                     else np.array(column, dtype=float)
                     for column in columns))

    @property
    def varies(self) -> bool:
        return np.ndarray in map(type, self)

    def take(self, index) -> "_Kernel":
        """The constants of the points at index (an array of indices)."""
        return _Kernel(*(v[index] if isinstance(v, np.ndarray) else v
                         for v in self))


def _chi(omega, kernel: _Kernel):
    return kernel.lorentz / (kernel.cutoff - 1j * omega)


def chi_hat(omega, params: WireParams):
    """Fourier-domain dissipation kernel lambda^2 cutoff^2 / (cutoff - i w).

    Its imaginary part equals the (odd) spectral density for all real w
    and its real part obeys the Kramers-Kronig relation.
    """
    return _chi(np.asarray(omega), _Kernel.of([params]))


def _response_inverse(omega, kernel: _Kernel):
    """Inverse of the 2x2 response matrix, vectorized over omega.

    A(w) = [[wc~^2 - w^2 + k - chi, -k], [-k, wh~^2 - w^2 + k - chi]].
    Returns the three independent entries (inv11, inv22, inv12).
    """
    chi = _chi(omega, kernel)
    d_c = kernel.shifted_c - omega**2 + kernel.k - chi
    d_h = kernel.shifted_h - omega**2 + kernel.k - chi
    # d_c * d_h in real arithmetic: numpy's vectorized complex product may
    # fuse multiply-adds, which would round differently at different
    # array lengths
    det = np.asarray(d_c.real * d_h.real - d_c.imag * d_h.imag
                     - kernel.k_sq, dtype=complex)
    det.imag = d_c.real * d_h.imag + d_c.imag * d_h.real
    return d_h / det, d_c / det, kernel.k / det


def _noise_weight(omega, kernel: _Kernel, two_t):
    """J(w) coth(w / 2T) with the analytic w -> 0 limit substituted.

    The limit is 2 T lambda^2 cutoff^2 / (w^2 + cutoff^2).
    """
    lorentz = kernel.lorentz / (omega**2 + kernel.cutoff_sq)
    small = np.abs(omega) < kernel.guard
    x = np.where(small, 1.0, omega / two_t)
    out = np.where(small, two_t * lorentz, lorentz * omega / np.tanh(x))
    return out


def _times_conj(x, y) -> tuple:
    """Re and Im of x * conj(y), in real arithmetic (see _response_inverse)."""
    return x.real * y.real + x.imag * y.imag, x.imag * y.real - x.real * y.imag


def _integrand_matrix(omega, kernel: _Kernel) -> np.ndarray:
    """All ten covariance integrands at one frequency or an array of them.

    Gamma_ij = int_0^inf dw (1/pi) Re[f_i(w) f_j(-w) sum_a
               G_{m(i),a}(w) conj(G_{m(j),a}(w)) J(w) coth(w/2T_a)].

    The array fields of kernel are aligned with omega.  Every operation
    is elementwise and rounds the same way at any array length, so a
    batch of nodes, of one point or of many, gives the per-node values
    bit for bit.
    """
    omega = np.asarray(omega, dtype=float)
    inv11, inv22, inv12 = _response_inverse(omega, kernel)
    g = ((inv11, inv12), (inv12, inv22))
    w_c = _noise_weight(omega, kernel, kernel.two_t_c)
    w_h = _noise_weight(omega, kernel, kernel.two_t_h)
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


def _added_in_order(terms: np.ndarray) -> np.ndarray:
    """0.0 + terms[0] + terms[1] + ..., one term at a time, as quad_vec's
    loops add them; np.sum and @ would reorder the additions."""
    terms[0] += 0.0
    return np.add.accumulate(terms, axis=0)[-1]


def _gk21(a: np.ndarray, b: np.ndarray, kernel: _Kernel, owner) -> tuple:
    """GK21 integrals of the ten integrands over n intervals [a, b].

    owner[i] is the index, in kernel's batch, of interval i's point.
    Evaluates the 21 nodes of every interval in one _integrand_matrix
    call.  Every sum is accumulated node by node from 0.0, in quad_vec's
    order, and the error shaping is done on Python floats, so each
    interval gets quad_vec's (integral, error, rounding error) bit for
    bit.  Returns an (n, 10) array and two lists of n floats.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    if kernel.varies:
        kernel = kernel.take(np.tile(owner, len(_GK21_NODES)))
    f = _integrand_matrix((c + h * _GK21_NODES[:, None]).ravel(), kernel)
    # axes: node, element, interval
    f = f.reshape(10, 21, len(a)).transpose(1, 0, 2)
    s_k = _added_in_order(_KRONROD * f)
    s_k_abs = _added_in_order(_KRONROD * np.abs(f))
    s_g = _added_in_order(_GAUSS * f[1::2])
    s_k_dabs = _added_in_order(_KRONROD * np.abs(f - s_k / 2.0))
    err = np.abs((s_k - s_g) * h).max(axis=0).tolist()
    dabs = np.abs(s_k_dabs * h).max(axis=0).tolist()
    rounding = np.abs(50 * sys.float_info.epsilon * h * s_k_abs).max(
        axis=0).tolist()
    for i, (e, d, r) in enumerate(zip(err, dabs, rounding)):
        if d != 0 and e != 0:
            e = d * min(1.0, (200 * e / d)**1.5)
        if r > sys.float_info.min:
            e = max(e, r)
        err[i] = e
    return (h * s_k).T, err, rounding


def _evaluate(kernel: _Kernel, requests: list) -> list:
    """_gk21 over the intervals of every (point index, a, b) request, in
    calls of at most _MAX_ROUND intervals.  Returns, per request, its
    intervals' integrals (rows of an array, or a list of rows) and the
    lists of their errors and rounding errors."""
    lo, hi, owner = [], [], []
    for i, a, b in requests:
        lo += a
        hi += b
        owner += [i] * len(a)
    if len(requests) == 1 and len(lo) <= _MAX_ROUND:   # as _gk21 gives it
        return [_gk21(np.array(lo), np.array(hi), kernel, owner)]
    igs, errs, roundings = [], [], []
    for start in range(0, len(lo), _MAX_ROUND):
        part = slice(start, start + _MAX_ROUND)
        ig, err, rnd = _gk21(np.array(lo[part]), np.array(hi[part]), kernel,
                             owner[part])
        igs.extend(ig)
        errs += err
        roundings += rnd
    out, start = [], 0
    for _, a, _ in requests:
        part = slice(start, start + len(a))
        out.append((igs[part], errs[part], roundings[part]))
        start += len(a)
    return out


@dataclass(frozen=True)
class _Quadrature:
    """What quad_vec(..., full_output=True) reports of one integration."""

    values: np.ndarray
    error: float
    status: int          # 0 converged, 1 limit reached, 2 rounding, 3 NaN
    neval: int
    intervals: np.ndarray   # (n, 2), in heap order

    @property
    def success(self) -> bool:
        return self.status == 0


def _replay(params: WireParams, spec: QuadratureSpec):
    """quad_vec's adaptive GK21 scheme for the ten integrands of one point
    on [0, max_omega], as a generator: it yields the lists (a, b) of the
    intervals it needs, is sent their (integrals, errors, rounding
    errors) from _gk21, and returns its _Quadrature.

    This is quad_vec(f, 0, max_omega, epsabs, epsrel, limit, points,
    norm="max", full_output=True) step for step: the same heap of
    (-err, a, b), the same rounds of up to 128 intervals with the
    largest errors (a round stops once the popped errors exceed
    global_error - tol/8), the same cache of interval integrals, the
    same accumulation in pop order and the same termination tests.  It
    therefore returns quad_vec's values, error, status, neval and
    intervals bit for bit.  quad_vec's cache is an LRU dict that evicts
    beyond about 5e5 interval integrals; this one never does, which
    matters only for limits far beyond any spec in use.
    """
    max_omega = spec.max_omega_factor * params.cutoff
    edges = [0.0, *_breakpoints(params, max_omega), max_omega]
    igs, errs, roundings = yield edges[:-1], edges[1:]
    neval = 21 * len(igs)
    total = igs[0].copy()
    global_error, rounding = errs[0], roundings[0]
    for ig, err, rnd in zip(igs[1:], errs[1:], roundings[1:]):
        total += ig
        global_error += err
        rounding += rnd
    cache = dict(zip(zip(edges, edges[1:]), igs))
    heap = [(-err, a, b) for err, a, b in zip(errs, edges, edges[1:])]
    heapq.heapify(heap)

    def tolerance():
        return max(spec.abs_tol, spec.rel_tol * float(np.abs(total).max()))

    status = 1
    while heap and len(heap) < spec.limit:
        tol = tolerance()
        popped = []
        err_sum = 0.0
        while heap and len(popped) < _MAX_ROUND and not (
                popped and err_sum > global_error - tol / 8):
            neg_err, a, b = heapq.heappop(heap)
            popped.append((-neg_err, a, 0.5 * (a + b), b,
                           cache.pop((a, b), None)))
            err_sum += -neg_err
        lo, hi = [], []
        for _, a, c, b, old in popped:
            lo += (a, c)
            hi += (c, b)
            if old is None:   # a repeated degenerate interval
                lo.append(a)
                hi.append(b)
        igs, errs, roundings = yield lo, hi
        neval += 21 * len(igs)
        n = 0
        for old_err, a, c, b, old in popped:
            left, right = n, n + 1
            n += 2
            if old is None:
                old = igs[n]
                n += 1
            total += igs[left] + igs[right] - old
            global_error += errs[left] + errs[right] - old_err
            rounding += roundings[left] + roundings[right]
            for x1, x2, m in ((a, c, left), (c, b, right)):
                cache[x1, x2] = igs[m]
                heapq.heappush(heap, (-errs[m], x1, x2))
        if len(heap) >= 2:
            if global_error < tolerance() / 8:
                status = 0
                break
            if global_error < rounding:
                status = 2
                break
        if not (math.isfinite(global_error) and math.isfinite(rounding)):
            status = 3
            break
    return _Quadrature(total, global_error + rounding, status, neval,
                       np.array([[a, b] for _, a, b in heap]))


def _integrate_batch(points: list, spec: QuadratureSpec) -> list:
    """One _replay per point, run in lockstep rounds.

    Every point keeps its own heap, cache, rounds and termination tests;
    each round evaluates the intervals that all live points ask for
    together (see _evaluate), which is what saves the time.  Returns each
    point's _Quadrature, bit for bit the one it gets alone.
    """
    kernel = _Kernel.of(points)
    replays = [_replay(p, spec) for p in points]
    requests = [(i, *next(replay)) for i, replay in enumerate(replays)]
    out = [None] * len(points)
    while requests:
        asked = []
        for (i, _, _), result in zip(requests, _evaluate(kernel, requests)):
            try:
                asked.append((i, *replays[i].send(result)))
            except StopIteration as done:
                out[i] = done.value
        requests = asked
    return out


def _integrate(params: WireParams, spec: QuadratureSpec) -> _Quadrature:
    """quad_vec's adaptive GK21 scheme for one point: a batch of one."""
    return _integrate_batch([params], spec)[0]


def _covariance(quad: _Quadrature) -> np.ndarray:
    """The stationary covariance matrix of a converged quadrature."""
    if not quad.success:
        raise QuadratureError(
            "covariance quadrature did not converge; "
            f"error estimate {quad.error:.3g}")
    gamma = np.zeros((4, 4))
    for (i, j), v in zip(_ELEMENTS, quad.values):
        gamma[i, j] = gamma[j, i] = v
    return gamma


def exact_covariance(params: WireParams,
                     spec: QuadratureSpec = QuadratureSpec()) -> tuple:
    """Stationary covariance matrix and quadrature error estimate."""
    quad = _integrate(params, spec)
    return _covariance(quad), quad.error


def exact_heat_current(gamma: np.ndarray, k: float) -> tuple:
    """Stationary currents from the cross covariances of the bond.

    The energy flow from the hot node into the coupling bond is
    -k <X_c P_h> and the flow out of the bond into the cold node is
    k <X_h P_c>; at stationarity both equal the hot-bath current, so
    Qdot_h = (k/2)(Gamma_23 - Gamma_14) and Qdot_c = -Qdot_h.
    """
    qdot_h = 0.5 * k * (gamma[1, 2] - gamma[0, 3])
    return (-qdot_h, qdot_h)


def _steady_state(params: WireParams, quad: _Quadrature) -> SteadyStateResult:
    gamma = _covariance(quad)
    return SteadyStateResult(
        method="exact",
        covariance=gamma,
        heat_currents=exact_heat_current(gamma, params.k),
        diagnostics={"secular_margin": secular_validity_margin(params),
                     "quadrature_error": quad.error,
                     "neval": quad.neval,
                     "subintervals": len(quad.intervals)},
    )


def exact_steady_state(params: WireParams,
                       spec: QuadratureSpec = QuadratureSpec()) -> SteadyStateResult:
    """Exact non-equilibrium steady state (ground truth for this model)."""
    return _steady_state(params, _integrate(params, spec))


def exact_steady_states(points: list,
                        spec: QuadratureSpec = QuadratureSpec()) -> list:
    """exact_steady_state of every point, their quadratures run in
    lockstep (see _integrate_batch).  Where a quadrature fails, the list
    holds SteadyStateResult.failed for the QuadratureError that
    exact_steady_state raises there: NaN covariance and currents,
    diagnostics["error"] = "QuadratureError: ..." and the quadrature's
    quadrature_error, neval and subintervals."""
    out = []
    for params, quad in zip(points, _integrate_batch(points, spec)):
        try:
            out.append(_steady_state(params, quad))
        except QuadratureError as exc:
            out.append(SteadyStateResult.failed(
                "exact", exc, quadrature_error=quad.error, neval=quad.neval,
                subintervals=len(quad.intervals)))
    return out
