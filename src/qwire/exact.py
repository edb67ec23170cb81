"""Exact steady state from the frequency-domain quantum Langevin equations.

Every covariance is a single integral over the real frequency axis of a
rational-times-coth kernel.  The integrand has resonances of width of
order lambda^2 near the (shifted) normal-mode frequencies, so the
adaptive quadrature is seeded with mandatory breakpoints there.  The
quadrature is the global-error adaptive Gauss-Kronrod scheme of QUADPACK
(Piessens et al., 1983) as quad_vec implements it, replayed in numpy; it
gives quad_vec's results bit for bit (see _replay).

Of the ten covariance integrands seven are integrated (_integrand_matrix):
the same-node X-P covariances <X_c P_c> and <X_h P_h> are +0.0, and
<X_c P_h> is 0.0 - <P_c X_h>, the integral of the negated integrand.

The replay runs a batch of parameter points in lockstep
(exact_steady_states), at most _WINDOW at once: each point keeps its own
heap, cache, rounds and termination tests, and each round evaluates the
21 nodes of the new subintervals of every running point together, in
kernel calls of at most _MAX_ROUND intervals.  Every operation on the
nodes is elementwise and rounds each node alike at any array length, so
a point gets the same bits in any batch; a single point is a batch of one.

Nothing here raises on a WireParams: a quadrature that does not converge
gives a result of NaNs with its reason and work in its diagnostics.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import WireParams, normal_modes
from .results import SteadyStateResult

#: upper-triangular element order of (X_c, P_c, X_h, P_h) used internally
_ELEMENTS = [(i, j) for i in range(4) for j in range(i, 4)]
#: the elements with a live integrand: all but the same-node X-P pairs
#: (0, 1) and (2, 3), exactly +0.0, and X_c P_h (0, 3), 0.0 - <P_c X_h>
_LIVE = [0, 2, 4, 5, 6, 7, 9]

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
                       + tuple(-x for x in reversed(_GK21_HALF)))[:, None]
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

#: replays that exact_steady_states runs at once: on a 2-vCPU x86-64 host,
#: preset sweeps took 0.92-0.96x the time of 6-point slices (10 of 10
#: alternated pairs); 12, 16 and 24 took as long or up to 16% longer
_WINDOW = 8

#: the tolerances of the covariance integrals, the most subintervals a
#: point may use, and the upper limit of the frequency axis in units of
#: the cutoff
_REL_TOL = 1e-9
_ABS_TOL = 1e-14
_LIMIT = 2000
_MAX_OMEGA_FACTOR = 100.0


class _Kernel(NamedTuple):
    """The constants of the integrands for a batch of points.

    A field is a float where every point of the batch has the same value
    and otherwise an array with one entry per point, so that a batch of
    one computes on floats alone.  Each entry is formed from its point's
    parameters in float arithmetic, so any batch rounds it alike.
    """

    cutoff: float
    lorentz: float      # lambda^2 cutoff^2
    cutoff_sq: float
    guard: float        # below it, the noise weight takes its w -> 0 limit
    shifted_c: float    # omega_c^2 + lambda^2 cutoff, the shifted frequency
    shifted_h: float
    k: float
    k_sq: float
    two_t_c: float
    two_t_h: float
    varies: bool = False   # some field is an array

    @classmethod
    def of(cls, points) -> "_Kernel":
        rows = [(p.cutoff, p.lambda_sq * p.cutoff**2, p.cutoff**2,
                 1e-8 * p.cutoff, p.omega_c**2 + p.lambda_sq * p.cutoff,
                 p.omega_h**2 + p.lambda_sq * p.cutoff, p.k, p.k**2,
                 2.0 * p.t_c, 2.0 * p.t_h) for p in points]
        # equal means equal bits: k = 0.0 and k = -0.0 round differently
        values = [column[0] if all(float(v).hex() == float(column[0]).hex()
                                   for v in column)
                  else np.array(column, dtype=float) for column in zip(*rows)]
        return cls(*values, varies=np.ndarray in map(type, values))

    def take(self, index) -> "_Kernel":
        """The constants of the points at index (an array of indices)."""
        return _Kernel(*(v[index] if isinstance(v, np.ndarray) else v
                         for v in self))


def _chi(omega, kernel: _Kernel):
    return kernel.lorentz / (kernel.cutoff - 1j * omega)


def _integrand_matrix(omega, kernel: _Kernel) -> np.ndarray:
    """The seven live covariance integrands (the elements _LIVE) at one
    frequency or an array of them.

    Gamma_ij = int_0^inf dw (1/pi) Re[f_i(w) f_j(-w) sum_a
               G_{m(i),a}(w) conj(G_{m(j),a}(w)) J(w) coth(w/2T_a)],

    G = A^-1, A(w) = [[wc~^2 - w^2 + k - chi, -k], [-k, wh~^2 - w^2 + k -
    chi]], f_i = 1 for a position and -i w for a momentum.  The same-node
    X-P integrands are Re[-i w |G_ma|^2 ...] of a real |G_ma|^2, zero:
    computed, they are w (x_i x_r - x_r x_i) terms, +-0.0 wherever the
    live ones are finite, and integrate to +0.0.  X_c P_h's, the negated
    P_c X_h one, is not formed either.

    The array fields of kernel are aligned with omega.  Every term is
    formed once, elementwise in a fixed order: complex divisions as
    numpy's, complex products in real arithmetic (numpy's may fuse
    multiply-adds, which round differently at different array lengths).
    So a batch of nodes, of one point or of many, gives the per-node
    values bit for bit.
    """
    omega = np.asarray(omega, dtype=float)
    nodes = omega.reshape(-1)   # a lone frequency is a batch of one node
    omega_sq = nodes**2
    chi = _chi(nodes, kernel)
    d_c = kernel.shifted_c - omega_sq + kernel.k - chi
    d_h = kernel.shifted_h - omega_sq + kernel.k - chi
    c_re, c_im, h_re, h_im = d_c.real, d_c.imag, d_h.real, d_h.imag
    det = np.asarray(c_re * h_re - c_im * h_im - kernel.k_sq, dtype=complex)
    det.imag = c_re * h_im + c_im * h_re
    g11, g22, g12 = d_h / det, d_c / det, kernel.k / det
    r11, i11, r12, i12 = g11.real, g11.imag, g12.real, g12.imag
    r22, i22 = g22.real, g22.imag
    # J(w) coth(w / 2T_a), with its w -> 0 limit 2 T_a J(w) / w
    lorentz = kernel.lorentz / (omega_sq + kernel.cutoff_sq)
    small = np.abs(nodes) < kernel.guard
    lorentz_omega = lorentz * nodes
    if small.any():
        w_c, w_h = (np.where(small, two_t * lorentz, lorentz_omega / np.tanh(
            np.where(small, 1.0, nodes / two_t)))
            for two_t in (kernel.two_t_c, kernel.two_t_h))
    else:
        w_c, w_h = (lorentz_omega / np.tanh(nodes / two_t)
                    for two_t in (kernel.two_t_c, kernel.two_t_h))
    # |G_ma|^2, and Re, Im of G_1a conj(G_2a), weighted by the baths a
    g11_sq = r11 * r11 + i11 * i11
    g12_sq = r12 * r12 + i12 * i12
    g22_sq = r22 * r22 + i22 * i22
    cross_im = (i11 * r12 - r11 * i12) * w_c + (i12 * r22 - r12 * i22) * w_h
    # rows of _LIVE: X_c X_c, X_c X_h, P_c P_c, P_c X_h, P_c P_h, X_h X_h,
    # P_h P_h
    out = np.empty((len(_LIVE), nodes.size))
    np.add(g11_sq * w_c, g12_sq * w_h, out=out[0])
    np.add((r11 * r12 + i11 * i12) * w_c, (r12 * r22 + i12 * i22) * w_h,
           out=out[1])
    np.add(g12_sq * w_c, g22_sq * w_h, out=out[5])
    np.multiply(nodes, cross_im, out=out[3])
    for xx, pp in ((0, 2), (1, 4), (5, 6)):
        np.multiply(omega_sq, out[xx], out=out[pp])
    out /= math.pi
    return out.reshape((len(_LIVE),) + omega.shape)


def _breakpoints(params: WireParams, max_omega: float) -> list:
    """Mandatory subdivision points: resonances, shifted bare lines, cutoff."""
    nm = normal_modes(params)
    shift = params.lambda_sq * params.cutoff
    pts = {nm.omega_plus, nm.omega_minus,
           math.sqrt(nm.omega_plus**2 + shift),
           math.sqrt(nm.omega_minus**2 + shift),
           math.sqrt(params.omega_c**2 + shift + params.k),
           math.sqrt(params.omega_h**2 + shift + params.k),
           params.cutoff}
    return sorted(p for p in pts if 0.0 < p < max_omega)


# w / 2T overflows far above a bath temperature (tanh(inf) = 1 is right);
# any other float fault fails the point, its error estimate inf or nan
@np.errstate(all="ignore")
def _gk21(a: np.ndarray, b: np.ndarray, kernel: _Kernel, owner) -> tuple:
    """GK21 integrals of the live integrands over n intervals [a, b].

    owner[i] is the index, in kernel's batch, of interval i's point.
    Evaluates the 21 nodes of every interval in one _integrand_matrix
    call.  Every sum adds node by node, in quad_vec's order, and the
    error shaping runs on Python floats, so each interval gets quad_vec's
    (integral, error, rounding error) bit for bit; the dead integrands
    would add only zeros, and X_c P_h's the negated P_c X_h sums.
    Returns an (n, 7) array and two float lists.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    if kernel.varies:
        kernel = kernel.take(np.tile(owner, len(_GK21_NODES)))
    f = _integrand_matrix((c + h * _GK21_NODES).ravel(), kernel)
    # axes: node, element, interval
    f = f.reshape(len(_LIVE), 21, len(a)).transpose(1, 0, 2)
    # the terms of s_k, s_k_abs and s_g (zero at the Kronrod-only nodes,
    # which leaves a sum that starts at +0.0 unchanged); numpy reduces an
    # outer axis row by row, so each sum is quad_vec's 0.0 + t_0 + t_1 ...
    terms = np.empty((21, 3) + f.shape[1:])
    np.multiply(_KRONROD, f, out=terms[:, 0])
    np.multiply(_KRONROD, np.abs(f), out=terms[:, 1])
    terms[::2, 2] = 0.0
    np.multiply(_GAUSS, f[1::2], out=terms[1::2, 2])
    s_k, s_k_abs, s_g = np.add.reduce(terms, axis=0, initial=0.0)
    dev = terms[:, 0]
    np.abs(np.subtract(f, s_k / 2.0, out=dev), out=dev)
    s_k_dabs = np.add.reduce(np.multiply(_KRONROD, dev, out=dev), axis=0,
                             initial=0.0)
    bounds = np.empty((3,) + s_k.shape)
    np.multiply(s_k - s_g, h, out=bounds[0])
    np.multiply(s_k_dabs, h, out=bounds[1])
    np.multiply(50 * sys.float_info.epsilon * h, s_k_abs, out=bounds[2])
    err, dabs, rounding = np.abs(bounds, out=bounds).max(axis=1).tolist()
    for i, (e, d, r) in enumerate(zip(err, dabs, rounding)):
        if d != 0 and e != 0:
            # min first: (200 e / d)**1.5 overflows for d tiny against e
            e = d * min(1.0, 200 * e / d)**1.5
        if r > sys.float_info.min:
            e = max(e, r)
        err[i] = e
    return (h * s_k).T, err, rounding


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

    @property
    def work(self) -> dict:
        return {"quadrature_error": self.error, "neval": self.neval,
                "subintervals": len(self.intervals)}


def _replay(params: WireParams):
    """quad_vec's adaptive GK21 scheme for the live integrands of one point
    on [0, max_omega], as a generator: it yields the lists (a, b) of the
    intervals it needs, is sent their (integrals, errors, rounding
    errors) from _gk21, and yields its _Quadrature last.

    This is quad_vec(f, 0, max_omega, epsabs, epsrel, limit, points,
    norm="max", full_output=True) step for step: the same heap of
    (-err, a, b), the same rounds of up to 128 intervals with the
    largest errors (a round stops once the popped errors exceed
    global_error - tol/8), the same cache of interval integrals, the
    same accumulation in pop order and the same termination tests.  It
    therefore returns quad_vec's values, error, status, neval and
    intervals bit for bit.  quad_vec's cache is an LRU dict that evicts
    beyond about 5e5 interval integrals; this one never does, which
    matters only for limits far beyond _LIMIT.  The tolerances and limits
    are the module constants _REL_TOL, _ABS_TOL, _LIMIT, _MAX_OMEGA_FACTOR.
    """
    max_omega = _MAX_OMEGA_FACTOR * params.cutoff
    edges = [0.0, *_breakpoints(params, max_omega), max_omega]
    igs, errs, roundings = yield edges[:-1], edges[1:]
    neval = 21 * len(igs)
    total = np.add.accumulate(igs)[-1]
    global_error, rounding = errs[0], roundings[0]
    for err, rnd in zip(errs[1:], roundings[1:]):
        global_error += err
        rounding += rnd
    cache = dict(zip(zip(edges, edges[1:]), igs))
    heap = [(-err, a, b) for err, a, b in zip(errs, edges, edges[1:])]
    heapq.heapify(heap)

    def tolerance():
        return max(_ABS_TOL, _REL_TOL * float(np.abs(total).max()))

    tol = tolerance()
    status = 1
    while heap and len(heap) < _LIMIT:
        popped = []
        err_sum = 0.0
        while heap and len(popped) < _MAX_ROUND and not (
                popped and err_sum > global_error - tol / 8):
            neg_err, a, b = heapq.heappop(heap)
            popped.append((-neg_err, a, 0.5 * (a + b), b,
                           cache.pop((a, b), None)))
            err_sum += -neg_err
        # both halves of every popped interval, then again each popped
        # interval that is not in the cache (a repeated degenerate one)
        lo, hi = [], []
        for _, a, c, b, _ in popped:
            lo += (a, c)
            hi += (c, b)
        for _, a, _, b, old in popped:
            if old is None:
                lo.append(a)
                hi.append(b)
        igs, errs, roundings = yield lo, hi
        neval += 21 * len(igs)
        m = len(popped)
        repeated = 2 * m
        olds = []
        for n, (old_err, a, c, b, old) in enumerate(popped):
            left, right = 2 * n, 2 * n + 1
            if old is None:
                old = igs[repeated]
                repeated += 1
            olds.append(old)
            global_error += errs[left] + errs[right] - old_err
            rounding += roundings[left] + roundings[right]
            for x1, x2, i in ((a, c, left), (c, b, right)):
                cache[x1, x2] = igs[i]
                heapq.heappush(heap, (-errs[i], x1, x2))
        # total + step_1 + step_2 + ..., one step per popped interval in
        # pop order, step_n = (left_n + right_n) - old_n
        steps = igs[0:2 * m:2] + igs[1:2 * m:2]
        steps -= olds
        steps[0] += total
        total = np.add.accumulate(steps)[-1]
        tol = tolerance()
        if len(heap) >= 2:
            if global_error < tol / 8:
                status = 0
                break
            if global_error < rounding:
                status = 2
                break
        if not (math.isfinite(global_error) and math.isfinite(rounding)):
            status = 3
            break
    values = np.zeros(len(_ELEMENTS))
    values[_LIVE] = total
    # X_c P_h, quad_vec's integral of the negated P_c X_h row: +0.0 at 0
    values[3] = 0.0 - values[5]
    yield _Quadrature(values, global_error + rounding, status, neval,
                      np.array([[a, b] for _, a, b in heap]))


def _steady_state(params: WireParams, quad: _Quadrature) -> SteadyStateResult:
    """The result of one point's quadrature: where it did not converge,
    a NaN covariance and currents, the reason in diagnostics["error"]."""
    gamma = np.full((4, 4), math.nan)
    diagnostics = quad.work
    if quad.success:
        for (i, j), v in zip(_ELEMENTS, quad.values):
            gamma[i, j] = gamma[j, i] = v
    else:
        diagnostics = {"error": "QuadratureError: covariance quadrature did "
                       f"not converge; error estimate {quad.error:.3g}",
                       **diagnostics}
    # the hot-bath current k<X_h P_c>, the same as -k<X_c P_h>
    qdot_h = params.k * gamma[1, 2]
    return SteadyStateResult("exact", gamma, (-qdot_h, qdot_h), diagnostics)


def exact_steady_states(points: list) -> list:
    """The exact steady state of every point, each bit for bit the one it
    gets alone; it never raises (see _steady_state).

    One _replay per point, at most _WINDOW of them running at once.  A
    round evaluates the intervals that the running points ask for in
    _gk21 calls of at most _MAX_ROUND intervals and sends each replay its
    slice of the results; a finished replay is dropped at once, and its
    _Quadrature turned into the point's result.
    """
    kernel = _Kernel.of(points) if points else None
    waiting = ((i, _replay(p)) for i, p in enumerate(points))
    running = dict(itertools.islice(waiting, _WINDOW))
    # a running point's request, then its result
    steps = [None] * len(points)
    while running:
        for i in running:   # a replay that has just started asks first
            steps[i] = steps[i] or next(running[i])
        lo = [a for i in running for a in steps[i][0]]
        hi = [b for i in running for b in steps[i][1]]
        owner = [i for i in running for _ in steps[i][0]]
        parts = [_gk21(np.array(lo[s:s + _MAX_ROUND]),
                       np.array(hi[s:s + _MAX_ROUND]), kernel,
                       owner[s:s + _MAX_ROUND])
                 for s in range(0, len(lo), _MAX_ROUND)]
        igs = np.concatenate([ig for ig, _, _ in parts])
        errs = [e for _, err, _ in parts for e in err]
        roundings = [r for _, _, rnd in parts for r in rnd]
        start = 0
        for i in list(running):
            cut = slice(start, start + len(steps[i][0]))
            steps[i] = running[i].send((igs[cut], errs[cut], roundings[cut]))
            start = cut.stop
            if isinstance(steps[i], _Quadrature):
                steps[i] = _steady_state(points[i], steps[i])
                del running[i]
                running.update(itertools.islice(waiting, 1))
    return steps


def exact_steady_state(params: WireParams) -> SteadyStateResult:
    """Exact non-equilibrium steady state (ground truth for this model)."""
    return exact_steady_states([params])[0]
