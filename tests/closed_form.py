"""The exact steady state in closed form, numpy only and vectorised
over points: the complex digamma, the stable poles of the Langevin
integrands and the covariance as a sum over those poles.

Both baths share lambda^2 and the cutoff Lambda, so the response of
normal mode s has the denominator
D_s(w) = (K_s - w^2)(Lambda - i w) - lambda^2 Lambda^2 with
K_s = Omega_s^2 + lambda^2 Lambda.  Its three zeros lie in the lower half
plane, and each weights a digamma psi(1 + i p / (2 pi T)) in the pole sum
of the covariance (tests/oracles.py::exact_covariance_mpmath writes the
same sum in mpmath, in the local basis).  The pieces live here, beside
their tests, until the exact solver is rewritten on them.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from qwire import normal_modes

EPS = sys.float_info.epsilon

#: B_2n / (2n) for n = 1..7, the terms of psi's asymptotic series; the
#: first term left out, -0.44 / z^16 (B_16 / 16 = -0.44), is below 5e-17
#: at |z| > 10
_BERNOULLI = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760,
              1 / 12)

#: Newton's method on the real pole takes 2 to 9 steps at the benchmark
#: pool's modes.  Far out in the domain (three real poles) it can take
#: tens, and a few points stall on rounding just above the stopping test
#: with poles still within a few eps; the cap ends those
_MAX_NEWTON = 60


def digamma(z):
    """psi(z) for complex z with Re z > 0, elementwise.

    The recurrence psi(z) = psi(z + 1) - 1/z lifts Re z above 10, where
    psi(z) = ln z - r/2 - sum_n B_2n / (2n) r^2n to seven terms, r = 1/z,
    which does not overflow at any finite z.
    """
    z = np.array(z, dtype=complex)
    shift = np.zeros_like(z)
    low = z.real <= 10.0
    while low.any():
        shift[low] -= 1.0 / z[low]
        z[low] += 1.0
        low = z.real <= 10.0
    r = 1.0 / z
    w = r * r
    series = np.zeros_like(z)
    for b in reversed(_BERNOULLI):
        series = (series + b) * w
    return shift + np.log(z) - 0.5 * r - series


def pole_digamma(p, scaled):
    """psi(1 + i p / scaled) for poles p (Im p < 0) and scaled = 2 pi T,
    broadcast.  Where i p / scaled would overflow (T far below |p|), the 1
    and the series are far below its rounding: psi is ln(i p) - ln scaled.
    """
    p, scaled = np.broadcast_arrays(p, scaled)
    far = np.abs(p) * 1e-300 > scaled
    out = np.empty(p.shape, dtype=complex)
    out[far] = np.log(1j * p[far]) - np.log(scaled[far])
    out[~far] = digamma(1.0 + 1j * p[~far] / scaled[~far])
    return out


def poles(omega_sq, lambda_sq, cutoff) -> np.ndarray:
    """The three zeros p of D_s(w), all with Im p < 0, elementwise over
    broadcast arrays of Omega_s^2, lambda^2 and Lambda: an array of shape
    (..., 3), the pole -i(Lambda - e) on the imaginary axis first.

    With w = -i z, D_s = 0 is the cubic z^3 - Lambda z^2 + K_s z -
    Lambda Omega_s^2 = 0, whose roots have Re z > 0.  Its real root is
    z_1 = t = Lambda - e with e (t^2 + K_s) = lambda^2 Lambda^2, solved by
    Newton's method from e = lambda^2 Lambda^2 / (Lambda^2 + K_s), a lower
    bound, and t = Lambda (Lambda^2 + Omega_s^2) / (Lambda^2 + K_s), the
    same start without a difference.  e and t move by the same step, and
    the residual is formed so that the smaller of them keeps its relative
    accuracy: as above while e <= t (weak damping, e close to lambda^2),
    and as e t^2 - t K_s + Lambda Omega_s^2, the same function, while
    t < e (strong damping, t close to Omega_s^2 / lambda^2).  A point
    stops at its own last step, so its poles do not depend on the stack.

    The other two roots have the sum e and, by Vieta, the product
    c = Lambda Omega_s^2 / t, which equals K_s - e t without its
    cancellation.  So they are e/2 +- i sqrt(c - e^2/4) when c >= e^2/4,
    and else the real pair e/2 + sqrt(e^2/4 - c) and c over it.
    """
    omega_sq, lambda_sq, cutoff = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (omega_sq, lambda_sq, cutoff)))
    k_s = omega_sq + lambda_sq * cutoff
    drive = lambda_sq * cutoff**2
    e = drive / (cutoff**2 + k_s)
    t = cutoff * (cutoff**2 + omega_sq) / (cutoff**2 + k_s)
    active = np.ones(e.shape, dtype=bool)
    for _ in range(_MAX_NEWTON):
        residual = np.where(e <= t, e * (t * t + k_s) - drive,
                            e * t * t - t * k_s + cutoff * omega_sq)
        step = np.where(active, residual / (t * t + k_s - 2.0 * e * t), 0.0)
        e, t = e - step, t + step
        active &= np.abs(step) > EPS * np.minimum(e, t)
        if not active.any():
            break
    c = cutoff * omega_sq / t
    q = c - e * e / 4.0
    y = np.sqrt(np.abs(q))
    under = q >= 0.0
    fast = e / 2.0 + y
    return np.stack([-1j * t, np.where(under, y - 0.5j * e, -1j * fast),
                     np.where(under, -y - 0.5j * e, -1j * c / fast)],
                    axis=-1)


def covariance(points) -> np.ndarray:
    """The exact covariances at a sequence of WireParams, shape (m, 4, 4)
    in the order (X_c, P_c, X_h, P_h).

    With the mode projectors u_s u_s^T of the potential (normal_modes),
    the response is G(w) = sum_s u_s u_s^T g_s(w), g_s = (Lambda - i w) /
    D_s(w), and J(w) g_s(w) g_s'(-w) = l w / (D_s(w) D_s'(-w)) with
    l = lambda^2 Lambda^2.  So bath a adds to Gamma_ij

        sum_{s, s'} (u_s u_s^T)_ia (u_s' u_s'^T)_ja
            (1/2pi) int f_i(w) f_j(-w) l w coth(w / 2T_a)
                        / (D_s(w) D_s'(-w)) dw,

    f = 1 for a position and -i w for a momentum.  D_s(w) D_s'(-w) =
    prod (w - q) over the six poles q: the zeros p of D_s and the
    negatives of the zeros p' of D_s'.  With the residues
    c_q = f_i(q) f_j(-q) l q / prod_{r != q} (q - r), the integral is
    sum_q c_q [2 pi i T s_q / q - 2 psi(1 - i s_q q / (2 pi T))],
    s_q = sign Im q, and the bracket is B(p) = -2 pi i T / p -
    2 psi(1 + i p / (2 pi T)) both at q = p and at q = -p'.
    """
    modes = [normal_modes(params) for params in points]
    lam_sq = np.array([params.lambda_sq for params in points])
    cut = np.array([params.cutoff for params in points])
    temps = np.array([(params.t_c, params.t_h) for params in points])
    omega_sq = np.array([(m.omega_plus**2, m.omega_minus**2)
                         for m in modes])
    # u_s u_s^T per point and mode, (m, 2, 2, 2): the + mode weighs node c
    # with cos^2 theta and the - mode with sin^2 theta
    proj = np.array([[[[m.cos_sq, -m.sin_cos], [-m.sin_cos, m.sin_sq]],
                      [[m.sin_sq, m.sin_cos], [m.sin_cos, m.cos_sq]]]
                     for m in modes])
    p = poles(omega_sq, lam_sq[:, None], cut[:, None])  # (m, s, 3)
    scaled = 2 * math.pi * temps[:, None, None, :]  # (m, 1, 1, a)
    brackets = -1j * scaled / p[..., None] - 2.0 * pole_digamma(p[..., None],
                                                                scaled)
    # the six poles of each mode pair (s, s'), (m, s, s', 6), with the
    # bracket of each, (m, s, s', 6, a)
    q = np.concatenate(np.broadcast_arrays(p[:, :, None, :],
                                           -p[:, None, :, :]), axis=-1)
    b = np.concatenate(np.broadcast_arrays(brackets[:, :, None],
                                           brackets[:, None, :]), axis=-2)
    diff = q[..., :, None] - q[..., None, :]
    diff[..., range(6), range(6)] = 1.0
    c = (lam_sq * cut**2)[:, None, None, None] * q / diff.prod(axis=-1)
    # f_i(q) f_j(-q) for the kinds (position, momentum) of i and j
    factors = np.stack([np.ones_like(q), 1j * q, -1j * q, q * q], axis=-1)
    sums = np.einsum("nstq,nstqk,nstqa->nstka", c, factors, b)
    # sum over s and s' of the projector weights, then over the baths a:
    # where the modes are degenerate, a bath's share in the other node is
    # +-x terms that cancel exactly, so a hot bath cannot swamp the cold
    # node's own share by its rounding.  (m, i, j, kinds)
    nodes = np.einsum("nsia,ntja,nstka->nijka", proj, proj,
                      sums).real.sum(axis=-1)
    gamma = (nodes.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
             .reshape(-1, 4, 4)) / (2 * math.pi)
    return (gamma + gamma.transpose(0, 2, 1)) / 2
