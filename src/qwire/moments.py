"""Second-moment equations of a linear two-mode GKLS equation.

A quadratic Hamiltonian with jump operators linear in the quadratures
closes the covariance dynamics, dGamma/dt = A Gamma + Gamma A^T + D: a
4x4 drift A and diffusion D define the equation completely.  For a damped
wire in WireParams' domain the ten equations are never singular.
"""

from __future__ import annotations

import numpy as np

#: y_r = w_r Gamma[i_r, j_r] as (i_r, j_r, w_r), quadratures (X_1, P_1,
#: X_2, P_2): <X1^2>, <P1^2>, <{X1,P1}>, <X2^2>, <P2^2>, <{X2,P2}>,
#: <X1 X2>, <P1 P2>, <X1 P2>, <X2 P1>
MOMENTS = ((0, 0, 1.0), (1, 1, 1.0), (0, 1, 2.0), (2, 2, 1.0), (3, 3, 1.0),
           (2, 3, 2.0), (0, 2, 1.0), (1, 3, 1.0), (0, 3, 1.0), (2, 1, 1.0))

_I, _J, _W = (np.array(v) for v in zip(*MOMENTS))
_SLOT = np.empty((4, 4), dtype=int)
_SLOT[_I, _J] = _SLOT[_J, _I] = np.arange(10)
# dy_r/dt = w_r sum_k (A_ik Gamma_kj + A_jk Gamma_ik) with (i, j, w_r) =
# MOMENTS[r]: both terms of each (r, k) as flat indices into M (target)
# and A (source); Gamma_kl = y_s / w_s with s = _SLOT[k, l] gives _RATIO
_R, _K = np.divmod(np.arange(40), 4)
_TARGET = np.concatenate([10 * _R + _SLOT[_K, _J[_R]],
                          10 * _R + _SLOT[_I[_R], _K]])
_SOURCE = np.concatenate([4 * _I[_R] + _K, 4 * _J[_R] + _K])
_RATIO = _W[:, None] / _W[None, :]


def moment_equations(a: np.ndarray, d: np.ndarray) -> tuple:
    """(M, c) of the ten moment equations dy/dt = M y + c."""
    m = np.bincount(_TARGET, a.ravel()[_SOURCE], minlength=100)
    return _RATIO * m.reshape(10, 10), _W * d[_I, _J]


def covariance(y: np.ndarray) -> np.ndarray:
    """The symmetric 4x4 covariance of the moment vector y."""
    return (y / _W)[_SLOT]

