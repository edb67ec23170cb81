"""Partial Redfield solution against a full Fock-space oracle.

The oracle builds the complete near-degenerate master equation (secular
dissipators plus the retained cross channel between the two normal-mode
frequencies) in a truncated Fock space, extracts the closed dynamics of
all ten quadratic mode variables, and checks that the implemented
4-variable reduction is exact.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qwire import WireParams, decay_rate, occupation
from qwire.moments import stationary
from qwire.redfield import (redfield_covariance, redfield_steady_state,
                            redfield_system)
from qwire import gme_steady_state
from qwire import gaussian
from conftest import NEAR_DEGENERATE, WIDE_GAP, with_k
from oracles import destroy, dissipator_adjoint, embed, \
    extract_affine_dynamics

ORACLE_PARAMS = WireParams(1.0, 1.05, 0.12, 0.8, 1.6, 0.05, 50.0)


def full_mode_dynamics(params: WireParams, dims=(12, 12)) -> tuple:
    """(A, c) with dy/dt = A y + c for all ten quadratic mode variables.

    Variable order: n_+, n_-, d_+-, s_+-, then the six pair-creation
    combinations i(a+ a+ - h.c.), (a+ a+ + h.c.), same for the minus mode
    and for the +- pair.
    """
    system = redfield_system(params)
    modes = system.coeffs.modes
    om_p, om_m = modes.omega_plus, modes.omega_minus
    a_p = embed(destroy(dims[0]), 0, dims)
    a_m = embed(destroy(dims[1]), 1, dims)
    apd, amd = a_p.T.conj(), a_m.T.conj()
    h = om_p * (apd @ a_p) + om_m * (amd @ a_m)
    weight = {("c", "+"): math.cos(modes.theta),
              ("h", "+"): -math.sin(modes.theta),
              ("c", "-"): math.sin(modes.theta),
              ("h", "-"): math.cos(modes.theta)}
    jump = {}
    for alpha in ("c", "h"):
        jump[(alpha, "+")] = weight[(alpha, "+")] * a_p / math.sqrt(2 * om_p)
        jump[(alpha, "-")] = weight[(alpha, "-")] * a_m / math.sqrt(2 * om_m)

    def gen(o):
        out = 1j * (h @ o - o @ h)
        for alpha in ("c", "h"):
            t = params.temperature(alpha)
            lp, lm = jump[(alpha, "+")], jump[(alpha, "-")]
            lpd, lmd = lp.T.conj(), lm.T.conj()
            for sign, om in (("+", om_p), ("-", om_m)):
                out = out + decay_rate(om, t, params) \
                    * dissipator_adjoint(jump[(alpha, sign)], o)
                out = out + decay_rate(-om, t, params) \
                    * dissipator_adjoint(jump[(alpha, sign)].T.conj(), o)

            def g(w):
                return decay_rate(w, t, params)

            out = out + 0.5 * g(om_p) * (
                lmd @ o @ lp - o @ (lmd @ lp)
                + lpd @ o @ lm - (lpd @ lm) @ o)
            out = out + 0.5 * g(-om_p) * (
                lm @ o @ lpd - o @ (lm @ lpd)
                + lp @ o @ lmd - (lp @ lmd) @ o)
            out = out + 0.5 * g(om_m) * (
                lpd @ o @ lm - o @ (lpd @ lm)
                + lmd @ o @ lp - (lmd @ lp) @ o)
            out = out + 0.5 * g(-om_m) * (
                lp @ o @ lmd - o @ (lp @ lmd)
                + lm @ o @ lpd - (lm @ lpd) @ o)
        return out

    ops = [apd @ a_p, amd @ a_m,
           1j * (apd @ a_m - a_p @ amd), apd @ a_m + a_p @ amd,
           1j * (apd @ apd - a_p @ a_p), apd @ apd + a_p @ a_p,
           1j * (amd @ amd - a_m @ a_m), amd @ amd + a_m @ a_m,
           1j * (apd @ amd - a_p @ a_m), apd @ amd + a_p @ a_m]
    a_mat, c_vec, residual = extract_affine_dynamics(gen, ops, dims)
    assert residual < 1e-10
    return a_mat, c_vec


class TestFockOracle:
    def test_reduction_to_four_variables_is_exact(self):
        system = redfield_system(ORACLE_PARAMS)
        a_mat, c_vec = full_mode_dynamics(ORACLE_PARAMS)
        # the retained block neither feeds into nor reads from the six
        # pair-creation variables
        assert np.max(np.abs(a_mat[:4, 4:])) < 1e-12
        assert np.max(np.abs(a_mat[:4, :4] - system.b_matrix)) < 1e-12
        assert np.max(np.abs(c_vec[:4] - system.b_vector)) < 1e-12

    def test_pair_creation_averages_vanish_at_stationarity(self):
        a_mat, c_vec = full_mode_dynamics(ORACLE_PARAMS)
        y10 = np.linalg.solve(a_mat, -c_vec)
        assert np.max(np.abs(y10[4:])) < 1e-12
        system = redfield_system(ORACLE_PARAMS)
        y4, _ = stationary(system.b_matrix, system.b_vector)
        assert np.max(np.abs(y10[:4] - y4)) < 1e-10

    def test_time_integration_converges(self):
        a_mat, c_vec = full_mode_dynamics(ORACLE_PARAMS)
        y_inf = np.linalg.solve(a_mat, -c_vec)
        assert np.max(np.linalg.eigvals(a_mat).real) < 0.0
        y0 = np.concatenate([[2.0, 1.0, 0.5, -0.3], 0.4 * np.ones(6)])
        y_t = y_inf + expm(a_mat * 600.0) @ (y0 - y_inf)
        assert np.max(np.abs(y_t - y_inf)) < 1e-9


class TestSteadyState:
    def test_secular_limit_recovers_global_solution(self):
        params = with_k(WIDE_GAP, 0.1)
        red = redfield_steady_state(params)
        glob = gme_steady_state(params)
        scale = np.max(np.abs(glob.covariance))
        assert np.max(np.abs(red.covariance - glob.covariance)) < 1e-3 * scale
        assert red.qdot_h == pytest.approx(glob.qdot_h, rel=1e-3)

    def test_decoupled_equilibrium(self):
        p = WireParams(1.0, 2.0, 0.0, 2.0, 2.0, 1e-3, 1e3)
        res = redfield_steady_state(p)
        nc, nh = occupation(1.0, 2.0), occupation(2.0, 2.0)
        expected = np.diag([nc + .5, nc + .5, (nh + .5) / 2, 2 * (nh + .5)])
        assert np.allclose(res.covariance, expected, rtol=1e-10, atol=1e-12)
        assert res.qdot_h == pytest.approx(0.0, abs=1e-15)

    def test_nonsecular_covariances_appear(self):
        # in the breakdown regime the solution develops the
        # position-momentum cross covariances the global one lacks
        params = with_k(NEAR_DEGENERATE, 1e-3)
        red = redfield_steady_state(params)
        glob = gme_steady_state(params)
        assert glob.covariance[0, 3] == 0.0
        assert abs(red.covariance[0, 3]) > 1e-2
        # the two cross covariances are opposite up to the tiny normal-mode
        # frequency splitting at these parameters
        assert red.covariance[0, 3] == pytest.approx(-red.covariance[1, 2],
                                                     rel=1e-2)

    def test_physical_and_stationary(self):
        for params in (ORACLE_PARAMS, with_k(NEAR_DEGENERATE, 1e-4)):
            res = redfield_steady_state(params)
            assert gaussian.is_physical(res.covariance)
            assert res.diagnostics["residual"] < 1e-12

    def test_covariance_assembly_diagonal_blocks(self):
        system = redfield_system(ORACLE_PARAMS)
        y = np.array([0.7, 0.4, 0.0, 0.0])
        gamma = redfield_covariance(y, system)
        # with no cross-mode averages this reduces to the rotated
        # occupation-diagonal form: trace is basis independent
        om_p = system.coeffs.modes.omega_plus
        om_m = system.coeffs.modes.omega_minus
        expected_trace = ((0.5 + 0.7) * (om_p + 1 / om_p)
                          + (0.5 + 0.4) * (om_m + 1 / om_m))
        assert np.trace(gamma) == pytest.approx(expected_trace, rel=1e-12)
