"""Partial Redfield solution against a full Fock-space oracle.

The oracle builds the complete near-degenerate master equation (secular
dissipators plus the retained cross channel between the two normal-mode
frequencies) in a truncated Fock space, extracts the closed dynamics of
all ten quadratic mode variables, and checks that they reduce to the
four-variable system whose closed form the implementation evaluates.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from qwire import (WireParams, exact_steady_state, gme_heat_currents,
                   gme_steady_state, normal_modes, occupation,
                   rotation_matrix, spectral_density)
from qwire.gme import gme_coefficients, gme_normal_mode_covariance
from qwire.redfield import redfield_steady_state
from qwire import gaussian
from conftest import (NEAR_DEGENERATE, RESONANT_STRONG, WIDE_GAP, swapped,
                      with_k)
from oracles import decay_rate, destroy, dissipator_adjoint, embed, \
    extract_affine_dynamics, mode_rates

ORACLE_PARAMS = WireParams(1.0, 1.05, 0.12, 0.8, 1.6, 0.05, 50.0)


def closed_form_system(params: WireParams) -> tuple:
    """(B, b) of dy/dt = B y + b, y = (n_+, n_-, d_+-, s_+-), as the
    closed form states it: no occupation-coherence coupling, the
    [[kappa, -delta], [delta, kappa]] coherence block and the drive b_4,
    with each mode's drift Delta_s = sum_a W^a_{-Omega_s} - W^a_{+Omega_s}
    and source W_{-Omega_s} from the oracle's GKLS rates."""
    modes = normal_modes(params)
    om_p, om_m = modes.omega_plus, modes.omega_minus
    rates = mode_rates(params, modes)
    delta_p, delta_m = (sum(rates[a, s][0] - rates[a, s][1] for a in "ch")
                        for s in "+-")
    kappa, delta = 0.5 * (delta_p + delta_m), om_p - om_m
    bias = sum(spectral_density(om, params)
               * (occupation(om, params.t_h) - occupation(om, params.t_c))
               for om in (om_p, om_m))
    b_mat = np.array([[delta_p, 0.0, 0.0, 0.0], [0.0, delta_m, 0.0, 0.0],
                      [0.0, 0.0, kappa, -delta], [0.0, 0.0, delta, kappa]])
    b_vec = np.array([sum(rates[a, "+"][0] for a in "ch"),
                      sum(rates[a, "-"][0] for a in "ch"), 0.0,
                      -modes.sin_cos * bias / math.sqrt(om_p * om_m)])
    return b_mat, b_vec


def redfield_averages(params: WireParams) -> np.ndarray:
    """(n_+, n_-, d_+-, s_+-) read back from the Redfield covariance by
    inverting its normal-mode assembly."""
    modes = normal_modes(params)
    om_p, om_m = modes.omega_plus, modes.omega_minus
    rot = rotation_matrix(modes)
    g_nm = rot.T @ redfield_steady_state(params).covariance @ rot
    return np.array([g_nm[1, 1] / om_p - 0.5, g_nm[3, 3] / om_m - 0.5,
                     2.0 * g_nm[0, 3] / math.sqrt(om_p / om_m),
                     2.0 * math.sqrt(om_p * om_m) * g_nm[0, 2]])


def full_mode_dynamics(params: WireParams, dims=(12, 12)) -> tuple:
    """(A, c) with dy/dt = A y + c for all ten quadratic mode variables.

    Variable order: n_+, n_-, d_+-, s_+-, then the six pair-creation
    combinations i(a+ a+ - h.c.), (a+ a+ + h.c.), same for the minus mode
    and for the +- pair.
    """
    modes = normal_modes(params)
    om_p, om_m = modes.omega_plus, modes.omega_minus
    a_p = embed(destroy(dims[0]), 0, dims)
    a_m = embed(destroy(dims[1]), 1, dims)
    apd, amd = a_p.T.conj(), a_m.T.conj()
    h = om_p * (apd @ a_p) + om_m * (amd @ a_m)
    c, s = math.sqrt(modes.cos_sq), math.sqrt(modes.sin_sq)
    weight = {("c", "+"): c, ("h", "+"): -s, ("c", "-"): s, ("h", "-"): c}
    jump = {}
    for alpha in ("c", "h"):
        jump[(alpha, "+")] = weight[(alpha, "+")] * a_p / math.sqrt(2 * om_p)
        jump[(alpha, "-")] = weight[(alpha, "-")] * a_m / math.sqrt(2 * om_m)

    def gen(o):
        out = 1j * (h @ o - o @ h)
        for alpha in ("c", "h"):
            t = params.t_c if alpha == "c" else params.t_h
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
        b_mat, b_vec = closed_form_system(ORACLE_PARAMS)
        a_mat, c_vec = full_mode_dynamics(ORACLE_PARAMS)
        # the retained block neither feeds into nor reads from the six
        # pair-creation variables
        assert np.max(np.abs(a_mat[:4, 4:])) < 1e-12
        # the occupations do not read the cross-mode averages: the mixed
        # drift of the two baths cancels
        assert np.max(np.abs(a_mat[:2, 2:4])) < 1e-12
        assert np.max(np.abs(a_mat[:4, :4] - b_mat)) < 1e-12
        assert np.max(np.abs(c_vec[:4] - b_vec)) < 1e-12

    def test_pair_creation_averages_vanish_at_stationarity(self):
        a_mat, c_vec = full_mode_dynamics(ORACLE_PARAMS)
        y10 = np.linalg.solve(a_mat, -c_vec)
        assert np.max(np.abs(y10[4:])) < 1e-12
        y4 = redfield_averages(ORACLE_PARAMS)
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
        """The state is physical, and its four averages solve the oracle's
        four-variable system to 1e-12 of its source, max|b|."""
        for params in (ORACLE_PARAMS, with_k(NEAR_DEGENERATE, 1e-4)):
            res = redfield_steady_state(params)
            assert gaussian.StateStack([res.covariance]).physical[0]
            b_mat, b_vec = closed_form_system(params)
            residual = b_mat @ redfield_averages(params) + b_vec
            assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(b_vec))

    def test_covariance_assembly_diagonal_blocks(self):
        # the normal-mode diagonal is the global one, and the trace, which
        # is basis independent, is that of the occupations W_-s / (-Delta_s)
        coeffs = gme_coefficients(ORACLE_PARAMS)
        rot = rotation_matrix(coeffs.modes)
        gamma = redfield_steady_state(ORACLE_PARAMS).covariance
        g_nm = rot.T @ gamma @ rot
        expected = np.diag(gme_normal_mode_covariance(coeffs))
        assert np.allclose(np.diag(g_nm), expected, rtol=1e-12, atol=0.0)
        b_mat, b_vec = closed_form_system(ORACLE_PARAMS)
        n_p, n_m = -b_vec[:2] / np.diag(b_mat)[:2]
        om_p, om_m = coeffs.modes.omega_plus, coeffs.modes.omega_minus
        expected_trace = ((0.5 + n_p) * (om_p + 1 / om_p)
                          + (0.5 + n_m) * (om_m + 1 / om_m))
        assert np.trace(gamma) == pytest.approx(expected_trace, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "the cross covariances are time-reversed (CHANGES.md FOUND: "
        "Redfield cross covariances); the fix changes frozen benchmark "
        "cells and waits for their re-freeze"))
    def test_cross_covariances_match_exact_near_degenerate(self):
        params = with_k(NEAR_DEGENERATE, 1e-3)
        red = redfield_steady_state(params).covariance
        exact = exact_steady_state(params).covariance
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(red - exact)) < 1e-2 * scale


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def wires(draw) -> WireParams:
    """Wide-gap, near-degenerate and exactly resonant nodes over decades of
    k, T/omega and lambda^2."""
    omega_h = draw(st.sampled_from((2.0, math.sqrt(1.0 + 2e-6), 1.0)))
    return WireParams(omega_c=1.0, omega_h=omega_h,
                      k=draw(_log_uniform(1e-12, 1e5)),
                      t_c=draw(_log_uniform(1e-3, 1e2)),
                      t_h=omega_h * draw(_log_uniform(1e-3, 1e2)),
                      lambda_sq=draw(_log_uniform(1e-6, 1e-1)),
                      cutoff=1e3)


class TestHeatCurrents:
    def test_k_squared_scaling_at_weak_coupling(self):
        """Q/k^2 reaches its weak-coupling limit as O(k) in both node
        orders, and at exactly resonant nodes, where the splitting
        delta ~ k sits far below the damping kappa."""
        for params in (WIDE_GAP, swapped(WIDE_GAP), RESONANT_STRONG):
            limit = redfield_steady_state(with_k(params, 1e-12)).qdot_h
            limit /= 1e-24
            assert abs(limit) > 1e-4
            for k in (1e-8, 1e-10):
                q_h = redfield_steady_state(with_k(params, k)).qdot_h
                assert q_h / k**2 == pytest.approx(limit, rel=1e-9)

    @given(wires())
    @example(with_k(WIDE_GAP, 1e-9))
    @settings(max_examples=300, deadline=None)
    def test_balance_antisymmetry_and_second_law(self, params):
        q_glob = gme_heat_currents(params)
        q_red = redfield_steady_state(params).heat_currents
        other = swapped(params)
        for q, q_sw in ((q_glob, gme_heat_currents(other)),
                        (q_red, redfield_steady_state(other).heat_currents)):
            assert q[0] == -q[1]
            assert q_sw[1] == pytest.approx(-q[1], rel=1e-12, abs=0.0)
        if params.t_h > params.t_c:
            assert 0.0 <= q_red[1] <= q_glob[1]
