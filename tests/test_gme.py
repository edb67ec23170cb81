"""Global GKLS solution against Fock-space and symbolic oracles."""

import math

import numpy as np
import pytest

from qwire import WireParams, normal_modes, occupation
from qwire.gme import (GmeCoefficients, gme_coefficients,
                       gme_drift_diffusion, gme_heat_currents,
                       gme_heat_currents_from_state,
                       gme_normal_mode_covariance, gme_steady_state)
from qwire.moments import moment_equations, moments
from qwire import gaussian
from conftest import WIDE_GAP, with_k
from oracles import (destroy, dissipator_adjoint, extract_affine_dynamics,
                     quadratures)

OFF_RESONANT = WireParams(1.0, 1.3, 0.4, 0.8, 1.6, 0.05, 50.0)


def implementation_dynamics_blocks(coeffs: GmeCoefficients) -> dict:
    """Per-mode (M, c) of the implemented moment equations.

    The same-mode moments (0, 1, 2) and (3, 4, 5) must not read the
    cross-mode moments 6-9.
    """
    m, c = moment_equations(*gme_drift_diffusion(coeffs))
    assert np.all(m[:6, 6:] == 0.0)
    return {sign: (m[np.ix_(idx, idx)], c[list(idx)])
            for sign, idx in (("+", (0, 1, 2)), ("-", (3, 4, 5)))}


class TestGeneratorOracle:
    def test_moment_equations_match_lindblad_generator(self):
        """Each normal mode is an independently damped oscillator; its
        moment equations are recovered from the adjoint GKLS generator in a
        truncated Fock space and compared coefficient by coefficient."""
        coeffs = gme_coefficients(OFF_RESONANT)
        blocks = implementation_dynamics_blocks(coeffs)
        for sign in ("+", "-"):
            om = (coeffs.modes.omega_plus if sign == "+"
                  else coeffs.modes.omega_minus)
            dim = 24
            a = destroy(dim)
            h = om * (a.T @ a)
            w_pos = sum(coeffs.w_pos[al][sign] for al in ("c", "h"))
            w_neg = sum(coeffs.w_neg[al][sign] for al in ("c", "h"))
            x, p = quadratures(om, dim)
            ops = [x @ x, p @ p, x @ p + p @ x]

            def gen(o):
                return (1j * (h @ o - o @ h)
                        + w_pos * dissipator_adjoint(a, o)
                        + w_neg * dissipator_adjoint(a.T.conj(), o))

            m, c, residual = extract_affine_dynamics(gen, ops, (dim,))
            assert residual < 1e-10
            m_impl, c_impl = blocks[sign]
            assert np.max(np.abs(m - m_impl)) < 1e-12
            assert np.max(np.abs(c - c_impl)) < 1e-12


class TestCoefficients:
    def test_dual_rate_implementation(self):
        """Rates recomputed with an independent J coth expression."""
        params = with_k(WIDE_GAP, 0.1)
        coeffs = gme_coefficients(params)
        nm = normal_modes(params)
        freqs = {"+": nm.omega_plus, "-": nm.omega_minus}
        c2 = math.cos(nm.theta)**2

        def gamma_ind(w, t):
            j = params.lambda_sq * abs(w) * params.cutoff**2 \
                / (w**2 + params.cutoff**2)
            return j * (1.0 / math.tanh(abs(w) / (2 * t))
                        + math.copysign(1.0, w))

        for alpha in ("c", "h"):
            t = params.temperature(alpha)
            for sign in ("+", "-"):
                om = freqs[sign]
                weight = c2 if (alpha == "c") == (sign == "+") else 1 - c2
                ref_pos = weight * gamma_ind(om, t) / (2 * om)
                ref_neg = weight * gamma_ind(-om, t) / (2 * om)
                assert coeffs.w_pos[alpha][sign] == pytest.approx(
                    ref_pos, rel=1e-12)
                assert coeffs.w_neg[alpha][sign] == pytest.approx(
                    ref_neg, rel=1e-12)
                assert coeffs.delta(alpha, sign) < 0.0
                assert coeffs.sigma(alpha, sign) > 0.0


class TestSteadyState:
    def test_closed_form_is_fixed_point(self):
        coeffs = gme_coefficients(OFF_RESONANT)
        y = moments(gme_normal_mode_covariance(coeffs))
        m, c = moment_equations(*gme_drift_diffusion(coeffs))
        assert np.max(np.abs(m @ y + c)) < 1e-13 * np.max(np.abs(y))

    def test_forward_euler_converges_to_closed_form(self):
        coeffs = gme_coefficients(OFF_RESONANT)
        target = moments(gme_normal_mode_covariance(coeffs))[:6]
        m, c = moment_equations(*gme_drift_diffusion(coeffs))
        m6, c6 = m[:6, :6], c[:6]
        y = np.array([0.9, 1.1, 0.3, 1.4, 0.6, -0.2])
        dt = 5e-3
        for _ in range(150_000):
            y = y + dt * (m6 @ y + c6)
        assert np.max(np.abs(y - target)) < 1e-8 * np.max(np.abs(target))

    def test_equilibrium_decoupled_limit(self):
        p = WireParams(1.0, 2.0, 0.0, 2.0, 2.0, 1e-3, 1e3)
        res = gme_steady_state(p)
        nc, nh = occupation(1.0, 2.0), occupation(2.0, 2.0)
        expected = np.diag([nc + .5, nc + .5, (nh + .5) / 2, 2 * (nh + .5)])
        assert np.allclose(res.covariance, expected, rtol=1e-12)
        assert res.qdot_c == pytest.approx(0.0, abs=1e-18)
        assert res.qdot_h == pytest.approx(0.0, abs=1e-18)

    def test_covariance_structure(self):
        res = gme_steady_state(with_k(WIDE_GAP, 0.1))
        gamma = res.covariance
        # the secular solution carries no position-momentum covariances
        for i, j in [(0, 1), (2, 3), (0, 3), (1, 2)]:
            assert gamma[i, j] == pytest.approx(0.0, abs=1e-16)
        assert gaussian.is_physical(gamma)
        assert res.diagnostics["residual"] < 1e-13

    def test_rotation_conjugation_symbolic(self):
        """Conjugating the diagonal normal-mode covariance with the mode
        rotation reproduces the closed-form local covariances."""
        sympy = pytest.importorskip("sympy")
        th, ep, pp_, em, pm = sympy.symbols(
            "theta e_plus p_plus e_minus p_minus", positive=True)
        c, s = sympy.cos(th), sympy.sin(th)
        rot = sympy.Matrix([[c, 0, s, 0], [0, c, 0, s],
                            [-s, 0, c, 0], [0, -s, 0, c]])
        gamma = rot * sympy.diag(ep, pp_, em, pm) * rot.T
        expected = sympy.Matrix([
            [c**2 * ep + s**2 * em, 0, c * s * (em - ep), 0],
            [0, c**2 * pp_ + s**2 * pm, 0, c * s * (pm - pp_)],
            [c * s * (em - ep), 0, s**2 * ep + c**2 * em, 0],
            [0, c * s * (pm - pp_), 0, s**2 * pp_ + c**2 * pm]])
        assert sympy.simplify(gamma - expected) == sympy.zeros(4, 4)

    def test_rotation_conjugation_numeric(self):
        coeffs = gme_coefficients(OFF_RESONANT)
        eta2_plus, _, eta2_minus, _ = np.diag(
            gme_normal_mode_covariance(coeffs))
        gamma = gme_steady_state(OFF_RESONANT).covariance
        c = math.cos(coeffs.modes.theta)
        s = math.sin(coeffs.modes.theta)
        assert gamma[0, 0] == pytest.approx(
            c**2 * eta2_plus + s**2 * eta2_minus, rel=1e-13)
        assert gamma[0, 2] == pytest.approx(
            c * s * (eta2_minus - eta2_plus), rel=1e-13)


class TestHeatCurrents:
    def test_closed_form_equals_dissipator_average(self):
        for params in (OFF_RESONANT, with_k(WIDE_GAP, 0.1),
                       with_k(WIDE_GAP, 1e-3)):
            coeffs = gme_coefficients(params)
            gamma_nm = gme_normal_mode_covariance(coeffs)
            per_bath = gme_heat_currents_from_state(gamma_nm, coeffs)
            closed = gme_heat_currents(params, coeffs)
            assert closed[1] == pytest.approx(per_bath[1], rel=1e-12)
            assert closed[0] == pytest.approx(per_bath[0], rel=1e-12)

    def test_currents_balance_and_sign(self):
        res = gme_steady_state(with_k(WIDE_GAP, 0.1))
        assert res.qdot_c + res.qdot_h == pytest.approx(0.0, abs=1e-18)
        assert res.qdot_h > 0.0  # hot bath is hotter

    def test_k_squared_scaling_at_weak_coupling(self):
        """Q/k^2 reaches its weak-coupling limit as O(k) in both node
        orders, also where theta rounds to pi/2 (fig1a, k <= 1e-8)."""
        for params in (WIDE_GAP, WIDE_GAP.swapped()):
            limit = gme_heat_currents(with_k(params, 1e-12))[1] / 1e-24
            assert abs(limit) > 1e-4
            for k in (1e-8, 1e-10):
                q_h = gme_heat_currents(with_k(params, k))[1]
                assert q_h / k**2 == pytest.approx(limit, rel=1e-9)

    def test_zero_at_equal_temperatures(self):
        p = WireParams(1.0, 2.0, 0.3, 2.5, 2.5, 1e-3, 1e3)
        assert gme_heat_currents(p)[1] == 0.0
