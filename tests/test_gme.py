"""Global GKLS solution against Fock-space and symbolic oracles."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from qwire import WireParams, normal_modes, occupation
from qwire.gme import (GmeCoefficients, gme_coefficients, gme_heat_currents,
                       gme_normal_mode_covariance, gme_steady_state)
from qwire.moments import moment_equations
from qwire import gaussian
from conftest import WIDE_GAP, swapped, with_k
from oracles import (destroy, dissipator_adjoint, extract_affine_dynamics,
                     gme_drift_diffusion, gme_heat_currents_per_bath,
                     mode_rates, moments, quadratures)

OFF_RESONANT = WireParams(1.0, 1.3, 0.4, 0.8, 1.6, 0.05, 50.0)


def implementation_dynamics_blocks(coeffs: GmeCoefficients) -> dict:
    """Per-mode (M, c) of the moment equations of gme_drift_diffusion,
    the equations whose fixed point the closed form is.

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
        truncated Fock space, with the oracle's GKLS rates times the bath
        weights, and compared coefficient by coefficient."""
        modes = normal_modes(OFF_RESONANT)
        rates = mode_rates(OFF_RESONANT, modes)
        blocks = implementation_dynamics_blocks(gme_coefficients(OFF_RESONANT))
        for sign, om in (("+", modes.omega_plus), ("-", modes.omega_minus)):
            dim = 24
            a = destroy(dim)
            h = om * (a.T @ a)
            w_neg, w_pos = (sum(rates[al, sign][i] for al in "ch")
                            for i in (0, 1))
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
        """The oracle's GKLS rates against an independent J coth
        expression, and each mode's drift and diffusion, which
        gme_drift_diffusion forms from the library's J and n, against the
        drift W_- - W_+ and diffusion W_- + W_+ of those rates."""
        params = with_k(WIDE_GAP, 0.1)
        nm = normal_modes(params)
        rates = mode_rates(params, nm)
        a_mat, d_mat = gme_drift_diffusion(gme_coefficients(params))

        def gamma_ind(w, t):
            j = params.lambda_sq * abs(w) * params.cutoff**2 \
                / (w**2 + params.cutoff**2)
            return j * (1.0 / math.tanh(abs(w) / (2 * t))
                        + math.copysign(1.0, w))

        for x, sign, om in ((0, "+", nm.omega_plus),
                            (2, "-", nm.omega_minus)):
            delta = sigma = 0.0
            for alpha in ("c", "h"):
                t = params.t_c if alpha == "c" else params.t_h
                weight = (nm.cos_sq if (alpha == "c") == (sign == "+")
                          else 1 - nm.cos_sq)
                w_neg, w_pos = rates[alpha, sign]
                assert w_pos == pytest.approx(
                    weight * gamma_ind(om, t) / (2 * om), rel=1e-12)
                assert w_neg == pytest.approx(
                    weight * gamma_ind(-om, t) / (2 * om), rel=1e-12)
                delta += w_neg - w_pos
                sigma += w_neg + w_pos
            assert a_mat[x, x] == a_mat[x + 1, x + 1]
            assert a_mat[x, x] == pytest.approx(delta / 2, rel=1e-12)
            assert d_mat[x, x] == pytest.approx(sigma / (2 * om), rel=1e-12)
            assert d_mat[x + 1, x + 1] == pytest.approx(om * sigma / 2,
                                                        rel=1e-12)
            assert a_mat[x, x] < 0.0 < d_mat[x, x]


def closed_form_residual(coeffs: GmeCoefficients) -> tuple:
    """|M y + c| of the closed-form moments y in the oracle's moment
    equations, with max|y| and max|c|."""
    y = moments(gme_normal_mode_covariance(coeffs))
    m, c = moment_equations(*gme_drift_diffusion(coeffs))
    return np.abs(m @ y + c), np.max(np.abs(y)), np.max(np.abs(c))


class TestSteadyState:
    def test_closed_form_is_fixed_point(self):
        """The closed form solves its moment equations to the rounding of
        their source c, over fifty decades of lambda^2: relative to max|y|
        the residual would grow as lambda^2 (1.9e-11 at lambda^2 = 1e5)."""
        residual, y_max, _ = closed_form_residual(
            gme_coefficients(OFF_RESONANT))
        assert np.max(residual) < 1e-13 * y_max
        for lambda_sq in (1e-3, 1e5, 1e50):
            residual, _, c_max = closed_form_residual(gme_coefficients(
                WireParams(1.0, 2.0, 0.05, 2.0, 3.0, lambda_sq, 1e3)))
            assert np.max(residual) <= 8 * sys.float_info.epsilon * c_max

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
        assert gaussian.StateStack([gamma]).physical[0]
        residual, y_max, _ = closed_form_residual(
            gme_coefficients(with_k(WIDE_GAP, 0.1)))
        assert np.max(residual) < 1e-13 * y_max

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
        modes = coeffs.modes
        assert gamma[0, 0] == pytest.approx(
            modes.cos_sq * eta2_plus + modes.sin_sq * eta2_minus, rel=1e-13)
        assert gamma[0, 2] == pytest.approx(
            modes.sin_cos * (eta2_minus - eta2_plus), rel=1e-13)


class TestHeatCurrents:
    def test_closed_form_equals_dissipator_average(self):
        """The closed form against the per-bath form, and against the
        dissipator averages Qdot_a = (1/2) sum_s [Delta^a_s (Omega_s^2
        <eta_s^2> + <Pi_s^2>) + Omega_s Sigma^a_s] of the oracle's rates
        on the closed-form covariance.

        A current read off a float covariance carries a relative error of
        order eps / (sin^2(theta) cos^2(theta)), the current's own factor
        (at WIDE_GAP, k=1e-3 the worst seen is 2.6 such units), so the
        average is held to 8 of them and no absolute slack."""
        for params in (OFF_RESONANT, with_k(WIDE_GAP, 0.1),
                       with_k(WIDE_GAP, 1e-3)):
            coeffs = gme_coefficients(params)
            rel = 8 * sys.float_info.epsilon / coeffs.modes.sin_cos**2
            closed = gme_heat_currents(params, coeffs)
            per_bath = gme_heat_currents_per_bath(coeffs)
            rates = mode_rates(params, coeffs.modes)
            gamma_nm = gme_normal_mode_covariance(coeffs)
            for i, alpha in enumerate("ch"):
                average = 0.0
                for x, sign, om in zip((0, 2), "+-", coeffs.omegas):
                    w_neg, w_pos = rates[alpha, sign]
                    average += 0.5 * ((w_neg - w_pos) * (
                        om**2 * gamma_nm[x, x] + gamma_nm[x + 1, x + 1])
                        + om * (w_neg + w_pos))
                assert closed[i] == pytest.approx(per_bath[i], rel=1e-12,
                                                  abs=0.0)
                assert closed[i] == pytest.approx(average, rel=rel, abs=0.0)

    def test_currents_balance_and_sign(self):
        res = gme_steady_state(with_k(WIDE_GAP, 0.1))
        assert res.qdot_c + res.qdot_h == pytest.approx(0.0, abs=1e-18)
        assert res.qdot_h > 0.0  # hot bath is hotter

    def test_k_squared_scaling_at_weak_coupling(self):
        """Q/k^2 reaches its weak-coupling limit as O(k) in both node
        orders, also where theta rounds to pi/2 (fig1a, k <= 1e-8)."""
        for params in (WIDE_GAP, swapped(WIDE_GAP)):
            limit = gme_heat_currents(with_k(params, 1e-12))[1] / 1e-24
            assert abs(limit) > 1e-4
            for k in (1e-8, 1e-10):
                q_h = gme_heat_currents(with_k(params, k))[1]
                assert q_h / k**2 == pytest.approx(limit, rel=1e-9)

    def test_zero_at_equal_temperatures(self):
        p = WireParams(1.0, 2.0, 0.3, 2.5, 2.5, 1e-3, 1e3)
        assert gme_heat_currents(p)[1] == 0.0


class TestHighTemperature:
    @pytest.mark.parametrize("t_over_omega", (1e2, 1e4, 1e6))
    def test_normal_mode_covariance_against_mpmath(self, t_over_omega):
        """<eta_s^2> = (occ_s + 1/2) / Omega_s and <Pi_s^2> =
        Omega_s (occ_s + 1/2) to 1e-15 relative, with modes from a 50-digit
        eigendecomposition of the potential: the occupations n ~ T/Omega
        enter without the rate difference that cost log10 n digits."""
        mpmath = pytest.importorskip("mpmath")
        params = dataclasses.replace(with_k(WIDE_GAP, 1e-2), t_c=t_over_omega,
                                     t_h=1.5 * t_over_omega)
        got = np.diag(gme_normal_mode_covariance(gme_coefficients(params)))
        with mpmath.workdps(50):
            k = mpmath.mpf(params.k)
            evals, vecs = mpmath.eigsy(mpmath.matrix(
                [[mpmath.mpf(params.omega_c)**2 + k, -k],
                 [-k, mpmath.mpf(params.omega_h)**2 + k]]))
            expected = []
            for col in (1, 0):  # eigsy sorts ascending: Omega_+ is last
                om = mpmath.sqrt(evals[col])
                occ = sum(vecs[row, col]**2 / mpmath.expm1(om / t)
                          for row, t in ((0, params.t_c), (1, params.t_h)))
                expected += [(occ + 0.5) / om, om * (occ + 0.5)]
            for g, e in zip(got, expected):
                assert abs(float((g - e) / e)) <= 1e-15
