"""Local GKLS solution against a Fock-space generator oracle."""

import dataclasses
import json
import math
import pathlib
import random

import numpy as np
import pytest

from qwire import WireParams, occupation
from qwire.lme import (lme_drift_diffusion, lme_heat_currents,
                       lme_steady_state, _bath_drift_diffusion)
from qwire.moments import MOMENTS, covariance, moment_equations
from qwire import gaussian
from conftest import WIDE_GAP, with_k
from oracles import (decay_rate, destroy, dissipator_adjoint, embed,
                     extract_affine_dynamics, local_current_mpmath, moments,
                     quadratures)

OFF_RESONANT = WireParams(1.0, 1.3, 0.4, 0.8, 1.6, 0.05, 50.0)


def local_residual(params, gamma) -> float:
    """max|M y + c| / max|c| of the local state gamma in the local
    moment equations dy/dt = M y + c."""
    m, c = moment_equations(*lme_drift_diffusion(params))
    return np.max(np.abs(m @ moments(gamma) + c)) / np.max(np.abs(c))


class TestGeneratorOracle:
    def test_matrix_and_source_match_lindblad_generator(self):
        """Build the local master equation in a truncated two-mode Fock
        space (coupled Hamiltonian, per-node dissipators at the bare
        frequencies) and recover all 110 coefficients of the covariance
        dynamics independently."""
        p = OFF_RESONANT
        dims = (12, 12)
        xc1, pc1 = quadratures(p.omega_c, dims[0])
        xh1, ph1 = quadratures(p.omega_h, dims[1])
        xc, pc = embed(xc1, 0, dims), embed(pc1, 0, dims)
        xh, ph = embed(xh1, 1, dims), embed(ph1, 1, dims)
        a_c = embed(destroy(dims[0]), 0, dims)
        a_h = embed(destroy(dims[1]), 1, dims)
        h = ((pc @ pc + ph @ ph) / 2
             + (p.omega_c**2 * xc @ xc + p.omega_h**2 * xh @ xh) / 2
             + p.k / 2 * ((xc - xh) @ (xc - xh)))
        rates = {}
        for alpha, om, t, a_op in (("c", p.omega_c, p.t_c, a_c),
                                   ("h", p.omega_h, p.t_h, a_h)):
            rates[alpha] = (decay_rate(om, t, p) / (2 * om),
                            decay_rate(-om, t, p) / (2 * om), a_op)
        ops = [xc @ xc, pc @ pc, xc @ pc + pc @ xc,
               xh @ xh, ph @ ph, xh @ ph + ph @ xh,
               xc @ xh, pc @ ph, xc @ ph, xh @ pc]
        assert len(ops) == len(MOMENTS)

        def gen(o):
            out = 1j * (h @ o - o @ h)
            for alpha in ("c", "h"):
                down, up, a_op = rates[alpha]
                out = out + down * dissipator_adjoint(a_op, o) \
                    + up * dissipator_adjoint(a_op.T.conj(), o)
            return out

        m, c, residual = extract_affine_dynamics(gen, ops, dims)
        assert residual < 1e-10
        m_impl, c_impl = moment_equations(*lme_drift_diffusion(p))
        assert np.max(np.abs(m - m_impl)) < 1e-12
        assert np.max(np.abs(c - c_impl)) < 1e-12


class TestSteadyState:
    def test_stability_spectral_abscissa(self):
        m, _ = moment_equations(*lme_drift_diffusion(with_k(WIDE_GAP, 0.01)))
        assert np.max(np.linalg.eigvals(m).real) < 0.0

    def test_solve_residual(self):
        res = lme_steady_state(OFF_RESONANT)
        assert res.diagnostics == {}
        assert local_residual(OFF_RESONANT, res.covariance) < 1e-12
        assert gaussian.StateStack([res.covariance]).physical[0]

    def test_equilibrium_decoupled_limit(self):
        p = WireParams(1.0, 2.0, 0.0, 2.0, 2.0, 1e-3, 1e3)
        res = lme_steady_state(p)
        nc, nh = occupation(1.0, 2.0), occupation(2.0, 2.0)
        expected = np.diag([nc + .5, nc + .5, (nh + .5) / 2, 2 * (nh + .5)])
        assert np.allclose(res.covariance, expected, rtol=1e-12)
        assert res.qdot_c == pytest.approx(0.0, abs=1e-16)
        assert res.qdot_h == pytest.approx(0.0, abs=1e-16)

    def test_covariance_vector_mapping(self):
        y = np.arange(1.0, 11.0)
        gamma = covariance(y)
        assert np.array_equal(moments(gamma), y)
        assert gamma[0, 0] == 1.0 and gamma[1, 1] == 2.0
        assert gamma[0, 1] == y[2] / 2  # anticommutator average halved
        assert np.array_equal(gamma, gamma.T)


class TestHeatCurrents:
    def test_equal_generator_decomposition(self):
        """Currents must equal the energy flow produced by each bath's
        dissipator alone, h . (M_a y + c_a) with h the coefficients of
        <H_S> in the covariance vector."""
        for params in (OFF_RESONANT, with_k(WIDE_GAP, 0.1)):
            res = lme_steady_state(params)
            y = moments(res.covariance)
            h_vec = np.array([
                (params.omega_c**2 + params.k) / 2, 0.5, 0.0,
                (params.omega_h**2 + params.k) / 2, 0.5, 0.0,
                -params.k, 0.0, 0.0, 0.0])
            for alpha, expected in zip(("c", "h"), res.heat_currents):
                dm, dc = moment_equations(*_bath_drift_diffusion(params,
                                                                 alpha))
                assert h_vec @ (dm @ y + dc) == pytest.approx(
                    expected, rel=1e-10, abs=1e-18)

    def test_reversed_current_in_breakdown_regime(self):
        # strong internal coupling: the local solution pumps heat from
        # cold to hot even though t_h > t_c
        res = lme_steady_state(with_k(WIDE_GAP, 0.5))
        assert res.qdot_h < 0.0

    def test_k_squared_scaling_at_weak_coupling(self):
        """The currents keep their k^2 law and their balance down to
        k = 1e-12, far below where the dissipator-sum form loses them."""
        ref = lme_steady_state(with_k(WIDE_GAP, 1e-12)).qdot_h / 1e-24
        assert ref < 0.0
        for k in (1e-8, 1e-9, 1e-10, 1e-11):
            res = lme_steady_state(with_k(WIDE_GAP, k))
            assert res.qdot_h / k**2 == pytest.approx(ref, rel=1e-7)
            assert abs(res.qdot_c + res.qdot_h) <= 1e-14 * abs(res.qdot_h)

    def test_balance(self):
        res = lme_steady_state(OFF_RESONANT)
        assert res.qdot_c + res.qdot_h == pytest.approx(
            0.0, abs=1e-12 * abs(res.qdot_h))


def _domain_points(count: int, rng: random.Random) -> list:
    """Log-uniform over what WireParams accepts (as in test_compare's
    domain_points)."""
    def log_uniform(lo, hi):
        return 10.0**rng.uniform(math.log10(lo), math.log10(hi))
    out = []
    for _ in range(count):
        omega_c = log_uniform(0.1, 10.0)
        omega_h = omega_c + log_uniform(1e-9, 3.0)
        t_c = omega_c * log_uniform(1e-3, 1e2)
        out.append(WireParams(omega_c, omega_h, log_uniform(1e-12, 1e5), t_c,
                              t_c * log_uniform(1.0, 10.0),
                              log_uniform(1e-6, 1.0),
                              omega_h * log_uniform(1.1, 1e4)))
    return out


#: benchmark pool points: at 261 and 268 the covariance's cross moments
#: cancel down to the current, at 137 and 272 they lose digits of it
POOL_IDS = (40, 137, 261, 268, 272)
POOL = (pathlib.Path(__file__).resolve().parent.parent
        / "perfbench" / "data" / "points.json")


class TestClosedFormCurrent:
    """lme_heat_currents against the current of the moment equations
    solved at 60 digits: to 1e-13 relative, and Qdot_c = -Qdot_h."""

    @staticmethod
    def assert_matches_moment_solve(points):
        for params in points:
            q_c, q_h = lme_heat_currents(params)
            assert q_c == -q_h
            assert q_h == pytest.approx(local_current_mpmath(params),
                                        rel=1e-13, abs=0.0), params

    def test_benchmark_pool_points(self):
        pool = {point["id"]: point for point
                in json.loads(POOL.read_text(encoding="utf-8"))["points"]}
        self.assert_matches_moment_solve(
            [WireParams(**pool[i]["params"]) for i in POOL_IDS])

    def test_random_domain_points(self):
        self.assert_matches_moment_solve(
            _domain_points(30, random.Random(7)))


class TestHighTemperature:
    @pytest.mark.parametrize("t_over_omega", (1e2, 1e4, 1e6))
    def test_drift_against_mpmath(self, t_over_omega):
        """The node drift -J(w)/(2w) to 1e-15 relative of a 50-digit value
        at any temperature: it is read off J directly, not as the rate
        difference gamma(-w) - gamma(w)."""
        mpmath = pytest.importorskip("mpmath")
        params = dataclasses.replace(with_k(WIDE_GAP, 1e-2), t_c=t_over_omega,
                                     t_h=1.5 * t_over_omega)
        a_mat, _ = lme_drift_diffusion(params)
        with mpmath.workdps(50):
            cut2 = mpmath.mpf(params.cutoff)**2
            for x, om in ((0, params.omega_c), (2, params.omega_h)):
                om = mpmath.mpf(om)
                j = params.lambda_sq * om * cut2 / (om**2 + cut2)
                expected = -j / (2 * om)
                assert abs(float((a_mat[x, x] - expected) / expected)) <= 1e-15
