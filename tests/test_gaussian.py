"""Gaussian state toolkit against independent density-matrix references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwire import (WireParams, correlation_report, exact_steady_state,
                   gme_steady_state, lme_steady_state, redfield_steady_state)
from qwire import gaussian
import oracles
from conftest import NEAR_DEGENERATE, RESONANT_STRONG, WIDE_GAP, with_k


def random_physical_covariance(rng: np.random.Generator,
                               mix: float = 0.25) -> np.ndarray:
    """Vacuum plus a random positive matrix: always a valid state."""
    g = rng.normal(size=(4, 4))
    return 0.5 * np.eye(4) + mix * (g @ g.T)


def squeezed_state(r, s_c, s_h, theta, nus) -> np.ndarray:
    """S diag(nu_1, nu_1, nu_2, nu_2) S^T with S a cold-mode rotation
    after local squeezings after two-mode squeezing r."""
    ch, sh = math.cosh(r), math.sinh(r)
    tms = np.array([[ch, 0, sh, 0], [0, ch, 0, -sh],
                    [sh, 0, ch, 0], [0, -sh, 0, ch]])
    loc = np.diag([math.exp(s_c), math.exp(-s_c),
                   math.exp(s_h), math.exp(-s_h)])
    co, si = math.cos(theta), math.sin(theta)
    rot = np.array([[co, si, 0, 0], [-si, co, 0, 0],
                    [0, 0, 1, 0], [0, 0, 0, 1]])
    sym = rot @ loc @ tms
    gamma = sym @ np.diag([nus[0], nus[0], nus[1], nus[1]]) @ sym.T
    return (gamma + gamma.T) / 2.0


def polish_states() -> list:
    """(label, covariance) pairs on which the plain-float discord polish
    is checked against scipy's."""
    out = []
    for name, params in (("fig1a k=0.01", with_k(WIDE_GAP, 0.01)),
                         ("fig1b k=1e-3", with_k(NEAR_DEGENERATE, 1e-3)),
                         ("resonant k=1e3", RESONANT_STRONG),
                         ("fig1a t_c=0.01", WireParams(1.0, 2.0, 0.01, 0.01,
                                                       0.015, 1e-3, 1e3))):
        for solver in (gme_steady_state, lme_steady_state,
                       redfield_steady_state):
            out.append((f"{name} {solver.__name__}",
                        solver(params).covariance))
    # the fig1b sweep row k=0.0245
    out.append(("fig1b k=0.0245 exact", exact_steady_state(
        with_k(NEAR_DEGENERATE, 0.024537511066398166)).covariance))
    rng = np.random.default_rng(17)
    for mix in np.logspace(0.0, -6.0, 7):
        out.append((f"random mix={mix:.0e}",
                    random_physical_covariance(rng, mix)))
    # no correlations: every vertex of every simplex ties
    out.append(("product", np.diag([1.0, 1.0, 2.0, 2.0])))
    # two-mode squeezed thermal: the cost does not depend on the angle
    out.append(("two-mode squeezed", squeezed_state(0.8, 0.0, 0.0, 0.0,
                                                    (0.9, 0.9))))
    return out


class TestSymplecticEigenvalues:
    def test_against_general_eigensolver(self):
        rng = np.random.default_rng(42)
        jj = gaussian.symplectic_form()
        for _ in range(50):
            gamma = random_physical_covariance(rng)
            closed = gaussian.symplectic_eigenvalues(gamma)
            general = np.sort(np.abs(np.linalg.eigvals(
                np.linalg.inv(jj) @ gamma).imag))[::2][::-1]
            assert np.max(np.abs(closed - general)) < 1e-10

    def test_single_mode(self):
        gamma = np.diag([2.0, 0.5])
        assert gaussian.symplectic_eigenvalues(gamma)[0] == pytest.approx(1.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            gaussian.symplectic_eigenvalues(np.eye(3))

    def test_near_pure_state_against_mpmath(self):
        """nu - 1/2 = 1e-10 is resolved to rounding; the invariant
        formula D^2 - 4 det put it at 2.6e-9."""
        mpmath = pytest.importorskip("mpmath")
        gamma = squeezed_state(r=1.2, s_c=0.7, s_h=-0.4, theta=0.3,
                               nus=(0.5 + 2e-8, 0.5 + 1e-10))
        with mpmath.workdps(50):
            jj = mpmath.matrix(gaussian.symplectic_form().tolist())
            evals = mpmath.eig(jj * mpmath.matrix(gamma.tolist()),
                               left=False, right=False)
            ref = sorted((float(abs(mpmath.im(e)) - mpmath.mpf(0.5))
                          for e in evals), reverse=True)[::2]
        margins = gaussian.symplectic_eigenvalues(gamma) - 0.5
        assert ref[1] == pytest.approx(1e-10, rel=1e-4)
        assert np.max(np.abs(margins - ref)) < 1e-14

    def test_not_positive_definite_has_no_spectrum(self):
        # -0.6 I has the symplectic invariants of 0.6 I
        for gamma in (-0.6 * np.eye(4), np.diag([1.0, 1.0, -1.0, 1.0]),
                      np.full((4, 4), np.nan)):
            assert np.all(gaussian.symplectic_eigenvalues(gamma) == 0.0)
            assert not gaussian.is_physical(gamma)
            with pytest.raises(gaussian.NonPhysicalStateError):
                gaussian.entropy(gamma)


class TestPhysicality:
    def test_vacuum_is_physical(self):
        assert gaussian.is_physical(0.5 * np.eye(4))

    def test_below_bound_raises(self):
        gamma = 0.4 * np.eye(4)
        assert not gaussian.is_physical(gamma)
        with pytest.raises(gaussian.NonPhysicalStateError):
            gaussian.entropy(gamma)

    def test_roundoff_below_half_is_clamped(self):
        gamma = (0.5 - 1e-12) * np.eye(4)
        assert gaussian.entropy(gamma) == 0.0

    def test_error_reports_margin(self):
        for scale, margin in ((0.4, "-1.000e-01"), (0.5 - 3e-9, "-3.000e-09")):
            with pytest.raises(gaussian.NonPhysicalStateError,
                               match=f"nu_min - 1/2 = {margin}$"):
                gaussian.entropy(scale * np.eye(4))

    def test_low_temperature_model_states(self):
        """fig1a at t_c = 0.01: the global and Redfield states sit within
        rounding of the vacuum bound and must not be rejected."""
        params = WireParams(1.0, 2.0, 0.01, 0.01, 0.015, 1e-3, 1e3)
        for solver in (gme_steady_state, redfield_steady_state):
            gamma = solver(params).covariance
            assert gaussian.is_physical(gamma)
            assert abs(gaussian.symplectic_eigenvalues(gamma)[-1]
                       - 0.5) < 1e-12


class TestEntropy:
    def test_thermal_closed_form(self):
        n = 1.7
        gamma = (n + 0.5) * np.eye(2)
        expected = (n + 1) * math.log(n + 1) - n * math.log(n)
        assert gaussian.entropy(gamma) == pytest.approx(expected, rel=1e-12)

    def test_pure_state_has_zero_entropy(self):
        assert gaussian.entropy(0.5 * np.eye(4)) == 0.0

    def test_frozen_fock_reference(self, fock_reference):
        for state in fock_reference["states"]:
            # dim 44 -> 60 difference; the dim-60 error itself is far
            # smaller (exponential convergence)
            assert state["entropy_truncation_delta"] < 1e-5
            gamma = np.array(state["covariance"])
            assert gaussian.entropy(gamma) == pytest.approx(
                state["entropy"], abs=1e-6)


class TestFidelity:
    def test_identity_and_symmetry(self):
        rng = np.random.default_rng(1)
        g1 = random_physical_covariance(rng)
        g2 = random_physical_covariance(rng)
        assert gaussian.fidelity(g1, g1) == pytest.approx(1.0, abs=1e-9)
        assert gaussian.fidelity(g1, g2) == pytest.approx(
            gaussian.fidelity(g2, g1), rel=1e-10)
        assert 0.0 < gaussian.fidelity(g1, g2) <= 1.0

    def test_thermal_pair_from_fock_reference(self, fock_reference):
        th = fock_reference["thermal"]
        assert th["fidelity_truncation_delta"] < 1e-8
        f = gaussian.fidelity(np.array(th["covariance_1"]),
                              np.array(th["covariance_2"]))
        assert f == pytest.approx(th["fidelity"], abs=1e-6)

    def test_frozen_fock_reference_pairs(self, fock_reference):
        states = fock_reference["states"]
        for pair in fock_reference["pairs"]:
            assert pair["fidelity_truncation_delta"] < 1e-6
            g1 = np.array(states[pair["i"]]["covariance"])
            g2 = np.array(states[pair["j"]]["covariance"])
            assert gaussian.fidelity(g1, g2) == pytest.approx(
                pair["fidelity"], abs=1e-6)


class TestMutualInformation:
    def test_product_state_has_none(self):
        gamma = np.diag([1.0, 1.0, 2.0, 2.0])
        assert gaussian.mutual_information(gamma) == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_dual_entropy_path(self):
        """Recompute I from eigensolver-based symplectic spectra."""
        gamma = gme_steady_state(with_k(NEAR_DEGENERATE, 1e-2)).covariance
        jj = gaussian.symplectic_form()

        def entropy_eig(g):
            n = g.shape[0] // 2
            nus = np.sort(np.abs(np.linalg.eigvals(
                np.linalg.inv(jj[:2 * n, :2 * n]) @ g).imag))[::2]
            return sum((nu + .5) * math.log(nu + .5)
                       - (nu - .5) * math.log(nu - .5)
                       for nu in nus if nu > 0.5 + 1e-12)

        alt = (entropy_eig(gamma[:2, :2]) + entropy_eig(gamma[2:, 2:])
               - entropy_eig(gamma))
        assert gaussian.mutual_information(gamma) == pytest.approx(
            alt, rel=1e-9, abs=1e-12)


class TestDiscord:
    def test_product_state_has_none(self):
        gamma = np.diag([1.0, 1.0, 2.0, 2.0])
        assert gaussian.gaussian_discord(gamma) == pytest.approx(0.0,
                                                                 abs=1e-9)

    def test_polish_matches_scipy_bit_for_bit(self):
        mismatches = []
        for i, (label, gamma) in enumerate(polish_states()):
            node = "ch"[i % 2]
            a, b, c = gaussian._blocks(gamma, node)
            best, starts = gaussian._grid_search(a, b, c, 200, 64)
            cost = gaussian._polish_cost(a, b, c)
            ours = [gaussian._nelder_mead_2d(cost, x0, y0)
                    for x0, y0 in starts]
            scipy_funs = oracles.scipy_polish(a, b, c, starts)
            if (ours != scipy_funs or gaussian._min_conditional_entropy(
                    a, b, c) != min([best] + scipy_funs)):
                mismatches.append(f"{label}, node {node}")
        assert mismatches == []

    def test_polish_from_zero_coordinates(self):
        """Zero start coordinates get scipy's absolute step; a start past
        the squeezing cap, its penalty."""
        gamma = random_physical_covariance(np.random.default_rng(4), 0.1)
        a, b, c = gaussian._blocks(gamma, "h")
        starts = [(0.0, 0.0), (0.0, 1.3), (-25.0, 0.5)]
        cost = gaussian._polish_cost(a, b, c)
        assert [gaussian._nelder_mead_2d(cost, x0, y0)
                for x0, y0 in starts] == oracles.scipy_polish(a, b, c, starts)

    def test_polish_ties(self):
        a, b, c = gaussian._blocks(np.diag([1.0, 1.0, 2.0, 2.0]), "h")
        cost = gaussian._polish_cost(a, b, c)
        assert cost(0.3, 0.0) == cost(0.3 * 1.05, 0.0) == cost(0.3, 0.00025)
        assert gaussian._nelder_mead_2d(cost, 0.3, 0.0) == cost(0.3, 0.0)

    def test_scalar_cost_matches_array_kernel(self):
        rng = np.random.default_rng(3)
        gamma = random_physical_covariance(rng, 1e-3)
        a, b, c = gaussian._blocks(gamma, "h")
        cost = gaussian._polish_cost(a, b, c)
        for x, y in rng.uniform([-20.0, -4.0], [20.0, 4.0], size=(500, 2)):
            ref = gaussian._conditional_entropies(
                a, b, c, np.array([math.exp(x)]), np.array([y]))[0, 0]
            assert cost(x, y) == ref
        assert cost(21.0, 0.0) == 1e6 + 21.0

    def test_refinement_convergence(self):
        gamma = exact_steady_state(with_k(NEAR_DEGENERATE, 1e-3)).covariance
        coarse = gaussian.gaussian_discord(gamma)
        fine = gaussian.gaussian_discord(gamma, n_squeeze=2000, n_angle=640)
        assert abs(coarse - fine) < 1e-6

    def test_bounded_by_mutual_information(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            gamma = random_physical_covariance(rng)
            q = gaussian.gaussian_discord(gamma)
            i = gaussian.mutual_information(gamma)
            assert -1e-10 <= q <= i + 1e-9
            c = correlation_report(gamma, gamma).classical_arrow
            assert c == pytest.approx(i - q, abs=1e-9)

    def test_measured_node_selects_block(self):
        rng = np.random.default_rng(9)
        gamma = random_physical_covariance(rng)
        qc = gaussian.gaussian_discord(gamma, measured_node="c")
        qh = gaussian.gaussian_discord(gamma, measured_node="h")
        assert qc != pytest.approx(qh, abs=1e-12)
        with pytest.raises(ValueError):
            gaussian.gaussian_discord(gamma, measured_node="x")


class TestLogNegativity:
    def test_product_state_is_separable(self):
        assert gaussian.log_negativity(np.diag([1., 1., 2., 2.])) == 0.0

    def test_squeezed_thermal_state(self):
        # symmetric squeezed thermal state: the partially transposed
        # symplectic eigenvalues are f e^(+-2r), so E_N = 2r - ln(2f)
        r, f = 0.8, 0.55
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        gamma = f * np.array([[ch, 0, sh, 0], [0, ch, 0, -sh],
                              [sh, 0, ch, 0], [0, -sh, 0, ch]])
        expected = 2 * r - math.log(2 * f)
        assert gaussian.log_negativity(gamma) == pytest.approx(expected,
                                                               rel=1e-10)


class TestStrongCouplingAsymptote:
    def test_requires_resonance_and_coupling(self):
        with pytest.raises(ValueError):
            gaussian.strong_coupling_asymptote(
                WireParams(1.0, 2.0, 1.0, 1.0, 2.0, 1e-3, 1e3))
        with pytest.raises(ValueError):
            gaussian.strong_coupling_asymptote(
                WireParams(1.0, 1.0, 0.0, 1.0, 2.0, 1e-3, 1e3))

    def test_matches_global_solution_at_large_k(self):
        params = with_k(RESONANT_STRONG, 1e5)
        e_n = gaussian.log_negativity(gme_steady_state(params).covariance)
        asym = gaussian.strong_coupling_asymptote(params)
        assert abs(e_n - asym) < 1e-2
