"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line with the measured figure of
merit before asserting, so a full run doubles as a regression report:

    pytest tests/test_acceptance.py -v -s -m acceptance
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from qwire import (WireParams, gme_steady_state, lme_steady_state,
                   redfield_steady_state, exact_steady_state, solve_all,
                   secular_validity_margin)
from qwire.gme import (gme_coefficients, gme_heat_currents,
                       gme_normal_mode_covariance)
from qwire import gaussian
from qwire.moments import moment_equations
import oracles
from conftest import DATA_DIR, alone, pair_fidelity
from test_lme import local_residual
from test_redfield import closed_form_system, redfield_averages

pytestmark = pytest.mark.acceptance

FIG1A = WireParams(1.0, 2.0, 1e-2, 2.0, 3.0, 1e-3, 1e3)
FIG1B = WireParams(1.0, math.sqrt(1.0 + 2e-6), 1e-2, 2.0, 3.0, 1e-3, 1e3)
FIG2C = WireParams(10.0, 10.0, 1.0, 1.0, 2.0, 1e-3, 1e3)


def at_k(params, k):
    return dataclasses.replace(params, k=k)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion:02d} {'PASS' if passed else 'FAIL'}: "
          f"{detail}")


def closed_form_residuals(params) -> tuple:
    """The residuals of the two closed forms in the oracles' equations.

    Global: max|M y + c| / max|y| of its normal-mode moments in the ten
    moment equations of oracles.gme_drift_diffusion.  Redfield: the
    normwise backward error max|B y + b| / (||B|| max|y| + max|b|) of its
    four averages, read back from the covariance, in test_redfield's
    four-variable system.  Not relative to max|b| alone: the covariance
    stores the coherence s_+- only to about eps max|Gamma|, so at fig2c,
    k = 10 (s = -5.9e-9) that ratio reads 1.5e-11, and 2.3e-11 with a
    40-digit readback."""
    coeffs = gme_coefficients(params)
    y = oracles.moments(gme_normal_mode_covariance(coeffs))
    m, c = moment_equations(*oracles.gme_drift_diffusion(coeffs))
    b_mat, b_vec = closed_form_system(params)
    y4 = redfield_averages(params)
    return (np.max(np.abs(m @ y + c)) / np.max(np.abs(y)),
            np.max(np.abs(b_mat @ y4 + b_vec))
            / (np.max(np.sum(np.abs(b_mat), axis=1)) * np.max(np.abs(y4))
               + np.max(np.abs(b_vec))))


def fidelity_to_exact(params, solver):
    exact = exact_steady_state(params)
    approx = solver(params)
    return pair_fidelity(approx.covariance, exact.covariance)


class TestAcceptance:
    def test_01_redfield_matches_exact(self):
        """Redfield and exact covariances and currents agree to 1e-2."""
        worst_cov, worst_cur = 0.0, 0.0
        for k in (1e-4, 1e-3, 1e-2, 1e-1):
            p = at_k(FIG1A, k)
            exact = exact_steady_state(p)
            red = redfield_steady_state(p)
            # element-wise relative difference, with entries that vanish
            # identically in the stationary state measured against the
            # overall covariance scale instead
            floor = 1e-2 * np.max(np.abs(exact.covariance))
            denom = np.maximum(np.abs(exact.covariance), floor)
            worst_cov = max(worst_cov, float(np.max(
                np.abs(red.covariance - exact.covariance) / denom)))
            worst_cur = max(worst_cur, abs(red.qdot_h - exact.qdot_h)
                            / abs(exact.qdot_h))
        ok = worst_cov <= 1e-2 and worst_cur <= 1e-2
        report(1, ok, f"max covariance rel diff {worst_cov:.3e}, "
               f"max current rel diff {worst_cur:.3e} (tol 1e-2)")
        assert ok

    def test_02_global_solution_exact_in_secular_regime(self):
        """Wide-gap wire: global fidelity to exact >= 1 - 1e-4 for all k."""
        worst = 1.0
        for k in np.logspace(-4, 0, 12):
            worst = min(worst, fidelity_to_exact(at_k(FIG1A, k),
                                                 gme_steady_state))
        ok = worst >= 1.0 - 1e-4
        report(2, ok, f"min global fidelity {worst:.8f} (needs >= 0.9999)")
        assert ok

    def test_03_secular_breakdown(self):
        """Near-degenerate wire: some k where the global solution fails
        (1 - F >= 1e-4) while the local one stays accurate."""
        trigger = None
        for k in np.logspace(-5, -3, 9):
            p = at_k(FIG1B, k)
            exact = exact_steady_state(p)
            infid_g = 1.0 - pair_fidelity(
                gme_steady_state(p).covariance, exact.covariance)
            infid_l = 1.0 - pair_fidelity(
                lme_steady_state(p).covariance, exact.covariance)
            if infid_g >= 1e-4 and infid_l <= 1e-4:
                trigger = (k, infid_g, infid_l)
                break
        ok = trigger is not None
        detail = "no breakdown point found in [1e-5, 1e-3]" if not ok else \
            (f"at k={trigger[0]:.3e}: 1-F(global)={trigger[1]:.3e}, "
             f"1-F(local)={trigger[2]:.3e}")
        report(3, ok, detail)
        assert ok

    def test_04_second_law_and_current_forms(self):
        """Random parameters: global current >= 0 whenever t_h >= t_c,
        exactly zero at t_h = t_c, and the closed form agrees to 1e-12
        with the per-bath form and with the hot dissipator's average on
        the closed-form covariance, built from the oracle's GKLS rates."""
        rng = np.random.default_rng(20240817)
        violations = 0
        worst_rel = 0.0
        worst_eq = 0.0
        for i in range(1000):
            t_c = rng.uniform(0.3, 3.0)
            p = WireParams(
                omega_c=rng.uniform(0.5, 2.0),
                omega_h=rng.uniform(0.5, 2.0),
                k=10.0 ** rng.uniform(-3, 0),
                t_c=t_c,
                t_h=t_c if i % 5 == 0 else rng.uniform(t_c + 0.1, 3.6),
                lambda_sq=10.0 ** rng.uniform(-4, -2),
                cutoff=10.0 ** rng.uniform(1.5, 3.0))
            coeffs = gme_coefficients(p)
            _, qdot_h = gme_heat_currents(p, coeffs)
            _, qdot_h_bath = oracles.gme_heat_currents_per_bath(coeffs)
            gamma_nm = gme_normal_mode_covariance(coeffs)
            rates = oracles.mode_rates(p, coeffs.modes)
            # qdot_h_state = (1/2) sum_s [Delta^h_s (Omega_s^2 <eta_s^2>
            # + <Pi_s^2>) + Omega_s Sigma^h_s], and its gross size
            qdot_h_state = gross = 0.0
            for x, sign, om in zip((0, 2), "+-", coeffs.omegas):
                w_neg, w_pos = rates["h", sign]
                energy = om**2 * gamma_nm[x, x] + gamma_nm[x + 1, x + 1]
                qdot_h_state += 0.5 * ((w_neg - w_pos) * energy
                                       + om * (w_neg + w_pos))
                gross += 0.5 * (abs(w_neg - w_pos) * energy
                                + om * (w_neg + w_pos))
            if p.t_h == p.t_c:
                # all forms must vanish; the dissipator average only up
                # to roundoff on the coupling scale
                worst_eq = max(worst_eq, abs(qdot_h), abs(qdot_h_bath),
                               abs(qdot_h_state) / p.lambda_sq)
            else:
                if qdot_h < 0.0:
                    violations += 1
                # the dissipator average is a difference of per-mode
                # terms; measure the agreement against their gross size
                # so cancellation-limited draws are judged fairly
                scale = max(abs(qdot_h), abs(qdot_h_state), gross)
                worst_rel = max(worst_rel,
                                abs(qdot_h - qdot_h_state) / scale,
                                abs(qdot_h - qdot_h_bath) / abs(qdot_h))
        ok = violations == 0 and worst_eq <= 1e-12 and worst_rel <= 1e-12
        report(4, ok, f"{violations} sign violations, equilibrium current "
               f"{worst_eq:.1e}, worst form disagreement {worst_rel:.3e}")
        assert ok

    def test_05_local_current_reversal(self):
        """Wide-gap wire: the local solution sends heat from cold to hot
        for every k, and its error is bounded by C lambda^2 k."""
        c_frozen = 0.61
        grid = np.logspace(-4, 0, 60)
        all_reversed = True
        worst_ratio = 0.0
        for k in grid:
            p = at_k(FIG1A, k)
            q_local = lme_steady_state(p).qdot_h
            q_exact = exact_steady_state(p).qdot_h
            all_reversed = all_reversed and q_local < 0.0
            worst_ratio = max(worst_ratio, abs(q_local - q_exact)
                              / (p.lambda_sq * k))
        ok = all_reversed and worst_ratio <= c_frozen
        report(5, ok, f"all 60 local currents negative: {all_reversed}, "
               f"max |dQ| / (lambda^2 k) = {worst_ratio:.4f} "
               f"(bound {c_frozen})")
        assert ok

    def test_06_global_current_overestimation(self):
        """Near-degenerate wire at the breakdown point: the global current
        overestimates the exact one by at least a factor of 2."""
        p = at_k(FIG1B, 1e-4)
        q_global = gme_steady_state(p).qdot_h
        q_exact = exact_steady_state(p).qdot_h
        ratio = q_global / q_exact
        ok = ratio >= 2.0
        report(6, ok, f"global/exact current ratio {ratio:.2f} at k=1e-4 "
               f"(needs >= 2)")
        assert ok

    def test_07_strong_coupling_entanglement(self):
        """Resonant wire: global log-negativity approaches the closed-form
        large-k asymptote while the local one saturates."""
        p5 = at_k(FIG2C, 1e5)
        p4 = at_k(FIG2C, 1e4)
        en_global = alone(gaussian.log_negativity,
                          gme_steady_state(p5).covariance)
        asymptote = oracles.strong_coupling_asymptote(p5)
        d_asym = abs(en_global - asymptote)
        en_local5, en_local4 = (
            alone(gaussian.log_negativity, lme_steady_state(p).covariance)
            for p in (p5, p4))
        d_sat = abs(en_local5 - en_local4)
        ok = d_asym <= 0.01 and d_sat <= 0.01
        report(7, ok, f"|E_N(global) - asymptote| = {d_asym:.2e}, "
               f"local saturation gap {d_sat:.2e} (tol 0.01)")
        assert ok

    def test_08_correlation_structure(self):
        """Near-degenerate sweep: the global solution misses the
        position-momentum cross covariance, with the discrepancy peaking
        inside the secular-breakdown window, and its mutual information
        error takes both signs."""
        grid = np.logspace(-5, -1, 13)
        d_gamma, d_info, breakdown = [], [], []
        for k in grid:
            p = at_k(FIG1B, k)
            exact = exact_steady_state(p)
            glob = gme_steady_state(p)
            assert glob.covariance[0, 3] == 0.0
            d_gamma.append(abs(glob.covariance[0, 3]
                               - exact.covariance[0, 3]))
            d_info.append(
                alone(gaussian.mutual_information, glob.covariance)
                - alone(gaussian.mutual_information, exact.covariance))
            fid = pair_fidelity(glob.covariance, exact.covariance)
            breakdown.append(1.0 - fid >= 1e-4)
        peak = int(np.argmax(d_gamma))
        peak_inside = bool(breakdown[peak])
        both_signs = min(d_info) < 0.0 < max(d_info)
        ok = peak_inside and both_signs and d_gamma[peak] > 0.0
        report(8, ok, f"|d Gamma_14| peaks at k={grid[peak]:.3e} "
               f"(value {d_gamma[peak]:.3f}, inside breakdown window: "
               f"{peak_inside}), d I range [{min(d_info):.2e}, "
               f"{max(d_info):.2e}]")
        assert ok

    def test_09_gaussian_toolkit_oracles(self):
        """Entropy and fidelity match frozen Fock-space density-matrix
        references to 1e-6; the closed-form discord minimum is within
        1e-6 of the grid search with a scipy polish."""
        path = DATA_DIR / "fock_reference.json"
        if not path.exists():
            report(9, False, "frozen Fock reference data missing")
            pytest.fail("tests/data/fock_reference.json missing; regenerate "
                        "with tests/generate_reference_states.py")
        doc = json.loads(path.read_text())
        worst_s = max(
            abs(gaussian.StateStack([np.array(state["covariance"])])
                .entropies[0][0] - state["entropy"])
            for state in doc["states"])
        worst_f = max(
            abs(pair_fidelity(np.array(doc["states"][pair["i"]]
                                       ["covariance"]),
                              np.array(doc["states"][pair["j"]]
                                       ["covariance"]))
                - pair["fidelity"])
            for pair in doc["pairs"])
        worst_q = 0.0
        for k in np.logspace(-4, -2, 5):
            gamma = exact_steady_state(at_k(FIG1B, k)).covariance
            closed = gaussian._min_conditional_entropy(
                *gaussian._block_entries(gamma[None], "h").tolist()[0])
            search = oracles.min_conditional_entropy(
                *gaussian._blocks(gamma, "h"))
            worst_q = max(worst_q, abs(closed - search))
        ok = worst_s <= 1e-6 and worst_f <= 1e-6 and worst_q <= 1e-6
        report(9, ok, f"entropy err {worst_s:.2e}, fidelity err "
               f"{worst_f:.2e} over {len(doc['states'])} states, discord "
               f"closed form vs search {worst_q:.2e} (tol 1e-6)")
        assert ok

    def test_10_stationarity_and_physicality(self):
        """Every solver's output is a fixed point of its own dynamics to
        relative 1e-11 (quadrature error below 1e-8 of scale for the
        integral solver) and every covariance is physical."""
        worst_res, worst_quad = 0.0, 0.0
        all_physical = True
        for params in (at_k(FIG1A, 1e-2), at_k(FIG1B, 1e-4),
                       at_k(FIG2C, 10.0)):
            for res in solve_all(params):
                all_physical = all_physical and \
                    gaussian.StateStack([res.covariance]).physical[0]
                if res.method == "exact":
                    scale = np.max(np.abs(res.covariance))
                    worst_quad = max(
                        worst_quad,
                        res.diagnostics["quadrature_error"] / (1e-8 * scale))
                elif res.method == "local":
                    worst_res = max(worst_res,
                                    local_residual(params, res.covariance))
            worst_res = max(worst_res, *closed_form_residuals(params))
        ok = worst_res <= 1e-11 and worst_quad <= 1.0 and all_physical
        report(10, ok, f"worst solver residual {worst_res:.2e} (tol 1e-11), "
               f"quadrature error at {worst_quad:.3f} of its 1e-8 scale "
               f"budget, all physical: {all_physical}")
        assert ok
