"""Gaussian state toolkit against independent density-matrix references."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from qwire import (WireParams, correlation_report, exact_steady_state,
                   gme_steady_state, lme_steady_state, redfield_steady_state,
                   solve_all, sweep)
from qwire import cli, gaussian
import oracles
from conftest import (NEAR_DEGENERATE, RESONANT_STRONG, WIDE_GAP, alone,
                      count_spectra, pair_fidelity, pool_states, with_k)


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


def finite_squeezing_states() -> list:
    """(label, covariance) pairs whose optimal measurement has a finite
    squeezing on both nodes, none of them near the vacuum."""
    out = []
    for name, params in (("fig1a k=0.01", with_k(WIDE_GAP, 0.01)),
                         ("fig1b k=1e-3", with_k(NEAR_DEGENERATE, 1e-3))):
        for solver in (gme_steady_state, lme_steady_state,
                       redfield_steady_state):
            out.append((f"{name} {solver.__name__}",
                        solver(params).covariance))
    out.append(("two-mode squeezed", squeezed_state(0.8, 0.0, 0.0, 0.0,
                                                    (0.9, 0.9))))
    return out


def min_conditional_entropy(gamma, node: str) -> float:
    """The library's minimum of S(A | m): its kernel at its seeds, on the
    floats of a lone state."""
    entries = gaussian._block_entries(gamma[None], node).tolist()[0]
    return float(gaussian._min_conditional_entropy(*entries))


class TestSymplecticEigenvalues:
    def test_against_general_eigensolver(self):
        rng = np.random.default_rng(42)
        jj = gaussian.SYMPLECTIC_FORM
        for _ in range(50):
            gamma = random_physical_covariance(rng)
            closed = gaussian.symplectic_eigenvalues(gamma[None])[0]
            general = np.sort(np.abs(np.linalg.eigvals(
                np.linalg.inv(jj) @ gamma).imag))[::2][::-1]
            assert np.max(np.abs(closed - general)) < 1e-10

    def test_forms_are_read_only_constants(self):
        jj = gaussian.SYMPLECTIC_FORM
        assert not jj.flags.writeable
        assert np.array_equal(jj, np.kron(np.eye(2), [[0.0, 1.0],
                                                      [-1.0, 0.0]]))
        assert np.array_equal(jj @ jj, -np.eye(4))
        with pytest.raises(ValueError):
            jj[0, 1] = 2.0

    def test_single_mode(self):
        """Each mode of a product state is squeezed thermal with nu =
        sqrt(det) = 1: the two-mode spectrum and the node's sqrt(det)."""
        gamma = np.diag([2.0, 0.5, 0.5, 2.0])
        assert gaussian.symplectic_eigenvalues(gamma[None])[0] == \
            pytest.approx([1.0, 1.0])
        assert gaussian._node_nu(2.0, 0.0, 0.0, 0.5) == 1.0

    def test_rejects_wrong_shape(self):
        """Only a stack (m, 4, 4) has spectra: not a lone matrix, 2x2 or
        4x4, and not a stack of 2x2 blocks."""
        for gamma in (np.eye(3), np.eye(2), np.eye(4), np.zeros((3, 2, 2)),
                      np.zeros((2, 3, 4, 4))):
            with pytest.raises(ValueError):
                gaussian.symplectic_eigenvalues(gamma)

    def test_near_pure_state_against_mpmath(self):
        """nu - 1/2 = 1e-10 is resolved to rounding; the invariant
        formula D^2 - 4 det put it at 2.6e-9."""
        mpmath = pytest.importorskip("mpmath")
        gamma = squeezed_state(r=1.2, s_c=0.7, s_h=-0.4, theta=0.3,
                               nus=(0.5 + 2e-8, 0.5 + 1e-10))
        with mpmath.workdps(50):
            jj = mpmath.matrix(gaussian.SYMPLECTIC_FORM.tolist())
            evals = mpmath.eig(jj * mpmath.matrix(gamma.tolist()),
                               left=False, right=False)
            ref = sorted((float(abs(mpmath.im(e)) - mpmath.mpf(0.5))
                          for e in evals), reverse=True)[::2]
        margins = gaussian.symplectic_eigenvalues(gamma[None])[0] - 0.5
        assert ref[1] == pytest.approx(1e-10, rel=1e-4)
        assert np.max(np.abs(margins - ref)) < 1e-14

    def test_not_positive_definite_has_no_spectrum(self):
        # -0.6 I has the symplectic invariants of 0.6 I
        for gamma, kind in ((-0.6 * np.eye(4), "positive definite"),
                            (np.diag([1.0, 1.0, -1.0, 1.0]),
                             "positive definite"),
                            (np.full((4, 4), np.nan), "finite"),
                            (np.diag([1.0, np.inf, 1.0, 1.0]), "finite")):
            assert not gaussian.symplectic_eigenvalues(gamma[None]).any()
            stack = gaussian.StateStack([gamma])
            assert not stack.physical[0]
            assert stack.reasons[0] == f"covariance is not {kind}"
            assert math.isnan(alone(gaussian.mutual_information, gamma))
            with pytest.raises(gaussian.NonPhysicalStateError,
                               match=f"^covariance is not {kind}$"):
                stack.check(0)

    def test_stack_is_taken_in_one_call_and_never_raises(self):
        """A stack's spectra are its matrices' one at a time, bit for bit,
        and a matrix without a spectrum leaves its neighbours alone."""
        rng = np.random.default_rng(3)
        stack = np.array([random_physical_covariance(rng) for _ in range(7)])
        stack[2] = -0.6 * np.eye(4)
        stack[5, 0, 0] = np.nan
        nus = gaussian.symplectic_eigenvalues(stack)
        assert nus.shape == (7, 2)
        for gamma, nu in zip(stack, nus):
            assert gaussian.symplectic_eigenvalues(gamma[None]).tobytes() \
                == nu.tobytes()
        assert np.all(nus[[2, 5]] == 0.0) and np.all(nus[[0, 1, 3, 4, 6]] > 0)

    @seed(19)
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-20.0, 20.0),
           st.floats(-20.0, 20.0), st.floats(0.0, 20.0))
    def test_local_scaling_keeps_both_spectra(self, state_seed, log_s, log_t,
                                              log_noise):
        """nu(S G S) = nu(G), for the state and its partial transpose, with
        the local symplectic S = diag(s, 1/s, t, 1/t) and s, t over
        10^+-20, within 8 eps / _RESOLVED relative: eigvalsh's error
        eps nu_max is at most eps nu_min / _RESOLVED where it gives nu_min.
        Thermal noise up to 1e20 on one node spreads nu_max / nu_min up to
        about 1e20; eigvalsh alone missed nu_min there by up to 1e10 eps."""
        rng = np.random.default_rng(state_seed)
        gamma = random_physical_covariance(rng, mix=rng.uniform(0.01, 2.0))
        node = 2 * rng.integers(0, 2)
        gamma[[node, node + 1], [node, node + 1]] += 10.0**log_noise
        s, t = 10.0**log_s, 10.0**log_t
        scale = np.diag([s, 1.0 / s, t, 1.0 / t])
        stack = gaussian.StateStack([gamma, scale @ gamma @ scale])
        bound = 8.0 * np.finfo(float).eps / gaussian._RESOLVED
        for nus in (stack.nus, stack.transposed_nus):
            assert np.max(np.abs(nus[1] / nus[0] - 1.0)) <= bound


class TestPhysicality:
    def test_vacuum_is_physical(self):
        assert gaussian.StateStack([0.5 * np.eye(4)]).physical[0]

    def test_below_bound_raises(self):
        """A state below the bound is NaN in every measure; its check and
        its correlation report raise."""
        gamma = 0.4 * np.eye(4)
        stack = gaussian.StateStack([gamma])
        assert not stack.physical[0]
        assert all(math.isnan(alone(measure, gamma)) for measure in
                   (gaussian.mutual_information, gaussian.gaussian_discord,
                    gaussian.log_negativity))
        with pytest.raises(gaussian.NonPhysicalStateError):
            stack.check(0)
        with pytest.raises(gaussian.NonPhysicalStateError):
            correlation_report(gamma, 0.5 * np.eye(4))

    def test_roundoff_below_half_is_clamped(self):
        stack = gaussian.StateStack([(0.5 - 1e-12) * np.eye(4)])
        assert stack.physical[0]
        assert stack.entropies[0][0] == 0.0

    def test_error_reports_margin(self):
        for scale, margin in ((0.4, "-1.000e-01"), (0.5 - 3e-9, "-3.000e-09")):
            stack = gaussian.StateStack([scale * np.eye(4)])
            assert stack.reasons[0] == \
                f"smallest symplectic eigenvalue below 1/2: " \
                f"nu_min - 1/2 = {margin}"
            with pytest.raises(gaussian.NonPhysicalStateError,
                               match=f"nu_min - 1/2 = {margin}$"):
                stack.check(0)

    def test_low_temperature_model_states(self):
        """fig1a at t_c = 0.01: the global and Redfield states sit within
        rounding of the vacuum bound and must not be rejected."""
        params = WireParams(1.0, 2.0, 0.01, 0.01, 0.015, 1e-3, 1e3)
        for solver in (gme_steady_state, redfield_steady_state):
            stack = gaussian.StateStack([solver(params).covariance])
            assert stack.physical[0]
            assert abs(stack.nus[0, -1] - 0.5) < 1e-12


def fig1a_sweep_states() -> np.ndarray:
    """The fig1a sweep's 240 model states, in the one stack that
    `qwire sweep` measures."""
    args = cli.build_parser().parse_args(["sweep", "--scenario", "fig1a"])
    scenario = cli.resolve_scenario(args, {}, need_grid=True)
    rows = sweep(scenario.params, scenario.axis, scenario.grid)
    return np.array([res.covariance for row in rows for res in row.results])


class TestStateStack:
    def test_report_takes_one_spectrum(self, monkeypatch):
        """The state, the exact state and the state's partial transpose in
        one call, and no other: the node entropies and the fidelity's
        det(G + iJ/2) follow from it."""
        results = solve_all(with_k(WIDE_GAP, 0.01))
        spectra = count_spectra(monkeypatch)
        correlation_report(results[0].covariance, results[-1].covariance)
        assert spectra == [(3, 4, 4)]

    def test_report_equals_the_standalone_measures(self):
        """Shared spectra change no bit of any measure, and a report
        fails exactly when the fidelity of the two states is NaN."""
        for state_id, gamma, exact in pool_states():
            measures = (alone(gaussian.mutual_information, gamma),
                        pair_fidelity(gamma, exact),
                        alone(gaussian.log_negativity, gamma))
            for node in "ch":
                if math.isnan(measures[1]):
                    with pytest.raises(gaussian.NonPhysicalStateError):
                        correlation_report(gamma, exact, node)
                    continue
                report = correlation_report(gamma, exact, node)
                mi, fid, log_neg = measures
                q = alone(gaussian.gaussian_discord, gamma, node)
                assert (report.mutual_information, report.discord_arrow,
                        report.classical_arrow, report.fidelity_to_exact,
                        report.log_negativity) == \
                    (mi, q, max(mi - q, 0.0), fid, log_neg), (state_id, node)

    def test_labels_lead_the_reasons_of_failed_states(self):
        """Each failed state has its own reason, led by its label, and
        raises it on every check; it is NaN in every measure, and so is
        the fidelity of every state whose partner it is."""
        covs = [0.5 * np.eye(4), 0.4 * np.eye(4), np.full((4, 4), np.nan),
                -0.6 * np.eye(4), 0.7 * np.eye(4)]
        labels = ["vacuum: ", "exact state: ", "failed: ", "negative: ", ""]
        stack = gaussian.StateStack(covs, labels)
        assert stack.reasons == [
            None,
            "exact state: smallest symplectic eigenvalue below 1/2: "
            "nu_min - 1/2 = -1.000e-01",
            "failed: covariance is not finite",
            "negative: covariance is not positive definite", None]
        assert stack.physical.tolist() == [True, False, False, False, True]
        for _ in range(2):
            with pytest.raises(gaussian.NonPhysicalStateError,
                               match="^exact state: smallest symplectic"):
                stack.check(1)
        stack.check(0)
        for values in (gaussian.mutual_information(stack),
                       gaussian.gaussian_discord(stack),
                       gaussian.log_negativity(stack)):
            assert np.isnan(values).tolist() == [False, True, True, True,
                                                 False]
        fid = gaussian.fidelity(stack, [4, 1, 0, 0, 0])
        assert np.isnan(fid).tolist() == [False, True, True, True, False]
        assert fid[0] == pair_fidelity(covs[0], covs[4])
        with pytest.raises(gaussian.NonPhysicalStateError,
                           match="^smallest symplectic"):
            correlation_report(0.5 * np.eye(4), 0.4 * np.eye(4))

    def test_partial_transpose_is_a_sign_flip(self):
        """The partial transposes P G P, P = diag(1, -1, 1, 1), that the
        stack forms by flipping the signs of G's cold momentum row and
        column have the spectra of the matrix products, bit for bit, on
        the 448 pool states and on the fig1a sweep's 240 model states."""
        p = np.diag([1.0, -1.0, 1.0, 1.0])
        pool = np.array([gamma for _, gamma, _ in pool_states()])
        for covs in (pool, fig1a_sweep_states()):
            stack = gaussian.StateStack(covs)
            m = stack.measured
            expected = gaussian.symplectic_eigenvalues(p @ covs[:m] @ p)
            assert stack.transposed_nus.tobytes() == expected.tobytes()

    def test_rejects_wrong_shape(self):
        for covs in (np.eye(4), np.zeros((2, 2, 2)), np.zeros((3, 4, 3))):
            with pytest.raises(ValueError):
                gaussian.StateStack(covs)


@st.composite
def mixed_covariances(draw) -> np.ndarray:
    """A physical, near-pure, below-the-bound (some within round-off of
    it, which passes), not positive definite or not finite matrix."""
    kind = draw(st.sampled_from(["physical", "near pure", "below 1/2",
                                 "not positive definite", "not finite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rng.uniform(0.0, 1.5), *rng.uniform(-0.8, 0.8, 2),
             rng.uniform(0.0, math.pi))
    if kind == "near pure":
        return squeezed_state(*shape, 0.5 + 10.0**-rng.uniform(3, 12, 2))
    if kind == "below 1/2":
        return squeezed_state(*shape, (rng.uniform(0.5, 3.0),
                                       0.5 - 10.0**-rng.uniform(1, 11)))
    gamma = random_physical_covariance(rng, mix=rng.uniform(0.01, 2.0))
    if kind == "not positive definite":
        gamma[2, 2] = -gamma[2, 2]
    elif kind == "not finite":
        i, j = rng.integers(0, 4, 2)
        gamma[i, j] = gamma[j, i] = rng.choice([np.nan, np.inf, -np.inf])
    return gamma


@st.composite
def stacks(draw) -> tuple:
    """(covariances, partner indices) of a stack of 1 to 50 states."""
    n = draw(st.integers(1, 50))
    covs = draw(st.lists(mixed_covariances(), min_size=n, max_size=n))
    return covs, draw(st.lists(st.integers(0, n - 1), min_size=n,
                               max_size=n))


def bits(value) -> bytes:
    return np.float64(value).tobytes()


#: a state that is not finite and one that is not positive definite, whose
#: hot node's determinant is negative, with a physical state for partner
FAILED_STATES = ([np.diag([1.0, np.inf, 1.0, 1.0]),
                  np.diag([1.0, 1.0, -1.0, 1.0]), 0.7 * np.eye(4)],
                 [2, 2, 0])


class TestStackInvariance:
    @seed(17)
    @settings(max_examples=100, deadline=None)
    @given(stacks())
    @example(FAILED_STATES)
    def test_each_state_measures_as_if_alone(self, stack_draw):
        """Every state's measures and reason in a stack of n are bit for
        bit those of the state in a stack of its own (with its partner for
        the fidelity) and of its correlation report, on both nodes; a
        failed state is NaN with its own reason, which its check and its
        report raise; no numpy warning escapes."""
        covs, partners = stack_draw
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = gaussian.StateStack(covs)
            measures = {"mutual_information":
                        gaussian.mutual_information(stack),
                        "log_negativity": gaussian.log_negativity(stack),
                        "fidelity_to_exact": gaussian.fidelity(stack,
                                                               partners)}
            discord = {node: gaussian.gaussian_discord(stack, node)
                       for node in "ch"}
            for i, (gamma, partner) in enumerate(zip(covs, partners)):
                self.compare_alone(stack, i, gamma, covs[partner], measures,
                                   discord)

    @staticmethod
    def compare_alone(stack, i, gamma, partner, measures, discord):
        reason = stack.reasons[i]
        own = gaussian.StateStack([gamma])
        assert own.reasons == [reason]
        single = {"mutual_information":
                  lambda g: alone(gaussian.mutual_information, g),
                  "log_negativity":
                  lambda g: alone(gaussian.log_negativity, g),
                  "fidelity_to_exact": lambda g: pair_fidelity(g, partner)}
        if reason is not None:
            assert all(math.isnan(v[i]) for v in
                       (*measures.values(), *discord.values()))
            assert all(math.isnan(measure(gamma))
                       for measure in single.values())
            assert all(math.isnan(alone(gaussian.gaussian_discord, gamma,
                                        node)) for node in "ch")
            match = f"^{re.escape(reason)}$"
            with pytest.raises(gaussian.NonPhysicalStateError, match=match):
                own.check(0)
            with pytest.raises(gaussian.NonPhysicalStateError, match=match):
                correlation_report(gamma, partner)
            return
        partner_reason = gaussian.StateStack([partner]).reasons[0]
        if partner_reason is not None:
            assert math.isnan(measures["fidelity_to_exact"][i])
            with pytest.raises(gaussian.NonPhysicalStateError,
                               match=f"^{re.escape(partner_reason)}$"):
                correlation_report(gamma, partner)
            assert math.isnan(pair_fidelity(gamma, partner))
            del single["fidelity_to_exact"]
        for key, measure in single.items():
            assert bits(measures[key][i]) == bits(measure(gamma)), key
        for node in "ch":
            q = alone(gaussian.gaussian_discord, gamma, node)
            assert bits(discord[node][i]) == bits(q)
            if partner_reason is not None:
                continue
            report = correlation_report(gamma, partner, node)
            assert [bits(getattr(report, key)) for key in measures] == \
                [bits(v[i]) for v in measures.values()]
            assert bits(report.discord_arrow) == bits(q)


#: a product state, whose finite-squeezing candidate is 0/0 = NaN, a
#: state below the bound and the vacuum
MODE_EDGES = [np.diag([1.0, 1.0, 2.0, 2.0]), 0.4 * np.eye(4),
              0.5 * np.eye(4)]


class TestEvaluationModes:
    """gaussian_discord measures up to _MAX_SCALAR states one by one on
    floats, and a larger stack on arrays, with the same bits."""

    @staticmethod
    def array_stacks(monkeypatch) -> list:
        """A list that grows by the stack size at each array evaluation."""
        sizes = []
        chain = gaussian._min_conditional_entropy

        def counted(a, b, c, d):
            if isinstance(a, np.ndarray):
                sizes.append(a.shape[-1])
            return chain(a, b, c, d)
        monkeypatch.setattr(gaussian, "_min_conditional_entropy", counted)
        return sizes

    @staticmethod
    def assert_stack_equals_each_state_alone(covs, measured=None):
        stack = gaussian.StateStack(covs, measured=measured)
        for node in "ch":
            lone = [alone(gaussian.gaussian_discord, g, node)
                    for g in covs[:measured]]
            assert gaussian.gaussian_discord(stack, node).tobytes() == \
                np.array(lone).tobytes()
        return stack

    def test_pool_alone_equals_the_pool_stack(self, monkeypatch):
        """Each of the 448 pool states measured alone is bit for bit the
        same state in one stack of all of them, on both nodes."""
        sizes = self.array_stacks(monkeypatch)
        covs = np.array([gamma for _, gamma, _ in pool_states()])
        stack = self.assert_stack_equals_each_state_alone(covs)
        assert len(covs) == 448 and sizes == [stack.physical.sum()] * 2

    def test_sweep_stack_equals_each_state_alone(self, monkeypatch):
        """The fig1a sweep's 240 model states, in the one stack that
        `qwire sweep` measures, give each state's discord alone, bit for
        bit, on both nodes; the pool holds frozen states only."""
        covs = fig1a_sweep_states()
        sizes = self.array_stacks(monkeypatch)
        stack = self.assert_stack_equals_each_state_alone(covs)
        assert len(covs) == 240 and sizes == [stack.physical.sum()] * 2

    def test_stacks_either_side_of_the_threshold(self, monkeypatch):
        """Stacks of exactly 4 and 5 measured states, with a product and a
        non-physical state, give each state's discord alone, and no numpy
        warning; only the stacks of 5 take arrays."""
        assert gaussian._MAX_SCALAR == 4
        sizes = self.array_stacks(monkeypatch)
        pool = [gamma for _, gamma, _ in pool_states()[440:]]
        for covs, measured in ((MODE_EDGES + pool[:2], 4),
                               (MODE_EDGES[:2] + pool[:3], 5),
                               (pool[3:8], 5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.assert_stack_equals_each_state_alone(covs, measured)
        assert sizes == [4, 4, 5, 5]


class TestEntropy:
    """A stack's entropies: S(G_ch) from the two-mode spectrum, and each
    node's S(G_c), S(G_h) from sqrt(det) of its block."""

    def test_thermal_closed_form(self):
        """Each node thermal, at n = 1.7 and 0.3: the node entries match
        the closed form and add up to the two-mode one."""
        ns = (1.7, 0.3)
        gamma = np.diag([ns[0] + 0.5] * 2 + [ns[1] + 0.5] * 2)
        s, s_c, s_h = gaussian.StateStack([gamma]).entropies
        expected = [(n + 1) * math.log(n + 1) - n * math.log(n) for n in ns]
        assert s_c[0] == pytest.approx(expected[0], rel=1e-12)
        assert s_h[0] == pytest.approx(expected[1], rel=1e-12)
        assert s[0] == pytest.approx(sum(expected), rel=1e-12)

    def test_pure_state_has_zero_entropy(self):
        entropies = gaussian.StateStack([0.5 * np.eye(4)]).entropies
        assert [s[0] for s in entropies] == [0.0] * 3

    def test_frozen_fock_reference(self, fock_reference):
        for state in fock_reference["states"]:
            # dim 44 -> 60 difference; the dim-60 error itself is far
            # smaller (exponential convergence)
            assert state["entropy_truncation_delta"] < 1e-5
            gamma = np.array(state["covariance"])
            assert gaussian.StateStack([gamma]).entropies[0][0] == \
                pytest.approx(state["entropy"], abs=1e-6)


class TestFidelity:
    def test_identity_and_symmetry(self):
        rng = np.random.default_rng(1)
        g1 = random_physical_covariance(rng)
        g2 = random_physical_covariance(rng)
        stack = gaussian.StateStack([g1, g2])
        same = gaussian.fidelity(stack, [0, 1])
        f12, f21 = gaussian.fidelity(stack, [1, 0])
        assert same == pytest.approx([1.0, 1.0], abs=1e-9)
        assert f12 == pytest.approx(f21, rel=1e-10)
        assert 0.0 < f12 <= 1.0

    def test_state_within_round_off_below_the_bound(self):
        """A state that the check lets sit 1e-10 below nu = 1/2 has a
        fidelity: the negative det(G + iJ/2) under its square root is
        clamped to zero."""
        gamma = squeezed_state(0.8, 0.3, -0.2, 0.4, (1.2, 0.5 - 1e-10))
        partner = random_physical_covariance(np.random.default_rng(2))
        assert gaussian.StateStack([gamma]).physical[0]
        for f in gaussian.fidelity(gaussian.StateStack([gamma, partner]),
                                   [1, 0]):
            assert 0.0 < f <= 1.0

    def test_thermal_pair_from_fock_reference(self, fock_reference):
        th = fock_reference["thermal"]
        assert th["fidelity_truncation_delta"] < 1e-8
        f = pair_fidelity(np.array(th["covariance_1"]),
                          np.array(th["covariance_2"]))
        assert f == pytest.approx(th["fidelity"], abs=1e-6)

    def test_frozen_fock_reference_pairs(self, fock_reference):
        states = fock_reference["states"]
        for pair in fock_reference["pairs"]:
            assert pair["fidelity_truncation_delta"] < 1e-6
            g1 = np.array(states[pair["i"]]["covariance"])
            g2 = np.array(states[pair["j"]]["covariance"])
            assert pair_fidelity(g1, g2) == pytest.approx(pair["fidelity"],
                                                          abs=1e-6)


class TestMutualInformation:
    def test_product_state_has_none(self):
        gamma = np.diag([1.0, 1.0, 2.0, 2.0])
        assert alone(gaussian.mutual_information, gamma) == pytest.approx(
            0.0, abs=1e-12)

    def test_dual_entropy_path(self):
        """Recompute I from eigensolver-based symplectic spectra."""
        gamma = gme_steady_state(with_k(NEAR_DEGENERATE, 1e-2)).covariance
        jj = gaussian.SYMPLECTIC_FORM

        def entropy_eig(g):
            n = g.shape[0] // 2
            nus = np.sort(np.abs(np.linalg.eigvals(
                np.linalg.inv(jj[:2 * n, :2 * n]) @ g).imag))[::2]
            return sum((nu + .5) * math.log(nu + .5)
                       - (nu - .5) * math.log(nu - .5)
                       for nu in nus if nu > 0.5 + 1e-12)

        alt = (entropy_eig(gamma[:2, :2]) + entropy_eig(gamma[2:, 2:])
               - entropy_eig(gamma))
        assert alone(gaussian.mutual_information, gamma) == pytest.approx(
            alt, rel=1e-9, abs=1e-12)


class TestDiscord:
    def test_product_state_has_none(self):
        gamma = np.diag([1.0, 1.0, 2.0, 2.0])
        for node in "ch":
            assert alone(gaussian.gaussian_discord, gamma, node) == 0.0

    def test_uncoupled_and_vacuum_node_have_none(self):
        """The uncoupled exact state, and a vacuum measured node, where
        det B = 1/4 zeroes the leading coefficient of the
        finite-squeezing quadratic."""
        exact_k0 = exact_steady_state(with_k(WIDE_GAP, 0.0)).covariance
        vacuum_h = np.diag([1.0, 1.0, 0.5, 0.5])
        for gamma in (exact_k0, vacuum_h):
            for node in "ch":
                assert alone(gaussian.gaussian_discord, gamma, node) == 0.0

    def test_pure_two_mode_squeezed_state(self):
        """On a pure state Q = S(B), the entanglement entropy."""
        gamma = squeezed_state(0.8, 0.3, -0.2, 0.4, (0.5, 0.5))
        _, s_c, s_h = gaussian.StateStack([gamma]).entropies
        for node, s_b in (("c", s_c[0]), ("h", s_h[0])):
            assert alone(gaussian.gaussian_discord, gamma, node) == \
                pytest.approx(s_b, rel=1e-12)

    def test_matches_adesso_datta_closed_form(self):
        """The kernel at the closed-form seed against 60 digits of the
        Adesso-Datta minimum, on the float covariance."""
        pytest.importorskip("mpmath")
        worst = 0.0
        for label, gamma in finite_squeezing_states():
            for node in "ch":
                a, b, c = gaussian._blocks(gamma, node)
                assert gaussian._node_nu(*b.ravel()) - 0.5 > 1e-3, label
                ref = oracles.adesso_datta_min_entropy(a, b, c)
                worst = max(worst,
                            abs(min_conditional_entropy(gamma, node) - ref))
        assert worst <= 1e-14

    def test_refinement_convergence(self):
        """The closed form against the grid search with a scipy polish,
        within the search's own refinement shift."""
        gamma = exact_steady_state(with_k(NEAR_DEGENERATE, 1e-3)).covariance
        for node in "ch":
            search = oracles.min_conditional_entropy(
                *gaussian._blocks(gamma, node))
            assert abs(min_conditional_entropy(gamma, node) - search) <= 1e-6

    def test_pool_is_bounded_by_mutual_information(self):
        """I >= Q >= 0 on both nodes of every physical pool state."""
        bad = []
        for state_id, gamma, _ in pool_states():
            if not gaussian.StateStack([gamma]).physical[0]:
                continue
            i = alone(gaussian.mutual_information, gamma)
            for node in "ch":
                q = alone(gaussian.gaussian_discord, gamma, node)
                if not 0.0 <= q <= i * (1 + 1e-6) + 1e-12:
                    bad.append((state_id, node, q, i))
        assert bad == []

    def test_bounded_by_mutual_information(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            gamma = random_physical_covariance(rng)
            q = alone(gaussian.gaussian_discord, gamma)
            i = alone(gaussian.mutual_information, gamma)
            assert -1e-10 <= q <= i + 1e-9
            c = correlation_report(gamma, gamma).classical_arrow
            assert c == pytest.approx(i - q, abs=1e-9)

    def test_measured_node_selects_block(self):
        rng = np.random.default_rng(9)
        gamma = random_physical_covariance(rng)
        qc, qh = (alone(gaussian.gaussian_discord, gamma, node)
                  for node in "ch")
        assert qc != pytest.approx(qh, abs=1e-12)
        with pytest.raises(ValueError):
            gaussian.gaussian_discord(gaussian.StateStack([gamma]),
                                      measured_node="x")


class TestLogNegativity:
    def test_product_state_is_separable(self):
        assert alone(gaussian.log_negativity, np.diag([1., 1., 2., 2.])) == 0.0

    def test_squeezed_thermal_state(self):
        # symmetric squeezed thermal state: the partially transposed
        # symplectic eigenvalues are f e^(+-2r), so E_N = 2r - ln(2f)
        r, f = 0.8, 0.55
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        gamma = f * np.array([[ch, 0, sh, 0], [0, ch, 0, -sh],
                              [sh, 0, ch, 0], [0, -sh, 0, ch]])
        expected = 2 * r - math.log(2 * f)
        assert alone(gaussian.log_negativity, gamma) == pytest.approx(
            expected, rel=1e-10)


class TestStrongCouplingAsymptote:
    def test_requires_resonance_and_coupling(self):
        with pytest.raises(ValueError):
            oracles.strong_coupling_asymptote(
                WireParams(1.0, 2.0, 1.0, 1.0, 2.0, 1e-3, 1e3))
        with pytest.raises(ValueError):
            oracles.strong_coupling_asymptote(
                WireParams(1.0, 1.0, 0.0, 1.0, 2.0, 1e-3, 1e3))

    def test_matches_global_solution_at_large_k(self):
        params = with_k(RESONANT_STRONG, 1e5)
        e_n = alone(gaussian.log_negativity,
                    gme_steady_state(params).covariance)
        asym = oracles.strong_coupling_asymptote(params)
        assert abs(e_n - asym) < 1e-2
