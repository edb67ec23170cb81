"""Exact Langevin solver: kernel identities, tails, cross-method checks,
the equal-temperature state against Matsubara sums, the whole state
against the pole and digamma sum of exact_covariance_mpmath, an
independent time-domain oracle with explicitly discretized baths, and
the batched quadrature replay against quad_vec evaluating node by
node."""

import dataclasses
import functools
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from qwire import (WireParams, exact_steady_state, exact_steady_states,
                   redfield_steady_state, spectral_density)
from qwire.exact import _Kernel, _breakpoints, _chi, _gk21, _integrand_matrix
from qwire import exact, gaussian
from check_exact_pool import pool_mismatches
from conftest import (NEAR_DEGENERATE, RESONANT_STRONG, WIDE_GAP, lone_replay,
                      swapped, trace_replays, with_k)
from oracles import (chi_hat, equilibrium_covariance_mpmath,
                     exact_covariance_mpmath, integrand_probe,
                     per_node_exact_integral)

#: a low-temperature benchmark pool point whose breakpoints
#: 1.1521177586249618 and 1.152117758624962 nearly coincide, so that
#: quad_vec asks for some nodes more than once
POOL_POINT_2 = WireParams(omega_c=1.0, omega_h=2.0, k=1.5576718272687372e-08,
                          t_c=0.013685095221867246, t_h=0.026062900051957733,
                          lambda_sq=0.0003273753141622878, cutoff=1000.0)

BATCH_CASES = {
    "fig1a k=0.01": with_k(WIDE_GAP, 0.01),
    "fig1b k=1e-4": with_k(NEAR_DEGENERATE, 1e-4),
    "fig1a t_c=0.01": dataclasses.replace(with_k(WIDE_GAP, 0.01), t_c=0.01),
    "fig2c k=1e5": with_k(RESONANT_STRONG, 1e5),
    "pool point 2": POOL_POINT_2,
}

#: equal bath temperatures, the Gibbs state of the wire and its baths,
#: with a bath memory strong enough to shift every covariance
EQUILIBRIUM = WireParams(omega_c=1.0, omega_h=2.0, k=0.3, t_c=1.5, t_h=1.5,
                         lambda_sq=0.05, cutoff=20.0)

#: overrides of qwire.exact's quadrature constants under which the replay
#: does not converge at fig1a k=0.01: limit=8 stops before the first round;
#: limit=150 at an unreachable rel_tol stops after rounds that pop the full
#: 128 intervals; rel_tol=1e-15 alone ends on quad_vec's rounding-error
#: test at fig1b k=1e-4
NON_CONVERGENCE_SPECS = {
    "limit=8": {"_LIMIT": 8},
    "limit=150": {"_REL_TOL": 1e-15, "_LIMIT": 150},
    "rel_tol=1e-15": {"_REL_TOL": 1e-15},
}


def override_constants(monkeypatch, spec_name: str) -> None:
    """Set qwire.exact's constants to NON_CONVERGENCE_SPECS[spec_name]
    for one test."""
    for name, value in NON_CONVERGENCE_SPECS[spec_name].items():
        monkeypatch.setattr(exact, name, value)


class TestDissipationKernel:
    def test_imaginary_part_is_spectral_density(self):
        p = WIDE_GAP
        w = np.linspace(-3e3, 3e3, 13)
        assert np.allclose(chi_hat(w, p).imag, spectral_density(w, p),
                           rtol=1e-12)

    def test_real_part_at_cutoff(self):
        p = WIDE_GAP
        assert chi_hat(p.cutoff, p).real == pytest.approx(
            p.lambda_sq * p.cutoff / 2.0, rel=1e-12)

    def test_kramers_kronig(self):
        """Re chi(w0) must equal the principal-value transform of Im chi.

        The pole is removed by subtraction (the subtracted term has zero
        principal value on the half line) and the half line is compactified
        with w = cutoff tan(u) so the slow 1/w^2 tail is integrated fully.
        """
        p = WIDE_GAP
        w0 = p.cutoff
        j0 = spectral_density(w0, p)

        def integrand(u):
            w = p.cutoff * math.tan(u)
            jacobian = p.cutoff / math.cos(u)**2
            return jacobian * (spectral_density(w, p) * w - j0 * w0) \
                / (w**2 - w0**2)

        val, _ = quad(integrand, 0.0, math.pi / 2,
                      points=[math.atan2(w0, p.cutoff)], limit=400,
                      epsabs=1e-13, epsrel=1e-11)
        re_chi = (2.0 / math.pi) * val
        assert re_chi == pytest.approx(chi_hat(w0, p).real, rel=1e-6)

    def test_solver_kernel_is_the_oracle(self):
        """The solver's private kernel rounds as the oracle's formula."""
        p = WIDE_GAP
        w = np.linspace(0.0, 3e3, 13)
        assert _chi(w, _Kernel.of([p])).tobytes() == chi_hat(w, p).tobytes()

    def test_frequency_shift(self):
        """The nodes' frequencies squared plus lambda^2 cutoff, the
        bath-induced shift."""
        p = WIDE_GAP
        kernel = _Kernel.of([p])
        assert (kernel.shifted_c, kernel.shifted_h) == pytest.approx(
            (p.omega_c**2 + p.lambda_sq * p.cutoff,
             p.omega_h**2 + p.lambda_sq * p.cutoff))


class TestIntegrandTails:
    def test_position_tail_slope(self):
        """Position-position integrands fall off like w^-5 beyond the
        cutoff (one w^-4 from the response, w^-2 from the noise, times the
        linear coth growth)."""
        p = with_k(WIDE_GAP, 0.1)
        w = np.logspace(math.log10(50 * p.cutoff), math.log10(500 * p.cutoff),
                        9)
        vals = np.array([integrand_probe(x, 0, 0, p) for x in w])
        slope = np.polyfit(np.log(w), np.log(np.abs(vals)), 1)[0]
        assert slope == pytest.approx(-5.0, abs=0.05)

    def test_momentum_tail_slope(self):
        p = with_k(WIDE_GAP, 0.1)
        w = np.logspace(math.log10(50 * p.cutoff), math.log10(500 * p.cutoff),
                        9)
        vals = np.array([integrand_probe(x, 1, 1, p) for x in w])
        slope = np.polyfit(np.log(w), np.log(np.abs(vals)), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.05)


class TestSteadyState:
    def test_quadrature_error_is_small(self):
        res = exact_steady_state(with_k(WIDE_GAP, 0.1))
        scale = np.max(np.abs(res.covariance))
        assert res.diagnostics["quadrature_error"] < 1e-8 * scale
        assert gaussian.StateStack([res.covariance]).physical[0]

    def test_same_node_cross_covariances_vanish(self):
        """<X_c P_c> and <X_h P_h> are +0.0, sign included, at every
        BATCH_CASES point, alone and in one lockstep batch."""
        cases = [with_k(WIDE_GAP, 0.1), *BATCH_CASES.values()]
        lone = [exact_steady_state(params) for params in cases]
        for result in lone + exact_steady_states(cases):
            gamma = result.covariance
            assert [gamma[0, 1].hex(), gamma[2, 3].hex()] == \
                ["0x0.0p+0"] * 2

    def test_label_swap_symmetry(self):
        p = with_k(WIDE_GAP, 0.2)
        res = exact_steady_state(p)
        res_swapped = exact_steady_state(swapped(p))
        perm = np.zeros((4, 4))
        perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
        assert np.allclose(res_swapped.covariance,
                           perm @ res.covariance @ perm.T,
                           rtol=1e-9, atol=1e-12)
        assert res_swapped.qdot_h == pytest.approx(res.qdot_c, rel=1e-8)

    def test_equilibrium_current_vanishes(self):
        p = WireParams(1.0, 1.4, 0.3, 2.0, 2.0, 1e-3, 1e3)
        res = exact_steady_state(p)
        scale = np.max(np.abs(res.covariance))
        assert abs(res.qdot_h) < 1e-10 * scale

    def test_current_matches_redfield_in_born_markov_regime(self):
        params = with_k(NEAR_DEGENERATE, 1e-2)
        q_exact = exact_steady_state(params).qdot_h
        q_red = redfield_steady_state(params).qdot_h
        assert q_exact > 0.0
        assert q_exact == pytest.approx(q_red, rel=1e-3)

    def test_current_sign_flips_with_gradient(self):
        p = WireParams(1.0, 1.3, 0.4, 1.6, 0.8, 0.05, 50.0)
        assert exact_steady_state(p).qdot_h < 0.0

    def test_heat_current_from_covariance(self):
        """The currents are the bond's, read off the solver's own
        covariance bit for bit: Gamma_14 is 0.0 - Gamma_23, so both bond
        forms agree, and Qdot_h = k Gamma_23 and Qdot_c = -Qdot_h.  At a
        wide gap, at k = 0 and at resonant nodes."""
        for params in (with_k(WIDE_GAP, 0.01), with_k(WIDE_GAP, 0.0),
                       RESONANT_STRONG):
            res = exact_steady_state(params)
            gamma = res.covariance
            assert float(gamma[0, 3]).hex() == \
                (0.0 - float(gamma[1, 2])).hex()
            q = params.k * float(gamma[1, 2])
            assert [float(x).hex() for x in res.heat_currents] == \
                [(-q).hex(), q.hex()]


class TestEquilibriumMatsubara:
    """At equal temperatures the exact state is the Gibbs state, whose
    covariance the Matsubara sums of equilibrium_covariance_mpmath give
    with no quadrature and no code of the solver."""

    @pytest.fixture(scope="class")
    def pair(self):
        return (exact_steady_state(EQUILIBRIUM),
                equilibrium_covariance_mpmath(EQUILIBRIUM))

    def test_within_the_error_estimate(self, pair):
        """Every X-X and X-P entry, and P_c-P_h, within the solver's own
        quadrature_error."""
        res, oracle = pair
        tol = res.diagnostics["quadrature_error"]
        for i, j in ((0, 0), (0, 2), (2, 2), (0, 1), (0, 3), (1, 2), (2, 3),
                     (1, 3)):
            assert abs(res.covariance[i, j] - oracle[i, j]) <= tol, (i, j)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the quadrature "
                       "stops at 100 cutoff and drops lambda^2/(2 pi 1e4) "
                       "of each <P_a^2>")
    def test_momentum_variances(self, pair):
        res, oracle = pair
        tol = res.diagnostics["quadrature_error"]
        for i in (1, 3):
            assert abs(res.covariance[i, i] - oracle[i, i]) <= tol, i


#: points of the replay against the pole oracle: a wide gap, resonant
#: nodes at strong coupling, and near-degenerate nodes at T/omega = 0.05
ORACLE_POINTS = {
    "wide gap": with_k(WIDE_GAP, 0.1),
    "resonant k=1e3": RESONANT_STRONG,
    "near-degenerate low T": dataclasses.replace(NEAR_DEGENERATE, t_c=0.05,
                                                 t_h=0.1),
}


@functools.cache
def replay_and_oracle(name: str) -> tuple:
    """The replay's result at ORACLE_POINTS[name] and the 40-digit pole
    oracle there, in floats."""
    params = ORACLE_POINTS[name]
    return (exact_steady_state(params),
            np.array(exact_covariance_mpmath(params).tolist(), dtype=float))


class TestPoleOracle:
    """exact_covariance_mpmath, the pole and digamma sum of the Langevin
    integrals, against two independent references, and the replay
    against it."""

    def test_matches_mpmath_quad(self):
        """Three entries, among them the current's P_c-X_h, against
        mpmath.quad of the defining integrand at 20 digits: within the
        quadrature's error estimate plus 1e3 units of the working
        precision, the integrand's rounding that the estimate leaves
        out."""
        params = WireParams(omega_c=1.0, omega_h=2.0, k=0.3, t_c=1.0,
                            t_h=2.0, lambda_sq=0.05, cutoff=20.0)
        oracle = exact_covariance_mpmath(params, dps=30)
        with mp.workdps(20):
            lam_sq, cut = mp.mpf(params.lambda_sq), mp.mpf(params.cutoff)
            k = mp.mpf(params.k)
            shifted = [mp.mpf(w)**2 + lam_sq * cut + k
                       for w in (params.omega_c, params.omega_h)]

            def integrand(i, j):
                """(1/pi) Re[f_i(w) f_j(-w) sum_a G_ia conj(G_ja)
                J(w) coth(w/2T_a)] with G = A^-1."""
                def at(w):
                    chi = lam_sq * cut**2 / (cut - 1j * w)
                    d_c, d_h = (x - w**2 - chi for x in shifted)
                    det = d_c * d_h - k**2
                    g = ((d_h / det, k / det), (k / det, d_c / det))
                    f = (1 if i % 2 == 0 else -1j * w) * \
                        (1 if j % 2 == 0 else 1j * w)
                    return sum(
                        mp.re(f * g[i // 2][a] * mp.conj(g[j // 2][a]))
                        * mp.im(chi) * mp.coth(w / (2 * t)) / mp.pi
                        for a, t in enumerate((params.t_c, params.t_h)))
                return at

            # the resonances sit at the wire's own normal modes
            bare = [mp.mpf(w)**2 + k for w in (params.omega_c, params.omega_h)]
            root = mp.sqrt((bare[1] - bare[0])**2 + 4 * k**2)
            edges = [0, mp.sqrt((sum(bare) - root) / 2),
                     mp.sqrt((sum(bare) + root) / 2), cut, mp.inf]
            for i, j in ((0, 0), (3, 3), (1, 2)):
                value, error = mp.quad(integrand(i, j), edges, error=True)
                assert abs(value - oracle[i, j]) <= \
                    error + 1e3 * mp.eps * abs(value), (i, j)

    def test_matches_matsubara_at_equal_temperatures(self):
        """Two independent oracles, the pole sum and the Matsubara sums,
        agree to 1e-20 of the largest entry at 30 digits, also with the
        cutoff 80 times 2 pi T, where the Matsubara sums' slow tail
        begins far out."""
        for params in (EQUILIBRIUM,
                       dataclasses.replace(WIDE_GAP, t_h=WIDE_GAP.t_c)):
            poles = exact_covariance_mpmath(params, dps=30)
            matsubara = equilibrium_covariance_mpmath(params, dps=30)
            entries = [(a, b) for rows in zip(poles.tolist(),
                                              matsubara.tolist())
                       for a, b in zip(*rows)]
            with mp.workdps(30):
                scale = max(abs(b) for _, b in entries)
                worst = max(abs(a - b) for a, b in entries)
                assert worst <= mp.mpf("1e-20") * scale, \
                    mp.nstr(worst / scale, 3)

    @pytest.mark.parametrize("name", ORACLE_POINTS)
    def test_replay_within_its_error_estimate(self, name):
        """Every X-X and X-P entry, and P_c-P_h, within the replay's own
        quadrature_error."""
        res, oracle = replay_and_oracle(name)
        tol = res.diagnostics["quadrature_error"]
        for i, j in ((0, 0), (0, 2), (2, 2), (0, 1), (0, 3), (1, 2), (2, 3),
                     (1, 3)):
            assert abs(res.covariance[i, j] - oracle[i, j]) <= tol, (i, j)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the quadrature "
                       "stops at 100 cutoff and drops lambda^2/(2 pi 1e4) "
                       "of each <P_a^2>")
    @pytest.mark.parametrize("name", ORACLE_POINTS)
    def test_momentum_variances(self, name):
        res, oracle = replay_and_oracle(name)
        tol = res.diagnostics["quadrature_error"]
        for i in (1, 3):
            assert abs(res.covariance[i, i] - oracle[i, i]) <= tol, i


def assert_same_quadrature(quad, other):
    """Two replays agree bit for bit: values, error, status, neval and
    intervals in heap order."""
    assert quad.values.tobytes() == other.values.tobytes()
    assert quad.error == other.error
    assert quad.status == other.status
    assert quad.neval == other.neval
    assert quad.intervals.shape == other.intervals.shape
    assert quad.intervals.tobytes() == other.intervals.tobytes()


def assert_replays_quad_vec(params):
    """The replay gives quad_vec's values, error, status, neval and
    intervals (in heap order) bit for bit, signs of zeros included, under
    qwire.exact's constants as they stand."""
    quad = lone_replay(params)
    values, err, info = per_node_exact_integral(params)
    assert quad.values.tobytes() == values.tobytes()
    assert quad.error == err
    assert (quad.success, quad.status) == (info.success, info.status)
    assert quad.neval == info.neval
    assert quad.intervals.shape == info.intervals.shape
    assert quad.intervals.tobytes() == info.intervals.tobytes()
    return quad


def sample_nodes(params) -> np.ndarray:
    """Frequencies that reach every branch of the integrands: 0 and one
    below the small-w guard, then four inside each interval between the
    quadrature's breakpoints, out to the far tail."""
    max_omega = exact._MAX_OMEGA_FACTOR * params.cutoff
    edges = np.array([0.0, *_breakpoints(params, max_omega), max_omega])
    inside = np.array([0.002, 0.3, 0.5, 0.99])[:, None]
    return np.concatenate([[0.0, 1e-9 * params.cutoff],
                           (edges[:-1] + np.diff(edges) * inside).ravel()])


def plain_gk21(a: float, b: float, kernel) -> tuple:
    """quad_vec's GK21 on [a, b] under the max norm, in Python floats:
    each sum is 0.0 + w_0 f_0 + w_1 f_1 + ..., added node by node."""
    kronrod = exact._KRONROD.ravel().tolist()
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    f = [_integrand_matrix(c + h * x, kernel).tolist()
         for x in exact._GK21_NODES.ravel().tolist()]

    def node_sum(weights, rows):
        total = [0.0] * len(exact._LIVE)
        for w, row in zip(weights, rows):
            total = [t + w * v for t, v in zip(total, row)]
        return total
    s_k = node_sum(kronrod, f)
    s_k_abs = node_sum(kronrod, [[abs(v) for v in row] for row in f])
    s_g = node_sum(exact._GAUSS.ravel().tolist(), f[1::2])
    s_k_dabs = node_sum(kronrod, [[abs(v - s / 2.0) for v, s in zip(row, s_k)]
                                  for row in f])
    err = max(abs((k - g) * h) for k, g in zip(s_k, s_g))
    dabs = max(abs(d * h) for d in s_k_dabs)
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs)**1.5)
    rounding = max(abs(50 * sys.float_info.epsilon * h * s) for s in s_k_abs)
    if rounding > sys.float_info.min:
        err = max(err, rounding)
    return [h * s for s in s_k], err, rounding


class TestIntegrandMatrix:
    """The kernel's rounding contract, which the replay's batching rests
    on."""

    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_array_of_nodes_equals_per_node_calls(self, name):
        params = BATCH_CASES[name]
        kernel = _Kernel.of([params])
        nodes = sample_nodes(params)
        per_node = np.array([_integrand_matrix(float(w), kernel)
                             for w in nodes]).T
        assert per_node.tobytes() == _integrand_matrix(nodes,
                                                       kernel).tobytes()

    def test_lockstep_kernel_equals_lone_kernels(self):
        """The nodes of all BATCH_CASES in one call, each with its own
        point's constants, give each point's lone values bit for bit."""
        cases = list(BATCH_CASES.values())
        nodes = [sample_nodes(params) for params in cases]
        owner = np.repeat(np.arange(len(cases)), [len(w) for w in nodes])
        batch = _integrand_matrix(np.concatenate(nodes),
                                  _Kernel.of(cases).take(owner))
        lone = np.concatenate([_integrand_matrix(w, _Kernel.of([params]))
                               for params, w in zip(cases, nodes)], axis=1)
        assert batch.tobytes() == lone.tobytes()


class TestBatchedQuadrature:
    """The batched replay of quad_vec's adaptive GK21 scheme against
    quad_vec calling the integrand one node at a time."""

    @pytest.mark.parametrize("n", [1, 2, 128])
    def test_sums_add_node_by_node(self, n):
        """_gk21 on n intervals gives plain_gk21's integrals, errors and
        rounding errors bit for bit.  A pairwise sum over the nodes,
        numpy's where the node axis is the contiguous one, rounds
        differently."""
        kernel = _Kernel.of([with_k(WIDE_GAP, 0.01)])
        edges = np.linspace(0.0, 5.0, n + 1).tolist()
        igs, errs, roundings = _gk21(np.array(edges[:-1]),
                                     np.array(edges[1:]), kernel, [0] * n)
        plain = [plain_gk21(a, b, kernel) for a, b in zip(edges, edges[1:])]
        assert igs.tobytes() == np.array([ig for ig, _, _ in plain]).tobytes()
        assert [e.hex() for e in errs] == [e.hex() for _, e, _ in plain]
        assert [r.hex() for r in roundings] == [r.hex() for *_, r in plain]

    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_matches_per_node_oracle_bit_for_bit(self, name):
        assert_replays_quad_vec(BATCH_CASES[name])

    def test_probe_work(self):
        """The benchmark's probe point: 2352 nodes on 60 subintervals."""
        quad = lone_replay(with_k(WIDE_GAP, 0.01))
        assert (quad.neval, len(quad.intervals)) == (2352, 60)

    @pytest.mark.parametrize("name, spec_name", [
        ("fig1a k=0.01", "limit=8"), ("fig1a k=0.01", "limit=150"),
        ("fig1b k=1e-4", "rel_tol=1e-15")],
        ids=["limit=8", "limit=150", "rel_tol=1e-15"])
    def test_non_convergence_matches_quad_vec(self, name, spec_name,
                                              monkeypatch):
        """See NON_CONVERGENCE_SPECS."""
        params = BATCH_CASES[name]
        override_constants(monkeypatch, spec_name)
        quad = assert_replays_quad_vec(params)
        assert not quad.success
        assert "did not converge" in \
            exact_steady_state(params).diagnostics["error"]

    def test_error_shaping_cannot_overflow(self, monkeypatch):
        """quad_vec's error shaping d min(1, (200 e / d)**1.5) raises
        OverflowError where 200 e / d is finite and above about 1e205.  A
        constant 3 has Kronrod sum 6 and Gauss sum 6 + 1 ulp but zero
        spread about its mean, and 1e-300 w sets d, so 200 e / d is
        1e282 to 1e293 on the eight intervals of fig1a's breakpoints.  The
        shaping returns, and limit=8 ends the replay before its first
        round, in the NaN placeholder."""
        def regime(omega, kernel):
            nodes = np.asarray(omega, dtype=float).reshape(-1)
            f = np.zeros((len(exact._LIVE), len(nodes)))
            f[0], f[1] = 3.0, 1e-300 * nodes
            return f

        monkeypatch.setattr(exact, "_integrand_matrix", regime)
        override_constants(monkeypatch, "limit=8")
        res = exact_steady_state(BATCH_CASES["fig1a k=0.01"])
        assert np.isnan(res.covariance).all()
        assert np.isnan(res.heat_currents).all()
        assert res.diagnostics["error"].startswith(
            "QuadratureError: covariance quadrature did not converge")

    @pytest.mark.parametrize("spec_name", ["default",
                                           *NON_CONVERGENCE_SPECS])
    def test_lockstep_batch_equals_lone_replays(self, spec_name,
                                                monkeypatch):
        """All BATCH_CASES run as one batch: each gets its lone replay,
        which the tests above hold to quad_vec, bit for bit.  The cases
        differ in k, omega_h, t_c, t_h, lambda_sq and their rounds, and
        some stop while others go on."""
        if spec_name != "default":
            override_constants(monkeypatch, spec_name)
        cases = list(BATCH_CASES.values())
        batch = {}
        steady_state = exact._steady_state

        def captured(params, quad):
            batch[params] = quad
            return steady_state(params, quad)
        monkeypatch.setattr(exact, "_steady_state", captured)
        assert len(exact_steady_states(cases)) == len(cases)
        assert sorted(batch, key=cases.index) == cases
        for params in cases:
            assert_same_quadrature(batch[params], lone_replay(params))

    @pytest.mark.slow
    @settings(max_examples=25, deadline=None)
    @given(omega_h=st.sampled_from([2.0, math.sqrt(1.0 + 2e-6), 1.0]),
           log_k=st.floats(-9.0, 5.0), t_ratio=st.floats(1e-2, 3.0),
           log_lambda_sq=st.floats(-5.0, -2.0))
    def test_matches_quad_vec_across_decades(self, omega_h, log_k, t_ratio,
                                             log_lambda_sq):
        """Wide-gap, near-degenerate and resonant nodes, k over 14
        decades, T/omega_c from 0.01 to 3 and lambda^2 over 3 decades."""
        params = WireParams(omega_c=1.0, omega_h=omega_h, k=10.0**log_k,
                            t_c=t_ratio, t_h=1.5 * t_ratio,
                            lambda_sq=10.0**log_lambda_sq, cutoff=1e3)
        assert_replays_quad_vec(params)

    def test_empty_batch(self):
        assert exact_steady_states([]) == []

    def test_window_bounds_running_replays(self, monkeypatch):
        """Of 2 _WINDOW + 3 points, at most _WINDOW replays run at once
        (started and not yet finished), every point runs once, and a
        finished replay and its _Quadrature are released before the next
        round evaluates.  The last point takes the fewest rounds (12
        against 15), so it finishes, and must be released, while earlier
        ones still run."""
        points = [with_k(RESONANT_STRONG, float(k))
                  for k in np.logspace(-9, 2, 2 * exact._WINDOW + 2)]
        points.append(with_k(WIDE_GAP, 0.01))
        log, refs = trace_replays(monkeypatch)
        released = []
        gk21 = exact._gk21

        def checked(*args):
            finished = [params for event, params in log if event == "finish"]
            assert all(ref() is None for params in finished
                       for ref in refs[params])
            released[:] = finished
            return gk21(*args)
        monkeypatch.setattr(exact, "_gk21", checked)
        exact_steady_states(points)
        running = peak = 0
        for event, _ in log:
            running += 1 if event == "start" else -1
            peak = max(peak, running)
        assert peak == exact._WINDOW
        for event in ("start", "finish"):
            assert sorted((params for e, params in log if e == event),
                          key=points.index) == points
        assert points[-1] in released

    def test_frozen_benchmark_covariances_reproduced(self):
        """Every exact covariance frozen in perfbench/data/points.json,
        bit for bit, all 306 points solved as one exact_steady_states
        batch."""
        assert pool_mismatches() == []


@pytest.mark.slow
class TestDiscretizedBathOracle:
    """Propagate the closed system + baths Hamiltonian with explicitly
    discretized baths and compare the late-time system covariance."""

    def test_time_domain_agrees(self):
        p = WireParams(1.0, 1.3, 0.4, 0.8, 1.6, 0.05, 4.0)
        n_modes = 1400
        omega_max = 25.0
        d_omega = omega_max / n_modes
        w_j = (np.arange(n_modes) + 0.5) * d_omega
        c_sq = (2.0 / math.pi) * spectral_density(w_j, p) * w_j * d_omega
        c_j = np.sqrt(c_sq)
        counterterm = np.sum(c_sq / w_j**2)

        m = 2 + 2 * n_modes
        stiffness = np.zeros((m, m))
        stiffness[0, 0] = p.omega_c**2 + p.k + counterterm
        stiffness[1, 1] = p.omega_h**2 + p.k + counterterm
        stiffness[0, 1] = stiffness[1, 0] = -p.k
        idx = np.arange(n_modes)
        stiffness[2 + idx, 2 + idx] = w_j**2
        stiffness[2 + n_modes + idx, 2 + n_modes + idx] = w_j**2
        stiffness[0, 2 + idx] = stiffness[2 + idx, 0] = -c_j
        stiffness[1, 2 + n_modes + idx] = -c_j
        stiffness[2 + n_modes + idx, 1] = -c_j

        evals, evecs = np.linalg.eigh(stiffness)
        assert evals.min() > 0.0
        sq = np.sqrt(evals)

        def nbar(w, t):
            return 1.0 / np.expm1(w / t)

        # product initial state: system ground state, baths thermal
        g_x = np.concatenate([
            [1 / (2 * p.omega_c), 1 / (2 * p.omega_h)],
            (nbar(w_j, p.t_c) + 0.5) / w_j, (nbar(w_j, p.t_h) + 0.5) / w_j])
        g_p = np.concatenate([
            [p.omega_c / 2, p.omega_h / 2],
            w_j * (nbar(w_j, p.t_c) + 0.5), w_j * (nbar(w_j, p.t_h) + 0.5)])

        v_sys = evecs[:2, :]

        def covariance_at(t):
            cos_t, sin_t = np.cos(sq * t), np.sin(sq * t)
            r_c = (v_sys * cos_t) @ evecs.T
            r_s = (v_sys * (sin_t / sq)) @ evecs.T
            r_d = -(v_sys * (sq * sin_t)) @ evecs.T
            g_xx = (r_c * g_x) @ r_c.T + (r_s * g_p) @ r_s.T
            g_pp = (r_d * g_x) @ r_d.T + (r_c * g_p) @ r_c.T
            g_xp = (r_c * g_x) @ r_d.T + (r_s * g_p) @ r_c.T
            gamma = np.empty((4, 4))
            gamma[0, 0], gamma[2, 2] = g_xx[0, 0], g_xx[1, 1]
            gamma[0, 2] = gamma[2, 0] = g_xx[0, 1]
            gamma[1, 1], gamma[3, 3] = g_pp[0, 0], g_pp[1, 1]
            gamma[1, 3] = gamma[3, 1] = g_pp[0, 1]
            gamma[0, 1] = gamma[1, 0] = g_xp[0, 0]
            gamma[2, 3] = gamma[3, 2] = g_xp[1, 1]
            gamma[0, 3] = gamma[3, 0] = g_xp[0, 1]
            gamma[1, 2] = gamma[2, 1] = g_xp[1, 0]
            return gamma

        # several relaxation times in, still far below the recurrence
        # time 2 pi / d_omega; average over a window to wash the residual
        # transient oscillation
        samples = np.linspace(130.0, 150.0, 17)
        time_domain = np.mean([covariance_at(t) for t in samples], axis=0)
        reference = exact_steady_state(p).covariance
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(time_domain - reference)) < 0.05 * scale
