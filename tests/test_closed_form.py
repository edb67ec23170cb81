"""The closed form's digamma, poles and covariance against scipy and
mpmath, at the points of the pole oracle and at a seeded sample of the
benchmark pool."""

import functools
import json
import math
import pathlib
import random
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from scipy.special import psi

from qwire import WireParams, gaussian, normal_modes
from closed_form import EPS, covariance, digamma, poles
from oracles import exact_covariance_mpmath
from test_compare import WIDEST_SPREAD, accepted_points
from test_exact import ORACLE_POINTS

POINTS = (pathlib.Path(__file__).resolve().parent.parent
          / "perfbench" / "data" / "points.json")

#: Omega_s^2, lambda^2, Lambda beyond the sampled points: overdamped modes,
#: lambda^2 at its upper bound 1e100, and three real poles close together
STRESS = ((1e-2, 1.0, 1e3), (1.0, 1e6, 1e8), (1.0, 1e100, 1e8),
          (1e16, 1e100, 1e16), (1.0, 3.9999, 16.0))

#: a seed-7 accepted_points draw whose nodes differ in scale by about 1e21:
#: entries from 1.6e-78 to 3.6e49, nu = 1.38e32 and 3.98e11
NODES_APART = WireParams(omega_c=1e-8, omega_h=3.1474802669472116e-8,
                         k=1.0000000000000001e-36, t_c=7.292122770443734e-64,
                         t_h=0.5219092745892863, lambda_sq=1e100,
                         cutoff=0.5219092745892863)

#: the seed-7 accepted_points draw at which the closed form's <X_c^2>
#: rounds to -3.52e-17, next to <P_c^2> = <P_h^2> = 8.17e46
NEGATIVE_XC = WireParams(omega_c=1e8, omega_h=1e8, k=20.211242341730948,
                         t_c=0.0013557827905695977, t_h=9999999999999990.0,
                         lambda_sq=2.6687523183023802e78,
                         cutoff=9999999999999990.0)


@functools.cache
def sample_points() -> tuple:
    """The three pole-oracle points and ten seeded pool points."""
    pool = json.loads(POINTS.read_text(encoding="utf-8"))["points"]
    return tuple(ORACLE_POINTS.values()) + tuple(
        WireParams(**point["params"])
        for point in random.Random(2).sample(pool, 10))


def mode_inputs(params) -> list:
    """(Omega_s^2, lambda^2, Lambda) of both normal modes."""
    modes = normal_modes(params)
    return [(om * om, params.lambda_sq, params.cutoff)
            for om in (modes.omega_plus, modes.omega_minus)]


@functools.cache
def digamma_arguments() -> np.ndarray:
    """1 + i p / (2 pi T_a) for each pole p of each mode and each bath
    temperature at sample_points: the arguments of the pole sum."""
    out = []
    for params in sample_points():
        for inputs in mode_inputs(params):
            for temp in (params.t_c, params.t_h):
                out += list(1.0 + 1j * poles(*inputs) / (2 * math.pi * temp))
    return np.array(out)


class TestDigamma:
    """Relative to max(1, |psi|): near psi's real zero at 1.46 the
    recurrence's O(1) terms set the rounding."""

    def test_against_mpmath(self):
        z = digamma_arguments()
        ours = digamma(z)
        with mp.workdps(30):
            for arg, value in zip(z, ours):
                ref = mp.digamma(mp.mpc(arg))
                scale = max(1.0, float(abs(ref)))
                assert abs(mp.mpc(value) - ref) <= 8 * EPS * scale, arg

    def test_against_scipy(self):
        z = digamma_arguments()
        ref = psi(z)
        scale = np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(digamma(z) - ref) <= 32 * EPS * scale)

    def test_reaches_the_pole_sum_region(self):
        """The arguments have Re z > 1, and some lie below the recurrence's
        threshold while others lie far above it."""
        z = digamma_arguments()
        assert np.all(z.real > 1.0)
        assert z.real.min() < 2.0 and np.abs(z).max() > 100.0


class TestPoles:
    @pytest.mark.parametrize("inputs", [
        *(inputs for params in sample_points()
          for inputs in mode_inputs(params)), *STRESS])
    def test_against_polyroots(self, inputs):
        """Each pole within 2 eps of a root of D_s = i w^3 - Lambda w^2 -
        i K_s w + Lambda Omega_s^2 at 40 digits (20 eps where the three
        real poles lie close together); all in the lower half plane.  At
        lambda^2 = 1e100 the poles span 150 decades, and polyroots needs
        400 digits to resolve the smallest."""
        omega_sq, lambda_sq, cutoff = inputs
        ours = poles(*inputs)
        assert np.all(ours.imag < 0.0)
        with mp.workdps(400 if lambda_sq > 1e50 else 40):
            big_l, lam_sq = mp.mpf(cutoff), mp.mpf(lambda_sq)
            k_s = mp.mpf(omega_sq) + lam_sq * big_l
            roots = mp.polyroots(
                [1j, -big_l, -1j * k_s, big_l * mp.mpf(omega_sq)],
                maxsteps=500, extraprec=200)
            bound = (20 if inputs == STRESS[-1] else 2) * EPS
            for p in ours:
                assert min(abs(mp.mpc(p) - r) / abs(r) for r in roots) \
                    <= bound, (p, roots)

    def test_vectorised(self):
        """A stack of inputs gives each input's poles bit for bit."""
        inputs = np.array([row for params in sample_points()
                           for row in mode_inputs(params)] + list(STRESS))
        stacked = poles(*inputs.T)
        for row, expected in zip(inputs, stacked):
            assert poles(*row).tobytes() == expected.tobytes()


@functools.cache
def stacked_covariances() -> np.ndarray:
    """covariance of all sample_points in one stack."""
    return covariance(sample_points())


class TestCovariance:
    @pytest.mark.parametrize("index", range(13))
    def test_against_pole_oracle(self, index):
        """Each entry within 1e-12 of the largest entry of the 40-digit
        pole oracle in the local basis, which shares no algebra with the
        mode decomposition (at most 8.7e-16 at these points)."""
        params = sample_points()[index]
        ref = np.array(exact_covariance_mpmath(params).tolist(), dtype=float)
        ours = stacked_covariances()[index]
        assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_vectorised(self):
        """A point's covariance is the same bits alone and in any stack,
        and symmetric."""
        points = sample_points()
        stacked = stacked_covariances()
        assert len(points) == 13 and stacked.shape == (13, 4, 4)
        reversed_stack = covariance(points[::-1])[::-1]
        for params, gamma, again in zip(points, stacked, reversed_stack):
            assert covariance([params])[0].tobytes() == gamma.tobytes()
            assert again.tobytes() == gamma.tobytes()
            assert np.array_equal(gamma, gamma.T)

    @seed(7)
    @settings(max_examples=100, deadline=None)
    @given(accepted_points())
    @example(WIDEST_SPREAD)
    @example(NODES_APART)
    def test_finite_and_physical_up_to_the_bounds(self, params):
        """At the draws of test_compare.py::TestDomain::
        test_up_to_the_bounds, T down to 1e-300 omega and lambda^2 up to
        1e100 among them: finite, physical and without a numpy warning.
        Where i p / 2 pi T would overflow, psi is ln(i p) - ln(2 pi T);
        at degenerate modes a hot bath's share in the cold node cancels
        exactly."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gamma = covariance([params])
        assert np.isfinite(gamma).all()
        gaussian.StateStack(gamma).check(0)

    @pytest.mark.xfail(
        strict=True, raises=gaussian.NonPhysicalStateError,
        reason="<X_c^2> rounds to -3.52e-17 (CHANGES.md FOUND: "
               "`tests/closed_form.py::covariance` gives a negative "
               "<X_c^2>); ROADMAP item 2b cannot make the closed form the "
               "exact solver until it is mended")
    def test_physical_where_the_cold_position_is_tiny(self):
        """NEGATIVE_XC's covariance passes the physicality check."""
        gaussian.StateStack(covariance([NEGATIVE_XC])).check(0)

    def test_spectrum_where_the_nodes_differ_in_scale(self):
        """Both symplectic eigenvalues of NODES_APART's covariance within
        1e-14 of a 200-digit eigensolve of J G.  eigvalsh alone read
        nu_min = 3.98e11 as 1.31e16, or below 1/2."""
        gamma = covariance([NODES_APART])
        with mp.workdps(200):
            evals = mp.eig(mp.matrix(gaussian.SYMPLECTIC_FORM.tolist())
                           * mp.matrix(gamma[0].tolist()),
                           left=False, right=False)
            ref = sorted((float(abs(mp.im(e))) for e in evals),
                         reverse=True)[::2]
        assert ref[1] == pytest.approx(3.980985557e11, rel=1e-10)
        assert gaussian.StateStack(gamma).nus[0] == pytest.approx(ref,
                                                                  rel=1e-14)
