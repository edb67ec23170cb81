"""Parameterization, bath statistics and normal-mode geometry."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwire import (WireParams, normal_modes, occupation, rotation_matrix,
                   secular_validity_margin, spectral_density)
from conftest import WIDE_GAP, swapped, with_k
from oracles import decay_rate


def potential_matrix(params: WireParams) -> np.ndarray:
    return np.array([[params.omega_c**2 + params.k, -params.k],
                     [-params.k, params.omega_h**2 + params.k]])


freqs = st.floats(0.3, 5.0)
couplings = st.floats(0.0, 10.0)
temps = st.floats(0.2, 10.0)


def wire(omega_c=1.0, omega_h=2.0, k=0.1, t_c=2.0, t_h=3.0,
         lambda_sq=1e-3, cutoff=1e3) -> WireParams:
    return WireParams(omega_c, omega_h, k, t_c, t_h, lambda_sq, cutoff)


class TestValidation:
    def test_rejects_bad_values(self):
        for field, bad in [("omega_c", 0.0), ("omega_h", -1.0), ("k", -0.1),
                           ("t_c", 0.0), ("t_h", -2.0), ("lambda_sq", 0.0),
                           ("cutoff", 1.5)]:
            kwargs = dict(omega_c=1.0, omega_h=2.0, k=0.1, t_c=2.0, t_h=3.0,
                          lambda_sq=1e-3, cutoff=1e3)
            kwargs[field] = bad
            with pytest.raises(ValueError):
                WireParams(**kwargs)

    def test_rejects_non_finite_values(self):
        for field in ("omega_c", "omega_h", "k", "t_c", "t_h", "lambda_sq",
                      "cutoff"):
            for bad in (math.nan, math.inf, -math.inf):
                kwargs = dict(omega_c=1.0, omega_h=2.0, k=0.1, t_c=2.0,
                              t_h=3.0, lambda_sq=1e-3, cutoff=1e3)
                kwargs[field] = bad
                with pytest.raises(ValueError, match="finite"):
                    WireParams(**kwargs)

    def test_swapped_exchanges_labels(self):
        p = wire()
        q = swapped(p)
        assert (q.omega_c, q.omega_h, q.t_c, q.t_h) == (
            p.omega_h, p.omega_c, p.t_h, p.t_c)
        assert (q.k, q.lambda_sq, q.cutoff) == (p.k, p.lambda_sq, p.cutoff)


class TestNormalModes:
    def test_against_eigendecomposition(self):
        p = wire(k=1.0)
        evals, evecs = np.linalg.eigh(potential_matrix(p))
        nm = normal_modes(p)
        assert nm.omega_plus**2 == pytest.approx(evals[1], rel=1e-12)
        assert nm.omega_minus**2 == pytest.approx(evals[0], rel=1e-12)
        assert nm.splitting == pytest.approx(evals[1] - evals[0], rel=1e-12)
        # the high-frequency eigenvector is (cos, -sin) up to overall sign
        vec = evecs[:, 1] * np.sign(evecs[0, 1])
        assert vec[0] == pytest.approx(math.sqrt(nm.cos_sq), rel=1e-12)
        assert vec[1] == pytest.approx(-math.sqrt(nm.sin_sq), rel=1e-12)
        assert vec[0] * -vec[1] == pytest.approx(nm.sin_cos, rel=1e-12)

    def test_reference_point(self):
        nm = normal_modes(wire(k=1.0))
        assert nm.omega_plus**2 == pytest.approx(5.3028, abs=1e-4)
        assert nm.omega_minus**2 == pytest.approx(1.6972, abs=1e-4)
        # cos^2 = (-3 + sqrt(13)) / (2 sqrt(13))
        assert nm.cos_sq == pytest.approx(0.08397485, abs=1e-7)

    @given(freqs, freqs, couplings)
    @settings(max_examples=100, deadline=None)
    def test_trace_and_determinant_identities(self, oc, oh, k):
        p = wire(omega_c=oc, omega_h=oh, k=k, cutoff=1e3)
        nm = normal_modes(p)
        v = potential_matrix(p)
        assert nm.omega_plus**2 + nm.omega_minus**2 == pytest.approx(
            np.trace(v), rel=1e-12)
        assert nm.omega_plus**2 * nm.omega_minus**2 == pytest.approx(
            np.linalg.det(v), rel=1e-10, abs=1e-12)
        assert 0.0 <= nm.cos_sq <= 1.0 and 0.0 <= nm.sin_sq <= 1.0
        # each weight is a few roundings from exact, so the sum is 1 to 4 eps
        assert nm.cos_sq + nm.sin_sq == pytest.approx(
            1.0, rel=4 * sys.float_info.epsilon, abs=0.0)

    def test_degenerate_point_angle(self):
        nm = normal_modes(wire(omega_c=1.0, omega_h=1.0, k=0.0))
        assert nm.cos_sq == nm.sin_sq == nm.sin_cos == 0.5
        assert nm.omega_plus == nm.omega_minus == pytest.approx(1.0)

    # k well above the cancellation corner k^2 << eps * delta^2, where the
    # off-diagonal residual is limited by float64 rather than the formulas
    @given(freqs, freqs, st.floats(1e-2, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_rotation_diagonalizes_potential(self, oc, oh, k):
        p = wire(omega_c=oc, omega_h=oh, k=k)
        nm = normal_modes(p)
        r = rotation_matrix(nm)[::2, ::2]
        diag = r.T @ potential_matrix(p) @ r
        assert abs(diag[0, 1]) < 1e-10 * max(1.0, np.max(np.abs(diag)))
        assert diag[0, 0] == pytest.approx(nm.omega_plus**2, rel=1e-10)
        assert diag[1, 1] == pytest.approx(nm.omega_minus**2, rel=1e-10)

    def test_rotation_matrix_is_orthogonal(self):
        r = rotation_matrix(normal_modes(wire(k=1.0)))
        assert np.allclose(r @ r.T, np.eye(4), atol=1e-14)


class TestBathStatistics:
    def test_spectral_density_odd_and_peak(self):
        p = wire()
        w = np.linspace(-5e3, 5e3, 11)
        assert np.allclose(spectral_density(w, p),
                           -spectral_density(-w, p))
        # J peaks at the cutoff with value lambda^2 cutoff / 2
        assert spectral_density(p.cutoff, p) == pytest.approx(
            p.lambda_sq * p.cutoff / 2.0, rel=1e-12)

    def test_occupation_values_and_errors(self):
        assert occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0))
        assert occupation(1e4, 1.0) == 0.0
        with pytest.raises(ValueError):
            occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            occupation(1.0, 0.0)

    @given(st.floats(0.05, 50.0), temps)
    @settings(max_examples=100, deadline=None)
    def test_detailed_balance_exact(self, omega, t):
        p = wire(cutoff=1e3)
        down = decay_rate(omega, t, p)
        up = decay_rate(-omega, t, p)
        assert up == pytest.approx(math.exp(-omega / t) * down, rel=1e-13)
        assert down > up > 0.0 or up == 0.0

    def test_decay_rate_rejects_zero_frequency(self):
        p = wire()
        with pytest.raises(ValueError):
            decay_rate(0.0, 1.0, p)


class TestSecularMargin:
    def test_formula(self):
        p = wire(omega_c=1.0, omega_h=2.0, k=0.5, lambda_sq=1e-3)
        gap = math.sqrt((4 * 0.25 + 9.0) / (2 * 5.0))
        assert secular_validity_margin(p) == pytest.approx(1e-3 / gap)

    def test_degenerate_point_is_infinite(self):
        p = wire(omega_c=1.0, omega_h=1.0, k=0.0)
        assert secular_validity_margin(p) == math.inf

    def test_small_in_wide_gap_regime(self):
        assert secular_validity_margin(with_k(WIDE_GAP, 0.1)) < 1e-2
