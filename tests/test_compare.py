"""Cross-method comparison layer: solve_all, sweeps and deltas."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from qwire import (METHODS, SteadyStateResult, WireParams,
                   exact_steady_state, exact_steady_states, solve_all, sweep)
from qwire import compare, exact, gaussian
from qwire.compare import (METRIC_KEYS, _SOLVERS, correlation_report,
                           sweep_row)
from qwire.model import FREQUENCY_RANGE, MAX_LAMBDA_SQ, MAX_RATIO
from conftest import (NARROW_CUTOFF, NEAR_DEGENERATE, RESONANT_STRONG,
                      WIDE_GAP, count_spectra, failed_result, lone_replay,
                      trace_replays, with_k)

#: k values at NARROW_CUTOFF: the exact quadrature fails at the second
#: and the fourth, with different error estimates
FAILING_GRID = [1e-2, 4641.588833612777, 1e3, 2154.4346900318847, 1.0]


class TestSolveAll:
    def test_order_and_methods(self):
        results = solve_all(with_k(WIDE_GAP, 0.05))
        assert tuple(r.method for r in results) == METHODS
        assert results[-1].method == "exact"

    def test_a_raising_solver_propagates(self, monkeypatch):
        """No solver raises on a WireParams, so nothing catches: an
        exception leaves sweep_row as it is."""
        def boom(params):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(_SOLVERS, "local", boom)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            sweep_row(WIDE_GAP, "k", 0.05)

    def test_redfield_tracks_exact_in_born_markov_regime(self):
        for k in (1e-3, 1e-1):
            results = solve_all(with_k(WIDE_GAP, k))
            red, exact = results[2], results[3]
            scale = np.max(np.abs(exact.covariance))
            assert np.max(np.abs(red.covariance - exact.covariance)) \
                < 1e-2 * scale


class TestMetrics:
    """The METRIC_KEYS values of a sweep row."""

    def test_success_gives_every_metric(self):
        """Each equals its correlation report's, bit for bit."""
        row = sweep_row(WIDE_GAP, "k", 0.05)
        assert row.errors == {}
        results = solve_all(with_k(WIDE_GAP, 0.05))
        exact = results[-1]
        for res in results:
            values = row.metrics[res.method]
            assert tuple(values) == METRIC_KEYS
            report = correlation_report(res.covariance, exact.covariance)
            assert values == {
                "fidelity_to_exact": report.fidelity_to_exact,
                "qdot_h": res.qdot_h,
                "mutual_info": report.mutual_information,
                "discord": report.discord_arrow,
                "classical": report.classical_arrow,
                "log_neg": report.log_negativity,
            }

    def test_row_keeps_its_states_and_their_margins(self, monkeypatch):
        """results are the point's four steady states, exact last; each
        margin is nu_min - 1/2 of the method's own state, bit for bit,
        and -1/2 for a failed solver's; exact_quad_error is the exact
        result's estimate."""
        params = with_k(WIDE_GAP, 0.05)
        [exact] = exact_steady_states([params])
        monkeypatch.setitem(_SOLVERS, "local",
                            lambda params: failed_result("local"))
        row = sweep_row(WIDE_GAP, "k", 0.05)
        for res, alone in zip(row.results, solve_all(params), strict=True):
            assert (res.method, res.heat_currents, res.diagnostics) == \
                (alone.method, alone.heat_currents, alone.diagnostics)
            assert res.covariance.tobytes() == alone.covariance.tobytes()
        assert row.margins["local"] == -0.5
        for res in row.results:
            if res.method != "local":
                assert row.margins[res.method] == \
                    gaussian.StateStack([res.covariance]).nus[0, -1] - 0.5
        assert row.exact_quad_error == exact.diagnostics["quadrature_error"]

    def test_solver_error_gives_nan_everywhere(self, monkeypatch):
        monkeypatch.setitem(_SOLVERS, "local",
                            lambda params: failed_result("local"))
        row = sweep_row(WIDE_GAP, "k", 0.05)
        assert row.errors == {"local": "synthetic failure"}
        values = row.metrics["local"]
        assert tuple(values) == METRIC_KEYS
        assert all(math.isnan(v) for v in values.values())

    def test_non_physical_state_keeps_its_current_only(self, monkeypatch):
        monkeypatch.setitem(_SOLVERS, "redfield", lambda params:
                            SteadyStateResult(method="redfield",
                                              covariance=0.4 * np.eye(4),
                                              heat_currents=(-1e-3, 1e-3)))
        row = sweep_row(WIDE_GAP, "k", 0.05)
        assert row.errors == {"redfield": (
            "NonPhysicalStateError: smallest symplectic eigenvalue below "
            "1/2: nu_min - 1/2 = -1.000e-01")}
        values = row.metrics["redfield"]
        assert tuple(values) == METRIC_KEYS
        assert values["qdot_h"] == 1e-3
        assert all(math.isnan(v) for key, v in values.items()
                   if key != "qdot_h")

    def test_non_physical_exact_state_is_named(self, monkeypatch):
        """Every method's reason says that the exact state failed.  The
        exact method keeps its current only; the others lose only their
        fidelity to it."""
        def broken_exact(points):
            return [dataclasses.replace(exact_steady_state(params),
                                        covariance=0.4 * np.eye(4))
                    for params in points]
        monkeypatch.setattr(compare, "exact_steady_states", broken_exact)
        row = sweep_row(WIDE_GAP, "k", 0.05)
        assert set(row.errors) == set(METHODS)
        for method in METHODS:
            assert row.errors[method].startswith(
                "NonPhysicalStateError: exact state: smallest symplectic")
            nan_keys = {key for key, v in row.metrics[method].items()
                        if math.isnan(v)}
            assert nan_keys == ({key for key in METRIC_KEYS
                                 if key != "qdot_h"} if method == "exact"
                                else {"fidelity_to_exact"})


class TestSweep:
    def test_rows_are_ordered_and_complete(self):
        rows = sweep(NEAR_DEGENERATE, "k", [1e-4, 1e-3, 1e-2])
        assert [r.axis_value for r in rows] == [1e-4, 1e-3, 1e-2]
        for row in rows:
            assert not row.errors
            assert set(row.metrics) == set(METHODS)
            for metrics in row.metrics.values():
                assert all(math.isfinite(v) for v in metrics.values())
            assert row.metrics["exact"]["fidelity_to_exact"] == \
                pytest.approx(1.0, abs=1e-9)

    def test_window_rows_equal_lone_rows(self, monkeypatch):
        """Every field of every row (metrics, exact_quad_error and
        errors), bit for bit, whether the row is solved alone or in one
        sweep of 2 _WINDOW + 3 points.  k falls from 1e2 to 1e-9, and
        the replays of the largest k take the most rounds, so they finish
        in another order than they start; a point past the window starts
        only once another one has finished."""
        grid = [float(v) for v in np.logspace(2, -9, 2 * exact._WINDOW + 3)]
        lone = [repr(sweep_row(WIDE_GAP, "k", v)) for v in grid]
        log, _ = trace_replays(monkeypatch)
        rows = sweep(WIDE_GAP, "k", grid)
        assert [row.axis_value for row in rows] == grid
        assert [repr(row) for row in rows] == lone
        events = [(event, params.k) for event, params in log]
        starts = [k for event, k in events if event == "start"]
        finishes = [k for event, k in events if event == "finish"]
        assert starts == grid
        assert sorted(finishes, key=grid.index) == grid
        assert finishes != grid
        assert events.index(("start", grid[exact._WINDOW])) > min(
            events.index(("finish", k)) for k in grid)

    @pytest.mark.parametrize("params", [WIDE_GAP, NEAR_DEGENERATE,
                                        RESONANT_STRONG],
                             ids=["wide_gap", "near_degenerate",
                                  "resonant_strong"])
    def test_no_warnings_and_no_errors_across_decades(self, params):
        """k from 0 through 1e5 at temperatures far below the mode
        frequencies: no numpy warning escapes and every method solves."""
        grid = [0.0, *np.logspace(-12, 5, 9)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t_c in (1e-3, 1e-2, 0.1):
                rows = sweep(dataclasses.replace(params, t_c=t_c), "k", grid)
                assert [row.errors for row in rows] == [{}] * len(grid)

    def test_empty_grid_gives_no_rows(self):
        assert sweep(WIDE_GAP, "k", []) == []

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(WIDE_GAP, "mass", [1.0])

    def test_axis_other_than_k(self):
        rows = sweep(with_k(WIDE_GAP, 0.1), "t_h", [2.5, 3.5])
        assert rows[0].metrics["global"]["qdot_h"] \
            < rows[1].metrics["global"]["qdot_h"]

    def test_invalid_grid_value_rejected_up_front(self):
        with pytest.raises(ValueError):
            sweep(WIDE_GAP, "t_h", [1.0, -2.0])


class TestFailingPoint:
    """A grid with points whose exact quadrature fails (FAILING_GRID)."""

    def test_other_points_keep_their_lone_results(self):
        """Results, quadrature work included, and error messages; a
        failed point keeps its quadrature's error estimate and work."""
        points = [with_k(NARROW_CUTOFF, k) for k in FAILING_GRID]
        failed = []
        for params, result in zip(points, exact_steady_states(points)):
            lone = exact_steady_state(params)
            assert result.diagnostics == lone.diagnostics
            assert result.covariance.tobytes() == lone.covariance.tobytes()
            if "error" not in lone.diagnostics:
                assert result.heat_currents == lone.heat_currents
                continue
            quad = lone_replay(params)
            assert math.isfinite(quad.error) and quad.neval > 0
            assert result.diagnostics == {
                "error": "QuadratureError: covariance quadrature did not "
                         f"converge; error estimate {quad.error:.3g}",
                "quadrature_error": quad.error, "neval": quad.neval,
                "subintervals": len(quad.intervals)}
            assert np.isnan(result.covariance).all()
            assert all(map(math.isnan, result.heat_currents))
            failed.append(params.k)
        assert failed == [FAILING_GRID[1], FAILING_GRID[3]]

    def test_sweep_rows_record_the_failure(self):
        """A failing point's row names its quadrature failure for the
        exact method and keeps its finite quadrature error estimate; the
        approximate methods lose only their fidelity to it, with a reason
        that says the exact state is not finite.  The other rows have no
        exact error."""
        rows = sweep(NARROW_CUTOFF, "k", FAILING_GRID)
        assert [row.axis_value for row in rows] == FAILING_GRID
        for row in rows:
            if row.axis_value not in (FAILING_GRID[1], FAILING_GRID[3]):
                assert "exact" not in row.errors
                continue
            lone = exact_steady_state(with_k(NARROW_CUTOFF, row.axis_value))
            error = lone.diagnostics["error"]
            assert error.startswith("QuadratureError: ")
            assert row.errors["exact"] == error
            assert all(map(math.isnan, row.metrics["exact"].values()))
            assert math.isfinite(row.exact_quad_error)
            for method in METHODS[:-1]:
                assert row.errors[method] == (
                    f"NonPhysicalStateError: exact state ({error}): "
                    "covariance is not finite")
                values = row.metrics[method]
                assert math.isnan(values["fidelity_to_exact"])
                assert all(math.isfinite(v) for key, v in values.items()
                           if key != "fidelity_to_exact")


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def domain_points(draw) -> WireParams:
    """Log-uniform over what WireParams accepts: omega_c in [0.1, 10],
    detuning omega_h - omega_c in [1e-9, 3], k in [1e-12, 1e5],
    T_c/omega_c in [1e-3, 1e2], T_h/T_c in [1, 10], lambda^2 in
    [1e-6, 1] and cutoff/omega_h in [1.1, 1e4]."""
    omega_c = draw(_log_uniform(0.1, 10.0))
    omega_h = omega_c + draw(_log_uniform(1e-9, 3.0))
    t_c = omega_c * draw(_log_uniform(1e-3, 1e2))
    return WireParams(omega_c=omega_c, omega_h=omega_h,
                      k=draw(_log_uniform(1e-12, 1e5)), t_c=t_c,
                      t_h=t_c * draw(_log_uniform(1.0, 10.0)),
                      lambda_sq=draw(_log_uniform(1e-6, 1.0)),
                      cutoff=omega_h * draw(_log_uniform(1.1, 1e4)))


#: just below 1: a ratio bound times a value, divided again by it, can
#: round one ulp above the bound
_EDGE = 1.0 - 1e-15

#: the widest spread, with omega_max^2 just above a power of two
WIDEST_SPREAD = WireParams(omega_c=1.0000001e-4 * (1.0 + 1e-12),
                           omega_h=1.0000001, k=0.0, t_c=1.0, t_h=1.0,
                           lambda_sq=1e-3, cutoff=1.0000002)


def _log_edges(lo: float, hi: float):
    """Log-uniform over [lo, hi], with both ends drawn as such too."""
    return st.one_of(st.sampled_from([lo, hi]), _log_uniform(lo, hi))


@st.composite
def accepted_points(draw) -> WireParams:
    """Anywhere in WireParams' domain, up to its bounds: omega_min over
    FREQUENCY_RANGE, cutoff / omega_min up to MAX_RATIO, omega_max from
    omega_min (resonant) to just below the cutoff or omega_max^2 /
    omega_min^2 = MAX_RATIO, k / omega_min^2 zero or up to MAX_RATIO,
    T / omega_min from 1e-300 up to MAX_RATIO and lambda_sq from
    omega_max / MAX_RATIO up to MAX_LAMBDA_SQ."""
    omega_min = draw(_log_edges(*FREQUENCY_RANGE))
    cutoff = omega_min * draw(_log_edges(1.0 + 1e-9, MAX_RATIO * _EDGE))
    omega_max = min(omega_min * draw(_log_edges(
        1.0, min(cutoff / omega_min / (1.0 + 1e-9),
                 math.sqrt(MAX_RATIO) * _EDGE))), FREQUENCY_RANGE[1])
    omegas = (omega_min, omega_max)
    omega_c, omega_h = draw(st.sampled_from([omegas, omegas[::-1]]))
    k = draw(st.one_of(st.just(0.0), _log_edges(1e-20, MAX_RATIO * _EDGE)))
    t_c, t_h = (omega_min * draw(_log_edges(1e-300, MAX_RATIO * _EDGE))
                for _ in range(2))
    return WireParams(omega_c=omega_c, omega_h=omega_h,
                      k=k * omega_min**2, t_c=t_c, t_h=t_h,
                      lambda_sq=draw(_log_edges(
                          omega_max / (MAX_RATIO * _EDGE), MAX_LAMBDA_SQ)),
                      cutoff=cutoff)


def assert_nans_have_reasons(params: WireParams) -> None:
    """No exception escapes sweep_row, and every NaN cell belongs to a
    method whose reason the row gives."""
    row = sweep_row(params, "k", params.k)
    for method, values in row.metrics.items():
        if any(map(math.isnan, values.values())):
            assert row.errors.get(method), (method, row)


class TestDomain:
    @seed(7)
    @settings(max_examples=100, deadline=None)
    @given(domain_points())
    @example(with_k(NARROW_CUTOFF, FAILING_GRID[1]))
    def test_every_row_completes_and_every_nan_has_a_reason(self, params):
        assert_nans_have_reasons(params)

    @seed(7)
    @settings(max_examples=100, deadline=None)
    @given(accepted_points())
    @example(WIDEST_SPREAD)
    def test_up_to_the_bounds(self, params):
        """The same anywhere WireParams accepts, with no capture left in
        the library: the bounds keep out every input that would raise.  No
        numpy warning reaches stderr either."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_nans_have_reasons(params)


class TestCorrelationTools:
    def test_report_fields(self):
        results = solve_all(with_k(NEAR_DEGENERATE, 1e-3))
        exact = results[-1]
        report = correlation_report(exact.covariance, exact.covariance)
        assert report.fidelity_to_exact == pytest.approx(1.0, abs=1e-9)
        assert report.mutual_information >= report.discord_arrow >= 0.0
        assert report.classical_arrow == pytest.approx(
            report.mutual_information - report.discord_arrow, abs=1e-12)

    def test_deltas_in_breakdown_window(self):
        """Approximate minus exact, read off one sweep row."""
        row = sweep_row(with_k(NEAR_DEGENERATE, 1e-3), "k", 1e-3)
        assert row.errors == {}
        exact_gamma, exact_values = (row.results[-1].covariance,
                                     row.metrics["exact"])
        d_gamma_14 = {res.method: res.covariance[0, 3] - exact_gamma[0, 3]
                      for res in row.results[:-1]}
        # the global solution misses the position-momentum cross
        # covariance entirely; the local one captures it well
        assert abs(d_gamma_14["global"]) > 0.1
        assert abs(d_gamma_14["local"]) < 1e-3
        for method in ("global", "local", "redfield"):
            d = {key: row.metrics[method][key] - exact_values[key]
                 for key in ("mutual_info", "classical", "discord")}
            assert d["discord"] == pytest.approx(
                d["mutual_info"] - d["classical"], abs=1e-12)

    def test_sweep_row_takes_one_spectrum(self, monkeypatch):
        """The four states with their partial transposes, in one call."""
        spectra = count_spectra(monkeypatch)
        sweep_row(WIDE_GAP, "k", 0.01)
        assert spectra == [(8, 4, 4)]

    def test_sweep_takes_the_same_spectra_at_any_length(self, monkeypatch):
        """A 60-point sweep measures its states in as many spectrum calls
        as a 6-point one: none is taken per row."""
        counts = []
        for n in (6, 60):
            spectra = count_spectra(monkeypatch)
            sweep(WIDE_GAP, "k", np.logspace(-4, 0, n))
            counts.append(len(spectra))
        assert counts == [1, 1]

    def test_sweep_row_is_pure(self):
        row1 = sweep_row(WIDE_GAP, "k", 1e-2)
        row2 = sweep_row(WIDE_GAP, "k", 1e-2)
        assert row1 == row2
        assert row1.metrics == row2.metrics
        assert row1.secular_margin == row2.secular_margin
