"""Run all four solvers on one parameter point or a sweep.

Rows are pure functions of their parameter point, so sweeps can run on a
process pool without changing the (order-preserving, deterministic)
output.  A sweep hands each worker one batch of grid points, whose exact
quadratures advance in lockstep rounds (exact.exact_steady_states).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .exact import exact_steady_state, exact_steady_states
from .gme import gme_steady_state
from .lme import lme_steady_state
from .model import WireParams, secular_validity_margin
from .redfield import redfield_steady_state
from .results import SteadyStateResult, METHODS

SWEEP_AXES = ("k", "t_c", "t_h", "omega_h", "lambda_sq")

#: the per-method metrics of `qwire steady` and of every sweep CSV row
METRIC_KEYS = ("fidelity_to_exact", "qdot_h", "mutual_info", "discord",
               "classical", "log_neg")

_SOLVERS = {
    "global": gme_steady_state,
    "local": lme_steady_state,
    "redfield": redfield_steady_state,
}


@dataclass(frozen=True)
class SweepRow:
    """Per-method summary at one point of a parameter sweep."""

    axis_value: float
    secular_margin: float
    metrics: dict                 # method -> dict of scalar metrics
    exact_quad_error: float
    errors: dict = field(default_factory=dict)   # method -> message


def solve_all(params: WireParams, exact=None) -> list:
    """All four steady states, exact last.

    Approximate-method failures are captured as error placeholders; only
    an exact-solver failure aborts.  exact is the point's entry of
    exact_steady_states, if it has been solved already: a result, or the
    QuadratureError that is raised here.
    """
    out = []
    for method in METHODS[:-1]:
        try:
            out.append(_SOLVERS[method](params))
        except Exception as exc:  # per-method capture, deliberate
            out.append(SteadyStateResult(
                method=method, covariance=np.full((4, 4), np.nan),
                heat_currents=(math.nan, math.nan),
                diagnostics={"error": f"{type(exc).__name__}: {exc}"}))
    if exact is None:
        exact = exact_steady_state(params)
    elif isinstance(exact, Exception):
        raise exact
    out.append(exact)
    return out


def correlation_report(covariance, exact,
                       measured_node: str = "h") -> gaussian.CorrelationReport:
    """Correlation measures of one state plus its fidelity to the exact one;
    either may be a gaussian.GaussianState or a plain covariance."""
    state = gaussian.GaussianState.of(covariance)
    mi = gaussian.mutual_information(state)
    q = gaussian.gaussian_discord(state, measured_node)
    return gaussian.CorrelationReport(
        fidelity_to_exact=gaussian.fidelity(state, exact),
        mutual_information=mi,
        discord_arrow=q,
        classical_arrow=max(mi - q, 0.0),
        log_negativity=gaussian.log_negativity(state),
        measured_node=measured_node,
    )


def exact_state(results: list) -> gaussian.GaussianState:
    """solve_all's exact state, named in its failed physicality check."""
    return gaussian.GaussianState(results[-1].covariance, "exact state: ")


def _with_axis(params: WireParams, axis: str, value: float) -> WireParams:
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return dataclasses.replace(params, **{axis: value})


def metrics(result: SteadyStateResult, exact: gaussian.GaussianState,
            measured_node: str = "h") -> tuple:
    """The METRIC_KEYS values of one steady state, and the error message
    behind its NaN values (None if there is none).

    A failed solver gives NaN everywhere; a state that the Gaussian
    measures reject as non-physical keeps its heat current only.  The
    exact result is measured on `exact` itself, the point's exact_state.
    """
    values = dict.fromkeys(METRIC_KEYS, math.nan)
    if "error" in result.diagnostics:
        return values, result.diagnostics["error"]
    values["qdot_h"] = result.qdot_h
    state = exact if result.method == "exact" else result.covariance
    try:
        report = correlation_report(state, exact, measured_node)
    except gaussian.NonPhysicalStateError as exc:
        return values, f"NonPhysicalStateError: {exc}"
    return dict(zip(METRIC_KEYS, (
        report.fidelity_to_exact, result.qdot_h, report.mutual_information,
        report.discord_arrow, report.classical_arrow,
        report.log_negativity))), None


def sweep_row(params: WireParams, axis: str, value: float,
              measured_node: str = "h", exact=None) -> SweepRow:
    """One fully-populated sweep row (pure function of its arguments);
    exact is as in solve_all."""
    point = _with_axis(params, axis, value)
    results = solve_all(point, exact)
    exact = exact_state(results)
    table, errors = {}, {}
    for res in results:
        table[res.method], error = metrics(res, exact, measured_node)
        if error is not None:
            errors[res.method] = error
    return SweepRow(
        axis_value=value,
        secular_margin=secular_validity_margin(point),
        metrics=table,
        exact_quad_error=results[-1].diagnostics.get("quadrature_error",
                                                     math.nan),
        errors=errors,
    )


def _sweep_batch(params: WireParams, axis: str, values: list,
                 measured_node: str) -> list:
    """The rows of the grid values, their exact quadratures run in
    lockstep; a row that raises leaves its exception in its place."""
    points = [_with_axis(params, axis, v) for v in values]
    rows = []
    for value, exact in zip(values, exact_steady_states(points)):
        try:
            rows.append(sweep_row(params, axis, value, measured_node, exact))
        except Exception as exc:  # raised by sweep, in grid order
            rows.append(exc)
    return rows


def sweep(params: WireParams, axis: str, grid, measured_node: str = "h",
          jobs: int | None = None) -> list:
    """Sweep one parameter over a grid; order-preserving and deterministic.

    With jobs = N > 1, worker w of a process pool computes the rows of
    the interleaved batch grid[w::N]; otherwise the whole grid is one
    batch, computed in this process.  Each row is bit for bit the same
    either way.  A row that fails raises its error, the first in grid
    order.
    """
    grid = [float(v) for v in grid]
    for value in grid:
        _with_axis(params, axis, value)  # validate the whole grid up front
    if jobs is not None:
        # a forking pool starts all its workers at the first submit
        jobs = min(jobs, len(grid))
    if jobs is None or jobs <= 1:
        rows = _sweep_batch(params, axis, grid, measured_node)
    else:
        # imported here: multiprocessing takes ~10 ms to import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_batch, params, axis, grid[w::jobs],
                                   measured_node) for w in range(jobs)]
            rows = [None] * len(grid)
            for w, future in enumerate(futures):
                rows[w::jobs] = future.result()
    for row in rows:
        if isinstance(row, Exception):
            raise row
    return rows


def correlation_deltas(params: WireParams, measured_node: str = "h") -> dict:
    """Approximate-minus-exact correlation differences per method.

    Returns, for each approximate method, the differences in mutual
    information, classical and quantum correlations and in the
    covariances Gamma_14 and Gamma_13, or the error that left it without
    metrics.  The differences are NaN if the exact state is non-physical.
    """
    results = solve_all(params)
    exact = exact_state(results)
    exact_values, _ = metrics(results[-1], exact, measured_node)
    out = {}
    for res in results[:-1]:
        values, error = metrics(res, exact, measured_node)
        if error is not None:
            out[res.method] = {"error": error}
            continue
        d_i = values["mutual_info"] - exact_values["mutual_info"]
        d_c = values["classical"] - exact_values["classical"]
        out[res.method] = {
            "d_mutual_info": d_i,
            "d_classical": d_c,
            "d_discord": d_i - d_c,
            "d_gamma_14": res.covariance[0, 3] - exact.covariance[0, 3],
            "d_gamma_13": res.covariance[0, 2] - exact.covariance[0, 2],
        }
    return out
