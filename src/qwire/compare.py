"""Run all four solvers on one parameter point or a sweep.

Rows are pure functions of their parameter point.  A sweep solves its
grid in process, in consecutive slices: the exact quadratures of a slice
advance in lockstep rounds (exact.exact_steady_states), then the slice's
rows are built.  A solver that fails, the exact one included, leaves NaN
cells and a reason in its row; nothing raises past solve_all.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

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
    "exact": exact_steady_state,
}

#: grid points per exact_steady_states batch in a sweep: peak RSS grows
#: with it, while the exact time is flat from about 6 points on
_SLICE = 6


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

    A solver that fails leaves a SteadyStateResult.failed placeholder.
    exact is the point's entry of exact_steady_states, if it has been
    solved already.
    """
    out = []
    for method in METHODS:
        if method == "exact" and exact is not None:
            out.append(exact)
            continue
        try:
            out.append(_SOLVERS[method](params))
        except Exception as exc:  # per-method capture, deliberate
            out.append(SteadyStateResult.failed(method, exc))
    return out


def _own_measures(state, measured_node: str) -> tuple:
    """Mutual information, discord, classical correlations and
    log-negativity of one state; raises NonPhysicalStateError."""
    mi = gaussian.mutual_information(state)
    q = gaussian.gaussian_discord(state, measured_node)
    return mi, q, max(mi - q, 0.0), gaussian.log_negativity(state)


def correlation_report(covariance, exact,
                       measured_node: str = "h") -> gaussian.CorrelationReport:
    """Correlation measures of one state plus its fidelity to the exact one;
    either may be a gaussian.GaussianState or a plain covariance.  Raises
    NonPhysicalStateError if either state is non-physical."""
    state = gaussian.GaussianState.of(covariance)
    mi, q, classical, log_neg = _own_measures(state, measured_node)
    return gaussian.CorrelationReport(
        fidelity_to_exact=gaussian.fidelity(state, exact),
        mutual_information=mi,
        discord_arrow=q,
        classical_arrow=classical,
        log_negativity=log_neg,
        measured_node=measured_node,
    )


def exact_state(results: list) -> gaussian.GaussianState:
    """solve_all's exact state, named in its failed physicality check,
    together with the exact solver's error if that failed."""
    error = results[-1].diagnostics.get("error")
    label = "exact state: " if error is None else f"exact state ({error}): "
    return gaussian.GaussianState(results[-1].covariance, label)


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
    other measures come from the state itself, so where the exact state
    is missing or non-physical only fidelity_to_exact is NaN, and the
    message names the exact state.  The exact result is measured on
    `exact` itself, the point's exact_state.
    """
    values = dict.fromkeys(METRIC_KEYS, math.nan)
    if "error" in result.diagnostics:
        return values, result.diagnostics["error"]
    values["qdot_h"] = result.qdot_h
    state = gaussian.GaussianState.of(
        exact if result.method == "exact" else result.covariance)
    try:
        (values["mutual_info"], values["discord"], values["classical"],
         values["log_neg"]) = _own_measures(state, measured_node)
        values["fidelity_to_exact"] = gaussian.fidelity(state, exact)
    except gaussian.NonPhysicalStateError as exc:
        return values, f"NonPhysicalStateError: {exc}"
    return values, None


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


def sweep(params: WireParams, axis: str, grid,
          measured_node: str = "h") -> list:
    """Sweep one parameter over a grid; order-preserving and deterministic.

    The grid is validated up front, then solved in consecutive slices of
    _SLICE points: one exact_steady_states batch, then the slice's rows.
    Each row is bit for bit the one that sweep_row builds alone.
    """
    grid = [float(v) for v in grid]
    points = [_with_axis(params, axis, value) for value in grid]
    rows = []
    for start in range(0, len(grid), _SLICE):
        values = grid[start:start + _SLICE]
        exact = exact_steady_states(points[start:start + _SLICE])
        rows += [sweep_row(params, axis, value, measured_node, result)
                 for value, result in zip(values, exact)]
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
