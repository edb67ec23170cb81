"""Run all four solvers on one parameter point or a sweep.

Only sweep solves and measures points; steady and validate read the row
of a sweep of one point (sweep_row).  A sweep solves its grid in
process, its exact quadratures as one exact_steady_states batch.  Then
all its states are measured as one gaussian.StateStack, so a sweep of
any length takes the same few spectrum and measure calls.  No solver
raises: a failed exact quadrature or a non-physical state leaves NaN
cells and a reason in its row.  Rows are pure functions of a point.
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
from .results import METHODS

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


@dataclass(frozen=True)
class SweepRow:
    """Per-method summary at one point of a parameter sweep."""

    axis_value: float
    secular_margin: float
    results: tuple = field(compare=False)  # 4 SteadyStateResults, exact last
    metrics: dict                 # method -> dict of scalar metrics
    margins: dict                 # method -> nu_min - 1/2 of its state
    errors: dict = field(default_factory=dict)   # method -> message

    @property
    def exact_quad_error(self) -> float:
        return self.results[-1].diagnostics.get("quadrature_error", math.nan)


def solve_all(params: WireParams) -> list:
    """All four steady states, exact last."""
    return [_SOLVERS[method](params) for method in METHODS]


def _measures(states, partners, measured_node: str) -> dict:
    """The METRIC_KEYS but qdot_h, in CorrelationReport's order, of each
    state of a stack; partners holds the index of each one's exact state."""
    mi = gaussian.mutual_information(states)
    q = gaussian.gaussian_discord(states, measured_node)
    return {"fidelity_to_exact": gaussian.fidelity(states, partners),
            "mutual_info": mi, "discord": q, "classical": _classical(mi, q),
            "log_neg": gaussian.log_negativity(states)}


def _classical(mi, q, xp=np):
    # the classical correlation I - Q, clamped at zero, elementwise in xp
    return xp.maximum(mi - q, 0.0)


def correlation_report(covariance, exact,
                       measured_node: str = "h") -> gaussian.CorrelationReport:
    """Correlation measures of one state plus its fidelity to the exact
    one: a stack of one measured state and its partner, so each measure
    walks it on floats.  Raises NonPhysicalStateError if either state is
    non-physical, before measured_node is read."""
    states = gaussian.StateStack([covariance, exact], measured=1)
    states.check(0)
    states.check(1)
    mi = float(gaussian.mutual_information(states)[0])
    q = float(gaussian.gaussian_discord(states, measured_node)[0])
    return gaussian.CorrelationReport(
        float(gaussian.fidelity(states, [1])[0]), mi, q,
        _classical(mi, q, gaussian._FLOATS),
        float(gaussian.log_negativity(states)[0]), measured_node)


def _point_metrics(points: list, measured_node: str) -> list:
    """One (table, margins, errors) triple per solve_all result list in
    points: each method's METRIC_KEYS values, its state's nu_min - 1/2
    (-1/2 without a spectrum) and the reason behind its NaN cells.

    All states are measured as one stack, each with its point's exact
    state as fidelity partner.  A failed solver gives NaN everywhere; a
    state that fails the physicality check keeps its heat current only.
    Where the exact state did, the others lose only fidelity_to_exact.
    """
    labels, partners = [], []
    for results in points:
        error = results[-1].diagnostics.get("error")
        labels += [""] * (len(results) - 1) + [
            "exact state: " if error is None
            else f"exact state ({error}): "]
        partners += [len(labels) - 1] * len(results)
    states = gaussian.StateStack(np.reshape(
        [res.covariance for results in points for res in results],
        (-1, 4, 4)), labels)
    columns = {key: values.tolist() for key, values in
               _measures(states, partners, measured_node).items()}
    nu_margins = (states.nus[:, -1] - 0.5).tolist()
    out, i = [], 0
    for results in points:
        table, margins, errors = {}, {}, {}
        for res in results:
            table[res.method] = values = dict.fromkeys(METRIC_KEYS, math.nan)
            margins[res.method] = nu_margins[i]
            error = res.diagnostics.get("error")
            if error is None:
                values.update({k: v[i] for k, v in columns.items()},
                              qdot_h=res.qdot_h)
                reason = states.reasons[i] or states.reasons[partners[i]]
                error = reason and f"NonPhysicalStateError: {reason}"
            if error:
                errors[res.method] = error
            i += 1
        out.append((table, margins, errors))
    return out


def sweep(params: WireParams, axis: str, grid,
          measured_node: str = "h") -> list:
    """Sweep one parameter over a grid; order-preserving and deterministic:
    a row is bit for bit the same in any grid.  The grid is validated up
    front, solved (exact_steady_states takes it whole), then measured."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    grid = [float(v) for v in grid]
    points = [dataclasses.replace(params, **{axis: v}) for v in grid]
    results = [[_SOLVERS[method](point) for method in METHODS[:-1]] + [exact]
               for point, exact in zip(points, exact_steady_states(points))]
    return [SweepRow(axis_value=value,
                     secular_margin=secular_validity_margin(point),
                     results=tuple(res), metrics=table, margins=margins,
                     errors=errors)
            for value, point, res, (table, margins, errors) in zip(
                grid, points, results,
                _point_metrics(results, measured_node))]


def sweep_row(params: WireParams, axis: str, value: float,
              measured_node: str = "h") -> SweepRow:
    """One fully-populated sweep row: the sweep of one grid point."""
    return sweep(params, axis, [value], measured_node)[0]
