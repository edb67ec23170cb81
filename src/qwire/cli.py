"""Command-line front end: presets, config parsing, sweeps, CSV/JSON output.

steady and validate format or check the row of a sweep of one point and
ignore axis and log_grid, which are sweep keys.  validate checks each
state's physicality and nothing else; no check reads a measure of one
node, so validate takes no --measured-node.
Exit codes: 0 success, 1 invalid arguments or config (a parameter or grid
point outside WireParams' domain too), 2 solver failure (a failed exact
quadrature), 3 physicality-check failure.  Errors: one stderr JSON line.
steady and sweep report a failed method in their output and exit 0; only
validate exits 2 or 3, and it prints its checks unless a solver failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .compare import METRIC_KEYS, SWEEP_AXES, sweep, sweep_row
from .model import WireParams
from .results import METHODS

SPEC_VERSION = 1

#: frozen named parameter presets; k is the sweep variable and has no
#: preset value.  grid = (start, stop) of the default 60-point log grid.
_FIG1A = dict(omega_c=1.0, omega_h=2.0, t_c=2.0, t_h=3.0, lambda_sq=1e-3,
              cutoff=1e3, grid=(1e-4, 1.0))
_FIG1B = dict(_FIG1A, omega_h=math.sqrt(1.0 + 2e-6), grid=(1e-5, 1e-1))
PRESETS = {
    "fig1a": _FIG1A, "fig1b": _FIG1B, "fig1c": _FIG1A, "fig1d": _FIG1B,
    "fig2a": _FIG1B, "fig2b": _FIG1B,
    "fig2c": dict(omega_c=10.0, omega_h=10.0, t_c=1.0, t_h=2.0,
                  lambda_sq=1e-3, cutoff=1e3, grid=(10.0, 1e5)),
}

_PARAM_KEYS = ("omega_c", "omega_h", "k", "t_c", "t_h", "lambda_sq", "cutoff")
_CONFIG_KEYS = _PARAM_KEYS + ("scenario", "axis", "log_grid")

CSV_COLUMNS = (["k", "secular_margin"]
               + [f"{m}_{key}" for m in METHODS for key in METRIC_KEYS]
               + ["exact_quad_error"])


class CliError(Exception):
    """Bad arguments or config (exit 1)."""


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run configuration."""

    name: str
    params: WireParams
    axis: str = "k"
    grid: tuple = ()

    def as_dict(self) -> dict:
        return {"name": self.name, "axis": self.axis,
                "grid": [float(v) for v in self.grid],
                **dataclasses.asdict(self.params)}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fail(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _strict(value):
    """value with every non-finite float replaced by None, so that it
    dumps as strict JSON (null, never NaN or Infinity)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def parse_log_grid(text: str) -> list:
    """Parse 'start:stop:npoints' into a log-spaced grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"log grid must be start:stop:npoints, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        npoints = int(parts[2])
    except ValueError as exc:
        raise CliError(f"bad log grid {text!r}: {exc}") from None
    if not (0.0 < start < math.inf and 0.0 < stop < math.inf):
        raise CliError("log grid endpoints must be positive and finite")
    if npoints < 1:
        raise CliError("log grid needs at least one point")
    return [float(v) for v in
            np.logspace(math.log10(start), math.log10(stop), npoints)]


def load_config(path: str | None) -> dict:
    """Parse a flat `key = value` config file with `#` comments ({} for
    no file).

    Unknown and repeated keys are errors (no silent ignoring); parse
    errors name the offending line, a repeated key both of its lines.
    """
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from None
    out, seen = {}, {}
    for num, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{num}: expected 'key = value', "
                           f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{num}: unknown key {key!r}")
        if not value:
            raise CliError(f"{path}:{num}: empty value for {key!r}")
        if key in seen:
            raise CliError(f"{path}:{num}: key {key!r} already set on "
                           f"line {seen[key]}")
        seen[key] = num
        if key in _PARAM_KEYS:
            try:
                out[key] = float(value)
            except ValueError:
                raise CliError(f"{path}:{num}: {key} must be a number, "
                               f"got {value!r}") from None
        else:
            out[key] = value
    return out


def resolve_scenario(args: argparse.Namespace, config: dict,
                     need_grid: bool) -> Scenario:
    """Merge preset defaults, config file values and flags (flags win);
    only need_grid (sweep) reads and checks the axis and log_grid keys."""
    name = args.scenario or config.get("scenario") or "custom"
    if name != "custom" and name not in PRESETS:
        raise CliError(f"unknown scenario {name!r}; "
                       f"choose from {', '.join(sorted(PRESETS))} or custom")
    values = dict(PRESETS.get(name, {}))
    grid_range = values.pop("grid", None)
    values.update({k: v for k, v in config.items() if k in _PARAM_KEYS})
    for key in _PARAM_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    axis, grid = "k", []
    if need_grid:
        axis = args.axis or config.get("axis") or "k"
        if axis not in SWEEP_AXES:
            raise CliError(f"unknown sweep axis {axis!r}; "
                           f"choose from {', '.join(SWEEP_AXES)}")
        grid_text = args.log_grid or config.get("log_grid")
        if grid_text:
            grid = parse_log_grid(grid_text)
        elif axis == "k" and grid_range is not None:
            grid = parse_log_grid(f"{grid_range[0]}:{grid_range[1]}:60")
        else:
            raise CliError("no grid: give --log-grid start:stop:npoints")
        if axis in _PARAM_KEYS and values.get(axis) is None:
            values[axis] = grid[0]  # placeholder, replaced at every grid point
    missing = [k for k in _PARAM_KEYS if values.get(k) is None]
    if missing:
        raise CliError(f"missing parameters: {', '.join(missing)} "
                       "(set them via flags, a config file or a scenario)")
    try:
        params = WireParams(**{k: float(values[k]) for k in _PARAM_KEYS})
        for value in grid:  # every grid point must be a wire, too
            dataclasses.replace(params, **{axis: value})
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return Scenario(name=name, params=params, axis=axis, grid=tuple(grid))


def _echo_scenario(scenario: Scenario) -> None:
    print(json.dumps({"resolved_scenario": scenario.as_dict()}),
          file=sys.stderr)


def cmd_steady(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args, load_config(args.config),
                                need_grid=False)
    _echo_scenario(scenario)
    row = sweep_row(scenario.params, "k", scenario.params.k,
                    args.measured_node)
    methods = {}
    for res in row.results:
        error = row.errors.get(res.method)
        methods[res.method] = {
            "qdot_c": res.qdot_c,
            **row.metrics[res.method],
            "covariance": res.covariance.tolist(),
            "diagnostics": (res.diagnostics if error is None
                            else {**res.diagnostics, "error": error}),
        }
    doc = {"spec_version": SPEC_VERSION,
           "scenario": scenario.as_dict(),
           "secular_margin": row.secular_margin}
    if not math.isfinite(row.secular_margin):
        doc["secular_margin_reason"] = ("infinite: splitting zero or "
                                        "negligible against lambda_sq")
    doc.update(measured_node=args.measured_node, methods=methods)
    print(json.dumps(_strict(doc), allow_nan=False))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args, load_config(args.config),
                                need_grid=True)
    try:  # before any solving, so that an unwritable path fails at once
        out = (contextlib.nullcontext(sys.stdout) if args.output == "-" else
               open(args.output, "w", encoding="utf-8", newline=""))
    except OSError as exc:
        raise CliError(f"cannot write {args.output!r}: {exc}") from None
    with out as fh:
        _echo_scenario(scenario)
        rows = sweep(scenario.params, scenario.axis, scenario.grid,
                     measured_node=args.measured_node)
        for row in rows:
            for method, message in row.errors.items():
                print(json.dumps({"warning": "method_failed",
                                  "axis_value": row.axis_value,
                                  "method": method, "message": message},
                                 allow_nan=False), file=sys.stderr)
        lines = [",".join([scenario.axis] + CSV_COLUMNS[1:])]
        for row in rows:
            cells = [_fmt(row.axis_value), _fmt(row.secular_margin)]
            cells += [_fmt(row.metrics[method][key])
                      for method in METHODS for key in METRIC_KEYS]
            cells.append(_fmt(row.exact_quad_error))
            lines.append(",".join(cells))
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Invariant suite at one parameter point, read off its sweep row:
    each state's physicality."""
    scenario = resolve_scenario(args, load_config(args.config),
                                need_grid=False)
    _echo_scenario(scenario)
    row = sweep_row(scenario.params, "k", scenario.params.k)
    if error := row.results[-1].diagnostics.get("error"):
        return _fail("solver_failure", f"exact: {error}", 2)
    checks = [{"name": f"{method}_physical",
               "passed": bool(margin >= -gaussian.PHYSICALITY_TOL),
               "detail": f"min symplectic eigenvalue - 1/2 = {margin:.3e}"}
              for method, margin in row.margins.items()]
    passed = all(c["passed"] for c in checks)
    print(json.dumps({"spec_version": SPEC_VERSION,
                      "scenario": scenario.as_dict(),
                      "passed": passed,
                      "checks": checks}))
    return 0 if passed else 3


def cmd_scenarios(args: argparse.Namespace) -> int:
    doc = {"spec_version": SPEC_VERSION, "scenarios": {}}
    for name, preset in PRESETS.items():
        entry = {k: v for k, v in preset.items() if k != "grid"}
        entry["default_grid"] = {"start": preset["grid"][0],
                                 "stop": preset["grid"][1], "npoints": 60}
        doc["scenarios"][name] = entry
    doc["scenarios"]["custom"] = {
        "note": "all parameters supplied by flags or a config file"}
    print(json.dumps(doc))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise CliError(message)


def _add_common(parser: argparse.ArgumentParser,
                measured_node: bool = True) -> None:
    parser.add_argument("--scenario", help="preset name or 'custom'")
    parser.add_argument("--config", help="key = value config file")
    for key in _PARAM_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=float, help=f"override {key}")
    if measured_node:  # validate reads no measure of a measured node
        parser.add_argument("--measured-node", choices=("c", "h"),
                            default="h",
                            help="node measured for discord (default h)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qwire",
                     description="Steady states, heat currents and "
                                 "correlations of a two-node harmonic wire.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", parents=[], help="one point, all methods, "
                       "JSON to stdout")
    _add_common(p)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("sweep", help="parameter sweep, CSV output")
    _add_common(p)
    p.add_argument("--axis", choices=SWEEP_AXES, help="sweep axis "
                   "(default k)")
    p.add_argument("--log-grid", dest="log_grid",
                   help="start:stop:npoints log-spaced grid")
    p.add_argument("--output", "-o", default="-",
                   help="CSV path ('-' for stdout)")
    p.add_argument("--jobs", type=int,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="run the invariant suite at a point")
    _add_common(p, measured_node=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("scenarios", help="list frozen presets as JSON")
    p.set_defaults(func=cmd_scenarios)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        return _fail("invalid_arguments", str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
