"""Tests of the benchmark itself: its checks catch wrong outputs, its
inputs repeat per seed, its counters repeat, and it prints exactly the
metrics BENCHMARK.json lists.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from qwire import WireParams, compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def fig1a_text():
    return (inputs.DATA / "fig1a.csv").read_text()


def _set_cell(text: str, row: int, column: str, transform) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    col = header.index(column)
    cells[col] = repr(transform(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _failed_rows(text: str, ref: str) -> list:
    return [i for i, fails in enumerate(checks.check_sweep(text, ref)) if fails]


def test_reference_sweep_passes_its_own_check(fig1a_text):
    assert _failed_rows(fig1a_text, fig1a_text) == []


@pytest.mark.parametrize("column, transform", [
    ("redfield_qdot_h", lambda v: v * (1 + 1e-5)),        # perturbed cell
    ("local_discord", lambda v: math.nan),                 # injected NaN
    ("exact_qdot_h", lambda v: -v),                        # flipped sign
])
def test_wrong_sweep_cell_fails_its_row(fig1a_text, column, transform):
    bad = _set_cell(fig1a_text, 7, column, transform)
    assert _failed_rows(bad, fig1a_text) == [7]
    assert any(regression for _, regression in
               checks.check_sweep(bad, fig1a_text)[7])


def test_quadrature_error_column_is_not_compared(fig1a_text):
    bad = _set_cell(fig1a_text, 3, "exact_quad_error", lambda v: v * 10)
    assert _failed_rows(bad, fig1a_text) == []


@pytest.fixture(scope="module")
def fig1a_point():
    """A pool-style point whose reference is today's own exact state."""
    params = WireParams(omega_c=1.0, omega_h=2.0, k=0.05, t_c=2.0, t_h=3.0,
                        lambda_sq=1e-3, cutoff=1e3)
    results = compare.solve_all(params)
    point = {"params": dict(omega_c=1.0, omega_h=2.0, k=0.05, t_c=2.0,
                            t_h=3.0, lambda_sq=1e-3, cutoff=1e3),
             "ref_exact": results[-1].covariance.copy()}
    return point, results


def test_currents_check_passes_current_output(fig1a_point):
    point, results = fig1a_point
    assert checks.check_currents(point, results) == []


def test_currents_nan_fails(fig1a_point):
    point, results = fig1a_point
    cov = results[-1].covariance.copy()
    cov[0, 3] = math.nan
    bad = results[:-1] + [replace(results[-1], covariance=cov)]
    fails = checks.check_currents(point, bad)
    assert fails and any(regression for _, regression in fails)


@pytest.mark.parametrize("method", ["global", "redfield", "exact"])
def test_currents_flipped_sign_fails(fig1a_point, method):
    point, results = fig1a_point
    bad = [replace(r, heat_currents=(-r.qdot_c, -r.qdot_h))
           if r.method == method else r for r in results]
    reasons = [reason for reason, _ in checks.check_currents(point, bad)]
    assert any(r.startswith(f"{method}: qdot_h") for r in reasons)


def test_currents_exception_fails_as_regression(fig1a_point):
    point, _ = fig1a_point
    fails = checks.check_currents(point, RuntimeError("boom"))
    assert fails == [("solve_all raised RuntimeError: boom", True)]


def test_correlations_check_catches_a_wrong_measure():
    states = inputs.load_pool("states")
    state = next(s for s in states if s["kind"] == "random"
                 and s["mix"] > 0.1)
    state["cov_m"] = np.array(inputs.unpack(state["cov"]))
    state["exact_cov_m"] = np.array(inputs.unpack(state["exact_cov"]))
    reports = {n: compare.correlation_report(state["cov_m"],
                                             state["exact_cov_m"], n)
               for n in inputs.NODES}
    assert checks.check_correlations(state, reports) == []
    reports["h"] = replace(reports["h"],
                           discord_arrow=reports["h"].discord_arrow * 1.01)
    fails = checks.check_correlations(state, reports)
    assert fails and all(reason.startswith("node h") for reason, _ in fails)
    assert any(regression for _, regression in fails)


def test_independent_spectrum_of_a_pure_state():
    squeeze = np.diag([0.5 * 1e3, 0.5 * 1e-3, 0.5, 0.5])
    assert checks.symplectic_spectrum(squeeze) == pytest.approx([0.5, 0.5],
                                                               abs=1e-12)


@pytest.mark.parametrize("make", [
    lambda seed: inputs.cli_inputs(seed),
    lambda seed: inputs.currents_inputs(seed, inputs.load_pool("points")),
    lambda seed: inputs.correlations_inputs(seed, inputs.load_pool("states")),
])
def test_same_seed_gives_identical_inputs(make):
    first = json.dumps(make(11), sort_keys=True).encode()
    assert json.dumps(make(11), sort_keys=True).encode() == first
    assert len(make(11)) >= 2


def test_seeds_differ_but_keep_the_strata():
    points = inputs.load_pool("points")
    a, b = inputs.currents_inputs(1, points), inputs.currents_inputs(2, points)
    assert [p["id"] for p in a] != [p["id"] for p in b]
    cells = sorted((p["regime"], p["stratum"]) for p in a)
    assert cells == sorted((p["regime"], p["stratum"]) for p in b)
    assert len(a) >= 100


def test_integrand_counter_repeats_at_the_fig1a_probe():
    params = WireParams(**run.PROBE)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            with tracer.span("bench.probe", op="probe"):
                compare.solve_all(params)
        finally:
            undo()
        metrics = tracing.summarize([tracer.spans], 1.0, 0.0)
        counts.append(metrics["probe.exact.integrand_evals"][0])
    assert counts == [2352, 2352]
    assert compare.solve_all is not None and not hasattr(
        compare.solve_all, "__wrapped__")


def test_self_times_add_up_to_the_op():
    # op 0..10 ms: compare 1..9, exact inside it 2..6, model inside 3..4
    spans = [["bench.op", 0.000, 0.010, None, 0, None, None],
             ["compare.solve_all", 0.001, 0.009, 0, 0, None, None],
             ["exact.exact_steady_state", 0.002, 0.006, 1, 0,
              {"integrand_evals": 7}, None],
             ["model.normal_modes", 0.003, 0.004, 2, 0, None, None]]
    m = tracing.summarize([spans], 1.0, 0.0)
    assert m["exact.busy_ms"][0] == pytest.approx(3.0)
    assert m["model.busy_ms"][0] == pytest.approx(1.0)
    assert m["compare.self_ms"][0] == pytest.approx(4.0)
    assert m["trace.layer_frac"][0] == pytest.approx(0.4)
    assert m["exact.integrand_evals"][0] == 7


def _names(section: str) -> set:
    return {m["name"] for m in SPEC[section]}


def test_printed_metric_names_are_those_benchmark_json_lists():
    r = run.Run()
    r.record("op", [])
    r.end_to_end(1.0, [2.0], [0.1, 0.2], 0.3, 1024)
    assert set(r.metrics) == _names("end_to_end")
    assert set(tracing.summarize([], 1.0, 0.0)) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, (_, unit) in list(r.metrics.items()) + list(
            tracing.summarize([], 1.0, 0.0).items()):
        assert units[name] == unit, name
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(SPEC["command"] + ["--workload", "currents",
                                            "--seed", "1", "--seconds", "1",
                                            "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
