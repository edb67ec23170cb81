"""The benchmark's view of the library: perfbench/tracing.py wraps qwire's
public functions by name, so a renamed or bypassed name silently zeroes
that layer's per-layer metrics.  These tests load the tracer as the
benchmark does and check that every layer still records spans."""

import importlib.util
from pathlib import Path

import pytest

from qwire import compare
from conftest import WIDE_GAP, with_k

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

SOLVER_LAYERS = ("model", "gme", "lme", "redfield", "exact")
GAUSSIAN_LAYERS = ("gaussian.mutual_information", "gaussian.gaussian_discord",
                   "gaussian.fidelity", "gaussian.log_negativity")


@pytest.fixture
def tracing():
    """perfbench/tracing.py, loaded from its path and installed on a fresh
    Tracer for one test; yields (module, tracer)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    uninstall = module.install(tracer)
    try:
        yield module, tracer
    finally:
        uninstall()


def layer_calls(module, tracer) -> dict:
    """The benchmark's <layer>.calls metric of every layer."""
    metrics = module.summarize([tracer.spans], 0.0, 0.0)
    return {layer: metrics[f"{layer}.calls"][0] for layer in module.LAYERS}


def test_every_layer_records_spans(tracing):
    """solve_all at the fig1a probe point reaches the normal modes and all
    four solvers; correlation_report reaches all four Gaussian measures."""
    module, tracer = tracing
    results = compare.solve_all(with_k(WIDE_GAP, 0.01))
    calls = layer_calls(module, tracer)
    assert all(calls[layer] > 0 for layer in SOLVER_LAYERS), calls
    compare.correlation_report(results[0].covariance, results[-1].covariance)
    calls = layer_calls(module, tracer)
    assert all(calls[layer] > 0 for layer in GAUSSIAN_LAYERS), calls
