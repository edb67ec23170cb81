"""Shared fixtures for the test suite."""

import dataclasses
import json
import math
import pathlib
import weakref

import pytest

import numpy as np

from qwire import SteadyStateResult, WireParams, exact, gaussian

DATA_DIR = pathlib.Path(__file__).parent / "data"
POOL = (pathlib.Path(__file__).resolve().parent.parent
        / "perfbench" / "data" / "states.json")

#: benchmark parameter sets (k is point-specific and set via with_k)
WIDE_GAP = WireParams(omega_c=1.0, omega_h=2.0, k=0.1, t_c=2.0, t_h=3.0,
                      lambda_sq=1e-3, cutoff=1e3)
NEAR_DEGENERATE = WireParams(omega_c=1.0, omega_h=math.sqrt(1.0 + 2e-6),
                             k=1e-3, t_c=2.0, t_h=3.0, lambda_sq=1e-3,
                             cutoff=1e3)
RESONANT_STRONG = WireParams(omega_c=10.0, omega_h=10.0, k=1e3, t_c=1.0,
                             t_h=2.0, lambda_sq=1e-3, cutoff=1e3)

#: a cutoff close to the node frequencies: the exact quadrature converges
#: up to k = 1e3, and from k = 2154.43... on it reaches the limit of 2000
#: subintervals and fails
NARROW_CUTOFF = WireParams(omega_c=1.0, omega_h=2.0, k=0.01, t_c=0.1,
                           t_h=0.15, lambda_sq=1e-4, cutoff=3.0)


def with_k(params: WireParams, k: float) -> WireParams:
    return dataclasses.replace(params, k=k)


def swapped(params: WireParams) -> WireParams:
    """The same wire with the c/h labels exchanged."""
    return dataclasses.replace(params, omega_c=params.omega_h,
                               omega_h=params.omega_c, t_c=params.t_h,
                               t_h=params.t_c)


def failed_result(method: str) -> SteadyStateResult:
    """The result a solver returns where it fails: NaN covariance and
    currents, and its reason."""
    return SteadyStateResult(method=method,
                             covariance=np.full((4, 4), math.nan),
                             heat_currents=(math.nan, math.nan),
                             diagnostics={"error": "synthetic failure"})


def pool_states() -> list:
    """The benchmark's frozen pool of 448 covariance matrices, as
    (id, covariance, exact covariance) triples."""
    doc = json.loads(POOL.read_text(encoding="utf-8"))
    upper = [(i, j) for i in range(4) for j in range(i, 4)]

    def matrix(entries):
        gamma = np.zeros((4, 4))
        for (i, j), value in zip(upper, entries):
            gamma[i, j] = gamma[j, i] = value
        return gamma
    return [(state["id"], matrix(state["cov"]), matrix(state["exact_cov"]))
            for state in doc["states"]]


def alone(measure, gamma, *args) -> float:
    """A measure of the state gamma in a stack of its own: NaN if the
    state fails the physicality check."""
    return float(measure(gaussian.StateStack([gamma]), *args)[0])


def pair_fidelity(g1, g2) -> float:
    """F(g1, g2) from a stack of the two states, each the other's partner;
    NaN if either fails the physicality check."""
    return float(gaussian.fidelity(gaussian.StateStack([g1, g2]), [1, 0])[0])


def count_spectra(monkeypatch) -> list:
    """A list that grows at every spectrum pass taken, by the shape
    (n + m, 4, 4) of the n matrices and m partial transposes in it."""
    spectra = []
    spectrum = gaussian._spectra

    def counted(g, m):
        spectra.append((len(g) + m, 4, 4))
        return spectrum(g, m)
    monkeypatch.setattr(gaussian, "_spectra", counted)
    return spectra


def lone_replay(params) -> exact._Quadrature:
    """The quadrature of one point, its _replay driven alone: one _gk21
    call per request, however many intervals it holds."""
    kernel = exact._Kernel.of([params])
    replay = exact._replay(params)
    step = next(replay)
    while not isinstance(step, exact._Quadrature):
        lo, hi = step
        step = replay.send(exact._gk21(np.array(lo), np.array(hi), kernel,
                                       [0] * len(lo)))
    return step


def trace_replays(monkeypatch) -> tuple:
    """(log, refs): wrap qwire.exact._replay so that each replay logs
    ("start", params) when it asks for its first intervals and
    ("finish", params) when it yields its _Quadrature; refs maps params
    to weakrefs of its replay and, once it finishes, of its _Quadrature."""
    log, refs = [], {}
    replay = exact._replay

    def steps(params):
        inner = replay(params)
        step = next(inner)
        log.append(("start", params))
        while not isinstance(step, exact._Quadrature):
            step = inner.send((yield step))
        log.append(("finish", params))
        refs[params].append(weakref.ref(step))
        yield step

    def traced(params):
        outer = steps(params)
        refs[params] = [weakref.ref(outer)]
        return outer
    monkeypatch.setattr(exact, "_replay", traced)
    return log, refs


@pytest.fixture(scope="session")
def fock_reference() -> dict:
    path = DATA_DIR / "fock_reference.json"
    if not path.exists():
        pytest.skip("frozen Fock reference data missing; run "
                    "tests/generate_reference_states.py first")
    return json.loads(path.read_text())
