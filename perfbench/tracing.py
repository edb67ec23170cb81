"""Spans around the public calls of each qwire layer, recorded from outside.

install() rebinds every reference to a traced function inside the loaded
qwire modules (module attributes, and dict values such as
compare._SOLVERS) to a wrapper that records a span on a Tracer, and wraps
the `quad_vec` name that qwire.exact calls so that the exact solver's
integrand evaluations and subintervals are counted.  The returned function
undoes all of it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

#: traced function -> layer; the compare layer is the glue around the others
TRACED = {
    "qwire.compare.sweep_row": "compare",
    "qwire.compare.solve_all": "compare",
    "qwire.compare.correlation_report": "compare",
    "qwire.model.normal_modes": "model",
    "qwire.model.secular_validity_margin": "model",
    "qwire.gme.gme_steady_state": "gme",
    "qwire.lme.lme_steady_state": "lme",
    "qwire.redfield.redfield_steady_state": "redfield",
    "qwire.exact.exact_steady_state": "exact",
    "qwire.gaussian.mutual_information": "gaussian.mutual_information",
    "qwire.gaussian.gaussian_discord": "gaussian.gaussian_discord",
    "qwire.gaussian.fidelity": "gaussian.fidelity",
    "qwire.gaussian.log_negativity": "gaussian.log_negativity",
}
LAYERS = ("model", "gme", "lme", "redfield", "exact",
          "gaussian.mutual_information", "gaussian.gaussian_discord",
          "gaussian.fidelity", "gaussian.log_negativity")

# span record fields
NAME, START, END, PARENT, OP, COUNTS, ERROR = range(7)


class Tracer:
    """In-memory spans of one process: [name, start, end, parent, op,
    counts, error], parent being an index into the same list."""

    def __init__(self, on_fork=None):
        self.pid = os.getpid()
        self.spans: list = []
        self._stack: list = []
        self._roots = 0
        self._on_fork = on_fork

    def _open(self, name: str, op) -> list:
        if self.pid != os.getpid():
            # first call in a forked child: drop the parent's spans
            self.pid = os.getpid()
            self.spans, self._stack, self._roots = [], [], 0
            if self._on_fork is not None:
                self._on_fork()
        if self._stack:
            parent, op = self._stack[-1], self.spans[self._stack[-1]][OP]
        else:
            parent = None
            if op is None:  # a root call nobody labelled: one op per root
                op = f"{self.pid}:{self._roots}"
            self._roots += 1
        rec = [name, 0.0, 0.0, parent, op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    @contextmanager
    def span(self, name: str, op=None):
        """A span opened by the benchmark itself, e.g. around one op."""
        rec = self._open(name, op)
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, args, kwargs):
        rec = self._open(name, None)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def count(self, key: str, n: int) -> None:
        """Add n to a work counter of the innermost open span."""
        if self._stack:
            rec = self.spans[self._stack[-1]]
            if rec[COUNTS] is None:
                rec[COUNTS] = {}
            rec[COUNTS][key] = rec[COUNTS].get(key, 0) + n


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def _wrap_quad_vec(tracer: Tracer, quad_vec):
    @functools.wraps(quad_vec)
    def counted_quad_vec(f, *args, **kwargs):
        evals = [0]

        def integrand(x):
            evals[0] += 1
            return f(x)
        try:
            res = quad_vec(integrand, *args, **kwargs)
        finally:
            tracer.count("integrand_evals", evals[0])
        if kwargs.get("full_output"):
            tracer.count("subintervals", len(res[2].intervals))
        return res
    return counted_quad_vec


def install(tracer: Tracer):
    """Trace the qwire layers in this process; returns the undo function."""
    for name in sorted({n.rsplit(".", 1)[0] for n in TRACED}):
        importlib.import_module(name)
    modules = [m for n, m in sys.modules.items()
               if n == "qwire" or n.startswith("qwire.")]
    wrappers = {}   # traced function -> its wrapper
    for qualname in TRACED:
        modname, attr = qualname.rsplit(".", 1)
        target = getattr(sys.modules[modname], attr, None)
        if callable(target):
            wrappers[target] = _wrap(tracer, qualname[6:], target)
    quad_vec = getattr(sys.modules["qwire.exact"], "quad_vec", None)
    if callable(quad_vec):
        wrappers[quad_vec] = _wrap_quad_vec(tracer, quad_vec)
    undo = []
    for module in modules:
        mappings = [vars(module)] + [v for v in vars(module).values()
                                     if type(v) is dict]
        for mapping in mappings:
            for key, value in list(mapping.items()):
                if callable(value) and value in wrappers:
                    mapping[key] = wrappers[value]
                    undo.append((mapping, key, value))

    def uninstall():
        for mapping, key, original in reversed(undo):
            mapping[key] = original
    return uninstall


def dump(spans: list, out_dir) -> None:
    """Write one process's spans to out_dir/spans-<pid>.json."""
    path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(), "spans": spans}, fh)


def trace_process(out_dir: str) -> None:
    """Trace this process and every process forked or spawned from it,
    each writing its spans to out_dir/spans-<pid>.json when it exits.

    Used by tracehook/sitecustomize.py to trace the qwire CLI and its
    process pool from outside.
    """
    import atexit
    from multiprocessing import util

    def flush():
        dump(tracer.spans, out_dir)

    # a pool worker ends through multiprocessing's finalizers, not atexit
    tracer = Tracer(on_fork=lambda: util.Finalize(None, flush, exitpriority=10))
    install(tracer)
    atexit.register(flush)


# ---------------------------------------------------------------- summary

def percentile(values: list, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(span_lists: list, pool_efficiency: float,
              overhead_frac: float) -> dict:
    """Every per-layer metric, from the spans of one or more processes
    and the two ratios the caller measured around them.

    busy_ms is a layer's self time: the duration of its spans minus the
    part covered by traced calls they made.  Root spans are ops.
    """
    self_ms = {layer: 0.0 for layer in LAYERS + ("compare",)}
    calls = {layer: 0 for layer in LAYERS}
    durations = {layer: [] for layer in LAYERS}
    counts = {"integrand_evals": 0, "subintervals": 0}
    probe = {"integrand_evals": 0, "subintervals": 0}
    errors = {layer: {} for layer in LAYERS}
    op_ms = 0.0
    for spans in span_lists:
        child_ms = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] is not None:
                child_ms[rec[PARENT]] += (rec[END] - rec[START]) * 1e3
        for i, rec in enumerate(spans):
            dur = (rec[END] - rec[START]) * 1e3
            if rec[PARENT] is None:
                op_ms += dur
            for key, n in (rec[COUNTS] or {}).items():
                counts[key] = counts.get(key, 0) + n
                if rec[OP] == "probe":
                    probe[key] = probe.get(key, 0) + n
            layer = TRACED.get("qwire." + rec[NAME])
            if layer is None:
                continue
            self_ms[layer] += dur - child_ms[i]
            if layer in calls:
                calls[layer] += 1
                durations[layer].append(dur)
                if rec[ERROR]:
                    errors[layer][rec[ERROR]] = errors[layer].get(rec[ERROR], 0) + 1
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_ms"] = (self_ms[layer], "ms")
        out[f"{layer}.calls"] = (calls[layer], "count")
    exact_ms = durations["exact"]
    out["exact.p50_ms"] = (percentile(exact_ms, 50), "ms")
    out["exact.p90_ms"] = (percentile(exact_ms, 90), "ms")
    out["exact.failed"] = (sum(errors["exact"].values()), "count")
    out["exact.integrand_evals"] = (counts["integrand_evals"], "count")
    out["exact.subintervals"] = (counts["subintervals"], "count")
    out["probe.exact.integrand_evals"] = (probe["integrand_evals"], "count")
    out["probe.exact.subintervals"] = (probe["subintervals"], "count")
    out["gaussian.gaussian_discord.p90_ms"] = (
        percentile(durations["gaussian.gaussian_discord"], 90), "ms")
    out["gaussian.nonphysical"] = (
        sum(errors[layer].get("NonPhysicalStateError", 0)
            for layer in LAYERS if layer.startswith("gaussian.")), "count")
    out["compare.self_ms"] = (self_ms["compare"], "ms")
    layer_ms = sum(self_ms[layer] for layer in LAYERS)
    out["trace.layer_frac"] = (layer_ms / op_ms if op_ms else 0.0, "frac")
    out["compare.pool_efficiency"] = (pool_efficiency, "frac")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out
