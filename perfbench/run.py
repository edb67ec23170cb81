"""qwire benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload currents --seed 1 --seconds 20 --trace 0

Run it from the root of a qwire source tree; it imports src/qwire.  The
workloads are closed loops with one client:

  cli-sweep     `qwire sweep --scenario fig1a|fig1b --jobs 2`, as
                subprocesses; one op is one CSV row
  currents      compare.solve_all on pool points; one op is one point
  correlations  compare.correlation_report on both nodes of pool states;
                one op is one state

A run repeats whole passes over its inputs until --seconds is used up (at
least one pass) and checks every output (checks.py).  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it makes one traced pass
and prints per-layer metrics.  The last line of stdout is the result
JSON; .perfbench/ under the current directory receives the run record
(environment, every metric, every failed op with its reason), the CLI's
CSVs and the traced spans.
"""

import os

# before numpy loads, here and in every process started from here: two
# pool workers must not each start a BLAS thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("cli-sweep", "currents", "correlations")
JOBS = 2
SETUP_SAMPLES = 3
OVERHEAD_PAIRS = 3
DEADLINE_S = 170.0
#: the probe row: the fig1a preset at k = 0.01, off its sweep grid
PROBE = dict(omega_c=1.0, omega_h=2.0, k=0.01, t_c=2.0, t_h=3.0,
             lambda_sq=1e-3, cutoff=1e3)

_START = perf_counter()


class Run:
    """What one run measured and found."""

    def __init__(self):
        self.metrics: dict = {}
        self.attempted = 0
        self.failures: list = []   # (op label, reason)
        self.failed = 0
        self.correct = True
        self.sweep_walls: list = []   # (scenario, seconds), cli-sweep only

    def record(self, label: str, fails: list) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
        for reason, regression in fails:
            self.failures.append((label, reason))
            if regression:
                self.correct = False

    def end_to_end(self, setup_s, pass_walls, op_lat, cpu_s, rss_kb):
        ops = len(op_lat)
        wall = sum(pass_walls)
        self.metrics.update({
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(pass_walls), "s"),
            "ops_per_s": (ops / wall, "1/s"),
            "op_p50_ms": (tracing.percentile(op_lat, 50) * 1e3, "ms"),
            "op_p90_ms": (tracing.percentile(op_lat, 90) * 1e3, "ms"),
            "cpu_ms_per_op": (cpu_s / ops * 1e3, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "ok_frac": (1.0 - self.failed / self.attempted, "frac"),
        })


def _keep_going(started: float, pass_walls: list, seconds: float) -> bool:
    """Start another pass only if it should end within the run's time."""
    return (perf_counter() - started + statistics.median(pass_walls)
            <= seconds)


# ----------------------------------------------------- in-process workloads

def prepare(workload: str, seed: int) -> list:
    """Imports plus input generation: the in-process set-up."""
    import numpy as np
    from qwire import WireParams

    if workload == "currents":
        items = inputs.currents_inputs(seed, inputs.load_pool("points"))
        for p in items:
            p["wire"] = WireParams(**p["params"])
            p["ref_exact"] = np.array(inputs.unpack(p["exact"]))
    else:
        items = inputs.correlations_inputs(seed, inputs.load_pool("states"))
        for s in items:
            s["cov_m"] = np.array(inputs.unpack(s["cov"]))
            s["exact_cov_m"] = np.array(inputs.unpack(s["exact_cov"]))
    return items


def _op_function(workload: str):
    from qwire import compare

    if workload == "currents":
        return lambda p: compare.solve_all(p["wire"])

    def reports(s):
        out = {}
        for node in inputs.NODES:
            try:
                out[node] = compare.correlation_report(
                    s["cov_m"], s["exact_cov_m"], node)
            except Exception as exc:  # a failed op, checked below
                out[node] = exc
        return out
    return reports


def _one_pass(items: list, op, tracer=None):
    results, lat = [], []
    cpu0 = process_time()
    t0 = perf_counter()
    for i, item in enumerate(items):
        s = perf_counter()
        with tracer.span("bench.op", op=i) if tracer else nullcontext():
            try:
                out = op(item)
            except Exception as exc:  # a failed op, checked below
                out = exc
        lat.append(perf_counter() - s)
        results.append(out)
    return perf_counter() - t0, process_time() - cpu0, lat, results


def _check_pass(run: Run, workload: str, items: list, results: list):
    for item, out in zip(items, results):
        if workload == "currents":
            p = item["params"]
            label = (f"point {item['id']} ({item['regime']}, k={p['k']:.3g}, "
                     f"t_c={p['t_c']:.3g}, t_h={p['t_h']:.3g}, "
                     f"lambda_sq={p['lambda_sq']:.3g})")
            run.record(label, checks.check_currents(item, out))
            continue
        if item["kind"] == "model":
            label = (f"state {item['id']} ({item['method']} at point "
                     f"{item['point']}, {item['regime']})")
        else:
            label = f"state {item['id']} (random, mix={item['mix']:.3g})"
        run.record(label, checks.check_correlations(item, out))


def run_in_process(args, run: Run) -> None:
    samples = [] if args.trace else [_setup_subprocess(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
    t0 = perf_counter()
    items = prepare(args.workload, args.seed)
    setup_s = perf_counter() - t0
    op = _op_function(args.workload)

    if args.trace:
        spans_dir = _empty_spans_dir()
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        wall, _, lat, results = _one_pass(items, op, tracer)
        _check_pass(run, args.workload, items, results)
        overhead = _probe_and_overhead(tracer, uninstall)
        tracing.dump(tracer.spans, spans_dir)
        run.metrics.update(tracing.summarize([tracer.spans], sum(lat) / wall,
                                             overhead))
        return

    walls, lat_all, cpu = [], [], 0.0
    started = perf_counter()
    while True:
        wall, cpu_s, lat, results = _one_pass(items, op)
        walls.append(wall)
        lat_all += lat
        cpu += cpu_s
        _check_pass(run, args.workload, items, results)
        if not _keep_going(started, walls, args.seconds):
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.end_to_end(statistics.median(samples + [setup_s]), walls, lat_all,
                   cpu, rss)


def _empty_spans_dir() -> pathlib.Path:
    """.perfbench/spans, emptied: a traced run writes one file per process."""
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    for old in spans_dir.glob("spans-*.json"):
        old.unlink()
    return spans_dir


def _setup_subprocess(args) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        check=True, capture_output=True, text=True, timeout=_remaining())
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _probe_and_overhead(tracer, uninstall) -> float:
    """Trace the probe row once, then time it alternately untraced and
    traced; returns the tracing overhead as a fraction."""
    from qwire import WireParams, compare

    params = WireParams(**PROBE)
    with tracer.span("bench.probe", op="probe"):
        compare.sweep_row(params, "k", PROBE["k"])
    uninstall()
    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        t0 = perf_counter()
        compare.sweep_row(params, "k", PROBE["k"])
        plain.append(perf_counter() - t0)
        undo = tracing.install(tracing.Tracer())
        t0 = perf_counter()
        compare.sweep_row(params, "k", PROBE["k"])
        traced.append(perf_counter() - t0)
        undo()
    return statistics.median(traced) / statistics.median(plain) - 1.0


# -------------------------------------------------------------- cli-sweep

def _remaining() -> float:
    return max(DEADLINE_S - (perf_counter() - _START), 1.0)


def _run_cli(argv: list, env: dict) -> tuple:
    """Run the qwire CLI; returns (wall seconds, exit code, stderr).  The
    CLI and its pool share a new session, killed whole on the deadline."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qwire.cli"] + argv,
                            env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=_remaining())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err += "\nkilled at the benchmark's deadline"
    return perf_counter() - t0, proc.returncode, err


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _sweep_pass(run: Run, order: list, env: dict, work: pathlib.Path):
    walls, lat = [], []
    for scenario in order:
        csv_path = work / f"{scenario}.csv"
        csv_path.unlink(missing_ok=True)
        wall, code, err = _run_cli(
            ["sweep", "--scenario", scenario, "--jobs", str(JOBS),
             "-o", str(csv_path)], env)
        walls.append(wall)
        run.sweep_walls.append((scenario, wall))
        ref = (inputs.DATA / f"{scenario}.csv").read_text(encoding="utf-8")
        if code != 0:
            rows = [[(f"qwire sweep exited {code}: {err.strip()[-300:]}",
                      True)]] * (ref.count("\n") - 1)
        else:
            rows = checks.check_sweep(csv_path.read_text(encoding="utf-8"),
                                      ref)
        for i, fails in enumerate(rows):
            run.record(f"{scenario} row {i}", fails)
        lat += [wall / len(rows)] * len(rows)
    return walls, lat


def run_cli_sweep(args, run: Run) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    order = inputs.cli_inputs(args.seed)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)

    if args.trace:
        spans_dir = _empty_spans_dir()
        traced_env = dict(env, PERFBENCH_TRACE_DIR=str(spans_dir))
        traced_env["PYTHONPATH"] = os.pathsep.join(
            [str(HERE / "tracehook"), env["PYTHONPATH"]])
        walls, _ = _sweep_pass(run, order, traced_env, work)
        span_lists = [json.loads(p.read_text())["spans"]
                      for p in sorted(spans_dir.glob("spans-*.json"))]
        rows_ms = sum((s[tracing.END] - s[tracing.START]) * 1e3
                      for spans in span_lists for s in spans
                      if s[tracing.PARENT] is None)
        tracer = tracing.Tracer()
        overhead = _probe_and_overhead(tracer, tracing.install(tracer))
        tracing.dump(tracer.spans, spans_dir)
        run.metrics.update(tracing.summarize(
            span_lists + [tracer.spans], rows_ms / (JOBS * sum(walls) * 1e3),
            overhead))
        return

    setup = [_run_cli(["scenarios"], env)[0] for _ in range(SETUP_SAMPLES)]
    walls, lat_all = [], []
    cpu0 = _children_cpu()
    started = perf_counter()
    while True:
        pass_walls, lat = _sweep_pass(run, order, env, work)
        walls.append(sum(pass_walls))
        lat_all += lat
        if not _keep_going(started, walls, args.seconds):
            break
    cpu = _children_cpu() - cpu0
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.end_to_end(statistics.median(setup), walls, lat_all, cpu, rss)


# ----------------------------------------------------------------- record

def environment() -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qwire").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "blas_threads": {v: os.environ[v] for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qwire" / "__init__.py").is_file():
        print(f"no qwire source tree: {SRC / 'qwire'} is missing; run from "
              "the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        t0 = perf_counter()
        prepare(args.workload, args.seed)
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    run = Run()
    if args.workload == "cli-sweep":
        run_cli_sweep(args, run)
    else:
        run_in_process(args, run)

    OUT.mkdir(exist_ok=True)
    reasons: dict = {}
    for _, reason in run.failures:
        kind = re.sub(r"[-+]?\d[\d.e+-]*", "#", reason)
        reasons[kind] = reasons.get(kind, 0) + 1
    for kind, n in sorted(reasons.items(), key=lambda kv: -kv[1]):
        print(f"failed check x{n}: {kind}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "sweep_walls_s": run.sweep_walls,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in run.metrics.items()},
              "failures": [{"op": op, "reason": r} for op, r in run.failures]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": record["environment"],
                      "record": str(path.relative_to(ROOT))}))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
