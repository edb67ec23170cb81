"""Regenerate the frozen references under perfbench/data.

Run from the repository root, on the commit whose outputs are trusted:

    python3 perfbench/regen.py

It writes
  fig1a.csv, fig1b.csv  `qwire sweep --scenario figX --jobs 2` output;
  points.json           the `currents` point pool with exact covariances;
  states.json           the `correlations` state pool with the measures
                        `compare.correlation_report` gives on it.
The pools are fixed by GENERATOR_SEED below, not by a benchmark seed: the
benchmark's --seed only selects from them (see inputs.py).  Takes about
five minutes on two cores.
"""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
sys.path.insert(0, str(ROOT / "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from qwire import WireParams, compare, gaussian  # noqa: E402

import inputs  # noqa: E402

GENERATOR_SEED = 1707_09228

#: node frequencies of the three regimes: fig1a-, fig1b- and fig2c-like
REGIMES = {
    "nondeg": (1.0, 2.0),
    "neardeg": (1.0, math.sqrt(1.0 + 2e-6)),
    "resonant": (10.0, 10.0),
}
CUTOFF = 1e3
LOG_K = (-9.0, 5.0)
LOG_TC = (math.log10(1e-2), math.log10(2.0))   # t_c / omega_c
LOG_RATIO = (math.log10(1.5), math.log10(20.0))  # t_h / t_c before capping
T_MAX = 3.0                                      # t_h / omega_c cap
LOG_LAMBDA_SQ = (-5.0, -2.0)
LOG_MIX = (-6.0, 0.0)


def latin_hypercube(rng, n, ranges, orders=None):
    """n points, each coordinate stratified into n equal bins of its range;
    orders[d], when given, fixes which point falls in which bin of d."""
    cols = []
    for d, (lo, hi) in enumerate(ranges):
        order = orders[d] if orders and orders[d] is not None \
            else rng.permutation(n)
        u = (order + rng.random(n)) / n
        cols.append(lo + u * (hi - lo))
    return np.array(cols).T


def make_points(rng) -> list:
    """Per regime, POINT_REPLICAS Latin hypercubes that share the pairing
    of log-k and log-lambda^2 bins.  A run takes one replica's point per
    k bin, so every run gets the same k and lambda^2 bins, the two inputs
    that set the exact solver's work, and runs differ in temperatures."""
    points = []
    n = inputs.K_STRATA
    for regime, (w_c, w_h) in REGIMES.items():
        orders = [np.arange(n), None, None, rng.permutation(n)]
        for replica in range(inputs.POINT_REPLICAS):
            design = latin_hypercube(rng, n, (LOG_K, LOG_TC, LOG_RATIO,
                                              LOG_LAMBDA_SQ), orders)
            for log_k, log_tc, log_ratio, log_lam in design:
                t_c = w_c * 10.0**log_tc
                t_h = min(t_c * 10.0**log_ratio, T_MAX * w_c)
                params = dict(omega_c=w_c, omega_h=w_h, k=10.0**log_k,
                              t_c=t_c, t_h=t_h, lambda_sq=10.0**log_lam,
                              cutoff=CUTOFF)
                stratum = int((log_k - LOG_K[0]) / (LOG_K[1] - LOG_K[0]) * n)
                points.append({"id": len(points), "regime": regime,
                               "replica": replica, "stratum": stratum,
                               "params": params})
    return points


def measures(cov, exact_cov) -> dict:
    out = {}
    for node in inputs.NODES:
        try:
            rep = compare.correlation_report(cov, exact_cov, node)
        except gaussian.NonPhysicalStateError:
            out[node] = {"error": "NonPhysicalStateError"}
            continue
        out[node] = {key: getattr(rep, key) for key in inputs.MEASURES}
    return out


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    DATA.mkdir(exist_ok=True)
    for scenario in inputs.CLI_SCENARIOS:
        subprocess.run([sys.executable, "-m", "qwire.cli", "sweep",
                        "--scenario", scenario, "--jobs", "2",
                        "-o", str(DATA / f"{scenario}.csv")],
                       env=env, check=True, cwd=ROOT)

    rng = np.random.default_rng(GENERATOR_SEED)
    points = make_points(rng)
    states = []
    for point in points:
        results = compare.solve_all(WireParams(**point["params"]))
        exact = inputs.pack(results[-1].covariance)
        point["exact"] = exact
        if point["replica"] != 0:
            continue
        for res in results:
            states.append({"kind": "model", "method": res.method,
                           "point": point["id"], "regime": point["regime"],
                           "stratum": point["stratum"],
                           "t_c": point["params"]["t_c"],
                           "cov": inputs.pack(res.covariance),
                           "exact_cov": exact})
        print(f"point {point['id']}", file=sys.stderr, flush=True)

    n = inputs.MIX_STRATA
    for log_mix in latin_hypercube(rng, n, [LOG_MIX])[:, 0]:
        stratum = int((log_mix - LOG_MIX[0]) / (LOG_MIX[1] - LOG_MIX[0]) * n)
        mix = 10.0**log_mix
        g = rng.standard_normal((4, 4))
        g_exact = g + 0.1 * rng.standard_normal((4, 4))
        states.append({"kind": "random", "stratum": stratum, "mix": mix,
                       "cov": inputs.pack(0.5 * np.eye(4) + mix * g @ g.T),
                       "exact_cov": inputs.pack(0.5 * np.eye(4)
                                                + mix * g_exact @ g_exact.T)})
    for i, state in enumerate(states):
        # measured on the stored (unpacked) matrices, so that the measures
        # belong to exactly the inputs the benchmark loads
        state["id"] = i
        state["ref"] = measures(np.array(inputs.unpack(state["cov"])),
                                 np.array(inputs.unpack(state["exact_cov"])))

    inputs.write_pool(DATA / "points.json", "points", points)
    inputs.write_pool(DATA / "states.json", "states", states)
    return 0


if __name__ == "__main__":
    sys.exit(main())
