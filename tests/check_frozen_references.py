"""List the benchmark pool points whose frozen exact current is off the
pole oracle.

perfbench/data/points.json freezes the exact solver's covariance at 306
parameter points, and the `currents` check derives the frozen current
(k/2)(Gamma_23 - Gamma_14) from it.  This script recomputes that current
with oracles.exact_current_mpmath, the pole and digamma sum differenced
at 60 digits, and prints each point whose frozen current is off it by
more than the check's tolerance, 1e-6 of (k/2)(|Gamma_23| + |Gamma_14|)
of the frozen entries.  It reads the file and never writes it.  From the
repository root (about a minute):

    PYTHONPATH=src python3 tests/check_frozen_references.py

It prints one JSON line per point that is off, then the list of their
ids, and exits with status 1 if there is any.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from checks import RTOL  # noqa: E402
from oracles import exact_current_mpmath  # noqa: E402
from qwire import WireParams  # noqa: E402

POOL = ROOT / "perfbench" / "data" / "points.json"
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]


def stale_currents() -> list:
    """(id, frozen current, oracle current, error / tolerance) of each
    pool point whose frozen current fails the `currents` check against
    the oracle."""
    out = []
    for point in json.loads(POOL.read_text(encoding="utf-8"))["points"]:
        frozen = dict(zip(_UPPER, point["exact"]))
        half_k = 0.5 * point["params"]["k"]
        current = half_k * (frozen[1, 2] - frozen[0, 3])
        tol = RTOL * half_k * (abs(frozen[1, 2]) + abs(frozen[0, 3]))
        oracle = exact_current_mpmath(WireParams(**point["params"]))
        if not abs(current - oracle) <= tol:
            out.append((point["id"], current, oracle,
                        abs(current - oracle) / tol))
    return out


if __name__ == "__main__":
    stale = stale_currents()
    for point_id, current, oracle, excess in stale:
        print(json.dumps({"id": point_id, "frozen": current,
                          "oracle": oracle, "error_over_tol": excess}))
    print(json.dumps({"stale_ids": sorted(row[0] for row in stale)}))
    sys.exit(1 if stale else 0)
