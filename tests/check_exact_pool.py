"""Compare the exact solver with the benchmark's frozen covariances.

perfbench/data/points.json freezes the exact covariance at 306 parameter
points.  At some of them the frozen heat current is quadrature noise, so
the benchmark accepts only output that is bit-identical to the frozen
one.  This script recomputes every point in one exact_steady_states
call, which runs a rolling window of exact._WINDOW replays, and lists
those that differ in any bit.  Tier-1 runs the same check
(test_exact.py::TestBatchedQuadrature::
test_frozen_benchmark_covariances_reproduced).  From the repository root:

    PYTHONPATH=src python3 tests/check_exact_pool.py

It exits with status 1 if any point differs.
"""

from __future__ import annotations

import json
import pathlib
import sys

from qwire import WireParams, exact_steady_states

POOL = (pathlib.Path(__file__).resolve().parent.parent
        / "perfbench" / "data" / "points.json")
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]


def pool_mismatches(ids=None) -> list:
    """Ids of the pool points (all, or those in ids) whose recomputed
    covariance is not bit-identical to the frozen one."""
    points = [point for point
              in json.loads(POOL.read_text(encoding="utf-8"))["points"]
              if ids is None or point["id"] in ids]
    results = exact_steady_states([WireParams(**point["params"])
                                   for point in points])
    out = []
    for point, result in zip(points, results):
        # bit patterns, so that a zero's sign counts; a failed point's
        # NaN placeholder matches no frozen value
        if ([float(result.covariance[i, j]).hex() for i, j in _UPPER]
                != [float(v).hex() for v in point["exact"]]):
            out.append(point["id"])
    return out


if __name__ == "__main__":
    bad = pool_mismatches()
    print(json.dumps({"mismatched_ids": bad}))
    sys.exit(1 if bad else 0)
