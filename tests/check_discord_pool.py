"""Compare the discord search's polish with scipy's on the benchmark's
frozen states.

gaussian._min_conditional_entropy polishes the grid minimum of the
conditional entropy with a Nelder-Mead search on Python floats, which
must return scipy's minimum bit for bit.  This script computes both
minima, the library's and oracles.min_conditional_entropy, for both
measured nodes of every state in perfbench/data/states.json (896 calls,
about a minute) and lists those that differ in any bit.  It compares
the minimum rather than the discord, so a change in the entropies around
it cannot hide a difference.  From the repository root:

    PYTHONPATH=src python3 tests/check_discord_pool.py

It exits with status 1 if any call differs.
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

import oracles
from qwire import gaussian

POOL = (pathlib.Path(__file__).resolve().parent.parent
        / "perfbench" / "data" / "states.json")
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]


def pool_mismatches(ids=None) -> list:
    """(id, node) of the pool states (all, or those in ids) whose polished
    minimum is not bit-identical to scipy's."""
    states = json.loads(POOL.read_text(encoding="utf-8"))["states"]
    out = []
    for state in states:
        if ids is not None and state["id"] not in ids:
            continue
        gamma = np.zeros((4, 4))
        for (i, j), value in zip(_UPPER, state["cov"]):
            gamma[i, j] = gamma[j, i] = value
        for node in ("c", "h"):
            a, b, c = gaussian._blocks(gamma, node)
            ours = gaussian._min_conditional_entropy(a, b, c)
            if repr(ours) != repr(oracles.min_conditional_entropy(a, b, c)):
                out.append([state["id"], node])
    return out


if __name__ == "__main__":
    bad = pool_mismatches()
    print(json.dumps({"mismatched": bad}))
    sys.exit(1 if bad else 0)
