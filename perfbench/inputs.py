"""Frozen input pools and the seeded selection of each run's inputs.

Standard library only, so the same seed gives byte-identical inputs
whatever numpy version is installed.  regen.py builds the pools; every
benchmark run draws from them with random.Random(seed).
"""

from __future__ import annotations

import json
import pathlib
import random

DATA = pathlib.Path(__file__).resolve().parent / "data"

CLI_SCENARIOS = ("fig1a", "fig1b")
NODES = ("c", "h")
MEASURES = ("fidelity_to_exact", "mutual_information", "discord_arrow",
            "classical_arrow", "log_negativity")

#: `currents` pool: per regime, POINT_REPLICAS Latin hypercubes of
#: K_STRATA points; a run takes one point per (regime, log-k stratum)
K_STRATA = 34
POINT_REPLICAS = 3
#: `correlations` pool: model states of replica 0 (4 methods x 3 regimes x
#: K_STRATA) and MIX_STRATA random states, one per log-mix bin; a run takes
#: MODEL_PER_GROUP model states per (method, regime), evenly spaced in t_c,
#: and every random state
MODEL_PER_GROUP = 5
MIX_STRATA = 40

_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]


def pack(matrix) -> list:
    """Upper triangle of a symmetric 4x4 matrix as 10 floats."""
    return [float(matrix[i][j]) for i, j in _UPPER]


def unpack(values) -> list:
    """Inverse of pack(): the symmetric 4x4 matrix as nested lists."""
    out = [[0.0] * 4 for _ in range(4)]
    for (i, j), v in zip(_UPPER, values):
        out[i][j] = out[j][i] = float(v)
    return out


def write_pool(path: pathlib.Path, key: str, entries: list) -> None:
    """One JSON entry per line, so a regenerated pool diffs line by line."""
    body = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
    path.write_text(f'{{"{key}": [\n{body}\n]}}\n', encoding="utf-8")


def load_pool(key: str) -> list:
    path = DATA / f"{key}.json"
    return json.loads(path.read_text(encoding="utf-8"))[key]


def cli_inputs(seed: int) -> list:
    """The two preset sweeps, in a seeded order.

    The CLI takes a preset's grid or a log grid, never a list of points,
    so the preset grids are the inputs and the seed only orders them.
    """
    order = list(CLI_SCENARIOS)
    random.Random(seed).shuffle(order)
    return order


def currents_inputs(seed: int, points: list) -> list:
    """One pool point per (regime, log-k stratum), in a seeded order."""
    rng = random.Random(seed)
    cells: dict = {}
    for p in points:
        cells.setdefault((p["regime"], p["stratum"]), []).append(p)
    chosen = [cands[rng.randrange(len(cands))]
              for _, cands in sorted(cells.items())]
    rng.shuffle(chosen)
    return chosen


def correlations_inputs(seed: int, states: list) -> list:
    """Model states evenly spaced in t_c from a seeded offset, per (method,
    regime), and all random states, in a seeded order.

    Spacing the model states in temperature keeps the share of near-pure
    (low-temperature) states the same in every run.  The random states are
    the same in every run: the discord search's cost varies most on them,
    so they set op_p90_ms."""
    rng = random.Random(seed)
    groups: dict = {}
    chosen = []
    for s in states:
        if s["kind"] == "model":
            groups.setdefault((s["method"], s["regime"]), []).append(s)
        else:
            chosen.append(s)
    for _, group in sorted(groups.items()):
        group.sort(key=lambda s: s["t_c"])
        offset = rng.random()
        chosen += [group[int((offset + j) * len(group) / MODEL_PER_GROUP)]
                   for j in range(MODEL_PER_GROUP)]
    rng.shuffle(chosen)
    return chosen
