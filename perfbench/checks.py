"""Correctness checks of one op's outputs.

Each check returns a list of failures, (reason, regression) pairs.  A
regression is a mismatch against a frozen reference where the reference
is trusted; it makes the run incorrect.  The other failures come from
invariants and from numbers computed here independently of qwire; they
count as failed ops and show where the program is wrong today (see
README.md for which quantity is checked how, and why).
"""

from __future__ import annotations

import csv
import io
import math

RTOL = 1e-6
#: entropic quantities are differences of O(1) entropies, and discord is
#: the result of a search stopped at an absolute tolerance of 1e-13
ENTROPY_ATOL = 1e-12
#: same bound as PHYSICALITY_TOL in qwire.gaussian and `qwire validate`
PHYSICALITY_TOL = 1e-9
#: states whose smallest symplectic eigenvalue is this close to 1/2 are
#: near-pure; there the frozen discord and fidelity are not trusted
NEAR_PURE = 1e-3

METHODS = ("global", "local", "redfield", "exact")
SECOND_LAW = ("global", "redfield", "exact")
_ENTROPIC_COLUMNS = ("mutual_info", "discord", "classical", "log_neg")
_UNCHECKED_COLUMNS = ("exact_quad_error",)


def close(value: float, ref: float, atol: float = 0.0) -> bool:
    if not math.isfinite(ref):
        return True
    return (math.isfinite(value)
            and abs(value - ref) <= RTOL * max(abs(value), abs(ref)) + atol)


# ------------------------------------------------------------- cli-sweep

def sweep_rows(text: str) -> tuple:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(c) for c in row] for row in rows[1:]]


def check_sweep(text: str, ref_text: str) -> list:
    """Failures per row of a `qwire sweep` CSV against the frozen one.

    The second-law sign check assumes t_h > t_c, as in fig1a and fig1b."""
    ref_header, ref_rows = sweep_rows(ref_text)
    try:
        header, rows = sweep_rows(text)
    except (ValueError, IndexError) as exc:
        return [[(f"unreadable CSV: {exc}", True)] for _ in ref_rows]
    if header != ref_header:
        return [[("CSV header differs from the reference", True)]
                for _ in ref_rows]
    out = []
    for i, ref in enumerate(ref_rows):
        if i >= len(rows) or len(rows[i]) != len(ref):
            out.append([("row missing or of the wrong width", True)])
            continue
        row = dict(zip(header, rows[i]))
        fails = []
        for col, value, expect in zip(header, rows[i], ref):
            if col in _UNCHECKED_COLUMNS:
                continue
            atol = ENTROPY_ATOL if col.endswith(_ENTROPIC_COLUMNS) else 0.0
            if not close(value, expect, atol):
                fails.append((f"{col} = {value!r}, reference {expect!r}", True))
        for m in METHODS:
            i_, q_ = row[f"{m}_mutual_info"], row[f"{m}_discord"]
            if not (q_ >= 0.0 and q_ <= i_ * (1 + RTOL) + ENTROPY_ATOL):
                fails.append((f"{m}: not I >= Q >= 0 (I={i_!r}, Q={q_!r})",
                              False))
            f_ = row[f"{m}_fidelity_to_exact"]
            if not 0.0 < f_ <= 1.0:
                fails.append((f"{m}: fidelity {f_!r} outside (0, 1]", False))
            if m in SECOND_LAW and not row[f"{m}_qdot_h"] > 0:
                fails.append((f"{m}: qdot_h = {row[f'{m}_qdot_h']!r} with "
                              "t_h > t_c", False))
        out.append(fails)
    return out


# ------------------------------------------------ independent evaluations

def symplectic_spectrum(gamma):
    """Symplectic eigenvalues, ascending, from the Hermitian matrix
    i G^1/2 J G^1/2, whose eigenvalues are exactly +-nu; accurate to
    rounding even for near-pure states.  A matrix that is not positive
    definite gets zeros (it is not a physical covariance)."""
    import numpy as np
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0] // 2
    w, v = np.linalg.eigh(gamma)
    if not w.min() > 0.0:
        return np.zeros(n)
    root = (v * np.sqrt(w)) @ v.T
    j = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return np.linalg.eigvalsh(1j * root @ j @ root)[n:]


def _entropy(nus) -> float:
    total = 0.0
    for nu in nus:
        nu = max(float(nu), 0.5)
        total += (nu + 0.5) * math.log(nu + 0.5)
        if nu > 0.5:
            total -= (nu - 0.5) * math.log(nu - 0.5)
    return total


def mutual_information(gamma) -> float:
    return (_entropy(symplectic_spectrum(gamma[:2, :2]))
            + _entropy(symplectic_spectrum(gamma[2:, 2:]))
            - _entropy(symplectic_spectrum(gamma)))


def log_negativity(gamma) -> float:
    import numpy as np
    p = np.diag([1.0, -1.0, 1.0, 1.0])
    return sum(max(0.0, -math.log(2.0 * nu))
               for nu in symplectic_spectrum(p @ gamma @ p))


def is_physical(gamma) -> bool:
    return bool(symplectic_spectrum(gamma)[0] >= 0.5 - PHYSICALITY_TOL)


# -------------------------------------------------------------- currents

def check_currents(point: dict, results) -> list:
    """Failures of one `compare.solve_all` result (or the exception it
    raised) at a pool point with its frozen exact covariance."""
    import numpy as np
    if isinstance(results, BaseException):
        return [(f"solve_all raised {type(results).__name__}: {results}", True)]
    p = point["params"]
    ref = np.array(point["ref_exact"])
    fails = []
    for res in results:
        m = res.method
        if "error" in res.diagnostics:
            fails.append((f"{m}: {res.diagnostics['error']}", False))
            continue
        cov = np.asarray(res.covariance, dtype=float)
        q_c, q_h = float(res.qdot_c), float(res.qdot_h)
        if not (np.all(np.isfinite(cov)) and math.isfinite(q_c)
                and math.isfinite(q_h)):
            fails.append((f"{m}: non-finite covariance or current",
                          m == "exact"))
            continue
        if m == "exact":
            scale = np.max(np.abs(ref))
            err = np.max(np.abs(cov - ref))
            if not err <= RTOL * scale:
                fails.append((f"exact: covariance off the reference by "
                              f"{err / scale:.3g} of its largest entry", True))
            # the current is checked to the accuracy of the two
            # covariances it is made of, even where it nearly cancels
            q_ref = 0.5 * p["k"] * (ref[1, 2] - ref[0, 3])
            tol = RTOL * 0.5 * p["k"] * (abs(ref[1, 2]) + abs(ref[0, 3]))
            if not abs(q_h - q_ref) <= tol:
                fails.append((f"exact: qdot_h = {q_h!r}, reference "
                              f"{q_ref!r}", True))
        if not abs(q_c + q_h) <= RTOL * max(abs(q_c), abs(q_h)):
            fails.append((f"{m}: currents do not balance (qdot_c={q_c!r}, "
                          f"qdot_h={q_h!r})", False))
        if m in SECOND_LAW and p["t_h"] > p["t_c"] and not q_h > 0.0:
            fails.append((f"{m}: qdot_h = {q_h!r} with t_h > t_c", False))
        nu_min = float(symplectic_spectrum(cov)[0])
        if not nu_min >= 0.5 - PHYSICALITY_TOL:
            fails.append((f"{m}: non-physical, smallest symplectic "
                          f"eigenvalue {nu_min!r}", False))
    return fails


# ---------------------------------------------------------- correlations

def near_pure(gamma) -> bool:
    return bool(symplectic_spectrum(gamma)[0] - 0.5 < NEAR_PURE)


def check_correlations(state: dict, reports: dict) -> list:
    """Failures of `compare.correlation_report` on both nodes of a pool
    state; reports maps node -> CorrelationReport or the exception."""
    import numpy as np
    cov = np.array(state["cov_m"])
    exact_cov = np.array(state["exact_cov_m"])
    physical = is_physical(cov) and is_physical(exact_cov)
    trusted = physical and not near_pure(cov) and not near_pure(exact_cov)
    fails = []
    if not physical:
        for node, rep in reports.items():
            if type(rep).__name__ != "NonPhysicalStateError":
                fails.append((f"node {node}: no NonPhysicalStateError for a "
                              "non-physical state", True))
        return fails
    mi = mutual_information(cov)
    log_neg = log_negativity(cov)
    for node, rep in reports.items():
        ref = state["ref"][node]
        if isinstance(rep, BaseException):
            fails.append((f"node {node}: {type(rep).__name__}: {rep}",
                          trusted and "error" not in ref))
            continue
        i_, q_ = rep.mutual_information, rep.discord_arrow
        f_ = rep.fidelity_to_exact
        if not close(i_, mi, ENTROPY_ATOL):
            fails.append((f"node {node}: mutual information {i_!r}, "
                          f"independently {mi!r}", False))
        if not close(rep.log_negativity, log_neg, ENTROPY_ATOL):
            fails.append((f"node {node}: log negativity {rep.log_negativity!r},"
                          f" independently {log_neg!r}", False))
        if not (q_ >= 0.0 and q_ <= i_ * (1 + RTOL) + ENTROPY_ATOL):
            fails.append((f"node {node}: not I >= Q >= 0 (I={i_!r}, "
                          f"Q={q_!r})", False))
        if not 0.0 < f_ <= 1.0:
            fails.append((f"node {node}: fidelity {f_!r} outside (0, 1]",
                          False))
        if trusted and "error" not in ref:
            for key, expect in ref.items():
                value = float(getattr(rep, key))
                atol = 0.0 if key == "fidelity_to_exact" else ENTROPY_ATOL
                if not close(value, expect, atol):
                    fails.append((f"node {node}: {key} = {value!r}, "
                                  f"reference {expect!r}", True))
    return fails
