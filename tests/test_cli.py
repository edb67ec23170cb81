"""Command-line front end: presets, config grammar, outputs, exit codes."""

import dataclasses
import importlib.util
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qwire
from qwire import (METHODS, WireParams, cli, compare,
                   exact_steady_states)
from qwire.cli import (CSV_COLUMNS, PRESETS, main, parse_log_grid,
                       load_config, CliError)
from conftest import (NARROW_CUTOFF, NEAR_DEGENERATE, RESONANT_STRONG,
                      WIDE_GAP, count_spectra, failed_result)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
POINTS = PERFBENCH / "data" / "points.json"
README = PERFBENCH.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def fail_local_solver(monkeypatch):
    monkeypatch.setitem(compare._SOLVERS, "local",
                        lambda params: failed_result("local"))


def non_physical(result):
    """result with the covariance 0.4 I, which has nu = 0.4 < 1/2."""
    return dataclasses.replace(result, covariance=0.4 * np.eye(4))


def break_exact_state(monkeypatch):
    """Every exact state of a sweep non-physical, currents kept."""
    exact_steady_states = compare.exact_steady_states
    monkeypatch.setattr(compare, "exact_steady_states", lambda points: [
        non_physical(res) for res in exact_steady_states(points)])


def test_import_loads_no_scipy():
    code = ("import sys, qwire, qwire.cli; print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_loads_no_process_pool():
    """Neither the import nor a whole `qwire sweep` run, --jobs included,
    loads multiprocessing."""
    code = ("import os, sys, qwire, qwire.cli\n"
            "qwire.cli.main(['sweep', '--scenario', 'fig1a', '--log-grid', "
            "'1e-2:1e-1:2', '--jobs', '2', '-o', os.devnull])\n"
            "print(sorted(m for m in sys.modules if m in "
            "('multiprocessing', 'concurrent.futures.process')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_public_names_resolve():
    """Every name in qwire.__all__ is there after `import qwire`."""
    assert [name for name in qwire.__all__ if not hasattr(qwire, name)] == []


def test_readme_library_block_runs(capsys):
    """README's Library example runs as written."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})
    assert capsys.readouterr().out.count("[[") == len(METHODS)


#: the frozen preset table the package must expose
EXPECTED_PRESETS = {
    "fig1a": (1.0, 2.0, 2.0, 3.0),
    "fig1b": (1.0, math.sqrt(1.0 + 2e-6), 2.0, 3.0),
    "fig1c": (1.0, 2.0, 2.0, 3.0),
    "fig1d": (1.0, math.sqrt(1.0 + 2e-6), 2.0, 3.0),
    "fig2a": (1.0, math.sqrt(1.0 + 2e-6), 2.0, 3.0),
    "fig2b": (1.0, math.sqrt(1.0 + 2e-6), 2.0, 3.0),
    "fig2c": (10.0, 10.0, 1.0, 2.0),
}


class TestPresets:
    def test_frozen_values(self):
        assert set(PRESETS) == set(EXPECTED_PRESETS)
        for name, (oc, oh, tc, th) in EXPECTED_PRESETS.items():
            preset = PRESETS[name]
            assert preset["omega_c"] == oc
            assert preset["omega_h"] == oh
            assert preset["t_c"] == tc
            assert preset["t_h"] == th
            assert preset["lambda_sq"] == 1e-3
            assert preset["cutoff"] == 1e3

    def test_scenarios_subcommand(self, capsys):
        code, out, _ = run(capsys, "scenarios")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec_version"] == 1
        assert set(doc["scenarios"]) == set(EXPECTED_PRESETS) | {"custom"}


#: a config whose omega_h grid reaches past the fig1a cutoff
SWEEP_KEYS = "scenario = fig1a\naxis = omega_h\nlog_grid = 1:1e9:5\n"


class TestConfig:
    def test_full_grammar(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment only line\n"
                       "omega_c = 1.5   # trailing comment\n"
                       "\n"
                       "scenario = fig1a\n")
        values = load_config(str(cfg))
        assert values == {"omega_c": 1.5, "scenario": "fig1a"}

    def test_unknown_key_is_an_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_c = 1\nbogus = 2\n")
        with pytest.raises(CliError, match=r":2: unknown key 'bogus'"):
            load_config(str(cfg))

    def test_jobs_is_an_unknown_key(self, tmp_path, capsys):
        """Only the sweep flag --jobs is left; a file's jobs exits 1."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = fig1a\njobs = 2\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg),
                           "--log-grid", "1e-2:1e-1:2",
                           "-o", str(tmp_path / "rows.csv"))
        assert code == 1
        assert strict_json(err.strip().splitlines()[-1]) == {
            "error": "invalid_arguments",
            "message": f"{cfg}:2: unknown key 'jobs'"}

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n" * 6 + "this is not a key value pair\n")
        code, _, err = run(capsys, "steady", "--config", str(cfg))
        assert code == 1
        message = json.loads(err.strip().splitlines()[-1])
        assert message["error"] == "invalid_arguments"
        assert ":7:" in message["message"]

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = fig1a\nlambda_sq = 1e-3\n")
        code, _, err = run(capsys, "validate", "--config", str(cfg),
                           "--k", "0.01", "--lambda-sq", "1e-2")
        assert code == 0
        echoed = json.loads(err.strip().splitlines()[0])
        assert echoed["resolved_scenario"]["lambda_sq"] == 1e-2

    def test_sweep_reads_the_file_once(self, tmp_path, capsys,
                                       monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = fig1a\nlog_grid = 1e-2:1e-1:2\n")
        reads = []

        def counted_load(path):
            reads.append(path)
            return load_config(path)

        monkeypatch.setattr(cli, "load_config", counted_load)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg),
                         "-o", str(tmp_path / "rows.csv"))
        assert code == 0
        assert reads == [str(cfg)]

    @pytest.mark.parametrize("command", ["steady", "validate"])
    def test_point_commands_ignore_the_sweep_keys(self, tmp_path, capsys,
                                                  command):
        """axis and log_grid are sweep keys: with them in the config, and
        grid points that are no wire, steady and validate print what the
        preset prints, echoing axis k and no grid."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SWEEP_KEYS)
        given = run(capsys, command, "--config", str(cfg), "--k", "0.01")
        preset = run(capsys, command, "--scenario", "fig1a", "--k", "0.01")
        assert given == preset
        assert preset[0] == 0
        echoed = strict_json(preset[2].splitlines()[0])["resolved_scenario"]
        assert (echoed["axis"], echoed["grid"]) == ("k", [])

    def test_sweep_checks_the_config_grid(self, tmp_path, capsys):
        """The same config still fails a sweep: each grid point must be a
        wire."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SWEEP_KEYS)
        code, out, err = run(capsys, "sweep", "--config", str(cfg),
                             "--k", "0.01")
        assert (code, out) == (1, "")
        assert [strict_json(line) for line in err.splitlines()] == [
            {"error": "invalid_arguments",
             "message": "cutoff must exceed both node frequencies"}]

    def test_repeated_key_is_an_error(self, tmp_path, capsys):
        """A key set twice exits 1 with both of its lines named."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = fig1a\nk = 1\n# k again\nk = 2\n")
        code, out, err = run(capsys, "steady", "--config", str(cfg))
        assert code == 1
        assert out == ""
        message = strict_json(err.strip().splitlines()[-1])
        assert message == {
            "error": "invalid_arguments",
            "message": f"{cfg}:4: key 'k' already set on line 2"}

    def test_file_that_is_not_utf8_is_an_error(self, tmp_path, capsys):
        """Undecodable bytes exit 1 with one JSON line that names the
        file, not a traceback."""
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 1\n\xff = 2\n")
        code, out, err = run(capsys, "steady", "--config", str(cfg))
        assert code == 1
        assert out == ""
        [line] = err.splitlines()
        message = strict_json(line)
        assert message["error"] == "invalid_arguments"
        assert message["message"].startswith(f"cannot read config '{cfg}': ")

    def test_empty_file_with_full_flags(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        code, out, _ = run(capsys, "steady", "--config", str(cfg),
                           "--omega-c", "1", "--omega-h", "2", "--k", "0.1",
                           "--t-c", "2", "--t-h", "3",
                           "--lambda-sq", "1e-3", "--cutoff", "1e3")
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"]["omega_h"] == 2.0


class TestLogGrid:
    def test_parse(self):
        grid = parse_log_grid("1e-2:1:3")
        assert grid == pytest.approx([1e-2, 1e-1, 1.0])

    def test_errors(self):
        for bad in ("1:2", "a:b:c", "0:1:5", "1:2:0", "nan:1:5", "1:inf:5"):
            with pytest.raises(CliError):
                parse_log_grid(bad)


INFINITE_MARGIN = "infinite: splitting zero or negligible against lambda_sq"


class TestSteady:
    def test_equilibrium_decoupled(self, capsys):
        code, out, _ = run(capsys, "steady", "--omega-c", "1",
                           "--omega-h", "1", "--k", "0", "--t-c", "2",
                           "--t-h", "2", "--lambda-sq", "1e-3",
                           "--cutoff", "1e3")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec_version"] == 1
        for method in ("global", "local", "redfield", "exact"):
            assert abs(doc["methods"][method]["qdot_h"]) <= 1e-12
            assert abs(doc["methods"][method]["qdot_c"]) <= 1e-12

    def test_secular_scenario_fidelities(self, capsys):
        code, out, _ = run(capsys, "steady", "--scenario", "fig1a",
                           "--k", "0.01")
        assert code == 0
        doc = json.loads(out)
        assert doc["methods"]["global"]["fidelity_to_exact"] >= 1 - 1e-4
        assert doc["methods"]["local"]["fidelity_to_exact"] >= 1 - 1e-4

    def test_missing_parameters_is_exit_1(self, capsys):
        code, _, err = run(capsys, "steady", "--scenario", "fig1a")
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["error"] == \
            "invalid_arguments"

    def test_non_finite_parameter_is_exit_1(self, capsys):
        for flag, value in (("--k", "nan"), ("--t-h", "inf")):
            code, _, err = run(capsys, "steady", "--scenario", "fig1a",
                               flag, value)
            assert code == 1
            assert json.loads(err.strip().splitlines()[-1])["error"] == \
                "invalid_arguments"

    def test_unknown_scenario_is_exit_1(self, capsys):
        code, *_ = run(capsys, "steady", "--scenario", "fig9z", "--k", "1")
        assert code == 1

    def test_failed_method_prints_strict_json(self, capsys, monkeypatch):
        fail_local_solver(monkeypatch)
        code, out, _ = run(capsys, "steady", "--scenario", "fig1a",
                           "--k", "0.01")
        assert code == 0
        methods = strict_json(out)["methods"]
        assert all(set(compare.METRIC_KEYS) <= set(entry)
                   for entry in methods.values())
        local = methods["local"]
        assert all(local[key] is None for key in compare.METRIC_KEYS)
        assert local["qdot_c"] is None
        assert local["covariance"] == [[None] * 4] * 4
        assert "synthetic failure" in local["diagnostics"]["error"]

    def test_a_raising_solver_is_no_solver_failure(self, capsys,
                                                   monkeypatch):
        """Exit 2 means a failed exact quadrature, which only validate
        reports: an exception inside steady propagates as it is."""
        def boom(params):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(compare._SOLVERS, "local", boom)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            run(capsys, "steady", "--scenario", "fig1a", "--k", "0.01")

    def test_non_physical_state_is_reported_not_fatal(self, capsys):
        # the Redfield state here has nu_min - 1/2 = -5.4e-8
        code, out, _ = run(capsys, "steady", "--omega-c", "1",
                           "--omega-h", "2", "--k", "1", "--t-c", "0.1",
                           "--t-h", "0.15", "--lambda-sq", "0.1",
                           "--cutoff", "1e3")
        assert code == 0
        methods = strict_json(out)["methods"]
        redfield = methods["redfield"]
        assert redfield["diagnostics"]["error"].startswith(
            "NonPhysicalStateError: ")
        assert math.isfinite(redfield["qdot_h"])
        assert all(redfield[key] is None
                   for key in compare.METRIC_KEYS if key != "qdot_h")
        for method in ("global", "local", "exact"):
            assert "error" not in methods[method]["diagnostics"]
            assert all(math.isfinite(methods[method][key])
                       for key in compare.METRIC_KEYS)

    def test_non_physical_exact_state_is_named(self, capsys, monkeypatch):
        break_exact_state(monkeypatch)
        code, out, _ = run(capsys, "steady", "--scenario", "fig1a",
                           "--k", "0.01")
        assert code == 0
        for entry in strict_json(out)["methods"].values():
            assert entry["diagnostics"]["error"].startswith(
                "NonPhysicalStateError: exact state: ")

    @pytest.mark.parametrize("omega_h, k, lambda_sq, reason", [
        ("1", "0", "1e-3", INFINITE_MARGIN),
        # lambda_sq / gap overflows although the splitting is 2e-250
        ("1", "1e-250", "1e100", INFINITE_MARGIN),
        ("2", "0", "1e-3", None)], ids=["resonant", "overflow", "detuned"])
    def test_secular_margin_reason(self, capsys, omega_h, k, lambda_sq,
                                   reason):
        """An infinite margin prints as null with its reason; a finite one
        has no reason key."""
        code, out, _ = run(capsys, "steady", "--omega-c", "1",
                           "--omega-h", omega_h, "--k", k, "--t-c", "0.1",
                           "--t-h", "0.15", "--lambda-sq", lambda_sq,
                           "--cutoff", "50")
        assert code == 0
        doc = strict_json(out)
        assert doc.get("secular_margin_reason") == reason
        assert (doc["secular_margin"] is None) == (reason is not None)

    def test_failed_exact_point_keeps_its_diagnostics(self, capsys):
        """A lone point whose exact quadrature fails reports its error
        estimate and work, as the same point in a sweep does, and the
        point's secular margin, which no method's diagnostics repeat."""
        code, out, _ = run(capsys, "steady", "--omega-c", "1", "--omega-h",
                           "2", "--k", "2154.4346900318847", "--t-c", "0.1",
                           "--t-h", "0.15", "--lambda-sq", "1e-4",
                           "--cutoff", "3")
        assert code == 0
        doc = strict_json(out)
        diagnostics = doc["methods"]["exact"]["diagnostics"]
        assert set(diagnostics) == {"error", "quadrature_error", "neval",
                                    "subintervals"}
        params = dataclasses.replace(NARROW_CUTOFF, k=2154.4346900318847)
        [in_sweep] = exact_steady_states([params])
        assert diagnostics == in_sweep.diagnostics
        assert diagnostics["subintervals"] > 2000
        assert doc["secular_margin"] == compare.sweep_row(
            params, "k", params.k).secular_margin
        for entry in doc["methods"].values():
            assert "secular_margin" not in entry["diagnostics"]

    @pytest.mark.parametrize("node", ["c", "h"])
    def test_metrics_are_the_sweep_rows(self, capsys, node):
        """Each method's six metrics are its sweep row's, bit for bit, and
        the point's one secular margin is the row's."""
        code, out, _ = run(capsys, "steady", "--scenario", "fig1a",
                           "--k", "0.01", "--measured-node", node)
        assert code == 0
        preset = {k: v for k, v in PRESETS["fig1a"].items() if k != "grid"}
        row = compare.sweep_row(WireParams(k=0.01, **preset), "k", 0.01,
                                node)
        doc = json.loads(out)
        assert doc["secular_margin"] == row.secular_margin
        for method, entry in doc["methods"].items():
            assert {key: entry[key] for key in compare.METRIC_KEYS} == \
                row.metrics[method]
            assert "secular_margin" not in entry["diagnostics"]

    def test_exact_work_counts(self, capsys):
        code, out, _ = run(capsys, "steady", "--scenario", "fig1a",
                           "--k", "0.01")
        assert code == 0
        diagnostics = strict_json(out)["methods"]["exact"]["diagnostics"]
        assert (diagnostics["neval"], diagnostics["subintervals"]) == \
            (2352, 60)


class TestSweepCommand:
    def test_csv_contract(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "sweep", "--scenario", "fig1a",
                         "--log-grid", "1e-3:1e-1:3", "--jobs", "1",
                         "-o", str(out_path))
        assert code == 0
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        assert len(lines) == 4
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_COLUMNS)
        # 17 significant digits survive a round trip
        assert float(cells[0]) == 1e-3
        assert format(float(cells[2]), ".17g") == cells[2]

    def test_deterministic_output(self, tmp_path, capsys):
        """The same bytes on every run, with --jobs 1, 2 or none."""
        outputs = []
        for n, jobs in enumerate((["--jobs", "2"], ["--jobs", "2"],
                                  ["--jobs", "1"], [])):
            path = tmp_path / f"{n}.csv"
            code, _, _ = run(capsys, "sweep", "--scenario", "fig1a",
                             "--log-grid", "1e-2:1e-1:2", *jobs,
                             "-o", str(path))
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs == [outputs[0]] * 4

    def test_reversed_local_current_scenario(self, tmp_path, capsys):
        out_path = tmp_path / "fig1c.csv"
        code, _, _ = run(capsys, "sweep", "--scenario", "fig1c",
                         "--log-grid", "1e-4:1:7", "--jobs", "1",
                         "-o", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        col = CSV_COLUMNS.index("local_qdot_h")
        values = [float(line.split(",")[col]) for line in lines[1:]]
        assert all(v < 0.0 for v in values)

    def test_custom_scenario_requires_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "--omega-c", "1", "--omega-h",
                           "2", "--t-c", "2", "--t-h", "3", "--lambda-sq",
                           "1e-3", "--cutoff", "1e3")
        assert code == 1
        assert "grid" in json.loads(err.strip().splitlines()[-1])["message"]

    @pytest.mark.parametrize("grid, message", [
        ("0.5:1e4:3", "cutoff must exceed both node frequencies"),
        ("1e-9:1:2", "omega_h must be in [1e-08, 1e+08], got 1e-09")])
    def test_rejected_grid_point_is_exit_1(self, capsys, grid, message):
        """A grid point outside WireParams' domain is an invalid argument:
        one JSON line, before any point is solved."""
        code, out, err = run(capsys, "sweep", "--scenario", "fig1a",
                             "--k", "0.01", "--axis", "omega_h",
                             "--log-grid", grid)
        assert (code, out) == (1, "")
        assert [strict_json(line) for line in err.splitlines()] == [
            {"error": "invalid_arguments", "message": message}]

    @pytest.mark.parametrize("scenario", ["fig1a", "fig1b"])
    def test_preset_passes_the_benchmark_check(self, tmp_path, capsys,
                                               scenario):
        """The cli-sweep workload's check: every row of the preset sweep
        against perfbench/data, with no failure of any kind."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_checks", PERFBENCH / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        out_path = tmp_path / f"{scenario}.csv"
        code, _, _ = run(capsys, "sweep", "--scenario", scenario,
                         "-o", str(out_path))
        assert code == 0
        ref = (PERFBENCH / "data" / f"{scenario}.csv").read_text(
            encoding="utf-8")
        rows = checks.check_sweep(out_path.read_text(encoding="utf-8"), ref)
        assert len(rows) == 60
        assert [(i, f) for i, f in enumerate(rows) if f] == []

    def test_unwritable_output_is_exit_1(self, tmp_path, capsys,
                                         monkeypatch):
        """An output path that cannot be opened is an invalid argument:
        one JSON line naming the path, before any point is solved."""
        monkeypatch.setattr(cli, "sweep", lambda *a, **kw: pytest.fail(
            "the grid was solved"))
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "sweep", "--scenario", "fig1a",
                             "--log-grid", "1e-4:1:2", "-o", str(path))
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        doc = strict_json(line)
        assert doc["error"] == "invalid_arguments"
        assert repr(str(path)) in doc["message"]
        assert not path.parent.exists()

    def test_method_errors_go_to_stderr(self, tmp_path, capsys,
                                        monkeypatch):
        fail_local_solver(monkeypatch)
        out_path = tmp_path / "rows.csv"
        code, _, err = run(capsys, "sweep", "--scenario", "fig1a",
                           "--log-grid", "1e-2:1e-1:2", "--jobs", "1",
                           "-o", str(out_path))
        assert code == 0
        lines = [strict_json(line) for line in err.strip().splitlines()]
        warnings = [line for line in lines if "warning" in line]
        assert [(w["axis_value"], w["method"]) for w in warnings] == \
            [(1e-2, "local"), (1e-1, "local")]
        assert all(w["warning"] == "method_failed" and
                   "synthetic failure" in w["message"] for w in warnings)
        col = CSV_COLUMNS.index("local_qdot_h")
        rows = out_path.read_text().splitlines()[1:]
        assert [row.split(",")[col] for row in rows] == ["nan", "nan"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_quadrature_failure_is_exit_2(self, tmp_path, capsys, jobs):
        """Only validate exits 2 where the exact quadrature fails.  sweep
        and steady complete with exit 0, NaN (null) exact cells and the
        QuadratureError as the exact method's reason; the first failing
        point of the grid, k = 2154.43..., names its error estimate."""
        flags = [f"--{key.replace('_', '-')}={value!r}" for key, value
                 in dataclasses.asdict(NARROW_CUTOFF).items() if key != "k"]
        out_path = tmp_path / "rows.csv"
        code, _, err = run(capsys, "sweep", "--scenario", "fig1a", *flags,
                           "--log-grid", "1e3:1e4:4", "--jobs", jobs,
                           "-o", str(out_path))
        assert code == 0
        failed = [w for w in map(strict_json, err.strip().splitlines()[1:])
                  if w["method"] == "exact"]
        assert [w["warning"] for w in failed] == ["method_failed"] * 3
        first = "QuadratureError: covariance quadrature did not converge; " \
                "error estimate 4.13e-08"
        assert failed[0]["message"] == first
        col = CSV_COLUMNS.index("exact_qdot_h")
        rows = out_path.read_text().splitlines()[1:]
        assert [row.split(",")[col] == "nan" for row in rows] == \
            [False, True, True, True]

        k = f"--k={failed[0]['axis_value']!r}"
        code, out, _ = run(capsys, "steady", "--scenario", "fig1a", *flags, k)
        assert code == 0
        exact = strict_json(out)["methods"]["exact"]
        assert exact["diagnostics"]["error"] == first
        assert all(exact[key] is None for key in compare.METRIC_KEYS)

        code, _, err = run(capsys, "validate", "--scenario", "fig1a", *flags,
                           k)
        assert code == 2
        assert strict_json(err.strip().splitlines()[-1]) == {
            "error": "solver_failure", "message": f"exact: {first}"}


class TestValidate:
    def test_passes_on_benchmark_point(self, capsys):
        code, out, _ = run(capsys, "validate", "--scenario", "fig1a",
                           "--k", "0.05")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"]
        assert all(check["passed"] for check in doc["checks"])
        assert [check["name"] for check in doc["checks"]] == [
            "global_physical", "local_physical", "redfield_physical",
            "exact_physical"]

    def test_physicality_is_the_gaussian_state_check(self, capsys,
                                                     monkeypatch):
        """`<method>_physical` fails for every state that the Gaussian
        check rejects, and a failed one exits with code 3."""
        for method in METHODS[:-1]:
            monkeypatch.setitem(compare._SOLVERS, method,
                                lambda params, solve=compare._SOLVERS[method]:
                                non_physical(solve(params)))
        break_exact_state(monkeypatch)
        code, out, _ = run(capsys, "validate", "--scenario", "fig1a",
                           "--k", "0.05")
        assert code == 3
        failed = [c["name"] for c in json.loads(out)["checks"]
                  if not c["passed"]]
        assert failed == [f"{m}_physical" for m in METHODS]

    def test_non_physical_exact_state_prints_its_checks(self, capsys,
                                                        monkeypatch):
        """The exact state's check fails with its detail, the others
        pass, and the verdict is exit 3."""
        break_exact_state(monkeypatch)
        code, out, _ = run(capsys, "validate", "--scenario", "fig1a",
                           "--k", "0.05")
        assert code == 3
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        failed = [name for name, c in checks.items() if not c["passed"]]
        assert failed == ["exact_physical"]
        assert checks["exact_physical"]["detail"] == \
            "min symplectic eigenvalue - 1/2 = -1.000e-01"

    def test_takes_no_measured_node(self, capsys):
        """No check reads a measure of one node, so validate rejects the
        flag that steady and sweep take."""
        code, out, err = run(capsys, "validate", "--scenario", "fig1a",
                             "--k", "0.05", "--measured-node", "c")
        assert code == 1
        assert out == ""
        doc = strict_json(err.strip().splitlines()[-1])
        assert doc["error"] == "invalid_arguments"
        assert "--measured-node" in doc["message"]

    def test_takes_the_rows_one_spectrum(self, capsys, monkeypatch):
        """The states with their partial transposes: the spectrum call of
        sweep_row, and no other."""
        spectra = count_spectra(monkeypatch)
        code, _, _ = run(capsys, "validate", "--scenario", "fig1a",
                         "--k", "0.05")
        assert code == 0
        assert spectra == [(8, 4, 4)]

    @pytest.mark.parametrize("overrides", (
        ("fig1a", "--k", "1e-4"), ("fig1a", "--k", "1e-3"),
        ("fig1a", "--k", "1e-2"),
        ("fig1a", "--k", "1e-2", "--t-c", "0.01", "--t-h", "0.015"),
        ("fig1a", "--k", "0.05", "--lambda-sq", "1e5"),
        ("fig2c", "--k", "1e4"), ("fig2c", "--k", "1e5"),
        ("fig1a", "--k", "1e-12"), ("fig1b", "--k", "1e-11"),
        ("fig2c", "--k", "1e-9"),
        ("fig1b", "--k", "1e-8", "--lambda-sq", "1e-6")))
    def test_current_forms_agree_at_weak_coupling_and_low_t(self, capsys,
                                                            overrides):
        """Every check passes at sound points where a deleted check
        failed: where the current is a small difference of large terms,
        at lambda^2 = 1e5, where a closed form's residual relative to
        max|y| grew with lambda^2, at fig2c's strong coupling, where the
        local moment equations are ill-conditioned (condition number 4e11
        at k = 1e4), at weak coupling, where the mutual information rounds
        below zero, and at weakly coupled resonant nodes, where the local
        current's bond form, read off the float moment equations, misses
        its closed form by 5e-11."""
        code, out, _ = run(capsys, "validate", "--scenario", *overrides)
        assert code == 0
        assert all(check["passed"] for check in json.loads(out)["checks"])


#: inputs on which, without WireParams' bounds, a solver raises or every
#: method is NaN with no reason, and the bound that rejects each: the node
#: frequencies and every other input scaled to 1e-200 (omega^2 underflows)
#: or 1e150 (it overflows), k, the cutoff, a temperature and lambda_sq
#: beyond their bounds (the exact set-up overflows, all four methods are
#: NaN, the local solver divides by zero, the Redfield solver overflows)
_BASE = dict(omega_c=1.0, omega_h=2.0, k=0.1, t_c=1.0, t_h=2.0,
             lambda_sq=1e-3, cutoff=10.0)
FAILING_INPUTS = {
    "scaled 1e-200": (dict(omega_c=1e-200, omega_h=2e-200, k=0.0,
                           t_c=1e-200, t_h=2e-200, lambda_sq=1e-3,
                           cutoff=1e-199),
                      "omega_c must be in [1e-08, 1e+08], got 1e-200"),
    "scaled 1e150": (dict(omega_c=1e150, omega_h=2e150, k=1e299,
                          t_c=1e150, t_h=2e150, lambda_sq=1e-3,
                          cutoff=1e151),
                     "omega_c must be in [1e-08, 1e+08], got 1e+150"),
    "omega 1e-200": (dict(_BASE, omega_c=1e-200, omega_h=2e-200, k=0.0,
                          cutoff=1.0),
                     "omega_c must be in [1e-08, 1e+08], got 1e-200"),
    "k 1e200": (dict(_BASE, k=1e200),
                "k / omega_min^2 must be at most 1e+08, got 1e+200"),
    "cutoff 1e200": (dict(_BASE, cutoff=1e200),
                     "cutoff / omega_min must be at most 1e+08, got 1e+200"),
    "cutoff 1e300": (dict(_BASE, cutoff=1e300),
                     "cutoff / omega_min must be at most 1e+08, got 1e+300"),
    "t_h 1e300": (dict(_BASE, t_h=1e300),
                  "t_h / omega_min must be at most 1e+08, got 1e+300"),
    "lambda_sq 1e-300": (dict(_BASE, lambda_sq=1e-300),
                         "lambda_sq must be in [2e-08, 1e+100], got 1e-300"),
    # omega_max / lambda_sq = 5.4e15: the damping is lost against the
    # frequency in the local moment matrix, which turns singular
    "lambda_sq below omega_max / 1e8": (
        dict(omega_c=22191.255502176922, omega_h=22191.255502176922, k=0.0,
             t_c=22191.255502176922, t_h=22191.255502176922,
             lambda_sq=4.099833510632314e-12, cutoff=22191.255524368178),
        "lambda_sq must be in [0.000221913, 1e+100], "
        "got 4.099833510632314e-12"),
    "lambda_sq 1e200": (dict(_BASE, lambda_sq=1e200),
                        "lambda_sq must be in [2e-08, 1e+100], got 1e+200"),
    # omega_c^2 is under half an ulp of omega_h^2, so Omega_-^2 rounds to 0
    "omega spread 9.6e7": (dict(omega_c=1.0417e-8, omega_h=1.0000001,
                                k=0.0, t_c=1.0, t_h=1.0, lambda_sq=1e-3,
                                cutoff=1.0000002),
                           "omega_max^2 / omega_min^2 must be at most "
                           "1e+08, got 9215412047392478.0"),
}


class TestDomainContract:
    @pytest.mark.parametrize("name", FAILING_INPUTS)
    def test_failing_input_is_rejected_with_its_bound(self, capsys, name):
        """WireParams names the bound; `qwire steady` exits 1 with it as
        one strict-JSON line."""
        values, message = FAILING_INPUTS[name]
        with pytest.raises(ValueError) as rejected:
            WireParams(**values)
        assert str(rejected.value) == message
        flags = [f"--{key.replace('_', '-')}={value!r}"
                 for key, value in values.items()]
        code, out, err = run(capsys, "steady", *flags)
        assert (code, out) == (1, "")
        assert [strict_json(line) for line in err.splitlines()] == [
            {"error": "invalid_arguments", "message": message}]

    def test_inputs_in_use_are_accepted(self):
        """The benchmark pool, every preset's default grid and the test
        points all construct."""
        points = json.loads(POINTS.read_text())["points"]
        assert len(points) == 306
        for point in points:
            WireParams(**point["params"])
        for preset in PRESETS.values():
            values = {k: v for k, v in preset.items() if k != "grid"}
            for k in parse_log_grid("{}:{}:60".format(*preset["grid"])):
                WireParams(k=k, **values)
        for params in (WIDE_GAP, NEAR_DEGENERATE, RESONANT_STRONG,
                       NARROW_CUTOFF):
            assert WireParams(**dataclasses.asdict(params)) == params
