"""End-to-end CLI tests driven through ``cli.main(argv)``.

One subprocess test at the bottom checks the ``python -m wlancell``
entry point; everything else calls main() in-process so coverage and
monkeypatching work as usual.
"""

import json
import subprocess
import sys

import pytest

from wlancell import cli, dcf, multicell, topology
from wlancell.errors import ConvergenceError
from wlancell.fixtures import write_fixture_files


def _run(*argv):
    return cli.main(list(argv))


def _read_lines(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------- analyze

def test_analyze_fixture_writes_cells_and_summary(tmp_path, capsys):
    assert _run("analyze", "--input", "path4", "--out", str(tmp_path)) == 0
    cells = _read_lines(tmp_path / "path4_cells.csv")
    assert cells[0] == ",".join(multicell.CSV_COLUMNS)
    assert len(cells) == 1 + 4
    summary = _read_lines(tmp_path / "path4_summary.csv")
    assert summary[0] == "theta_bar,jain_fairness,alpha,eta,iterations,residual,n_starved"
    assert len(summary) == 2
    out = capsys.readouterr().out
    assert "path4: saturated, 4 cells, 3 edges" in out
    assert "wrote" in out


def test_analyze_markdown_format(tmp_path):
    assert _run("analyze", "--input", "path4", "--out", str(tmp_path),
                "--format", "markdown") == 0
    lines = _read_lines(tmp_path / "path4_cells.md")
    assert lines[0].startswith("| id | n_nodes |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert len(lines) == 2 + 4
    assert (tmp_path / "path4_summary.md").exists()


def test_analyze_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert _run("analyze", "--input", "hex7",
                    "--out", str(tmp_path / sub)) == 0
    for name in ("hex7_cells.csv", "hex7_summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_analyze_file_input_matches_fixture_name(tmp_path):
    write_fixture_files(tmp_path / "topos")
    assert _run("analyze", "--input", str(tmp_path / "topos" / "path4.json"),
                "--out", str(tmp_path / "from_file")) == 0
    assert _run("analyze", "--input", "path4",
                "--out", str(tmp_path / "from_name")) == 0
    assert (tmp_path / "from_file" / "path4_cells.csv").read_bytes() == \
        (tmp_path / "from_name" / "path4_cells.csv").read_bytes()


def test_analyze_mac_override_changes_the_numbers(tmp_path):
    assert _run("analyze", "--input", "path4", "--out", str(tmp_path / "d")) == 0
    assert _run("analyze", "--input", "path4", "--out", str(tmp_path / "o"),
                "--mac-payload-bits", "4000") == 0
    assert (tmp_path / "d" / "path4_cells.csv").read_text() != \
        (tmp_path / "o" / "path4_cells.csv").read_text()


def test_analyze_solves_each_station_count_once(tmp_path, monkeypatch):
    calls = []
    solve = dcf.single_cell_fixed_point

    def counted(n, params, **kwargs):
        calls.append(n)
        return solve(n, params, **kwargs)

    monkeypatch.setattr(dcf, "single_cell_fixed_point", counted)
    assert _run("analyze", "--input", "arbitrary7",
                "--out", str(tmp_path)) == 0
    assert len(calls) == 7
    assert len(set(calls)) == 7


def test_analyze_tcp_mode_reports_two_effective_nodes(tmp_path):
    assert _run("analyze", "--input", "path4", "--out", str(tmp_path),
                "--mode", "tcp") == 0
    rows = _read_lines(tmp_path / "path4_cells.csv")[1:]
    assert all(row.split(",")[1] == "2" for row in rows)


@pytest.mark.parametrize("payload", ["{}", "{not json"])
def test_analyze_bad_topology_file(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    assert _run("analyze", "--input", str(bad), "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_malformed_edge_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cells": [{"id": 1}, {"id": 2}],
                               "edges": [[1]]}))
    assert _run("analyze", "--input", str(bad), "--out", str(tmp_path)) == 2
    assert "edges must be [i, j] pairs" in capsys.readouterr().err


def test_analyze_nan_mac_override_exits_2(tmp_path, capsys):
    assert _run("analyze", "--input", "path4", "--out", str(tmp_path),
                "--mac-slot-time", "nan") == 2
    assert "slot_time must be a finite number" in capsys.readouterr().err


def test_analyze_unknown_input(tmp_path, capsys):
    assert _run("analyze", "--input", "nope", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "neither a file nor a built-in fixture" in err


def test_bad_flag_value_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        _run("analyze", "--input", "path4", "--mode", "bogus")
    assert exc.value.code == 2


def test_solver_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    def explode(problem, **kwargs):
        raise ConvergenceError("no luck", residual=1.0, iterations=10)

    monkeypatch.setattr(cli.multicell, "solve_fixed_point", explode)
    assert _run("analyze", "--input", "path4", "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "no luck" in err and "10 iterations" in err


def test_oversized_topology_maps_to_exit_4(tmp_path, capsys):
    topo = {"cells": [{"id": i, "n_nodes": 1} for i in range(1, 27)],
            "edges": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(topo))
    assert _run("analyze", "--input", str(path), "--out", str(tmp_path)) == 4
    assert capsys.readouterr().err.startswith("error:")


def _solver_outputs(outdir):
    for argv in (("analyze",),
                 ("sweep", "--sweep", "payload", "--payload-bytes",
                  "500:1500:500"),
                 ("sweep", "--sweep", "rho")):
        assert _run(*argv, "--input", "hex7", "--out", str(outdir)) == 0
    return {path.name: path.read_text() for path in outdir.iterdir()}


def test_solving_never_enumerates_the_states(tmp_path, monkeypatch):
    expected = _solver_outputs(tmp_path / "free")
    assert len(expected) == 4

    def refuse(*args, **kwargs):
        raise AssertionError("the solver enumerated the state space")

    monkeypatch.setattr(topology, "enumerate_state_space", refuse)
    monkeypatch.setattr(multicell, "enumerate_state_space", refuse,
                        raising=False)
    assert _solver_outputs(tmp_path / "refused") == expected


# --------------------------------------------------------------- simulate

def test_simulate_writes_cell_and_state_tables(tmp_path):
    assert _run("simulate", "--input", "path4", "--out", str(tmp_path),
                "--horizon", "0.2", "--replications", "2", "--seed", "1") == 0
    cells = _read_lines(tmp_path / "path4_sim_cells.csv")
    assert cells[0] == "id,n_nodes,x_hat,x_se,x_model"
    assert len(cells) == 1 + 4
    states = _read_lines(tmp_path / "path4_sim_states.csv")
    assert states[0] == "state,pi_hat,pi_se,pi_model"
    assert states[1].startswith("idle,")
    assert len(states) == 1 + 8


def test_simulate_takes_no_format_flag():
    with pytest.raises(SystemExit) as exc:
        _run("simulate", "--input", "path4", "--format", "markdown")
    assert exc.value.code == 2


def test_simulate_single_run_has_no_standard_errors(tmp_path):
    assert _run("simulate", "--input", "path4", "--out", str(tmp_path),
                "--horizon", "0.2", "--replications", "1") == 0
    body = (tmp_path / "path4_sim_cells.csv").read_text()
    assert ",nan," in body


@pytest.mark.parametrize("horizon, replications", [
    ("1e6", "1"), ("0.5", "1000000")])
def test_simulate_past_the_event_budget_exits_4(tmp_path, capsys, horizon,
                                                replications):
    # path4's rates sum to about 4e4 per second, so either run may take
    # more than 1e10 events: refused before the first
    assert _run("simulate", "--input", "path4", "--out", str(tmp_path),
                "--horizon", horizon, "--replications", replications) == 4
    assert "1,000,000,000" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ----------------------------------------------------------------- assign

def test_assign_misa_json_payload(tmp_path):
    assert _run("assign", "--input", "path4", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "path4_assignment.json").read_text())
    assert payload["name"] == "path4"
    assert payload["method"] == "misa"
    assert payload["n_channels"] == 2
    assert payload["channels"] == [1, 2, 1, 2]
    assert payload["utility_inf"] == pytest.approx(1.0)
    assert payload["theta_bar_inf"] == pytest.approx(4.0)
    assert payload["nash_equilibrium"] is True
    assert payload["converged"] is True
    assert not (tmp_path / "path4_utrace.csv").exists()


def test_assign_lri_writes_a_utility_trace(tmp_path):
    assert _run("assign", "--input", "path4", "--out", str(tmp_path),
                "--method", "lri", "--lri-b", "0.05", "--seed", "0") == 0
    payload = json.loads((tmp_path / "path4_assignment.json").read_text())
    assert payload["converged"] is True
    trace = _read_lines(tmp_path / "path4_utrace.csv")
    assert trace[0] == "step,utility"
    assert trace[1].startswith("1,")
    assert len(trace) >= 3


def test_assign_lri_fixed_point_utility_on_arbitrary7(tmp_path):
    # isolated co-channel cells give x one ulp above 1 unless clamped,
    # which the learning update rejects as a utility outside [0, 1]
    assert _run("assign", "--input", "arbitrary7", "--out", str(tmp_path),
                "--method", "lri", "--utility", "fixed",
                "--steps", "300") == 0
    trace = _read_lines(tmp_path / "arbitrary7_utrace.csv")
    assert all(0.0 <= float(row.split(",")[1]) <= 1.0 for row in trace[1:])


def test_assign_exhaustive_budget_exit(tmp_path, capsys):
    assert _run("assign", "--input", "path4", "--out", str(tmp_path),
                "--method", "exhaustive", "--budget", "1") == 4
    assert "budget" in capsys.readouterr().err


def test_assign_needs_a_channel_count(tmp_path, capsys):
    topo = tmp_path / "pair.json"
    topo.write_text(json.dumps(
        {"cells": [{"id": 1, "n_nodes": 2}, {"id": 2, "n_nodes": 2}],
         "edges": [[1, 2]]}))
    assert _run("assign", "--input", str(topo), "--out", str(tmp_path)) == 2
    assert "--channels" in capsys.readouterr().err
    assert _run("assign", "--input", str(topo), "--out", str(tmp_path),
                "--channels", "2") == 0


@pytest.mark.parametrize("method", ["misa", "lri", "exhaustive"])
@pytest.mark.parametrize("channels", ["0", "-1"])
def test_assign_rejects_a_channel_count_below_one(tmp_path, capsys, method,
                                                   channels):
    assert _run("assign", "--input", "path4", "--out", str(tmp_path),
                "--method", method, "--channels", channels) == 2
    assert "at least one channel" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (("assign", "--method", "lri", "--seed", "-1"), "seed"),
    (("assign", "--method", "misa", "--order", "random", "--seed", "-1"),
     "seed"),
    (("simulate", "--horizon", "1", "--seed", "-1"), "seed"),
    (("simulate", "--horizon", "1", "--replications", "0"), "replications"),
    (("assign", "--method", "lri", "--steps", "-5"), "max_steps"),
    # path4 converges long before 1e11 steps: refused by the bound, not
    # by running
    (("assign", "--method", "lri", "--steps", "100000000000"), "max_steps"),
    (("assign", "--method", "lri", "--threshold", "2"),
     "convergence_threshold"),
    (("assign", "--method", "lri", "--threshold", "0"),
     "convergence_threshold"),
    (("assign", "--method", "lri", "--threshold", "nan"),
     "convergence_threshold"),
], ids=["lri-seed", "misa-seed", "simulate-seed", "replications", "steps",
        "steps-huge", "threshold-2", "threshold-0", "threshold-nan"])
def test_bad_seeds_and_lri_settings_exit_2(tmp_path, capsys, argv, what):
    assert _run(*argv, "--input", "path4", "--out", str(tmp_path)) == 2
    assert what in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_attempt_probability_above_one_exits_2(tmp_path, capsys):
    assert _run("analyze", "--input", "path4", "--out", str(tmp_path),
                "--mac-cw-min", "1") == 2
    assert "cw_min must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--mac-cw-min", "100000000000000000"),
    ("--mac-backoff-doubling-cap", "2000", "--mac-retry-limit", "2000"),
])
def test_extreme_backoff_windows_exit_2(tmp_path, capsys, flags):
    # rejected before the solver would divide by a zero p_any or overflow
    assert _run("analyze", "--input", "hex7", "--out", str(tmp_path),
                *flags) == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------ sweep

def test_sweep_payload(tmp_path):
    assert _run("sweep", "--input", "path4", "--out", str(tmp_path),
                "--sweep", "payload", "--payload-bytes", "500:1500:500") == 0
    lines = _read_lines(tmp_path / "path4_sweep_payload.csv")
    assert lines[0] == ("payload_bytes,gamma_1,gamma_2,gamma_3,gamma_4,"
                        "x_1,x_2,x_3,x_4")
    assert [row.split(",")[0] for row in lines[1:]] == ["500", "1000", "1500"]


def test_sweep_rho(tmp_path):
    assert _run("sweep", "--input", "path4", "--out", str(tmp_path),
                "--sweep", "rho", "--rho-factors", "1,100") == 0
    lines = _read_lines(tmp_path / "path4_sweep_rho.csv")
    assert lines[0].startswith("rho_factor,")
    assert len(lines) == 3


@pytest.mark.parametrize("flags", [
    ("--sweep", "payload", "--payload-bytes", "500"),
    ("--sweep", "payload", "--payload-bytes", "1500:500:100"),
    ("--sweep", "payload", "--payload-bytes", "a:b:c"),
    # 1e11 points: refused by count, before any is built
    ("--sweep", "payload", "--payload-bytes", "100:100000000000:1"),
    ("--sweep", "rho", "--rho-factors", ""),
    ("--sweep", "rho", "--rho-factors", "1,-2"),
    ("--sweep", "rho", "--rho-factors", "1,nan"),
    ("--sweep", "rho", "--rho-factors", "inf"),
])
def test_sweep_bad_ranges(tmp_path, capsys, flags):
    assert _run("sweep", "--input", "path4", "--out", str(tmp_path),
                *flags) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("fixture, factor", [
    ("path4", "1e153"), ("path4", "1e154"), ("path4", "1e300"),
    ("hex7", "1e200"),
])
def test_sweep_rho_overflow_exits_2(tmp_path, capsys, fixture, factor):
    assert _run("sweep", "--input", fixture, "--out", str(tmp_path),
                "--sweep", "rho", "--rho-factors", f"1,{factor}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow" in err
    assert "Traceback" not in err


def test_sweep_isolated_cell_is_never_blocked(tmp_path):
    topo = tmp_path / "solo.json"
    topo.write_text(json.dumps({"cells": [{"id": 1, "n_nodes": 5}],
                                "edges": []}))
    assert _run("sweep", "--input", str(topo), "--out", str(tmp_path),
                "--sweep", "payload", "--payload-bytes", "500:1500:500") == 0
    lines = _read_lines(tmp_path / "solo_sweep_payload.csv")
    x_values = {row.split(",")[2] for row in lines[1:]}
    assert x_values == {"1"}


# --------------------------------------------------------------- fixtures

def test_fixtures_command_writes_and_verifies(tmp_path, capsys):
    assert _run("fixtures", "--out", str(tmp_path / "topos"), "--verify") == 0
    assert sorted(p.name for p in (tmp_path / "topos").glob("*.json")) == [
        "arbitrary7.json", "grid12.json", "hex7.json", "path4.json",
        "path5.json"]
    out = capsys.readouterr().out
    assert "all fixture checks passed" in out


# ------------------------------------------------------------- entrypoint

def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wlancell", "analyze", "--input", "path4",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "path4_cells.csv").exists()
