"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs each workload at its tiny size, checks the printed metrics against
BENCHMARK.json, checks that every kind of output check flags a perturbed
reference, and that the command refuses to run without the program.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
from run import HERE, ROOT, import_program

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

import_program()


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_runs_at_tiny_size(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("lattice", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _perturb_first_float(record):
    """Copy of ``record`` with its first float leaf nudged by 1e-6 relative."""
    twin = copy.deepcopy(record)
    stack = [twin]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, float) and value != 0.0:
                node[key] = value * (1 + 1e-6)
                return twin
            if isinstance(value, (dict, list)):
                stack.append(value)
    raise AssertionError("record holds no float")


def _tiny_jobs():
    out = {}
    for workload in jobs.WORKLOADS:
        indir = Path("unused")
        topologies = {}
        if workload == "lattice":
            topologies = {"lattice4x4": jobs.lattice_topology(4, 4, 0)}
        for job in jobs.build_jobs(workload, "tiny", 0, indir, topologies):
            out[job.id] = job
    return out


@pytest.mark.parametrize("job_id", sorted(REFERENCE["tiny"]))
def test_check_accepts_reference_and_flags_perturbation(job_id):
    job = _tiny_jobs()[job_id]
    ref = REFERENCE["tiny"][job_id]
    assert job.check(ref, ref) == []
    if job.phase == "fixtures":
        bad = dict(ref)
        first = sorted(bad)[0]
        bad[first] = "0" * 64
    elif job.phase == "simulate":
        bad = copy.deepcopy(ref)
        for cell in bad["cells"].values():
            cell["x_model"] *= 1 + 1e-6
    else:
        bad = _perturb_first_float(ref)
    assert job.check(ref, bad), f"{job_id}: perturbed reference not flagged"


def test_simulate_gate_flags_a_biased_estimate():
    ref = REFERENCE["tiny"]["simulate.path4"]
    biased = copy.deepcopy(ref)
    cell = next(iter(biased["cells"].values()))
    cell["x_hat"] = cell["x_model"] + 20 * cell["x_se"]
    assert jobs._check_simulate(ref, ref) == []
    assert jobs._check_simulate(biased, ref)


def test_lattice_state_counts_are_asserted():
    ref = REFERENCE["tiny"]["eval.lattice4x4"]
    wrong = dict(ref, states=ref["states"] + 1)
    check = jobs._check_lattice_eval(4, 4)
    assert check(wrong, wrong)


def test_lattice_inputs_depend_only_on_seed():
    a = jobs.lattice_topology(4, 5, 7)
    assert a == jobs.lattice_topology(4, 5, 7)
    assert a != jobs.lattice_topology(4, 5, 8)
    assert sorted(c["id"] for c in a["cells"]) == list(range(1, 21))
