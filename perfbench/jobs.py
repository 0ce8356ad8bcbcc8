"""Workload job lists, generated inputs and output checks.

A workload is a list of jobs.  Each job is one operation a user would run:
a `wlancell.cli.main` call, or (for the 5x5 lattice, which has no
subcommand that stops short of a full solve) a direct call sequence of
public functions.  Every job turns its outputs into a small normalised
record; `check` compares that record against the reference recorded from
the program (``reference.json``) and returns the mismatches.

Inputs depend only on the workload seed:

* lattice cells get ids shuffled by the seed (positions are fixed), so
  results are compared per lattice position, not per id;
* the grid12 copy searched exhaustively is relabelled the same way;
* ``simulate`` seeds come from the workload seed and the pass index.

LRI runs keep fixed seeds (see README.md: their step count, and so their
cost, varies by up to 70% between seeds).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FIXTURES = ("path4", "path5", "hex7", "arbitrary7", "grid12")
WORKLOADS = ("lattice", "fixtures", "assign")

#: Independent-set counts of the four-neighbour lattices at r_cs = 1.0.
LATTICE_STATES = {(4, 4): 1234, (4, 5): 6743, (5, 5): 55447}
LATTICE_STATIONS = 10

#: Simulation settings for the fixtures workload.  With R replications
#: each cell's z = (x_hat - x_model) / x_se follows a t law with R - 1
#: degrees of freedom on a correct program.  The gate is its two-sided
#: 1e-8 quantile for 19 degrees of freedom, so the ~100 cells checked in
#: one run trip it with probability about 1e-6.
SIM_REPLICATIONS = 20
SIM_HORIZON = {"full": 2.0, "tiny": 0.2}
SIM_Z_GATE = 9.61

#: Payload sweep grid (bytes) per scale; 96 points x 2 modes x 5 fixtures
#: = 960 fixed-point solves at full scale.
SWEEP_PAYLOAD = {"full": "100:2000:20", "tiny": "100:2000:100"}

#: LRI runs of the assign workload: (fixture, learning rate, seed).
LRI_RUNS = {"full": (("arbitrary7", 0.001, 0), ("grid12", 0.01, 3)),
            "tiny": (("path4", 0.05, 0),)}

#: Fixtures searched exhaustively, each relabelled by the seed.
EXHAUSTIVE_RUNS = {"full": ("grid12",), "tiny": ("hex7",)}

#: Lattices per scale: analyzed shapes and the directly evaluated one.
LATTICES = {"full": (((4, 4), (4, 5)), (5, 5)),
            "tiny": (((4, 4),), (4, 4))}


@dataclass(frozen=True)
class Job:
    """One operation of a workload.

    ``phase`` groups jobs for the per-phase report (analyze, sweep,
    simulate, lri, exhaustive, misa, fixtures, eval).  ``run`` performs
    the operation into an output directory and returns whatever
    ``normalise`` needs besides that directory.
    """

    id: str
    phase: str
    run: Callable[[Path, int], object]
    normalise: Callable[[Path, object], dict]
    check: Callable[[dict, dict], list[str]]


class JobFailed(Exception):
    """The operation itself failed (non-zero exit or exception)."""


# ---------------------------------------------------------------- inputs

def lattice_topology(rows: int, cols: int, seed: int) -> dict:
    """A rows x cols four-neighbour lattice with seed-shuffled cell ids.

    Unit spacing with ``r_cs = 1.0`` links exactly the four nearest
    neighbours.  Positions use the per-cell ``x``/``y`` keys, which is the
    schema `parse_topology` reads.
    """
    ids = list(range(1, rows * cols + 1))
    random.Random(seed * 7919 + rows * 31 + cols).shuffle(ids)
    cells = [{"id": ids[r * cols + c], "x": float(c), "y": float(r),
              "n_nodes": LATTICE_STATIONS}
             for r in range(rows) for c in range(cols)]
    return {"name": f"lattice{rows}x{cols}", "r_cs": 1.0, "cells": cells}


def relabelled_fixture(name: str, seed: int) -> dict:
    """A built-in fixture with cell ids permuted by the seed.

    Station counts and the channel count travel with the cells, so the
    network is the same; only the labels (and hence the scan order of an
    exhaustive search) change.
    """
    from wlancell import fixtures

    raw = fixtures.fixture(name)
    n = len(raw["cells"])
    perm = list(range(1, n + 1))
    random.Random(seed * 104729 + n).shuffle(perm)
    new_id = {old: perm[old - 1] for old in range(1, n + 1)}
    cells = [{"id": new_id[c["id"]], "n_nodes": c.get("n_nodes", 1)}
             for c in raw["cells"]]
    edges = [[new_id[i], new_id[j]] for i, j in raw["edges"]]
    return {"name": f"{name}_relabelled", "cells": cells, "edges": edges,
            "channels": raw["channels"]}


def positions(topology: dict) -> dict[int, str]:
    """Cell id -> position label ``r<row>c<col>`` of a lattice topology."""
    return {c["id"]: f"r{int(c['y'])}c{int(c['x'])}"
            for c in topology["cells"]}


def write_inputs(workload: str, scale: str, seed: int, indir: Path) -> dict:
    """Generate and write the workload's topology files; returns them.

    The returned mapping (file stem -> topology dict) is what the job
    builders read, so jobs never depend on anything but these files.
    """
    indir.mkdir(parents=True, exist_ok=True)
    topologies: dict[str, dict] = {}
    if workload == "lattice":
        analyzed, evaluated = LATTICES[scale]
        for rows, cols in set(analyzed) | {evaluated}:
            topo = lattice_topology(rows, cols, seed)
            topologies[topo["name"]] = topo
    elif workload == "assign":
        for name in EXHAUSTIVE_RUNS[scale]:
            topo = relabelled_fixture(name, seed)
            topologies[topo["name"]] = topo
    for stem, topo in topologies.items():
        (indir / f"{stem}.json").write_text(json.dumps(topo, indent=1) + "\n")
    return topologies


# ------------------------------------------------------------ comparison

def _printed_tol(ref: float) -> float:
    """One unit in the 10th significant digit, the CLI's printed precision."""
    if ref == 0.0 or not math.isfinite(ref):
        return 1e-300
    return 10.0 ** (math.floor(math.log10(abs(ref))) - 9)


def compare(data, ref, path: str = "", *, abs_tol: float | None = None
            ) -> list[str]:
    """Recursive comparison; floats within printed precision or ``abs_tol``."""
    if isinstance(ref, dict):
        if not isinstance(data, dict):
            return [f"{path}: expected a mapping, got {data!r}"]
        out = []
        for key in sorted(set(ref) | set(data)):
            if key not in data:
                out.append(f"{path}/{key}: missing")
            elif key not in ref:
                out.append(f"{path}/{key}: unexpected")
            else:
                out.extend(compare(data[key], ref[key], f"{path}/{key}",
                                   abs_tol=abs_tol))
        return out
    if isinstance(ref, list):
        if not isinstance(data, list) or len(data) != len(ref):
            return [f"{path}: expected {len(ref)} entries, got {data!r:.80}"]
        out = []
        for k, (d, r) in enumerate(zip(data, ref)):
            out.extend(compare(d, r, f"{path}[{k}]", abs_tol=abs_tol))
        return out
    if isinstance(ref, float) and not isinstance(data, bool) \
            and isinstance(data, (int, float)):
        tol = abs_tol if abs_tol is not None else _printed_tol(ref)
        if abs(data - ref) <= tol or (math.isnan(ref) and math.isnan(data)):
            return []
        return [f"{path}: {data!r} differs from reference {ref!r}"]
    if data != ref:
        return [f"{path}: {data!r} differs from reference {ref!r}"]
    return []


# ------------------------------------------------------------ CLI plumbing

def _cli(argv: list[str]) -> str:
    """Run `wlancell.cli.main` in-process; returns captured stdout."""
    from wlancell import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise JobFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def _cli_job(job_id: str, phase: str, argv: list[str],
             normalise: Callable[[Path, object], dict],
             check: Callable[[dict, dict], list[str]] = compare
             ) -> Job:
    return Job(job_id, phase, lambda out, _pass: _cli(argv + ["--out", str(out)]),
               normalise, check)


# ------------------------------------------------------------ normalisers

def _analyze_normaliser(stem: str, key_of: dict[int, str] | None):
    def normalise(out: Path, _stdout) -> dict:
        cells = {}
        for row in _read_csv(out / f"{stem}_cells.csv"):
            cell_id = int(row.pop("id"))
            key = key_of[cell_id] if key_of else str(cell_id)
            cells[key] = {k: _num(v) for k, v in row.items()}
        summary = {k: _num(v) for k, v in
                   _read_csv(out / f"{stem}_summary.csv")[0].items()}
        # The final residual depends on rounding order (cell labelling);
        # the contract is only that it met the solver tolerance.
        summary["residual"] = summary["residual"] < 1e-10
        return {"cells": cells, "summary": summary}
    return normalise


def _sweep_normaliser(stem: str, kind: str):
    def normalise(out: Path, _stdout) -> dict:
        rows = _read_csv(out / f"{stem}_sweep_{kind}.csv")
        sweep_col = next(iter(rows[0])) if rows else ""
        return {"points": {row[sweep_col]: {k: _num(v) for k, v in row.items()
                                            if k != sweep_col}
                           for row in rows}}
    return normalise


def _simulate_normaliser(stem: str):
    def normalise(out: Path, stdout: str) -> dict:
        rows = _read_csv(out / f"{stem}_sim_cells.csv")
        events = int(stdout.split(":", 1)[1].split()[0])
        return {"events": events,
                "cells": {r["id"]: {"x_hat": float(r["x_hat"]),
                                    "x_se": float(r["x_se"]),
                                    "x_model": float(r["x_model"])}
                          for r in rows}}
    return normalise


def _check_simulate(data: dict, ref: dict) -> list[str]:
    """Model column against the reference; estimates against the gate."""
    out = compare({k: c["x_model"] for k, c in data["cells"].items()},
                  {k: c["x_model"] for k, c in ref["cells"].items()},
                  "/x_model")
    if data["events"] <= 0:
        out.append("/events: no events simulated")
    for key, c in data["cells"].items():
        gap = abs(c["x_hat"] - c["x_model"])
        if c["x_se"] > 0.0:
            z = gap / c["x_se"]
        else:
            z = 0.0 if gap < 1e-12 else math.inf
        if not z <= SIM_Z_GATE:
            out.append(f"/cells/{key}: |x_hat - x_model| = {gap:.3g} is "
                       f"{z:.3g} standard errors (gate {SIM_Z_GATE})")
    return out


def _assign_normaliser(stem: str, keep_channels: bool):
    def normalise(out: Path, _stdout) -> dict:
        payload = json.loads((out / f"{stem}_assignment.json").read_text())
        data = {"theta_bar_inf": payload["theta_bar_inf"],
                "nash_equilibrium": payload["nash_equilibrium"],
                "converged": payload["converged"]}
        if keep_channels:
            data["channels"] = payload["channels"]
        trace = out / f"{stem}_utrace.csv"
        if trace.exists():
            rows = trace.read_text().splitlines()
            data["lri_steps"] = len(rows) - 1
            data["final_utility"] = float(rows[-1].split(",")[1])
        return data
    return normalise


def _check_assign(data: dict, ref: dict) -> list[str]:
    out = compare(data, ref)
    if not (data.get("converged") and data.get("nash_equilibrium")):
        out.append("/: result is not a converged Nash equilibrium")
    return out


def _fixtures_normaliser(out: Path, _stdout) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.json"))}


# ------------------------------------------------------ direct evaluation

def evaluate_lattice(path: Path) -> dict:
    """Enumerate a lattice and evaluate the stationary law once.

    All attempt probabilities sit at the collision-free value
    ``G(0)``; the occupation ratios follow from it as in the solver.
    Calls go through module attributes so a tracer sees them.
    """
    from wlancell import dcf, multicell, topology

    raw = json.loads(path.read_text())
    parsed = topology.parse_topology(raw)
    family = topology.enumerate_state_space(parsed.graph)
    mac = dcf.MacParams()
    beta0 = dcf.attempt_prob_G(0.0, mac)
    t_success, t_collision = dcf.frame_durations(mac)
    rho = [multicell.activation_rate(beta0, c.n_nodes, mac.slot_time)
           * multicell.mean_active_duration(beta0, c.n_nodes, t_success,
                                            t_collision)
           for c in parsed.cells]
    pi = multicell.stationary_distribution(family, rho)
    gamma, starved = multicell.collision_probabilities(
        family, pi, [beta0] * len(parsed.cells), parsed.cells)
    x = multicell.unblocked_fractions_direct(family, pi)
    key_of = positions(raw)
    verts = parsed.graph.vertices
    return {
        "states": len(family.states),
        # pi(idle) is ~1e-12 on these lattices, so its log is compared.
        "log_pi_idle": math.log(pi[frozenset()]),
        "cells": {key_of[v]: {"gamma": g, "x": xv, "starved": s}
                  for v, g, xv, s in zip(verts, gamma, x, starved)},
    }


def _check_lattice_eval(rows: int, cols: int):
    def check(data: dict, ref: dict) -> list[str]:
        out = compare(data, ref, abs_tol=1e-12)
        want = LATTICE_STATES[(rows, cols)]
        if data["states"] != want:
            out.append(f"/states: {data['states']} independent sets, "
                       f"expected {want}")
        return out
    return check


# ------------------------------------------------------------- job lists

def build_jobs(workload: str, scale: str, seed: int, indir: Path,
               topologies: dict) -> list[Job]:
    """The workload's ordered job list at ``scale`` ("full" or "tiny")."""
    if workload == "lattice":
        return _lattice_jobs(scale, indir, topologies)
    if workload == "fixtures":
        return _fixtures_jobs(scale, seed)
    if workload == "assign":
        return _assign_jobs(scale, indir)
    raise ValueError(f"unknown workload {workload!r}")


def _lattice_jobs(scale: str, indir: Path, topologies: dict) -> list[Job]:
    analyzed, (er, ec) = LATTICES[scale]
    jobs = []
    for rows, cols in analyzed:
        stem = f"lattice{rows}x{cols}"
        key_of = positions(topologies[stem])
        for mode in ("sat", "tcp"):
            jobs.append(_cli_job(
                f"analyze.{mode}.{stem}", "analyze",
                ["analyze", "--input", str(indir / f"{stem}.json"),
                 "--mode", mode],
                _analyze_normaliser(stem, key_of)))
    stem = f"lattice{er}x{ec}"
    path = indir / f"{stem}.json"
    jobs.append(Job(f"eval.{stem}", "eval",
                    lambda _out, _pass: evaluate_lattice(path),
                    lambda _out, result: result,
                    _check_lattice_eval(er, ec)))
    return jobs


def _fixtures_jobs(scale: str, seed: int) -> list[Job]:
    names = FIXTURES if scale == "full" else FIXTURES[:1]
    jobs = []
    for name in names:
        for mode in ("sat", "tcp"):
            jobs.append(_cli_job(
                f"analyze.{mode}.{name}", "analyze",
                ["analyze", "--input", name, "--mode", mode],
                _analyze_normaliser(name, None)))
        for mode in ("sat", "tcp"):
            jobs.append(_cli_job(
                f"sweep.payload.{mode}.{name}", "sweep",
                ["sweep", "--input", name, "--mode", mode,
                 "--sweep", "payload",
                 "--payload-bytes", SWEEP_PAYLOAD[scale]],
                _sweep_normaliser(name, "payload")))
        jobs.append(_cli_job(
            f"sweep.rho.{name}", "sweep_rho",
            ["sweep", "--input", name, "--sweep", "rho"],
            _sweep_normaliser(name, "rho")))
        jobs.append(_simulate_job(name, scale, seed))
        jobs.append(_cli_job(
            f"assign.misa.{name}", "misa",
            ["assign", "--input", name, "--method", "misa"],
            _assign_normaliser(name, True), _check_assign))
    jobs.append(Job("fixtures", "fixtures",
                    lambda out, _pass: _cli(["fixtures", "--out", str(out)]),
                    _fixtures_normaliser, compare))
    return jobs


def _simulate_job(name: str, scale: str, seed: int) -> Job:
    def run(out: Path, pass_index: int) -> str:
        return _cli(["simulate", "--input", name,
                     "--horizon", str(SIM_HORIZON[scale]),
                     "--replications", str(SIM_REPLICATIONS),
                     "--seed", str(seed * 1000 + pass_index),
                     "--out", str(out)])
    return Job(f"simulate.{name}", "simulate", run,
               _simulate_normaliser(name), _check_simulate)


def _assign_jobs(scale: str, indir: Path) -> list[Job]:
    jobs = []
    for name, b, lri_seed in LRI_RUNS[scale]:
        jobs.append(_cli_job(
            f"assign.lri.{name}", "lri",
            ["assign", "--input", name, "--method", "lri",
             "--lri-b", str(b), "--seed", str(lri_seed)],
            _assign_normaliser(name, True), _check_assign))
    for name in EXHAUSTIVE_RUNS[scale]:
        stem = f"{name}_relabelled"
        # The first maximiser depends on the labelling; its value does not.
        jobs.append(_cli_job(
            f"assign.exhaustive.{name}", "exhaustive",
            ["assign", "--input", str(indir / f"{stem}.json"),
             "--method", "exhaustive"],
            _assign_normaliser(stem, False), _check_assign))
    return jobs
