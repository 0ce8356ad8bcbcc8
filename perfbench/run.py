"""wlancell benchmark: one workload, one fresh process, one closed-loop caller.

Usage (from the root of a wlancell checkout)::

    python3 perfbench/run.py --workload lattice --seed 0 --seconds 32 --trace 0

The run imports ``wlancell`` from ``src/`` of the checkout, generates the
workload's inputs from ``--seed``, then repeats the workload's job list
(see `jobs.py`) until ``--seconds`` would be exceeded, checking every
job's output against ``reference.json``.  Each pass starts from cold
program caches, as a fresh CLI process would.  Times are scaled to a
reference CPU speed by a probe that runs alongside each job (see
`Stopwatch`); the unscaled times are in the report.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones plus the tracing overhead.  A human-readable report (phase
times with quartiles, machine, commit) goes to stdout and to
``.perfbench_out/``; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from itertools import repeat
from pathlib import Path
from time import perf_counter

import jobs
from tracer import CLI_SPAN, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 15

#: Speed probe: period, and the probe's time at the reference speed,
#: which fixes the unit of scaled times.  0.12 ms is the fastest of 3,000
#: probes on the 2-CPU Xeon VM this was tuned on (median 0.18 ms).
PROBE_PERIOD_S = 0.02
PROBE_REF_S = 0.00012

#: Phases reported per workload, as (report name, job phase).
PHASE_METRICS = (
    ("analyze_s", "analyze"),
    ("lattice25_eval_s", "eval"),
    ("sweep_s", "sweep"),
    ("sweep_rho_s", "sweep_rho"),
    ("simulate_s", "simulate"),
    ("misa_s", "misa"),
    ("fixtures_s", "fixtures"),
    ("assign_s", "lri"),
    ("exhaustive_s", "exhaustive"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny job lists for the self-test")
    return parser.parse_args(argv)


def import_program():
    """Import wlancell from this checkout's ``src/``; None if absent."""
    if not (SRC / "wlancell" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import wlancell

    if SRC.resolve() not in Path(wlancell.__file__).resolve().parents:
        return None
    return wlancell


def probe_s() -> float:
    """Seconds taken by a fixed interpreter loop, right now.

    Only small cached ints, no allocation: it measures how fast this CPU
    runs the interpreter, and as little as possible of the heap and
    cache state the program leaves behind.
    """
    start = perf_counter()
    a = 1
    for _ in repeat(None, 2500):
        a = (a * 5 + 3) & 127
    return perf_counter() - start


class Stopwatch:
    """Times a ``with`` block in wall seconds and at reference speed.

    The host's other tenants slow this process down in steps of 1.4x to
    1.9x that last seconds to minutes.  So while the block runs, SIGALRM
    fires every PROBE_PERIOD_S and its handler times a fixed
    interpreter-bound loop, one more time before and after the block.
    ``seconds`` is the block's wall time minus the probes inside it;
    ``scaled`` is ``seconds`` times PROBE_REF_S over the mean probe time.
    """

    def _probe(self, *_) -> None:
        self._probes.append(probe_s())

    def __enter__(self) -> "Stopwatch":
        self._probes: list[float] = []
        self._probe()
        self._handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        inside = sum(self._probes[1:])
        self._probe()
        self.seconds = end - self._start - inside
        self.scaled = self.seconds * PROBE_REF_S / statistics.fmean(self._probes)


def pin_to_one_cpu() -> None:
    """Run this process, and the set-up children it starts, on one CPU.

    The probes then always measure the CPU the timed work runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reset_program_caches() -> None:
    """Empty module-level memos so every pass starts as a fresh process."""
    from wlancell import assign

    tables = getattr(assign, "_graph_tables", None)
    if isinstance(tables, dict):
        tables.clear()
    gc.collect()


def measure_setup(workload: str, scale: str, seed: int, indir: Path
                  ) -> tuple[list[float], dict]:
    """Time interpreter start + ``import wlancell.cli`` + input generation.

    The import runs in a child interpreter (one at a time, awaited), so
    each repetition pays the full import as a CLI user does.  The wait
    has no timeout: with one, `subprocess` polls in sleeps of up to 50 ms,
    which would quantise the measurement.  Each sample is scaled to
    reference speed by probes taken just before it (see `Stopwatch`).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    samples = []
    topologies: dict = {}
    for _ in range(SETUP_REPS):
        shutil.rmtree(indir, ignore_errors=True)
        speed = statistics.fmean(probe_s() for _ in range(8))
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import wlancell.cli"],
                       cwd=ROOT, env=env, check=True)
        topologies = jobs.write_inputs(workload, scale, seed, indir)
        samples.append((perf_counter() - start) * PROBE_REF_S / speed)
    return samples, topologies


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(job_list: list[jobs.Job], reference: dict, outroot: Path,
             pass_index: int, tracer: Tracer | None) -> dict:
    """Run every job once; time each, then check its output untimed."""
    reset_program_caches()
    if tracer is not None:
        tracer.reset_counts()
        tracer.install()
    times: dict[str, float] = {}
    scaled: dict[str, float] = {}
    problems: dict[str, list[str]] = {}
    events = 0
    bytes_written = 0
    for job in job_list:
        out = outroot / f"pass{pass_index}" / job.id
        out.mkdir(parents=True)
        is_cli = job.phase != "eval"
        error = None
        with Stopwatch() as watch:
            if tracer is not None and is_cli:
                tracer.open(CLI_SPAN)
            try:
                result = job.run(out, pass_index)
            except Exception as exc:  # any failure counts against error_rate
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None and is_cli:
                    tracer.close()
        times[job.id] = watch.seconds
        scaled[job.id] = watch.scaled
        if error is None:
            try:
                data = job.normalise(out, result)
                if job.id not in reference:
                    raise KeyError(f"no reference recorded for {job.id}")
                found = job.check(data, reference[job.id])
                events += data.get("events", 0)
            except Exception as exc:  # a malformed output is a failure
                found = [f"output check raised {type(exc).__name__}: {exc}"]
        else:
            found = [error]
        if found:
            problems[job.id] = found
        if tracer is not None:
            bytes_written += _dir_bytes(out)
        shutil.rmtree(out)
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer, bytes_written)
    return {"times": times, "scaled": scaled, "events": events,
            "problems": problems, "traced": tracer is not None,
            "layers": layers}


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def timing(passes: list[dict], job_ids: list[str], key: str = "scaled"
           ) -> dict:
    """Per-pass total time of a set of jobs: median, quartiles, count."""
    return summary([sum(p[key][j] for j in job_ids) for p in passes])


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` if there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpu": platform.processor()
            or platform.machine(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if import_program() is None:
        print(f"error: no wlancell package under {SRC}; run from the root "
              "of a wlancell checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    reference = json.loads((HERE / "reference.json").read_text())[args.scale]

    pin_to_one_cpu()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_samples, topologies = measure_setup(
            args.workload, args.scale, args.seed, workdir / "in")
        job_list = jobs.build_jobs(args.workload, args.scale, args.seed,
                                   workdir / "in", topologies)
        tracer = Tracer() if args.trace else None
        passes = []
        start = perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(run_pass(job_list, reference, workdir / "out",
                                   len(passes), tracer if traced else None))
            elapsed = perf_counter() - start
            enough = len(passes) >= (2 if tracer is not None else 1)
            last = sum(passes[-1]["times"].values())
            if enough and elapsed + last > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    for p in passes:
        for job_id, found in p["problems"].items():
            for line in found[:5]:
                print(f"check failed: {job_id}: {line}", file=sys.stderr)

    phases: dict[str, list[str]] = {}
    for job in job_list:
        phases.setdefault(job.phase, []).append(job.id)
    job_ids = [job.id for job in job_list]
    wall = timing(untraced, job_ids)
    phase_times = {name: timing(untraced, phases[phase])
                   for name, phase in PHASE_METRICS if phase in phases}
    if "simulate" in phases:
        phase_times["sim_events_per_s"] = summary(
            [p["events"] / sum(p["scaled"][j] for j in phases["simulate"])
             for p in untraced])
    setup = summary(setup_samples)
    report = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "machine": machine_info(),
        "setup_s": setup, "wall_s": wall,
        "raw_wall_s": timing(untraced, job_ids, "times"),
        "phases": phase_times,
        "peak_rss_mb": peak_rss_mb, "attempted": attempted,
        "failed": failed, "error_rate": failed / attempted,
    }
    if args.trace:
        values = {k: statistics.median(p["layers"][k] for p in traced_passes)
                  for k in traced_passes[0]["layers"]}
        traced_wall = timing(traced_passes, job_ids)
        values["trace.overhead_ratio"] = traced_wall["median"] / wall["median"]
        report["layers"] = values
    else:
        values = {"setup_s": setup["median"], "wall_s": wall["median"],
                  "peak_rss_mb": peak_rss_mb}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"report_{args.workload}_trace{args.trace}_seed{args.seed}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
