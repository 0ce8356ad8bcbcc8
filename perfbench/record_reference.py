"""Record ``reference.json``: every job's normalised output at seed 0.

Run from the root of a wlancell checkout, on the commit whose outputs are
the contract::

    python3 perfbench/record_reference.py

Outputs that depend on the seed are either normalised away (lattice and
relabelled-grid results are keyed by position or reduced to
label-free values) or checked statistically (``simulate``), so one seed's
record serves every seed.  Known values from the paper's fixtures are
asserted before anything is written.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import jobs
from run import HERE, import_program, reset_program_caches

#: Values fixed independently of this program's output.
KNOWN = {
    ("full", "assign.exhaustive.grid12"): ("theta_bar_inf", 8.0),
}


def record(scale: str, workdir: Path) -> dict:
    reference = {}
    for workload in jobs.WORKLOADS:
        indir = workdir / workload / "in"
        topologies = jobs.write_inputs(workload, scale, 0, indir)
        for job in jobs.build_jobs(workload, scale, 0, indir, topologies):
            reset_program_caches()
            out = workdir / workload / "out" / job.id
            out.mkdir(parents=True)
            data = job.normalise(out, job.run(out, 0))
            problems = job.check(data, data)
            if problems:
                raise SystemExit(f"{job.id}: {problems}")
            reference[job.id] = data
            print(f"{scale} {job.id}: recorded", file=sys.stderr)
    for (known_scale, job_id), (key, value) in KNOWN.items():
        if known_scale == scale and reference[job_id][key] != value:
            raise SystemExit(f"{job_id}: {key} = {reference[job_id][key]}, "
                             f"expected {value}")
    return reference


def main() -> int:
    if import_program() is None:
        print("error: run from the root of a wlancell checkout",
              file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=HERE.parent))
    try:
        reference = {scale: record(scale, workdir / scale)
                     for scale in ("tiny", "full")}
    finally:
        shutil.rmtree(workdir)
    (HERE / "reference.json").write_text(
        json.dumps(reference, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
