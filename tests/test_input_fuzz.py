"""Input fuzz: malformed topology and MAC input raises only ConfigError,
and command lines at edge values end in an exit code with finite output."""

import contextlib
import dataclasses
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlancell import cli, dcf, fixtures
from wlancell.errors import ConfigError
from wlancell.topology import parse_topology

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2, max_value=6)
    | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)


@st.composite
def corrupted_topologies(draw):
    """A valid topology, every key present, with one to three values
    replaced by any JSON value or deleted."""
    n = draw(st.integers(min_value=1, max_value=4))
    raw = {
        "name": "fuzz",
        "comment": "",
        "cells": [{"id": i, "n_nodes": 1 + i % 2, "x": float(i), "y": 0.0}
                  for i in range(1, n + 1)],
        "edges": [[i, i + 1] for i in range(1, n)],
        "r_cs": 1.0,
        "channels": 2,
        "mac": dataclasses.asdict(dcf.MacParams()),
    }
    places = [(raw, key) for key in raw]
    places += [(cell, key) for cell in raw["cells"] for key in cell]
    places += [(edge, k) for edge in raw["edges"] for k in range(2)]
    places += [(raw["mac"], key) for key in raw["mac"]]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        container, key = draw(st.sampled_from(places))
        if isinstance(container, dict) and draw(st.booleans()):
            container.pop(key, None)
        else:
            container[key] = draw(JSON)
    return raw


@settings(max_examples=400, deadline=None)
@given(raw=corrupted_topologies() | JSON)
def test_input_schema_raises_only_config_errors(raw):
    with contextlib.suppress(ConfigError):
        parsed = parse_topology(raw)
        dcf.mac_from_dict(dict(parsed.mac) if parsed.mac else {})


# --------------------------------------------------------------- CLI fuzz

FLOATS = ("0", "-1", "5e-324", "1e-300", "1e-09", "0.5", "1", "1e+09",
          "1e+300", "nan", "inf", "-inf")
INTS = ("-1", "0", "1", "2", "3", "51", "52", "255", "256", str(2**48 - 1),
        str(2**53), str(10**20), str(10**400))
FACTORS = ("-1", "0", "5e-324", "1e-300", "1e-06", "1", "100", "1e+153",
           "1e+300", "nan", "inf")
SIMULATE_FLAGS = {
    "--horizon": ("-1", "0", "1e-09", "0.01", "0.5", "nan", "inf"),
    "--warmup": ("-0.1", "0", "0.1", "0.99", "1", "nan"),
    "--replications": ("-1", "0", "1", "2", "3"),
    "--seed": ("-1", "0", "7", str(2**64)),
    "--active-dist": ("exponential", "deterministic"),
}
#: (horizon, replications) far past `ctmc.MAX_SIM_EVENTS` on every
#: fixture, whose saturated rates sum to 4e4 to 1.2e5 per second, while
#: `SIMULATE_FLAGS` runs need at most 2e5 events.  Each must exit 4 at
#: once, so the other flags are drawn from valid values.
OVER_BUDGET = {("1e+06", "1"), ("1e+09", "3"), ("1e+300", "2"),
               ("0.5", "1000000"), ("0.5", str(10**9))}
VALID_SIMULATE_FLAGS = {
    "--warmup": ("0", "0.1", "0.99"),
    "--seed": ("0", "7", str(2**64)),
    "--active-dist": ("exponential", "deterministic"),
}
LRI_FLAGS = {
    "--lri-b": ("-1", "0", "1e-300", "0.01", "0.5", "1", "1.5", "nan"),
    "--steps": ("-1", "0", "1", "1023", "1024", "2000"),
    "--threshold": ("0", "1e-300", "0.001", "0.5", "1", "nan"),
}


@st.composite
def mac_flags(draw) -> list[str]:
    """Up to three MAC overrides at edge values."""
    chosen = draw(st.lists(st.sampled_from(dataclasses.fields(dcf.MacParams)),
                           max_size=3, unique_by=lambda f: f.name))
    values = {"int": INTS, "float": FLOATS,
              "str": ("basic", "rtscts", "polling")}
    return [f"--mac-{f.name.replace('_', '-')}="
            f"{draw(st.sampled_from(values[f.type]))}" for f in chosen]


@st.composite
def payload_ranges(draw) -> str:
    """``min:max:step`` of at most 20 points, or a malformed range."""
    lo = draw(st.sampled_from([0, 1, 100, 1500, 10**6]))
    step = draw(st.sampled_from([0, 1, 7, 1000]))
    points = draw(st.integers(min_value=1, max_value=20))
    hi = lo + step * (points - 1) - draw(st.sampled_from([0, 0, lo + 1]))
    return f"{lo}:{hi}:{step}"


@st.composite
def cli_argv(draw) -> list[str]:
    """Arguments of one ``analyze``, ``sweep``, ``simulate`` or ``assign``
    run on a built-in fixture, each flag drawn from its edge values."""
    command = draw(st.sampled_from(["analyze", "sweep", "simulate",
                                    "assign"]))
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    argv = [command, f"--input={pick(fixtures.FIXTURE_NAMES)}"]
    if command in ("analyze", "sweep"):
        argv += [f"--mode={pick(['sat', 'tcp'])}", *draw(mac_flags())]
    if command == "sweep" and draw(st.booleans()):
        argv += ["--sweep=payload",
                 f"--payload-bytes={draw(payload_ranges())}"]
    elif command == "sweep":
        factors = draw(st.lists(st.sampled_from(FACTORS), min_size=1,
                                max_size=4))
        argv += ["--sweep=rho", f"--rho-factors={','.join(factors)}"]
    elif command == "simulate" and draw(st.booleans()):
        horizon, replications = pick(sorted(OVER_BUDGET))
        argv += [f"--horizon={horizon}", f"--replications={replications}"]
        argv += [f"{flag}={pick(values)}"
                 for flag, values in VALID_SIMULATE_FLAGS.items()]
    elif command == "simulate":
        argv += [f"{flag}={pick(values)}"
                 for flag, values in SIMULATE_FLAGS.items()]
    elif command == "assign":
        method = pick(["misa", "lri", "exhaustive"])
        argv += [f"--method={method}", f"--seed={pick(['-1', '0', '3'])}"]
        if draw(st.booleans()):
            argv.append(f"--channels={pick(['-1', '0', '1', '2', '3', '4'])}")
        if method == "misa":
            argv.append(f"--order={pick(['lexicographic', 'random'])}")
        elif method == "lri":
            argv += [f"{flag}={pick(values)}"
                     for flag, values in LRI_FLAGS.items()]
        else:
            argv.append(f"--budget={pick(['0', '1', '1000', '2000000'])}")
    return argv


def non_finite_numbers(outdir: Path, single_run: bool):
    """``(file, column, value)`` for every number in the CSV and JSON
    files under ``outdir`` that is not finite, bar the standard errors
    that mark "no estimate": all of them after a one-replication
    simulation, and those of a state that no replication visited
    (``pi_hat`` 0)."""
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".json":
            stack = [("", json.loads(path.read_text()))]
            while stack:
                key, value = stack.pop()
                if isinstance(value, dict):
                    stack.extend(value.items())
                elif isinstance(value, list):
                    stack.extend((key, v) for v in value)
                elif isinstance(value, float) and not math.isfinite(value):
                    yield path.name, key, value
            continue
        header, *lines = path.read_text().splitlines()
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            no_estimate = single_run or row.get("pi_hat") == "0"
            for column, cell in row.items():
                with contextlib.suppress(ValueError):
                    value = float(cell)
                    if not (math.isfinite(value)
                            or no_estimate and column.endswith("_se")):
                        yield path.name, column, value


@settings(max_examples=200, deadline=None)
@given(argv=cli_argv())
# an integer field beyond float range once overflowed in float arithmetic
@example(argv=["analyze", "--input=path4", f"--mac-payload-bits={10**400}"])
# oscillates: exit 3 after `dcf.MAX_ITER` iterations
@example(argv=["analyze", "--input=path4", "--mac-cw-min=2",
               "--mac-retry-limit=255", "--mac-backoff-doubling-cap=51"])
# hex7's state {1} is visited by no replication: its pi_se is nan
@example(argv=["simulate", "--input=hex7", "--horizon=0.5",
               "--replications=3", "--seed=4"])
# 1e300 simulated seconds: refused before the first event
@example(argv=["simulate", "--input=grid12", "--horizon=1e+300",
               "--replications=2", "--warmup=0", "--seed=0",
               "--active-dist=exponential"])
def test_cli_exits_cleanly_with_finite_outputs(argv):
    """Every drawn run ends in an exit code, never a traceback, and writes
    only finite numbers, except standard errors without an estimate.  A
    simulation past the event budget exits 4 and writes nothing."""
    single_run = "--replications=1" in argv
    flags = dict(arg.split("=", 1) for arg in argv[1:])
    over_budget = (flags.get("--horizon"),
                   flags.get("--replications")) in OVER_BUDGET
    # known oscillating MAC values would otherwise take 10,000 iterations
    with (tempfile.TemporaryDirectory() as out,
          mock.patch.object(dcf, "MAX_ITER", 300)):
        code = cli.main([*argv, f"--out={out}"])
        assert code in ((4,) if over_budget else (0, 2, 3, 4))
        assert list(non_finite_numbers(Path(out), single_run)) == []
        assert not (over_budget and any(Path(out).iterdir()))
