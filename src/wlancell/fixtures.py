"""Built-in benchmark topologies.

Five fixtures cover the shapes the model and the assignment algorithms are
exercised on:

* ``path4``, ``path5`` -- cells in a row, each contending only with its
  immediate neighbours; the classic flow-in-the-middle geometry.
* ``hex7`` -- one centre cell surrounded by a ring of six, all within
  carrier-sense range of the centre; the centre is starved under load.
* ``arbitrary7`` -- an irregular 7-cell layout with heterogeneous station
  counts (cell ``i`` hosts ``i + 1`` stations), given by an explicit edge
  list only.
* ``grid12`` -- a 12-cell office-floor style layout: two dense 5-cell
  clusters joined by a corridor of two cells plus two direct contacts.
  It ships with three named 3-channel assignments (``paths``,
  ``triangles``, ``matchings``, describing the co-channel subgraphs they
  induce) and a known optimal assignment; `verify_grid12` re-derives all
  their figures from scratch.

Path and hex fixtures carry planar coordinates and a carrier-sense range
whose induced geometry reproduces the explicit edge list exactly (the
tests check this); the other two are defined by edges alone.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Mapping

from . import assign, multicell
from .topology import ParsedTopology, parse_topology

_RING6 = [
    (1.0, 0.0), (0.5, 0.866025), (-0.5, 0.866025),
    (-1.0, 0.0), (-0.5, -0.866025), (0.5, -0.866025),
]

GRID12_EDGES = [
    [1, 2], [1, 8], [1, 11], [1, 12], [2, 3], [2, 7], [2, 8], [2, 11],
    [2, 12], [3, 4], [3, 5], [3, 6], [3, 9], [3, 10], [4, 5], [4, 9],
    [4, 10], [5, 6], [5, 9], [5, 10], [6, 7], [7, 8], [8, 11], [8, 12],
    [9, 10], [10, 11], [11, 12],
]

#: Reference 3-channel assignments for grid12, named after the shape of
#: the co-channel subgraphs they induce.  ``optimal`` attains the
#: exhaustive-search optimum (aggregate heavy-load share 8) and is a Nash
#: equilibrium; the other three are the comparison points used in tests.
GRID12_ASSIGNMENTS: Mapping[str, tuple[int, ...]] = {
    "paths": (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3),
    "triangles": (1, 2, 1, 3, 1, 1, 2, 2, 3, 3, 1, 1),
    "matchings": (1, 1, 2, 1, 1, 2, 3, 3, 3, 3, 2, 2),
    "optimal": (1, 2, 2, 3, 2, 1, 3, 2, 1, 2, 2, 3),
}

_FIXTURES: dict[str, dict] = {
    "path4": {
        "name": "path4",
        "comment": "Four cells in a row, 5 stations each; adjacent cells "
                   "contend.  Geometry (unit spacing, unit carrier-sense "
                   "range) reproduces the edge list.",
        "cells": [{"id": i, "x": float(i - 1), "y": 0.0, "n_nodes": 5}
                  for i in range(1, 5)],
        "r_cs": 1.0,
        "edges": [[1, 2], [2, 3], [3, 4]],
        "channels": 2,
    },
    "path5": {
        "name": "path5",
        "comment": "Five cells in a row, 5 stations each; adjacent cells "
                   "contend.",
        "cells": [{"id": i, "x": float(i - 1), "y": 0.0, "n_nodes": 5}
                  for i in range(1, 6)],
        "r_cs": 1.0,
        "edges": [[1, 2], [2, 3], [3, 4], [4, 5]],
        "channels": 2,
    },
    "hex7": {
        "name": "hex7",
        "comment": "One centre cell (id 1) surrounded by a hexagonal ring, "
                   "10 stations each; the centre contends with everyone, "
                   "ring cells with the centre and their two ring "
                   "neighbours.",
        "cells": [{"id": 1, "x": 0.0, "y": 0.0, "n_nodes": 10}]
                 + [{"id": i + 2, "x": x, "y": y, "n_nodes": 10}
                    for i, (x, y) in enumerate(_RING6)],
        "r_cs": 1.0,
        "edges": [[1, k] for k in range(2, 8)]
                 + [[2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [2, 7]],
        "channels": 3,
    },
    "arbitrary7": {
        "name": "arbitrary7",
        "comment": "Irregular 7-cell topology, cell i hosting i+1 stations; "
                   "cells 1 and 2 hang off a hub at 3, a second hub at 4 "
                   "links to 5 and to a pendant path 6-7.",
        "cells": [{"id": i, "n_nodes": i + 1} for i in range(1, 8)],
        "edges": [[1, 3], [2, 3], [3, 4], [4, 5], [4, 6], [6, 7]],
        "channels": 2,
    },
    "grid12": {
        "name": "grid12",
        "comment": "Office-floor style 12-cell layout: dense clusters "
                   "{1,2,8,11,12} and {3,4,5,9,10}, corridor cells 6-7, and "
                   "direct contacts 2-3 and 10-11.  Three-channel "
                   "benchmark; see wlancell.fixtures.GRID12_ASSIGNMENTS for "
                   "the reference assignments and verify_grid12() for the "
                   "checks that pin this fixture down.",
        "cells": [{"id": i, "n_nodes": 10} for i in range(1, 13)],
        "edges": GRID12_EDGES,
        "channels": 3,
    },
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name: str) -> dict:
    """A fresh copy of the named fixture's topology dictionary."""
    try:
        return copy.deepcopy(_FIXTURES[name])
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {FIXTURE_NAMES}") from None


def load(name: str) -> ParsedTopology:
    """The named fixture, parsed into typed objects."""
    return parse_topology(fixture(name))


def write_fixture_files(outdir: str | Path) -> list[Path]:
    """Write every fixture as JSON into ``outdir``; returns the paths."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in FIXTURE_NAMES:
        path = out / f"{name}.json"
        path.write_text(json.dumps(fixture(name), indent=2) + "\n")
        written.append(path)
    return written


def verify_grid12() -> dict[str, tuple[bool, str]]:
    """Re-derive every frozen grid12 figure from the shipped edge list.

    Checks, per named assignment, the aggregate heavy-load share and the
    fairness of the per-cell shares; that ``optimal`` matches the
    exhaustive-search optimum; and that it is a Nash equilibrium of the
    heavy-load utility.  Returns a mapping from check name to
    ``(passed, detail)``.
    """
    parsed = load("grid12")
    graph = parsed.graph
    expected = {
        "paths": (6.0, 0.9),
        "triangles": (4.0, 1.0),
        "matchings": (6.0, 1.0),
    }
    results: dict[str, tuple[bool, str]] = {}
    for name, (want_total, want_jain) in expected.items():
        channels = GRID12_ASSIGNMENTS[name]
        total = assign.utility_theta_bar(graph, channels) * graph.n_cells
        profile = assign.infinite_load_profile(graph, channels)
        jain = multicell.jain_fairness(profile)
        ok = abs(total - want_total) < 1e-9 and abs(jain - want_jain) < 1e-9
        results[f"assignment_{name}"] = (
            ok, f"theta_bar={total:.6f} (want {want_total}), "
                f"jain={jain:.6f} (want {want_jain})")
    best, best_u = assign.exhaustive_search(graph, 3)
    opt_channels = GRID12_ASSIGNMENTS["optimal"]
    opt_u = assign.utility_theta_bar(graph, opt_channels)
    ok = abs(best_u * graph.n_cells - 8.0) < 1e-9 and abs(opt_u - best_u) < 1e-12
    results["exhaustive_optimum"] = (
        ok, f"search max theta_bar={best_u * graph.n_cells:.6f} (want 8), "
            f"shipped optimal={opt_u * graph.n_cells:.6f}, "
            f"first maximiser={best.channels}")
    nash = assign.is_nash_equilibrium(
        graph, assign.ChannelAssignment(channels=opt_channels, n_channels=3))
    results["optimal_is_nash"] = (
        nash.is_nash, f"improving deviations: {len(nash.improving)}")
    return results
