"""Schema fuzz: malformed topology and MAC input raises only ConfigError."""

import contextlib
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from wlancell import dcf
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
