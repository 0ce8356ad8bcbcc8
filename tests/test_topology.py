"""Cells, contention graphs, and independent-set enumeration."""

import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wlancell import fixtures
from wlancell.errors import BudgetExceededError, ConfigError
from wlancell.topology import (GRAPH_MEMO_SIZE, CellSpec, ContentionGraph,
                               bits, build_physical_graph,
                               enumerate_state_space, logical_graph,
                               parse_topology)

PATH4_EDGES = frozenset({(1, 2), (2, 3), (3, 4)})


def path4_graph() -> ContentionGraph:
    return ContentionGraph(n_cells=4, edges=PATH4_EDGES)


def full_mask(graph: ContentionGraph) -> int:
    return (1 << len(graph.vertices)) - 1


def cells_of(graph: ContentionGraph, mask: int) -> frozenset[int]:
    return frozenset(graph.vertices[k] for k in bits(mask))


def partition(family, index: int) -> tuple[frozenset, frozenset, frozenset]:
    """(active, blocked, in backoff) cells of ``family.states[index]``."""
    graph = family.graph
    full = (1 << len(graph.vertices)) - 1
    mask, free = family.masks[index], family.free[index]
    return (cells_of(graph, mask), cells_of(graph, full & ~(mask | free)),
            cells_of(graph, free))


@st.composite
def graphs(draw, max_cells: int = 8) -> ContentionGraph:
    n = draw(st.integers(min_value=1, max_value=max_cells))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return ContentionGraph(n_cells=n, edges=frozenset(edges))


def test_cell_spec_coerces_position():
    cell = CellSpec(id=3, n_nodes=2, position=[1, 2])
    assert cell.position == (1.0, 2.0)
    assert isinstance(cell.position[0], float)


@pytest.mark.parametrize("kwargs", [
    {"id": 0},
    {"id": 1, "n_nodes": 0},
    {"id": 1, "position": (1.0, 2.0, 3.0)},
])
def test_cell_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        CellSpec(**kwargs)


def test_graph_normalizes_edges():
    g = ContentionGraph(n_cells=3, edges=frozenset({(2, 1), (1, 2), (3, 2)}))
    assert g.edges == frozenset({(1, 2), (2, 3)})
    assert g.vertices == (1, 2, 3)
    assert g.adjacency[2] == frozenset({1, 3})


def test_graph_spans_every_cell_id():
    g = ContentionGraph(n_cells=5, edges=frozenset({(4, 2)}))
    assert [f.name for f in dataclasses.fields(g)] == ["n_cells", "edges"]
    assert g.vertices == (1, 2, 3, 4, 5)
    assert g.nbr_masks == (0, 0b01000, 0, 0b00010, 0)


def test_graph_rejects_self_loops_and_foreign_edges():
    with pytest.raises(ConfigError):
        ContentionGraph(n_cells=3, edges=frozenset({(2, 2)}))
    with pytest.raises(ConfigError):
        ContentionGraph(n_cells=3, edges=frozenset({(1, 4)}))
    with pytest.raises(ConfigError):
        ContentionGraph(n_cells=0, edges=frozenset())


def test_physical_graph_from_unit_spacing():
    cells = [CellSpec(id=i, position=(float(i - 1), 0.0)) for i in range(1, 5)]
    assert build_physical_graph(cells, 1.0).edges == PATH4_EDGES


def test_physical_graph_range_is_inclusive():
    cells = [CellSpec(id=1, position=(0.0, 0.0)),
             CellSpec(id=2, position=(2.5, 0.0))]
    assert build_physical_graph(cells, 2.5).edges == frozenset({(1, 2)})
    assert build_physical_graph(cells, 2.49).edges == frozenset()


def test_physical_graph_needs_positions_and_range():
    cells = [CellSpec(id=1, position=(0.0, 0.0)), CellSpec(id=2)]
    with pytest.raises(ConfigError, match="no position"):
        build_physical_graph(cells, 1.0)
    with pytest.raises(ConfigError):
        build_physical_graph(cells[:1], 0.0)


def test_logical_graph_drops_cross_channel_edges():
    g = path4_graph()
    assert logical_graph(g, (1, 2, 1, 2)).edges == frozenset()
    assert logical_graph(g, (1, 1, 1, 1)).edges == PATH4_EDGES
    assert logical_graph(g, (1, 1, 2, 2)).edges == frozenset({(1, 2), (3, 4)})


def test_logical_graph_accepts_assignment_objects():
    class Holder:
        channels = (1, 2, 1, 2)

    assert logical_graph(path4_graph(), Holder()).edges == frozenset()
    with pytest.raises(ConfigError):
        logical_graph(path4_graph(), (1, 2))


def test_enumerate_path4_states():
    graph = path4_graph()
    family = enumerate_state_space(graph)
    assert len(family.states) == 8
    assert family.states[0] == frozenset()
    assert graph.maximum_set_profile(full_mask(graph)) == (2, 3, (2, 1, 1, 2))
    assert [s for s in family.states if len(s) == 2] == [
        frozenset({1, 3}), frozenset({1, 4}), frozenset({2, 4})]
    state = frozenset({1})
    _, blocked, backoff = partition(family, family.states.index(state))
    assert blocked == frozenset({2})
    assert backoff == frozenset({3, 4})


def test_enumerate_hex7_center_in_no_maximum_set():
    graph = fixtures.load("hex7").graph
    alpha, eta, eta_i = graph.maximum_set_profile(full_mask(graph))
    assert alpha == 3
    assert eta == 2
    assert eta_i[0] == 0  # the centre cell


@given(graph=graphs())
def test_states_partition_and_mis_counts(graph):
    family = enumerate_state_space(graph)
    verts = set(graph.vertices)
    adj = graph.adjacency
    for index, state in enumerate(family.states):
        assert not any(u in adj[v] for v in state for u in state)
        active, blocked, backoff = partition(family, index)
        assert active == state
        assert backoff == {v for v in verts - state if not adj[v] & state}
        assert state | blocked | backoff == verts
        assert not (state & blocked or state & backoff or blocked & backoff)
    # the empty set and every singleton are always independent
    assert len(family.states) >= len(verts) + 1
    alpha, eta, eta_i = graph.maximum_set_profile(full_mask(graph))
    assert sum(eta_i) == alpha * eta


@given(data=st.data())
def test_maximum_set_profile_matches_brute_force(data):
    graph = data.draw(graphs())
    full = full_mask(graph)
    masks = enumerate_state_space(graph).masks
    for mask in (full, data.draw(st.integers(min_value=0, max_value=full))):
        inside = [m for m in masks if not m & ~mask]
        alpha = max(m.bit_count() for m in inside)
        largest = [m for m in inside if m.bit_count() == alpha]
        eta_i = tuple(sum(m >> k & 1 for m in largest)
                      for k in range(len(graph.vertices)))
        assert graph.maximum_set_profile(mask) == (alpha, len(largest), eta_i)


def king_grid(side: int) -> ContentionGraph:
    """``side`` x ``side`` cells, each contending with all eight around it."""
    at = {(r, c): r * side + c + 1 for r in range(side) for c in range(side)}
    return ContentionGraph(n_cells=side * side, edges=frozenset(
        (v, at[r + dr, c + dc]) for (r, c), v in at.items()
        for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1))
        if (r + dr, c + dc) in at))


def fresh_profile(nbr, mask: int) -> tuple[int, int]:
    """``(alpha, eta)`` of ``mask`` by `ContentionGraph.maximum_sets`'
    branching, with a memo of this query's own."""
    memo = {0: (0, 1)}

    def profile(m: int) -> tuple[int, int]:
        if m not in memo:
            low = m & -m
            rest = m ^ low
            a_out, e_out = profile(rest)
            a_in, e_in = profile(rest & ~nbr[low.bit_length() - 1])
            a_in += 1
            memo[m] = (max(a_out, a_in), (e_out if a_out >= a_in else 0)
                       + (e_in if a_in >= a_out else 0))
        return memo[m]

    return profile(mask)


def test_graph_memos_stay_bounded():
    graph = king_grid(5)
    rng = random.Random(0)
    masks = [rng.getrandbits(25) for _ in range(20_000)]
    got, sizes = [], []
    for m in masks:
        got.append(graph.maximum_sets(m))
        sizes.append(len(graph._maximum_set_memo))
    assert max(sizes) <= GRAPH_MEMO_SIZE
    # the memo filled up and was emptied at least once
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    assert got == [fresh_profile(graph.nbr_masks, m) for m in masks]


def test_enumeration_budgets():
    with pytest.raises(BudgetExceededError):
        enumerate_state_space(ContentionGraph(n_cells=26, edges=frozenset()))


def test_state_budget_fails_before_enumerating():
    # 25 isolated cells: every subset is independent, 2**25 states
    with pytest.raises(BudgetExceededError, match="33554432"):
        enumerate_state_space(ContentionGraph(n_cells=25, edges=frozenset()))


def test_parse_topology_full_schema():
    parsed = parse_topology({
        "name": "pair",
        "cells": [{"id": 2, "n_nodes": 3, "x": 1, "y": 0}, {"id": 1, "x": 0, "y": 0}],
        "edges": [[2, 1]],
        "channels": 2,
        "mac": {"payload_bits": 4000},
    })
    assert parsed.name == "pair"
    assert [c.id for c in parsed.cells] == [1, 2]  # sorted by id
    assert parsed.cells[1].n_nodes == 3
    assert parsed.graph.edges == frozenset({(1, 2)})
    assert parsed.n_channels == 2
    assert parsed.mac == {"payload_bits": 4000}


def test_parse_topology_geometry_fallback():
    raw = fixtures.fixture("path4")
    del raw["edges"]
    assert parse_topology(raw).graph.edges == PATH4_EDGES


def test_parse_topology_single_cell_needs_no_edges():
    parsed = parse_topology({"cells": [{"id": 1}]})
    assert parsed.graph.edges == frozenset()
    assert parsed.n_channels is None
    assert parsed.name == "topology"


@pytest.mark.parametrize("raw", [
    {},
    {"cells": []},
    {"cells": [{"id": 1}, {"id": 3}], "edges": []},
    {"cells": [{"id": 1, "x": 0.5}], "edges": []},
    {"cells": [{"id": 1}, {"id": 2}]},
    {"cells": [{"id": 1}], "edges": [], "channels": 0},
    {"cells": [{"id": 1}], "edges": [], "mac": [1, 2]},
    {"cells": [{"id": 1}], "edges": [], "colour": "red"},
    {"cells": [{"id": 1, "position": [0.0, 0.0]}], "edges": []},
    {"cells": [{"id": "a"}], "edges": []},
    {"cells": [{"id": 1.5}], "edges": []},
    {"cells": [{"id": 1, "n_nodes": "5"}], "edges": []},
    {"cells": [1], "edges": []},
    {"cells": [{"id": 1}, {"id": 2}], "edges": [[1]]},
    {"cells": [{"id": 1}, {"id": 2}], "edges": [[1, "b"]]},
    {"cells": [{"id": 1}, {"id": 2}], "edges": 3},
    {"cells": [{"id": 1, "x": 0.0, "y": float("nan")}], "r_cs": 1.0},
    {"cells": [{"id": 1, "x": 10**400, "y": 0.0}], "r_cs": 1.0},
    {"cells": [{"id": 1}], "edges": [], "channels": 2.5},
])
def test_parse_topology_rejects_bad_input(raw):
    with pytest.raises(ConfigError):
        parse_topology(raw)


def test_readme_topology_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Topology JSON", 1)[1]
    raw = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    parsed = parse_topology(raw)
    assert parsed.graph.edges == frozenset({(1, 2)})
    del raw["edges"]
    assert parse_topology(raw).graph.edges == frozenset({(1, 2)})
