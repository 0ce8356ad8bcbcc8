"""Cells, contention graphs, and their independent-set state spaces.

A deployment is a set of cells (access point plus stations).  Two cells
contend when they are within carrier-sense range, which defines the
*physical* contention graph; assigning channels keeps only the edges
between co-channel cells, giving a *logical* graph.  Because carrier
sensing blocks a cell whenever any neighbour transmits, the set of cells
transmitting simultaneously is always an independent set of the logical
graph, so the reachable channel states are exactly the independent sets.

This module enumerates that state space and, for each state, splits the
remaining cells into blocked ones (some neighbour is active) and cells
counting down backoff.  It also owns the sums over independent sets that
need no enumeration, all by branching on the lowest cell of a bitmask.
The weighted partition sum (`partition_sum`), from which the
product-form law and the state count follow, runs a program that a
graph compiles once (`SumProgram`, `ContentionGraph.partition_program`):
the branching unrolled into multiply-adds, bit for bit the memoised
recursion, and rerun on every new set of weights.  One recursion,
memoised in a plain dict that the graph holds, finds both the size and
the number of the maximum independent sets
(`ContentionGraph.maximum_sets`).  Those govern the heavy-load
behaviour: under ever-growing payloads the network spends all its time
in them, so a cell's long-run share is tied to how many of them it
belongs to.

Cells are identified by 1-based ids throughout, and a graph always spans
cells ``1..n_cells``.  Inside the package a set of cells is a bitmask, bit
``k`` standing for cell ``k + 1``; `ContentionGraph.nbr_masks` and `bits`
build on it.  Graphs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from math import dist, inf, isfinite
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BudgetExceededError, ConfigError, check_number

#: Most cells the solver and the enumeration accept (BudgetExceededError).
MAX_CELLS = 25

#: Most independent sets `enumerate_state_space` builds (BudgetExceededError).
MAX_STATES = 10_000_000

#: Most entries a graph's maximum-set memo (`ContentionGraph.maximum_sets`)
#: keeps; a full memo is emptied before the next entry goes in.
GRAPH_MEMO_SIZE = 1 << 17

#: Most multiply-adds one compiled `SumProgram` may hold
#: (BudgetExceededError).
MAX_PROGRAM_OPS = 4_000_000


@dataclass(frozen=True)
class CellSpec:
    """One cell: its id, station count, and optional planar position (meters)."""

    id: int
    n_nodes: int = 1
    position: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ConfigError(f"cell ids are 1-based, got {self.id}")
        if self.n_nodes < 1:
            raise ConfigError(
                f"cell {self.id} needs at least one station, got {self.n_nodes}")
        if self.position is not None:
            object.__setattr__(self, "position", tuple(float(c) for c in self.position))
            if len(self.position) != 2:
                raise ConfigError(f"cell {self.id} position must be 2-D")


@dataclass(frozen=True)
class ContentionGraph:
    """Undirected graph on the cell ids ``1..n_cells``.

    Edges are stored as sorted pairs; a self-loop or an endpoint outside
    ``1..n_cells`` raises ConfigError.
    """

    n_cells: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ConfigError(f"need at least one cell, got {self.n_cells}")
        ids = range(1, self.n_cells + 1)
        norm = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise ConfigError(f"self-loop on cell {i}")
            if i not in ids or j not in ids:
                raise ConfigError(f"edge {e} leaves the vertex set")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        """The cell ids ``1..n_cells``; bit ``k`` of a mask is ``vertices[k]``."""
        return tuple(range(1, self.n_cells + 1))

    @cached_property
    def adjacency(self) -> Mapping[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def nbr_masks(self) -> tuple[int, ...]:
        """Neighbourhood of cell ``k + 1`` as a bitmask, for each ``k``."""
        return tuple(sum(1 << (u - 1) for u in self.adjacency[v])
                     for v in self.vertices)

    @cached_property
    def backoff_masks(self) -> tuple[int, ...]:
        """Cells that are neither cell ``k + 1`` nor its neighbours, as a
        bitmask, for each ``k``: the cells active while it counts down."""
        full = (1 << self.n_cells) - 1
        return tuple(full & ~(m | 1 << k)
                     for k, m in enumerate(self.nbr_masks))

    @cached_property
    def partition_program(self) -> SumProgram:
        """`SumProgram` for the partition sum ``Z`` over all cells (root
        0) and within each of `backoff_masks` (root ``k + 1``).

        Its one leaf is the empty set, of weight 1.  Compiled once for
        the life of the graph.
        """
        full = (1 << self.n_cells) - 1
        return _compile_sums(self.nbr_masks,
                             [(0, [full, *self.backoff_masks])])

    @cached_property
    def collision_program(self) -> SumProgram:
        """`SumProgram` for ``H_k`` within ``backoff_masks[k]`` (root
        ``k``), for each ``k``.

        ``H_k`` weighs each independent set also by cell ``k + 1``'s
        collision odds there, so its branching tracks which of that cell's
        neighbours the chosen cells block.  Leaf ``(k, js)`` is a set
        after which neighbours ``js`` (ascending bit positions) are still
        in backoff.  Compiled once for the life of the graph.
        """
        nbr = self.nbr_masks
        program = _compile_sums(nbr, [(m, [others]) for m, others
                                      in zip(nbr, self.backoff_masks)])
        return program._replace(leaves=tuple(
            (k, tuple(bits(nbr[k] & ~flags))) for k, flags in program.leaves))

    @cached_property
    def _maximum_set_memo(self) -> dict[int, tuple[int, int]]:
        return {}

    def maximum_sets(self, mask: int) -> tuple[int, int]:
        """``(alpha, eta)``: the size and number of the largest independent
        sets among the cells of a bitmask.

        Memoised for the life of the graph in a dict of at most
        `GRAPH_MEMO_SIZE` (131,072) entries, emptied whenever it is full.
        """
        return _maximum_sets(mask, self.nbr_masks, self._maximum_set_memo)

    def maximum_set_profile(self, mask: int) -> tuple[int, int, tuple[int, ...]]:
        """``(alpha, eta, eta_i)``: the size and number of the largest
        independent sets within ``mask``, and how many of them contain each
        of ``vertices`` (0 for cells outside ``mask``)."""
        alpha, eta = self.maximum_sets(mask)
        eta_i = [0] * len(self.vertices)
        for k in bits(mask):
            a, e = self.maximum_sets(mask & ~(self.nbr_masks[k] | 1 << k))
            if 1 + a == alpha:
                eta_i[k] = e
        return alpha, eta, tuple(eta_i)

    def label_masks(self, assignment: Sequence[int]) -> Iterable[int]:
        """Bitmask of the cells sharing each distinct channel, in order of
        first use.  ``assignment[k]`` is the channel of cell ``k + 1``, or
        the assignment has such ``channels`` (e.g. a ChannelAssignment);
        raises ConfigError unless it names one channel per cell."""
        channels = tuple(getattr(assignment, "channels", assignment))
        if len(channels) != self.n_cells:
            raise ConfigError(f"assignment covers {len(channels)} cells, "
                              f"graph has {self.n_cells}")
        masks: dict[int, int] = {}
        for k, label in enumerate(channels):
            masks[label] = masks.get(label, 0) | 1 << k
        return masks.values()


def _maximum_sets(mask: int, nbr: Sequence[int],
                  memo: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """`ContentionGraph.maximum_sets`: branches on whether the lowest cell
    of ``mask`` stays out, or joins and drops its neighbours, computing
    first the branches that ``memo`` lacks; each level drops a cell, so
    the recursion is at most one deeper than there are cells."""
    if not mask:
        return 0, 1
    found = memo.get(mask)
    if found is None:
        low = mask & -mask
        a_out, e_out = _maximum_sets(mask ^ low, nbr, memo)
        a_in, e_in = _maximum_sets(mask & ~(low | nbr[low.bit_length() - 1]),
                                   nbr, memo)
        a_in += 1
        found = ((a_out, e_out + e_in) if a_out == a_in
                 else max((a_out, e_out), (a_in, e_in)))
        if len(memo) >= GRAPH_MEMO_SIZE:
            memo.clear()
        memo[mask] = found
    return found


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SumProgram(NamedTuple):
    """Weighted sums over the independent sets within bitmasks, unrolled
    into straight-line code.

    A sum within a mask branches on the mask's lowest cell ``j``: the sets
    without ``j``, plus ``w[j]`` times the sets with ``j``, which leave out
    its neighbours.  A program holds each distinct sub-sum that this
    branching visits from its roots once, so its size is the number of
    distinct sub-sums one evaluation visits.  Op ``i`` sets value slot
    ``i`` to ``values[a[i]] + w[j[i]] * values[b[i]]``, sub-sums first;
    the leaves (sums within the empty mask) fill the slots after the ops,
    so an operand or root below zero is a leaf, counted from the end.
    ``leaves`` says what each leaf slot stands for.
    """

    leaves: tuple
    a: list[int]
    j: list[int]
    b: list[int]
    roots: list[int]

    def run(self, leaf_values: list[float], weights: Sequence[float]
            ) -> list[float]:
        """Every slot's value, given the leaves' (aligned with ``leaves``)
        and the weights ``w``."""
        values = [0.0] * len(self.a) + leaf_values
        for i, a, j, b in zip(count(), self.a, self.j, self.b):
            values[i] = values[a] + weights[j] * values[b]
        return values


def _compile_sums(nbr: Sequence[int],
                  groups: Sequence[tuple[int, Sequence[int]]]) -> SumProgram:
    """Unroll the sums within the root masks of each ``(tracked, roots)``
    group into one `SumProgram`.

    Within a group a sub-sum is keyed ``flags << n | mask``, where
    ``flags`` are the ``tracked`` cells that the chosen cells neighbour.
    Leaf ``(g, flags)`` ends a sum of group ``g``.  Raises
    BudgetExceededError once the program would hold more than
    `MAX_PROGRAM_OPS` ops.
    """
    n = len(nbr)
    full = (1 << n) - 1
    keep = [~m for m in nbr]
    leaves, a, js, b, roots = [], [], [], [], []
    for g, (tracked, group_roots) in enumerate(groups):
        hits = [(m & tracked) << n for m in nbr]
        done = {}
        first = len(leaves)
        for mask in group_roots:
            roots.append(_unroll(mask, full, keep, hits, done, leaves,
                                 a, js, b))
        leaves[first:] = [(g, key >> n) for key in leaves[first:]]
    # the first leaf found takes the last slot
    return SumProgram(tuple(reversed(leaves)), a, js, b, roots)


def _unroll(key: int, full: int, keep: list[int], hits: list[int],
            done: dict[int, int], leaves: list, a: list[int], js: list[int],
            b: list[int]) -> int:
    """Slot of the sub-sum keyed ``key``, unrolling first those of its
    sub-sums that ``done`` lacks; each level drops a cell of the mask,
    so the recursion is at most one deeper than there are cells."""
    slot = done.get(key)
    if slot is None:
        if key & full:
            low = key & -key
            j = low.bit_length() - 1
            rest = key ^ low
            without = _unroll(rest, full, keep, hits, done, leaves, a, js, b)
            within = _unroll(rest & keep[j] | hits[j], full, keep, hits,
                             done, leaves, a, js, b)
            slot = len(a)
            if slot == MAX_PROGRAM_OPS:
                raise BudgetExceededError(
                    f"a sum program needs more than MAX_PROGRAM_OPS="
                    f"{MAX_PROGRAM_OPS} multiply-adds")
            a.append(without)
            js.append(j)
            b.append(within)
        else:
            leaves.append(key)
            slot = -len(leaves)
        done[key] = slot
    return slot


def check_weights(graph: ContentionGraph, weights: Sequence[float]) -> None:
    """Raise ConfigError unless ``weights`` (occupation ratios) align with
    ``graph.vertices`` and each is finite and non-negative; the message
    names the first offending cell."""
    if len(weights) != len(graph.vertices):
        raise ConfigError("rho must align with the graph vertices")
    for v, r in zip(graph.vertices, weights):
        if not 0.0 <= r < inf:
            raise ConfigError(f"occupation ratio of cell {v} must be finite "
                              f"and non-negative, got {r!r}")


def partition_sum(graph: ContentionGraph, weights: Sequence[float]) -> float:
    """``Z``: the weighted sum over every independent set of ``graph``.

    Each set weighs the product of its members' ``weights``, aligned with
    ``graph.vertices`` and checked by `check_weights`.  Runs the graph's
    `ContentionGraph.partition_program`; raises ConfigError when the sum
    overflows.
    """
    check_weights(graph, weights)
    return _partition_sums(graph, weights)[graph.partition_program.roots[0]]


def _partition_sums(graph: ContentionGraph, weights: Sequence[float]
                   ) -> list[float]:
    """Every value of `ContentionGraph.partition_program` at ``weights``,
    which are not checked; raises ConfigError when ``Z`` overflows."""
    program = graph.partition_program
    values = program.run([1.0], weights)
    if not isfinite(values[program.roots[0]]):
        raise ConfigError("occupation ratios overflow the partition sum")
    return values


@dataclass(frozen=True)
class IndependentSetFamily:
    """All independent sets of a graph, with per-state cell partitions.

    ``states`` lists every independent set, the empty set first, in a
    deterministic (size, then lexicographic) order.  Aligned with it,
    ``masks`` holds each state's active cells and ``free`` its cells in
    backoff (no active neighbour), both as bitmasks over
    ``graph.vertices``; the remaining cells are blocked.  The kernels of
    `wlancell.multicell` unpack these masks into boolean arrays and
    evaluate the stationary law on them.  The graph counts the maximum
    independent sets (`ContentionGraph.maximum_set_profile`).
    """

    graph: ContentionGraph
    states: tuple[frozenset[int], ...]
    masks: tuple[int, ...] = field(repr=False)
    free: tuple[int, ...] = field(repr=False)


def build_physical_graph(cells: Sequence[CellSpec], r_cs: float) -> ContentionGraph:
    """Physical contention graph: an edge wherever cells sit within ``r_cs``.

    Every cell must carry a position; raises ConfigError otherwise.
    """
    if r_cs <= 0:
        raise ConfigError(f"carrier-sense range must be positive, got {r_cs}")
    for c in cells:
        if c.position is None:
            raise ConfigError(
                f"cell {c.id} has no position; geometry unavailable")
    edges = set()
    for a_idx, a in enumerate(cells):
        for b in cells[a_idx + 1:]:
            if dist(a.position, b.position) <= r_cs:
                edges.add((min(a.id, b.id), max(a.id, b.id)))
    return ContentionGraph(n_cells=len(cells), edges=frozenset(edges))


def logical_graph(physical: ContentionGraph,
                  assignment: Sequence[int]) -> ContentionGraph:
    """Keep only edges between co-channel cells; ``assignment`` is read
    by `ContentionGraph.label_masks`."""
    nbr = physical.nbr_masks
    kept = frozenset((k + 1, j + 1)
                     for mask in physical.label_masks(assignment)
                     for k in bits(mask) for j in bits(nbr[k] & mask) if k < j)
    return ContentionGraph(n_cells=physical.n_cells, edges=kept)


def enumerate_state_space(graph: ContentionGraph) -> IndependentSetFamily:
    """Enumerate every independent set of ``graph`` and classify each state.

    Grows the sets one size at a time, extending each by the cells above
    its largest member that no member neighbours, which yields them
    already in (size, then lexicographic) order; each new frozenset is
    its parent's plus one cell.  Budgets guard against exponential
    blow-up: more than `MAX_CELLS` vertices or `MAX_STATES` independent
    sets raise BudgetExceededError.  The sets are counted
    (`partition_sum` at unit weights, exact below 2**53) before any is
    built, so an oversized graph fails fast.
    """
    verts = graph.vertices
    n = len(verts)
    if n > MAX_CELLS:
        raise BudgetExceededError(
            f"{n} cells exceeds the enumeration budget of {MAX_CELLS}")
    n_states = partition_sum(graph, [1.0] * n)
    if n_states > MAX_STATES:
        raise BudgetExceededError(
            f"{int(n_states)} independent sets exceed MAX_STATES={MAX_STATES}")
    nbr = graph.nbr_masks
    full = (1 << n) - 1
    singles = [frozenset((v,)) for v in verts]
    states: list[frozenset[int]] = []
    masks: list[int] = []
    free: list[int] = []
    # (members as a set and as a mask, members' neighbours, cells that
    # may no longer join: those neighbours and every cell up to the last
    # member)
    level = [(frozenset(), 0, 0, 0)]
    while level:
        current, level = level, []
        for state, mask, covered, closed in current:
            states.append(state)
            masks.append(mask)
            free.append(full & ~(mask | covered))
            avail = full & ~closed
            while avail:
                low = avail & -avail
                avail ^= low
                k = low.bit_length() - 1
                grown = covered | nbr[k]
                level.append((state | singles[k], mask | low, grown,
                              grown | (low << 1) - 1))
    return IndependentSetFamily(graph=graph, states=tuple(states),
                                masks=tuple(masks), free=tuple(free))


@dataclass(frozen=True)
class ParsedTopology:
    """A topology file, decoded: cells, physical graph, and extras."""

    cells: tuple[CellSpec, ...]
    graph: ContentionGraph
    n_channels: int | None
    mac: Mapping | None
    name: str


_TOPOLOGY_KEYS = frozenset(
    {"name", "comment", "cells", "edges", "r_cs", "channels", "mac"})
_CELL_KEYS = frozenset({"id", "n_nodes", "x", "y"})


def _reject_unknown_keys(raw: Mapping, allowed: frozenset[str],
                         where: str) -> None:
    unknown = sorted(str(k) for k in raw if k not in allowed)
    if unknown:
        raise ConfigError(
            f"unknown {where} key(s) {unknown}; allowed: {sorted(allowed)}")


def parse_topology(raw: Mapping) -> ParsedTopology:
    """Decode the JSON topology schema into typed objects.

    Schema: ``{"name"?, "comment"?, "cells": [{"id", "n_nodes"?, "x"?,
    "y"?}, ...], "edges"?: [[i, j], ...], "r_cs"?, "channels"?,
    "mac"?: {...}}``.  Explicit edges win over geometry; with no edge
    list, positions plus ``r_cs`` are required (except for a single-cell
    topology).  Unknown keys and values of the wrong type raise
    ConfigError.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError("topology must be a JSON object")
    _reject_unknown_keys(raw, _TOPOLOGY_KEYS, "topology")
    raw_cells = raw.get("cells")
    if not raw_cells:
        raise ConfigError("topology has no cells")
    if not isinstance(raw_cells, (list, tuple)) or not all(
            isinstance(rc, Mapping) for rc in raw_cells):
        raise ConfigError(f"cells must be a list of objects, got {raw_cells!r}")
    cells = []
    for rc in raw_cells:
        _reject_unknown_keys(rc, _CELL_KEYS, "cell")
        cid = check_number(rc.get("id"), "cell id", integer=True)
        pos = None
        if "x" in rc or "y" in rc:
            if "x" not in rc or "y" not in rc:
                raise ConfigError(f"cell {cid} has a partial position")
            pos = (check_number(rc["x"], f"cell {cid} x"),
                   check_number(rc["y"], f"cell {cid} y"))
        n_nodes = check_number(rc.get("n_nodes", 1), f"cell {cid} n_nodes",
                               integer=True)
        cells.append(CellSpec(id=cid, n_nodes=n_nodes, position=pos))
    cells.sort(key=lambda c: c.id)
    ids = [c.id for c in cells]
    if ids != list(range(1, len(cells) + 1)):
        raise ConfigError(f"cell ids must be contiguous from 1, got {ids}")

    if "edges" in raw:
        edges = raw["edges"]
        if not isinstance(edges, (list, tuple)) or not all(
                isinstance(e, (list, tuple)) and len(e) == 2 for e in edges):
            raise ConfigError(f"edges must be [i, j] pairs, got {edges!r}")
        graph = ContentionGraph(n_cells=len(cells), edges=frozenset(
            tuple(check_number(v, "edge endpoint", integer=True) for v in e)
            for e in edges))
    elif "r_cs" in raw:
        graph = build_physical_graph(cells,
                                     check_number(raw["r_cs"], "r_cs"))
    elif len(cells) == 1:
        graph = ContentionGraph(n_cells=1, edges=frozenset())
    else:
        raise ConfigError(
            "topology needs either an explicit edge list or r_cs geometry")

    n_channels = (check_number(raw["channels"], "channels", integer=True)
                  if "channels" in raw else None)
    if n_channels is not None and n_channels < 1:
        raise ConfigError(f"channels must be positive, got {n_channels}")
    mac = raw.get("mac")
    if mac is not None and not isinstance(mac, Mapping):
        raise ConfigError("mac section must be an object")
    return ParsedTopology(cells=tuple(cells), graph=graph,
                          n_channels=n_channels, mac=mac,
                          name=str(raw.get("name", "topology")))
