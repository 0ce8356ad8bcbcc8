"""Coupled multi-cell fixed point and the product-form stationary law."""

import gc
import math
import random
import warnings
import weakref
from functools import cache
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wlancell import assign, dcf, fixtures, multicell, topology
from wlancell.errors import BudgetExceededError, ConfigError, ConvergenceError
from wlancell.multicell import MultiCellProblem
from wlancell.topology import (CellSpec, ContentionGraph, bits,
                               enumerate_state_space, partition_sum)

from conftest import closed_form_x, solve_fixture, stationary_law

MAC = dcf.MacParams()

# Frozen operating point of the path4 fixture (4 cells in a row, 5
# stations each, default MAC).  The solution is symmetric under the
# 1<->4, 2<->3 reflection.
PATH4_BETA = (0.04313993751929157, 0.03548020581242396)
PATH4_GAMMA = (0.23980021597501647, 0.3145378684071154)
PATH4_X = (0.6962357123890862, 0.3336696812361859)
PATH4_THETA_NODE = (97.20920320824573, 46.58733137433847)
PATH4_THETA_BAR = 2.0598107872505445
PATH4_PI_EMPTY = 0.0022787202110012227


@st.composite
def graphs_with_rho(draw, max_cells: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_cells))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    rho = draw(st.lists(
        st.floats(min_value=1e-2, max_value=1e3), min_size=n, max_size=n))
    return ContentionGraph(n_cells=n, edges=frozenset(edges)), tuple(rho)


def lattice_graph(side: int) -> ContentionGraph:
    """Four-neighbour ``side`` x ``side`` lattice, ids in row-major order."""
    edges = frozenset(
        {(v, v + 1) for v in range(1, side * side + 1) if v % side}
        | {(v, v + side) for v in range(1, side * (side - 1) + 1)})
    return ContentionGraph(n_cells=side * side, edges=edges)


def path_cells(n: int, n_nodes: int = 5) -> tuple[CellSpec, ...]:
    return tuple(CellSpec(id=i, n_nodes=n_nodes) for i in range(1, n + 1))


def test_problem_validation():
    graph = ContentionGraph(n_cells=2, edges=frozenset({(1, 2)}))
    with pytest.raises(ConfigError):
        MultiCellProblem(graph=graph, cells=(CellSpec(id=2),))
    with pytest.raises(ConfigError):
        MultiCellProblem(graph=graph, cells=path_cells(3))
    with pytest.raises(ConfigError):
        MultiCellProblem(graph=graph, cells=path_cells(2),
                         traffic_mode="bursty")


def test_effective_configuration():
    graph = ContentionGraph(n_cells=2, edges=frozenset({(1, 2)}))
    sat = MultiCellProblem(graph=graph, cells=path_cells(2))
    assert multicell.effective_configuration(sat) == (sat.cells, sat.mac)
    tcp = MultiCellProblem(graph=graph, cells=path_cells(2),
                           traffic_mode="tcp_download")
    cells, mac = multicell.effective_configuration(tcp)
    assert all(c.n_nodes == 2 for c in cells)
    assert [c.id for c in cells] == [1, 2]
    assert mac.payload_bits == 4320


def test_activation_rate():
    assert multicell.activation_rate(0.05, 5, 20e-6) == pytest.approx(
        11310.953125, rel=1e-12)
    assert multicell.activation_rate(0.0, 5, 20e-6) == 0.0
    with pytest.raises(ConfigError):
        multicell.activation_rate(0.05, 0, 20e-6)


def test_mean_active_duration_conventions():
    t_s, t_c = dcf.frame_durations(MAC)
    # no attempts: occupations are vanishingly rare but always successful
    assert multicell.mean_active_duration(0.0, 5, t_s, t_c) == t_s
    # every station attempts: lone station succeeds, two stations collide
    assert multicell.mean_active_duration(1.0, 1, t_s, t_c) == t_s
    assert multicell.mean_active_duration(1.0, 2, t_s, t_c) == t_c
    with pytest.raises(ConfigError):
        multicell.mean_active_duration(0.5, 0, t_s, t_c)


def test_stationary_distribution_uniform_rho():
    family = enumerate_state_space(
        ContentionGraph(n_cells=4, edges=frozenset({(1, 2), (2, 3), (3, 4)})))
    pi = multicell.stationary_distribution(family, (1.0,) * 4)
    assert len(pi) == 8
    for p in pi.values():
        assert p == pytest.approx(1 / 8, rel=1e-14)


def test_stationary_distribution_validation():
    family = enumerate_state_space(
        ContentionGraph(n_cells=2, edges=frozenset({(1, 2)})))
    with pytest.raises(ConfigError):
        multicell.stationary_distribution(family, (1.0,))
    with pytest.raises(ConfigError):
        multicell.stationary_distribution(family, (1.0, -0.5))


@given(case=graphs_with_rho())
def test_detailed_balance(case):
    graph, rho = case
    family = enumerate_state_space(graph)
    pi = multicell.stationary_distribution(family, rho)
    rho_by_id = dict(zip(graph.vertices, rho))
    for state, free in zip(family.states, family.free):
        for v in (graph.vertices[k] for k in bits(free)):
            up = pi[frozenset(state | {v})]
            assert math.isclose(pi[state] * rho_by_id[v], up, rel_tol=1e-12)


def reference_collision_probabilities(family, pi, beta, cells):
    """Frozenset formulation of `multicell.collision_probabilities`.

    Recomputes each state's backoff set from the adjacency and walks the
    states once per cell.
    """
    verts = family.graph.vertices
    adj = family.graph.adjacency
    n_by_id = {c.id: c.n_nodes for c in cells}
    beta_by_id = dict(zip(verts, beta))
    gammas = []
    starved = []
    for v in verts:
        num_terms = []
        den_terms = []
        silent_own = (1.0 - beta_by_id[v]) ** (n_by_id[v] - 1)
        for state in family.states:
            free = frozenset(u for u in verts
                             if u not in state and not adj[u] & state)
            if v not in free:
                continue
            p = pi[state]
            silent_nbrs = math.prod(
                (1.0 - beta_by_id[j]) ** n_by_id[j] for j in adj[v] & free)
            num_terms.append(p * (1.0 - silent_own * silent_nbrs))
            den_terms.append(p)
        den = math.fsum(den_terms)
        starved.append(den < multicell.STARVATION_FLOOR)
        gammas.append(1.0 if starved[-1] else math.fsum(num_terms) / den)
    return tuple(gammas), tuple(starved)


def loop_state_space(graph):
    """`enumerate_state_space` as a per-state loop: ``(states, masks,
    free)`` by a level-by-level search over Python ints."""
    verts, nbr = graph.vertices, graph.nbr_masks
    full = (1 << len(verts)) - 1
    masks, free = [], []
    # (members, members' neighbours, lowest vertex that may still join)
    level = [(0, 0, 0)]
    while level:
        current, level = level, []
        for mask, covered, start in current:
            masks.append(mask)
            free.append(full & ~(mask | covered))
            for k in bits(full & ~covered & -(1 << start)):
                level.append((mask | 1 << k, covered | nbr[k], k + 1))
    states = tuple(frozenset(verts[k] for k in bits(m)) for m in masks)
    return states, tuple(masks), tuple(free)


def loop_stationary_distribution(family, rho):
    """`multicell.stationary_distribution` as a per-state loop: one
    `math.prod` per state, ascending cells; ConfigError where the
    weights are not finite."""
    weights = [math.prod(rho[k] for k in bits(mask)) for mask in family.masks]
    try:
        z = math.fsum(weights)
    except OverflowError:
        z = math.inf
    if not math.isfinite(z):
        raise ConfigError("occupation ratios overflow the state weights")
    return {state: w / z for state, w in zip(family.states, weights)}


def loop_collision_probabilities(family, pi, beta, cells):
    """`multicell.collision_probabilities` as a per-state loop over the
    cells in backoff, neighbour silences multiplied in ascending order."""
    verts = family.graph.vertices
    nbr = family.graph.nbr_masks
    n_by_id = {c.id: c.n_nodes for c in cells}
    n_nodes = [n_by_id[v] for v in verts]
    silent_own = [(1.0 - b) ** (n - 1) for b, n in zip(beta, n_nodes)]
    silent_cell = [(1.0 - b) ** n for b, n in zip(beta, n_nodes)]
    num_terms = [[] for _ in verts]
    den_terms = [[] for _ in verts]
    for state, free in zip(family.states, family.free):
        p = pi[state]
        for k in bits(free):
            silent_nbrs = math.prod(silent_cell[j] for j in bits(nbr[k] & free))
            num_terms[k].append(p * (1.0 - silent_own[k] * silent_nbrs))
            den_terms[k].append(p)
    dens = [math.fsum(terms) for terms in den_terms]
    starved = tuple(den < multicell.STARVATION_FLOOR for den in dens)
    gammas = tuple(1.0 if s else math.fsum(num) / den
                   for num, den, s in zip(num_terms, dens, starved))
    return gammas, starved


def loop_unblocked_fractions(family, pi):
    """`multicell.unblocked_fractions_direct` as a per-state loop."""
    terms = [[] for _ in family.graph.vertices]
    for state, mask, free in zip(family.states, family.masks, family.free):
        for k in bits(mask | free):
            terms[k].append(pi[state])
    return tuple(math.fsum(t) for t in terms)


def memo_law(graph, beta, rho, cells):
    """`multicell.evaluate_law` as the memoised recursion its programs
    unroll: ``Z`` and each ``H_k`` branch on the lowest cell of a mask,
    in `functools.cache` memos emptied on return; ConfigError where
    ``Z`` overflows."""
    nbr = graph.nbr_masks

    @cache
    def z(mask):
        if not mask:
            return 1.0
        low = mask & -mask
        k = low.bit_length() - 1
        rest = mask ^ low
        return z(rest) + rho[k] * z(rest & ~nbr[k])

    full = (1 << len(graph.vertices)) - 1
    z_full = z(full)
    if not math.isfinite(z_full):
        raise ConfigError("occupation ratios overflow the partition sum")
    n_by_id = {c.id: c.n_nodes for c in cells}
    n_nodes = [n_by_id[v] for v in graph.vertices]
    silent_own = [(1.0 - b) ** (n - 1) for b, n in zip(beta, n_nodes)]
    silent_cell = [(1.0 - b) ** n for b, n in zip(beta, n_nodes)]
    # (bit, silence) of each neighbour, in the kernel's ascending order
    nbr_silence = [[(1 << j, silent_cell[j]) for j in bits(m)] for m in nbr]

    @cache
    def h(k, mask, flags):
        # flags are the neighbours of k that the chosen cells block
        if not mask:
            silent_nbrs = math.prod(s for b, s in nbr_silence[k]
                                    if not flags & b)
            return 1.0 - silent_own[k] * silent_nbrs
        low = mask & -mask
        j = low.bit_length() - 1
        rest = mask ^ low
        return (h(k, rest, flags)
                + rho[j] * h(k, rest & ~nbr[j], flags | (nbr[j] & nbr[k])))

    gamma, starved, x = [], [], []
    for k in range(len(graph.vertices)):
        others = full & ~(nbr[k] | 1 << k)
        z_k = z(others)
        x.append(min(1.0, (1.0 + rho[k]) * z_k / z_full))
        starved.append(z_k / z_full < multicell.STARVATION_FLOOR)
        gamma.append(1.0 if starved[-1] else h(k, others, 0) / z_k)
    z.cache_clear()
    h.cache_clear()
    return tuple(gamma), tuple(starved), tuple(x)


#: Occupation ratios at the edges of the kernels' arithmetic: products
#: that vanish, go subnormal, stay exact, or overflow from three factors.
EDGE_RHO = (0.0, math.ulp(0.0), 1.0, 1e150)


def shuffled_lattice_case(side: int, seed: int):
    """A ``side`` x ``side`` four-neighbour lattice with shuffled ids, as a
    `kernel_cases` case: one cell gets the overflowing edge ratio, the
    others cycle through the other three and two ratios between."""
    ids = list(range(1, side * side + 1))
    random.Random(seed).shuffle(ids)
    at = {(r, c): ids[r * side + c] for r in range(side) for c in range(side)}
    edges = frozenset((min(v, at[r + dr, c + dc]), max(v, at[r + dr, c + dc]))
                      for (r, c), v in at.items()
                      for dr, dc in ((0, 1), (1, 0))
                      if (r + dr, c + dc) in at)
    graph = ContentionGraph(n_cells=side * side, edges=edges)
    rho = tuple(EDGE_RHO[3] if k == 0 else (*EDGE_RHO[:3], 0.3, 2.7)[k % 5]
                for k in range(side * side))
    beta = tuple(0.01 + 0.9 * k / (side * side) for k in range(side * side))
    cells = tuple(CellSpec(id=v, n_nodes=1 + v % 20) for v in graph.vertices)
    return graph, rho, beta, cells


@st.composite
def kernel_cases(draw, max_cells: int = 12):
    """A random graph with ratios from `EDGE_RHO` or of any size between,
    ``beta`` in [0, 1) and 1 to 20 stations per cell.  Only the ratios
    between make the order of a product show in its rounding."""
    graph, _ = draw(graphs_with_rho(max_cells=max_cells))
    n = len(graph.vertices)
    rho = tuple(draw(st.lists(
        st.sampled_from(EDGE_RHO) | st.floats(min_value=1e-3, max_value=1e3),
        min_size=n, max_size=n)))
    beta = tuple(draw(st.lists(st.floats(min_value=0.0, max_value=1.0,
                                         exclude_max=True),
                               min_size=n, max_size=n)))
    cells = tuple(CellSpec(id=v, n_nodes=draw(st.integers(1, 20)))
                  for v in graph.vertices)
    return graph, rho, beta, cells


@settings(deadline=None)
@given(case=kernel_cases())
@example(case=shuffled_lattice_case(5, seed=0))
# a star whose centre hears three leaves in backoff at once: the order of
# their silences shows in the centre's collision probability
@example(case=(ContentionGraph(n_cells=4, edges=frozenset({(1, 2), (1, 3),
                                                           (1, 4)})),
               (1.0,) * 4, (0.05, 0.1, 0.15, 0.2), path_cells(4, n_nodes=3)))
def test_array_kernels_equal_the_per_state_loops(case):
    graph, rho, beta, cells = case
    family = enumerate_state_space(graph)
    assert (family.states, family.masks, family.free) == loop_state_space(graph)
    try:
        ref_pi = loop_stationary_distribution(family, rho)
    except ConfigError:
        with pytest.raises(ConfigError, match="overflow"):
            multicell.stationary_distribution(family, rho)
        return
    pi = multicell.stationary_distribution(family, rho)
    assert list(pi.items()) == list(ref_pi.items())
    assert (multicell.collision_probabilities(family, pi, beta, cells)
            == loop_collision_probabilities(family, pi, beta, cells))
    assert (multicell.unblocked_fractions_direct(family, pi)
            == loop_unblocked_fractions(family, pi))


@given(case=graphs_with_rho(), data=st.data())
def test_collision_kernel_matches_frozenset_reference(case, data):
    graph, rho = case
    n = len(graph.vertices)
    beta = data.draw(st.lists(st.floats(min_value=0.0, max_value=0.5),
                              min_size=n, max_size=n))
    n_nodes = data.draw(st.lists(st.integers(min_value=1, max_value=10),
                                 min_size=n, max_size=n))
    cells = tuple(CellSpec(id=v, n_nodes=k)
                  for v, k in zip(graph.vertices, n_nodes))
    family = enumerate_state_space(graph)
    pi = multicell.stationary_distribution(family, rho)
    gamma, starved = multicell.collision_probabilities(family, pi, beta, cells)
    ref_gamma, ref_starved = reference_collision_probabilities(
        family, pi, beta, cells)
    assert starved == ref_starved
    for got, want in zip(gamma, ref_gamma):
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("rho", [0.1, 1.0, 13.7])
def test_two_cell_closed_form(rho):
    graph = ContentionGraph(n_cells=2, edges=frozenset({(1, 2)}))
    family = enumerate_state_space(graph)
    pi = multicell.stationary_distribution(family, (rho, rho))
    x = multicell.unblocked_fractions_direct(family, pi)
    expected = (1 + rho) / (1 + 2 * rho)
    assert x[0] == pytest.approx(expected, rel=1e-12)
    assert x[1] == pytest.approx(expected, rel=1e-12)


@settings(deadline=None)
@given(case=graphs_with_rho())
def test_unblocked_fraction_routes_agree(case):
    graph, rho = case
    family = enumerate_state_space(graph)
    pi = multicell.stationary_distribution(family, rho)
    direct = multicell.unblocked_fractions_direct(family, pi)
    closed = closed_form_x(graph, rho)
    assert max(abs(a - b) for a, b in zip(direct, closed)) < 1e-10


def test_heavy_load_routes_answer_beyond_the_enumeration_budget():
    # 6x6 four-neighbour lattice: alpha = 18, and the two checkerboards
    # are the only maximum sets, so every cell's heavy-load share is 1/2
    side = 6
    graph = lattice_graph(side)
    with pytest.raises(BudgetExceededError):
        enumerate_state_space(graph)
    alpha = graph.maximum_sets((1 << side * side) - 1)[0]
    assert alpha == 18
    profile = assign.infinite_load_profile(graph, (1,) * side * side)
    assert profile == (0.5,) * side * side
    assert math.fsum(profile) == alpha
    x = closed_form_x(graph, (1e9,) * side * side)
    assert all(0.0 <= v <= 1.0 for v in x)
    assert math.fsum(x) == pytest.approx(alpha, rel=1e-6)


def test_unblocked_routes_agree_on_solved_fixtures(all_sat):
    for solved in all_sat.values():
        family, pi = stationary_law(solved)
        direct = multicell.unblocked_fractions_direct(family, pi)
        closed = solved.solution.x
        assert max(abs(a - b) for a, b in zip(direct, closed)) < 1e-12


@st.composite
def law_cases(draw, max_cells: int = 12):
    """A random graph on shuffled ids with heterogeneous cells and loads.

    Edges are drawn between positions, then the positions get shuffled
    ids ``1..n``, so bit order differs from the drawn structure.  Occupation ratios are ``r_i * 10**e`` with
    ``r_i`` in [0.1, 10] and ``e`` from -3 up to 150, capped so that the
    heaviest state weight stays below 1e280 and no stationary
    probability of the kernels goes subnormal.
    """
    n = draw(st.integers(min_value=1, max_value=max_cells))
    ids = draw(st.permutations(range(1, n + 1)))
    links = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = frozenset((ids[i], ids[j])
                      for (i, j), linked in zip(pairs, links) if linked)
    graph = ContentionGraph(n_cells=n, edges=edges)
    beta, rho = draw(law_loads(graph))
    n_nodes = draw(st.lists(st.integers(min_value=1, max_value=10),
                            min_size=n, max_size=n))
    cells = tuple(CellSpec(id=v, n_nodes=k)
                  for v, k in zip(graph.vertices, n_nodes))
    return graph, beta, rho, cells


@st.composite
def law_loads(draw, graph):
    """``(beta, rho)`` on ``graph``, drawn as `law_cases` draws them."""
    n = len(graph.vertices)
    alpha = graph.maximum_sets((1 << n) - 1)[0]
    exponent = draw(st.floats(min_value=-3.0,
                              max_value=min(150.0, 280.0 / alpha - 1.0)))
    rho = tuple(r * 10.0 ** exponent for r in draw(st.lists(
        st.floats(min_value=0.1, max_value=10.0), min_size=n, max_size=n)))
    beta = tuple(draw(st.lists(st.floats(min_value=0.0, max_value=0.5),
                               min_size=n, max_size=n)))
    return beta, rho


@st.composite
def law_sequences(draw):
    """A `law_cases` graph and cells, with three loads to evaluate in
    turn on that one graph object."""
    graph, beta, rho, cells = draw(law_cases())
    loads = [(beta, rho), draw(law_loads(graph)), draw(law_loads(graph))]
    return graph, cells, loads


def lattice_sequence(side: int, seed: int):
    """`shuffled_lattice_case` as a `law_sequences` case: its loads, then
    the ratios rotated by one cell and the attempt rates reversed."""
    graph, rho, beta, cells = shuffled_lattice_case(side, seed)
    return graph, cells, [(beta, rho), (beta[::-1], rho[1:] + rho[:1])]


@settings(deadline=None)
@given(case=law_sequences())
@example(case=lattice_sequence(5, seed=0))
# a star whose centre hears three leaves in backoff at once: at the first
# load the order of their silences shows in the centre's collision
# probability
@example(case=(ContentionGraph(n_cells=4, edges=frozenset({(1, 2), (1, 3),
                                                           (1, 4)})),
               path_cells(4, n_nodes=3),
               [((0.05, 0.15, 0.2, 0.3), (1.0,) * 4),
                ((0.2, 0.15, 0.1, 0.05), (0.5, 2.0, 3.0, 0.25))]))
def test_law_programs_equal_the_memoised_recursion(case):
    # every load after the first reruns the programs compiled on the first
    graph, cells, loads = case
    for beta, rho in loads:
        assert (multicell.evaluate_law(graph, beta, rho, cells)
                == memo_law(graph, beta, rho, cells))


@settings(deadline=None)
@given(case=law_cases())
def test_partition_sum_law_matches_enumeration_kernels(case):
    graph, beta, rho, cells = case
    gamma, starved, x = multicell.evaluate_law(graph, beta, rho, cells)
    family = enumerate_state_space(graph)
    pi = multicell.stationary_distribution(family, rho)
    ref_gamma, ref_starved = multicell.collision_probabilities(
        family, pi, beta, cells)
    ref_x = multicell.unblocked_fractions_direct(family, pi)
    assert starved == ref_starved
    for got, want in zip(gamma + x, ref_gamma + ref_x):
        assert math.isclose(got, want, rel_tol=1e-12)


@settings(deadline=None)
@given(case=law_cases())
# two isolated cells, whose unblocked fraction of 1 computes as
# 1 + 2**-52 before clamping
@example(case=(ContentionGraph(n_cells=2, edges=frozenset()), (0.0, 0.0),
               (2.408, 2.386), (CellSpec(id=1), CellSpec(id=2))))
def test_law_probabilities_stay_in_the_unit_interval(case):
    graph, beta, rho, cells = case
    gamma, _, x = multicell.evaluate_law(graph, beta, rho, cells)
    assert all(0.0 <= v <= 1.0 for v in gamma + x)


@st.composite
def extreme_macs(draw) -> dcf.MacParams:
    """MAC parameters at the edges `MacParams` accepts: retry limits up to
    `MAX_RETRY_LIMIT`, doubling caps from 0 to far past the retry limit,
    and ``cw_min`` at 2 or within 1024 of the largest window allowed."""
    retry = draw(st.sampled_from([0, 1, dcf.MAX_RETRY_LIMIT])
                 | st.integers(0, dcf.MAX_RETRY_LIMIT))
    cap = draw(st.sampled_from([0, 1, 51, 2**31]) | st.integers(0, 51))
    doublings = min(retry, cap)
    assume(doublings <= 51)  # beyond that not even cw_min = 2 is accepted
    top = (2**53 - 1) >> doublings  # largest cw_min with 2**d * cw_min < 2**53
    cw_min = draw(st.just(2) | st.integers(max(2, top - 1024), top))
    return dcf.MacParams(cw_min=cw_min, retry_limit=retry,
                         backoff_doubling_cap=cap,
                         access_mode=draw(st.sampled_from(["basic", "rtscts"])))


@settings(deadline=None, max_examples=25)
@given(mac=extreme_macs(), name=st.sampled_from(["path4", "hex7"]),
       traffic_mode=st.sampled_from(["saturated", "tcp_download"]))
def test_solver_stays_in_the_unit_interval_at_extreme_mac(mac, name,
                                                          traffic_mode):
    parsed = fixtures.load(name)
    problem = MultiCellProblem(graph=parsed.graph, cells=parsed.cells,
                               mac=mac, traffic_mode=traffic_mode)
    try:
        # 600 drawn cases converged within 196 iterations or not within
        # 10,000 (cw_min 2 or 3 with many retries); the cap only shortens
        # the second kind
        with mock.patch.object(dcf, "MAX_ITER", 1_000):
            solution = multicell.solve_fixed_point(problem)
    except ConvergenceError:
        return
    assert all(math.isfinite(g) and 0.0 <= g <= 1.0 for g in solution.gamma)
    assert all(0.0 <= v <= 1.0 for v in solution.x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_non_finite_ratios_raise_naming_the_cell(bad):
    graph = ContentionGraph(n_cells=4, edges=frozenset({(1, 2), (2, 3),
                                                        (3, 4)}))
    family = enumerate_state_space(graph)
    rho = (0.5, 1.0, bad, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (
                lambda: multicell.stationary_distribution(family, rho),
                lambda: partition_sum(graph, rho),
                lambda: multicell.evaluate_law(graph, (0.1,) * 4, rho,
                                               path_cells(4))):
            with pytest.raises(ConfigError, match="cell 3 .* finite and "
                                                  "non-negative"):
                route()


@pytest.mark.parametrize("rho", [
    (1e200, 1.0, 1e200, 1.0),  # the state {1, 3} weighs 1e400
    (1e200, 1e200, 0.0, 1.0),  # 1e400 times 0 is nan in state {1, 2, 3}
])
def test_overflowing_state_weights_raise_without_warnings(rho):
    # cells 1-3 independent; cell 4 neighbours all of them
    graph = ContentionGraph(n_cells=4, edges=frozenset({(1, 4), (2, 4),
                                                        (3, 4)}))
    family = enumerate_state_space(graph)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="overflow"):
            multicell.stationary_distribution(family, rho)
        with pytest.raises(ConfigError, match="overflow"):
            partition_sum(graph, rho)


@pytest.mark.parametrize("factor", [1e153, 1e300])
def test_partition_sums_raise_on_overflow(path4_sat, factor):
    s = path4_sat.solution
    graph = path4_sat.parsed.graph
    rho = tuple(r * factor for r in s.rho)
    with pytest.raises(ConfigError, match="overflow"):
        multicell.evaluate_law(graph, s.beta, rho, path4_sat.parsed.cells)


def test_solver_matches_kernels_on_the_5x5_lattice():
    # 55,447 independent sets: the solver iterates on partition sums,
    # the kernels walk every state once at the solved operating point
    graph = lattice_graph(5)
    cells = tuple(CellSpec(id=v, n_nodes=1 + v % 7)
                  for v in graph.vertices)
    s = multicell.solve_fixed_point(MultiCellProblem(graph=graph, cells=cells))
    family = enumerate_state_space(graph)
    pi = multicell.stationary_distribution(family, s.rho)
    assert len(family.states) == 55_447
    gamma, starved = multicell.collision_probabilities(
        family, pi, s.beta, cells)
    x = multicell.unblocked_fractions_direct(family, pi)
    assert s.starved == starved
    for got, want in zip(s.gamma + s.x, gamma + x):
        assert math.isclose(got, want, rel_tol=1e-12)


def test_law_memos_are_freed_on_return():
    # a memo left filled is reference-cycle garbage: its closure refers
    # to itself, so only the cyclic collector would reclaim it
    graph = lattice_graph(5)
    cells = tuple(CellSpec(id=v, n_nodes=1 + v % 7) for v in graph.vertices)
    gc.collect()
    gc.disable()
    try:
        multicell.evaluate_law(graph, (0.05,) * 25, (1.0,) * 25, cells)
        assert gc.collect() < 1000
    finally:
        gc.enable()


def test_law_programs_are_compiled_once_per_graph():
    graph = lattice_graph(4)
    cells = tuple(CellSpec(id=v, n_nodes=3) for v in graph.vertices)
    multicell.evaluate_law(graph, (0.05,) * 16, (1.0,) * 16, cells)
    programs = graph.partition_program, graph.collision_program
    multicell.evaluate_law(graph, (0.1,) * 16, (2.0,) * 16, cells)
    assert graph.partition_program is programs[0]
    assert graph.collision_program is programs[1]


def test_law_programs_die_with_their_graph():
    # the programs hold no reference to the graph nor to themselves, so
    # dropping the graph frees it at once, without the cyclic collector
    graph = lattice_graph(5)
    cells = tuple(CellSpec(id=v, n_nodes=3) for v in graph.vertices)
    gc.collect()
    gc.disable()
    try:
        multicell.evaluate_law(graph, (0.05,) * 25, (1.0,) * 25, cells)
        enumerate_state_space(graph)
        dead = weakref.ref(graph)
        del graph
        assert dead() is None
    finally:
        gc.enable()


def test_heavy_load_memos_die_with_their_graph():
    # the maximum-set memo is a plain dict of numbers, so dropping the
    # graph frees it at once and leaves nothing to the cyclic collector
    graph = shuffled_lattice_case(5, seed=0)[0]
    gc.collect()
    gc.disable()
    try:
        graph.maximum_set_profile((1 << 25) - 1)
        assign.utility_theta_bar(graph, [1 + k % 3 for k in range(25)])
        dead = weakref.ref(graph)
        del graph
        assert dead() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_programs_past_the_op_budget_are_refused(monkeypatch):
    ops = len(lattice_graph(3).partition_program.a)
    monkeypatch.setattr(topology, "MAX_PROGRAM_OPS", ops)
    assert len(lattice_graph(3).partition_program.a) == ops
    monkeypatch.setattr(topology, "MAX_PROGRAM_OPS", ops - 1)
    graph = lattice_graph(3)
    with pytest.raises(BudgetExceededError, match="MAX_PROGRAM_OPS"):
        graph.partition_program
    with pytest.raises(BudgetExceededError, match="MAX_PROGRAM_OPS"):
        multicell.evaluate_law(graph, (0.05,) * 9, (1.0,) * 9,
                               path_cells(9))


def test_collision_probability_of_isolated_cell_is_local():
    family = enumerate_state_space(ContentionGraph(n_cells=1, edges=frozenset()))
    pi = multicell.stationary_distribution(family, (3.0,))
    gammas, starved = multicell.collision_probabilities(
        family, pi, (0.05,), (CellSpec(id=1, n_nodes=5),))
    assert gammas[0] == pytest.approx(1 - 0.95 ** 4, rel=1e-12)
    assert starved == (False,)


def test_starved_cell_is_flagged_and_pinned():
    # a middle cell squeezed by two always-on neighbours: its backoff
    # states carry essentially no stationary mass
    graph = ContentionGraph(n_cells=3, edges=frozenset({(1, 2), (2, 3)}))
    family = enumerate_state_space(graph)
    pi = multicell.stationary_distribution(family, (1e154,) * 3)
    gammas, starved = multicell.collision_probabilities(
        family, pi, (0.05,) * 3, path_cells(3))
    assert starved == (False, True, False)
    assert gammas[1] == 1.0
    assert gammas[0] == pytest.approx(1 - 0.95 ** 4, rel=1e-9)
    law_gammas, law_starved, _ = multicell.evaluate_law(
        graph, (0.05,) * 3, (1e154,) * 3, path_cells(3))
    assert law_starved == starved
    assert law_gammas[1] == 1.0
    assert law_gammas[0] == pytest.approx(gammas[0], rel=1e-12)


def test_solved_path4_frozen(path4_sat):
    s = path4_sat.solution
    # reflection symmetry holds exactly: the iteration is symmetric
    assert s.beta[0] == s.beta[3] and s.beta[1] == s.beta[2]
    assert s.gamma[0] == s.gamma[3] and s.gamma[1] == s.gamma[2]
    assert s.beta[:2] == pytest.approx(PATH4_BETA, rel=1e-9)
    assert s.gamma[:2] == pytest.approx(PATH4_GAMMA, rel=1e-9)
    assert s.x[:2] == pytest.approx(PATH4_X, rel=1e-9)
    assert s.theta_node[:2] == pytest.approx(PATH4_THETA_NODE, rel=1e-9)
    assert s.theta_bar == pytest.approx(PATH4_THETA_BAR, rel=1e-9)
    _, pi = stationary_law(path4_sat)
    assert pi[frozenset()] == pytest.approx(PATH4_PI_EMPTY, rel=1e-9)
    assert s.iterations == 17
    assert s.residual < 1e-10
    assert not any(s.starved)


def test_network_collisions_never_below_isolated(path4_sat, hex7_sat, arb7_sat):
    for solved in (path4_sat, hex7_sat, arb7_sat):
        for cell, gamma in zip(solved.parsed.cells, solved.solution.gamma):
            alone = dcf.single_cell_fixed_point(cell.n_nodes, MAC).gamma
            assert gamma >= alone - 1e-12


def test_extra_contention_edge_reduces_capacity(path4_sat):
    ring = ContentionGraph(
        n_cells=4, edges=frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
    problem = MultiCellProblem(graph=ring, cells=path4_sat.problem.cells)
    ring_solution = multicell.solve_fixed_point(problem)
    assert ring_solution.theta_bar < path4_sat.solution.theta_bar


def test_scaled_rho_approaches_maximum_set_shares(path4_sat):
    family = enumerate_state_space(path4_sat.parsed.graph)
    x_inf, alpha = multicell.large_rho_limits(family.graph)
    # a common scale factor on uniform ratios lands on the per-cell shares
    pi = multicell.stationary_distribution(family, (1e6,) * 4)
    x = multicell.unblocked_fractions_direct(family, pi)
    assert x == pytest.approx(x_inf, abs=1e-6)
    # heterogeneous ratios still sum to the independence number
    pi = multicell.stationary_distribution(
        family, tuple(r * 1e6 for r in (1.0, 2.0, 3.0, 4.0)))
    x = multicell.unblocked_fractions_direct(family, pi)
    assert math.fsum(x) == pytest.approx(alpha, abs=1e-6)


def test_large_rho_limits():
    path4 = ContentionGraph(n_cells=4,
                            edges=frozenset({(1, 2), (2, 3), (3, 4)}))
    assert multicell.large_rho_limits(path4) == (
        pytest.approx((2 / 3, 1 / 3, 1 / 3, 2 / 3)), 2.0)
    arb7 = ContentionGraph(
        n_cells=7,
        edges=frozenset({(1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7)}))
    x_inf, alpha = multicell.large_rho_limits(arb7)
    assert x_inf == pytest.approx((1.0, 1.0, 0.0, 1 / 3, 2 / 3, 1 / 3, 2 / 3))
    assert alpha == 4.0


def test_cell_throughputs_scale_standalone_rates():
    cells = (CellSpec(id=1, n_nodes=5), CellSpec(id=2, n_nodes=1))
    theta_cell, theta_node, standalone = multicell.cell_throughputs(
        (0.5, 0.25), cells, MAC)
    alone = [dcf.single_cell_fixed_point(n, MAC).throughput_pps
             for n in (5, 1)]
    assert standalone == tuple(alone)
    assert theta_cell[0] == pytest.approx(0.5 * alone[0], rel=1e-12)
    assert theta_node[0] == pytest.approx(theta_cell[0] / 5, rel=1e-12)
    assert theta_cell[1] == pytest.approx(0.25 * alone[1], rel=1e-12)


def test_jain_fairness():
    assert multicell.jain_fairness((1.0, 1.0, 1.0)) == pytest.approx(1.0)
    assert multicell.jain_fairness((1.0, 0.0)) == pytest.approx(0.5)
    assert multicell.jain_fairness((0.0, 0.0)) == 1.0
    with pytest.raises(ConfigError):
        multicell.jain_fairness(())


def test_solver_reports_non_convergence(path4_sat, monkeypatch):
    for max_iter in (2, 12):
        monkeypatch.setattr(dcf, "MAX_ITER", max_iter)
        with pytest.raises(ConvergenceError) as excinfo:
            multicell.solve_fixed_point(path4_sat.problem)
        assert excinfo.value.iterations == max_iter
        assert excinfo.value.residual > 0
        # the last ten iterates at most, each a beta per cell
        assert len(excinfo.value.history) == min(max_iter, 10)
        assert all(len(beta) == 4 for beta in excinfo.value.history)


def test_solution_rows_and_summary(path4_sat):
    rows = multicell.solution_rows(path4_sat.problem, path4_sat.solution)
    assert len(rows) == 4
    assert all(tuple(r) == multicell.CSV_COLUMNS for r in rows)
    assert [r["id"] for r in rows] == [1, 2, 3, 4]
    theta_1 = dcf.single_cell_fixed_point(5, MAC).throughput_pps / 5
    assert rows[0]["x_inf"] == pytest.approx(2 / 3)
    assert rows[0]["theta_node_inf"] == pytest.approx(2 / 3 * theta_1, rel=1e-12)
    summary = multicell.solution_summary(path4_sat.problem,
                                         path4_sat.solution)
    assert summary["alpha"] == 2
    assert summary["eta"] == 3
    assert summary["n_starved"] == 0
    assert summary["theta_bar"] == pytest.approx(PATH4_THETA_BAR, rel=1e-9)


def test_tcp_mode_reports_access_point_rates(path4_tcp):
    s = path4_tcp.solution
    rows = multicell.solution_rows(path4_tcp.problem, s)
    assert all(r["n_nodes"] == 2 for r in rows)
    for theta_c, theta_n in zip(s.theta_cell, s.theta_node):
        assert theta_n == pytest.approx(theta_c / 2, rel=1e-12)
    # heavy-load AP rate: share of maximum sets times the standalone rate
    _, mac_eff = multicell.effective_configuration(path4_tcp.problem)
    ap_alone = dcf.single_cell_fixed_point(2, mac_eff).throughput_pps / 2
    assert rows[0]["theta_node_inf"] == pytest.approx(2 / 3 * ap_alone,
                                                      rel=1e-12)


def test_relabeling_cells_relabels_the_solution(arb7_sat):
    # solve the same topology under a vertex permutation and map back
    perm = {1: 3, 2: 1, 3: 2, 4: 7, 5: 4, 6: 6, 7: 5}
    inverse = {new: old for old, new in perm.items()}
    old_graph = arb7_sat.parsed.graph
    new_graph = ContentionGraph(
        n_cells=7,
        edges=frozenset((min(perm[i], perm[j]), max(perm[i], perm[j]))
                        for i, j in old_graph.edges))
    n_of_old = {c.id: c.n_nodes for c in arb7_sat.parsed.cells}
    new_cells = tuple(CellSpec(id=i, n_nodes=n_of_old[inverse[i]])
                      for i in range(1, 8))
    permuted = multicell.solve_fixed_point(
        MultiCellProblem(graph=new_graph, cells=new_cells))
    base = arb7_sat.solution
    for old in range(1, 8):
        new = perm[old]
        assert permuted.gamma[new - 1] == pytest.approx(base.gamma[old - 1],
                                                        abs=1e-8)
        assert permuted.x[new - 1] == pytest.approx(base.x[old - 1], abs=1e-8)


def test_solve_fixture_helper_matches_direct_call(path4_sat):
    again = solve_fixture("path4")
    assert again.solution.beta == path4_sat.solution.beta
