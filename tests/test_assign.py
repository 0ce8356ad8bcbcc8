"""Channel assignment: utilities, learning automata, greedy peeling."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlancell import assign, dcf, fixtures
from wlancell.assign import ChannelAssignment, LAState
from wlancell.errors import BudgetExceededError, ConfigError
from wlancell.topology import ContentionGraph

PATH4 = ContentionGraph(n_cells=4, edges=frozenset({(1, 2), (2, 3), (3, 4)}))
ARB7 = ContentionGraph(
    n_cells=7,
    edges=frozenset({(1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7)}))


@st.composite
def graphs(draw, max_cells: int = 7) -> ContentionGraph:
    n = draw(st.integers(min_value=1, max_value=max_cells))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return ContentionGraph(n_cells=n, edges=frozenset(edges))


def test_channel_assignment_validation_and_classes():
    a = ChannelAssignment(channels=(1, 2, 1, 2), n_channels=2)
    assert a.classes() == {1: (1, 3), 2: (2, 4)}
    with pytest.raises(ConfigError):
        ChannelAssignment(channels=(1, 3), n_channels=2)
    with pytest.raises(ConfigError):
        ChannelAssignment(channels=(0, 1), n_channels=2)
    with pytest.raises(ConfigError):
        ChannelAssignment(channels=(1,), n_channels=0)
    # labels and counts must be integers, not merely convertible to one
    for channels, n_channels in [((1.5, 2.9), 2), (("2", True), 2),
                                 ((1,), 1.5), ((1,), True)]:
        with pytest.raises(ConfigError, match="must be an integer"):
            ChannelAssignment(channels=channels, n_channels=n_channels)
    # numpy integers are integers
    a = ChannelAssignment(channels=np.array([2, 1]), n_channels=np.int64(2))
    assert a.channels == (2, 1)
    assert all(type(c) is int for c in a.channels)


def test_la_state_validation():
    ok = LAState(probs=np.full((3, 2), 0.5))
    assert ok.probs.flags.writeable is False
    with pytest.raises(ValueError):
        ok.probs[0, 0] = 0.9
    with pytest.raises(ConfigError):
        LAState(probs=np.array([0.5, 0.5]))
    with pytest.raises(ConfigError):
        LAState(probs=np.array([[0.7, 0.7]]))
    with pytest.raises(ConfigError):
        LAState(probs=np.array([[-0.1, 1.1]]))
    with pytest.raises(ConfigError):
        LAState(probs=np.full((2, 2), 0.5), b=0.0)
    with pytest.raises(ConfigError):
        LAState(probs=np.full((2, 2), 0.5), b=1.5)
    with pytest.raises(ConfigError):
        LAState(probs=np.full((2, 2), 0.5), step=-1)
    # b = 1 is the largest admissible learning rate
    assert LAState(probs=np.full((2, 2), 0.5), b=1.0).b == 1.0


def test_lri_step_moves_toward_the_sampled_channel():
    state = LAState(probs=np.full((4, 2), 0.5), b=0.01)
    rng = np.random.default_rng(0)
    new, picked, u = assign.lri_step(state, PATH4, lambda g, a: 0.5, rng)
    assert u == 0.5
    assert new.step == 1
    for row, ch in zip(new.probs, picked.channels):
        assert row[ch - 1] == pytest.approx(0.5025, rel=1e-12)
        assert row[2 - ch] == pytest.approx(0.4975, rel=1e-12)
        assert row.sum() == pytest.approx(1.0, abs=1e-15)


def test_lri_step_zero_utility_changes_nothing():
    state = LAState(probs=np.array([[0.3, 0.7], [0.6, 0.4]]), b=0.5)
    new, _, _ = assign.lri_step(state, ContentionGraph(n_cells=2, edges=frozenset()),
                                lambda g, a: 0.0, np.random.default_rng(1))
    assert np.array_equal(new.probs, state.probs)


def test_lri_step_full_reward_at_unit_rate_is_absorbing():
    state = LAState(probs=np.full((2, 2), 0.5), b=1.0)
    new, picked, _ = assign.lri_step(
        state, ContentionGraph(n_cells=2, edges=frozenset()),
        lambda g, a: 1.0, np.random.default_rng(0))
    for row, ch in zip(new.probs, picked.channels):
        assert row[ch - 1] == 1.0
        assert row[2 - ch] == 0.0


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_lri_step_rejects_utilities_outside_unit_interval(bad):
    state = LAState(probs=np.full((4, 2), 0.5))
    with pytest.raises(ConfigError):
        assign.lri_step(state, PATH4, lambda g, a: bad, np.random.default_rng(2))


def test_lri_rows_stay_stochastic_over_many_steps():
    state = LAState(probs=np.full((4, 3), 1 / 3), b=0.05)
    rng = np.random.default_rng(9)
    rewards = np.random.default_rng(10)
    for _ in range(10_000):
        state, _, _ = assign.lri_step(state, PATH4,
                                      lambda g, a: float(rewards.random()), rng)
        assert (state.probs >= 0.0).all()
    assert np.allclose(state.probs.sum(axis=1), 1.0, atol=1e-9)
    assert state.step == 10_000


@st.composite
def la_states(draw, max_cells: int = 6, max_channels: int = 4) -> LAState:
    n = draw(st.integers(min_value=1, max_value=max_cells))
    m = draw(st.integers(min_value=1, max_value=max_channels))
    row = st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(any)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    b = draw(st.floats(0.0, 1.0, exclude_min=True))
    return LAState(probs=np.array([[w / sum(r) for w in r] for r in rows]),
                   b=b)


@settings(deadline=None)
@given(state=la_states(),
       utilities=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_stepped_states_pass_the_checked_constructors(state, utilities, seed):
    n, m = state.probs.shape
    graph = ContentionGraph(n_cells=n, edges=frozenset())
    rng = np.random.default_rng(seed)
    for u in utilities:
        new, picked, got = assign.lri_step(state, graph, lambda g, a: u, rng)
        assert got == u
        LAState(probs=new.probs, step=new.step, b=new.b)
        assert not new.probs.flags.writeable
        assert new.step == state.step + 1
        assert all(type(c) is int for c in picked.channels)
        assert picked == ChannelAssignment(channels=picked.channels,
                                           n_channels=m)
        state = new


@pytest.mark.parametrize("channels", [
    (1, 1, 1, 1, 1, 1, 1),
    (1, 1, 2, 2, 1, 1, 2),
    (1, 2, 1, 2, 1, 2, 1),
])
def test_utility_equals_mean_of_per_cell_shares(channels):
    profile = assign.infinite_load_profile(ARB7, channels)
    assert assign.utility_theta_bar(ARB7, channels) == pytest.approx(
        sum(profile) / 7, abs=1e-12)


def test_utility_on_grid12_reference_assignments():
    graph = fixtures.load("grid12").graph
    for channels in fixtures.GRID12_ASSIGNMENTS.values():
        profile = assign.infinite_load_profile(graph, channels)
        assert assign.utility_theta_bar(graph, channels) == pytest.approx(
            sum(profile) / 12, abs=1e-12)


@given(data=st.data())
def test_relabeling_channels_preserves_utility(data):
    graph = data.draw(graphs())
    m = data.draw(st.integers(min_value=2, max_value=4))
    n = len(graph.vertices)
    channels = data.draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(1, m + 1)))
    relabeled = [perm[c - 1] for c in channels]
    assert (assign.utility_theta_bar(graph, relabeled)
            == assign.utility_theta_bar(graph, channels))


def test_independence_number():
    assert PATH4.maximum_sets(0b1111)[0] == 2
    assert ARB7.maximum_sets(0b1111111)[0] == 4
    assert PATH4.maximum_sets(0b0011)[0] == 1  # cells 1 and 2
    assert PATH4.maximum_sets(0) == (0, 1)


def test_misa_on_small_graphs():
    assert assign.misa(PATH4, 2).channels == (1, 2, 1, 2)
    assert assign.misa(PATH4, 1).channels == (1, 1, 1, 1)
    assert assign.misa(ARB7, 2).channels == (1, 1, 2, 1, 2, 2, 1)
    assert assign.utility_theta_bar(ARB7, assign.misa(ARB7, 2)) == 1.0


def test_misa_grid12_reaches_the_optimum():
    graph = fixtures.load("grid12").graph
    a = assign.misa(graph, 3)
    assert a.channels == (1, 2, 1, 2, 3, 2, 1, 3, 3, 3, 3, 3)
    assert assign.utility_theta_bar(graph, a) * 12 == pytest.approx(8.0)


def test_misa_with_enough_channels_unblocks_everyone():
    graph = fixtures.load("grid12").graph
    a = assign.misa(graph, max(map(int.bit_count, graph.nbr_masks)) + 1)
    assert assign.utility_theta_bar(graph, a) == 1.0


def test_misa_classes_are_maximal_independent_sets():
    graph = fixtures.load("grid12").graph
    a = assign.misa(graph, 3)
    adj = graph.adjacency
    remaining = set(graph.vertices)
    for ch in range(1, 3):
        members = set(a.classes()[ch])
        assert not any(u in adj[v] for v in members for u in members)
        # maximal within the cells that were still unassigned
        for v in remaining - members:
            assert adj[v] & members
        remaining -= members


def test_misa_argument_validation():
    with pytest.raises(ConfigError):
        assign.misa(PATH4, 0)
    with pytest.raises(ConfigError):
        assign.misa(PATH4, 2, order_policy="greedy")


MISA_CHANNELS = {
    "arbitrary7": {
        None: (1, 1, 2, 1, 2, 2, 1),
        0: (2, 2, 1, 2, 1, 2, 1),
        1: (1, 1, 2, 2, 1, 1, 2),
        2: (2, 2, 1, 2, 1, 1, 2),
        3: (2, 2, 1, 2, 1, 1, 2),
    },
    "hex7": {
        None: (1, 2, 3, 2, 3, 2, 3),
        0: (3, 2, 1, 2, 1, 2, 1),
        1: (3, 1, 2, 1, 2, 1, 2),
        2: (3, 3, 1, 2, 3, 1, 2),
        3: (2, 3, 1, 3, 3, 1, 3),
    },
    "grid12": {
        None: (1, 2, 1, 2, 3, 2, 1, 3, 3, 3, 3, 3),
        0: (3, 3, 3, 3, 3, 1, 2, 1, 2, 1, 2, 3),
        1: (3, 2, 3, 2, 3, 1, 3, 3, 1, 3, 3, 1),
        2: (1, 3, 1, 2, 3, 2, 1, 2, 3, 3, 3, 3),
        3: (3, 3, 1, 3, 3, 2, 1, 2, 3, 2, 3, 1),
    },
}


@pytest.mark.parametrize("name", sorted(MISA_CHANNELS))
def test_misa_channels_are_pinned(name):
    """Lexicographic (seed None) and seeded random orders, on each
    fixture's own channel count, give the recorded channels."""
    parsed = fixtures.load(name)
    for seed, want in MISA_CHANNELS[name].items():
        order = "lexicographic" if seed is None else "random"
        got = assign.misa(parsed.graph, parsed.n_channels, order, seed)
        assert got.channels == want, seed


def test_misa_random_order_is_seeded():
    a = assign.misa(ARB7, 2, order_policy="random", seed=5)
    b = assign.misa(ARB7, 2, order_policy="random", seed=5)
    assert a.channels == b.channels


@settings(deadline=None)
@given(graph=graphs(), m=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=100))
def test_misa_always_lands_on_an_equilibrium(graph, m, seed):
    a = assign.misa(graph, m, order_policy="random", seed=seed)
    assert assign.is_nash_equilibrium(graph, a).is_nash
    # each channel but the last takes an independent set that is maximal
    # among the cells not yet assigned
    adj = graph.adjacency
    remaining = set(graph.vertices)
    for ch in range(1, m):
        members = set(a.classes()[ch])
        assert members <= remaining
        assert not any(adj[v] & members for v in members)
        assert all(adj[v] & members for v in remaining - members)
        remaining -= members


def test_nash_checker_on_arbitrary7():
    good = assign.is_nash_equilibrium(
        ARB7, ChannelAssignment(channels=(1, 1, 2, 2, 1, 1, 2), n_channels=2))
    assert good.is_nash
    assert good.utility == pytest.approx(6 / 7)
    assert good.improving == ()

    bad = assign.is_nash_equilibrium(
        ARB7, ChannelAssignment(channels=(1,) * 7, n_channels=2))
    assert not bad.is_nash
    assert bad.utility == pytest.approx(4 / 7)
    assert (3, 2, pytest.approx(5 / 7)) in [tuple(d) for d in bad.improving]


def test_exhaustive_search_finds_known_optima():
    best, utility = assign.exhaustive_search(PATH4, 2)
    assert best.channels == (1, 2, 1, 2)  # first maximiser in scan order
    assert utility == 1.0
    best, utility = assign.exhaustive_search(ARB7, 2)
    assert best.channels == (1, 1, 2, 1, 2, 2, 1)
    assert utility == 1.0


def test_exhaustive_search_respects_budget():
    with pytest.raises(BudgetExceededError):
        assign.exhaustive_search(ARB7, 3, budget=1000)


def test_exhaustive_search_with_custom_utility():
    target = (2, 1, 2, 1)
    best, utility = assign.exhaustive_search(
        PATH4, 2, utility=lambda g, cand: 1.0 if tuple(cand) == target else 0.0)
    assert best.channels == target
    assert utility == 1.0


def _first_maximiser(graph, m, utility):
    best, best_u = None, -math.inf
    for cand in itertools.product(range(1, m + 1), repeat=len(graph.vertices)):
        u = utility(graph, cand)
        if u > best_u:
            best, best_u = cand, u
    return best, best_u


def _often_tied(graph, cand):
    return (sum(cand) % 3) / 2


@settings(deadline=None, max_examples=200)
@given(graph=graphs(), m=st.integers(min_value=1, max_value=4),
       utility=st.sampled_from([None, _often_tied]))
@example(graph=ContentionGraph(n_cells=1, edges=frozenset()), m=3,
         utility=None)
@example(graph=ARB7, m=4, utility=None)
def test_exhaustive_search_equals_brute_force(graph, m, utility):
    best, u = assign.exhaustive_search(graph, m, utility=utility)
    assert (best.channels, u) == _first_maximiser(
        graph, m, utility or assign.utility_theta_bar)


def test_run_lri_converges_to_an_optimal_assignment():
    result = assign.run_lri(PATH4, 2, 0.05, seed=0)
    assert result.converged
    assert result.steps == len(result.utility_trace)
    assert assign.utility_theta_bar(PATH4, result.assignment) == 1.0
    assert all(0.0 <= u <= 1.0 for u in result.utility_trace)
    assert result.state.probs.max(axis=1).min() > 1.0 - 1e-3


def test_run_lri_memoises_the_utility():
    calls = []

    def counted(graph, a):
        calls.append(tuple(getattr(a, "channels", a)))
        return assign.utility_theta_bar(graph, a)

    result = assign.run_lri(PATH4, 2, 0.05, seed=0, utility=counted)
    assert result.converged
    assert len(calls) == len(set(calls))  # one evaluation per assignment
    assert len(calls) <= 2 ** 4
    assert len(calls) < result.steps


# steps, channels and sha256 digests of the utility trace (as float64)
# and of the final rows: any change to the draws or to the update's
# floating-point operations shows here
@pytest.mark.parametrize("graph, m, b, seed, steps, channels, trace, probs", [
    (ARB7, 2, 0.01, 3, 6459, (1, 1, 2, 1, 2, 2, 1),
     "cc18d0f689707ae67b568b1f1d71b0f93639119cf7f536e0ca7ae5140e4d016f",
     "d0f4bc9de36f788c645aa27f2e0248abe93860c5d30ae480851459627574a4e9"),
    (PATH4, 3, 0.01, 1, 40_100, (2, 3, 1, 2),
     "e00c4e91b6d6158c9facd42a40d9a3ccb34b366b9c3ffbc0b138e6c03012c24d",
     "0ac0b045c72cf66fc48ddc3efc9daa1f43b08d6d0a9065f881125b908181c0d8"),
], ids=["arbitrary7", "path4"])
def test_run_lri_is_pinned_seed_for_seed(graph, m, b, seed, steps, channels,
                                         trace, probs):
    result = assign.run_lri(graph, m, b, seed=seed)
    assert result.converged
    assert result.steps == steps
    assert result.assignment.channels == channels
    utilities = np.array(result.utility_trace, dtype=np.float64)
    assert hashlib.sha256(utilities.tobytes()).hexdigest() == trace
    assert hashlib.sha256(result.state.probs.tobytes()).hexdigest() == probs


def _seeded_utility(seed: int):
    """A utility that depends on the sampled channels and on ``seed``."""
    def utility(graph, assignment):
        key = f"{seed}:{tuple(getattr(assignment, 'channels', assignment))}"
        return int(hashlib.sha256(key.encode()).hexdigest()[:8], 16) / 2**32
    return utility


@settings(deadline=None, max_examples=25)
@given(n=st.integers(min_value=1, max_value=6),
       m=st.integers(min_value=1, max_value=4),
       b=st.floats(0.0, 1.0, exclude_min=True),
       reward=st.one_of(st.floats(0.0, 1.0),
                        st.integers(min_value=0, max_value=2**32 - 1)),
       max_steps=st.sampled_from([1023, 1024, 1025, 2_500]),
       threshold=st.sampled_from([1e-3, 0.2]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(n=5, m=3, b=0.001, reward=7, max_steps=1025, threshold=1e-3, seed=0)
@example(n=4, m=2, b=0.002, reward=8, max_steps=2_500, threshold=1e-3,
         seed=1)
def test_run_lri_equals_iterated_lri_step(n, m, b, reward, max_steps,
                                          threshold, seed):
    """Block draws and list rows follow `lri_step` seed for seed, from
    uniform rows, also across the edges of the draw blocks."""
    utility = (_seeded_utility(reward) if isinstance(reward, int)
               else lambda g, a: reward)
    graph = ContentionGraph(n_cells=n, edges=frozenset())
    result = assign.run_lri(graph, m, b, max_steps=max_steps,
                            convergence_threshold=threshold, seed=seed,
                            utility=utility)
    state, trace = LAState(probs=np.full((n, m), 1 / m), b=b), []
    rng = np.random.default_rng(seed)
    for _ in range(max_steps):
        state, _, u = assign.lri_step(state, graph, utility, rng)
        trace.append(u)
        if state.probs.max(axis=1).min() > 1.0 - threshold:
            break
    assert result.steps == state.step == len(trace)
    assert result.converged == (state.probs.max(axis=1).min()
                                > 1.0 - threshold)
    assert result.utility_trace == tuple(trace)
    assert (hashlib.sha256(result.state.probs.tobytes()).hexdigest()
            == hashlib.sha256(state.probs.tobytes()).hexdigest())
    assert result.assignment.channels == tuple(
        int(c) + 1 for c in state.probs.argmax(axis=1))


def test_run_lri_step_budget():
    result = assign.run_lri(PATH4, 2, 0.01, max_steps=5)
    assert not result.converged
    assert result.steps == 5


@pytest.mark.parametrize("n_channels", [0, -1, 2.5, "2", True])
def test_searches_need_a_channel(n_channels):
    match = ("at least one channel" if n_channels in (0, -1)
             else "n_channels must be an integer")
    for search in (lambda: assign.run_lri(PATH4, n_channels, 0.01),
                   lambda: assign.misa(PATH4, n_channels),
                   lambda: assign.exhaustive_search(PATH4, n_channels)):
        with pytest.raises(ConfigError, match=match):
            search()


def test_fixed_point_utility_ranks_assignments():
    parsed = fixtures.load("path4")
    utility = assign.make_fixed_point_utility(parsed.cells, dcf.MacParams())
    split = utility(parsed.graph, (1, 2, 1, 2))
    shared = utility(parsed.graph, (1, 1, 1, 1))
    assert split == pytest.approx(1.0, rel=1e-9)
    assert 0.4 < shared < 0.6
    assert shared < split
