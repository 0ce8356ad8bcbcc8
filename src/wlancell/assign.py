"""Channel assignment: utilities, learning automata, and greedy baselines.

Assigning each cell one of M channels splits the physical contention graph
into M co-channel subgraphs.  At heavy load a subgraph's aggregate
unblocked share tends to its independence number, so the natural figure of
merit for an assignment is the mean per-cell unblocked share

    U(c) = (1/N) * sum over channels m of alpha(subgraph of channel m),

a number in [0, 1].  `utility_theta_bar` computes it from the graph's
memoised maximum sets; `infinite_load_profile` exposes the underlying
per-cell shares (the two agree by construction of the maximum-independent-
set statistics, and the tests cross-check them).

Three assignment strategies are provided:

* `run_lri` -- decentralised linear reward-inaction learning: every cell
  keeps a probability row over channels, samples jointly, and reinforces
  its sampled channel proportionally to the global utility.  Converges to
  pure strategies that are Nash equilibria of the induced game; which one
  depends on the seed.
* `misa` -- a one-shot greedy: channel by channel, peel off a maximal
  independent set of the still-unassigned cells; the last channel absorbs
  the remainder.  Always yields a Nash equilibrium of the heavy-load
  utility, for any admission order.
* `exhaustive_search` -- the first maximiser, in lexicographic order, over
  all M**N assignments, with a budget guard.  The heavy-load utility is
  searched by branch-and-bound: a partial assignment is dropped once
  ``sum over m of alpha(mask_m | unassigned cells)`` cannot beat the best
  total found so far.  Any other utility scores every candidate.

numpy is imported where it is used: in `LAState`, `run_lri` and
random-order `misa`.  The utilities, lexicographic `misa`,
`is_nash_equilibrium` and `exhaustive_search` run without loading it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, product
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import BudgetExceededError, ConfigError, check_number
from .topology import ContentionGraph, bits

if TYPE_CHECKING:
    import numpy as np

#: Utility improvements below this are treated as ties when testing for
#: Nash equilibria.
_UTILITY_TIE = 1e-12

_ORDER_POLICIES = ("lexicographic", "random")

#: Most steps one `run_lri` call may take: 50 times the default budget.
#: The utility trace keeps one entry per step.
MAX_LRI_STEPS = 10_000_000


def _check_channel_count(n_channels) -> None:
    """Raise ConfigError unless ``n_channels`` is an integer of at least 1."""
    if check_number(n_channels, "n_channels", integer=True) < 1:
        raise ConfigError("need at least one channel")


@dataclass(frozen=True)
class ChannelAssignment:
    """Channel per cell (entry ``i-1`` for cell ``i``), channels 1..n_channels."""

    channels: tuple[int, ...]
    n_channels: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", tuple(
            int(check_number(c, "channel label", integer=True))
            for c in self.channels))
        _check_channel_count(self.n_channels)
        bad = [c for c in self.channels if not 1 <= c <= self.n_channels]
        if bad:
            raise ConfigError(
                f"channel labels must lie in 1..{self.n_channels}, got {bad}")

    def classes(self) -> dict[int, tuple[int, ...]]:
        """Cells per channel, 1-based ids, ascending."""
        out: dict[int, list[int]] = {m: [] for m in range(1, self.n_channels + 1)}
        for k, ch in enumerate(self.channels):
            out[ch].append(k + 1)
        return {m: tuple(v) for m, v in out.items()}


@dataclass(frozen=True, eq=False)
class LAState:
    """State of the learning automata: one probability row per cell.

    ``probs`` is an (N, M) row-stochastic matrix, kept read-only; ``step``
    counts updates applied; ``b`` is the learning rate.
    """

    probs: np.ndarray
    step: int = 0
    b: float = 0.01

    def __post_init__(self) -> None:
        import numpy as np

        p = np.array(self.probs, dtype=float)
        if p.ndim != 2:
            raise ConfigError("probs must be a 2-D (cells x channels) matrix")
        if (p < 0).any():
            raise ConfigError("probabilities must be non-negative")
        sums = p.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ConfigError("each probability row must sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        if not 0.0 < self.b <= 1.0:
            raise ConfigError(f"learning rate must lie in (0, 1], got {self.b}")
        if self.step < 0:
            raise ConfigError("step must be non-negative")


@dataclass(frozen=True)
class LriResult:
    """Outcome of a learning run: final pick, utility trace, and status."""

    assignment: ChannelAssignment
    utility_trace: tuple[float, ...] = field(repr=False)
    converged: bool
    steps: int
    state: LAState = field(repr=False)


@dataclass(frozen=True)
class NashResult:
    """Equilibrium verdict plus every improving unilateral deviation."""

    is_nash: bool
    improving: tuple[tuple[int, int, float], ...]  # (cell, channel, utility)
    utility: float


def utility_theta_bar(physical: ContentionGraph,
                      assignment: ChannelAssignment | Sequence[int]) -> float:
    """Mean heavy-load unblocked share of an assignment, in [0, 1].

    Equals the average of `infinite_load_profile` over cells, computed as
    the sum of co-channel independence numbers divided by the cell count
    (each channel's aggregate share tends to its subgraph's independence
    number).
    """
    total = sum(physical.maximum_sets(mask)[0]
                for mask in physical.label_masks(assignment))
    return total / len(physical.vertices)


def infinite_load_profile(physical: ContentionGraph,
                          assignment: ChannelAssignment | Sequence[int]
                          ) -> tuple[float, ...]:
    """Per-cell heavy-load unblocked shares under an assignment.

    Each co-channel subgraph contributes its cells' shares of maximum
    independent sets.  Aligned with ``physical.vertices``.
    """
    x = [0.0] * len(physical.vertices)
    for mask in physical.label_masks(assignment):
        _, eta, eta_i = physical.maximum_set_profile(mask)
        for k in bits(mask):
            x[k] = eta_i[k] / eta
    return tuple(x)


def make_fixed_point_utility(cells, mac, traffic_mode: str = "saturated",
                             ) -> Callable[[ContentionGraph, Sequence[int]], float]:
    """Finite-load utility: mean unblocked share from the full fixed point.

    Far slower than the heavy-load utility (it solves the network model per
    assignment), so it is offered behind an explicit choice.  Imports
    locally to keep this module's dependency on the solver one-way.
    """
    from .multicell import MultiCellProblem, solve_fixed_point

    def utility(physical: ContentionGraph,
                assignment: ChannelAssignment | Sequence[int]) -> float:
        from .topology import logical_graph
        logical = logical_graph(physical, assignment)
        problem = MultiCellProblem(graph=logical, cells=tuple(cells),
                                   mac=mac, traffic_mode=traffic_mode)
        solution = solve_fixed_point(problem)
        return solution.theta_bar / len(physical.vertices)

    return utility


def _picks(rows: list[list[float]], draws: Sequence[float], last: int
           ) -> list[int]:
    """0-based channel sampled in each row: the first whose cumulative
    weight is not below ``draw * row total``, capped at ``last``.

    Rows are non-negative, so their cumulative sums never decrease and
    `bisect_left` counts the entries below the scaled draw.
    """
    picks = []
    for row, draw in zip(rows, draws):
        cum = list(accumulate(row))
        picks.append(bisect_left(cum, draw * cum[-1], 0, last))
    return picks


def _reinforce(rows: list[list[float]], picks: Sequence[int], bu: float
               ) -> float:
    """Move each row, in place, toward its pick by ``bu``: every entry is
    scaled by ``1 - bu`` and ``bu`` is added at the pick.  Returns the
    smallest row maximum."""
    keep = 1.0 - bu
    for row, k in zip(rows, picks):
        for j, v in enumerate(row):
            row[j] = v * keep
        row[k] += bu
    return min(map(max, rows))


def _check_utility(u: float) -> float:
    if not 0.0 <= u <= 1.0:
        raise ConfigError(f"utility must lie in [0, 1], got {u}")
    return u


def _check_seed(seed):
    """``seed`` if it is a non-negative integer or None (fresh entropy)."""
    if seed is not None and check_number(seed, "seed", integer=True) < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def lri_step(state: LAState, physical: ContentionGraph,
             utility: Callable[[ContentionGraph, Sequence[int]], float],
             rng: np.random.Generator
             ) -> tuple[LAState, ChannelAssignment, float]:
    """One linear reward-inaction update.

    Samples a joint assignment from the rows, evaluates the shared
    utility, and moves each row toward its sampled channel by ``b * U``.
    A utility outside [0, 1] is rejected: the update would no longer be a
    convex combination and rows could leave the simplex.
    """
    n, n_channels = state.probs.shape
    rows = state.probs.tolist()
    picks = _picks(rows, rng.random(n).tolist(), n_channels - 1)
    assignment = ChannelAssignment(channels=tuple(k + 1 for k in picks),
                                   n_channels=n_channels)
    u = _check_utility(float(utility(physical, assignment)))
    _reinforce(rows, picks, state.b * u)
    new_state = LAState(probs=rows, step=state.step + 1, b=state.b)
    return new_state, assignment, u


#: Steps whose uniform draws `run_lri` takes from the generator at once.
_DRAW_BLOCK = 1024


def run_lri(physical: ContentionGraph, n_channels: int, b: float, *,
            max_steps: int = 200_000,
            convergence_threshold: float = 1e-3, seed: int = 0,
            utility: Callable[[ContentionGraph, Sequence[int]], float] | None = None,
            ) -> LriResult:
    """Run reward-inaction learning until the rows are nearly pure.

    Every row starts uniform.  Stops once every cell's largest row entry
    exceeds ``1 - convergence_threshold``; the assignment is then the
    rowwise argmax.  If ``max_steps`` (at most `MAX_LRI_STEPS`) elapse
    first, the best-so-far argmax is returned with ``converged=False``.
    The default utility is the heavy-load `utility_theta_bar`; any
    utility is called once per distinct sampled channel tuple and
    memoised.

    Each step is the one `lri_step` takes, on rows kept as Python floats;
    the uniform draws come in blocks, which yields the same stream as one
    ``rng.random(N)`` per step, so the two agree seed for seed.
    """
    _check_channel_count(n_channels)
    if check_number(max_steps, "max_steps", integer=True) < 0:
        raise ConfigError(f"max_steps must be non-negative, got {max_steps}")
    if max_steps > MAX_LRI_STEPS:
        raise ConfigError(
            f"max_steps must be at most {MAX_LRI_STEPS}, got {max_steps}")
    if not 0.0 < check_number(convergence_threshold,
                              "convergence_threshold") < 1.0:
        raise ConfigError("convergence_threshold must lie in (0, 1), "
                          f"got {convergence_threshold}")
    import numpy as np

    rng = np.random.default_rng(_check_seed(seed))
    n = len(physical.vertices)
    state = LAState(probs=np.full((n, n_channels), 1.0 / n_channels), b=b)
    base = utility_theta_bar if utility is None else utility
    memo: dict[tuple[int, ...], float] = {}  # by 0-based picks
    rows = state.probs.tolist()
    last = n_channels - 1
    target = 1.0 - convergence_threshold
    trace: list[float] = []
    converged = False
    while not converged and len(trace) < max_steps:
        block = rng.random((min(_DRAW_BLOCK, max_steps - len(trace)), n))
        for draws in block.tolist():
            picks = _picks(rows, draws, last)
            key = tuple(picks)
            u = memo.get(key)
            if u is None:
                u = _check_utility(float(base(
                    physical, tuple(k + 1 for k in picks))))
                memo[key] = u
            trace.append(u)
            if _reinforce(rows, picks, b * u) > target:
                converged = True
                break
    final = LAState(probs=rows, step=len(trace), b=b)
    channels = tuple(int(c) + 1 for c in final.probs.argmax(axis=1))
    return LriResult(
        assignment=ChannelAssignment(channels=channels, n_channels=n_channels),
        utility_trace=tuple(trace), converged=converged, steps=final.step,
        state=final)


def misa(physical: ContentionGraph, n_channels: int,
         order_policy: str = "lexicographic",
         seed: int | None = None) -> ChannelAssignment:
    """Greedy channel peeling via maximal independent sets.

    Channels ``1..M-1`` each take a maximal independent set of the cells
    still unassigned, admitting each cell unless a neighbour already
    joined (in ascending id order, or in a seeded random order); channel
    ``M`` takes whatever remains.  The result is always a Nash equilibrium
    of the heavy-load utility.
    """
    _check_channel_count(n_channels)
    if order_policy not in _ORDER_POLICIES:
        raise ConfigError(f"order_policy must be one of {_ORDER_POLICIES}")
    rng = None
    if order_policy == "random":
        import numpy as np

        rng = np.random.default_rng(_check_seed(seed))
    nbr = physical.nbr_masks
    remaining = (1 << physical.n_cells) - 1
    channels = [n_channels] * physical.n_cells
    for ch in range(1, n_channels):
        if not remaining:
            break
        order = list(bits(remaining))
        if rng is not None:
            order = map(int, rng.permutation(order))
        chosen = 0
        for k in order:
            if not nbr[k] & chosen:
                chosen |= 1 << k
                channels[k] = ch
        remaining ^= chosen
    return ChannelAssignment(channels=tuple(channels), n_channels=n_channels)


def is_nash_equilibrium(physical: ContentionGraph,
                        assignment: ChannelAssignment) -> NashResult:
    """Check all single-cell channel deviations for an improvement of the
    heavy-load utility `utility_theta_bar`.

    A deviation counts as improving only when it beats the current utility
    by more than a tie tolerance, so flat regions still count as equilibria.
    """
    u0 = utility_theta_bar(physical, assignment)
    improving = []
    channels = list(assignment.channels)
    for k in range(len(channels)):
        original = channels[k]
        for ch in range(1, assignment.n_channels + 1):
            if ch == original:
                continue
            channels[k] = ch
            u = utility_theta_bar(physical, tuple(channels))
            if u > u0 + _UTILITY_TIE:
                improving.append((k + 1, ch, u))
        channels[k] = original
    return NashResult(is_nash=not improving, improving=tuple(improving),
                      utility=u0)


def exhaustive_search(physical: ContentionGraph, n_channels: int,
                      utility: Callable[[ContentionGraph, Sequence[int]], float]
                      | None = None,
                      budget: int = 2_000_000
                      ) -> tuple[ChannelAssignment, float]:
    """Best assignment over all ``n_channels ** N`` candidates.

    Returns the first maximiser in lexicographic order of the channel
    tuples, so the result is deterministic.  Exceeding ``budget``
    candidates raises BudgetExceededError before any work is done.

    A given ``utility`` scores every candidate in that order.  The
    heavy-load utility instead runs a branch-and-bound over restricted
    growth strings (see `_branch_and_bound`), which finds the same first
    maximiser while visiting only a small share of the candidates.
    """
    _check_channel_count(n_channels)
    n = len(physical.vertices)
    total = n_channels ** n
    if total > budget:
        raise BudgetExceededError(
            f"{total} assignments exceed the search budget of {budget}")
    if utility is None:
        best_channels, best_total = _branch_and_bound(physical, n_channels)
        best_u = best_total / n
    else:
        best_channels, best_u = None, -math.inf
        for channels in product(range(1, n_channels + 1), repeat=n):
            u = float(utility(physical, channels))
            if u > best_u:
                best_channels, best_u = channels, u
    return (ChannelAssignment(channels=best_channels, n_channels=n_channels),
            best_u)


def _branch_and_bound(physical: ContentionGraph, n_channels: int
                      ) -> tuple[tuple[int, ...], int]:
    """First maximiser of the co-channel independence-number total, in
    lexicographic order of all channel tuples, and that total.

    The total depends only on the channel classes, and relabelling any
    maximiser by first use gives a maximiser no later in lexicographic
    order, so the first maximiser is a restricted growth string (each
    cell takes a channel already in use or the next unused one).  The
    depth-first search visits those strings in lexicographic order and
    keeps a candidate only if it beats the incumbent strictly.  With the
    first ``k`` cells assigned, channel ``m`` can reach at most
    ``alpha(mask_m | unassigned)``, as ``alpha`` is monotone; a subtree
    whose bounds sum to no more than the incumbent's total is pruned.
    """
    maximum_sets = physical.maximum_sets
    n = physical.n_cells
    full = (1 << n) - 1
    masks = [0] * n_channels
    channels = [0] * n
    best: tuple[tuple[int, ...], int] = ((), -1)

    def visit(k: int, used: int) -> None:
        nonlocal best
        rest = full ^ ((1 << k) - 1)
        bound = sum(maximum_sets(mask | rest)[0] for mask in masks)
        if bound <= best[1]:
            return
        if k == n:
            best = (tuple(channels), bound)
            return
        bit = 1 << k
        for m in range(min(used + 1, n_channels)):
            masks[m] |= bit
            channels[k] = m + 1
            visit(k + 1, max(used, m + 1))
            masks[m] ^= bit

    visit(0, 0)
    return best
