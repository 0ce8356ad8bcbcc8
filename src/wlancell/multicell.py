"""Coupled fixed point for a network of contending cells.

The single-cell model (`wlancell.dcf`) treats collisions as purely local.
In a multi-cell network a cell also loses frames to hidden or co-channel
activity from *neighbouring* cells, and carrier sensing blocks it outright
while a neighbour holds the channel.  Both effects depend on how often each
neighbourhood is busy, which in turn depends on every cell's own attempt
rate, so the network is solved as one fixed point:

1. Given per-cell attempt probabilities ``beta``, each cell starts channel
   occupations at rate ``lambda_i`` (some station wins an idle slot) and
   holds the channel for mean time ``1/mu_i`` (success or collision
   duration, weighted by the success odds among its own stations).
2. The set of simultaneously transmitting cells wanders over the
   independent sets of the contention graph.  The long-run distribution of
   that process is product-form: the probability of a state is
   proportional to the product of the occupation ratios ``rho_i =
   lambda_i / mu_i`` of its members.  It satisfies detailed balance and is
   insensitive to the shape of the holding-time distribution.
3. From that distribution each cell reads off its conditional collision
   probability ``gamma_i`` (averaging over the states where it is actually
   counting down backoff, since those are the only moments it can attempt)
   and maps it back to a fresh ``beta_i``.  Because the law is product
   form, these averages are ratios of weighted sums over independent
   sets, which `evaluate_law` computes by branching on one cell at a
   time instead of walking the state list.  The branching is compiled
   once per graph into a flat program of multiply-adds
   (`wlancell.topology.SumProgram`), which every iteration and every
   point of a sweep on that graph reruns: bit for bit the memoised
   recursion, since it does the same float operations in its order.

Damped iteration of (1)-(3), the single cell's loop
`wlancell.dcf._damped_iteration`, converges to the operating point.  The
fraction of time a cell is *not* blocked, ``x_i``, scales its standalone
throughput into its networked throughput.  It has a closed form in terms
of two independent-set partition sums (Theorem 1), ``x_i = (1 + rho_i) *
Z_i / Z``, which `evaluate_law` reads off the same partition-sum program
as `wlancell.topology.partition_sum`.  Inputs are checked at the public
functions; the solver's own iterates lie in range by construction, so
it runs the unchecked internals.
The kernels over the enumerated states (`stationary_distribution`,
`collision_probabilities`, `unblocked_fractions_direct`) are the
cross-check: both routes agree to near machine precision.  The kernels
are array algebra over the states' bitmasks.  Their products run in
ascending cell order, as a walk over the states would, and every sum is
`math.fsum`, which rounds the exact sum once whatever the order of its
terms; so they are bit for bit the per-state sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from . import dcf
from .errors import BudgetExceededError, ConfigError
from .topology import (MAX_CELLS, CellSpec, ContentionGraph,
                       IndependentSetFamily, _partition_sums, bits,
                       check_weights)

_TRAFFIC_MODES = ("saturated", "tcp_download")

#: Below this much stationary probability of ever being in backoff, a cell
#: is reported as starved and its collision probability pinned to 1.
STARVATION_FLOOR = 1e-300

#: Fixed column order of per-cell result tables (CSV and markdown).
#: ``theta_cell`` is aggregate packets/s for the cell, ``theta_node`` is
#: per station (in tcp_download mode: the AP downlink rate).  ``x_inf``
#: and ``theta_node_inf`` are the heavy-load limits of ``x`` and
#: ``theta_node``.
CSV_COLUMNS = ("id", "n_nodes", "beta", "gamma", "x", "theta_cell",
               "theta_node", "x_inf", "theta_node_inf")


@dataclass(frozen=True)
class MultiCellProblem:
    """A contention graph, its cells, MAC timing, and the traffic model.

    ``graph`` should be the logical (co-channel) graph; pass the physical
    graph unchanged for a single-channel deployment.  ``tcp_download``
    replaces each cell with its two-contender saturated equivalent before
    solving (see `wlancell.dcf.tcp_equivalent_cell`).
    """

    graph: ContentionGraph
    cells: tuple[CellSpec, ...]
    mac: dcf.MacParams = field(default_factory=dcf.MacParams)
    traffic_mode: str = "saturated"

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        if self.traffic_mode not in _TRAFFIC_MODES:
            raise ConfigError(
                f"traffic_mode must be one of {_TRAFFIC_MODES}")
        ids = [c.id for c in self.cells]
        if ids != list(range(1, len(self.cells) + 1)):
            raise ConfigError("cells must be sorted with contiguous ids from 1")
        if self.graph.n_cells != len(self.cells):
            raise ConfigError(
                f"graph has {self.graph.n_cells} cells, got "
                f"{len(self.cells)} cell specs")


@dataclass(frozen=True)
class FixedPointSolution:
    """Converged operating point of a multi-cell problem.

    All per-cell tuples are aligned with cell ids 1..N.  ``x`` is the
    fraction of time a cell is active or in backoff (i.e. not blocked by a
    neighbour); ``theta_cell`` is ``x`` times ``standalone``, the cell's
    throughput alone.  ``starved`` marks cells whose backoff occupancy
    fell below the starvation floor, for which ``gamma`` is 1.
    """

    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    lam: tuple[float, ...]
    mu_inv: tuple[float, ...]
    rho: tuple[float, ...]
    x: tuple[float, ...]
    theta_cell: tuple[float, ...]
    theta_node: tuple[float, ...]
    standalone: tuple[float, ...]
    theta_bar: float
    iterations: int
    residual: float
    starved: tuple[bool, ...]


def effective_configuration(problem: MultiCellProblem
                            ) -> tuple[tuple[CellSpec, ...], dcf.MacParams]:
    """Cells and MAC parameters actually solved, after traffic-mode rewriting."""
    if problem.traffic_mode == "saturated":
        return problem.cells, problem.mac
    n_eff, mac_eff = dcf.tcp_equivalent_cell(problem.mac)
    cells = tuple(replace(c, n_nodes=n_eff) for c in problem.cells)
    return cells, mac_eff


def activation_rate(beta: float, n_nodes: int, slot_time: float) -> float:
    """Rate (1/s) at which an unblocked cell starts a channel occupation.

    Per idle slot, the cell grabs the channel when at least one of its
    ``n_nodes`` stations attempts.
    """
    if n_nodes < 1:
        raise ConfigError(f"need at least one station, got {n_nodes}")
    return (1.0 - (1.0 - beta) ** n_nodes) / slot_time


def mean_active_duration(beta: float, n_nodes: int,
                         t_success: float, t_collision: float) -> float:
    """Mean length (s) of one channel occupation by a cell.

    The occupation is a success when exactly one of the cell's stations
    attempted, a collision otherwise.  At ``beta == 0`` occupations are
    vanishingly rare but all successful, so the mean is ``t_success``.
    """
    if n_nodes < 1:
        raise ConfigError(f"need at least one station, got {n_nodes}")
    if beta == 0.0:
        return t_success
    p_any = 1.0 - (1.0 - beta) ** n_nodes
    p_succ = n_nodes * beta * (1.0 - beta) ** (n_nodes - 1) / p_any
    return p_succ * t_success + (1.0 - p_succ) * t_collision


def _bit_matrix(masks: Sequence[int], n: int):
    """``(n, S)`` boolean array whose row ``k`` marks the masks that hold
    bit ``k`` (cell ``k + 1``), for ``n`` up to 64 cells."""
    import numpy as np

    # one row per byte of the little-endian words, then one per bit
    octets = np.array(masks, dtype="<u8").view(np.uint8).reshape(-1, 8).T
    return np.unpackbits(octets.copy(), axis=0, count=n,
                         bitorder="little").view(bool)


def _state_probabilities(family: IndependentSetFamily,
                         pi: Mapping[frozenset[int], float]):
    """``pi`` as an array aligned with ``family.states``."""
    import numpy as np

    return np.fromiter(map(pi.__getitem__, family.states), dtype=float,
                       count=len(family.states))


def stationary_distribution(family: IndependentSetFamily,
                            rho: Sequence[float]
                            ) -> dict[frozenset[int], float]:
    """Product-form stationary law over the independent-set states.

    Each state's weight is the product of its members' occupation ratios,
    multiplied in ascending cell order; weights are normalised with
    compensated summation.  ``rho`` is aligned with
    ``family.graph.vertices`` and checked by
    `wlancell.topology.check_weights`.  Raises ConfigError when the
    weights overflow.
    """
    import numpy as np

    check_weights(family.graph, rho)
    members = _bit_matrix(family.masks, len(rho))
    weights = np.ones(len(family.masks))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, r in enumerate(rho):
            weights = np.where(members[k], weights * r, weights)
    try:
        z = math.fsum(memoryview(weights))
    except OverflowError:
        z = math.inf
    # an overflowed weight is inf, or nan once multiplied by a zero ratio
    if not math.isfinite(z):
        raise ConfigError("occupation ratios overflow the state weights")
    return dict(zip(family.states, (weights / z).tolist()))


def collision_probabilities(family: IndependentSetFamily,
                            pi: Mapping[frozenset[int], float],
                            beta: Sequence[float],
                            cells: Sequence[CellSpec]
                            ) -> tuple[tuple[float, ...], tuple[bool, ...]]:
    """Per-cell conditional collision probability, plus starvation flags.

    Conditioned on the cell being in backoff, an attempt collides unless
    every other station in the cell stays quiet *and* every neighbouring
    cell that is also in backoff stays quiet for that slot.  Cells whose
    probability of ever being in backoff is below the starvation floor get
    ``gamma = 1`` and a True flag.  Per cell, the states where it is in
    backoff are selected at once; neighbour silences multiply in
    ascending cell order.
    """
    import numpy as np

    verts = family.graph.vertices
    nbr = family.graph.nbr_masks
    n_by_id = {c.id: c.n_nodes for c in cells}
    n_nodes = [n_by_id[v] for v in verts]
    silent_own = [(1.0 - b) ** (n - 1) for b, n in zip(beta, n_nodes)]
    silent_cell = [(1.0 - b) ** n for b, n in zip(beta, n_nodes)]
    p = _state_probabilities(family, pi)
    backoff = _bit_matrix(family.free, len(verts))
    gammas, starved = [], []
    for k in range(len(verts)):
        rows = backoff[k]
        p_k = p[rows]
        den = math.fsum(memoryview(p_k))
        starved.append(den < STARVATION_FLOOR)
        if starved[-1]:
            gammas.append(1.0)
            continue
        silent_nbrs = np.ones(len(p_k))
        for j in bits(nbr[k]):
            silent_nbrs = np.where(backoff[j][rows],
                                   silent_nbrs * silent_cell[j], silent_nbrs)
        num = p_k * (1.0 - silent_own[k] * silent_nbrs)
        gammas.append(math.fsum(memoryview(num)) / den)
    return tuple(gammas), tuple(starved)


def unblocked_fractions_direct(family: IndependentSetFamily,
                               pi: Mapping[frozenset[int], float]
                               ) -> tuple[float, ...]:
    """Fraction of time each cell is active or in backoff, from ``pi``."""
    n = len(family.graph.vertices)
    p = _state_probabilities(family, pi)
    unblocked = _bit_matrix(family.masks, n) | _bit_matrix(family.free, n)
    return tuple(math.fsum(memoryview(p[rows])) for rows in unblocked)


def evaluate_law(graph: ContentionGraph, beta: Sequence[float],
                 rho: Sequence[float], cells: Sequence[CellSpec]
                 ) -> tuple[tuple[float, ...], tuple[bool, ...],
                            tuple[float, ...]]:
    """What the solver reads off the stationary law at ``beta``, ``rho``.

    Returns ``(gamma, starved, x)`` as ratios of partition sums, without
    the state enumeration.  Cell ``k`` is in backoff exactly in the
    states drawn from ``m_k``, the cells that are neither ``k`` nor its
    neighbours, so its backoff mass is ``Z(m_k) / Z`` and
    ``x_k = (1 + rho_k) * Z(m_k) / Z``.  Below `STARVATION_FLOOR` of
    backoff mass the cell is starved and ``gamma_k = 1``; otherwise
    ``gamma_k = H_k(m_k) / Z(m_k)``, where ``H_k`` branches like ``Z``,
    tracking which of ``k``'s neighbours the chosen cells block, and ends
    in `collision_probabilities`' per-state term.  Every weight is
    positive, so no digits cancel.  Both sums run programs compiled once
    per graph (`ContentionGraph.partition_program` and
    `collision_program`), so later calls on the same graph object only
    rerun them.  ``beta`` and ``rho`` are aligned with ``graph.vertices``
    and ``rho`` is checked by `wlancell.topology.check_weights`;
    ``cells`` give the station counts by id.
    """
    check_weights(graph, rho)
    n_by_id = {c.id: c.n_nodes for c in cells}
    return _evaluate_law(graph, beta, rho,
                         [n_by_id[v] for v in graph.vertices])


def _evaluate_law(graph: ContentionGraph, beta: Sequence[float],
                  rho: Sequence[float], n_nodes: Sequence[int]
                  ) -> tuple[tuple[float, ...], tuple[bool, ...],
                             tuple[float, ...]]:
    """`evaluate_law` on unchecked ``rho``, with the station counts
    aligned with ``graph.vertices``."""
    z = _partition_sums(graph, rho)
    z_roots = graph.partition_program.roots
    z_full = z[z_roots[0]]
    silent_own = [(1.0 - b) ** (n - 1) for b, n in zip(beta, n_nodes)]
    silent_cell = [(1.0 - b) ** n for b, n in zip(beta, n_nodes)]
    silence = silent_cell.__getitem__
    program = graph.collision_program
    # each leaf ends in the kernel's term, neighbour silences ascending
    h = program.run([1.0 - silent_own[k] * math.prod(map(silence, js))
                     for k, js in program.leaves], rho)
    gamma, starved, x = [], [], []
    for k, (z_root, h_root) in enumerate(zip(z_roots[1:], program.roots)):
        z_k = z[z_root]
        # a fraction of time, but rounding can lift the ratio an ulp above
        # 1 (for a cell without neighbours it is exactly 1)
        x.append(min(1.0, (1.0 + rho[k]) * z_k / z_full))
        starved.append(z_k / z_full < STARVATION_FLOOR)
        gamma.append(1.0 if starved[-1] else h[h_root] / z_k)
    return tuple(gamma), tuple(starved), tuple(x)


def cell_throughputs(x: Sequence[float], cells: Sequence[CellSpec],
                     mac: dcf.MacParams
                     ) -> tuple[tuple[float, ...], tuple[float, ...],
                                tuple[float, ...]]:
    """Scale standalone cell throughputs by the unblocked fractions.

    Returns ``(theta_cell, theta_node, standalone)`` in packets per
    second: per cell, per node (of the cell's stations), and alone, from
    one single-cell solve per distinct station count.
    """
    by_n = {n: dcf.single_cell_fixed_point(n, mac).throughput_pps
            for n in {c.n_nodes for c in cells}}
    standalone = tuple(by_n[c.n_nodes] for c in cells)
    theta_cell = tuple(xi * s for xi, s in zip(x, standalone))
    theta_node = tuple(t / c.n_nodes for t, c in zip(theta_cell, cells))
    return theta_cell, theta_node, standalone


def large_rho_limits(graph: ContentionGraph
                     ) -> tuple[tuple[float, ...], float]:
    """Heavy-load limits: per-cell unblocked fractions and their sum.

    As occupation ratios grow without bound the stationary law
    concentrates on the maximum independent sets, so each cell's unblocked
    fraction tends to the share of maximum independent sets containing it,
    and the network-wide sum tends to the independence number.
    """
    full = (1 << len(graph.vertices)) - 1
    alpha, eta, eta_i = graph.maximum_set_profile(full)
    return tuple(ei / eta for ei in eta_i), float(alpha)


def jain_fairness(x: Sequence[float]) -> float:
    """Jain's fairness index of a non-negative allocation.

    ``(sum x)**2 / (N * sum x**2)``; 1 means perfectly even.  The all-zero
    allocation is degenerate and reported as 1 by convention.
    """
    if not x:
        raise ConfigError("empty allocation")
    square_sum = math.fsum(v * v for v in x)
    if square_sum == 0.0:
        return 1.0
    total = math.fsum(x)
    return total * total / (len(x) * square_sum)


def solve_fixed_point(problem: MultiCellProblem) -> FixedPointSolution:
    """Solve the coupled attempt/collision fixed point for a network.

    `wlancell.dcf._damped_iteration` on the per-cell attempt
    probabilities from the collision-free value, under the single-cell
    solver's policy (`wlancell.dcf.DAMPING`, `TOL` and `MAX_ITER`).
    Networks of more than `MAX_CELLS` cells raise BudgetExceededError.
    """
    if len(problem.cells) > MAX_CELLS:
        raise BudgetExceededError(
            f"{len(problem.cells)} cells exceeds the limit of {MAX_CELLS}")
    cells, mac = effective_configuration(problem)
    t_success, t_collision = dcf.frame_durations(mac)
    sigma = mac.slot_time
    n_nodes = [c.n_nodes for c in cells]

    def rates(beta: Sequence[float]):
        lam = tuple(activation_rate(b, n, sigma)
                    for b, n in zip(beta, n_nodes))
        mu_inv = tuple(mean_active_duration(b, n, t_success, t_collision)
                       for b, n in zip(beta, n_nodes))
        rho = tuple(l * m for l, m in zip(lam, mu_inv))
        return lam, mu_inv, rho

    backoffs = dcf.mean_backoffs(mac)

    def target(beta: tuple[float, ...]) -> list[float]:
        # rho and gamma lie in range by construction: no checks
        _, _, rho = rates(beta)
        gamma, _, _ = _evaluate_law(problem.graph, beta, rho, n_nodes)
        return [dcf._attempt_prob(g, backoffs) for g in gamma]

    beta, iterations, residual = dcf._damped_iteration(
        target, (dcf._attempt_prob(0.0, backoffs),) * len(cells),
        "multi-cell fixed point")
    lam, mu_inv, rho = rates(beta)
    gamma, starved, x = _evaluate_law(problem.graph, beta, rho, n_nodes)
    theta_cell, theta_node, standalone = cell_throughputs(x, cells, mac)
    return FixedPointSolution(
        beta=beta, gamma=gamma, lam=lam, mu_inv=mu_inv, rho=rho, x=x,
        theta_cell=theta_cell, theta_node=theta_node,
        standalone=standalone, theta_bar=math.fsum(x),
        iterations=iterations, residual=residual, starved=starved)


def solution_rows(problem: MultiCellProblem,
                  solution: FixedPointSolution) -> list[dict]:
    """Per-cell result rows in `CSV_COLUMNS` order (as a list of dicts)."""
    cells, _ = effective_configuration(problem)
    x_inf, _ = large_rho_limits(problem.graph)
    rows = []
    for k, cell in enumerate(cells):
        n = cell.n_nodes
        rows.append({
            "id": cell.id,
            "n_nodes": n,
            "beta": solution.beta[k],
            "gamma": solution.gamma[k],
            "x": solution.x[k],
            "theta_cell": solution.theta_cell[k],
            "theta_node": solution.theta_node[k],
            "x_inf": x_inf[k],
            "theta_node_inf": x_inf[k] * (solution.standalone[k] / n),
        })
    return rows


def solution_summary(problem: MultiCellProblem,
                     solution: FixedPointSolution) -> dict:
    """Network-level scalars: total unblocked share, fairness, MIS stats."""
    graph = problem.graph
    alpha, eta = graph.maximum_sets((1 << len(graph.vertices)) - 1)
    return {
        "theta_bar": solution.theta_bar,
        "jain_fairness": jain_fairness(solution.x),
        "alpha": alpha,
        "eta": eta,
        "iterations": solution.iterations,
        "residual": solution.residual,
        "n_starved": sum(solution.starved),
    }
