"""Event-driven simulation of the cell-activity process.

An independent check on the analytical stationary law: cells are simulated
directly as a continuous-time process on the independent sets of the
contention graph.  A cell with no active neighbour activates after an
exponential race at its activation rate; an active cell holds the channel
for a random occupation time and then releases it.  Time-weighted state
occupancies (after discarding a warm-up prefix) estimate the stationary
distribution and the per-cell unblocked fractions.

Occupation times can be exponential or deterministic with the same mean;
the stationary law is insensitive to that choice, and the simulator exists
partly to demonstrate it.  Collision probabilities are *not* observable
here: the simulation works at the granularity of whole channel
occupations, not individual slots.

Reproducibility: one root seed fans out into independent substreams (one
for the activation race, one per cell for occupation times), so runs are
bit-identical for a fixed seed and configuration.  numpy, for those
generators, is imported inside `simulate` and `simulate_replicated`, so
loading this module does not load it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Mapping, Sequence

from .errors import BudgetExceededError, ConfigError, check_number
from .topology import ContentionGraph, bits

_DISTRIBUTIONS = ("exponential", "deterministic")

#: Most events one `simulate` or `simulate_replicated` call may expect,
#: counted as horizon x runs x (sum of activation + release rates).  That
#: rate sum bounds the event rate in every state.
MAX_SIM_EVENTS = 10**9


@dataclass(frozen=True)
class SimConfig:
    """Simulation horizon (seconds), seed, warm-up share, and holding law."""

    horizon: float
    seed: int = 0
    warmup_fraction: float = 0.1
    active_time_distribution: str = "exponential"

    def __post_init__(self) -> None:
        if check_number(self.horizon, "horizon") <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if check_number(self.seed, "seed", integer=True) < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must lie in [0, 1)")
        if self.active_time_distribution not in _DISTRIBUTIONS:
            raise ConfigError(
                f"active_time_distribution must be one of {_DISTRIBUTIONS}")


@dataclass(frozen=True)
class SimEstimate:
    """Time-weighted estimates from one run (or averaged replications)."""

    pi_hat: Mapping[frozenset[int], float]
    x_hat: tuple[float, ...]
    total_events: int


@dataclass(frozen=True)
class ReplicatedEstimate:
    """Replication average plus across-replication standard errors."""

    mean: SimEstimate
    pi_se: Mapping[frozenset[int], float]
    x_se: tuple[float, ...]
    n_reps: int


def rates_from_solution(solution) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Activation and release rates implied by a fixed-point solution."""
    lam = tuple(solution.lam)
    mu = tuple(1.0 / m for m in solution.mu_inv)
    return lam, mu


def _check_event_budget(lam: Sequence[float], mu: Sequence[float],
                        horizon: float, runs: int) -> None:
    """Raise BudgetExceededError if the runs could exceed `MAX_SIM_EVENTS`."""
    rate = math.fsum(lam) + math.fsum(mu)
    bound = horizon * runs * rate
    if bound > MAX_SIM_EVENTS:
        raise BudgetExceededError(
            f"{runs} run(s) of {horizon:g} s at up to {rate:.4g} events/s "
            f"may take {bound:.3g} events, more than {MAX_SIM_EVENTS:,}")


def simulate(graph: ContentionGraph, lam: Sequence[float],
             mu: Sequence[float], cfg: SimConfig) -> SimEstimate:
    """Run one trajectory and return time-weighted occupancy estimates.

    ``lam`` and ``mu`` are per-cell activation and release *rates* (1/s),
    aligned with ``graph.vertices``.  Raises if the process reaches a state
    with no possible event before the horizon, and BudgetExceededError,
    before any event, if it may take more than `MAX_SIM_EVENTS` events.
    """
    verts = graph.vertices
    n = len(verts)
    if len(lam) != n or len(mu) != n:
        raise ConfigError("lam and mu must align with the graph vertices")
    if any(l < 0 for l in lam):
        raise ConfigError("activation rates must be non-negative")
    if any(m <= 0 for m in mu):
        raise ConfigError("release rates must be positive")
    _check_event_budget(lam, mu, cfg.horizon, 1)
    import numpy as np

    nbr_mask = graph.nbr_masks
    full_mask = (1 << n) - 1

    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(n + 1)
    race = np.random.default_rng(children[0])
    cell_rng = [np.random.default_rng(c) for c in children[1:]]

    # Per-state lookups, built lazily: the reachable states are few, the
    # events are many.
    state_info: dict[int, tuple] = {}

    def info(state: int):
        cached = state_info.get(state)
        if cached is not None:
            return cached
        blocked = 0
        for k in bits(state):
            blocked |= nbr_mask[k]
        free_bits = list(bits(full_mask & ~state & ~blocked))
        cum = list(accumulate(lam[k] for k in free_bits))
        total = cum[-1] if cum else 0.0
        cached = (total, free_bits, cum, list(bits(full_mask & ~blocked)))
        state_info[state] = cached
        return cached

    deterministic = cfg.active_time_distribution == "deterministic"
    warmup_end = cfg.warmup_fraction * cfg.horizon
    occupancy: dict[int, float] = {}
    x_time = [0.0] * n
    departures: dict[int, float] = {}
    state = 0
    t = 0.0
    events = 0
    while True:
        act_rate, free_bits, cum, unblocked_bits = info(state)
        if act_rate > 0.0:
            t_act = t + race.exponential(1.0 / act_rate)
        else:
            t_act = math.inf
        if departures:
            k_dep = min(departures, key=departures.__getitem__)
            t_dep = departures[k_dep]
        else:
            t_dep = math.inf
        t_next = min(t_act, t_dep)
        if math.isinf(t_next):
            raise RuntimeError(
                f"simulation stalled: no possible event in state {state:b}")
        segment_end = min(t_next, cfg.horizon)
        lo = max(t, warmup_end)
        if segment_end > lo:
            dt = segment_end - lo
            occupancy[state] = occupancy.get(state, 0.0) + dt
            for k in unblocked_bits:
                x_time[k] += dt
        if t_next >= cfg.horizon:
            break
        t = t_next
        events += 1
        if t_act <= t_dep:
            target = race.random() * act_rate
            k = free_bits[min(bisect_right(cum, target), len(cum) - 1)]
            state |= 1 << k
            mean = 1.0 / mu[k]
            dur = mean if deterministic else cell_rng[k].exponential(mean)
            departures[k] = t + dur
        else:
            state &= ~(1 << k_dep)
            del departures[k_dep]

    span = cfg.horizon - warmup_end
    pi_hat = {frozenset(verts[k] for k in bits(mask)): w / span
              for mask, w in occupancy.items()}
    x_hat = tuple(w / span for w in x_time)
    return SimEstimate(pi_hat=pi_hat, x_hat=x_hat, total_events=events)


def simulate_replicated(graph: ContentionGraph, lam: Sequence[float],
                        mu: Sequence[float], cfg: SimConfig,
                        n_reps: int) -> ReplicatedEstimate:
    """Average independent replications and report standard errors.

    Replication seeds are derived deterministically from ``cfg.seed``;
    states never visited by a replication contribute zero occupancy to it.
    The `MAX_SIM_EVENTS` budget covers all ``n_reps`` runs together.
    """
    if n_reps < 2:
        raise ConfigError("need at least two replications for an SE")
    _check_event_budget(lam, mu, cfg.horizon, n_reps)
    import numpy as np

    rep_seeds = np.random.SeedSequence(cfg.seed).generate_state(
        n_reps, dtype=np.uint64)
    runs = [simulate(graph, lam, mu, replace(cfg, seed=int(s)))
            for s in rep_seeds]
    all_states = sorted({s for run in runs for s in run.pi_hat},
                        key=lambda s: (len(s), tuple(sorted(s))))
    pi_mean = {}
    pi_se = {}
    for state in all_states:
        vals = np.array([run.pi_hat.get(state, 0.0) for run in runs])
        pi_mean[state] = float(vals.mean())
        pi_se[state] = float(vals.std(ddof=1) / math.sqrt(n_reps))
    x_arr = np.array([run.x_hat for run in runs])
    x_mean = tuple(float(v) for v in x_arr.mean(axis=0))
    x_se = tuple(float(v) for v in x_arr.std(axis=0, ddof=1) / math.sqrt(n_reps))
    total = sum(run.total_events for run in runs)
    return ReplicatedEstimate(
        mean=SimEstimate(pi_hat=pi_mean, x_hat=x_mean, total_events=total),
        pi_se=pi_se, x_se=x_se, n_reps=n_reps)
