"""Event-driven simulation against exact stationary laws."""

import math

import pytest

from wlancell import ctmc
from wlancell.ctmc import SimConfig
from wlancell.errors import BudgetExceededError, ConfigError
from wlancell.topology import ContentionGraph

SINGLE = ContentionGraph(n_cells=1, edges=frozenset())
PAIR = ContentionGraph(n_cells=2, edges=frozenset({(1, 2)}))


@pytest.mark.parametrize("kwargs", [
    {"horizon": 0.0},
    {"horizon": math.nan},
    {"horizon": math.inf},
    {"horizon": 10.0, "warmup_fraction": 1.0},
    {"horizon": 10.0, "warmup_fraction": -0.1},
    {"horizon": 10.0, "active_time_distribution": "pareto"},
    {"horizon": 10.0, "seed": -1},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)


def test_rates_from_solution(path4_sat):
    lam, mu = ctmc.rates_from_solution(path4_sat.solution)
    assert lam == path4_sat.solution.lam
    assert mu == tuple(1.0 / m for m in path4_sat.solution.mu_inv)


def test_single_cell_half_occupancy():
    # lambda = mu: the cell alternates idle/active with equal mean times
    est = ctmc.simulate(SINGLE, (1.0,), (1.0,), SimConfig(horizon=4000.0, seed=7))
    assert est.total_events > 3000
    assert abs(est.pi_hat[frozenset({1})] - 0.5) < 0.02
    # a lone cell is never blocked
    assert est.x_hat[0] == pytest.approx(1.0, rel=1e-9)
    assert math.fsum(est.pi_hat.values()) == pytest.approx(1.0, rel=1e-9)


def test_two_cell_equal_rates_give_equal_thirds():
    est = ctmc.simulate(PAIR, (1.0, 1.0), (1.0, 1.0),
                        SimConfig(horizon=3000.0, seed=11))
    for state in (frozenset(), frozenset({1}), frozenset({2})):
        assert abs(est.pi_hat[state] - 1 / 3) < 0.03
    for x in est.x_hat:
        assert abs(x - 2 / 3) < 0.03


def test_deterministic_occupations_leave_the_law_unchanged():
    exp = ctmc.simulate(PAIR, (1.0, 1.0), (1.0, 1.0),
                        SimConfig(horizon=3000.0, seed=11))
    det = ctmc.simulate(PAIR, (1.0, 1.0), (1.0, 1.0),
                        SimConfig(horizon=3000.0, seed=11,
                                  active_time_distribution="deterministic"))
    for state in (frozenset(), frozenset({1}), frozenset({2})):
        assert abs(det.pi_hat[state] - 1 / 3) < 0.03
    for a, b in zip(det.x_hat, exp.x_hat):
        assert abs(a - b) < 0.03


def test_fixed_seed_reproduces_the_run():
    cfg = SimConfig(horizon=200.0, seed=3)
    a = ctmc.simulate(PAIR, (1.0, 1.0), (1.0, 1.0), cfg)
    b = ctmc.simulate(PAIR, (1.0, 1.0), (1.0, 1.0), cfg)
    assert a.pi_hat == b.pi_hat
    assert a.x_hat == b.x_hat
    assert a.total_events == b.total_events
    c = ctmc.simulate(PAIR, (1.0, 1.0), (1.0, 1.0),
                      SimConfig(horizon=200.0, seed=4))
    assert c.pi_hat != a.pi_hat


def test_simulation_at_solved_rates_tracks_the_model(path4_sat):
    lam, mu = ctmc.rates_from_solution(path4_sat.solution)
    est = ctmc.simulate(path4_sat.parsed.graph, lam, mu,
                        SimConfig(horizon=2.0, seed=5))
    assert math.fsum(est.pi_hat.values()) == pytest.approx(1.0, rel=1e-9)
    for sim, model in zip(est.x_hat, path4_sat.solution.x):
        assert abs(sim - model) < 0.05


def test_stall_without_possible_events():
    with pytest.raises(RuntimeError, match="stalled"):
        ctmc.simulate(SINGLE, (0.0,), (1.0,), SimConfig(horizon=1.0))


def test_rate_validation():
    cfg = SimConfig(horizon=1.0)
    with pytest.raises(ConfigError):
        ctmc.simulate(PAIR, (1.0,), (1.0, 1.0), cfg)
    with pytest.raises(ConfigError):
        ctmc.simulate(PAIR, (-1.0, 1.0), (1.0, 1.0), cfg)
    with pytest.raises(ConfigError):
        ctmc.simulate(PAIR, (1.0, 1.0), (1.0, 0.0), cfg)


def test_event_budget_is_checked_before_the_first_event(monkeypatch):
    # the rates sum to 4 per second, so the budget of 1e9 events is
    # 2.5e8 s of one run or 2.5e7 s of ten; a run that reached its first
    # event would fail on the missing `bits`
    monkeypatch.setattr(ctmc, "bits", None)
    with pytest.raises(BudgetExceededError, match="1,000,000,000"):
        ctmc.simulate(PAIR, (1.0, 1.0), (1.0, 1.0),
                      SimConfig(horizon=2.6e8))
    with pytest.raises(BudgetExceededError, match="10 run"):
        ctmc.simulate_replicated(PAIR, (1.0, 1.0), (1.0, 1.0),
                                 SimConfig(horizon=2.6e7), 10)
    ctmc._check_event_budget((1.0, 1.0), (1.0, 1.0), 2.5e7, 10)  # allowed


def test_replications_need_at_least_two():
    with pytest.raises(ConfigError):
        ctmc.simulate_replicated(PAIR, (1.0, 1.0), (1.0, 1.0),
                                 SimConfig(horizon=10.0), 1)


def test_replicated_estimate_shape():
    rep = ctmc.simulate_replicated(PAIR, (1.0, 1.0), (1.0, 1.0),
                                   SimConfig(horizon=300.0, seed=0), 3)
    assert rep.n_reps == 3
    assert math.fsum(rep.mean.pi_hat.values()) == pytest.approx(1.0, rel=1e-9)
    assert all(se >= 0.0 for se in rep.pi_se.values())
    assert len(rep.x_se) == 2
    assert rep.mean.total_events > 0
    for x, se in zip(rep.mean.x_hat, rep.x_se):
        assert abs(x - 2 / 3) < 5 * max(se, 1e-3)
