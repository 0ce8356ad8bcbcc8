"""Cell-level performance model and channel assignment for CSMA/CA WLANs.

The package models a network of 802.11 cells whose mutual carrier sensing
is captured by a contention graph.  Starting from the classical saturated
single-cell fixed point (`wlancell.dcf`), it couples the cells through a
product-form stationary law on the independent sets of the graph
(`wlancell.multicell`), validates that law by event-driven simulation
(`wlancell.ctmc`), and optimises channel assignments against the
heavy-load utility it induces (`wlancell.assign`).  Benchmark topologies
live in `wlancell.fixtures`; the ``wlancell`` command exposes everything
from the shell (`wlancell.cli`).
"""

from .assign import (ChannelAssignment, LAState, exhaustive_search,
                     infinite_load_profile, is_nash_equilibrium, lri_step,
                     misa, run_lri, utility_theta_bar)
from .ctmc import SimConfig, SimEstimate, simulate, simulate_replicated
from .dcf import (MacParams, SingleCellResult, single_cell_fixed_point,
                  tcp_equivalent_cell)
from .errors import BudgetExceededError, ConfigError, ConvergenceError
from .multicell import (FixedPointSolution, MultiCellProblem, jain_fairness,
                        large_rho_limits, solve_fixed_point,
                        stationary_distribution)
from .topology import (CellSpec, ContentionGraph, IndependentSetFamily,
                       build_physical_graph, enumerate_state_space,
                       logical_graph, parse_topology)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CellSpec",
    "ChannelAssignment",
    "ConfigError",
    "ContentionGraph",
    "ConvergenceError",
    "FixedPointSolution",
    "IndependentSetFamily",
    "LAState",
    "MacParams",
    "MultiCellProblem",
    "SimConfig",
    "SimEstimate",
    "SingleCellResult",
    "build_physical_graph",
    "enumerate_state_space",
    "exhaustive_search",
    "infinite_load_profile",
    "is_nash_equilibrium",
    "jain_fairness",
    "large_rho_limits",
    "logical_graph",
    "lri_step",
    "misa",
    "parse_topology",
    "run_lri",
    "simulate",
    "simulate_replicated",
    "single_cell_fixed_point",
    "solve_fixed_point",
    "stationary_distribution",
    "tcp_equivalent_cell",
    "utility_theta_bar",
    "__version__",
]
