"""Session-wide solved fixtures.

Solving a fixed point dominates the suite's runtime, so every topology
that more than one test file needs is solved once here and shared.
"""

from typing import NamedTuple

import pytest

from wlancell import fixtures, multicell
from wlancell.multicell import FixedPointSolution, MultiCellProblem
from wlancell.topology import CellSpec, ParsedTopology, enumerate_state_space


class Solved(NamedTuple):
    parsed: ParsedTopology
    problem: MultiCellProblem
    solution: FixedPointSolution


def solve_fixture(name: str, traffic_mode: str = "saturated") -> Solved:
    parsed = fixtures.load(name)
    problem = MultiCellProblem(graph=parsed.graph, cells=parsed.cells,
                               traffic_mode=traffic_mode)
    return Solved(parsed, problem, multicell.solve_fixed_point(problem))


def stationary_law(solved: Solved):
    """``(family, pi)``: the enumerated states of a solved topology and
    the stationary law over them at the solved occupation ratios."""
    family = enumerate_state_space(solved.problem.graph)
    return family, multicell.stationary_distribution(family,
                                                     solved.solution.rho)


def closed_form_x(graph, rho) -> tuple[float, ...]:
    """Theorem 1's unblocked fractions, as `multicell.evaluate_law`
    reads them off the partition sums (``beta`` plays no part in them)."""
    cells = [CellSpec(id=v) for v in graph.vertices]
    _, _, x = multicell.evaluate_law(graph, [0.0] * len(cells), rho, cells)
    return x


@pytest.fixture(scope="session")
def path4_sat() -> Solved:
    return solve_fixture("path4")


@pytest.fixture(scope="session")
def path5_sat() -> Solved:
    return solve_fixture("path5")


@pytest.fixture(scope="session")
def hex7_sat() -> Solved:
    return solve_fixture("hex7")


@pytest.fixture(scope="session")
def arb7_sat() -> Solved:
    return solve_fixture("arbitrary7")


@pytest.fixture(scope="session")
def grid12_sat() -> Solved:
    return solve_fixture("grid12")


@pytest.fixture(scope="session")
def path4_tcp() -> Solved:
    return solve_fixture("path4", "tcp_download")


@pytest.fixture(scope="session")
def path5_tcp() -> Solved:
    return solve_fixture("path5", "tcp_download")


@pytest.fixture(scope="session")
def arb7_tcp() -> Solved:
    return solve_fixture("arbitrary7", "tcp_download")


@pytest.fixture(scope="session")
def all_sat(path4_sat, path5_sat, hex7_sat, arb7_sat, grid12_sat):
    """Every built-in fixture solved under saturated traffic, by name."""
    return {
        "path4": path4_sat,
        "path5": path5_sat,
        "hex7": hex7_sat,
        "arbitrary7": arb7_sat,
        "grid12": grid12_sat,
    }
