"""Command-line front end.

Five subcommands, one per workflow:

* ``analyze``   -- solve the multi-cell fixed point for a topology and
                   write per-cell results plus a network summary.
* ``simulate``  -- cross-check the analytical stationary law by event-driven
                   simulation at the solved rates, with standard errors.
* ``assign``    -- pick a channel assignment (greedy peeling, learning
                   automata, or exhaustive search) and report its utility.
* ``sweep``     -- trace how collision probabilities and unblocked
                   fractions move as payload grows (full re-solve per
                   point) or as occupation ratios are scaled toward the
                   heavy-load limit (stationary law only).
* ``fixtures``  -- write the built-in benchmark topologies as JSON, and
                   optionally re-verify the frozen grid12 figures.

Topology input is a JSON file (see `wlancell.topology.parse_topology` for
the schema) or the name of a built-in fixture.  Exit codes: 0 success,
2 configuration error, 3 solver non-convergence, 4 a cell, state or
event (``simulate`` only) or search budget exceeded.  Output files are
deterministic for a given configuration and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

from . import assign as assign_mod
from . import ctmc, dcf, fixtures, multicell, topology
from .errors import BudgetExceededError, ConfigError, ConvergenceError
from .topology import ParsedTopology, parse_topology

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BUDGET = 4

#: Most payload points one ``sweep --sweep payload`` accepts (exit 2).
MAX_SWEEP_POINTS = 100_000

_FIELD_TYPES = {"float": float, "int": int, "str": str}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_csv(path: Path, columns: tuple[str, ...],
               rows: Iterable[Sequence]) -> None:
    """Write ``rows``, each a sequence of values aligned with ``columns``."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_markdown(path: Path, columns: tuple[str, ...],
                    rows: Iterable[Sequence]) -> None:
    lines = ["| " + " | ".join(columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    lines.extend("| " + " | ".join(map(_fmt, row)) + " |" for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_table(outdir: Path, stem: str, fmt: str,
                 columns: tuple[str, ...], rows: list[dict]) -> Path:
    aligned = [[row[c] for c in columns] for row in rows]
    if fmt == "markdown":
        path = outdir / f"{stem}.md"
        _write_markdown(path, columns, aligned)
    else:
        path = outdir / f"{stem}.csv"
        _write_csv(path, columns, aligned)
    return path


def _load_topology(raw_input: str) -> ParsedTopology:
    path = Path(raw_input)
    if path.exists():
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        parsed = parse_topology(raw)
        if parsed.name == "topology":
            parsed = dataclasses.replace(parsed, name=path.stem)
        return parsed
    if raw_input in fixtures.FIXTURE_NAMES:
        return fixtures.load(raw_input)
    raise ConfigError(
        f"{raw_input!r} is neither a file nor a built-in fixture "
        f"(available fixtures: {', '.join(fixtures.FIXTURE_NAMES)})")


def _mac_from_args(parsed: ParsedTopology, args: argparse.Namespace) -> dcf.MacParams:
    mac = dcf.mac_from_dict(dict(parsed.mac) if parsed.mac else {})
    overrides = {}
    for f in dataclasses.fields(dcf.MacParams):
        value = getattr(args, f"mac_{f.name}", None)
        if value is not None:
            overrides[f.name] = value
    return dcf.mac_from_dict(overrides, base=mac)


def _traffic_mode(args: argparse.Namespace) -> str:
    return {"sat": "saturated", "tcp": "tcp_download"}[args.mode]


def _problem(parsed: ParsedTopology, args: argparse.Namespace
             ) -> multicell.MultiCellProblem:
    return multicell.MultiCellProblem(
        graph=parsed.graph, cells=parsed.cells,
        mac=_mac_from_args(parsed, args), traffic_mode=_traffic_mode(args))


_SUMMARY_COLUMNS = ("theta_bar", "jain_fairness", "alpha", "eta",
                    "iterations", "residual", "n_starved")


def cmd_analyze(args: argparse.Namespace) -> int:
    parsed = _load_topology(args.input)
    problem = _problem(parsed, args)
    solution = multicell.solve_fixed_point(problem)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = multicell.solution_rows(problem, solution)
    cells_path = _write_table(outdir, f"{parsed.name}_cells", args.format,
                              multicell.CSV_COLUMNS, rows)
    summary = multicell.solution_summary(problem, solution)
    summary_path = _write_table(outdir, f"{parsed.name}_summary", args.format,
                                _SUMMARY_COLUMNS, [summary])
    print(f"{parsed.name}: {problem.traffic_mode}, "
          f"{len(parsed.cells)} cells, {len(parsed.graph.edges)} edges")
    print(f"  theta_bar={summary['theta_bar']:.6f}  "
          f"jain={summary['jain_fairness']:.6f}  "
          f"alpha={summary['alpha']}  eta={summary['eta']}  "
          f"iterations={summary['iterations']}")
    if summary["n_starved"]:
        starved = [c.id for c, s in zip(parsed.cells, solution.starved) if s]
        print(f"  starved cells: {starved}")
    print(f"  wrote {cells_path} and {summary_path}")
    return EXIT_OK


_SIM_CELL_COLUMNS = ("id", "n_nodes", "x_hat", "x_se", "x_model")
_SIM_STATE_COLUMNS = ("state", "pi_hat", "pi_se", "pi_model")


def _state_label(state: frozenset[int]) -> str:
    return "idle" if not state else "+".join(str(v) for v in sorted(state))


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.replications < 1:
        raise ConfigError(
            f"replications must be at least 1, got {args.replications}")
    parsed = _load_topology(args.input)
    problem = _problem(parsed, args)
    solution = multicell.solve_fixed_point(problem)
    pi = multicell.stationary_distribution(
        topology.enumerate_state_space(parsed.graph), solution.rho)
    lam, mu = ctmc.rates_from_solution(solution)
    cfg = ctmc.SimConfig(horizon=args.horizon, seed=args.seed,
                         warmup_fraction=args.warmup,
                         active_time_distribution=args.active_dist)
    if args.replications >= 2:
        rep = ctmc.simulate_replicated(parsed.graph, lam, mu, cfg,
                                       args.replications)
        estimate, pi_se, x_se = rep.mean, rep.pi_se, rep.x_se
    else:
        estimate = ctmc.simulate(parsed.graph, lam, mu, cfg)
        pi_se = {s: math.nan for s in estimate.pi_hat}
        x_se = tuple(math.nan for _ in estimate.x_hat)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cell_rows = [(cell.id, cell.n_nodes, estimate.x_hat[k], x_se[k],
                  solution.x[k]) for k, cell in enumerate(parsed.cells)]
    cells_path = outdir / f"{parsed.name}_sim_cells.csv"
    _write_csv(cells_path, _SIM_CELL_COLUMNS, cell_rows)

    # pi holds every state a run can visit, by size, then lexicographically
    state_rows = [(_state_label(s), estimate.pi_hat.get(s, 0.0),
                   pi_se.get(s, math.nan), p) for s, p in pi.items()]
    states_path = outdir / f"{parsed.name}_sim_states.csv"
    _write_csv(states_path, _SIM_STATE_COLUMNS, state_rows)

    gap = max(abs(h - m) for h, m in zip(estimate.x_hat, solution.x))
    print(f"{parsed.name}: {estimate.total_events} events over "
          f"{args.replications} run(s), horizon {args.horizon:g}s "
          f"({args.active_dist} occupations)")
    print(f"  max |x_hat - x_model| = {gap:.6f}")
    print(f"  wrote {cells_path} and {states_path}")
    return EXIT_OK


def cmd_assign(args: argparse.Namespace) -> int:
    parsed = _load_topology(args.input)
    physical = parsed.graph
    n_channels = parsed.n_channels if args.channels is None else args.channels
    if n_channels is None:
        raise ConfigError(
            "number of channels not given: pass --channels or add a "
            "'channels' field to the topology")
    if args.utility == "fixed":
        mac = _mac_from_args(parsed, args)
        utility = assign_mod.make_fixed_point_utility(
            parsed.cells, mac, _traffic_mode(args))
    else:
        utility = None

    trace: tuple[float, ...] = ()
    converged = True
    if args.method == "misa":
        order = "random" if args.order == "random" else "lexicographic"
        assignment = assign_mod.misa(physical, n_channels,
                                     order_policy=order, seed=args.seed)
    elif args.method == "lri":
        result = assign_mod.run_lri(
            physical, n_channels, args.lri_b, max_steps=args.steps,
            convergence_threshold=args.threshold, seed=args.seed,
            utility=utility)
        assignment, trace, converged = (result.assignment,
                                        result.utility_trace,
                                        result.converged)
    else:
        assignment, _ = assign_mod.exhaustive_search(
            physical, n_channels, utility=utility, budget=args.budget)

    u_inf = assign_mod.utility_theta_bar(physical, assignment)
    nash = assign_mod.is_nash_equilibrium(physical, assignment)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "name": parsed.name,
        "method": args.method,
        "n_channels": n_channels,
        "channels": list(assignment.channels),
        "utility_inf": u_inf,
        "theta_bar_inf": u_inf * physical.n_cells,
        "nash_equilibrium": nash.is_nash,
        "converged": converged,
    }
    out_path = outdir / f"{parsed.name}_assignment.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    written = [out_path]
    if trace:
        trace_path = outdir / f"{parsed.name}_utrace.csv"
        # a trace repeats a few distinct utilities over many steps, so
        # each is formatted once; the bytes are `_write_csv`'s
        label = {u: _fmt(u) for u in set(trace)}
        trace_path.write_text("step,utility\n" + "".join(
            f"{k},{label[u]}\n" for k, u in enumerate(trace, 1)))
        written.append(trace_path)

    print(f"{parsed.name}: {args.method} over {n_channels} channels -> "
          f"{assignment.channels}")
    print(f"  heavy-load utility {u_inf:.6f} (theta_bar "
          f"{u_inf * physical.n_cells:.6f}), "
          f"nash={'yes' if nash.is_nash else 'no'}, "
          f"converged={'yes' if converged else 'no'}")
    print(f"  wrote {' and '.join(str(p) for p in written)}")
    return EXIT_OK


def _parse_payload_range(text: str) -> range:
    try:
        parts = [int(p) for p in text.split(":")]
    except ValueError as exc:
        raise ConfigError(f"bad payload range {text!r}: {exc}") from exc
    if len(parts) != 3 or parts[0] < 1 or parts[2] < 1 or parts[1] < parts[0]:
        raise ConfigError(
            f"payload range must be min:max:step with min <= max, got {text!r}")
    lo, hi, step = parts
    points = range(lo, hi + 1, step)
    if len(points) > MAX_SWEEP_POINTS:
        raise ConfigError(f"payload range {text!r} has {len(points)} points, "
                          f"more than {MAX_SWEEP_POINTS}")
    return points


def _parse_factors(text: str) -> list[float]:
    try:
        factors = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad factor list {text!r}: {exc}") from exc
    if not factors or not all(0 < f < math.inf for f in factors):
        raise ConfigError("factors must be positive finite numbers")
    return factors


def cmd_sweep(args: argparse.Namespace) -> int:
    parsed = _load_topology(args.input)
    n = len(parsed.cells)
    gamma_cols = tuple(f"gamma_{i}" for i in range(1, n + 1))
    x_cols = tuple(f"x_{i}" for i in range(1, n + 1))
    rows = []
    problem = _problem(parsed, args)
    if args.sweep == "payload":
        sweep_col = "payload_bytes"
        for nbytes in _parse_payload_range(args.payload_bytes):
            mac = dataclasses.replace(problem.mac, payload_bits=8 * nbytes)
            sol = multicell.solve_fixed_point(
                dataclasses.replace(problem, mac=mac))
            row = {sweep_col: nbytes}
            row.update(zip(gamma_cols, sol.gamma))
            row.update(zip(x_cols, sol.x))
            rows.append(row)
    else:
        # Scale the solved occupation ratios toward the heavy-load limit;
        # only the stationary law is recomputed, the attempt probabilities
        # stay at their solved values.
        sol = multicell.solve_fixed_point(problem)
        cells_eff, _ = multicell.effective_configuration(problem)
        sweep_col = "rho_factor"
        for factor in _parse_factors(args.rho_factors):
            rho = tuple(r * factor for r in sol.rho)
            gamma, _, x = multicell.evaluate_law(
                problem.graph, sol.beta, rho, cells_eff)
            row = {sweep_col: factor}
            row.update(zip(gamma_cols, gamma))
            row.update(zip(x_cols, x))
            rows.append(row)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    columns = (sweep_col,) + gamma_cols + x_cols
    path = _write_table(outdir, f"{parsed.name}_sweep_{args.sweep}",
                        args.format, columns, rows)
    print(f"{parsed.name}: swept {args.sweep} over {len(rows)} points")
    print(f"  wrote {path}")
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    written = fixtures.write_fixture_files(outdir)
    for path in written:
        print(f"wrote {path}")
    if not args.verify:
        return EXIT_OK
    failures = 0
    for name in fixtures.FIXTURE_NAMES:
        reparsed = parse_topology(json.loads((outdir / f"{name}.json").read_text()))
        same = reparsed.graph == fixtures.load(name).graph
        print(f"round-trip {name}: {'ok' if same else 'MISMATCH'}")
        failures += 0 if same else 1
    for check, (ok, detail) in fixtures.verify_grid12().items():
        print(f"grid12 {check}: {'ok' if ok else 'FAILED'} ({detail})")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} verification check(s) failed")
        return 1
    print("all fixture checks passed")
    return EXIT_OK


def _add_mac_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "MAC overrides", "override individual MacParams fields")
    for f in dataclasses.fields(dcf.MacParams):
        flag = "--mac-" + f.name.replace("_", "-")
        group.add_argument(flag, type=_FIELD_TYPES.get(f.type, str),
                           default=None, metavar=f.type.upper(),
                           help=f"override {f.name} (default {f.default})")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True,
                        help="topology JSON file or built-in fixture name")
    parser.add_argument("--out", default=".",
                        help="output directory (default: current)")
    parser.add_argument("--mode", choices=("sat", "tcp"), default="sat",
                        help="traffic model: saturated or TCP download")
    _add_mac_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlancell",
        description="Cell-level WLAN contention model and channel assignment")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="solve the multi-cell fixed point")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv",
                   help="table output format")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate",
                       help="validate the stationary law by simulation")
    _add_common(p)
    p.add_argument("--horizon", type=float, default=10.0,
                   help="simulated seconds per replication (default 10)")
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")
    p.add_argument("--warmup", type=float, default=0.1,
                   help="fraction of the horizon discarded (default 0.1)")
    p.add_argument("--active-dist",
                   choices=("exponential", "deterministic"),
                   default="exponential",
                   help="channel occupation time distribution")
    p.add_argument("--replications", type=int, default=5,
                   help="independent replications for standard errors")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("assign", help="choose a channel assignment")
    _add_common(p)
    p.add_argument("--method", choices=("misa", "lri", "exhaustive"),
                   default="misa", help="assignment strategy")
    p.add_argument("--channels", type=int, default=None,
                   help="number of channels (default: topology's)")
    p.add_argument("--lri-b", type=float, default=0.01,
                   help="learning rate for --method lri")
    p.add_argument("--steps", type=int, default=200_000,
                   help="step budget for --method lri (at most "
                        f"{assign_mod.MAX_LRI_STEPS:,})")
    p.add_argument("--threshold", type=float, default=1e-3,
                   help="row purity threshold for LRI convergence")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for lri or random-order misa")
    p.add_argument("--order", choices=("lexicographic", "random"),
                   default="lexicographic",
                   help="admission order for --method misa")
    p.add_argument("--budget", type=int, default=2_000_000,
                   help="candidate budget for --method exhaustive")
    p.add_argument("--utility", choices=("inf", "fixed"), default="inf",
                   help="heavy-load utility (fast) or full fixed-point "
                        "utility (slow)")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("sweep", help="sweep payload size or load scaling")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv",
                   help="table output format")
    p.add_argument("--sweep", choices=("payload", "rho"), default="payload",
                   help="sweep variable")
    p.add_argument("--payload-bytes", default="100:2000:100",
                   help="payload sweep as min:max:step bytes")
    p.add_argument("--rho-factors",
                   default="1,10,100,1000,10000,100000,1000000",
                   help="comma-separated occupation-ratio scale factors")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fixtures", help="write built-in topologies as JSON")
    p.add_argument("--out", default="fixtures",
                   help="output directory (default: ./fixtures)")
    p.add_argument("--verify", action="store_true",
                   help="re-derive and check the frozen fixture figures")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"error: {exc} (residual {exc.residual:.3e} after "
              f"{exc.iterations} iterations)", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
