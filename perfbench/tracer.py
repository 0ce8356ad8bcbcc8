"""Span tracing of wlancell's public functions, from outside the package.

`Tracer.install` replaces each traced function with a wrapper on every
module that holds a reference to it: the home module, the package root,
and every module that imported the name directly (``multicell`` and
``assign`` import ``enumerate_state_space`` by name, ``cli`` and
``fixtures`` import ``parse_topology``).  `Tracer.uninstall` puts the
originals back.

Each call records a span (name, start, end, parent span) in flat arrays,
so hundreds of thousands of spans stay cheap to hold.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: (span name, home module, function, modules that import it by name).
TRACED = (
    ("topology.parse", "topology", "parse_topology", ("cli", "fixtures")),
    ("topology.enumerate", "topology", "enumerate_state_space",
     ("multicell", "assign")),
    ("dcf.attempt_prob", "dcf", "attempt_prob_G", ()),
    ("dcf.single_cell", "dcf", "single_cell_fixed_point", ()),
    ("multicell.solve", "multicell", "solve_fixed_point", ()),
    ("multicell.stationary", "multicell", "stationary_distribution", ()),
    ("multicell.collision", "multicell", "collision_probabilities", ()),
    ("multicell.unblocked", "multicell", "unblocked_fractions_direct", ()),
    ("ctmc.simulate", "ctmc", "simulate", ()),
    ("ctmc.replicated", "ctmc", "simulate_replicated", ()),
    ("assign.lri_run", "assign", "run_lri", ()),
    ("assign.lri_step", "assign", "lri_step", ()),
    ("assign.utility", "assign", "utility_theta_bar", ()),
    ("assign.misa", "assign", "misa", ()),
    ("assign.nash", "assign", "is_nash_equilibrium", ()),
    ("assign.exhaustive", "assign", "exhaustive_search", ()),
)

#: Span opened by the benchmark itself around each CLI call.
CLI_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span index, name, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        self._stack.append([index, name, 0.0])
        self.span_start.append(perf_counter())

    def close(self) -> None:
        end = perf_counter()
        index, name, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(frame[1] == name for frame in self._stack)

    def reset_counts(self) -> None:
        """Forget per-name totals (spans are kept for the trace file)."""
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counters.clear()

    # -------------------------------------------------------- patching

    def _wrap(self, name: str, fn):
        on_result = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "assign.utility" and self.inside("assign.lri_run"):
                self.counters["assign.lri_utility_calls"] += 1
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if on_result is not None:
                on_result(self.counters, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for name, home, attr, importers in TRACED:
            home_mod = importlib.import_module(f"wlancell.{home}")
            original = getattr(home_mod, attr)
            wrapped = self._wrap(name, original)
            holders = [home_mod, importlib.import_module("wlancell")]
            holders += [importlib.import_module(f"wlancell.{m}")
                        for m in importers]
            for mod in holders:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # ---------------------------------------------------------- output

    def write(self, path: Path) -> None:
        """Write every span as a compressed ``.npz`` of parallel arrays."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32))


def _count_states(counters, family, args, kwargs) -> None:
    counters["topology.states"] += len(family.states)


def _count_iterations(counters, solution, args, kwargs) -> None:
    counters["multicell.iterations"] += solution.iterations


def _count_events(counters, estimate, args, kwargs) -> None:
    counters["ctmc.events"] += estimate.total_events
    counters["ctmc.states_visited"] += len(estimate.pi_hat)


def _count_candidates(counters, result, args, kwargs) -> None:
    physical = args[0]
    n_channels = args[1] if len(args) > 1 else kwargs["n_channels"]
    counters["assign.exhaustive_candidates"] += \
        n_channels ** len(physical.vertices)


_COUNTERS = {
    "topology.enumerate": _count_states,
    "multicell.solve": _count_iterations,
    "ctmc.simulate": _count_events,
    "assign.exhaustive": _count_candidates,
}


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (see BENCHMARK.json)."""
    calls, self_s, total_s, counters = (tracer.calls, tracer.self_s,
                                        tracer.total_s, tracer.counters)
    m: dict[str, float] = {}
    for layer in ("topology", "dcf", "multicell", "ctmc", "assign", "cli"):
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.split(".")[0] == layer)
    m["topology.parse_s"] = self_s["topology.parse"]
    m["topology.parse_calls"] = calls["topology.parse"]
    m["topology.enumerate_s"] = self_s["topology.enumerate"]
    m["topology.enumerate_calls"] = calls["topology.enumerate"]
    m["topology.states"] = counters["topology.states"]
    m["dcf.attempt_prob_s"] = self_s["dcf.attempt_prob"]
    m["dcf.attempt_prob_calls"] = calls["dcf.attempt_prob"]
    m["dcf.single_cell_s"] = self_s["dcf.single_cell"]
    m["dcf.single_cell_calls"] = calls["dcf.single_cell"]
    m["multicell.solve_s"] = self_s["multicell.solve"]
    m["multicell.solve_calls"] = calls["multicell.solve"]
    m["multicell.iterations"] = counters["multicell.iterations"]
    iterations = counters["multicell.iterations"]
    m["multicell.iter_s"] = (total_s["multicell.solve"] / iterations
                             if iterations else 0.0)
    for short in ("stationary", "collision", "unblocked"):
        m[f"multicell.{short}_s"] = self_s[f"multicell.{short}"]
        m[f"multicell.{short}_calls"] = calls[f"multicell.{short}"]
    m["ctmc.simulate_s"] = self_s["ctmc.simulate"]
    m["ctmc.simulate_calls"] = calls["ctmc.simulate"]
    m["ctmc.events"] = counters["ctmc.events"]
    m["ctmc.events_per_s"] = (counters["ctmc.events"]
                              / self_s["ctmc.simulate"]
                              if self_s["ctmc.simulate"] else 0.0)
    m["ctmc.states_visited"] = counters["ctmc.states_visited"]
    steps = calls["assign.lri_step"]
    m["assign.lri_steps"] = steps
    m["assign.lri_step_s"] = self_s["assign.lri_step"]
    m["assign.lri_step_us"] = (self_s["assign.lri_step"] / steps * 1e6
                               if steps else 0.0)
    lri_utility = counters["assign.lri_utility_calls"]
    m["assign.utility_calls"] = lri_utility
    m["assign.utility_s"] = self_s["assign.utility"]
    m["assign.memo_hit_ratio"] = 1.0 - lri_utility / steps if steps else 0.0
    m["assign.exhaustive_s"] = self_s["assign.exhaustive"]
    m["assign.exhaustive_candidates"] = counters["assign.exhaustive_candidates"]
    m["assign.misa_s"] = self_s["assign.misa"]
    m["assign.nash_s"] = self_s["assign.nash"]
    m["cli.calls"] = calls[CLI_SPAN]
    m["cli.bytes_written"] = bytes_written
    return m
