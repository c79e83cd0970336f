"""Per-layer tracer for qsymk, installed from outside the package.

`Tracer.install()` wraps selected public functions of the qsymk modules
and rebinds every module-level name that refers to the original function
object, in every loaded qsymk module.  That covers re-exports in the
package namespace, names imported across modules (`kernel` imports
`linalg` and `qsym` names, `cli` imports `kernel` names) and aliases such
as `cli.reduce_rows`, and it covers calls inside the defining module too,
since those look the name up in the module globals at call time.

Each thread keeps its own stack of open calls, because `qsymk verify`
runs degrees on a thread pool.  A call's self time is its thread CPU time
minus the thread CPU time of the traced calls it made; CPU time rather
than wall time, so that time spent waiting for the interpreter lock is
not charged to whichever function happened to be waiting.  Outermost
calls are additionally kept as wall-clock spans, from which `report()`
derives how much of the process's wall time traced calls covered.

Everything stays in memory until `report()` is called at the end.

Known blind spot: private helpers are not wrapped.  `kernel` calls
`qsym._f_basis_product` directly, so shuffle-product time in the ideal
check shows up as `kernel.is_ideal_upto` self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# Module name -> public functions wrapped in that module.  Module self time
# is the sum of the self times of the functions listed here.
LAYERS: dict[str, tuple[str, ...]] = {
    "compositions": ("compositions_of",),
    "statistics": (
        "equivalence_classes",
        "shuffles",
        "shuffle_distribution",
        "check_shuffle_compatible",
    ),
    "linalg": ("reduce", "in_span", "spans_equal", "is_independent"),
    "qsym": ("m_to_f", "f_to_m", "multiply_f", "psi", "rho"),
    "kernel": (
        "kernel_space",
        "quotient_dimension",
        "relation_edges",
        "connected_components",
        "is_forest",
        "edge_vectors",
        "monomial_span_vectors",
        "check_spanning_F",
        "check_basis_F",
        "check_spanning_M",
        "check_section4_props",
        "check_symmetry_bridges",
        "is_ideal_upto",
    ),
}


class _FnStats:
    __slots__ = ("calls", "self_s", "counters", "keys")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counters: dict[str, int] = {}
        self.keys: set = set()

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class _ThreadState:
    __slots__ = ("stack", "stats", "top")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # [cpu at entry, child cpu]
        self.stats: dict[str, _FnStats] = {}
        self.top: list[tuple[float, float, float]] = []  # wall start, wall end, cpu


# -- per-function argument preparation and counters ---------------------------
# A prepare hook may only replace an argument by an equivalent value the
# function accepts (a list for an iterable it would consume anyway).

def _prepare_reduce(args, kwargs):
    vectors = list(args[0]) if args else list(kwargs.pop("vectors"))
    return (vectors,) + tuple(args[1:]), kwargs


def _count_reduce(stats, args, kwargs, result):
    vectors = args[0]
    stats.add("in_vectors", len(vectors))
    stats.add("in_nonzeros", sum(len(v.entries) for v in vectors))
    stats.add("rank", result.rank)


def _count_in_span(stats, args, kwargs, result):
    stats.add("true", 1 if result else 0)


def _count_out_terms(stats, args, kwargs, result):
    stats.add("out_terms", len(result.coeffs))


def _count_kernel_space(stats, args, kwargs, result):
    stats.keys.add((result.stat, result.n))


def _prepare_relation_edges(args, kwargs):
    rels = args[0] if args else kwargs.pop("rels")
    return (frozenset(rels),) + tuple(args[1:]), kwargs


def _count_relation_edges(stats, args, kwargs, result):
    stats.keys.add((args[0], result.n))
    stats.add("edges", len(result.edges))


def _count_shuffles(stats, args, kwargs, result):
    stats.add("words", len(result))


_PREPARE = {
    "linalg.reduce": _prepare_reduce,
    "kernel.relation_edges": _prepare_relation_edges,
}

_COUNT = {
    "linalg.reduce": _count_reduce,
    "linalg.in_span": _count_in_span,
    "qsym.m_to_f": _count_out_terms,
    "qsym.f_to_m": _count_out_terms,
    "kernel.kernel_space": _count_kernel_space,
    "kernel.relation_edges": _count_relation_edges,
    "statistics.shuffles": _count_shuffles,
}


class Tracer:
    """Wraps the functions in `LAYERS` and aggregates their calls."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _wrap(self, name: str, fn):
        prepare = _PREPARE.get(name)
        count = _COUNT.get(name)
        thread_time = time.thread_time
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack = state.stack
            top = not stack
            wall_start = perf_counter() if top else 0.0
            frame = [thread_time(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_time() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                stats = state.stats.get(name)
                if stats is None:
                    stats = state.stats[name] = _FnStats()
                stats.calls += 1
                stats.self_s += cpu - frame[1]
                if top:
                    state.top.append((wall_start, perf_counter(), cpu))
            if count is not None:
                count(stats, args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every function in `LAYERS`; raises if one is missing or
        could not be rebound in its own module."""
        importlib.import_module("qsymk")
        for module_name, fn_names in LAYERS.items():
            module = importlib.import_module(f"qsymk.{module_name}")
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for loaded in list(sys.modules.values()):
                    mod_name = getattr(loaded, "__name__", "")
                    if mod_name != "qsymk" and not mod_name.startswith("qsymk."):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)
                if getattr(module, fn_name) is not wrapper:
                    raise RuntimeError(f"could not rebind qsymk.{module_name}.{fn_name}")
        return self

    def report(self) -> dict:
        """Aggregates over all threads, as a JSON-ready dict."""
        functions: dict[str, dict] = {}
        keys: dict[str, set] = {}
        spans: list[tuple[float, float, float]] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            spans.extend(state.top)
            for name, stats in state.stats.items():
                entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
                entry["calls"] += stats.calls
                entry["self_s"] += stats.self_s
                for counter, amount in stats.counters.items():
                    entry[counter] = entry.get(counter, 0) + amount
                keys.setdefault(name, set()).update(stats.keys)
        for name, seen in keys.items():
            if seen:
                functions[name]["distinct"] = len(seen)
        covered = 0.0
        end = float("-inf")
        for start, stop, _ in sorted(spans):
            if stop > end:
                covered += stop - max(start, end)
                end = stop
        return {
            "functions": functions,
            "top_spans": len(spans),
            "top_cpu_s": sum(cpu for _, _, cpu in spans),
            "covered_wall_s": covered,
        }
