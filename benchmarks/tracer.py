"""Spans and counters around cxtherm's layers, recorded from outside the package.

``Tracer.install`` wraps the layers' public functions where the package looks
them up (every ``cxtherm`` module attribute that holds the original object,
and class attributes for methods), and ``uninstall`` puts the originals back.
A wrapped call records one span: name, layer, start, end, parent span and the
id of the benchmark operation it belongs to.  Hot inner calls (gate
application and embedding, the search's score callbacks, ``expm`` in the
heuristic) are not spans: their count and total time are added up on the
innermost open span.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

now = time.perf_counter

# (layer, module, attribute, span name).  Module attributes are replaced in
# every cxtherm module that imported them by name.
SPANS = [
    ("search", "cxtherm.search", "minimize_over_effects", "search.minimize_over_effects"),
    ("gates", "cxtherm.gates", "placed_alphabet", "gates.placed_alphabet"),
    ("registers", "cxtherm.registers", "partial_trace", "registers.partial_trace"),
    ("registers", "cxtherm.registers", "partial_trace_matrix", "registers.partial_trace"),
    ("entropies", "cxtherm.entropies", "von_neumann", "entropies.von_neumann"),
    ("entropies", "cxtherm.entropies", "hyp_relative_entropy", "entropies.hyp_relative_entropy"),
    ("cxentropy", "cxtherm.cxentropy", "cx_relative_entropy", "cxentropy.cx_relative_entropy"),
    ("thermo", "cxtherm.thermo", "erasure_search", "thermo.erasure_search"),
    ("thermo", "cxtherm.thermo", "compression_search", "thermo.compression_search"),
    ("thermo", "cxtherm.thermo", "run_protocol", "thermo.run_protocol"),
    ("experiments", "cxtherm.experiments", "ising_quench", "experiments.ising_quench"),
    ("experiments", "cxtherm.experiments", "transition_scan", "experiments.transition_scan"),
    ("experiments", "cxtherm.experiments", "continuity_trial", "experiments.continuity_trial"),
    ("experiments", "cxtherm.experiments", "decoupling_simulate", "experiments.decoupling_simulate"),
    ("heuristic", "cxtherm.heuristic", "heuristic_search", "heuristic.heuristic_search"),
    ("cli", "cxtherm.cli", "dispatch", "cli.dispatch"),
]

# (layer, module, attribute, counter name): hot calls, aggregated.
HOT_FUNCTIONS = [
    ("gates", "cxtherm.gates", "expand_operator", "gates.expand_operator"),
]

# (layer, module, class, method, span name): construction and validation.
METHOD_SPANS = [
    ("registers", "cxtherm.registers", cls, "__post_init__", "registers.operator_init")
    for cls in ("HermitianOperator", "DensityOperator", "PovmEffect")
]

# (layer, module, class, method, counter name): hot calls, aggregated.
HOT_METHODS = [
    ("gates", "cxtherm.gates", "PlacedGate", m, "gates.apply")
    for m in ("apply_matrix", "apply_vector", "pullback")
]

class Span:
    __slots__ = ("id", "parent", "op", "name", "layer", "start", "end", "hot")

    def __init__(self, sid, parent, op, name, layer, start):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.hot = {}

    def as_list(self):
        hot = {k: [v[0], v[1], v[2]] for k, v in self.hot.items()}
        return [self.id, self.parent, self.op, self.name, self.layer, self.start, self.end, hot]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = None
        self.current_op_span: Span | None = None  # the benchmark operation's root span
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost(self, stack):
        # worker threads of a pool started inside a span report to the span
        # the main thread is blocked in
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = self._innermost(stack)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, parent.id if parent else None, self.op_id, name, layer, now())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = now()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def add_hot(self, name: str, layer: str, dt: float) -> None:
        span = self._innermost(self._stack())
        with self._lock:
            if span is None:
                self.counters[name + ".calls"] += 1
                self.counters[name + ".s"] += dt
                return
            entry = span.hot.get(name)
            if entry is None:
                span.hot[name] = [1, dt, layer]
            else:
                entry[0] += 1
                entry[1] += dt

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- wrappers ---------------------------------------------------------

    def span_wrapper(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == name:  # super().__post_init__, nested partial traces
                return fn(*args, **kwargs)
            span = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def hot_wrapper(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add_hot(name, layer, now() - t0)

        return wrapper

    def search_wrapper(self, fn):
        """minimize_over_effects: a span, with its score callback counted as
        hot calls (one per circuit scored), the theoretical circuit count
        summed, and sweeps that scored fewer circuits counted as early stops."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(gate_set, n, r, operators, score_fn, **kwargs):
            layer = getattr(score_fn, "__module__", "cxtherm.search").rsplit(".", 1)[-1]
            scored = tracer.hot_wrapper(score_fn, "search.score_fn", layer)
            span = tracer.open("search.minimize_over_effects", "search")
            try:
                best = fn(gate_set, n, r, operators, scored, **kwargs)
            finally:
                tracer.close(span)
            candidates = span.hot.get("search.score_fn", [0])[0]
            tracer.count("search.circuit_count", best.circuits_visited)
            tracer.count("search.early_stops", int(candidates < best.circuits_visited))
            return best

        return wrapper

    def map_wrapper(self, fn):
        """deterministic_map: a span, and one span per work item in the layer
        that owns the item function, so that the work is not booked as the
        map's own time."""
        tracer = self
        spanned = self.span_wrapper(fn, "parallel.deterministic_map", "parallel")

        @functools.wraps(fn)
        def wrapper(item_fn, items, threads=1):
            layer = getattr(item_fn, "__module__", "cxtherm.parallel").rsplit(".", 1)[-1]
            return spanned(tracer.span_wrapper(item_fn, f"{layer}.task", layer), items, threads)

        return wrapper

    def minimize_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            tracer.count("heuristic.optimizer_iterations", int(res.nit))
            tracer.count("heuristic.objective_evals", int(res.nfev))
            return res

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _replace_everywhere(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cxtherm" or mod_name.startswith("cxtherm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _replace_attr(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        import importlib

        for mod_name in ("cxtherm.cli", "cxtherm.heuristic"):
            importlib.import_module(mod_name)
        for layer, mod_name, attr, name in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            if name == "search.minimize_over_effects":
                wrapped = self.search_wrapper(original)
            else:
                wrapped = self.span_wrapper(original, name, layer)
            self._replace_everywhere(original, wrapped)
        for layer, mod_name, attr, name in HOT_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self.hot_wrapper(original, name, layer))
        dmap = sys.modules["cxtherm.parallel"].deterministic_map
        self._replace_everywhere(dmap, self.map_wrapper(dmap))
        for layer, mod_name, cls_name, method, name in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._replace_attr(cls, method, self.span_wrapper(vars(cls)[method], name, layer))
        for layer, mod_name, cls_name, method, name in HOT_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._replace_attr(cls, method, self.hot_wrapper(vars(cls)[method], name, layer))
        heuristic = sys.modules["cxtherm.heuristic"]
        self._replace_attr(
            heuristic, "expm", self.hot_wrapper(heuristic.expm, "heuristic.gate_exponentials", "heuristic")
        )
        self._replace_attr(heuristic, "minimize", self.minimize_wrapper(heuristic.minimize))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans from a traced child process --------------------------------

    def merge(self, path: str, parent: Span) -> None:
        """Adopt a child's spans under `parent`; perf_counter is the
        system-wide monotonic clock, so the times share one base."""
        with open(path) as fh:
            payload = json.load(fh)
        offset = self._next_id
        top = 0
        for sid, par, _op, name, layer, start, end, hot in payload["spans"]:
            span = Span(sid + offset, parent.id if par is None else par + offset,
                        parent.op, name, layer, start)
            span.end = end
            span.hot = hot
            self.spans.append(span)
            top = max(top, sid + 1)
        self._next_id += top
        for name, value in payload["counters"].items():
            self.counters[name] += value

    def dump(self, path: str) -> None:
        payload = {
            "fields": ["id", "parent", "op", "name", "layer", "start", "end", "hot"],
            "spans": [s.as_list() for s in self.spans],
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# reduction


def reduce_spans(tracer: Tracer) -> dict:
    """Per-name call counts and inclusive times, hot totals, and self time
    per layer: a span's duration minus its child spans and hot calls, with
    each hot call's time given to the hot call's own layer."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_time: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        hot_sum = 0.0
        for name, (count, dt, layer) in s.hot.items():
            calls[name] += count
            total[name] += dt
            hot_sum += dt
            self_time[layer] += dt
        # threads of a pool overlap in time, so their sum can exceed the span
        self_time[s.layer] += max(s.end - s.start - child_time[s.id] - hot_sum, 0.0)
    for key, value in tracer.counters.items():
        if key.endswith(".calls"):
            calls[key[: -len(".calls")]] += int(value)
        elif key.endswith(".s"):
            total[key[: -len(".s")]] += value
    return {"calls": dict(calls), "total": dict(total), "self": dict(self_time)}
