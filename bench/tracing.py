"""Per-layer spans recorded around the library's functions.

Nothing under ``src/`` changes. While a ``Tracer`` is installed, each traced
function is replaced in every ``groupcent`` module that bound it (``from
.graph import sssp`` binds a second name for the same function), and the
class attribute ``EvalPool.map`` is replaced on its class. A function that
no longer exists, such as ``parallel.EvalPool`` once the thread pool is
removed, is recorded as absent and its metrics read 0.

Spans are kept in memory, one list per solve. Each span knows its parent:
the enclosing span on the same thread, or, for a kernel that runs on a pool
thread, the ``EvalPool.map`` call that dispatched it. A layer's self time is
its duration minus the union of its direct children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name). Attributes may be dotted for methods.
TARGETS = (
    ("graph", "load_edge_list", "graph.load"),
    ("graph", "is_connected", "graph.prepare"),
    ("graph", "largest_component", "graph.prepare"),
    ("graph", "sssp", "graph.sssp"),
    ("graph", "multi_source_sssp", "graph.msssp"),
    ("graph", "reachable_counts", "graph.reach"),
    ("harmonic", "harmonic_centralities", "harmonic.start"),
    ("harmonic", "pruned_marginal_gain", "harmonic.gain"),
    ("harmonic", "greedy_harmonic", "harmonic.solver"),
    ("harmonic", "local_search_harmonic", "harmonic.solver"),
    ("closeness", "_closeness_start_vertex", "closeness.start"),
    ("closeness", "farness_decrease", "closeness.decrease"),
    ("closeness", "greedy_closeness", "closeness.solver"),
    ("closeness", "local_search_closeness", "closeness.solver"),
    ("centrality", "state_init", "centrality.state_init"),
    ("centrality", "removal_cost", "centrality.removal_cost"),
    ("centrality", "patched_distances", "centrality.patched"),
    ("reporting", "graph_summary", "reporting.summary"),
    ("cli", "_verify_report", "cli.verify"),
    ("parallel", "EvalPool.map", "parallel.map"),
)

PACKAGE = "groupcent"


def layer_metric_units(family: str):
    """Units of one solve's per-layer metrics, without the "<algo>." prefix.
    The objective layer is "harmonic" (kernel "gain") or "closeness" (kernel
    "decrease"); everything else is shared."""
    kernel = "gain" if family == "harmonic" else "decrease"
    return {
        "graph.load_s": "s",
        "graph.prepare_s": "s",
        "graph.sssp_calls": "count",
        "graph.msssp_calls": "count",
        "graph.msssp_s": "s",
        "graph.reach_s": "s",
        "graph.reach_calls": "count",
        f"{family}.start_s": "s",
        f"{family}.{kernel}_calls": "count",
        f"{family}.{kernel}_s": "s",
        f"{family}.{kernel}_aborted": "count",
        f"{family}.{kernel}_prune_ratio": "ratio",
        f"{family}.self_s": "s",
        "centrality.state_init_s": "s",
        "centrality.state_init_calls": "count",
        "centrality.removal_cost_s": "s",
        "centrality.removal_cost_calls": "count",
        "centrality.patched_s": "s",
        "centrality.patched_calls": "count",
        "parallel.map_calls": "count",
        "parallel.items_per_map": "items",
        "parallel.map_s": "s",
        "parallel.overhead_s": "s",
        "reporting.summary_calls": "count",
        "cli.verify_s": "s",
        "report.evaluated": "count",
        "report.pruned": "count",
        "report.iterations": "count",
        "report.swaps": "count",
        "trace.overhead_s": "s",
    }


class Span:
    __slots__ = ("name", "parent", "start", "end", "aborted", "items")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.aborted = False
        self.items = 0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._open_map: Span | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        for module, attr, name in TARGETS:
            owner, leaf, original = self._resolve(module, attr)
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            if owner is not None:  # a method: patch its class only
                wrapper = self._wrap_map(original)
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "")
                if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _resolve(self, module, attr):
        """(owning class or None, attribute name, original) or a None
        original when the module or attribute does not exist."""
        try:
            obj = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return None, attr, None
        owner = None
        parts = attr.split(".")
        for part in parts:
            owner = obj
            obj = getattr(obj, part, None)
            if obj is None:
                return None, attr, None
        return (owner if len(parts) > 1 else None), parts[-1], obj

    # -- wrappers ---------------------------------------------------------

    def _parent(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        if threading.get_ident() != self._main:
            return stack, self._open_map  # a pool thread serving a map call
        return stack, None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, parent = tracer._parent()
            span = Span(name, parent)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.aborted = getattr(result, "is_exact", True) is False
            return result

        return wrapper

    def _wrap_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(pool, func, items):
            items = list(items)
            stack, parent = tracer._parent()
            span = Span("parallel.map", parent)
            span.items = len(items)
            tracer.spans.append(span)
            stack.append(span)
            outer, tracer._open_map = tracer._open_map, span
            try:
                return fn(pool, func, items)
            finally:
                span.end = time.perf_counter()
                tracer._open_map = outer
                stack.pop()

        return wrapper

    # -- aggregation ------------------------------------------------------

    def take(self, family: str) -> dict:
        """Layer metrics of the spans recorded since the last call (one
        solve), then forget those spans. Work counts from the report and
        the tracing overhead are filled in by the caller."""
        spans, self.spans = self.spans, []
        by_name = defaultdict(list)
        children = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                children[id(s.parent)].append(s)

        def total(name, top_level=False):
            return sum(s.duration for s in by_name[name]
                       if not top_level or s.parent is None)

        def self_time(name):
            return sum(s.duration - _union(children[id(s)]) for s in by_name[name])

        kernel = "gain" if family == "harmonic" else "decrease"
        kspans = by_name[f"{family}.{kernel}"]
        aborted = sum(s.aborted for s in kspans)
        maps = by_name["parallel.map"]
        items = sum(s.items for s in maps)
        return {
            # only calls made by the CLI itself count as set-up; the
            # connectivity checks inside the closeness solvers do not
            "graph.load_s": total("graph.load", top_level=True),
            "graph.prepare_s": total("graph.prepare", top_level=True),
            "graph.sssp_calls": len(by_name["graph.sssp"]),
            "graph.msssp_calls": len(by_name["graph.msssp"]),
            "graph.msssp_s": total("graph.msssp"),
            "graph.reach_s": total("graph.reach"),
            "graph.reach_calls": len(by_name["graph.reach"]),
            f"{family}.start_s": total(f"{family}.start"),
            f"{family}.{kernel}_calls": len(kspans),
            f"{family}.{kernel}_s": sum(s.duration for s in kspans),
            f"{family}.{kernel}_aborted": aborted,
            f"{family}.{kernel}_prune_ratio": aborted / len(kspans) if kspans else 0.0,
            f"{family}.self_s": self_time(f"{family}.solver"),
            "centrality.state_init_s": total("centrality.state_init"),
            "centrality.state_init_calls": len(by_name["centrality.state_init"]),
            "centrality.removal_cost_s": total("centrality.removal_cost"),
            "centrality.removal_cost_calls": len(by_name["centrality.removal_cost"]),
            "centrality.patched_s": total("centrality.patched"),
            "centrality.patched_calls": len(by_name["centrality.patched"]),
            "parallel.map_calls": len(maps),
            "parallel.items_per_map": items / len(maps) if maps else 0.0,
            "parallel.map_s": total("parallel.map"),
            # map wall time that no kernel span covers: dispatch, wake-ups
            # and waiting for the interpreter lock
            "parallel.overhead_s": self_time("parallel.map"),
            "reporting.summary_calls": len(by_name["reporting.summary"]),
            "cli.verify_s": total("cli.verify"),
        }


def _union(spans) -> float:
    """Length of the union of the spans' intervals (pool threads overlap)."""
    covered = 0.0
    reach = float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end <= reach:
            continue
        covered += s.end - max(s.start, reach)
        reach = s.end
    return covered
