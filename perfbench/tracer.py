"""Span tracing from outside the library.

The traced pass wraps the library's public functions where the calling
module looks them up (``iasl_lab.oracle.iter_iasgl_assignments`` and so on),
so each call across a layer boundary becomes a span: name, start, end,
parent span and run id. Generators are traced per resumption, so time the
caller spends between two yields is not charged to the generator. Spans stay
in memory until the pass ends. Counts (search nodes, solutions, screen
verdicts) are recorded at the same boundaries.

Nothing here edits the library; spans inside the program are a later change.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from collections import defaultdict

CORES = ("search.iasgl", "search.top_iasl", "search.top_iasgl")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    def _open(self, name: str) -> tuple[int, int, float]:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((self._next_id, name))
        return self._next_id, parent, time.perf_counter()

    def _close(self, sid: int, name: str, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent))

    def parent_name(self) -> str:
        return self._stack[-1][1] if self._stack else ""

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(sid, name, parent, start)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def iterate(self, name: str, gen):
        """Yield from ``gen``, one span per resumption."""
        try:
            while True:
                sid, parent, start = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(sid, name, parent, start)
                yield item
        finally:
            gen.close()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _core_wrapper(tracer: Tracer, name: str, fn):
    """Trace one backtracking core and count its nodes and solutions.

    The core counts nodes into the ``counter`` list its caller passes; the
    wrapper supplies one when the caller does not. A core running inside
    another core (the graceful search under the topological-graceful filter)
    shares the outer counter, so only the outermost core books the nodes.
    """
    @functools.wraps(fn)
    def traced(g, x, counter=None):
        outer = tracer.parent_name()
        nested = outer in CORES
        if counter is None:
            counter = [0]
        before = counter[0]
        produced = 0
        try:
            for item in tracer.iterate(name, fn(g, x, counter)):
                produced += 1
                yield item
        finally:
            if nested:
                tracer.counts[outer + ".inner_solutions"] += produced
            else:
                tracer.counts[name + ".nodes"] += counter[0] - before
                tracer.counts[name + ".solutions"] += produced
    return traced


def _iter_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        produced = 0
        for item in tracer.iterate(name, fn(*args, **kwargs)):
            produced += 1
            yield item
        tracer.counts[name + ".items"] += produced
    return traced


def instrument(tracer: Tracer) -> None:
    """Install span wrappers at every layer boundary the benchmark crosses."""
    import iasl_lab.cli as cli
    import iasl_lab.graphs as graphs
    import iasl_lab.oracle as oracle
    import iasl_lab.search as search

    seen_grounds: set[int] = set()
    enumerate_topologies = search.enumerate_topologies

    def topologies(x, require_zero_singleton=False):
        # the family table is cached per ground set for the life of the
        # interpreter, so the first call for a ground set is the cold one
        cold = x.mask not in seen_grounds
        seen_grounds.add(x.mask)
        name = "topology.enumerate_cold" if cold else "topology.enumerate_warm"
        out = tracer.call(name, enumerate_topologies, x, require_zero_singleton)
        if cold:
            tracer.counts["topology.families"] += len(out)
        return out

    classify = tracer.wrap("intsets.classify", search.classify)
    search_screen = search.screen

    def screen(g, x, mode="iasgl"):
        out = tracer.call("search.screen", search_screen, g, x, mode)
        tracer.counts["search.screen.rejected"] += not out.admissible()
        return out

    cores = {f"iter_{mode}_assignments": _core_wrapper(
                 tracer, "search." + mode, getattr(search, f"iter_{mode}_assignments"))
             for mode in ("iasgl", "top_iasl", "top_iasgl")}
    enum_graphs = _iter_wrapper(tracer, "graphs.enumerate",
                                graphs.enumerate_connected_graphs)
    for module in (search, oracle):
        for attr, traced in cores.items():
            setattr(module, attr, traced)
        module.enumerate_topologies = topologies
        module.classify = classify
    search.screen = screen
    for attr in ("search_iasgl", "search_top_iasl", "search_top_iasgl",
                 "minimal_ground_set"):
        setattr(search, attr, tracer.wrap("search." + attr, getattr(search, attr)))
    oracle.enumerate_connected_graphs = enum_graphs
    graphs.enumerate_connected_graphs = enum_graphs
    graphs.Graph.canonical_key = tracer.wrap("graphs.canonical_key",
                                             graphs.Graph.canonical_key)
    for attr in ("iasgl_solutions", "top_iasl_solutions", "top_iasgl_solutions"):
        setattr(oracle.OracleScope, attr,
                tracer.wrap("oracle.solutions", getattr(oracle.OracleScope, attr)))
    for tid, check in list(oracle.ORACLE_CHECKS.items()):
        oracle.ORACLE_CHECKS[tid] = dataclasses.replace(
            check, fn=tracer.wrap("oracle.check." + tid, check.fn))
    cli.run_all = tracer.wrap("oracle.run_all", cli.run_all)
    cli.main = tracer.wrap("cli.main", cli.main)


def self_times(spans) -> dict[str, float]:
    """Seconds of each span name not covered by its child spans."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent in spans:
        child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent in spans:
        out[name] += (end - start) - child_time[sid]
    return dict(out)


def totals(spans) -> dict[str, float]:
    """Inclusive seconds of each span name; a span nested in a span of its
    own name is not counted again."""
    names = {sid: name for sid, name, *_ in spans}
    out: dict[str, float] = defaultdict(float)
    for _sid, name, start, end, parent in spans:
        if names.get(parent) != name:
            out[name] += end - start
    return dict(out)
