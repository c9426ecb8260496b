"""The four workloads: inputs, one timed pass, the output gate, re-verification.

Each workload has ``setup(seed)`` (import the library, load or generate the
inputs), ``run(state)`` (the timed pass, one call per instance; it returns
the instance latencies and keeps its results in ``state``), ``table(state)``
(the results as a map from operation name to a short string, which the gate
compares with ``data/reference.json``) and ``verify(state, tracer)``
(re-check every labeling found with the library's ``verify_*``). Only
``run`` is timed.

The seed only permutes the order of the instances of ``iasgl-deep`` and
``top-x4``, whose instances share no work: each workload's input set is
fixed, so every seed does the same total work. ``oracle-suite`` (one CLI call
over the whole enumeration) and ``min-ground-set`` (whose instances share the
topology cache) ignore the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
DEEP_DIR = DATA / "iasgl-deep"
REFERENCE = DATA / "reference.json"

ORACLE_ARGV = ["oracle", "all", "--max-vertices", "7", "--json"]
MODES = ("iasgl", "top_iasl", "top_iasgl")


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


# --- oracle-suite ------------------------------------------------------------

def oracle_setup(seed: int) -> dict:
    import iasl_lab.cli  # noqa: F401  (the import is part of set-up)
    return {}


def oracle_run(state: dict):
    import iasl_lab.cli as cli
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(ORACLE_ARGV))
    lat = time.perf_counter() - start
    state["rc"], state["stdout"] = rc, buf.getvalue()
    return [lat]


def oracle_table(state: dict) -> dict:
    digest = hashlib.sha256(state["stdout"].encode()).hexdigest()
    return {"oracle all": f"rc={state['rc']} sha256={digest}"}


def oracle_verify(state, tracer):
    """Verify every labeling the oracle's checks draw on, found again
    through ``OracleScope`` over the CLI's default scope."""
    from iasl_lab import (GroundSet, OracleScope, verify_iasgl, verify_top_iasgl,
                          verify_top_iasl)
    scope = OracleScope(7, [GroundSet((0, 1)), GroundSet((0, 1, 2))])
    kinds = ((scope.iasgl_solutions, verify_iasgl),
             (scope.top_iasl_solutions, verify_top_iasl),
             (scope.top_iasgl_solutions, verify_top_iasgl))
    attempted = failed = 0
    for g, x in scope.pairs():
        for solutions, check in kinds:
            for sol in solutions(g, x):
                with tracer.span("labelings.verify"):
                    failed += not check(g, scope.labeling(x, sol)).verdict
                attempted += 1
    return attempted, failed


# --- iasgl-deep ----------------------------------------------------------------

def deep_setup(seed: int) -> dict:
    from iasl_lab import GroundSet, parse_graph
    graphs = [(p.stem, parse_graph(p.read_text(encoding="utf-8")))
              for p in sorted(DEEP_DIR.glob("*.edges"))]
    random.Random(seed).shuffle(graphs)
    return {"graphs": graphs, "x": GroundSet(range(5))}


def deep_run(state: dict):
    import iasl_lab.search as search
    x = state["x"]
    lats, outcomes = [], {}
    for name, g in state["graphs"]:
        outcomes[name], lat = _timed(search.search_iasgl, g, x)
        lats.append(lat)
    state["outcomes"] = outcomes
    # node counts are reported, not gated: sound pruning changes them
    state["nodes"] = {name: out.nodes_explored for name, out in outcomes.items()}
    return lats


def deep_table(state: dict) -> dict:
    return {name: "found" if out.found else "not found"
            for name, out in state["outcomes"].items()}


def deep_verify(state, tracer):
    from iasl_lab import verify_iasgl
    graphs = dict(state["graphs"])
    found = {name: out.labeling for name, out in state["outcomes"].items() if out.found}
    failed = 0
    for name, labeling in found.items():
        with tracer.span("labelings.verify"):
            failed += not verify_iasgl(graphs[name], labeling).verdict
    return len(found), failed


# --- top-x4 ----------------------------------------------------------------------

def topx4_setup(seed: int) -> dict:
    import iasl_lab.graphs as graphs
    from iasl_lab import GroundSet
    gs = [g for n in range(2, 8)
          for g in graphs.enumerate_connected_graphs(n, dedup=True)]
    random.Random(seed).shuffle(gs)
    return {"graphs": gs, "x": GroundSet((0, 1, 2, 3))}


def topx4_run(state: dict):
    import iasl_lab.search as search
    x = state["x"]
    lats, solutions = [], []
    for g in state["graphs"]:
        vs = g.vertices
        start = time.perf_counter()
        sols = [tuple(m[v] for v in vs)
                for _t, m in search.iter_top_iasl_assignments(g, x)]
        lats.append(time.perf_counter() - start)
        solutions.append(sols)
    state["solutions"] = solutions
    return lats


def topx4_table(state: dict) -> dict:
    return solution_table(state["graphs"], state["solutions"])


def solution_table(graphs, solutions) -> dict:
    """Isomorphism- and order-insensitive digest of every graph's solutions.

    A graph is named by its degree sequence and an occurrence index; its
    value counts the solutions and hashes the sorted multiset of per-solution
    fingerprints (each vertex's label with the sorted labels of its
    neighbours). Neither depends on the order the graphs or the solutions
    come in, nor on which representative of an isomorphism class the
    enumeration returns, so a faster enumeration or search that finds the
    same labelings passes the gate.
    """
    entries = Counter()
    for g, sols in zip(graphs, solutions):
        idx = {v: i for i, v in enumerate(g.vertices)}
        nbrs = [[idx[w] for w in g.neighbors(v)] for v in g.vertices]
        prints = sorted(
            tuple(sorted((s[i], tuple(sorted(s[j] for j in nbrs[i])))
                         for i in range(len(s))))
            for s in sols)
        digest = hashlib.sha256(repr(prints).encode()).hexdigest()[:16]
        degs = "".join(str(d) for d in sorted(g.degrees().values(), reverse=True))
        entries[f"n{g.n}.m{g.m}.d{degs}", f"{len(sols)}:{digest}"] += 1
    table = {}
    seen = Counter()
    for (shape, value), count in sorted(entries.items()):
        for _ in range(count):
            table[f"{shape}#{seen[shape]}"] = value
            seen[shape] += 1
    return table


def topx4_verify(state, tracer):
    from iasl_lab import IntSet, Labeling, verify_top_iasl
    x = state["x"]
    attempted = failed = 0
    for g, sols in zip(state["graphs"], state["solutions"]):
        for s in sols:
            f = Labeling(x, {v: IntSet.from_mask(m) for v, m in zip(g.vertices, s)})
            with tracer.span("labelings.verify"):
                failed += not verify_top_iasl(g, f).verdict
            attempted += 1
    return attempted, failed


# --- min-ground-set ------------------------------------------------------------

def mgs_cases():
    """The 14 graphs of scripts/smallest_ground_sets.py."""
    from iasl_lab import complete, complete_bipartite, cycle, path, star
    cases = [(f"K_(1,{k})", star(k)) for k in (1, 2, 3, 6, 14)]
    cases.extend((f"P_{n}", path(n)) for n in (2, 3, 4, 5))
    cases.extend((f"C_{n}", cycle(n)) for n in (3, 4, 6))
    cases.append(("K_4", complete(4)))
    cases.append(("K_(2,3)", complete_bipartite(2, 3)))
    return cases


def mgs_setup(seed: int) -> dict:
    # the order stays fixed: the 42 searches share the topology cache, so
    # whichever comes first pays for each cold ground set
    return {"ops": [(name, g, mode) for name, g in mgs_cases() for mode in MODES]}


def mgs_run(state: dict):
    import iasl_lab.search as search
    lats, grounds = [], []
    for _name, g, mode in state["ops"]:
        x, lat = _timed(search.minimal_ground_set, g, mode, 6)
        lats.append(lat)
        grounds.append(x)
    state["grounds"] = grounds
    return lats


def mgs_table(state: dict) -> dict:
    return {f"{name}/{mode}": "-" if x is None else str(x)
            for (name, _g, mode), x in zip(state["ops"], state["grounds"])}


def mgs_verify(state, tracer):
    """Search again at each ground set found and verify the labeling."""
    from iasl_lab import (search_iasgl, search_top_iasgl, search_top_iasl,
                          verify_iasgl, verify_top_iasgl, verify_top_iasl)
    searches = {"iasgl": (search_iasgl, verify_iasgl),
                "top_iasl": (search_top_iasl, verify_top_iasl),
                "top_iasgl": (search_top_iasgl, verify_top_iasgl)}
    attempted = failed = 0
    for (_name, g, mode), x in zip(state["ops"], state["grounds"]):
        if x is None:
            continue
        find, check = searches[mode]
        out = find(g, x)
        with tracer.span("labelings.verify"):
            failed += not (out.found and check(g, out.labeling).verdict)
        attempted += 1
    return attempted, failed


WORKLOADS = {
    "oracle-suite": (oracle_setup, oracle_run, oracle_table, oracle_verify),
    "iasgl-deep": (deep_setup, deep_run, deep_table, deep_verify),
    "top-x4": (topx4_setup, topx4_run, topx4_table, topx4_verify),
    "min-ground-set": (mgs_setup, mgs_run, mgs_table, mgs_verify),
}


def gate(outputs: dict, reference: dict) -> int:
    """Operations whose output differs from the reference, or is missing."""
    keys = set(outputs) | set(reference)
    return sum(outputs.get(k) != reference.get(k) for k in keys)
