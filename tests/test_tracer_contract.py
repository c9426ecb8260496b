"""The benchmark's span tracer wraps library attributes by name.

``perfbench/tracer.instrument`` patches the searches, the oracle's solution
caches and checks, the topology enumeration, the graph enumeration,
``Graph.canonical_key`` and the CLI where the calling modules look them up.
A renamed attribute would break only a traced benchmark run, so this test
instruments a fresh interpreter and checks that the traced calls give the
untraced results and open the expected spans.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from iasl_lab import (GroundSet, cli, cycle, graphs_isomorphic, minimal_ground_set,
                      search_top_iasl, star)

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_SPANS = ("oracle.check.P1", "oracle.check.T-real", "search.iasgl",
                  "search.top_iasl", "search.top_iasgl", "topology.enumerate_cold",
                  "graphs.enumerate", "graphs.canonical_key", "search.screen",
                  "oracle.solutions")

TRACED = """
import contextlib, io, json
import tracer
from iasl_lab import cli, search
from iasl_lab.graphs import cycle, graphs_isomorphic, star
from iasl_lab.intsets import GroundSet

t = tracer.Tracer("contract")
tracer.instrument(t)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["oracle", "all", "--max-vertices", "5", "--json"])
top = search.search_top_iasl(star(3), GroundSet((0, 1, 2))).to_json()
least = search.minimal_ground_set(star(2), "top_iasgl")
iso = [graphs_isomorphic(star(3), star(3)), graphs_isomorphic(star(3), cycle(4))]
print(json.dumps({"oracle": [code, out.getvalue()], "top": top,
                  "least": str(least), "iso": iso,
                  "spans": sorted({name for _i, name, *_ in t.spans})}))
"""


def _untraced() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["oracle", "all", "--max-vertices", "5", "--json"])
    return {"oracle": [code, out.getvalue()],
            "top": search_top_iasl(star(3), GroundSet((0, 1, 2))).to_json(),
            "least": str(minimal_ground_set(star(2), "top_iasgl")),
            "iso": [graphs_isomorphic(star(3), star(3)),
                    graphs_isomorphic(star(3), cycle(4))]}


def test_instrumented_library_gives_the_same_results_and_spans():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", TRACED], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    traced = json.loads(proc.stdout)
    spans = traced.pop("spans")
    assert traced == _untraced()
    assert set(EXPECTED_SPANS) <= set(spans)
