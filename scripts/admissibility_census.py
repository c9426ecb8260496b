#!/usr/bin/env python3
"""Census of which small connected graphs admit which labeling classes.

For every isomorphism class of connected graphs up to --max-vertices and
every requested ground set, runs the three searches and tabulates the
outcomes. A quick way to see how brutally selective the graceful classes are.

Usage:
    python scripts/admissibility_census.py [--max-vertices 6] [--ground-set "{0,1,2}"]
"""

import argparse
import sys
import time
from collections import Counter

from iasl_lab import GroundSet, enumerate_connected_graphs, structure
from iasl_lab.cli import DEFAULT_GROUND_SETS, integer
from iasl_lab.graphs import ENUMERATION_VERTEX_CAP
from iasl_lab.search import SEARCHES


def census(max_vertices, ground_sets):
    for x in ground_sets:
        print(f"\n=== ground set {x} ===")
        print(f"{'n':>2} {'classes':>8} {'iasgl':>6} {'top-iasl':>9} {'top-iasgl':>10}")
        totals = Counter()
        graceful = []
        for n in range(1, max_vertices + 1):
            counts = Counter()
            for g in enumerate_connected_graphs(n, dedup=True):
                found = [mode for mode, search in SEARCHES.items() if search(g, x).found]
                counts.update(["classes", *found])
                if "iasgl" in found:
                    graceful.append((n, g))
            totals.update(counts)
            print(f"{n:>2} {counts['classes']:>8} {counts['iasgl']:>6} "
                  f"{counts['top_iasl']:>9} {counts['top_iasgl']:>10}")
        print(f"   {totals['classes']:>8} {totals['iasgl']:>6} "
              f"{totals['top_iasl']:>9} {totals['top_iasgl']:>10}  (totals)")
        if graceful:
            print("graceful classes:")
            for n, g in graceful:
                st = structure(g)
                shape = "star" if st.is_star else ("tree" if st.is_tree else
                                                   f"{g.m}-edge graph")
                print(f"  n={n}: {shape}, degrees "
                      f"{sorted(st.degrees.values(), reverse=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-vertices", type=integer, default=6)
    parser.add_argument("--ground-set", action="append", default=[],
                        help="repeatable; defaults to "
                        + " and ".join(DEFAULT_GROUND_SETS))
    args = parser.parse_args(argv)
    try:
        if not 1 <= args.max_vertices <= ENUMERATION_VERTEX_CAP:
            raise ValueError(f"--max-vertices must be 1 to {ENUMERATION_VERTEX_CAP}, "
                             f"got {args.max_vertices}")
        ground_sets = [GroundSet.parse(s)
                       for s in args.ground_set or DEFAULT_GROUND_SETS]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    census(args.max_vertices, ground_sets)
    print(f"\ntotal time: {(time.perf_counter() - t0) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
