#!/usr/bin/env python3
"""Smallest ground set admitting each labeling class, for standard graphs.

Tabulates minimal_ground_set over stars, paths, cycles, and small complete
graphs. The graceful columns are mostly empty: the edge count must hit
2^|X| - 2 exactly, which very few shapes manage.

Usage:
    python scripts/smallest_ground_sets.py [--max-element 6]
"""

import argparse
import sys
import time

from iasl_lab import (complete, complete_bipartite, cycle, minimal_ground_set,
                      path, star)
from iasl_lab.cli import integer
from iasl_lab.search import SEARCHES


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-element", type=integer, default=6)
    args = parser.parse_args(argv)

    cases = []
    cases.extend((f"K_(1,{k})", star(k)) for k in (1, 2, 3, 6, 14))
    cases.extend((f"P_{n}", path(n)) for n in (2, 3, 4, 5))
    cases.extend((f"C_{n}", cycle(n)) for n in (3, 4, 6))
    cases.append(("K_4", complete(4)))
    cases.append(("K_(2,3)", complete_bipartite(2, 3)))

    t0 = time.perf_counter()
    try:
        # the whole table before any output: the first search rejects a
        # bad --max-element before it does any work
        rows = [[name] + [minimal_ground_set(g, mode, element_bound=args.max_element)
                          for mode in SEARCHES]
                for name, g in cases]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'graph':<10} " + " ".join(f"{mode.replace('_', '-'):<14}"
                                       for mode in SEARCHES))
    for name, *grounds in rows:
        cells = [str(x) if x is not None else "-" for x in grounds]
        print(f"{name:<10} " + " ".join(f"{cell:<14}" for cell in cells))
    print(f"\ntotal time: {(time.perf_counter() - t0) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
