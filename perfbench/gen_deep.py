#!/usr/bin/env python3
"""Generate the iasgl-deep graphs: random graphs with |X| = 5 that the screen admits.

Each candidate is a random recursive tree on 20 vertices (vertex i attaches
to a uniformly chosen earlier vertex) plus uniform extra edges up to 30
edges, the edge count a set-graceful labeling over X = {0,...,4} needs. The
first three candidates that ``screen`` admits are kept, so the graphs depend
only on the seed. The committed files are the default seed's output.

Usage:
    python3 perfbench/gen_deep.py [--seed 1] [--out DIR]
    python3 perfbench/gen_deep.py --check   # regenerate, compare byte for byte
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

DEFAULT_SEED = 1
DEFAULT_COUNT = 3
VERTICES = 20
EDGES = 30
DEFAULT_DIR = HERE / "data" / "iasgl-deep"


def _candidate(rng: random.Random):
    from iasl_lab import Graph
    names = [f"v{i}" for i in range(VERTICES)]
    edges = {(rng.randrange(i), i) for i in range(1, VERTICES)}
    while len(edges) < EDGES:
        a, b = sorted(rng.sample(range(VERTICES), 2))
        edges.add((a, b))
    return Graph(names, [(names[a], names[b]) for a, b in sorted(edges)])


def generate(seed: int = DEFAULT_SEED, count: int = DEFAULT_COUNT) -> dict[str, str]:
    """File name -> edge-list text for the first ``count`` admitted graphs."""
    from iasl_lab import GroundSet, screen
    x = GroundSet(range(5))
    rng = random.Random(seed)
    out: dict[str, str] = {}
    tried = 0
    while len(out) < count:
        g = _candidate(rng)
        tried += 1
        if screen(g, x).admissible():
            name = f"g{len(out) + 1:02d}.edges"
            header = (f"# iasgl-deep graph {len(out) + 1} of seed {seed} "
                      f"(candidate {tried}): {g.n} vertices, {g.m} edges\n")
            out[name] = header + g.emit()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=DEFAULT_DIR)
    parser.add_argument("--check", action="store_true",
                        help="compare with the files in --out instead of writing")
    args = parser.parse_args(argv)
    files = generate(args.seed)
    if args.check:
        on_disk = {p.name: p.read_text(encoding="utf-8")
                   for p in sorted(args.out.glob("*.edges"))}
        if on_disk != files:
            print(f"{args.out} differs from seed {args.seed}", file=sys.stderr)
            return 1
        print(f"{args.out} matches seed {args.seed} ({len(files)} graphs)")
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (args.out / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(files)} graphs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
