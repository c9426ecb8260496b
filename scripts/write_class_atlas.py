#!/usr/bin/env python3
"""Write the class atlas, src/iasl_lab/_class_atlas.py, from the class build.

The atlas holds the canonical edge masks of the connected graphs on n
vertices, up to isomorphism, for n = 1 to ENUMERATION_VERTEX_CAP, as
``graphs._connected_class_masks(n)`` builds them. ``enumerate_connected_graphs``
reads them from there. Run this after a change to the class build or to the
cap; tests/test_scripts.py::TestClassAtlas fails while the committed atlas
differs from what this script renders.

Usage:
    python scripts/write_class_atlas.py
"""

import argparse
import textwrap
from pathlib import Path

from iasl_lab import graphs

ATLAS = Path(__file__).resolve().parent.parent / "src" / "iasl_lab" / "_class_atlas.py"

HEADER = '''\
"""Canonical edge masks of the connected graphs on n vertices, up to
isomorphism, for n = 1 to ENUMERATION_VERTEX_CAP: one string of hex masks
per n, in increasing order, as ``graphs._connected_class_masks(n)`` builds
them. Bit k of a mask is the k-th vertex pair (i, j), i < j, in
lexicographic order.

Generated by scripts/write_class_atlas.py; do not edit.
"""
'''


def render() -> str:
    """The atlas module's text."""
    lines = [HEADER, "CLASS_MASKS = {"]
    for n in range(1, graphs.ENUMERATION_VERTEX_CAP + 1):
        masks = " ".join(f"{mask:x}" for mask in graphs._connected_class_masks(n))
        lines.append(f'    {n}: """')
        lines.extend(textwrap.wrap(masks, 79))
        lines.append('""",')
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    ATLAS.write_text(render(), encoding="utf-8")
    print(f"wrote {ATLAS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
