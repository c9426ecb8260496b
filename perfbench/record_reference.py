#!/usr/bin/env python3
"""Record the gate's reference outputs from the current library.

Runs one pass of each workload and writes ``data/reference.json``. The
committed file was recorded from the code the benchmark was written against;
record again only when a change is meant to alter results, and say so.

Usage:
    python3 perfbench/record_reference.py [workload ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    path = workloads.REFERENCE
    reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in names:
        setup, run, table, _verify = workloads.WORKLOADS[name]
        state = setup(0)
        run(state)
        reference[name] = dict(sorted(table(state).items()))
        print(f"{name}: {len(reference[name])} operations")
    path.write_text(json.dumps(dict(sorted(reference.items())), indent=1) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
