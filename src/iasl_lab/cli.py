"""Command-line interface.

Exit codes: 0 = verdict true / found / suite clean, 1 = verdict false /
not found, 2 = input or feasibility error. ``--json`` switches every
subcommand to a versioned JSON payload; the default is aligned text.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial
from typing import Optional

from .graphs import parse_graph
from .intsets import GroundSet, classify
from .labelings import (parse_labeling, uniformity_degree, verify_iasgl,
                        verify_iasi, verify_iasl, verify_uniform)
from .oracle import ORACLE_CHECKS, run_all, run_checks, suite_clean
from .search import SEARCHES, minimal_ground_set
from .topology import (enumerate_topologies, parse_topology, realize_topology,
                       verify_top_iasgl, verify_top_iasl)

SCHEMA = "iasl-lab/1"
DEFAULT_GROUND_SETS = ("{0,1}", "{0,1,2}")

_VERIFIERS = {
    "iasl": verify_iasl,
    "iasi": verify_iasi,
    "iasgl": verify_iasgl,
    "top-iasl": verify_top_iasl,
    "top-iasgl": verify_top_iasgl,
}


def _search_mode(name: str) -> str:
    """The library's mode for a documented mode name: iasgl, top-iasl or
    top-iasgl."""
    modes = {mode.replace("_", "-"): mode for mode in SEARCHES}
    if name not in modes:
        raise ValueError(f"unknown search mode {name!r}, expected one of "
                         f"{', '.join(modes)}")
    return modes[name]


def integer(text: str) -> int:
    """An optional '-' then ASCII digits; int() would also take '+', '_' and
    the digits of other scripts."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2))


def _read(path: str) -> str:
    # newline="": the text formats end a line at "\n" only (text_lines), so
    # a lone "\r" must reach the parser unchanged; utf-8-sig drops a leading
    # byte-order mark, which would otherwise stick to the first token
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def _cmd_verify(args) -> int:
    if args.cls.startswith("uniform:"):
        k = uniformity_degree(integer(args.cls.split(":", 1)[1]))
        verify = partial(verify_uniform, k=k)
    elif args.cls == "uniform":
        raise ValueError("uniform class needs a degree, e.g. --class uniform:2")
    elif args.cls in _VERIFIERS:
        verify = _VERIFIERS[args.cls]
    else:
        raise ValueError(f"unknown labeling class {args.cls!r}")
    report = verify(parse_graph(_read(args.graph)),
                    parse_labeling(_read(args.labeling)))
    if args.json:
        _emit_json({"command": "verify", "class": args.cls, **report.to_json()})
    else:
        print(f"verdict: {'true' if report.verdict else 'false'}")
        for v in report.violations:
            print(f"  {v.kind:<24} {v.where:<16} {v.detail}")
    return 0 if report.verdict else 1


def _cmd_classify(args) -> int:
    x = GroundSet.parse(args.ground)
    cls = classify(x)
    if args.json:
        subsets = []
        for s, c in cls.per_subset.items():
            subsets.append({
                "set": str(s),
                "nontrivial_sumset": c.is_nontrivial_sumset,
                "nontrivial_summand": c.is_nontrivial_summand,
                "witness": None if c.witness is None
                else [str(c.witness[0]), str(c.witness[1])],
            })
        _emit_json({"command": "classify", "ground": str(x), **cls.to_json(),
                    "subsets": subsets})
    else:
        print(f"ground set: {x}")
        print(f"rho = {cls.rho}   rho' = {cls.rho_prime}   "
              f"rho'' = {cls.rho_double_prime}   X is a sumset: "
              f"{'yes' if cls.x_is_sumset else 'no'}")
        for s, c in cls.per_subset.items():
            flags = []
            if c.is_nontrivial_sumset:
                w = c.witness
                flags.append(f"sumset ({w[0]} + {w[1]})")
            if c.is_nontrivial_summand:
                flags.append("summand")
            print(f"  {str(s):<12} {', '.join(flags) if flags else '-'}")
    return 0


def _cmd_search(args) -> int:
    search = SEARCHES[_search_mode(args.mode)]
    g = parse_graph(_read(args.graph))
    x = GroundSet.parse(args.ground)
    outcome = search(g, x)
    if args.json:
        _emit_json({"command": "search", "mode": args.mode, "ground": str(x),
                    **outcome.to_json()})
    else:
        print(f"found: {'yes' if outcome.found else 'no'}")
        print(f"nodes explored: {outcome.nodes_explored}")
        if outcome.labeling is not None:
            for v, s in outcome.labeling.assignment.items():
                print(f"  {v:<12} {s}")
    return 0 if outcome.found else 1


def _cmd_realize(args) -> int:
    t = parse_topology(_read(args.topology))
    g, f = realize_topology(t)
    if args.out_graph:
        with open(args.out_graph, "w", encoding="utf-8") as fh:
            fh.write(g.emit())
    if args.out_labeling:
        with open(args.out_labeling, "w", encoding="utf-8") as fh:
            fh.write(f.emit())
    if args.json:
        _emit_json({"command": "realize", "topology": t.to_json(),
                    "graph": g.to_json(), "labeling": f.to_json()})
    elif not (args.out_graph and args.out_labeling):
        print("# graph")
        print(g.emit(), end="")
        print("# labeling")
        print(f.emit(), end="")
    return 0


def _cmd_enum_topologies(args) -> int:
    x = GroundSet.parse(args.ground)
    tops = enumerate_topologies(x, require_zero_singleton=args.with_zero)
    if args.json:
        payload = {"command": "enum-topologies", "ground": str(x),
                   "count": len(tops)}
        if not args.count:
            payload["topologies"] = [t.to_json() for t in tops]
        _emit_json(payload)
    elif args.count:
        print(len(tops))
    else:
        print(f"{len(tops)} topologies on {x}")
        for t in tops:
            print("  " + " ".join(str(s) for s in t.opens))
    return 0


def _cmd_min_ground_set(args) -> int:
    mode = _search_mode(args.mode)
    g = parse_graph(_read(args.graph))
    x = minimal_ground_set(g, mode, element_bound=args.max_element)
    if args.json:
        _emit_json({"command": "min-ground-set", "mode": args.mode,
                    "found": x is not None,
                    "ground": None if x is None else str(x)})
    else:
        print(str(x) if x is not None else "none")
    return 0 if x is not None else 1


def _cmd_oracle(args) -> int:
    ground_sets = [GroundSet.parse(s) for s in args.ground_set or DEFAULT_GROUND_SETS]
    if args.ids == ["all"]:
        reports = run_all(args.max_vertices, ground_sets)
    else:
        reports = run_checks(args.ids, args.max_vertices, ground_sets)
    clean = suite_clean(reports)
    if args.json:
        _emit_json({"command": "oracle", "max_vertices": args.max_vertices,
                    "ground_sets": [str(x) for x in ground_sets],
                    "clean": clean,
                    "reports": [r.to_json() for r in reports]})
    else:
        print(f"{'id':<10} {'holds':<15} {'instances':>9}  notes")
        for r in reports:
            note = "documented" if r.documented and r.holds != "confirmed" else ""
            print(f"{r.theorem_id:<10} {r.holds:<15} {r.instances_checked:>9}  {note}")
            for fnd in r.findings:
                print(f"{'':10} finding [{fnd.status}] {fnd.label}: {fnd.detail}")
            for w in r.witnesses[:3]:
                print(f"{'':10} witness: {w.detail}")
        print(f"suite {'clean' if clean else 'NOT clean'}")
    return 0 if clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iasl-lab",
        description="Integer additive set-labelings: verify, classify, search, "
                    "realise, enumerate, and stress-test the structural results.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a labeling file against a class")
    p.add_argument("--class", dest="cls", required=True,
                   help="iasl | iasi | uniform:k | iasgl | top-iasl | top-iasgl")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("labeling", help="labeling file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("classify", help="sumset classification of a ground set")
    p.add_argument("ground", help="ground set literal, e.g. '{0,1,2}'")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("search", help="search for a labeling of a graph")
    p.add_argument("--mode", required=True, help="iasgl | top-iasl | top-iasgl")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("ground", help="ground set literal")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("realize", help="realise a topology as a labeled star")
    p.add_argument("topology", help="topology file, one subset per line")
    p.add_argument("--out-graph", help="write the graph to this file")
    p.add_argument("--out-labeling", help="write the labeling to this file")
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("enum-topologies", help="enumerate topologies on a ground set")
    p.add_argument("ground", help="ground set literal")
    p.add_argument("--with-zero", action="store_true",
                   help="only topologies containing {0}")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(fn=_cmd_enum_topologies)

    p = sub.add_parser("min-ground-set", help="smallest ground set admitting a labeling")
    p.add_argument("--mode", required=True, help="iasgl | top-iasl | top-iasgl")
    p.add_argument("--max-element", type=integer, default=6)
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(fn=_cmd_min_ground_set)

    p = sub.add_parser("oracle", help="run the theorem-checking suite")
    p.add_argument("ids", nargs="+",
                   help=f"'all' or any of: {', '.join(ORACLE_CHECKS)}")
    p.add_argument("--max-vertices", type=integer, default=6)
    p.add_argument("--ground-set", action="append", default=[],
                   help="ground set literal (repeatable); default "
                        + " and ".join(DEFAULT_GROUND_SETS))
    p.set_defaults(fn=_cmd_oracle)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
