"""Desk-scale exhaustive verification of the structural labeling results.

Each registered check enumerates every connected graph up to the vertex cap,
exhausts the relevant labelings, and classifies the claim as confirmed,
counterexample, or mixed. Counterexamples to ambiguously worded claims are
first-class outputs: several of the statements under test contradict each
other, and this suite's job is to adjudicate them mechanically, not to
assume them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .graphs import (ENUMERATION_VERTEX_CAP, Graph, enumerate_connected_graphs,
                     structure)
from .intsets import (EnumerationInfeasible, GroundSet, IntSet, ZERO_MASK,
                      classify)
from .labelings import Labeling
from . import search
from .search import iter_iasgl_assignments, iter_top_iasl_assignments
from .topology import (closed_family, enumerate_topologies,
                       realize_topology, verify_top_iasl)


@dataclass(frozen=True)
class Scope:
    max_vertices: int
    ground_sets: tuple

    def to_json(self) -> dict:
        return {"max_vertices": self.max_vertices,
                "ground_sets": [str(x) for x in self.ground_sets]}


@dataclass(frozen=True)
class Witness:
    graph: Graph
    labeling: Optional[Labeling]
    detail: str

    def to_json(self) -> dict:
        return {"graph": self.graph.to_json(),
                "labeling": None if self.labeling is None else self.labeling.to_json(),
                "detail": self.detail}


@dataclass(frozen=True)
class Finding:
    """An adjudicated observation that is reported rather than asserted."""

    label: str
    status: str  # supported | counterexample | mixed | info
    detail: str
    witnesses: tuple = ()

    def to_json(self) -> dict:
        return {"label": self.label, "status": self.status, "detail": self.detail,
                "witnesses": [w.to_json() for w in self.witnesses]}


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    description: str
    scope: Scope
    instances_checked: int
    holds: str  # confirmed | counterexample | mixed
    witnesses: tuple
    documented: bool
    findings: tuple = ()

    def to_json(self) -> dict:
        return {
            "id": self.theorem_id,
            "description": self.description,
            "scope": self.scope.to_json(),
            "instances_checked": self.instances_checked,
            "holds": self.holds,
            "documented": self.documented,
            "witnesses": [w.to_json() for w in self.witnesses],
            "findings": [f.to_json() for f in self.findings],
        }


class OracleScope:
    """Shared enumeration and labeling caches for one (cap, ground sets) run."""

    def __init__(self, max_vertices: int, ground_sets):
        if max_vertices < 1:
            raise ValueError(f"oracle needs at least 1 vertex, got {max_vertices}")
        if max_vertices > ENUMERATION_VERTEX_CAP:
            raise EnumerationInfeasible(
                f"oracle capped at {ENUMERATION_VERTEX_CAP} vertices, got {max_vertices}")
        ground_sets = tuple(ground_sets)
        for i, x in enumerate(ground_sets):
            if x in ground_sets[:i]:
                raise ValueError(f"ground set {x} is given twice")
        self.max_vertices = max_vertices
        self.ground_sets = ground_sets
        self.scope = Scope(max_vertices, self.ground_sets)
        self._graphs: Optional[list] = None
        self._iasgl: dict = {}
        self._top_iasl: dict = {}
        self._top_iasgl: dict = {}

    def graphs(self) -> list:
        """(graph, structure) for every connected graph in scope, built once."""
        if self._graphs is None:
            self._graphs = [(g, structure(g)) for n in range(1, self.max_vertices + 1)
                            for g in enumerate_connected_graphs(n, dedup=True)]
        return self._graphs

    def pairs(self):
        return ((g, x) for g, _st in self.graphs() for x in self.ground_sets)

    def structured_pairs(self):
        """(graph, X, structure of the graph) for every pair in scope."""
        return ((g, x, st) for g, st in self.graphs() for x in self.ground_sets)

    def iasgl_solutions(self, g: Graph, x: GroundSet) -> tuple:
        sols = self._iasgl.get((g, x))
        if sols is None:
            sols = self._iasgl[g, x] = tuple(iter_iasgl_assignments(g, x))
        return sols

    def top_iasl_solutions(self, g: Graph, x: GroundSet) -> tuple:
        sols = self._top_iasl.get((g, x))
        if sols is None:
            sols = self._top_iasl[g, x] = tuple(
                masks for _t, masks in iter_top_iasl_assignments(g, x))
        return sols

    def top_iasgl_solutions(self, g: Graph, x: GroundSet) -> tuple:
        """The cached graceful solutions, filtered as in
        ``iter_top_iasgl_assignments``."""
        sols = self._top_iasgl.get((g, x))
        if sols is None:
            sols = self._top_iasgl[g, x] = tuple(
                sol for sol in self.iasgl_solutions(g, x)
                if closed_family(sol.values(), x.mask))
        return sols

    @staticmethod
    def labeling(x: GroundSet, sol: dict) -> Labeling:
        return Labeling(x, {v: IntSet.from_mask(m) for v, m in sol.items()})


def _zero_vertex(sol: dict) -> Optional[str]:
    for v, m in sol.items():
        if m == ZERO_MASK:
            return v
    return None


def _solution_witness(ctx, g, x, sol, detail="") -> Witness:
    return Witness(g, ctx.labeling(x, sol), detail or f"X = {x}")


def _graceful_star(g: Graph, x: GroundSet, st) -> bool:
    """Whether g is the star with 2^|X| - 2 leaves."""
    return st.is_star and g.m == (1 << x.size) - 2


# --- the runner ----------------------------------------------------------------

def _tally_finding(label: str, detail: str, matched: int, total: int,
                   witnesses: list) -> Finding:
    if total == 0:
        return Finding(label, "info", f"{detail}; no instances in scope")
    if matched == total:
        return Finding(label, "supported", f"{detail}; {matched}/{total} instances match")
    status = "counterexample" if matched == 0 else "mixed"
    return Finding(label, status, f"{detail}; {matched}/{total} instances match",
                   tuple(witnesses))


def _findings(tallies: dict) -> tuple:
    """One finding per reading that some labeling reached, by key."""
    return tuple(_tally_finding(k, *rec) for k, rec in sorted(tallies.items())
                 if rec[2])


def _run(check: "_Check", ctx: OracleScope) -> tuple:
    """Count the instances, passes, witnesses and reading tallies of one check.

    ``check.judge(ctx, *instance)`` yields ``True`` for a pass, a ``Witness``
    for a failure, and ``(key, match, build)`` for a reading of the claim,
    where ``build()`` makes the reading's witness. A finding prints at most
    three witnesses, so only the first three misses of a reading build one.
    """
    tallies = {key: [detail, 0, 0, []] for key, detail in check.readings}
    instances = passes = 0
    witnesses = []
    for inst in check.instances(ctx):
        if not check.applies(*inst):
            continue
        instances += 1
        for verdict in check.judge(ctx, *inst):
            if verdict is True:
                passes += 1
            elif isinstance(verdict, Witness):
                witnesses.append(verdict)
            else:
                key, match, build = verdict
                rec = tallies[key]
                rec[1] += match
                rec[2] += 1
                if not match and len(rec[3]) < 3:
                    rec[3].append(build())
    holds = ("confirmed" if not witnesses
             else "counterexample" if passes == 0 else "mixed")
    return instances, holds, witnesses, check.report(tallies)


@dataclass(frozen=True)
class _Check:
    """One oracle check as a record, run by ``_run``.

    The check's instances are those of ``instances(ctx)``, by default the
    (graph, X, structure) triples in scope, that ``applies`` accepts.
    ``readings`` pairs each tallied key with its description, and ``report``
    turns the tallies into findings. ``fn(ctx)`` returns (instances, holds,
    witnesses, findings); it runs this record unless given, and is a field
    so that instrumentation can replace it with a wrapper.
    """

    description: str
    judge: Callable
    applies: Callable = lambda g, x, st: True
    ambiguous: bool = False
    readings: tuple = ()
    report: Callable = _findings
    instances: Callable = OracleScope.structured_pairs
    fn: Optional[Callable] = None

    def __post_init__(self):
        if self.fn is None:
            object.__setattr__(self, "fn", partial(_run, self))


# --- the registered checks ---------------------------------------------------

def _judge_p1(ctx, g, x, st):
    """{0} is a vertex label in every set-graceful labeling."""
    for sol in ctx.iasgl_solutions(g, x):
        yield _zero_vertex(sol) is not None or Witness(
            g, ctx.labeling(x, sol), f"no vertex labeled {{0}} over X = {x}")


def _judge_p2(ctx, g, x, st):
    """Every graceful graph has at least |X| - 1 pendant vertices."""
    if ctx.iasgl_solutions(g, x):
        pend = len(st.pendant_vertices)
        yield pend >= x.size - 1 or Witness(
            g, None, f"{pend} pendants < |X| - 1 = {x.size - 1}")


def _judge_p3(ctx, g, x, st):
    """The {0}-vertex has at least 1 + 2^(|X|-1) neighbors (as claimed)."""
    target = 1 + (1 << (x.size - 1))
    for sol in ctx.iasgl_solutions(g, x):
        zv = _zero_vertex(sol)
        if zv is None:
            continue
        deg = st.degrees[zv]
        yield deg >= target or Witness(
            g, ctx.labeling(x, sol),
            f"{{0}}-vertex {zv} has {deg} neighbors, claim demands {target} "
            f"over X = {x}")


def _pendant_neighbors(g: Graph) -> list[int]:
    """The number of pendant neighbors of each vertex, in vertex order."""
    adj = g.neighbor_masks()
    pendants = sum(1 << v for v, a in enumerate(adj) if a.bit_count() == 1)
    return [(a & pendants).bit_count() for a in adj]


def _maxel_pendants(ctx, g, x, st, solutions):
    """Labels containing max(X) sit on pendants adjacent to the {0}-vertex."""
    top = x.max_element
    for sol in solutions:
        zv = _zero_vertex(sol)
        for v, m in sol.items():
            if m >> top & 1 and (st.degrees[v] != 1 or zv is None
                                 or zv not in g.neighbors(v)):
                yield Witness(g, ctx.labeling(x, sol),
                              f"vertex {v} carries max(X) = {top} but is not a "
                              f"pendant neighbor of the {{0}}-vertex")
                break
        else:
            yield True


def _judge_t_even(ctx, g, x, st):
    """Every graceful graph has an even number of edges."""
    if ctx.iasgl_solutions(g, x):
        yield g.m % 2 == 0 or Witness(g, None, f"odd edge count {g.m} over X = {x}")


def _judge_t_char(ctx, g, x, st):
    """Four-condition graceful characterization; (b)-(d) reported, not assumed.

    The counts in conditions (b)-(d) do not say whether {0} or the empty set
    participate, so every defensible reading is tallied as a finding.
    """
    sols = ctx.iasgl_solutions(g, x)
    if not sols:
        return
    cls = classify(x)
    n_subsets = (1 << x.size) - 1  # non-empty subsets
    summands = len(cls.nontrivial_summands())
    neither = cls.rho_prime  # excludes {0}, which is neither: add 1 to include it
    not_sum_or_not_summand = sum(
        1 for c in cls.per_subset.values()
        if not (c.is_nontrivial_sumset and c.is_nontrivial_summand))
    pend = len(st.pendant_vertices)
    pendant_neighbors = dict(zip(g.vertices, _pendant_neighbors(g)))
    for sol in sols:
        zv = _zero_vertex(sol)
        if zv is None:
            yield Witness(g, ctx.labeling(x, sol), "condition (a): no {0}-labeled vertex")
            continue
        yield True
        wit = partial(_solution_witness, ctx, g, x, sol)
        deg0 = st.degrees[zv]
        pend_adj = pendant_neighbors[zv]
        yield "b-nonempty", pend == n_subsets - summands, wit
        yield "b-with-empty", pend == n_subsets - summands + 1, wit
        yield "c-not-both", deg0 == not_sum_or_not_summand, wit
        yield "c-neither", deg0 == neither + 1, wit
        yield "d-excl-zero", pend_adj == neither, wit
        yield "d-incl-zero", pend_adj == neither + 1, wit


def _judge_t_tree(ctx, g, x, st):
    """A tree is graceful iff it is the star with 2^|X| - 2 leaves."""
    admits = bool(ctx.iasgl_solutions(g, x))
    is_right_star = _graceful_star(g, x, st)
    yield admits == is_right_star or Witness(
        g, None,
        f"tree admits={admits} but star-with-{(1 << x.size) - 2}-leaves="
        f"{is_right_star} over X = {x}")


def _judge_t_toppend(ctx, g, x, st):
    """Topologically labelable (non-trivial) graphs have a pendant vertex."""
    if ctx.top_iasl_solutions(g, x):
        yield bool(st.pendant_vertices) or Witness(
            g, None, f"no pendant vertex over X = {x}")


def _judge_t_disc(ctx, g, x, st):
    """Discrete-topology labelings exist iff 2^(|X|-1) pendants share a neighbor."""
    # on 2^|X| - 1 vertices an injective labeling uses every non-empty subset
    admits = bool(ctx.top_iasl_solutions(g, x))
    cond = max(_pendant_neighbors(g)) >= 1 << (x.size - 1)
    yield admits == cond or Witness(
        g, None,
        f"discrete labeling exists={admits}, pendant condition={cond} "
        f"over X = {x}")


def _judge_t_real(ctx, t):
    """Every topology containing {0} (3+ opens) is realisable by the star build."""
    g, f = realize_topology(t)
    family = {s.mask for s in f.assignment.values()}
    expected = {m for m in t.open_masks if m != 0}
    yield (verify_top_iasl(g, f).verdict and family == expected) or Witness(
        g, f, f"realisation failed for {t.to_json()}")


def _judge_t_treq(ctx, g, x, st):
    """For trees, graceful and topological-graceful existence coincide."""
    a = bool(ctx.iasgl_solutions(g, x))
    b = bool(ctx.top_iasgl_solutions(g, x))
    yield a == b or Witness(
        g, None, f"graceful={a} but topological-graceful={b} over X = {x}")
    for sol in ctx.iasgl_solutions(g, x):
        yield ("tree-iasgl-topological", closed_family(sol.values(), x.mask),
               partial(_solution_witness, ctx, g, x, sol))


def _report_treq(tallies: dict) -> tuple:
    detail, topological, total, _wits = tallies["tree-iasgl-topological"]
    return (Finding("tree-iasgl-topological", "info",
                    f"{topological}/{total} {detail}"),)


def _judge_t_acyc(ctx, g, x, st):
    """Acyclic topological-graceful graphs are stars with 2^|X| - 2 leaves.

    The statement also circulates with a doubled exponent in the leaf
    count; the finding records how that reading fares.
    """
    leaves = g.n - 1
    literal = (1 << (1 << x.size)) - 2
    match = st.is_star and leaves == literal
    detail = (f"literal reading wants K_(1,{literal}), instance is a star with "
              f"{leaves} leaves")
    for sol in ctx.top_iasgl_solutions(g, x):
        yield _graceful_star(g, x, st) or Witness(
            g, ctx.labeling(x, sol), f"acyclic but not the expected star over X = {x}")
        yield ("acyclic-literal-exponent", match,
               partial(_solution_witness, ctx, g, x, sol, detail))


def _report_acyc(tallies: dict) -> tuple:
    return (_tally_finding("acyclic-literal-exponent",
                           *tallies["acyclic-literal-exponent"]),)


def _judge_t_reg(ctx, g, x, st):
    """No connected regular graph admits a topological-graceful labeling."""
    sols = ctx.top_iasgl_solutions(g, x)
    yield not sols or Witness(g, ctx.labeling(x, sols[0]),
                              f"regular graph admits a labeling over X = {x}")


def _judge_t_nsc(ctx, g, x, st):
    """Necessary conditions of the existence theorem, with reading adjudication.

    Condition (a) is asserted. The degree named in condition (b) and the two
    swapped pendant bounds of condition (c) are tallied as findings.
    """
    sols = ctx.top_iasgl_solutions(g, x)
    if not sols:
        return
    scr = search.screen(g, x, "top_iasgl")
    degrees = set(st.degrees.values())
    for sol in sols:
        wit = partial(_solution_witness, ctx, g, x, sol)
        yield (scr.edge_count_ok and scr.vertex_count_ok) or Witness(
            g, ctx.labeling(x, sol),
            f"condition (a) fails: edges={g.m}, vertices={g.n} over X = {x}")
        yield "b-degree-rho2", scr.classification.rho_double_prime in degrees, wit
        yield "b-degree-proof", scr.degree_target in degrees, wit
        yield "c-reading-statement", scr.pendant_count_ok_reading_a, wit
        yield "c-reading-proof", scr.pendant_count_ok_reading_b, wit


def _judge_t_discgl(ctx, g, x, st):
    """Discrete-topology graceful labelings single out the star K_(1, 2^|X|-2)."""
    # a labeling is discrete iff it labels 2^|X| - 1 vertices injectively
    admits = g.n == (1 << x.size) - 1 and bool(ctx.top_iasgl_solutions(g, x))
    is_star_shape = _graceful_star(g, x, st)
    yield admits == is_star_shape or Witness(
        g, None,
        f"discrete graceful labeling exists={admits}, graph is the star="
        f"{is_star_shape} over X = {x}")


def _nontrivial(g, x, st) -> bool:
    return g.n >= 2  # topological claims concern non-trivial graphs only


ORACLE_CHECKS: dict[str, _Check] = {
    "P1": _Check("{0} labels some vertex of every graceful labeling", _judge_p1),
    "P2": _Check("graceful graphs have at least |X| - 1 pendant vertices",
                 _judge_p2),
    "P3": _Check("the {0}-vertex has at least 1 + 2^(|X|-1) neighbors (reported)",
                 _judge_p3, ambiguous=True),
    "P4": _Check("max(X)-labels sit on pendants adjacent to the {0}-vertex (reported)",
                 lambda ctx, g, x, st: _maxel_pendants(
                     ctx, g, x, st, ctx.iasgl_solutions(g, x)),
                 ambiguous=True),
    "T-even": _Check("graceful graphs have an even number of edges", _judge_t_even),
    "T-char": _Check(
        "four-condition graceful characterization (readings tallied)", _judge_t_char,
        readings=(
            ("b-nonempty",
             "condition (b): pendants = non-summand count over non-empty subsets"),
            ("b-with-empty",
             "condition (b): pendants = non-summand count counting the empty set"),
            ("c-not-both",
             "condition (c): {0}-vertex degree = count of subsets that are "
             "not sumsets or not summands"),
            ("c-neither",
             "condition (c): {0}-vertex degree = count of subsets that are "
             "neither sumsets nor summands"),
            ("d-excl-zero",
             "condition (d): pendants adjacent to the {0}-vertex = neither-count "
             "excluding {0}"),
            ("d-incl-zero",
             "condition (d): pendants adjacent to the {0}-vertex = neither-count "
             "including {0}"))),
    "T-tree": _Check("a tree is graceful iff it is the star with 2^|X| - 2 leaves",
                     _judge_t_tree, applies=lambda g, x, st: st.is_tree),
    "T-toppend": _Check("topologically labelable graphs have a pendant vertex",
                        _judge_t_toppend, applies=_nontrivial),
    "T-maxel": _Check("topological labelings pin max(X)-labels to pendants",
                      lambda ctx, g, x, st: _maxel_pendants(
                          ctx, g, x, st, ctx.top_iasl_solutions(g, x)),
                      applies=_nontrivial),
    "T-disc": _Check("discrete-topology labelings exist iff enough pendants share "
                     "a neighbor", _judge_t_disc,
                     # a discrete family needs exactly 2^|X| - 1 vertex labels
                     applies=lambda g, x, st: g.n == (1 << x.size) - 1 and g.n >= 2),
    "T-real": _Check("every topology containing {0} is star-realisable",
                     _judge_t_real, applies=lambda t: len(t.opens) >= 3,
                     instances=lambda ctx: (
                         (t,) for x in ctx.ground_sets
                         for t in enumerate_topologies(x, require_zero_singleton=True))),
    "T-treq": _Check("for trees, graceful and topological-graceful coincide",
                     _judge_t_treq, applies=lambda g, x, st: st.is_tree,
                     readings=(("tree-iasgl-topological",
                                 "tree graceful labelings are themselves "
                                 "topological"),),
                     report=_report_treq),
    "T-acyc": _Check("acyclic topological-graceful graphs are the expected star",
                     _judge_t_acyc,
                     applies=lambda g, x, st: st.is_tree and g.n >= 2,
                     readings=(("acyclic-literal-exponent",
                                "literal doubled-exponent reading of the acyclic "
                                "star result"),),
                     report=_report_acyc),
    "T-reg": _Check("no connected regular graph is topological-graceful",
                    _judge_t_reg,
                    applies=lambda g, x, st: g.n >= 2 and st.is_regular is not None),
    "T-nsc": _Check(
        "necessary conditions of the existence theorem (readings tallied)",
        _judge_t_nsc,
        readings=(
            ("b-degree-rho2", "condition (b): some vertex has degree rho''"),
            ("b-degree-proof",
             "condition (b): some vertex has the proof's degree 1 + 2^(|X|-1)"),
            ("c-reading-statement",
             "condition (c) statement reading: pendant bound 1 + rho' when X "
             "is a sumset, rho' otherwise"),
            ("c-reading-proof",
             "condition (c) proof reading: pendant bound rho' when X is a "
             "sumset, 1 + rho' otherwise"))),
    "T-discgl": _Check("discrete-topology graceful labelings single out one star",
                       _judge_t_discgl, applies=_nontrivial),
}


def run_checks(theorem_ids, max_vertices: int, ground_sets) -> list[TheoremReport]:
    """Run the named checks over one shared scope, in the order given."""
    theorem_ids = tuple(theorem_ids)
    for i, tid in enumerate(theorem_ids):
        if tid not in ORACLE_CHECKS:
            raise ValueError(f"unknown theorem id {tid!r}; "
                             f"known: {', '.join(ORACLE_CHECKS)}")
        if tid in theorem_ids[:i]:
            raise ValueError(f"theorem id {tid!r} is given twice")
    ctx = OracleScope(max_vertices, ground_sets)
    ctx.graphs()  # shared set-up, so that no check's time includes it
    reports = []
    for tid in theorem_ids:
        check = ORACLE_CHECKS[tid]
        instances, holds, witnesses, findings = check.fn(ctx)
        reports.append(TheoremReport(tid, check.description, ctx.scope, instances,
                                     holds, tuple(witnesses), check.ambiguous,
                                     tuple(findings)))
    return reports


def run_oracle(theorem_id: str, max_vertices: int, ground_sets) -> TheoremReport:
    """Run one registered check over the given scope."""
    return run_checks((theorem_id,), max_vertices, ground_sets)[0]


def run_all(max_vertices: int, ground_sets) -> list[TheoremReport]:
    """Run every registered check over a shared scope, in registration order."""
    ground_sets = tuple(ground_sets)
    return run_checks(ORACLE_CHECKS, max_vertices, ground_sets) if ground_sets else []


def suite_clean(reports) -> bool:
    """True when every non-documented check confirmed its claim."""
    return all(r.holds == "confirmed" or r.documented for r in reports)
