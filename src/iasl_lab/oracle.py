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
from functools import lru_cache
from typing import Callable, Optional

from .graphs import Graph, enumerate_connected_graphs, star, structure
from .intsets import (EnumerationInfeasible, GroundSet, IntSet, ZERO_MASK,
                      classify)
from .labelings import Labeling
from .search import (iter_iasgl_assignments, iter_top_iasl_assignments,
                     iter_top_iasgl_assignments, screen)
from .topology import (closed_family, enumerate_topologies,
                       realize_topology, verify_top_iasl)

ORACLE_VERTEX_CAP = 7
ORACLE_GROUND_CAP = 3


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


def _holds(fails: int, passes: int) -> str:
    if fails == 0:
        return "confirmed"
    return "counterexample" if passes == 0 else "mixed"


class OracleScope:
    """Shared enumeration and labeling caches for one (cap, ground sets) run."""

    def __init__(self, max_vertices: int, ground_sets):
        if max_vertices > ORACLE_VERTEX_CAP:
            raise EnumerationInfeasible(
                f"oracle capped at {ORACLE_VERTEX_CAP} vertices, got {max_vertices}")
        for x in ground_sets:
            if x.size > ORACLE_GROUND_CAP:
                raise EnumerationInfeasible(
                    f"oracle ground sets capped at {ORACLE_GROUND_CAP} elements, got {x}")
        self.max_vertices = max_vertices
        self.ground_sets = tuple(ground_sets)
        self.scope = Scope(max_vertices, self.ground_sets)
        self._graphs: Optional[list] = None
        self._iasgl: dict = {}
        self._top_iasl: dict = {}
        self._top_iasgl: dict = {}

    def graphs(self) -> list:
        if self._graphs is None:
            out = []
            for n in range(1, self.max_vertices + 1):
                out.extend(enumerate_connected_graphs(n, dedup=True))
            self._graphs = out
        return self._graphs

    def pairs(self):
        for g in self.graphs():
            for x in self.ground_sets:
                yield g, x

    def iasgl_solutions(self, g: Graph, x: GroundSet) -> tuple:
        key = (g, x)
        if key not in self._iasgl:
            self._iasgl[key] = tuple(iter_iasgl_assignments(g, x))
        return self._iasgl[key]

    def top_iasl_solutions(self, g: Graph, x: GroundSet) -> tuple:
        key = (g, x)
        if key not in self._top_iasl:
            self._top_iasl[key] = tuple(
                masks for _t, masks in iter_top_iasl_assignments(g, x))
        return self._top_iasl[key]

    def top_iasgl_solutions(self, g: Graph, x: GroundSet) -> tuple:
        key = (g, x)
        if key not in self._top_iasgl:
            self._top_iasgl[key] = tuple(iter_top_iasgl_assignments(g, x))
        return self._top_iasgl[key]

    @staticmethod
    def labeling(x: GroundSet, sol: dict) -> Labeling:
        return Labeling(x, {v: IntSet.from_mask(m) for v, m in sol.items()})


def _zero_vertex(sol: dict) -> Optional[str]:
    for v, m in sol.items():
        if m == ZERO_MASK:
            return v
    return None


def _pendants(g: Graph) -> list[str]:
    degs = g.degrees()
    return [v for v in g.vertices if degs[v] == 1]


# --- the registered checks ---------------------------------------------------

def _check_p1(ctx: OracleScope) -> tuple:
    """{0} is a vertex label in every set-graceful labeling."""
    instances = 0
    witnesses = []
    passes = 0
    for g, x in ctx.pairs():
        instances += 1
        for sol in ctx.iasgl_solutions(g, x):
            if _zero_vertex(sol) is None:
                witnesses.append(Witness(g, ctx.labeling(x, sol),
                                         f"no vertex labeled {{0}} over X = {x}"))
            else:
                passes += 1
    return instances, _holds(len(witnesses), passes), witnesses, ()


def _check_p2(ctx: OracleScope) -> tuple:
    """Every graceful graph has at least |X| - 1 pendant vertices."""
    instances = 0
    witnesses = []
    passes = 0
    for g, x in ctx.pairs():
        instances += 1
        if not ctx.iasgl_solutions(g, x):
            continue
        if len(_pendants(g)) >= x.size - 1:
            passes += 1
        else:
            witnesses.append(Witness(g, None,
                                     f"{len(_pendants(g))} pendants < |X| - 1 = {x.size - 1}"))
    return instances, _holds(len(witnesses), passes), witnesses, ()


def _check_p3(ctx: OracleScope) -> tuple:
    """The {0}-vertex has at least 1 + 2^(|X|-1) neighbors (as claimed)."""
    instances = 0
    witnesses = []
    passes = 0
    for g, x in ctx.pairs():
        instances += 1
        target = 1 + (1 << (x.size - 1))
        for sol in ctx.iasgl_solutions(g, x):
            zv = _zero_vertex(sol)
            if zv is None:
                continue
            deg = g.degree(zv)
            if deg >= target:
                passes += 1
            else:
                witnesses.append(Witness(
                    g, ctx.labeling(x, sol),
                    f"{{0}}-vertex {zv} has {deg} neighbors, claim demands {target} "
                    f"over X = {x}"))
    return instances, _holds(len(witnesses), passes), witnesses, ()


def _maxel_pendants(ctx: OracleScope, solutions: Callable,
                    min_vertices: int) -> tuple:
    instances = 0
    witnesses = []
    passes = 0
    for g, x in ctx.pairs():
        if g.n < min_vertices:
            continue
        instances += 1
        top = x.max_element
        for sol in solutions(g, x):
            zv = _zero_vertex(sol)
            ok = True
            for v, m in sol.items():
                if not m >> top & 1:
                    continue
                if g.degree(v) != 1 or zv is None or zv not in g.neighbors(v):
                    ok = False
                    witnesses.append(Witness(
                        g, ctx.labeling(x, sol),
                        f"vertex {v} carries max(X) = {top} but is not a pendant "
                        f"neighbor of the {{0}}-vertex"))
                    break
            passes += ok
    return instances, _holds(len(witnesses), passes), witnesses, ()


def _check_p4(ctx: OracleScope) -> tuple:
    """Labels containing max(X) sit on pendants adjacent to the {0}-vertex."""
    return _maxel_pendants(ctx, ctx.iasgl_solutions, 1)


def _check_t_even(ctx: OracleScope) -> tuple:
    """Every graceful graph has an even number of edges."""
    instances = 0
    witnesses = []
    passes = 0
    for g, x in ctx.pairs():
        instances += 1
        if not ctx.iasgl_solutions(g, x):
            continue
        if g.m % 2 == 0:
            passes += 1
        else:
            witnesses.append(Witness(g, None, f"odd edge count {g.m} over X = {x}"))
    return instances, _holds(len(witnesses), passes), witnesses, ()


def _tally_finding(label: str, detail: str, matched: int, total: int,
                   witnesses: list) -> Finding:
    if total == 0:
        return Finding(label, "info", f"{detail}; no instances in scope")
    if matched == total:
        return Finding(label, "supported", f"{detail}; {matched}/{total} instances match")
    status = "counterexample" if matched == 0 else "mixed"
    return Finding(label, status, f"{detail}; {matched}/{total} instances match",
                   tuple(witnesses[:3]))


def _tally(tallies: dict, key: str, detail: str, match: bool,
           wit: Witness) -> None:
    rec = tallies.setdefault(key, [detail, 0, 0, []])
    rec[1] += match
    rec[2] += 1
    if not match:
        rec[3].append(wit)


def _findings(tallies: dict) -> tuple:
    return tuple(_tally_finding(k, *rec) for k, rec in sorted(tallies.items()))


def _check_t_char(ctx: OracleScope) -> tuple:
    """Four-condition graceful characterization; (b)-(d) reported, not assumed.

    The counts in conditions (b)-(d) do not say whether {0} or the empty set
    participate, so every defensible reading is tallied as a finding.
    """
    instances = 0
    witnesses = []
    passes = 0
    tallies: dict[str, list] = {}
    for g, x in ctx.pairs():
        instances += 1
        cls = classify(x)
        n_subsets = (1 << x.size) - 1  # non-empty subsets
        summands = len(cls.nontrivial_summands())
        neither = cls.rho_prime  # excludes {0}
        not_sum_or_not_summand = sum(
            1 for c in cls.per_subset.values()
            if not (c.is_nontrivial_sumset and c.is_nontrivial_summand))
        neither_with_zero = sum(
            1 for c in cls.per_subset.values()
            if not c.is_nontrivial_sumset and not c.is_nontrivial_summand)
        pend = len(_pendants(g))
        for sol in ctx.iasgl_solutions(g, x):
            zv = _zero_vertex(sol)
            if zv is None:
                witnesses.append(Witness(g, ctx.labeling(x, sol),
                                         "condition (a): no {0}-labeled vertex"))
                continue
            passes += 1
            wit = Witness(g, ctx.labeling(x, sol), f"X = {x}")
            _tally(tallies, "b-nonempty",
                   "condition (b): pendants = non-summand count over non-empty subsets",
                   pend == n_subsets - summands, wit)
            _tally(tallies, "b-with-empty",
                   "condition (b): pendants = non-summand count counting the empty set",
                   pend == n_subsets - summands + 1, wit)
            deg0 = g.degree(zv)
            _tally(tallies, "c-not-both",
                   "condition (c): {0}-vertex degree = count of subsets that are "
                   "not sumsets or not summands",
                   deg0 == not_sum_or_not_summand, wit)
            _tally(tallies, "c-neither",
                   "condition (c): {0}-vertex degree = count of subsets that are "
                   "neither sumsets nor summands",
                   deg0 == neither_with_zero, wit)
            pend_adj = sum(1 for p in _pendants(g) if zv in g.neighbors(p))
            _tally(tallies, "d-excl-zero",
                   "condition (d): pendants adjacent to the {0}-vertex = neither-count "
                   "excluding {0}",
                   pend_adj == neither, wit)
            _tally(tallies, "d-incl-zero",
                   "condition (d): pendants adjacent to the {0}-vertex = neither-count "
                   "including {0}",
                   pend_adj == neither + 1, wit)
    return instances, _holds(len(witnesses), passes), witnesses, _findings(tallies)


def _check_t_tree(ctx: OracleScope) -> tuple:
    """A tree is graceful iff it is the star with 2^|X| - 2 leaves."""
    instances = 0
    witnesses = []
    passes = 0
    for g, x in ctx.pairs():
        st = structure(g)
        if not st.is_tree:
            continue
        instances += 1
        admits = bool(ctx.iasgl_solutions(g, x))
        is_right_star = st.is_star and g.m == (1 << x.size) - 2
        if admits == is_right_star:
            passes += 1
        else:
            witnesses.append(Witness(
                g, None,
                f"tree admits={admits} but star-with-{(1 << x.size) - 2}-leaves="
                f"{is_right_star} over X = {x}"))
    return instances, _holds(len(witnesses), passes), witnesses, ()


def _check_t_toppend(ctx: OracleScope) -> tuple:
    """Topologically labelable (non-trivial) graphs have a pendant vertex."""
    instances = 0
    witnesses = []
    passes = 0
    for g, x in ctx.pairs():
        if g.n < 2:
            continue  # topological claims concern non-trivial graphs only
        instances += 1
        if not ctx.top_iasl_solutions(g, x):
            continue
        if _pendants(g):
            passes += 1
        else:
            witnesses.append(Witness(g, None, f"no pendant vertex over X = {x}"))
    return instances, _holds(len(witnesses), passes), witnesses, ()


def _check_t_maxel(ctx: OracleScope) -> tuple:
    """In a topological labeling, max(X)-labels sit on pendants by the {0}-vertex."""
    return _maxel_pendants(ctx, ctx.top_iasl_solutions, 2)


def _check_t_disc(ctx: OracleScope) -> tuple:
    """Discrete-topology labelings exist iff 2^(|X|-1) pendants share a neighbor."""
    instances = 0
    witnesses = []
    passes = 0
    for g, x in ctx.pairs():
        if g.n != (1 << x.size) - 1 or g.n < 2:
            continue  # a discrete family needs exactly 2^|X| - 1 vertex labels
        instances += 1
        full = frozenset(x.subset_masks())
        admits = any(frozenset(sol.values()) == full
                     for sol in ctx.top_iasl_solutions(g, x))
        need = 1 << (x.size - 1)
        pend = set(_pendants(g))
        cond = any(sum(1 for w in g.neighbors(v) if w in pend) >= need
                   for v in g.vertices)
        if admits == cond:
            passes += 1
        else:
            witnesses.append(Witness(
                g, None,
                f"discrete labeling exists={admits}, pendant condition={cond} "
                f"over X = {x}"))
    return instances, _holds(len(witnesses), passes), witnesses, ()


def _check_t_real(ctx: OracleScope) -> tuple:
    """Every topology containing {0} (3+ opens) is realisable by the star build."""
    instances = 0
    witnesses = []
    passes = 0
    for x in ctx.ground_sets:
        for t in enumerate_topologies(x, require_zero_singleton=True):
            if len(t.opens) < 3:
                continue
            instances += 1
            g, f = realize_topology(t)
            report = verify_top_iasl(g, f)
            family = {s.mask for s in f.assignment.values()}
            expected = {m for m in t.open_masks if m != 0}
            if report.verdict and family == expected:
                passes += 1
            else:
                witnesses.append(Witness(g, f, f"realisation failed for {t.to_json()}"))
    return instances, _holds(len(witnesses), passes), witnesses, ()


def _check_t_treq(ctx: OracleScope) -> tuple:
    """For trees, graceful and topological-graceful existence coincide."""
    instances = 0
    witnesses = []
    passes = 0
    topological = 0
    total = 0
    for g, x in ctx.pairs():
        if not structure(g).is_tree:
            continue
        instances += 1
        a = bool(ctx.iasgl_solutions(g, x))
        b = bool(ctx.top_iasgl_solutions(g, x))
        if a == b:
            passes += 1
        else:
            witnesses.append(Witness(g, None,
                                     f"graceful={a} but topological-graceful={b} over X = {x}"))
        for sol in ctx.iasgl_solutions(g, x):
            total += 1
            topological += closed_family(sol.values(), x.mask)
    finding = Finding("tree-iasgl-topological", "info",
                      f"{topological}/{total} tree graceful labelings are themselves "
                      f"topological")
    return instances, _holds(len(witnesses), passes), witnesses, (finding,)


def _check_t_acyc(ctx: OracleScope) -> tuple:
    """Acyclic topological-graceful graphs are stars with 2^|X| - 2 leaves.

    The statement also circulates with a doubled exponent in the leaf
    count; the finding records how that reading fares.
    """
    instances = 0
    witnesses = []
    passes = 0
    literal_match = 0
    literal_total = 0
    literal_wits: list = []
    for g, x in ctx.pairs():
        st = structure(g)
        if not st.is_tree or g.n < 2:
            continue
        instances += 1
        for sol in ctx.top_iasgl_solutions(g, x):
            leaves = g.n - 1
            if st.is_star and leaves == (1 << x.size) - 2:
                passes += 1
            else:
                witnesses.append(Witness(g, ctx.labeling(x, sol),
                                         f"acyclic but not the expected star over X = {x}"))
            literal_total += 1
            literal = (1 << (1 << x.size)) - 2
            if st.is_star and leaves == literal:
                literal_match += 1
            else:
                literal_wits.append(Witness(
                    g, ctx.labeling(x, sol),
                    f"literal reading wants K_(1,{literal}), instance is a star with "
                    f"{leaves} leaves"))
    findings = (_tally_finding(
        "acyclic-literal-exponent",
        "literal doubled-exponent reading of the acyclic star result",
        literal_match, literal_total, literal_wits),)
    return instances, _holds(len(witnesses), passes), witnesses, findings


def _check_t_reg(ctx: OracleScope) -> tuple:
    """No connected regular graph admits a topological-graceful labeling."""
    instances = 0
    witnesses = []
    passes = 0
    for g, x in ctx.pairs():
        if g.n < 2 or structure(g).is_regular is None:
            continue
        instances += 1
        sols = ctx.top_iasgl_solutions(g, x)
        if not sols:
            passes += 1
        else:
            witnesses.append(Witness(g, ctx.labeling(x, sols[0]),
                                     f"regular graph admits a labeling over X = {x}"))
    return instances, _holds(len(witnesses), passes), witnesses, ()


def _check_t_nsc(ctx: OracleScope) -> tuple:
    """Necessary conditions of the existence theorem, with reading adjudication.

    Condition (a) is asserted. The degree named in condition (b) and the two
    swapped pendant bounds of condition (c) are tallied as findings.
    """
    instances = 0
    witnesses = []
    passes = 0
    tallies: dict[str, list] = {}
    for g, x in ctx.pairs():
        instances += 1
        scr = screen(g, x, "top_iasgl")
        degrees = set(g.degrees().values())
        for sol in ctx.top_iasgl_solutions(g, x):
            wit = Witness(g, ctx.labeling(x, sol), f"X = {x}")
            if scr.edge_count_ok and scr.vertex_count_ok:
                passes += 1
            else:
                witnesses.append(Witness(
                    g, ctx.labeling(x, sol),
                    f"condition (a) fails: edges={g.m}, vertices={g.n} over X = {x}"))
            _tally(tallies, "b-degree-rho2",
                   "condition (b): some vertex has degree rho''",
                   scr.classification.rho_double_prime in degrees, wit)
            _tally(tallies, "b-degree-proof",
                   "condition (b): some vertex has the proof's degree 1 + 2^(|X|-1)",
                   scr.degree_target in degrees, wit)
            _tally(tallies, "c-reading-statement",
                   "condition (c) statement reading: pendant bound 1 + rho' when X "
                   "is a sumset, rho' otherwise",
                   scr.pendant_count_ok_reading_a, wit)
            _tally(tallies, "c-reading-proof",
                   "condition (c) proof reading: pendant bound rho' when X is a "
                   "sumset, 1 + rho' otherwise",
                   scr.pendant_count_ok_reading_b, wit)
    return instances, _holds(len(witnesses), passes), witnesses, _findings(tallies)


@lru_cache(maxsize=None)
def _star_key(leaves: int) -> tuple[int, int]:
    return star(leaves).canonical_key()


def _check_t_discgl(ctx: OracleScope) -> tuple:
    """Discrete-topology graceful labelings single out the star K_(1, 2^|X|-2)."""
    instances = 0
    witnesses = []
    passes = 0
    for g, x in ctx.pairs():
        if g.n < 2:
            continue
        instances += 1
        full = frozenset(x.subset_masks())
        admits = any(frozenset(sol.values()) == full
                     for sol in ctx.top_iasgl_solutions(g, x))
        leaves = (1 << x.size) - 2
        is_star_shape = (g.n == leaves + 1 and g.m == leaves
                         and g.canonical_key() == _star_key(leaves))
        if admits == is_star_shape:
            passes += 1
        else:
            witnesses.append(Witness(
                g, None,
                f"discrete graceful labeling exists={admits}, graph is the star="
                f"{is_star_shape} over X = {x}"))
    return instances, _holds(len(witnesses), passes), witnesses, ()


@dataclass(frozen=True)
class _Check:
    fn: Callable
    ambiguous: bool
    description: str


ORACLE_CHECKS: dict[str, _Check] = {
    "P1": _Check(_check_p1, False,
                 "{0} labels some vertex of every graceful labeling"),
    "P2": _Check(_check_p2, False,
                 "graceful graphs have at least |X| - 1 pendant vertices"),
    "P3": _Check(_check_p3, True,
                 "the {0}-vertex has at least 1 + 2^(|X|-1) neighbors (reported)"),
    "P4": _Check(_check_p4, True,
                 "max(X)-labels sit on pendants adjacent to the {0}-vertex (reported)"),
    "T-even": _Check(_check_t_even, False,
                     "graceful graphs have an even number of edges"),
    "T-char": _Check(_check_t_char, False,
                     "four-condition graceful characterization (readings tallied)"),
    "T-tree": _Check(_check_t_tree, False,
                     "a tree is graceful iff it is the star with 2^|X| - 2 leaves"),
    "T-toppend": _Check(_check_t_toppend, False,
                        "topologically labelable graphs have a pendant vertex"),
    "T-maxel": _Check(_check_t_maxel, False,
                      "topological labelings pin max(X)-labels to pendants"),
    "T-disc": _Check(_check_t_disc, False,
                     "discrete-topology labelings exist iff enough pendants share "
                     "a neighbor"),
    "T-real": _Check(_check_t_real, False,
                     "every topology containing {0} is star-realisable"),
    "T-treq": _Check(_check_t_treq, False,
                     "for trees, graceful and topological-graceful coincide"),
    "T-acyc": _Check(_check_t_acyc, False,
                     "acyclic topological-graceful graphs are the expected star"),
    "T-reg": _Check(_check_t_reg, False,
                    "no connected regular graph is topological-graceful"),
    "T-nsc": _Check(_check_t_nsc, False,
                    "necessary conditions of the existence theorem (readings tallied)"),
    "T-discgl": _Check(_check_t_discgl, False,
                       "discrete-topology graceful labelings single out one star"),
}


def run_oracle(theorem_id: str, max_vertices: int, ground_sets) -> TheoremReport:
    """Run one registered check over the given scope."""
    if theorem_id not in ORACLE_CHECKS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"known: {', '.join(ORACLE_CHECKS)}")
    ctx = OracleScope(max_vertices, ground_sets)
    return _run_check(theorem_id, ctx)


def _run_check(theorem_id: str, ctx: OracleScope) -> TheoremReport:
    check = ORACLE_CHECKS[theorem_id]
    instances, holds, witnesses, findings = check.fn(ctx)
    return TheoremReport(
        theorem_id=theorem_id,
        description=check.description,
        scope=ctx.scope,
        instances_checked=instances,
        holds=holds,
        witnesses=tuple(witnesses),
        documented=check.ambiguous,
        findings=tuple(findings),
    )


def run_all(max_vertices: int, ground_sets) -> list[TheoremReport]:
    """Run every registered check over a shared scope, in registration order."""
    ground_sets = tuple(ground_sets)
    if not ground_sets:
        return []
    ctx = OracleScope(max_vertices, ground_sets)
    return [_run_check(tid, ctx) for tid in ORACLE_CHECKS]


def suite_clean(reports) -> bool:
    """True when every non-documented check confirmed its claim."""
    return all(r.holds == "confirmed" or r.documented for r in reports)
