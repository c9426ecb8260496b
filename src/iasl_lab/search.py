"""Decision procedures for the labeling classes.

Complete backtracking searches for set-graceful, topological, and combined
labelings of a given graph, plus the structural pre-screen derived from the
necessary conditions and the smallest-ground-set search.

Determinism contract: vertices are processed in descending-degree order with
name tie-breaks, candidate labels in canonical subset order ({0} first), so
repeated runs return the identical first-found labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import perm
from operator import le, or_
from typing import Iterator, Optional

from .graphs import Graph
from .intsets import (DEFAULT_GROUND_CAP, GroundSet, IntSet,
                      SumsetClassification, _sum_bits, bits_of, classify,
                      table_key)
from .labelings import Labeling
# the searches never call enumerate_topologies; the import stays because
# perfbench/tracer.py instruments search.enumerate_topologies
from .topology import (Topology, _families_by_open_count, _topology,
                       closed_family, enumerate_topologies)


@dataclass(frozen=True)
class StructuralScreen:
    """Necessary-condition report for graceful searches.

    ``edge_count_ok``, ``vertex_count_ok``, ``pendant_floor_ok`` and
    ``zero_degree_floor_ok`` are provably necessary. ``admissible()`` reads
    the first three, as ``perfbench/gen_deep.py`` selects graphs by it; the
    graceful core applies the fourth itself, with 0 nodes. The two pendant
    readings mirror the existence theorem's condition (c), whose statement
    and proof swap the rho' and 1 + rho' bounds; ``max_degree_ok`` mirrors
    the degree named in the proof and is informational only.
    """

    edge_count_ok: bool
    vertex_count_ok: bool
    pendant_count_ok_reading_a: bool
    pendant_count_ok_reading_b: bool
    pendant_floor_ok: bool
    zero_degree_floor_ok: bool
    max_degree_ok: bool
    edge_count: int
    required_edges: int
    vertex_count: int
    min_vertices: int
    pendant_count: int
    pendant_floor: int
    zero_degree_floor: int
    max_degree: int
    degree_target: int
    classification: SumsetClassification

    def admissible(self) -> bool:
        """True unless a provably necessary condition already fails."""
        return self.edge_count_ok and self.vertex_count_ok and self.pendant_floor_ok

    def to_json(self) -> dict:
        """Every field in declaration order, the classification as its four
        counts."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["classification"] = out.pop("classification").to_json()
        return out


def screen(g: Graph, x: GroundSet, mode: str = "iasgl") -> StructuralScreen:
    """Evaluate the necessary conditions for a (topological) graceful labeling."""
    if mode not in ("iasgl", "top_iasgl"):
        raise ValueError(f"screen mode must be 'iasgl' or 'top_iasgl', got {mode!r}")
    cls = classify(x)
    required_edges = (1 << x.size) - 2
    beta = cls.zero_degree_floor
    # the {0}-vertex and its beta distinct neighbours; for |X| >= 2,
    # {0, max X} counts towards beta, for X = {0} nothing is required
    min_vertices = 1 + beta if beta else 0
    degrees = g.degrees()
    pendant_count = sum(1 for d in degrees.values() if d == 1)
    max_degree = max(degrees.values(), default=0)
    # condition (c): the statement says 1 + rho' pendants when X is a sumset,
    # the proof says the opposite; both are reported.
    bound_a = 1 + cls.rho_prime if cls.x_is_sumset else cls.rho_prime
    bound_b = cls.rho_prime if cls.x_is_sumset else 1 + cls.rho_prime
    pendant_floor = x.size - 1
    degree_target = 1 + (1 << (x.size - 1))
    return StructuralScreen(
        edge_count_ok=g.m == required_edges,
        vertex_count_ok=g.n >= min_vertices,
        pendant_count_ok_reading_a=pendant_count >= bound_a,
        pendant_count_ok_reading_b=pendant_count >= bound_b,
        max_degree_ok=max_degree >= degree_target,
        classification=cls,
        edge_count=g.m,
        required_edges=required_edges,
        vertex_count=g.n,
        min_vertices=min_vertices,
        pendant_count=pendant_count,
        pendant_floor=pendant_floor,
        pendant_floor_ok=pendant_count >= pendant_floor,
        zero_degree_floor=beta,
        zero_degree_floor_ok=max_degree >= beta,
        max_degree=max_degree,
        degree_target=degree_target,
    )


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    labeling: Optional[Labeling]
    nodes_explored: int
    screen: Optional[StructuralScreen]

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "labeling": None if self.labeling is None else self.labeling.to_json(),
            "nodes_explored": self.nodes_explored,
            "screen": None if self.screen is None else self.screen.to_json(),
        }


def _search_order(g: Graph) -> tuple[list[str], list[list[int]], list[int]]:
    """Vertices by descending degree (name tie-break), for each position the
    positions of its earlier neighbours, and the degrees in that order."""
    degs = g.degrees()
    order = sorted(g.vertices, key=lambda v: (-degs[v], v))
    pos = {v: i for i, v in enumerate(order)}
    earlier: list[list[int]] = [[] for _ in order]
    for u, w in g.edge_names():
        i, j = pos[u], pos[w]
        if i < j:
            earlier[j].append(i)
        else:
            earlier[i].append(j)
    return order, earlier, [degs[v] for v in order]


@lru_cache(maxsize=None)
def _partner_bitsets(x: GroundSet) -> tuple[int, ...]:
    """Bit q of entry p is set when the sumset of the p-th and q-th non-empty
    subsets of X (canonical order) stays inside X."""
    return tuple(sum(1 << q for q, s in enumerate(row) if s)
                 for row in _sum_bits(x))


def _capacities(x: GroundSet, family: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The capacities of the positions of ``family``, largest first, and for
    each degree d below the family's size the bitset of positions of
    capacity ≥ d.

    The capacity of position p is the number of other positions of the
    family that are partners of p. The neighbours of a vertex labeled p have
    distinct labels, none of them p, all in the family and all partners of
    p, so the vertex's degree is at most p's capacity.
    """
    partners = _partner_bitsets(x)
    caps = []
    exact = [0] * family.bit_count()  # bit p at index cap(p)
    for p in bits_of(family):
        c = (partners[p] & family & ~(1 << p)).bit_count()
        caps.append(c)
        exact[c] |= 1 << p
    caps.sort(reverse=True)
    return tuple(caps), tuple(accumulate(reversed(exact), or_))[::-1]


def _fits(degrees: list[int], caps: tuple[int, ...]) -> bool:
    """The capacity rule: the i-th largest degree needs i distinct positions
    of at least that capacity, so it may not exceed the i-th largest capacity.
    Both come largest first (``_search_order``, ``_capacities``)."""
    return len(degrees) <= len(caps) and all(map(le, degrees, caps))


def _domains(degrees: list[int], at_least: tuple[int, ...],
             zero_floor: int = 0) -> list[int]:
    """Each vertex's candidate bitset: the positions whose capacity is at
    least the vertex's degree (``at_least``, from ``_capacities``), without
    position 0 ({0}) at vertices of degree below ``zero_floor``."""
    return [at_least[d] if d >= zero_floor else at_least[d] & ~1
            for d in degrees]


# one table per (X, open count), built whole and never changed, so searches
# that build one at once (on two threads, say) each get a complete table.
# 16 tables hold what the benchmark reads again: top-x4 reads its 6 tables
# 412 times, oracle-suite its 8 tables 414 times and min-ground-set its 8
# tables 11 times; minimal_ground_set(K6 + pendant, "top_iasl") builds 46,
# reads none twice and keeps 16, which hold 3.5 MB.
@lru_cache(maxsize=16)
def _capacity_table(x: GroundSet, k: int) -> tuple[tuple, tuple]:
    """The distinct capacity tuples (profiles) of the families with k
    non-empty opens, and (family, profile index, at_least) for each of
    those families in table order (``_capacities``)."""
    profiles = {}
    rows = []
    for family in _families_by_open_count(x.size).get(k, ()):
        caps, at_least = _capacities(x, family)
        rows.append((family, profiles.setdefault(caps, len(profiles)), at_least))
    return tuple(profiles), tuple(rows)


def _fitting_families(x: GroundSet, degrees: list[int]
                      ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(family, at_least) from ``_capacities`` for each family with one
    non-empty open per degree whose capacities hold the degrees
    (``_fits``), in table order; the rule is decided once per profile."""
    profiles, rows = _capacity_table(x, len(degrees))
    fits = [_fits(degrees, caps) for caps in profiles]
    for family, profile, at_least in rows:
        if fits[profile]:
            yield family, at_least


def _twin_sequences(picks: list[int], start: int, allowed: int,
                    counter: list) -> Iterator[list[int]]:
    """Fill ``picks[start:]`` with each injective sequence of positions from
    the bitset ``allowed``, in lexicographic order, and yield ``picks`` after
    adding to ``counter[0]`` the nodes the loop of ``_assignments`` would
    enter before it.

    With m places and a candidates, a length-d prefix has P(a − d, m − d)
    completions, so the loop enters a node at depth d before sequence j
    exactly when that count divides j: all m before sequence 0. These counts
    divide one another, so the depths that enter a node are the deepest ones.
    With a < m there is no sequence, and the loop walks every prefix of up to
    a places, Σₖ₌₁..ₐ P(a, k) nodes.
    """
    a = allowed.bit_count()
    m = len(picks) - start
    if a < m:
        counter[0] += sum(perm(a, k) for k in range(1, a + 1))
        return
    spans = [perm(a - m + k, k) for k in range(m)]  # depth m − k
    for j, seq in enumerate(permutations(bits_of(allowed), m)):
        k = 1
        while k < m and not j % spans[k]:
            k += 1
        counter[0] += k
        picks[start:] = seq
        yield picks


def _assignments(earlier: list[list[int]], domains: list[int],
                 partners: tuple[int, ...], counter: Optional[list],
                 cover: Optional[tuple] = None) -> Iterator[list[int]]:
    """The backtracking core of every search.

    Gives vertex i (in ``_search_order``) a position from its bitset
    ``domains[i]`` that no earlier vertex holds and that is in the partner
    bitset of every earlier neighbour's position, lowest bit first, and
    yields the list of positions (one list, updated in place) at each
    complete assignment. A node is one such choice; nodes are added to
    ``counter[0]`` before every yield. With ``cover = (sums, missing, left)``
    a choice also dies when more bits of ``missing`` are left uncovered by the
    edge labels ``sums[p][q]`` than the ``left[i]`` edges still undecided
    after vertex i.

    Without ``cover``, the trailing run of vertices with the same earlier
    neighbours and the same domain (pendant twins, which descending-degree
    order puts last), from vertex 1 on at the earliest, is filled by
    ``_twin_sequences``: these vertices are not adjacent, so each may take
    any candidate of the run's first vertex that the others left, and the
    loop would walk exactly the injective sequences of those candidates, in
    lexicographic order.
    """
    if counter is None:
        counter = [0]
    n = len(earlier)
    picks = [0] * n
    if not n:
        yield picks
        return
    graceful = cover is not None
    block = n  # the first vertex of the twin run, if it has two or more
    if graceful:
        sums, missing, left = cover
        uncovered = [missing] * (n + 1)
    else:
        last = set(earlier[-1])
        start = n - 1
        while start > 1 and domains[start - 1] == domains[-1] \
                and set(earlier[start - 1]) == last:
            start -= 1
        if start < n - 1:
            block = start
    cand = [0] * n
    cand[0] = domains[0]
    used = 0
    i = 0
    nodes = 0
    while True:
        c = cand[i]
        if not c:
            if i == 0:
                break
            i -= 1
            used ^= 1 << picks[i]
            continue
        low = c & -c
        cand[i] = c ^ low
        p = picks[i] = low.bit_length() - 1
        nodes += 1
        if graceful:
            row = sums[p]
            m = uncovered[i]
            for j in earlier[i]:
                m &= ~row[picks[j]]
            if m.bit_count() > left[i]:
                continue
            uncovered[i + 1] = m
        if i == n - 1:
            counter[0] += nodes
            nodes = 0
            yield picks
            continue
        used |= low
        i += 1
        allowed = domains[i] & ~used
        for j in earlier[i]:
            allowed &= partners[picks[j]]
        if i == block:
            counter[0] += nodes
            nodes = 0
            yield from _twin_sequences(picks, block, allowed, counter)
            allowed = 0
        cand[i] = allowed
    counter[0] += nodes


def iter_iasgl_assignments(g: Graph, x: GroundSet,
                           counter: Optional[list] = None) -> Iterator[dict]:
    """Yield every set-graceful assignment (vertex name -> mask), in order.

    Complete backtracking over injective assignments of non-empty subsets of
    X. A branch dies as soon as an incident edge label leaves
    P(X) - {∅, {0}}, or when fewer undecided edges remain than required
    labels still missing from the image. Injectivity rules out {0} + {0},
    so the partner bitsets alone decide which edge labels are acceptable,
    and a vertex only takes subsets whose capacity (``_capacities``) covers its
    degree, and {0} only when its degree reaches the zero-degree floor
    (``SumsetClassification.zero_degree_floor``).
    """
    if g.m != (1 << x.size) - 2:
        return
    order, earlier, degrees = _search_order(g)
    masks = x.subset_masks()
    everything = (1 << len(masks)) - 1
    zero_floor = classify(x).zero_degree_floor
    # a positive floor needs {0} on a vertex of at least that degree
    if zero_floor and degrees[0] < zero_floor:
        return
    caps, at_least = _capacities(x, everything)
    if not _fits(degrees, caps):
        return
    domains = _domains(degrees, at_least, zero_floor)
    left = [g.m - decided for decided in accumulate(map(len, earlier))]
    # every non-empty subset but {0}, which is first in canonical order
    cover = (_sum_bits(x), everything ^ 1, left)
    for picks in _assignments(earlier, domains, _partner_bitsets(x),
                              counter, cover):
        yield {order[v]: masks[p] for v, p in enumerate(picks)}


def _labels_fit(n: int, size: int) -> bool:
    """Whether n vertices can take distinct non-empty subsets of X, |X| = size."""
    return n < 1 << size


def _first_found(g: Graph, x: GroundSet, assignments,
                 scr: Optional[StructuralScreen]) -> SearchOutcome:
    """The first labeling ``assignments(g, x, counter)`` yields, unless the
    screen already rules g out."""
    counter = [0]
    if scr is None or scr.admissible():
        for masks in assignments(g, x, counter):
            return SearchOutcome(
                True, Labeling(x, {v: IntSet.from_mask(masks[v]) for v in g.vertices}),
                counter[0], scr)
    return SearchOutcome(False, None, counter[0], scr)


def search_iasgl(g: Graph, x: GroundSet) -> SearchOutcome:
    """First set-graceful labeling of g over X, or proof of absence."""
    return _first_found(g, x, iter_iasgl_assignments, screen(g, x, "iasgl"))


def iter_top_iasl_assignments(g: Graph, x: GroundSet,
                              counter: Optional[list] = None
                              ) -> Iterator[tuple[Topology, dict]]:
    """Yield (topology, assignment) for every topological labeling of g.

    Nothing when g has too many vertices for distinct labels, or when every
    vertex has degree ≥ 2: X + A ⊆ X forces A = {0}, so the vertex labeled X
    has at most one neighbour. Otherwise, for each topology T on X with
    |T| - 1 = |V|, backtracks over bijections from vertices to T - {∅}
    keeping every edge sumset inside P(X). The topologies come from
    the family table of their cardinality; a vertex's candidates are the
    unused opens of T whose capacity in T covers its degree and that are
    partners of every earlier neighbour's label. A topology whose capacities
    cannot hold the degrees (``_fitting_families``) is skipped without a node.
    """
    # the capacity rule and the table's open counts imply both, but only
    # once the topology table of |X| is built, which minimal_ground_set would
    # then pay for graphs that never match
    if not _labels_fit(g.n, x.size) or all(d >= 2 for d in g.degrees().values()):
        return
    order, earlier, degrees = _search_order(g)
    masks = x.subset_masks()
    partners = _partner_bitsets(x)
    for family, at_least in _fitting_families(x, degrees):
        t = None
        for picks in _assignments(earlier, _domains(degrees, at_least),
                                  partners, counter):
            if t is None:
                t = _topology(x, family)
            yield t, {order[v]: masks[p] for v, p in enumerate(picks)}


def _top_iasl_masks(g: Graph, x: GroundSet, counter: list) -> Iterator[dict]:
    """The assignments of ``iter_top_iasl_assignments``, without topologies."""
    for _t, masks in iter_top_iasl_assignments(g, x, counter):
        yield masks


def search_top_iasl(g: Graph, x: GroundSet) -> SearchOutcome:
    """First topological labeling of g over X, or proof of absence."""
    return _first_found(g, x, _top_iasl_masks, None)


def keep_topological(assignments, x: GroundSet) -> Iterator[dict]:
    """The assignments whose labels plus ∅ form a topology on X, unchanged."""
    return (masks for masks in assignments if closed_family(masks.values(), x.mask))


def iter_top_iasgl_assignments(g: Graph, x: GroundSet,
                               counter: Optional[list] = None) -> Iterator[dict]:
    """Set-graceful assignments whose vertex-label family plus ∅ is a topology."""
    yield from keep_topological(iter_iasgl_assignments(g, x, counter), x)


def search_top_iasgl(g: Graph, x: GroundSet) -> SearchOutcome:
    """First labeling that is both topological and set-graceful: the first
    graceful solution ``keep_topological`` keeps, as in the oracle."""
    return _first_found(g, x, iter_top_iasgl_assignments, screen(g, x, "top_iasgl"))


SEARCHES = {"iasgl": search_iasgl, "top_iasl": search_top_iasl,
            "top_iasgl": search_top_iasgl}


def minimal_ground_set(g: Graph, mode: str,
                       element_bound: int = 10) -> Optional[GroundSet]:
    """Smallest ground set (cardinality, then max element, then lexicographic)
    for which g admits a labeling of the requested class.

    Candidates contain 0 and draw their other elements from 1..element_bound.
    Returns None when every candidate within the caps fails. A candidate
    whose sumset table (``table_key``) has already failed is skipped: the
    searches read X only through that table and |X|, so it would fail again.
    """
    if mode not in SEARCHES:
        raise ValueError(f"mode must be one of {tuple(SEARCHES)}, got {mode!r}")
    if element_bound < 0:
        raise ValueError(f"element bound must be non-negative, got {element_bound}")
    if element_bound > 10:
        raise ValueError("element bound capped at 10")
    pool = range(1, element_bound + 1)
    failed = set()
    for size in range(1, DEFAULT_GROUND_CAP + 1):
        # graceful labelings pin the edge count to 2^|X| - 2, so skip sizes
        # that cannot match
        if not _labels_fit(g.n, size) or (mode != "top_iasl"
                                          and g.m != (1 << size) - 2):
            continue
        candidates = [(0,) + combo for combo in combinations(pool, size - 1)]
        candidates.sort(key=lambda c: (c[-1], c))
        for cand in candidates:
            key = table_key(cand)
            if key in failed:
                continue
            x = GroundSet(cand)
            if SEARCHES[mode](g, x).found:
                return x
            failed.add(key)
    return None
