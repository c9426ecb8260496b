"""Topologies on a ground set: axioms, enumeration, realisation, verifiers.

A family of subsets of X is a topology when it contains ∅ and X and is closed
under pairwise union and intersection; on a finite carrier that is the whole
story. Any topology containing {0} can be realised as a star whose center
carries {0}, which is what ``realize_topology`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

from .graphs import Graph
from .intsets import (GroundSet, IntSet, ParseError, ZERO_MASK, bits_of,
                      subset_sort_key, text_lines)
from .labelings import (Labeling, VerificationReport, Violation,
                        _graceful_rule, _sums_in_x_rule, _verify)


class TopologyParseError(ParseError):
    """Malformed topology file."""


class NotRealizableError(ValueError):
    """The star construction needs {0} among the opens."""


class DegenerateTopologyError(ValueError):
    """Fewer than three opens leave no edge to label."""


@dataclass(frozen=True)
class Topology:
    """A topology on the ground set, opens kept in canonical order (∅ first)."""

    ground: GroundSet
    opens: tuple

    @classmethod
    def from_family(cls, family: Iterable[IntSet]) -> "Topology":
        """Build and validate on the union of the family, which must be one of
        its opens; raises ValueError when the axioms fail."""
        members = {s.mask for s in family}
        union = 0
        for m in members:
            union |= m
        ground = GroundSet(IntSet.from_mask(union))
        ordered = tuple(IntSet.from_mask(m)
                        for m in sorted(members, key=subset_sort_key))
        check = is_topology(ordered, ground)
        if not check.ok:
            raise ValueError(f"family is not a topology on {ground}: {check.detail()}")
        return cls(ground, ordered)

    @property
    def open_masks(self) -> tuple[int, ...]:
        return tuple(s.mask for s in self.opens)

    def has_zero_singleton(self) -> bool:
        return ZERO_MASK in self.open_masks

    def emit(self) -> str:
        return "\n".join(str(s) for s in self.opens) + "\n"

    def to_json(self) -> dict:
        return {"opens": [str(s) for s in self.opens], "is_topology": True}


def parse_topology(text: str) -> Topology:
    """One subset literal per line; ``∅`` or ``{}`` for the empty set."""
    members = []
    for lineno, line in text_lines(text):
        try:
            members.append(IntSet.parse(line))
        except ValueError as exc:
            raise TopologyParseError(lineno, str(exc)) from None
    if not members:
        raise TopologyParseError(None, "empty topology file")
    return Topology.from_family(members)


@dataclass(frozen=True)
class TopologyCheck:
    """Outcome of the axiom check, with a witness when it fails."""

    ok: bool
    reason: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok

    def detail(self) -> str:
        text = self.reason or "not a topology"
        if self.witness is not None:
            a, b, op, res = self.witness
            text += f": {op} of {a} and {b} is {res}, which is missing"
        return text


def is_topology(family: Iterable[IntSet], x: GroundSet) -> TopologyCheck:
    """Check ∅, X membership and pairwise ∪/∩ closure.

    Finiteness makes pairwise closure equivalent to closure under arbitrary
    unions, so nothing more is needed.
    """
    masks = []
    for s in family:
        if s.mask & ~x.mask:
            raise ValueError(f"{s} is not a subset of the ground set {x}")
        masks.append(s.mask)
    present = set(masks)
    if 0 not in present:
        return TopologyCheck(False, "missing the empty set")
    if x.mask not in present:
        return TopologyCheck(False, f"missing the ground set {x}")
    gap = _closure_gap(sorted(present, key=subset_sort_key), present)
    if gap is None:
        return TopologyCheck(True)
    a, b, op, res = gap
    return TopologyCheck(False, f"not closed under {op}",
                         (IntSet.from_mask(a), IntSet.from_mask(b), op,
                          IntSet.from_mask(res)))


def _closure_gap(ordered: Iterable[int], present: set) -> Optional[tuple]:
    """The first pair of ``ordered`` (in its order) whose union or
    intersection is missing from ``present``, as (a, b, op, result)."""
    for a, b in combinations(ordered, 2):
        u = a | b
        if u not in present:
            return a, b, "union", u
        v = a & b
        if v not in present:
            return a, b, "intersection", v
    return None


def closed_family(masks: Iterable[int], xmask: int) -> bool:
    """True when ``masks`` plus ∅ hold X and are closed under pairwise ∪ and ∩."""
    family = set(masks)
    family.add(0)
    return xmask in family and _closure_gap(family, family) is None


@lru_cache(maxsize=None)
def _families(k: int) -> tuple[int, ...]:
    """All topologies on a k-element set, in canonical order.

    A family is a bitset over the positions of its non-empty opens in
    ``GroundSet(range(k)).subset_masks()``, X's position being the last.
    The increasing bijection onto any ground set of size k keeps that order,
    so position p reads as ``x.subset_masks()[p]`` there. A topology is
    fixed by its least open sets (Alexandroff): x ∈ U[x], and y ∈ U[x]
    implies U[y] ⊆ U[x]. They are chosen point by point, each choice kept
    as the table of the union of U[y] over every set of the points so far;
    since x ∈ U[x], a set m is open exactly when that union is m itself.
    """
    masks = GroundSet(range(k)).subset_masks()
    unions = [[0]]
    for x in range(k):
        bit = 1 << x
        grown = []
        for union in unions:
            # U[x] lies inside each earlier U[y] that holds x, and holds
            # each earlier U[y] with y in U[x]
            cap = -1
            for y in range(x):
                if union[1 << y] & bit:
                    cap &= union[1 << y]
            grown += [union + [c | u for c in union] for u in masks
                      if u & bit and not (union[u & (bit - 1)] & ~u or u & ~cap)]
        unions = grown
    out = [sum(1 << p for p, m in enumerate(masks) if union[m] == m)
           for union in unions]
    # among equal bit counts, the lexicographically smaller tuple of
    # positions has the larger value read with position 0 as the top bit
    width = f"0{len(masks)}b"
    out.sort(key=lambda fam: (fam.bit_count(), -int(format(fam, width)[::-1], 2)))
    return tuple(out)


def _topology(x: GroundSet, family: int) -> Topology:
    """The topology on X whose non-empty opens sit at the positions of
    ``family`` (see ``_families``)."""
    masks = x.subset_masks()
    return Topology(x, (IntSet.from_mask(0),) + tuple(
        IntSet.from_mask(masks[p]) for p in bits_of(family)))


def enumerate_topologies(x: GroundSet,
                         require_zero_singleton: bool = False) -> list[Topology]:
    """All topologies on X in canonical order, optionally only those with {0}.

    The table is built once per cardinality (``_families``).
    """
    # {0} is the first non-empty subset in canonical order
    return [_topology(x, fam) for fam in _families(x.size)
            if fam & 1 or not require_zero_singleton]


def realize_topology(t: Topology) -> tuple[Graph, Labeling]:
    """Build the star realisation of a topology containing {0}.

    The star K_{1,r-2} (r = number of opens) gets {0} on its center and the
    remaining non-empty opens on the leaves; each edge label then equals its
    leaf label, so the vertex-label family plus ∅ is exactly the topology.
    """
    r = len(t.opens)
    if r <= 2:
        raise DegenerateTopologyError(
            "a topology with fewer than 3 opens leaves no labeled edge to build")
    if not t.has_zero_singleton():
        raise NotRealizableError(
            "the star construction needs {0} among the opens")
    leaf_opens = [s for s in t.opens if s.mask not in (0, ZERO_MASK)]
    names = ["c"] + [f"p{i}" for i in range(1, len(leaf_opens) + 1)]
    g = Graph(names, [("c", name) for name in names[1:]])
    assignment = {"c": IntSet.from_mask(ZERO_MASK)}
    for name, s in zip(names[1:], leaf_opens):
        assignment[name] = s
    return g, Labeling(t.ground, assignment)


def _topology_rule(g: Graph, f: Labeling, edges: Optional[dict]) -> list:
    """Not-a-topology when the vertex labels, all inside X, plus ∅ fail the
    axioms; unusable or out-of-X labels are left to the IASL checks."""
    if edges is None:
        return []
    family = {f.assignment[v].mask for v in g.vertices} | {0}
    if any(m & ~f.ground.mask for m in family):
        return []
    check = is_topology([IntSet.from_mask(m) for m in family], f.ground)
    return [] if check.ok else [Violation("not-a-topology", "labeling", check.detail())]


def verify_top_iasl(g: Graph, f: Labeling) -> VerificationReport:
    """An IASL, every edge sum in X, whose vertex labels plus ∅ are a topology."""
    return _verify(g, f, _sums_in_x_rule, _topology_rule)


def verify_top_iasgl(g: Graph, f: Labeling) -> VerificationReport:
    """Simultaneously a topological IASL and a set-graceful labeling."""
    return _verify(g, f, _topology_rule, _graceful_rule)
