"""Vertex labelings by subsets of a ground set, and the class verifiers.

A labeling assigns a non-empty subset of the ground set to every vertex; an
edge inherits the sumset of its endpoint labels. The verifiers never raise on
a bad labeling: they return a report whose violations carry machine-readable
kinds (injectivity, empty-label, not-a-subset, unlabeled-vertex,
unknown-vertex, missing-edge-image, extra-edge-image, bad-edge-count, ...).
Every class is verified as the IASL checks plus the class's own rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph
from .intsets import (GroundSet, IntSet, ParseError, ZERO_MASK,
                      check_text_names, record_json, sumset_mask, text_lines)


class LabelingParseError(ParseError):
    """Malformed labeling file."""


class IncompleteLabelingError(ValueError):
    """An operation needed a label for a vertex that has none."""


@dataclass(frozen=True)
class Labeling:
    """Assignment of one IntSet per vertex over a ground set.

    The container itself is permissive; whether the assignment is injective,
    non-empty and within the ground set is the verifiers' business.
    """

    ground: GroundSet
    assignment: dict

    def emit(self) -> str:
        check_text_names(self.assignment)
        lines = [f"X {self.ground}"]
        lines.extend(f"{v} {s}" for v, s in self.assignment.items())
        return "\n".join(lines) + "\n"

    to_json = record_json


def parse_labeling(text: str) -> Labeling:
    """Parse the labeling file format: an ``X {...}`` header line, then one
    ``vertex {a,b,c}`` line per vertex. ``#`` comments and blanks allowed."""
    ground: Optional[GroundSet] = None
    assignment: dict[str, IntSet] = {}
    for lineno, line in text_lines(text):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise LabelingParseError(lineno, "expected 'name {set literal}'")
        name, literal = parts
        if ground is None and name != "X":
            raise LabelingParseError(lineno, "first line must declare the ground set: X {...}")
        if name in assignment:
            raise LabelingParseError(lineno, f"vertex {name!r} labeled twice")
        try:
            if ground is None:
                ground = GroundSet.parse(literal)
            else:
                assignment[name] = IntSet.parse(literal)
        except ValueError as exc:
            raise LabelingParseError(lineno, str(exc)) from None
    if ground is None:
        raise LabelingParseError(None, "missing ground set header 'X {...}'")
    return Labeling(ground, assignment)


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str
    detail: str

    to_json = record_json


@dataclass(frozen=True)
class VerificationReport:
    verdict: bool
    violations: list

    @classmethod
    def from_violations(cls, violations: list) -> "VerificationReport":
        return cls(verdict=not violations, violations=violations)

    to_json = record_json


def induced_edge_labels(g: Graph, f: Labeling) -> dict:
    """Map every edge ``(u, v)`` to ``f(u) + f(v)``, in canonical edge order."""
    out = {}
    for u, w in g.edge_names():
        try:
            a, b = f.assignment[u], f.assignment[w]
        except KeyError as exc:
            raise IncompleteLabelingError(f"vertex {exc.args[0]!r} is unlabeled") from None
        if not a.mask or not b.mask:
            raise ValueError(f"edge ({u}, {w}) touches an empty label")
        out[(u, w)] = IntSet.from_mask(sumset_mask(a.mask, b.mask))
    return out


def _verify(g: Graph, f: Labeling, *rules) -> VerificationReport:
    """The IASL checks, then each class rule's violations, in rule order.

    A rule is called as ``rule(g, f, edges)``, where ``edges`` holds the
    induced edge labels, or is None when some vertex lacks a non-empty label
    and the edge sums are undefined.
    """
    violations = []
    xmask = f.ground.mask
    for v in g.vertices:
        if v not in f.assignment:
            violations.append(Violation("unlabeled-vertex", v, "vertex has no label"))
    for v in f.assignment:
        if not g.has_vertex(v):
            violations.append(Violation("unknown-vertex", v, "label for a vertex not in the graph"))
    by_mask: dict[int, list[str]] = {}
    for v in g.vertices:
        s = f.assignment.get(v)
        if s is None:
            continue
        if not s.mask:
            violations.append(Violation("empty-label", v, "labels must be non-empty"))
        elif s.mask & ~xmask:
            violations.append(Violation("not-a-subset", v,
                                        f"{s} is not a subset of X = {f.ground}"))
        by_mask.setdefault(s.mask, []).append(v)
    for mask, vs in by_mask.items():
        if len(vs) > 1:
            violations.append(Violation("injectivity", ",".join(vs),
                                        f"vertices share the label {IntSet.from_mask(mask)}"))
    edges = None
    if rules and all(v in f.assignment and f.assignment[v].mask for v in g.vertices):
        edges = induced_edge_labels(g, f)
    for rule in rules:
        violations.extend(rule(g, f, edges))
    return VerificationReport.from_violations(violations)


def _iasi_rule(g: Graph, f: Labeling, edges: Optional[dict]) -> list:
    violations = []
    seen: dict[int, tuple[str, str]] = {}
    for (u, w), s in (edges or {}).items():
        where = f"{u} {w}"
        if s.mask & ~f.ground.mask:
            violations.append(Violation("not-a-subset", where,
                                        f"edge label {s} is not a subset of X = {f.ground}"))
        if s.mask in seen:
            pu, pw = seen[s.mask]
            violations.append(Violation("edge-image-not-injective", where,
                                        f"edge label {s} already used by {pu} {pw}"))
        else:
            seen[s.mask] = (u, w)
    return violations


def _sums_in_x_rule(g: Graph, f: Labeling, edges: Optional[dict]) -> list:
    """The IASI not-a-subset for each edge sum outside X, as f+: E(G) -> P(X)
    asks; skipped when a vertex label already lies outside X."""
    if edges is None or any(f.assignment[v].mask & ~f.ground.mask for v in g.vertices):
        return []
    return [v for v in _iasi_rule(g, f, edges) if v.kind == "not-a-subset"]


def _graceful_rule(g: Graph, f: Labeling, edges: Optional[dict]) -> list:
    violations = []
    x = f.ground
    required_count = (1 << x.size) - 2
    if g.m != required_count:
        violations.append(Violation(
            "bad-edge-count", "graph",
            f"{g.m} edges, but a set-graceful labeling over |X| = {x.size} needs {required_count}"))
    if edges is not None:
        required = [m for m in x.subset_masks() if m != ZERO_MASK]
        for (u, w), s in edges.items():
            if s.mask not in required:
                violations.append(Violation(
                    "extra-edge-image", f"{u} {w}",
                    f"edge label {s} lies outside P(X) - {{∅, {{0}}}}"))
        achieved = {s.mask for s in edges.values()}
        violations.extend(Violation("missing-edge-image", str(IntSet.from_mask(m)),
                                    "required subset never appears as an edge label")
                          for m in required if m not in achieved)
    return violations


def verify_iasl(g: Graph, f: Labeling) -> VerificationReport:
    """Injective, all labels non-empty subsets of X, all vertices labeled."""
    return _verify(g, f)


def verify_iasi(g: Graph, f: Labeling) -> VerificationReport:
    """An IASL whose induced edge function is injective into P(X).

    The edge labels must be pairwise distinct and stay inside the power set
    of the ground set; a sumset escaping X is reported per edge.
    """
    return _verify(g, f, _iasi_rule)


def uniformity_degree(k: int) -> int:
    """k itself when it is a valid uniformity degree, else ValueError."""
    if k < 1:
        raise ValueError("uniformity degree must be a positive integer")
    return k


def verify_uniform(g: Graph, f: Labeling, k: int) -> VerificationReport:
    """Every edge label has exactly k elements."""
    uniformity_degree(k)

    def uniform_rule(g: Graph, f: Labeling, edges: Optional[dict]) -> list:
        return [Violation("bad-edge-size", f"{u} {w}",
                          f"edge label {s} has {len(s)} elements, expected {k}")
                for (u, w), s in (edges or {}).items() if len(s) != k]

    return _verify(g, f, uniform_rule)


def verify_iasgl(g: Graph, f: Labeling) -> VerificationReport:
    """Set-graceful: the edge-label image is exactly P(X) - {∅, {0}}.

    The edge count 2^|X| - 2 is enforced as well; together with the image
    equality it makes the induced edge function injective, which is what the
    even-edge and star results silently assume.
    """
    return _verify(g, f, _graceful_rule)


@dataclass(frozen=True)
class SetIndexingReport:
    """Cardinalities of every vertex and edge label; mono-indexed means 1."""

    vertex_numbers: dict
    edge_numbers: dict
    mono_indexed_vertices: tuple
    mono_indexed_edges: tuple


def set_indexing_numbers(g: Graph, f: Labeling) -> SetIndexingReport:
    if not verify_iasl(g, f).verdict:
        raise ValueError("set-indexing numbers require a valid IASL")
    vnum = {v: len(f.assignment[v]) for v in g.vertices}
    enum_ = {edge: len(s) for edge, s in induced_edge_labels(g, f).items()}
    return SetIndexingReport(
        vertex_numbers=vnum,
        edge_numbers=enum_,
        mono_indexed_vertices=tuple(v for v, c in vnum.items() if c == 1),
        mono_indexed_edges=tuple(e for e, c in enum_.items() if c == 1),
    )
