"""Finite simple graphs with string-named vertices.

Covers the edge-list file format, structural predicates used by the labeling
theorems, isomorphism canonical forms, and exhaustive enumeration of small
connected graphs (the substrate for the theorem-checking suite). The classes
up to isomorphism are read from the committed atlas (``_class_atlas``), which
the class build ``_connected_class_masks`` generates and is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .intsets import (EnumerationInfeasible, ParseError, bits_of,
                      check_text_names, text_lines)

ENUMERATION_VERTEX_CAP = 7


class GraphParseError(ParseError):
    """Malformed edge-list input."""


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Neighbor bitmask of each of n vertices, from (i, j) index pairs."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _induces_connected(adj: Sequence[int], alive: int) -> bool:
    """Whether the vertices in the bitmask ``alive`` induce a connected graph,
    given each vertex's neighbor bitmask."""
    seen = frontier = alive & -alive
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & alive & ~seen
        seen |= frontier
    return seen == alive


class Graph:
    """Immutable simple undirected graph.

    Vertices keep their insertion order; edges are stored as index pairs
    ``(i, j)`` with ``i < j``, sorted.
    """

    __slots__ = ("vertices", "edges", "_index", "_adj", "_ckey", "_hash")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vs = tuple(vertices)
        index = {}
        for v in vs:
            if not isinstance(v, str):
                raise ValueError(f"vertex name {v!r} is not a string")
            if v in index:
                raise ValueError(f"duplicate vertex {v!r}")
            index[v] = len(index)
        pairs = set()
        for u, w in edges:
            if u not in index or w not in index:
                raise ValueError(f"edge ({u!r}, {w!r}) uses an undeclared vertex")
            if u == w:
                raise ValueError(f"loop at vertex {u!r}")
            i, j = index[u], index[w]
            pair = (i, j) if i < j else (j, i)
            if pair in pairs:
                raise ValueError(f"duplicate edge ({u!r}, {w!r})")
            pairs.add(pair)
        self._fill(vs, index, tuple(sorted(pairs)))

    @classmethod
    def _unchecked(cls, vertices: tuple[str, ...],
                   edges: tuple[tuple[int, int], ...]) -> Graph:
        """The graph on distinct ``vertices`` with the sorted, distinct index
        pairs ``edges`` (i < j), without the checks of ``__init__``."""
        g = cls.__new__(cls)
        g._fill(vertices, {v: i for i, v in enumerate(vertices)}, edges)
        return g

    def _fill(self, vertices: tuple[str, ...], index: dict[str, int],
              edges: tuple[tuple[int, int], ...]) -> None:
        self.vertices = vertices
        self._index = index
        self.edges = edges
        self._adj = tuple(_adjacency(len(vertices), edges))
        self._ckey: Optional[tuple[int, int]] = None
        self._hash: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self.vertices[j] for j in bits_of(self._adj[self._index[v]]))

    def neighbor_masks(self) -> tuple[int, ...]:
        """Each vertex's neighbors as a bitmask of vertex indices, in vertex
        order."""
        return self._adj

    def degree(self, v: str) -> int:
        return self._adj[self._index[v]].bit_count()

    def degrees(self) -> dict[str, int]:
        return {v: a.bit_count() for v, a in zip(self.vertices, self._adj)}

    def pendant_neighbors(self) -> dict[str, int]:
        """Each vertex's number of degree-1 neighbors."""
        pendants = sum(1 << i for i, a in enumerate(self._adj) if a.bit_count() == 1)
        return {v: (a & pendants).bit_count() for v, a in zip(self.vertices, self._adj)}

    def edge_names(self) -> list[tuple[str, str]]:
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edges]

    def is_connected(self) -> bool:
        return _induces_connected(self._adj, (1 << self.n) - 1)

    def canonical_key(self) -> tuple[int, int]:
        """Isomorphism-invariant key (vertex count, minimal edge mask)."""
        if self._ckey is None:
            self._ckey = (self.n, canonical_mask(self.n, self.edges))
        return self._ckey

    def emit(self) -> str:
        """Edge-list text that reparses to an identical graph.

        Every vertex is declared on its own line first so insertion order
        survives the round trip.
        """
        check_text_names(self.vertices)
        lines = list(self.vertices)
        lines.extend(f"{u} {w}" for u, w in self.edge_names())
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": [[u, w] for u, w in self.edge_names()]}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph)
                and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vertices, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.n} vertices, {self.m} edges)"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format.

    ``u v`` declares an edge, a single token declares a vertex, ``#`` starts
    a comment, blank lines are ignored. Loops, duplicate edges and extra
    tokens are reported with their line number.
    """
    vertices: dict[str, None] = {}
    seen_edges: set[tuple[str, str]] = set()
    edges: list[tuple[str, str]] = []
    for lineno, line in text_lines(text):
        tokens = line.split()
        if len(tokens) > 2:
            raise GraphParseError(lineno, f"expected 1 or 2 tokens, got {len(tokens)}")
        vertices.update(dict.fromkeys(tokens))
        if len(tokens) == 2:
            u, w = tokens
            if u == w:
                raise GraphParseError(lineno, f"loop at vertex {u!r}")
            key = (u, w) if u < w else (w, u)
            if key in seen_edges:
                raise GraphParseError(lineno, f"duplicate edge {u!r} {w!r}")
            seen_edges.add(key)
            edges.append((u, w))
    return Graph(vertices, edges)


@dataclass(frozen=True)
class GraphStructure:
    """Structural facts the labeling theorems talk about."""

    degrees: dict
    pendant_vertices: tuple[str, ...]
    is_connected: bool
    is_regular: Optional[int]
    is_tree: bool
    is_star: bool
    center_if_star: Optional[str]


def structure(g: Graph) -> GraphStructure:
    """The structural facts of g, all read from one list of degrees taken
    from its neighbour masks; only ``is_connected`` walks the graph. The
    star centre is the first vertex of degree n - 1, in vertex order."""
    degs = [a.bit_count() for a in g.neighbor_masks()]
    connected = g.is_connected()
    is_tree = connected and g.m == g.n - 1
    center = g.vertices[degs.index(g.n - 1)] if is_tree and g.n - 1 in degs else None
    return GraphStructure(
        degrees=dict(zip(g.vertices, degs)),
        pendant_vertices=tuple(v for v, d in zip(g.vertices, degs) if d == 1),
        is_connected=connected,
        is_regular=degs[0] if len(set(degs)) == 1 else None,
        is_tree=is_tree,
        is_star=center is not None,
        center_if_star=center,
    )


# Convenient builders for the standard small graphs used in tests and scripts.

def star(leaves: int) -> Graph:
    names = ["c"] + [f"l{i}" for i in range(1, leaves + 1)]
    return Graph(names, [("c", f"l{i}") for i in range(1, leaves + 1)])


def path(n: int) -> Graph:
    names = [f"v{i}" for i in range(1, n + 1)]
    return Graph(names, list(zip(names, names[1:])))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    names = [f"v{i}" for i in range(1, n + 1)]
    return Graph(names, list(zip(names, names[1:])) + [(names[-1], names[0])])


def complete(n: int) -> Graph:
    names = [f"v{i}" for i in range(1, n + 1)]
    return Graph(names, [(names[i], names[j])
                         for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    left = [f"a{i}" for i in range(1, a + 1)]
    right = [f"b{i}" for i in range(1, b + 1)]
    return Graph(left + right, [(u, w) for u in left for w in right])


# --- canonical forms ---------------------------------------------------------

@lru_cache(maxsize=None)
def _mask_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pair (i, j), i < j, at each bit of an n-vertex edge mask."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def _edges_of_mask(n: int, mask: int) -> tuple[tuple[int, int], ...]:
    pairs = _mask_pairs(n)
    return tuple(pairs[k] for k in bits_of(mask))


def _refine_colors(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Iterated degree refinement; the resulting color order is invariant.

    The first colors are the degree ranks. Each later round orders the
    vertices by their color, then by the sorted tuple of their neighbors'
    colors. Refinement only splits classes, so it is stable once a round
    adds none.
    """
    degrees = [len(a) for a in adj]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = [rank[d] for d in degrees]
    classes = len(rank)
    while classes < n:
        sigs = [(c, tuple(sorted(map(colors.__getitem__, a))))
                for c, a in zip(colors, adj)]
        distinct = sorted(set(sigs))
        if len(distinct) == classes:
            break
        rank = {s: i for i, s in enumerate(distinct)}
        colors = [rank[s] for s in sigs]
        classes = len(distinct)
    return colors


def canonical_mask(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Minimal edge mask over all vertex orderings compatible with refinement.

    Refinement colors are isomorphism-invariant and so is the order of the
    color classes, so restricting the minimum to color-respecting orderings
    yields the same value for isomorphic graphs while skipping most of the
    n! relabellings.

    The minimum is found from the top bits down. Once positions n-1..p+1
    are filled, the pairs whose lower position is p are the next-highest
    bits, so positions are filled from n-1 down and each level keeps only
    the partial placements whose bits so far are minimal. Placements whose
    unplaced vertices have the same adjacency to the filled positions have
    the same completions, so they are merged.

    Twins are vertices with the same neighbors apart from each other. Any
    permutation of a twin class is an automorphism, and twins share a color,
    so some minimal ordering places each twin after the previous one in its
    color block; a vertex is offered only once that twin is placed.

    A repeated pair counts once, in either orientation; a loop or an index
    outside 0..n-1 raises ``ValueError``.
    """
    edges = list(edges)
    for i, j in edges:
        if i == j:
            raise ValueError(f"loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) has a vertex outside range({n})")
    if n <= 1:
        return 0
    nbrs = _adjacency(n, edges)
    adj = [tuple(bits_of(a)) for a in nbrs]
    # vertex u's adjacency to the filled positions is the n-bit field at u*n
    spread = [sum(1 << (j * n) for j in a) for a in adj]
    colors = _refine_colors(n, adj)
    field = [((1 << n) - 1) << (v * n) for v in range(n)]
    blocks: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        blocks.setdefault(c, []).append(v)
    # after[v] is the field of v's previous twin, or 0 (twins share a color,
    # so that twin is in v's block); v may be placed when placed & gate[v] ==
    # after[v], that is, v is unplaced and that twin is placed. Twins that
    # are not adjacent have one neighborhood, adjacent twins one closed
    # neighborhood, and no vertex has twins of both kinds.
    after = [0] * n
    last_open: dict[int, int] = {}
    last_closed: dict[int, int] = {}
    for v, a in enumerate(nbrs):
        closed = a | 1 << v
        u = last_open.get(a, last_closed.get(closed))
        if u is not None:
            after[v] = field[u]
        last_open[a] = last_closed[closed] = v
    gate = [f | a for f, a in zip(field, after)]
    level_blocks = [blocks[c] for c in sorted(colors)]
    states = {(0, 0)}  # (fields of the placed vertices, adjacency fields)
    mask = 0
    offset = n * (n - 1) // 2
    for p in range(n - 1, -1, -1):
        offset -= n - 1 - p  # the pairs (p, j), j > p, start at this bit
        width = (1 << (n - 1 - p)) - 1
        best = width + 1
        keep = []
        for placed, adjacency in states:
            for v in level_blocks[p]:
                if placed & gate[v] != after[v]:
                    continue
                chunk = adjacency >> (v * n + p + 1) & width
                if chunk < best:
                    best = chunk
                    keep = [(placed, adjacency, v)]
                elif chunk == best:
                    keep.append((placed, adjacency, v))
        mask |= best << offset
        states = set()
        for placed, adjacency, v in keep:
            placed |= field[v]
            states.add((placed, (adjacency | spread[v] << p) & ~placed))
    return mask


def graphs_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and g.canonical_key() == h.canonical_key()


# --- enumeration -------------------------------------------------------------

@lru_cache(maxsize=None)
def _connected_class_masks(n: int) -> tuple[int, ...]:
    """Canonical edge masks of connected graphs on n vertices, up to iso,
    in increasing order. This build generates the class atlas
    (scripts/write_class_atlas.py), which enumeration reads instead.

    Built by attaching a new vertex v with a non-empty neighborhood S to
    each class H on n-1 vertices, skipping the candidates where some other
    vertex u with a smaller key is no cut vertex of H and S ≠ {u}. A
    vertex's key is its degree, then the sum of its neighbors' degrees; the
    keys of H + v are read off H, u gaining v as a neighbor when u is in S.
    Every connected graph still arises: it has a non-cut vertex of least
    key, and removing that vertex leaves a connected graph on n-1 vertices.
    Such a u is no cut vertex of H + v either, since H - u is connected and
    v keeps a neighbor in it; so no candidate whose v is a non-cut vertex of
    least key is skipped.
    """
    if n == 1:
        return (0,)
    new = n - 1
    everyone = (1 << new) - 1
    seen: set[int] = set()
    for hmask in _connected_class_masks(new):
        h_edges = _edges_of_mask(new, hmask)
        h_adj = _adjacency(new, h_edges)
        h_deg = [a.bit_count() for a in h_adj]
        h_sum = [sum(map(h_deg.__getitem__, bits_of(a))) for a in h_adj]
        non_cut = [u for u in range(new)
                   if _induces_connected(h_adj, everyone & ~(1 << u))]
        for s in range(1, 1 << new):
            degree = s.bit_count()
            total = None  # v's sum of neighbor degrees, once a degree ties
            for u in non_cut:
                inside = s >> u & 1
                if h_deg[u] + inside > degree:
                    continue
                if h_deg[u] + inside == degree:
                    if total is None:
                        total = sum(map(h_deg.__getitem__, bits_of(s))) + degree
                    if h_sum[u] + (h_adj[u] & s).bit_count() + inside * degree >= total:
                        continue
                if s != 1 << u:
                    break
            else:
                seen.add(canonical_mask(n, h_edges + tuple((i, new) for i in bits_of(s))))
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def _class_masks(n: int) -> tuple[int, ...]:
    """``_connected_class_masks(n)``, read from the committed atlas."""
    # imported on first use, so a run that enumerates no classes never loads it
    from ._class_atlas import CLASS_MASKS
    return tuple(int(mask, 16) for mask in CLASS_MASKS[n].split())


def _graph_from_mask(n: int, mask: int) -> Graph:
    return Graph._unchecked(tuple(f"v{i}" for i in range(1, n + 1)),
                            _edges_of_mask(n, mask))


def enumerate_connected_graphs(n: int, dedup: bool = False,
                               max_edges: Optional[int] = None) -> Iterator[Graph]:
    """Yield every connected simple graph on n labeled vertices.

    With ``dedup`` one representative per isomorphism class is produced, in
    increasing order of its canonical edge mask. ``max_edges`` keeps the
    graphs with at most that many edges (trees: ``max_edges=n-1``).
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n > ENUMERATION_VERTEX_CAP:
        raise EnumerationInfeasible(
            f"enumeration capped at {ENUMERATION_VERTEX_CAP} vertices, got {n}")
    masks = _class_masks(n) if dedup else range(1 << (n * (n - 1) // 2))
    for mask in masks:
        if max_edges is not None and mask.bit_count() > max_edges:
            continue
        if dedup or _induces_connected(_adjacency(n, _edges_of_mask(n, mask)),
                                       (1 << n) - 1):
            yield _graph_from_mask(n, mask)


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices."""
    return enumerate_connected_graphs(n, dedup=True, max_edges=n - 1)
