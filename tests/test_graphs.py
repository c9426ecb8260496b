"""Graph parsing, structure reports, canonical forms, and enumeration."""

import hashlib
import random
import re
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from iasl_lab import graphs
from iasl_lab import (EnumerationInfeasible, Graph, GraphParseError,
                      GraphStructure, canonical_mask, complete,
                      complete_bipartite, cycle, enumerate_connected_graphs,
                      enumerate_trees, graphs_isomorphic, parse_graph, path,
                      star, structure)
from test_search import renamed

# known counts: connected graphs up to isomorphism and on labeled vertices
CONNECTED_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CONNECTED_LABELED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
# classes of trees (OEIS A000055), and of connected graphs with at most n
# edges: the trees plus the connected unicyclic graphs (OEIS A001429)
TREE_CLASSES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11}
AT_MOST_N_EDGES = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 19, 7: 44}
# SHA-256 of repr([(g.n, g.edges)]) over every class with n <= 7, in order
CLASSES_SHA256 = "fc895c815f6d5437e2daa4399494cb777cfb2d11424a1be640d5eea9623aa928"
# connected graphs on 8 vertices up to isomorphism (OEIS A001349), and the
# SHA-256 of repr(_connected_class_masks(8))
CONNECTED_CLASSES_8 = 11117
CLASSES_8_SHA256 = "ef5e25a3ec93f8d357c3b9cd6d02829b2eaab3713a4db942c0de21772fddfe92"


def reference_canonical_mask(n, edges):
    """The definition canonical_mask must match: the least edge mask over
    every ordering that places the refinement color classes in color order,
    each permuted freely."""
    edges = list(edges)
    if n <= 1:
        return 0
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    colors = [0] * n
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v])))
                for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            break
        colors = new
    blocks = [tuple(v for v in range(n) if colors[v] == c)
              for c in sorted(set(colors))]
    bit = {}
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        bit[i, j] = bit[j, i] = 1 << k
    best = None
    for arrangement in product(*(permutations(b) for b in blocks)):
        place = {v: p for p, v in enumerate(v for block in arrangement for v in block)}
        m = 0
        for i, j in edges:
            m |= bit[place[i], place[j]]
        if best is None or m < best:
            best = m
    return best


def one_color_refinement(n, adj):
    """Degree refinement started from one color: every round orders the
    vertices by (color, sorted tuple of neighbor colors), so the first round
    yields the degree ranks."""
    colors = [0] * n
    classes = 1
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v])))
                for v in range(n)]
        distinct = sorted(set(sigs))
        if len(distinct) == classes:
            return colors
        rank = {s: i for i, s in enumerate(distinct)}
        colors = [rank[s] for s in sigs]
        classes = len(distinct)


def labeled_edge_lists(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield [pairs[k] for k in range(len(pairs)) if mask >> k & 1]


def unfiltered_class_masks(n):
    """Every non-empty neighborhood of a new vertex on every smaller class."""
    if n == 1:
        return {0}
    out = set()
    for hmask in unfiltered_class_masks(n - 1):
        h_edges = graphs._edges_of_mask(n - 1, hmask)
        for s in range(1, 1 << (n - 1)):
            attach = tuple((i, n - 1) for i in range(n - 1) if s >> i & 1)
            out.add(canonical_mask(n, h_edges + attach))
    return out


class TestParse:
    def test_path(self):
        g = parse_graph("a b\nb c\n")
        assert g.vertices == ("a", "b", "c")
        assert g.edge_names() == [("a", "b"), ("b", "c")]

    def test_isolated_vertex(self):
        g = parse_graph("x\n")
        assert g.vertices == ("x",)
        assert g.m == 0

    def test_comments_and_blanks(self):
        g = parse_graph("# a comment\n\na b  # trailing\n")
        assert g.edge_names() == [("a", "b")]

    def test_duplicate_edge(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("u v\nu v\n")
        assert err.value.line == 2

    def test_reversed_duplicate_edge(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("u v\nv u\n")
        assert err.value.line == 2

    def test_loop(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("a b\nc c\n")
        assert err.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("a b c\n")
        assert err.value.line == 1

    def test_vertices_keep_the_order_they_are_first_named(self):
        g = parse_graph("c\nb a\n# d\nb c\ne\n")
        assert g.vertices == ("c", "b", "a", "e")

    def test_emit_round_trip(self):
        for g in [path(4), cycle(5), star(3), parse_graph("a\nb c\n")]:
            assert parse_graph(g.emit()) == g


def named_structure(g):
    """``structure`` written over vertex names and ``Graph.degrees()``: the
    definition the mask-based one must equal field for field."""
    degs = g.degrees()
    pendants = tuple(v for v in g.vertices if degs[v] == 1)
    connected = g.is_connected()
    values = set(degs.values())
    regular = values.pop() if len(values) == 1 and g.n > 0 else None
    is_tree = connected and g.m == g.n - 1
    center = None
    if is_tree:
        for v in g.vertices:
            if degs[v] == g.n - 1:
                center = v
                break
    is_star = is_tree and center is not None
    return GraphStructure(
        degrees=degs,
        pendant_vertices=pendants,
        is_connected=connected,
        is_regular=regular,
        is_tree=is_tree,
        is_star=is_star,
        center_if_star=center if is_star else None,
    )


class TestStructure:
    def test_equals_the_name_based_definition(self):
        # the classes, a renamed and reordered copy of each, and the edge
        # cases: no vertex, K1, K2, a star declared leaf first, and two
        # disconnected graphs, one with m = n - 1
        rng = random.Random(32)
        classes = [g for n in range(1, 8)
                   for g in enumerate_connected_graphs(n, dedup=True)]
        cases = classes + [renamed(g, rng) for g in classes] + [
            Graph([], []), Graph(["a"], []), parse_graph("a b\n"),
            Graph(["l1", "l2", "c", "l3"], [("l1", "c"), ("c", "l2"), ("l3", "c")]),
            cycle(5), complete(12), complete_bipartite(3, 3), star(30),
            parse_graph("a b\nb c\nc a\nd\n"), parse_graph("a b\nb c\nd\n")]
        assert len(cases) == 2 * 996 + 10
        for g in cases:
            got, want = structure(g), named_structure(g)
            assert (got, list(got.degrees.items())) == (
                want, list(want.degrees.items())), g.edge_names()

    def test_cycle(self):
        st_ = structure(cycle(4))
        assert st_.is_regular == 2
        assert st_.pendant_vertices == ()
        assert not st_.is_tree

    def test_star(self):
        st_ = structure(star(6))
        assert st_.is_star
        assert st_.is_tree
        assert len(st_.pendant_vertices) == 6
        assert st_.center_if_star == "c"

    def test_path(self):
        st_ = structure(path(4))
        assert st_.is_tree
        assert not st_.is_star
        assert len(st_.pendant_vertices) == 2
        assert st_.is_regular is None

    def test_disconnected_flagged(self):
        g = parse_graph("a b\nc d\n")
        assert not structure(g).is_connected

    def test_complete_bipartite(self):
        st_ = structure(complete_bipartite(3, 3))
        assert st_.is_regular == 3
        assert not st_.is_tree


class TestCanonicalForm:
    def test_iso_detects_relabeling(self):
        g = parse_graph("a b\nb c\nc d\n")
        h = parse_graph("x y\nz x\nw z\n")  # the same path, scrambled
        assert graphs_isomorphic(g, h)

    def test_distinguishes_path_from_star(self):
        assert not graphs_isomorphic(path(4), star(3))

    def test_repeated_pairs_count_once(self):
        p3 = canonical_mask(3, [(0, 1), (1, 2)])
        assert canonical_mask(3, [(0, 1), (1, 2), (1, 2)]) == p3
        assert canonical_mask(3, [(0, 1), (2, 1), (1, 2), (1, 0)]) == p3

    @pytest.mark.parametrize("n, edges", [
        (3, [(0, 0), (0, 1)]), (1, [(0, 0)]), (3, [(0, 3)]),
        (3, [(-1, 0)]), (1, [(0, 1)]), (0, [(0, 1)]),
    ], ids=["loop", "loop-n1", "index-n", "negative", "index-n1", "index-n0"])
    def test_loops_and_foreign_indices_are_refused(self, n, edges):
        with pytest.raises(ValueError):
            canonical_mask(n, edges)

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
    def test_invariant_under_permutation(self, n, rng):
        bits = n * (n - 1) // 2
        mask = rng.getrandbits(bits)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [pairs[k] for k in range(bits) if mask >> k & 1]
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [(perm[i], perm[j]) for i, j in edges]
        assert canonical_mask(n, edges) == canonical_mask(n, permuted)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_reference_on_every_labeled_graph(self, n):
        for edges in labeled_edge_lists(n):
            assert canonical_mask(n, edges) == reference_canonical_mask(n, edges)

    @pytest.mark.parametrize("n", [6, 7])
    def test_matches_reference_on_shuffled_edge_lists(self, n):
        rng = random.Random(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(300):
            density = rng.random()
            edges = [(j, i) if rng.random() < 0.5 else (i, j)
                     for i, j in pairs if rng.random() < density]
            rng.shuffle(edges)
            assert canonical_mask(n, edges) == reference_canonical_mask(n, edges)

    @pytest.mark.parametrize("g", [star(30), complete_bipartite(6, 8), complete(12)],
                             ids=["star30", "k6_8", "k12"])
    def test_twin_classes_stay_cheap_under_relabeling(self, g):
        # one twin class of 30, two of 6 and 8, one of 12: without twin
        # pruning each costs up to 2^k states
        rng = random.Random(g.n)
        expected = canonical_mask(g.n, g.edges)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_mask(g.n, [(perm[i], perm[j]) for i, j in g.edges]) == expected

    @pytest.mark.parametrize("g", [star(7), complete_bipartite(3, 4), complete(7),
                                   # a true twin pair and a false twin pair
                                   parse_graph("a b\na c\nb c\nc d\nc e\nd f\ne f\n")],
                             ids=["star7", "k3_4", "k7", "mixed"])
    def test_twin_pruning_matches_reference(self, g):
        assert canonical_mask(g.n, g.edges) == reference_canonical_mask(g.n, g.edges)

    def test_degree_rank_start_matches_one_color_start(self):
        rng = random.Random(2024)
        for _ in range(2000):
            n = rng.randint(1, 8)
            density = rng.random()
            adj = [[] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        adj[i].append(j)
                        adj[j].append(i)
            assert graphs._refine_colors(n, adj) == one_color_refinement(n, adj)

    @pytest.mark.parametrize("n", range(2, 18))
    def test_int_signatures_match_one_color_refinement(self, n):
        rng = random.Random(n)
        for _ in range(150):
            density = rng.random()
            adj = [[] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        adj[i].append(j)
                        adj[j].append(i)
            assert graphs._refine_colors(n, adj) == one_color_refinement(n, adj)

    @pytest.mark.parametrize("n", [4, 5])
    def test_classes_distinct_by_brute_force(self, n):
        # independent certificate that dedup never merges non-isomorphic
        # graphs: no permutation maps one enumerated class onto another
        from itertools import permutations

        def brute_isomorphic(g, h):
            ge = set(g.edges)
            for perm in permutations(range(n)):
                mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in h.edges}
                if mapped == ge:
                    return True
            return False

        classes = list(enumerate_connected_graphs(n, dedup=True))
        for i, g in enumerate(classes):
            for h in classes[i + 1:]:
                if g.m == h.m:
                    assert not brute_isomorphic(g, h)


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_class_counts(self, n):
        got = sum(1 for _ in enumerate_connected_graphs(n, dedup=True))
        assert got == CONNECTED_CLASSES[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_labeled_counts_match_brute_filter(self, n):
        got = sum(1 for _ in enumerate_connected_graphs(n))
        assert got == CONNECTED_LABELED[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_edge_bounded_class_counts(self, n):
        assert sum(1 for _ in enumerate_trees(n)) == TREE_CLASSES[n]
        bounded = list(enumerate_connected_graphs(n, dedup=True, max_edges=n))
        assert len(bounded) == AT_MOST_N_EDGES[n]
        every = list(enumerate_connected_graphs(n, dedup=True))
        assert bounded == [g for g in every if g.m <= n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_filtered_build_matches_unfiltered(self, n):
        assert graphs._connected_class_masks(n) == tuple(sorted(unfiltered_class_masks(n)))

    def test_class_count_on_eight_vertices(self, monkeypatch):
        # past the enumeration cap, through the internal builder
        assert graphs.ENUMERATION_VERTEX_CAP == 7
        calls = Counter()
        real = graphs.canonical_mask

        def counted(n, edges):
            calls[n] += 1
            return real(n, edges)

        monkeypatch.setattr(graphs, "canonical_mask", counted)
        graphs._connected_class_masks.cache_clear()
        classes = graphs._connected_class_masks(8)
        assert len(classes) == CONNECTED_CLASSES_8
        assert hashlib.sha256(repr(classes).encode()).hexdigest() == CLASSES_8_SHA256
        assert calls[8] == 20068

    def test_canonical_mask_calls_in_the_class_build(self, monkeypatch):
        # candidates pass the deletion filter only when no non-cut vertex
        # has a smaller (degree, sum of neighbor degrees)
        calls = Counter()
        real = graphs.canonical_mask

        def counted(n, edges):
            calls[n] += 1
            return real(n, edges)

        monkeypatch.setattr(graphs, "canonical_mask", counted)
        graphs._connected_class_masks.cache_clear()
        for n in range(1, 8):
            graphs._connected_class_masks(n)
        assert calls == {2: 1, 3: 3, 4: 11, 5: 47, 6: 244, 7: 1816}
        assert sum(calls.values()) == 2122

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_vertices_taken_as_non_cut_are_non_cut(self, n):
        # the class build takes u as no cut vertex of H + v when u is none
        # of H and S != {u}; check that on every class H and every S
        everyone = (1 << n) - 1
        for hmask in graphs._connected_class_masks(n):
            h_edges = graphs._edges_of_mask(n, hmask)
            h_adj = graphs._adjacency(n, h_edges)
            non_cut = [u for u in range(n)
                       if graphs._induces_connected(h_adj, everyone & ~(1 << u))]
            for s in range(1, 1 << n):
                edges = h_edges + tuple((i, n) for i in range(n) if s >> i & 1)
                for u in non_cut:
                    if s != 1 << u:
                        assert connected_without(n + 1, edges, u)

    def test_graphs_from_masks_equal_validated_graphs(self):
        for n in range(1, 8):
            names = [f"v{i}" for i in range(1, n + 1)]
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for mask in graphs._connected_class_masks(n):
                g = graphs._graph_from_mask(n, mask)
                h = Graph(names, [(names[i], names[j])
                                  for k, (i, j) in enumerate(pairs) if mask >> k & 1])
                assert g == h and hash(g) == hash(h)
                assert g.neighbor_masks() == h.neighbor_masks()
                assert g.degrees() == h.degrees()
                assert g.canonical_key() == h.canonical_key() == (n, mask)
                assert parse_graph(g.emit()) == g

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_labeled_mode_matches_graph_connectivity_filter(self, n):
        expected = [g for g in (graphs._graph_from_mask(n, mask)
                                for mask in range(1 << (n * (n - 1) // 2)))
                    if g.is_connected()]
        assert list(enumerate_connected_graphs(n)) == expected

    def test_classes_and_their_order_are_pinned(self):
        classes = [(g.n, g.edges) for n in range(1, 8)
                   for g in enumerate_connected_graphs(n, dedup=True)]
        assert hashlib.sha256(repr(classes).encode()).hexdigest() == CLASSES_SHA256

    def test_classes_are_read_from_the_atlas(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("class enumeration rebuilt the classes")

        monkeypatch.setattr(graphs, "canonical_mask", refuse)
        monkeypatch.setattr(graphs, "_connected_class_masks", refuse)
        graphs._class_masks.cache_clear()
        classes = [(g.n, g.edges) for n in range(1, 8)
                   for g in enumerate_connected_graphs(n, dedup=True)]
        assert hashlib.sha256(repr(classes).encode()).hexdigest() == CLASSES_SHA256

    def test_classes_are_pairwise_non_isomorphic(self):
        graphs = list(enumerate_connected_graphs(5, dedup=True))
        keys = {g.canonical_key() for g in graphs}
        assert len(keys) == len(graphs)

    def test_n3_shapes(self):
        shapes = sorted(g.m for g in enumerate_connected_graphs(3, dedup=True))
        assert shapes == [2, 3]  # the path and the triangle

    def test_trees_on_seven_vertices(self):
        trees = list(enumerate_trees(7))
        assert len(trees) == 11
        assert all(structure(t).is_tree for t in trees)

    def test_star_tree_connectivity_implications(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n, dedup=True):
                s = structure(g)
                if s.is_star:
                    assert s.is_tree
                if s.is_tree:
                    assert s.is_connected

    def test_labeled_trees_match_cayley(self):
        # connected graphs on n labeled vertices with at most n-1 edges are
        # exactly the labeled trees, n^(n-2) of them
        for n in (3, 4, 5):
            got = sum(1 for _ in enumerate_connected_graphs(n, max_edges=n - 1))
            assert got == n ** (n - 2)

    def test_cap(self):
        with pytest.raises(EnumerationInfeasible):
            list(enumerate_connected_graphs(8, dedup=True))

    def test_streams_restartable(self):
        first = [g.canonical_key() for g in enumerate_connected_graphs(4, dedup=True)]
        second = [g.canonical_key() for g in enumerate_connected_graphs(4, dedup=True)]
        assert first == second


def mask_connected(n, mask):
    """Connectivity of an n-vertex edge mask by repeated merging of the
    vertex sets that an edge joins."""
    parts = [1 << v for v in range(n)]
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        if mask >> k & 1:
            pi = next(p for p in parts if p >> i & 1)
            pj = next(p for p in parts if p >> j & 1)
            if pi != pj:
                parts = [p for p in parts if p not in (pi, pj)] + [pi | pj]
    return len(parts) <= 1


def connected_without(n, edges, u):
    """Whether the graph on n vertices with the index pairs ``edges`` stays
    connected once vertex u is removed, by a search over neighbor sets."""
    nbrs = {v: set() for v in range(n) if v != u}
    for i, j in edges:
        if u not in (i, j):
            nbrs[i].add(j)
            nbrs[j].add(i)
    stack = list(nbrs)[:1]
    seen = set(stack)
    while stack:
        for w in nbrs[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == len(nbrs)


class TestConnectivity:
    # n = 0 and n = 1 are the empty and the one-vertex graph
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_matches_mask_check_on_every_labeled_graph(self, n):
        names = [f"v{i}" for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(names, [(names[i], names[j])
                              for k, (i, j) in enumerate(pairs) if mask >> k & 1])
            assert g.is_connected() == mask_connected(n, mask)


class TestGraphInvariants:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(("a",), [("a", "a")])

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError):
            Graph(("a", "a"), [])

    def test_rejects_undeclared_endpoint(self):
        with pytest.raises(ValueError):
            Graph(("a",), [("a", "b")])

    @pytest.mark.parametrize("vertices, edges, message", [
        (("a", "b"), [("a", "b"), ("b", "a")], "duplicate edge ('b', 'a')"),
        (("a", 1), [("a", 1)], "vertex name 1 is not a string"),
        ((1, 2), [(1, 2)], "vertex name 1 is not a string"),
    ], ids=["edge-both-ways", "mixed-names", "int-names"])
    def test_rejects_bad_input(self, vertices, edges, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(vertices, edges)

    @pytest.mark.parametrize("build, message", [
        (lambda: cycle(2), "cycle needs at least 3 vertices"),
        (lambda: list(enumerate_connected_graphs(0)), "vertex count must be positive"),
    ], ids=["cycle-2", "enumerate-0"])
    def test_builders_refuse_too_few_vertices(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_degrees(self):
        g = star(4)
        assert g.degree("c") == 4
        assert all(g.degree(v) == 1 for v in g.vertices if v != "c")

    def test_complete_graph(self):
        g = complete(4)
        assert g.m == 6
        assert structure(g).is_regular == 3
