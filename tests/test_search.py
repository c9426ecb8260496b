"""Backtracking searches, structural screens, and the smallest-ground-set scan."""

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate, combinations, permutations
from pathlib import Path

import pytest

from iasl_lab import (Graph, GroundSet, IntSet, Labeling, OracleScope,
                      classify, complete, cycle,
                      enumerate_connected_graphs, enumerate_topologies,
                      iter_iasgl_assignments, iter_top_iasl_assignments,
                      minimal_ground_set,
                      parse_graph, path, screen, search_iasgl,
                      search_top_iasgl, search_top_iasl, star, verify_iasgl,
                      verify_top_iasgl, verify_top_iasl,
                      all_nonempty_subsets)
from iasl_lab.intsets import ZERO_MASK, _sum_bits, sumset_mask
from iasl_lab.search import (_assignments, _capacities, _capacity_table,
                              _domains, _fits, _fitting_families, _labels_fit,
                              _partner_bitsets, _search_order)
from iasl_lab.topology import _families_by_open_count, _topology
import iasl_lab.search as search
from iasl_lab import DEFAULT_GROUND_CAP, complete_bipartite

X0 = GroundSet((0,))
X01 = GroundSet((0, 1))
X012 = GroundSet((0, 1, 2))
DEEP_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "iasgl-deep"


def unpruned_iasgl_assignments(g, x, counter=None):
    """``iter_iasgl_assignments`` without the capacity rule: the shared core
    offers every vertex every non-empty subset of X."""
    if g.m != (1 << x.size) - 2:
        return
    order, earlier, _degrees = _search_order(g)
    masks = x.subset_masks()
    everything = (1 << len(masks)) - 1
    left = [g.m - decided for decided in accumulate(map(len, earlier))]
    cover = (_sum_bits(x), everything ^ 1, left)
    for picks in _assignments(earlier, [everything] * g.n, _partner_bitsets(x),
                              counter, cover):
        yield {order[v]: masks[p] for v, p in enumerate(picks)}


def unpruned_top_iasl_assignments(g, x, counter=None):
    """``iter_top_iasl_assignments`` without the capacity rule: the shared
    core offers every vertex every open of each topology."""
    order, earlier, _degrees = _search_order(g)
    masks = x.subset_masks()
    for family in _families_by_open_count(x.size).get(g.n, ()):
        t = None
        for picks in _assignments(earlier, [family] * g.n, _partner_bitsets(x),
                                  counter):
            if t is None:
                t = _topology(x, family)
            yield t, {order[v]: masks[p] for v, p in enumerate(picks)}


def looped_assignments(earlier, domains, partners, counter):
    """The shared core's loop without a coverage bound and without filling
    the trailing twin run by permutation: every node is walked."""
    n = len(earlier)
    picks = [0] * n
    if not n:
        yield picks
        return
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
        picks[i] = low.bit_length() - 1
        nodes += 1
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
        cand[i] = allowed
    counter[0] += nodes


def looped_top_iasl_assignments(g, x, counter):
    """``iter_top_iasl_assignments`` on ``looped_assignments``, with the
    capacity rule decided for each family on its own."""
    if not _labels_fit(g.n, x.size) or all(d >= 2 for d in g.degrees().values()):
        return
    order, earlier, degrees = _search_order(g)
    masks = x.subset_masks()
    for family in _families_by_open_count(x.size).get(g.n, ()):
        caps, at_least = _capacities(x, family)
        if not _fits(degrees, caps):
            continue
        t = _topology(x, family)
        for picks in looped_assignments(earlier, _domains(degrees, at_least),
                                        _partner_bitsets(x), counter):
            yield t, {order[v]: masks[p] for v, p in enumerate(picks)}


def counted_stream(assignments, g, x):
    """(topology, assignment, counter) at every yield, then the final counter."""
    counter = [0]
    for t, masks in assignments(g, x, counter):
        yield t, masks, counter[0]
    yield counter[0]


def brute_force_iasgl_exists(g, x):
    """Unpruned sweep over every injective assignment of subsets to vertices.

    The set-graceful definition is re-evaluated per assignment on raw masks,
    with no search-style pruning; only the wall-clock cost is optimized.
    """
    from iasl_lab.intsets import ZERO_MASK, sumset_mask
    subs = x.subset_masks()
    if g.n > len(subs):
        return False
    required = frozenset(m for m in subs if m != ZERO_MASK)
    if g.m != len(required):
        # assignment-independent: with the wrong edge count no labeling can
        # have image equal to the required set and pass the count check
        return False
    table = {(a, b): sumset_mask(a, b) for a in subs for b in subs}
    edges = g.edges
    for combo in permutations(subs, g.n):
        image = {table[(combo[i], combo[j])] for i, j in edges}
        if image == required:
            return True
    return False


class TestScreen:
    def test_c6(self):
        scr = screen(cycle(6), X012, "iasgl")
        assert scr.edge_count_ok          # 6 = 2^3 - 2
        assert not scr.pendant_floor_ok   # 0 < 2
        assert not scr.admissible()

    def test_k16(self):
        scr = screen(star(6), X012, "iasgl")
        assert scr.edge_count_ok
        assert scr.vertex_count_ok
        assert scr.pendant_floor_ok
        assert scr.pendant_count_ok_reading_a
        assert scr.pendant_count_ok_reading_b
        assert scr.max_degree_ok
        assert scr.admissible()

    def test_p4_edge_count(self):
        for x in (X01, X012):
            assert not screen(path(4), x, "iasgl").edge_count_ok

    def test_reading_bounds_swap(self):
        # X = {0,1} is not a sumset: statement reading wants rho' = 2 pendants,
        # proof reading wants 1 + rho' = 3; the 2-pendant star separates them
        scr = screen(star(2), X01, "iasgl")
        assert not scr.classification.x_is_sumset
        assert scr.pendant_count_ok_reading_a
        assert not scr.pendant_count_ok_reading_b

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            screen(star(2), X01, "nonsense")

    @pytest.mark.parametrize("ground, beta, min_vertices", [
        ((0,), 0, 0), ((0, 1), 2, 3), ((0, 1, 2), 5, 6), ((0, 1, 3), 6, 7),
        ((0, 1, 2, 3), 8, 9), ((0, 2, 3, 5), 10, 11), ((0, 1, 2, 4), 12, 13),
        ((0, 1, 2, 3, 4), 14, 15)], ids=str)
    def test_zero_degree_floor_and_min_vertices(self, ground, beta, min_vertices):
        x = GroundSet(ground)
        scr = screen(star(2), x)
        assert scr.zero_degree_floor == classify(x).zero_degree_floor == beta
        assert scr.min_vertices == min_vertices
        assert scr.zero_degree_floor_ok == (beta <= 2)

    def test_min_vertices_never_falls_below_the_sumset_count(self):
        # 1 + beta against the earlier bound 2^|X| - 1 - rho, which counts
        # only the required labels that are no non-trivial sumset at all
        for k in range(1, 5):
            for rest in combinations(range(1, 8), k):
                x = GroundSet((0,) + rest)
                scr = screen(star(2), x)
                assert scr.min_vertices >= (1 << x.size) - 1 - scr.classification.rho


class TestSearchIasgl:
    def test_small_star(self):
        out = search_iasgl(star(2), X01)
        assert out.found
        assert str(out.labeling.assignment["c"]) == "{0}"
        assert verify_iasgl(star(2), out.labeling).verdict

    def test_full_star(self):
        out = search_iasgl(star(6), X012)
        assert out.found
        assert verify_iasgl(star(6), out.labeling).verdict

    def test_c6_not_found(self):
        assert not search_iasgl(cycle(6), X012).found

    def test_k2_never_graceful(self):
        for x in (GroundSet((0,)), X01, X012):
            assert not search_iasgl(path(2), x).found

    def test_deterministic(self):
        a = search_iasgl(star(6), X012)
        b = search_iasgl(star(6), X012)
        assert a.labeling.assignment == b.labeling.assignment
        assert a.nodes_explored == b.nodes_explored

    def test_too_many_vertices(self):
        assert not search_iasgl(path(4), X01).found

    def test_outcome_json_round_trips(self):
        import json
        payload = search_iasgl(star(2), X01).to_json()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["found"] is True
        assert payload["screen"]["edge_count_ok"] is True


class TestSearchTopIasl:
    def test_p3_found_with_discrete_topology(self):
        out = search_top_iasl(path(3), X01)
        assert out.found
        family = {s.mask for s in out.labeling.assignment.values()}
        assert family == {1, 2, 3}  # the whole power set minus the empty set
        assert verify_top_iasl(path(3), out.labeling).verdict

    def test_k3_not_found(self):
        assert not search_top_iasl(complete(3), X01).found

    def test_k2_found(self):
        out = search_top_iasl(path(2), X01)
        assert out.found
        labels = {str(s) for s in out.labeling.assignment.values()}
        assert labels == {"{0}", "{0,1}"}

    def test_min_degree_two_is_ruled_out_before_the_core(self):
        # the search reads no node; the unpruned core walks the cycle's
        # branches and, like the capacity-pruned core, finds none
        assert search_top_iasl(cycle(4), X012).nodes_explored == 0
        counter = [0]
        assert list(unpruned_top_iasl_assignments(cycle(4), X012, counter)) == []
        assert list(iter_top_iasl_assignments(cycle(4), X012)) == []
        assert counter[0] > 0

    def test_is_the_core_first_yield_min_degree_two_skips_the_table(self):
        # found and first labeling agree with the core's first yield on the
        # empty graph, every connected class on <= 7 vertices, and two
        # disconnected graphs (one of minimum degree 2), over every X that
        # contains 0 inside {0,1,2,3}; when every vertex has degree >= 2
        # (the empty graph too) the core yields nothing, reads no node and
        # never asks for the topology table
        triangles = [("a", "b"), ("b", "c"), ("a", "c"),
                     ("d", "e"), ("e", "f"), ("d", "f")]
        graphs = [Graph([], []), Graph(["a", "b", "c"], [("a", "b")]),
                  Graph(list("abcdef"), triangles)]
        for n in range(1, 8):
            graphs.extend(enumerate_connected_graphs(n, dedup=True))
        grounds = [GroundSet((0,) + c) for r in range(4)
                   for c in combinations((1, 2, 3), r)]
        ruled_out = 0
        for g in graphs:
            min_degree_two = all(d >= 2 for d in g.degrees().values())
            for x in grounds:
                calls = _families_by_open_count.cache_info()
                out = search_top_iasl(g, x)
                counter = [0]
                first = next((m for _t, m in iter_top_iasl_assignments(g, x, counter)),
                             None)
                assert out.found == (first is not None)
                if out.found:
                    assert {v: s.mask for v, s in out.labeling.assignment.items()} == first
                if min_degree_two:
                    ruled_out += 1
                    assert first is None
                    assert out.nodes_explored == counter[0] == 0
                    after = _families_by_open_count.cache_info()
                    assert after.hits + after.misses == calls.hits + calls.misses
        # the empty graph, the two triangles and the 583 connected classes
        # of minimum degree >= 2 (1, 3, 11, 61 and 507 for n = 3..7)
        assert ruled_out == 8 * 585

    def test_too_many_vertices_skip_the_table(self):
        # n >= 2^|X| vertices cannot take distinct non-empty subsets of X
        for g, x in ((path(4), X01), (star(7), X012), (path(8), X012)):
            calls = _families_by_open_count.cache_info()
            counter = [0]
            assert list(iter_top_iasl_assignments(g, x, counter)) == []
            assert counter[0] == 0
            after = _families_by_open_count.cache_info()
            assert after.hits + after.misses == calls.hits + calls.misses

    def test_edge_sums_stay_inside_ground_set(self):
        for g in (path(2), path(3), star(3)):
            out = search_top_iasl(g, X012)
            if out.found:
                for u, w in g.edge_names():
                    s = out.labeling.assignment[u] + out.labeling.assignment[w]
                    assert not s.mask & ~X012.mask


class TestTopIaslCore:
    # (nodes, solutions) of every top-IASL labeling of the connected graphs
    # with at most six vertices; without the capacity rule the core walked
    # 3457, 2987 and 188313 nodes for the same solutions
    TOTALS = {(0, 1, 2): (446, 145), (0, 1, 3): (328, 123),
              (0, 2, 3, 5): (9707, 3403)}

    @pytest.mark.parametrize("ground", sorted(TOTALS),
                             ids=lambda g: ",".join(map(str, g)))
    def test_totals_and_topologies_over_small_graphs(self, ground):
        x = GroundSet(ground)
        tops = enumerate_topologies(x)
        counter = [0]
        solutions = 0
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n, dedup=True):
                for t, masks in iter_top_iasl_assignments(g, x, counter):
                    assert t in tops
                    assert set(masks.values()) == set(t.open_masks) - {0}
                    solutions += 1
        assert (counter[0], solutions) == self.TOTALS[ground]

    @pytest.mark.parametrize("ground, max_n", [((0, 1, 3), 6), ((0, 2, 3, 5), 5)],
                             ids=["0,1,3", "0,2,3,5"])
    def test_yield_order_matches_plain_permutations(self, ground, max_n):
        # topologies in canonical order, then bijections in lexicographic
        # order of open positions along the descending-degree vertex order
        from iasl_lab.intsets import sumset_mask
        x = GroundSet(ground)
        for n in range(1, max_n + 1):
            for g in enumerate_connected_graphs(n, dedup=True):
                order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
                expected = []
                for t in enumerate_topologies(x):
                    opens = [m for m in t.open_masks if m]
                    if len(opens) != n:
                        continue
                    for labels in permutations(opens):
                        f = dict(zip(order, labels))
                        if all(not sumset_mask(f[u], f[w]) & ~x.mask
                               for u, w in g.edge_names()):
                            expected.append((t, f))
                assert list(iter_top_iasl_assignments(g, x)) == expected


class TestTwinRuns:
    """The core fills the trailing run of pendant twins by permutation and
    keeps the stream, node counts included, of the loop that walks it."""

    # two hubs with three and two leaves: the twin run is the second hub's
    # two leaves, not all five
    TWO_HUBS = Graph(["h", "k", "a", "b", "c", "d", "e"],
                     [("h", "k"), ("h", "a"), ("h", "b"), ("h", "c"),
                      ("k", "d"), ("k", "e")])

    @pytest.mark.parametrize("ground", [(0, 1, 3), (0, 2, 3, 5), (0, 1, 2, 3)],
                             ids=lambda g: ",".join(map(str, g)))
    def test_stream_matches_the_walked_loop(self, ground):
        x = GroundSet(ground)
        graphs = [star(6), self.TWO_HUBS]
        for n in range(1, 7):
            graphs.extend(enumerate_connected_graphs(n, dedup=True))
        for g in graphs:
            assert (list(counted_stream(iter_top_iasl_assignments, g, x))
                    == list(counted_stream(looped_top_iasl_assignments, g, x)))

    def test_two_hubs_fill_only_the_last_hub_leaves(self):
        order, earlier, _degrees = _search_order(self.TWO_HUBS)
        assert order == ["h", "k", "a", "b", "c", "d", "e"]
        assert earlier[2:] == [[0], [0], [0], [1], [1]]
        stream = list(counted_stream(iter_top_iasl_assignments, self.TWO_HUBS,
                                     GroundSet((0, 1, 2, 3))))
        assert (len(stream) - 1, stream[-1]) == (648, 4786)

    # (found, nodes_explored) per mode of search.SEARCHES, the first top-IASL
    # labeling in vertex order, and the yields, final counter and a digest of
    # (opens, labels, counter) at every yield of iter_top_iasl_assignments;
    # the loop places an edgeless graph's first vertex, the fill the rest
    PINNED = {
        ("K1", (0, 1)): (((False, 0), (True, 1), (False, 0)), (3,), 1, 1, "2e58a0e054f6ab07"),
        ("K1", (0, 1, 2)): (((False, 0), (True, 1), (False, 0)), (7,), 1, 1, "241b5089234fb4d6"),
        ("K1", (0, 1, 2, 3)): (((False, 0), (True, 1), (False, 0)), (15,), 1, 1, "2d711d223868c643"),
        ("2K1", (0, 1)): (((False, 0), (True, 2), (False, 0)), (1, 3), 4, 8, "d717fab296d55ea1"),
        ("2K1", (0, 1, 2)): (((False, 0), (True, 2), (False, 0)), (1, 7), 12, 24, "60ab858d298c54d6"),
        ("2K1", (0, 1, 2, 3)): (((False, 0), (True, 2), (False, 0)), (1, 15), 28, 56, "e0ced766facab6c9"),
        ("3K1", (0, 1)): (((False, 0), (True, 3), (False, 0)), (1, 2, 3), 6, 15, "379e6fab8b128416"),
        ("3K1", (0, 1, 2)): (((False, 0), (True, 3), (False, 0)), (1, 3, 7), 54, 135, "8d1f7530ee766268"),
        ("3K1", (0, 1, 2, 3)): (((False, 0), (True, 3), (False, 0)), (1, 3, 15), 258, 645, "f0547e9412102282"),
        ("4K1", (0, 1)): (((False, 0), (False, 0), (False, 0)), None, 0, 0, "e3b0c44298fc1c14"),
        ("4K1", (0, 1, 2)): (((False, 0), (True, 4), (False, 0)), (1, 2, 3, 7), 144, 384, "2f220b00b658a622"),
        ("4K1", (0, 1, 2, 3)): (((False, 0), (True, 4), (False, 0)), (1, 2, 3, 15), 1440, 3840, "fb9415258a617b26"),
        ("K2+K1", (0, 1)): (((False, 0), (True, 3), (False, 0)), (1, 2, 3), 4, 11, "517dea44d14b8e54"),
        ("K2+K1", (0, 1, 2)): (((False, 0), (True, 3), (False, 0)), (1, 3, 7), 14, 39, "7d615963b639897f"),
        ("K2+K1", (0, 1, 2, 3)): (((False, 0), (True, 3), (False, 0)), (1, 3, 15), 36, 101, "df8f154e5a3dc667"),
        ("K2+2K1", (0, 1)): (((False, 0), (False, 0), (False, 0)), None, 0, 0, "e3b0c44298fc1c14"),
        ("K2+2K1", (0, 1, 2)): (((False, 0), (True, 4), (False, 0)), (1, 2, 3, 7), 44, 124, "d95b4f70b75bc902"),
        ("K2+2K1", (0, 1, 2, 3)): (((False, 0), (True, 4), (False, 0)), (1, 2, 3, 15), 256, 727, "f12aa4b43c66c376"),
        ("K1,3+K2", (0, 1)): (((False, 0), (False, 0), (False, 0)), None, 0, 0, "e3b0c44298fc1c14"),
        ("K1,3+K2", (0, 1, 2)): (((False, 0), (False, 0), (False, 0)), None, 0, 0, "e3b0c44298fc1c14"),
        ("K1,3+K2", (0, 1, 2, 3)): (((False, 0), (True, 22), (False, 0)), (1, 2, 5, 15, 3, 7), 336, 5359, "571d5adfe4e0ad42"),
    }
    GRAPHS = {
        "K1": Graph(["a"], []),
        "2K1": Graph(["a", "b"], []),
        "3K1": Graph(["a", "b", "c"], []),
        "4K1": Graph(["a", "b", "c", "d"], []),
        "K2+K1": Graph(["a", "b", "c"], [("a", "b")]),
        "K2+2K1": Graph(["a", "b", "c", "d"], [("a", "b")]),
        "K1,3+K2": Graph(["c", "l1", "l2", "l3", "u", "w"],
                         [("c", "l1"), ("c", "l2"), ("c", "l3"), ("u", "w")]),
    }

    @pytest.mark.parametrize("name, ground", sorted(PINNED),
                             ids=[f"{name}-{','.join(map(str, ground))}"
                                  for name, ground in sorted(PINNED)])
    def test_disconnected_graphs_are_pinned(self, name, ground):
        g, x = self.GRAPHS[name], GroundSet(ground)
        modes = tuple((out.found, out.nodes_explored)
                      for out in (run(g, x) for run in search.SEARCHES.values()))
        first = search_top_iasl(g, x)
        labels = (tuple(first.labeling.assignment[v].mask for v in g.vertices)
                  if first.found else None)
        digest = hashlib.sha256()
        yields = 0
        counter = [0]
        for t, masks in iter_top_iasl_assignments(g, x, counter):
            digest.update(repr((t.open_masks, [masks[v] for v in g.vertices],
                                counter[0])).encode())
            yields += 1
        assert (modes, labels, yields, counter[0],
                digest.hexdigest()[:16]) == self.PINNED[name, ground]
        assert (list(counted_stream(iter_top_iasl_assignments, g, x))
                == list(counted_stream(looped_top_iasl_assignments, g, x)))

    def test_top_x4_scope(self):
        # the benchmark's top-x4 pass: every class with 2-7 vertices over
        # {0,1,2,3}; K1,6 alone gives 19,440 labelings through 52,839 nodes
        x = GroundSet((0, 1, 2, 3))
        counter = [0]
        labelings = sum(1 for n in range(2, 8)
                        for g in enumerate_connected_graphs(n, dedup=True)
                        for _ in iter_top_iasl_assignments(g, x, counter))
        assert (labelings, counter[0]) == (35946, 170321)
        counter = [0]
        assert sum(1 for _ in iter_top_iasl_assignments(star(6), x, counter)) == 19440
        assert counter[0] == 52839

    def test_twin_run_is_walked_lazily(self):
        # 14 leaves take the 14 opens left by the hub: listing their 14!
        # orders first would not end
        out = search_top_iasl(star(14), GroundSet((0, 1, 2, 3)))
        assert out.found and out.nodes_explored == 15

    def test_concurrent_searches_share_one_table(self, monkeypatch):
        # two threads that build the (X, 6) table at once, each waiting for
        # the other at its first two capacity calls, both get the whole
        # stream, and so does a later search that reads the cached table
        x = GroundSet((0, 1, 2, 3))
        g = star(5)

        def stream():
            return [(t.open_masks, [masks[v] for v in g.vertices])
                    for t, masks in iter_top_iasl_assignments(g, x)]

        _capacity_table.cache_clear()
        reference = stream()
        barrier = threading.Barrier(2, timeout=10)
        local = threading.local()

        def meeting(x, family):
            local.calls = getattr(local, "calls", 0) + 1
            if local.calls <= 2:
                barrier.wait()
            return _capacities(x, family)

        monkeypatch.setattr(search, "_capacities", meeting)
        _capacity_table.cache_clear()
        try:
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(stream) for _ in range(2)]
                streams = [f.result(timeout=60) for f in futures]
            assert streams == [reference, reference]
            assert stream() == reference
        finally:
            _capacity_table.cache_clear()


class TestIasglCore:
    # (nodes, solutions) of every set-graceful labeling of the connected
    # graphs with at most seven vertices; without the capacity rule the core
    # walked 4852, 4230 and 37483 nodes for the same solutions, and without
    # the zero-degree floor 2089, 1957 and 374
    TOTALS = {(0, 1, 2): (2079, 732), (0, 1, 3): (1957, 720),
              (0, 1, 2, 3): (0, 0)}

    @pytest.mark.parametrize("ground", sorted(TOTALS),
                             ids=lambda g: ",".join(map(str, g)))
    def test_totals_over_small_graphs(self, ground):
        x = GroundSet(ground)
        counter = [0]
        solutions = 0
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n, dedup=True):
                for masks in iter_iasgl_assignments(g, x, counter):
                    f = Labeling(x, {v: IntSet.from_mask(m) for v, m in masks.items()})
                    assert verify_iasgl(g, f).verdict
                    solutions += 1
        assert (counter[0], solutions) == self.TOTALS[ground]

    def test_yield_order_matches_plain_permutations(self):
        # injective assignments in lexicographic order of canonical subset
        # positions along the descending-degree vertex order; the edge count
        # must be 2^|X| - 2 for any of them to be graceful
        from iasl_lab.intsets import ZERO_MASK, sumset_mask
        x = GroundSet((0, 1, 3))
        subs = x.subset_masks()
        required = set(subs) - {ZERO_MASK}
        graphs = solutions = 0
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n, dedup=True):
                if g.m != len(required):
                    assert list(iter_iasgl_assignments(g, x)) == []
                    continue
                order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
                expected = []
                for labels in permutations(subs, n):
                    f = dict(zip(order, labels))
                    if {sumset_mask(f[u], f[w]) for u, w in g.edge_names()} == required:
                        expected.append(f)
                assert list(iter_iasgl_assignments(g, x)) == expected
                graphs += 1
                solutions += len(expected)
        assert (graphs, solutions) == (30, 720)

    def test_deep_graph_not_found_after_fixed_node_count(self):
        # beta({0,...,4}) = 14 exceeds the maximum degree of every deep
        # graph (10, 8 and 6), so the core reads no node
        x = GroundSet(range(5))
        for p in sorted(DEEP_DIR.glob("*.edges")):
            g = parse_graph(p.read_text(encoding="utf-8"))
            out = search_iasgl(g, x)
            assert not out.found
            assert out.nodes_explored == 0
            assert not out.screen.zero_degree_floor_ok


class TestCapacityRule:
    """The capacity rule (``search._domains``) prunes only dead branches."""

    GROUNDS = [GroundSet((0,) + c) for r in range(4)
               for c in combinations((1, 2, 3), r)]

    @staticmethod
    def capacities(labels, x):
        # per label, the other labels of the family whose sum with it stays in X
        return {a: sum(1 for b in labels
                       if b != a and not sumset_mask(a, b) & ~x.mask)
                for a in labels}

    def test_cores_yield_what_the_unpruned_core_yields(self):
        # the same sequence, in the same order, on the empty graph and every
        # connected class with at most six vertices, over every X that
        # contains 0 inside {0,1,2,3}; every unpruned solution keeps each
        # vertex's degree within its label's capacity
        graphs = [Graph([], [])]
        for n in range(1, 7):
            graphs.extend(enumerate_connected_graphs(n, dedup=True))
        for x in self.GROUNDS:
            every = self.capacities(x.subset_masks(), x)
            per_topology = {}
            for g in graphs:
                degrees = g.degrees()
                graceful = list(unpruned_iasgl_assignments(g, x))
                assert list(iter_iasgl_assignments(g, x)) == graceful
                for masks in graceful:
                    assert all(degrees[v] <= every[a] for v, a in masks.items())
                topological = list(unpruned_top_iasl_assignments(g, x))
                assert list(iter_top_iasl_assignments(g, x)) == topological
                for t, masks in topological:
                    if t not in per_topology:
                        per_topology[t] = self.capacities(set(masks.values()), x)
                    cap = per_topology[t]
                    assert all(degrees[v] <= cap[a] for v, a in masks.items())

    def test_fitting_families_are_the_families_that_fit(self):
        # the families of the open count whose own capacities hold the
        # degrees, each with its own at_least, in table order, for every
        # degree sequence of the connected classes with 2-7 vertices
        sequences = {tuple(_search_order(g)[2]) for n in range(2, 8)
                     for g in enumerate_connected_graphs(n, dedup=True)}
        for x in self.GROUNDS:
            table = _families_by_open_count(x.size)
            for degrees in map(list, sorted(sequences)):
                fitting = [(f, _capacities(x, f)[1])
                           for f in table.get(len(degrees), ())
                           if _fits(degrees, _capacities(x, f)[0])]
                assert list(_fitting_families(x, degrees)) == fitting

    def test_deep_graphs_have_no_graceful_labeling_unpruned(self):
        x = GroundSet(range(5))
        for path in sorted(DEEP_DIR.glob("*.edges")):
            g = parse_graph(path.read_text(encoding="utf-8"))
            assert list(iter_iasgl_assignments(g, x)) == []
            counter = [0]
            assert list(unpruned_iasgl_assignments(g, x, counter)) == []
            assert counter[0] > 0


class TestZeroDegreeFloor:
    """The zero-degree floor: the {0}-vertex has degree ≥ beta(X)."""

    GROUNDS = [GroundSet((0,) + c) for r in range(1, 4)
               for c in combinations((1, 2, 3), r)]

    def test_every_graceful_solution_meets_the_floor(self):
        ctx = OracleScope(7, self.GROUNDS)
        solutions = 0
        for g, x in ctx.pairs():
            beta = classify(x).zero_degree_floor
            for sol in ctx.iasgl_solutions(g, x):
                zero = [v for v, m in sol.items() if m == ZERO_MASK]
                assert len(zero) == 1
                assert g.degree(zero[0]) >= beta
                assert g.n >= 1 + beta
                solutions += 1
        assert solutions == 2178

    def test_core_yields_what_the_unpruned_core_yields(self):
        # the same sequence, in the same order, on every connected class
        # with at most seven vertices; over {0,1,2,3} (beta = 8) the floor
        # leaves the core no node where the unpruned core walks 37,483
        graphs = [g for n in range(1, 8)
                  for g in enumerate_connected_graphs(n, dedup=True)]
        for x in self.GROUNDS:
            for g in graphs:
                assert (list(iter_iasgl_assignments(g, x))
                        == list(unpruned_iasgl_assignments(g, x)))


class TestSearchTopIasgl:
    def test_full_star(self):
        out = search_top_iasgl(star(6), X012)
        assert out.found
        assert verify_top_iasgl(star(6), out.labeling).verdict

    def test_k4_not_found(self):
        assert not search_top_iasgl(complete(4), X012).found

    def test_implication_to_components(self):
        # a topological-graceful labeling implies both component searches succeed
        for g in (star(2), star(6)):
            for x in (X01, X012):
                combined = search_top_iasgl(g, x)
                if combined.found:
                    assert search_iasgl(g, x).found
                    assert search_top_iasl(g, x).found

    def test_graceful_star_plus_edge_is_not_topological(self):
        g = parse_graph("c l1\nc l2\nc l3\nc l4\nc l5\nl1 l3\n")
        assert search_iasgl(g, X012).found
        assert not search_top_iasgl(g, X012).found

    def test_only_the_star_among_trees_on_seven(self):
        from iasl_lab import enumerate_trees, structure
        found = [t for t in enumerate_trees(7)
                 if search_top_iasgl(t, X012).found]
        assert len(found) == 1
        assert structure(found[0]).is_star


class TestCompletenessAtCaps:
    def test_matches_unpruned_brute_force(self):
        # every connected graph on <= 6 vertices: the pruned search and the
        # unpruned assignment sweep must agree exactly; over X = {0} no edge
        # label is required, so the empty and the one-vertex graph qualify
        for g in (Graph([], []), *enumerate_connected_graphs(1)):
            for x in (X0, X01, X012):
                assert search_iasgl(g, x).found == brute_force_iasgl_exists(g, x)
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n, dedup=True):
                assert search_iasgl(g, X0).found == brute_force_iasgl_exists(g, X0)
                assert search_iasgl(g, X012).found == brute_force_iasgl_exists(g, X012)
                if n <= 5:
                    assert search_iasgl(g, X01).found == brute_force_iasgl_exists(g, X01)

    def test_brute_force_agrees_with_the_verifier(self):
        # spot-check that the mask-level sweep and verify_iasgl judge complete
        # assignments identically
        for g in enumerate_connected_graphs(3, dedup=True):
            subs = all_nonempty_subsets(X012)
            hits_verifier = any(
                verify_iasgl(g, Labeling(X012, dict(zip(g.vertices, combo)))).verdict
                for combo in permutations(subs, g.n))
            assert hits_verifier == brute_force_iasgl_exists(g, X012)

    def test_screen_never_rejects_a_labelable_graph(self):
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n, dedup=True):
                if brute_force_iasgl_exists(g, X012):
                    assert screen(g, X012, "iasgl").admissible()


class TestPendantFloorSoundness:
    def test_forced_pendants_meet_the_floor_on_every_candidate_ground_set(self):
        # The screen skips a search when a graph has fewer than |X| - 1
        # pendants. Justification, checked here over every ground set that
        # minimal_ground_set can reach: a subset A != {0} whose non-trivial
        # decompositions are all diagonal (B == C, unusable with distinct
        # vertex labels) must label a vertex adjacent to the {0}-vertex, and
        # if A is additionally not a non-trivial summand that vertex can have
        # no other neighbor. Counting such A always reaches |X| - 1.
        from itertools import combinations

        def forced_pendants(ground):
            elems = sorted(ground)
            subs = [frozenset(c) for r in range(1, len(elems) + 1)
                    for c in combinations(elems, r)]
            zero = frozenset({0})
            summands = set()
            decomps = {}
            for i, b in enumerate(subs):
                for c in subs[i:]:
                    if b == zero or c == zero:
                        continue
                    s = frozenset(p + q for p in b for q in c)
                    if s <= ground:
                        decomps.setdefault(s, []).append((b, c))
                        summands.add(b)
                        summands.add(c)
            return sum(
                1 for a in subs
                if a != zero
                and not any(b != c for b, c in decomps.get(a, []))
                and a not in summands)

        for size in range(2, 6):
            for combo in combinations(range(1, 11), size - 1):
                ground = frozenset({0}) | frozenset(combo)
                assert forced_pendants(ground) >= len(ground) - 1


# the 14 graphs of scripts/smallest_ground_sets.py
TABULATED_GRAPHS = ([star(k) for k in (1, 2, 3, 6, 14)]
                    + [path(n) for n in (2, 3, 4, 5)]
                    + [cycle(n) for n in (3, 4, 6)]
                    + [complete(4), complete_bipartite(2, 3)])


def unskipped_minimal_ground_set(g, mode, element_bound):
    """The first ground set, by cardinality, then max element, then
    lexicographic, at which the mode's search succeeds, searching at every
    candidate."""
    candidates = [(0,) + rest for size in range(1, DEFAULT_GROUND_CAP + 1)
                  for rest in combinations(range(1, element_bound + 1), size - 1)]
    for cand in sorted(candidates, key=lambda c: (len(c), c[-1], c)):
        if search.SEARCHES[mode](g, GroundSet(cand)).found:
            return GroundSet(cand)
    return None


class TestSumsetTableInvariance:
    def test_searches_read_x_only_through_its_table(self):
        # up to three ground sets inside {0,...,10} for each of the 9 sumset
        # tables with |X| = 3 or 4: verdict, node count and the first-found
        # labeling as subset positions agree within every table
        by_table = {}
        for size in (3, 4):
            for rest in combinations(range(1, 11), size - 1):
                x = GroundSet((0,) + rest)
                grounds = by_table.setdefault(_sum_bits(x), [])
                if len(grounds) < 3:
                    grounds.append(x)
        assert len(by_table) == 9
        graphs = [g for n in range(2, 7)
                  for g in enumerate_connected_graphs(n, dedup=True)]
        graphs += [star(6), star(14)]
        compared = 0
        for grounds in by_table.values():
            for g in graphs:
                for mode, find in search.SEARCHES.items():
                    seen = set()
                    for x in grounds:
                        out = find(g, x)
                        positions = None if out.labeling is None else tuple(
                            (v, x.subset_masks().index(s.mask))
                            for v, s in sorted(out.labeling.assignment.items()))
                        seen.add((out.found, out.nodes_explored, positions))
                    assert len(seen) == 1, (mode, grounds, g.edge_names())
                    compared += 1
        assert compared == 9 * 144 * 3


class TestMinimalGroundSet:
    @pytest.mark.parametrize("bound", [6, 10])
    def test_table_skip_keeps_every_answer(self, bound):
        for g in TABULATED_GRAPHS:
            for mode in search.SEARCHES:
                assert (minimal_ground_set(g, mode, bound)
                        == unskipped_minimal_ground_set(g, mode, bound))

    def test_one_search_per_failed_table(self, monkeypatch):
        # no 3-, 4- or 5-element ground set inside {0,...,10} labels K6 plus
        # a pendant topologically; 375 candidates, but 2 + 7 + 37 tables
        k6 = complete(6)
        g = Graph(list(k6.vertices) + ["p"],
                  list(k6.edge_names()) + [(k6.vertices[0], "p")])
        calls = []
        top_iasl = search.SEARCHES["top_iasl"]

        def counted(g, x):
            calls.append(x)
            return top_iasl(g, x)

        monkeypatch.setitem(search.SEARCHES, "top_iasl", counted)
        assert minimal_ground_set(g, "top_iasl") is None
        assert len(calls) == len({_sum_bits(x) for x in calls}) == 46

    def test_small_star(self):
        assert str(minimal_ground_set(star(2), "iasgl")) == "{0,1}"

    def test_full_star_topological(self):
        x = minimal_ground_set(star(6), "top_iasgl")
        assert str(x) == "{0,1,2}"

    def test_k2_has_none(self):
        assert minimal_ground_set(path(2), "iasgl") is None

    def test_top_iasgl_is_not_held_to_the_topology_cap(self):
        # 30 edges = 2^5 - 2, so only 5-element ground sets can fit; the
        # mode filters the graceful core and never reads the topology table
        x = minimal_ground_set(star(30), "top_iasgl")
        assert str(x) == "{0,1,2,3,4}"
        assert search_top_iasgl(star(30), x).found
        # nor is top_iasl: the ground-set cap is the one size bound
        for g in (star(30), path(8)):
            assert str(minimal_ground_set(g, "top_iasl")) == "{0,1,2,3,4}"

    def test_k2_top_iasl(self):
        assert str(minimal_ground_set(path(2), "top_iasl")) == "{0,1}"

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            minimal_ground_set(star(2), "bogus")

    def test_element_bound_cap(self):
        with pytest.raises(ValueError):
            minimal_ground_set(star(2), "iasgl", element_bound=11)
        with pytest.raises(ValueError):
            minimal_ground_set(star(2), "iasgl", element_bound=-1)

    def test_zero_element_bound_tries_only_zero(self):
        single = Graph(["v"], [])
        assert str(minimal_ground_set(single, "top_iasl", element_bound=0)) == "{0}"
        assert minimal_ground_set(path(2), "top_iasl", element_bound=0) is None

    def test_found_set_is_minimal_in_order(self):
        # the 14-leaf star needs a 4-element ground set; {0,1,2,3} comes first
        x = minimal_ground_set(star(14), "iasgl")
        assert str(x) == "{0,1,2,3}"


class TestSoundness:
    def test_every_found_labeling_verifies(self):
        cases = []
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n, dedup=True):
                cases.append((g, X012))
        for g, x in cases:
            out = search_iasgl(g, x)
            if out.found:
                assert verify_iasgl(g, out.labeling).verdict
            out = search_top_iasl(g, x)
            if out.found:
                assert verify_top_iasl(g, out.labeling).verdict
            out = search_top_iasgl(g, x)
            if out.found:
                assert verify_top_iasgl(g, out.labeling).verdict
