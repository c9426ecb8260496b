"""Topology axioms, enumeration, star realisation, and topological verifiers."""

from itertools import combinations

import pytest

from iasl_lab import (DegenerateTopologyError, GroundSet, IntSet, Labeling,
                      NotRealizableError, Topology, TopologyParseError,
                      enumerate_topologies, is_topology, parse_graph,
                      parse_labeling, parse_topology, realize_topology,
                      verify_top_iasgl, verify_top_iasl)
from iasl_lab.topology import _families, closed_family

# topologies on an n-element set, n = 1..5 (OEIS A000798)
TOPOLOGY_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}

# SHA-256 of repr(_families(k)), each recorded from an independent build:
# for k <= 4 a brute force over all 2^(2^k - 2) families, for k = 5 a
# least-open-set build that tested each set against its points' least open
# sets one point at a time
FAMILY_SHA256 = {
    1: "28cb03b06c288e88c6a880eeba293bf9c9bb9fa586128586459a486a511f832f",
    2: "ebec466c93cdf15f194dcf25ff2b491fd6a809f44c7d9853ff6eeb195265b3f8",
    3: "2462d4bb65771f4e76ad3cfa118d2f9e9113f7c1173babba9da4aed3b156ee01",
    4: "105dcaf1027775d9b5ccdb9f3914bb632d5e4a614951da927845a930461809ce",
    5: "3d79ffee03aca66f18da8e7029a1cf8c1d9db3986c6a907b401ac2282f86b58d",
}


def sets(*families):
    return [IntSet(f) for f in families]


def brute_topologies(ground: frozenset):
    """Independent enumeration on plain frozensets, closure checked textbook-style."""
    elems = sorted(ground)
    proper = [frozenset(c) for r in range(1, len(elems))
              for c in combinations(elems, r)]
    out = []
    for choice in range(1 << len(proper)):
        family = {frozenset(), ground}
        for i, s in enumerate(proper):
            if choice >> i & 1:
                family.add(s)
        ok = all(a | b in family and a & b in family
                 for a in family for b in family)
        if ok:
            out.append(frozenset(family))
    return set(out)


class TestIsTopology:
    def test_chain(self):
        x = GroundSet((0, 1))
        assert is_topology(sets((), (0,), (0, 1)), x).ok

    def test_missing_union(self):
        x = GroundSet((0, 1))
        check = is_topology(sets((), (0,), (1,)), x)
        assert not check.ok

    def test_union_witness(self):
        x = GroundSet((0, 1, 2))
        check = is_topology(sets((), (0,), (1,), (0, 1, 2)), x)
        assert not check.ok
        a, b, op, res = check.witness
        assert op == "union"
        assert (a | b) == res

    def test_intersection_witness(self):
        x = GroundSet((0, 1, 2))
        check = is_topology(sets((), (0, 1), (1, 2), (0, 1, 2)), x)
        assert check.reason == "not closed under intersection"
        assert check.witness == (IntSet((0, 1)), IntSet((1, 2)), "intersection",
                                 IntSet((1,)))

    def test_first_gap_in_canonical_order(self):
        # {0}∪{1}, {0}∪{2} and {1}∪{2} are all missing; whatever order the
        # family comes in, the first pair in canonical order is reported
        x = GroundSet((0, 1, 2))
        check = is_topology(sets((0, 1, 2), (2,), (1,), (), (0,)), x)
        assert check.detail() == ("not closed under union: union of {0} and {1} "
                                  "is {0,1}, which is missing")

    def test_closed_family_agrees_with_is_topology(self):
        x = GroundSet((0, 1, 2))
        subsets = [0] + list(x.subset_masks())
        for choice in range(1 << len(subsets)):
            family = [m for i, m in enumerate(subsets) if choice >> i & 1]
            with_empty = sets(()) + [IntSet.from_mask(m) for m in family]
            assert closed_family(family, x.mask) == is_topology(with_empty, x).ok

    def test_discrete(self):
        x = GroundSet((0, 1, 2))
        from iasl_lab import all_nonempty_subsets
        family = [IntSet(())] + all_nonempty_subsets(x)
        assert is_topology(family, x).ok

    def test_member_outside_ground(self):
        with pytest.raises(ValueError):
            is_topology(sets((), (5,)), GroundSet((0, 1)))


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts(self, n):
        x = GroundSet(tuple(range(n)))
        assert len(enumerate_topologies(x)) == TOPOLOGY_COUNTS[n]

    @pytest.mark.parametrize("k", sorted(FAMILY_SHA256))
    def test_table_is_pinned(self, k):
        import hashlib
        digest = hashlib.sha256(repr(_families(k)).encode()).hexdigest()
        assert digest == FAMILY_SHA256[k]

    def test_five_point_families_are_distinct_closed_and_hold_x(self):
        masks = GroundSet(tuple(range(5))).subset_masks()
        families = _families(5)
        assert len(set(families)) == len(families) == TOPOLOGY_COUNTS[5]
        for fam in families:
            assert fam >> (len(masks) - 1) & 1  # X's position is the last
            assert closed_family([masks[p] for p in range(len(masks)) if fam >> p & 1],
                                 masks[-1])

    @pytest.mark.parametrize("ground", [(0, 1), (0, 1, 2), (0, 2, 5)],
                             ids=["2", "3", "0,2,5"])
    def test_matches_independent_enumeration(self, ground):
        ground = frozenset(ground)
        expected = brute_topologies(ground)
        got = {frozenset(frozenset(s.elements) for s in t.opens)
               for t in enumerate_topologies(GroundSet(ground))}
        assert got == expected

    @pytest.mark.parametrize("ground", [(0, 2, 5), (0, 1, 3, 4)],
                             ids=lambda g: ",".join(map(str, g)))
    def test_relabels_the_topologies_on_the_first_naturals(self, ground):
        base = enumerate_topologies(GroundSet(tuple(range(len(ground)))))
        expected = [[IntSet(ground[e] for e in s) for s in t.opens]
                    for t in base]
        got = enumerate_topologies(GroundSet(ground))
        assert all(t.ground == GroundSet(ground) for t in got)
        assert [list(t.opens) for t in got] == expected

    def test_zero_singleton_filter(self):
        x = GroundSet((0, 1))
        tops = enumerate_topologies(x, require_zero_singleton=True)
        assert len(tops) == 2
        families = [[str(s) for s in t.opens] for t in tops]
        assert ["{}", "{0}", "{0,1}"] in families
        assert ["{}", "{0}", "{1}", "{0,1}"] in families

    def test_cap(self):
        # the ground-set cap is the only one: five elements enumerate and
        # search, six are refused when the ground set is built
        from iasl_lab import (EnumerationInfeasible, iter_top_iasl_assignments,
                              search_top_iasl, star)
        x5 = GroundSet((0, 1, 2, 3, 4))
        assert len(enumerate_topologies(x5)) == TOPOLOGY_COUNTS[5]
        assert list(iter_top_iasl_assignments(star(3), x5))
        assert search_top_iasl(star(3), x5).found
        with pytest.raises(EnumerationInfeasible,
                           match="ground set has 6 elements, cap is 5"):
            GroundSet((0, 1, 2, 3, 4, 5))

    def test_every_family_satisfies_axioms(self):
        x = GroundSet((0, 1, 2))
        for t in enumerate_topologies(x):
            assert is_topology(list(t.opens), x).ok


class TestRealize:
    def test_chain_topology(self):
        t = Topology.from_family(sets((), (0,), (0, 1), (0, 1, 2)))
        g, f = realize_topology(t)
        assert g.n == 3 and g.m == 2
        assert str(f.assignment["c"]) == "{0}"
        leaf_labels = {str(f.assignment[v]) for v in g.vertices if v != "c"}
        assert leaf_labels == {"{0,1}", "{0,1,2}"}
        assert verify_top_iasl(g, f).verdict

    def test_discrete_two_element(self):
        t = Topology.from_family(sets((), (0,), (1,), (0, 1)))
        g, f = realize_topology(t)
        assert g.n == 3 and g.m == 2
        assert verify_top_iasl(g, f).verdict
        assert verify_top_iasgl(g, f).verdict  # this one is also set-graceful

    def test_three_open_topology_gives_single_edge(self):
        t = Topology.from_family(sets((), (0,), (0, 1)))
        g, f = realize_topology(t)
        assert g.n == 2 and g.m == 1
        assert str(f.assignment["p1"]) == "{0,1}"
        assert verify_top_iasl(g, f).verdict

    def test_rejects_missing_zero_singleton(self):
        t = Topology.from_family(sets((), (1,), (0, 1)))
        with pytest.raises(NotRealizableError):
            realize_topology(t)

    def test_rejects_indiscrete(self):
        t = Topology.from_family(sets((), (0, 1)))
        with pytest.raises(DegenerateTopologyError):
            realize_topology(t)

    def test_every_zero_topology_realises(self):
        for n in (2, 3, 4):
            x = GroundSet(tuple(range(n)))
            for t in enumerate_topologies(x, require_zero_singleton=True):
                if len(t.opens) < 3:
                    continue
                g, f = realize_topology(t)
                assert verify_top_iasl(g, f).verdict
                family = {s.mask for s in f.assignment.values()}
                assert family == {m for m in t.open_masks if m != 0}


class TestTopologyFile:
    def test_parse_and_round_trip(self):
        t = parse_topology("∅\n{0}\n{0,1}\n")
        assert [str(s) for s in t.opens] == ["{}", "{0}", "{0,1}"]
        assert parse_topology(t.emit()).opens == t.opens

    def test_infers_ground_from_union(self):
        t = parse_topology("{}\n{0}\n{0,2}\n")
        assert str(t.ground) == "{0,2}"

    def test_bad_literal(self):
        with pytest.raises(TopologyParseError) as err:
            parse_topology("{}\n{zz}\n")
        assert err.value.line == 2

    def test_empty_file(self):
        with pytest.raises(TopologyParseError):
            parse_topology("\n")

    def test_rejects_non_topology_family(self):
        with pytest.raises(ValueError, match="union"):
            parse_topology("{}\n{0}\n{1}\n{0,1,2}\n")
        with pytest.raises(ValueError, match="empty set"):
            parse_topology("{0}\n{0,1}\n")


class TestVerifyTopIasl:
    def test_discrete_family_other_center(self):
        # vertex labels {1}, {0}, {0,1}: the family plus ∅ is the whole power
        # set, a topology, but the edge sum {1} + {0,1} escapes X
        g = parse_graph("c l1\nc l2\n")
        f = parse_labeling("X {0,1}\nc {1}\nl1 {0}\nl2 {0,1}\n")
        report = verify_top_iasl(g, f)
        assert [(v.kind, v.where, v.detail) for v in report.violations] == [
            ("not-a-subset", "c l2", "edge label {1,2} is not a subset of X = {0,1}")]
        assert not report.verdict

    def test_triangle_verifier_and_search_agree(self):
        # {0}, {1}, {0,1} make a topology on {0,1}, but the edge
        # {1} + {0,1} = {1,2} leaves X, and the search keeps every edge in X
        from iasl_lab import complete, search_top_iasl
        g = complete(3)
        f = Labeling(GroundSet((0, 1)), dict(zip(g.vertices, sets((0,), (1,), (0, 1)))))
        report = verify_top_iasl(g, f)
        assert [(v.kind, v.where) for v in report.violations] == [("not-a-subset", "v2 v3")]
        assert not report.verdict
        assert not search_top_iasl(g, GroundSet((0, 1))).found

    def test_missing_ground_set_in_image(self):
        g = parse_graph("a b\n")
        f = parse_labeling("X {0,1}\na {0}\nb {1}\n")
        report = verify_top_iasl(g, f)
        assert not report.verdict
        assert any(v.kind == "not-a-topology" for v in report.violations)

    def test_verdict_includes_iasl_requirements(self):
        g = parse_graph("a b\n")
        f = Labeling(GroundSet((0, 1)), {"a": IntSet((0,)), "b": IntSet((0,))})
        assert not verify_top_iasl(g, f).verdict

    def test_label_outside_ground_set_reports_not_raises(self):
        g = parse_graph("a b\n")
        f = Labeling(GroundSet((0, 1)), {"a": IntSet((0,)), "b": IntSet((3,))})
        report = verify_top_iasl(g, f)
        assert not report.verdict
        assert any(v.kind == "not-a-subset" for v in report.violations)


class TestVerifyTopIasgl:
    def test_small_star(self):
        g = parse_graph("c l1\nc l2\n")
        f = parse_labeling("X {0,1}\nc {0}\nl1 {1}\nl2 {0,1}\n")
        assert verify_top_iasgl(g, f).verdict

    def test_full_star(self):
        lines = ["X {0,1,2}", "c {0}", "l1 {1}", "l2 {2}", "l3 {0,1}",
                 "l4 {0,2}", "l5 {1,2}", "l6 {0,1,2}"]
        g = parse_graph("\n".join(f"c l{i}" for i in range(1, 7)) + "\n")
        f = parse_labeling("\n".join(lines) + "\n")
        assert verify_top_iasgl(g, f).verdict

    def test_graceful_but_not_topological(self):
        # star plus one leaf-leaf edge: covers the image but the family is
        # not closed under union ({1} ∪ {2} missing)
        g = parse_graph("c l1\nc l2\nc l3\nc l4\nc l5\nl1 l3\n")
        f = parse_labeling("X {0,1,2}\nc {0}\nl1 {1}\nl2 {2}\nl3 {0,1}\n"
                           "l4 {0,2}\nl5 {0,1,2}\n")
        from iasl_lab import verify_iasgl
        assert verify_iasgl(g, f).verdict
        report = verify_top_iasgl(g, f)
        assert not report.verdict
        assert any(v.kind == "not-a-topology" for v in report.violations)
