"""Labeling container, induced edge map, and the class verifiers."""

import pytest

from iasl_lab import (GroundSet, IncompleteLabelingError, IntSet, Labeling,
                      LabelingParseError, induced_edge_labels, parse_graph,
                      parse_labeling, path, set_indexing_numbers, star,
                      sumset, verify_iasgl, verify_iasi, verify_iasl,
                      verify_top_iasgl, verify_top_iasl, verify_uniform)


def mk(ground, **labels):
    return Labeling(GroundSet(ground), {v: IntSet(s) for v, s in labels.items()})


def kinds(report):
    return [v.kind for v in report.violations]


class TestLabelingFile:
    TEXT = "X {0,1}\nc {0}\nl1 {1}\nl2 {0,1}\n"

    def test_parse(self):
        f = parse_labeling(self.TEXT)
        assert str(f.ground) == "{0,1}"
        assert str(f.assignment["l2"]) == "{0,1}"

    def test_round_trip(self):
        f = parse_labeling(self.TEXT)
        again = parse_labeling(f.emit())
        assert again.ground == f.ground
        assert again.assignment == f.assignment

    def test_missing_header(self):
        with pytest.raises(LabelingParseError):
            parse_labeling("c {0}\n")

    def test_duplicate_vertex(self):
        with pytest.raises(LabelingParseError) as err:
            parse_labeling("X {0,1}\nc {0}\nc {1}\n")
        assert err.value.line == 3

    def test_comments_tolerated(self):
        f = parse_labeling("# header\nX {0,1}\nc {0} # center\n")
        assert str(f.assignment["c"]) == "{0}"


class TestInducedEdgeLabels:
    def test_zero_center_star(self):
        g = star(1)
        f = mk((0, 1), c=(0,), l1=(1,))
        assert induced_edge_labels(g, f)[("c", "l1")] == IntSet((1,))

    def test_pairwise_sums(self):
        g = parse_graph("a b\n")
        f = mk((0, 1), a=(1,), b=(0, 1))
        assert induced_edge_labels(g, f)[("a", "b")] == IntSet((1, 2))

    def test_unlabeled_vertex(self):
        g = parse_graph("a b\n")
        f = mk((0, 1), a=(1,))
        with pytest.raises(IncompleteLabelingError):
            induced_edge_labels(g, f)

    def test_empty_label(self):
        g = parse_graph("a b\n")
        f = mk((0, 1), a=(1,), b=())
        with pytest.raises(ValueError, match="touches an empty label"):
            induced_edge_labels(g, f)


class TestVerifyIasl:
    def test_valid_star(self):
        g = star(2)
        f = mk((0, 1), c=(0,), l1=(1,), l2=(0, 1))
        assert verify_iasl(g, f).verdict

    def test_injectivity_violation(self):
        g = parse_graph("a b\n")
        f = mk((0, 1), a=(1,), b=(1,))
        report = verify_iasl(g, f)
        assert not report.verdict
        assert kinds(report) == ["injectivity"]

    def test_label_outside_ground_set(self):
        g = parse_graph("a b\n")
        f = mk((0, 1), a=(0,), b=(3,), )
        # rebuild with a wider max so the IntSet itself is constructible
        f = Labeling(GroundSet((0, 1)), {"a": IntSet((0,)), "b": IntSet((3,))})
        report = verify_iasl(g, f)
        assert not report.verdict
        assert "not-a-subset" in kinds(report)

    def test_empty_label(self):
        g = parse_graph("a b\n")
        f = Labeling(GroundSet((0, 1)), {"a": IntSet(()), "b": IntSet((1,))})
        assert "empty-label" in kinds(verify_iasl(g, f))

    def test_unlabeled_and_unknown(self):
        g = parse_graph("a b\n")
        f = mk((0, 1), a=(0,), z=(1,))
        got = kinds(verify_iasl(g, f))
        assert "unlabeled-vertex" in got
        assert "unknown-vertex" in got

    def test_edge_sums_may_leave_ground_set(self):
        # plain set-labelings only constrain the vertex labels
        g = parse_graph("a b\n")
        f = mk((0, 1), a=(1,), b=(0, 1))
        assert verify_iasl(g, f).verdict


class TestVerifyIasi:
    def test_distinct_edge_labels(self):
        g = star(2)
        f = mk((0, 1), c=(0,), l1=(1,), l2=(0, 1))
        assert verify_iasi(g, f).verdict

    def test_path_example(self):
        g = parse_graph("a b\nb c\n")
        f = mk((0, 1), a=(1,), b=(0,), c=(0, 1))
        assert verify_iasi(g, f).verdict

    def test_triangle_depends_on_ground_set(self):
        g = parse_graph("a b\nb c\nc a\n")
        labels = dict(a=(0,), b=(1,), c=(0, 1))
        assert verify_iasi(g, mk((0, 1, 2), **labels)).verdict
        # over X = {0,1} the edge b-c sums to {1,2}, outside P(X)
        report = verify_iasi(g, mk((0, 1), **labels))
        assert not report.verdict
        assert "not-a-subset" in kinds(report)

    def test_repeated_edge_label(self):
        g = parse_graph("a b\nc b\nc d\n")
        f = mk((0, 1, 2), a=(1,), b=(0,), c=(0, 1), d=(1, 2))
        # edges: {1}, {0,1}, {1,2,3}? no: c+d = {0,1}+{1,2} = {1,2,3} escapes X
        report = verify_iasi(g, f)
        assert not report.verdict

    def test_duplicate_edge_sums(self):
        g = parse_graph("a b\nb c\n")
        f = mk((0, 1, 2), a=(1,), b=(0,), c=(1,))
        report = verify_iasi(g, f)
        assert "injectivity" in kinds(report)  # duplicate vertex labels too
        f2 = mk((0, 1, 2), a=(1, 2), b=(0,), c=(0, 1, 2))
        # edges {1,2} and {0,1,2}: distinct, fine
        assert verify_iasi(g, f2).verdict


class TestVerifyUniform:
    def test_singletons_are_one_uniform(self):
        g = path(3)
        f = mk((0, 1, 2, 3, 4), v1=(0,), v2=(1,), v3=(2,))
        assert verify_uniform(g, f, 1).verdict

    def test_two_uniform_star(self):
        g = star(2)
        f = mk((0, 1, 2, 3, 4), c=(0, 1), l1=(2,), l2=(3,))
        assert verify_uniform(g, f, 2).verdict

    def test_not_uniform(self):
        g = star(2)
        f = mk((0, 1), c=(0,), l1=(1,), l2=(0, 1))
        report = verify_uniform(g, f, 1)
        assert not report.verdict
        assert "bad-edge-size" in kinds(report)
        assert not verify_uniform(g, f, 2).verdict

    def test_rejects_bad_degree(self):
        g = star(1)
        f = mk((0, 1), c=(0,), l1=(1,))
        with pytest.raises(ValueError):
            verify_uniform(g, f, 0)


class TestSetIndexingNumbers:
    def test_numbers(self):
        g = star(2)
        f = mk((0, 1, 2, 3, 4), c=(0, 2), l1=(0,), l2=(0, 1))
        rep = set_indexing_numbers(g, f)
        assert rep.vertex_numbers["c"] == 2
        assert rep.edge_numbers[("c", "l1")] == 2  # {0,2}+{0} = {0,2}
        assert rep.edge_numbers[("c", "l2")] == 4  # {0,2}+{0,1} = {0,1,2,3}
        assert rep.mono_indexed_vertices == ("l1",)

    def test_mono_indexed_edge(self):
        g = star(1)
        f = mk((0, 1, 2, 3, 4), c=(0,), l1=(4,))
        rep = set_indexing_numbers(g, f)
        assert rep.edge_numbers[("c", "l1")] == 1
        assert rep.mono_indexed_edges == (("c", "l1"),)

    def test_requires_valid_iasl(self):
        g = parse_graph("a b\n")
        f = mk((0, 1), a=(1,), b=(1,))
        with pytest.raises(ValueError):
            set_indexing_numbers(g, f)


class TestVerifyIasgl:
    def test_small_star(self):
        g = star(2)
        f = mk((0, 1), c=(0,), l1=(1,), l2=(0, 1))
        assert verify_iasgl(g, f).verdict

    def test_full_star(self):
        g = star(6)
        x = GroundSet((0, 1, 2))
        subsets = [IntSet((1,)), IntSet((2,)), IntSet((0, 1)), IntSet((0, 2)),
                   IntSet((1, 2)), IntSet((0, 1, 2))]
        f = Labeling(x, {"c": IntSet((0,)),
                         **{f"l{i + 1}": s for i, s in enumerate(subsets)}})
        assert verify_iasgl(g, f).verdict

    def test_missing_image(self):
        g = star(2)
        f = mk((0, 1, 2), c=(0,), l1=(1,), l2=(0, 1))
        report = verify_iasgl(g, f)
        assert not report.verdict
        assert "bad-edge-count" in kinds(report)
        assert "missing-edge-image" in kinds(report)

    def test_edge_label_out_of_range(self):
        g = parse_graph("a b\nb c\n")
        f = mk((0, 1), a=(1,), b=(0, 1), c=(0,))
        report = verify_iasgl(g, f)
        assert "extra-edge-image" in kinds(report)

    def test_wrong_edge_count_alone_fails(self):
        # a 7-edge graph can cover the whole required image with one repeat,
        # but the edge-label map is then not injective; rejected via the count
        g = parse_graph("c l1\nc l2\nc l3\nc l4\nc l5\nc l6\nl1 l3\n")
        x = GroundSet((0, 1, 2))
        f = Labeling(x, {"c": IntSet((0,)), "l1": IntSet((1,)),
                         "l2": IntSet((2,)), "l3": IntSet((0, 1)),
                         "l4": IntSet((0, 2)), "l5": IntSet((1, 2)),
                         "l6": IntSet((0, 1, 2))})
        report = verify_iasgl(g, f)
        assert not report.verdict
        assert kinds(report) == ["bad-edge-count"]

    def test_report_json_shape(self):
        g = star(2)
        f = mk((0, 1), c=(0,), l1=(1,), l2=(0, 1))
        payload = verify_iasgl(g, f).to_json()
        assert payload == {"verdict": True, "violations": []}

    def test_four_cycle_never_verifies(self):
        # 4 edges misses 2^|X| - 2 for every |X|, so no assignment can pass
        from itertools import permutations
        from iasl_lab import all_nonempty_subsets, cycle
        g = cycle(4)
        for elems in [(0, 1), (0, 1, 2)]:
            x = GroundSet(elems)
            subs = all_nonempty_subsets(x)
            for combo in permutations(subs, min(g.n, len(subs))):
                if len(combo) < g.n:
                    break
                f = Labeling(x, dict(zip(g.vertices, combo)))
                assert not verify_iasgl(g, f).verdict


class TestAdjacencyBound:
    def test_contained_sum_bounds_the_maxima(self):
        # whenever an edge sumset stays inside X, the endpoint maxima sum to
        # at most max(X); exhaustively over subset pairs of a few ground sets
        for elems in [(0, 1), (0, 1, 2), (0, 2, 5)]:
            x = GroundSet(elems)
            top = x.max_element
            from iasl_lab import all_nonempty_subsets
            subs = all_nonempty_subsets(x)
            for a in subs:
                for b in subs:
                    s = sumset(a, b)
                    if not s.mask & ~x.mask:
                        assert a.max() + b.max() <= top


VERIFIERS = {"iasl": verify_iasl, "iasi": verify_iasi,
             "uniform:1": lambda g, f: verify_uniform(g, f, 1),
             "uniform:2": lambda g, f: verify_uniform(g, f, 2),
             "iasgl": verify_iasgl, "top-iasl": verify_top_iasl,
             "top-iasgl": verify_top_iasgl}
UNEXPLAINED = "required subset never appears as an edge label"
MISSING_X012 = [("missing-edge-image", m, UNEXPLAINED)
                for m in ("{1}", "{2}", "{0,1}", "{0,2}", "{1,2}", "{0,1,2}")]
BIG_EDGE = "edge label {0,1,2,3}"
NOT_CLOSED = ("not-a-topology", "labeling",
              "not closed under intersection: intersection of {0,1} and "
              "{0,2} is {0}, which is missing")
EDGE_FAULTS_GRACEFUL = [
    ("bad-edge-count", "graph",
     "2 edges, but a set-graceful labeling over |X| = 3 needs 6"),
    ("extra-edge-image", "v1 v2", f"{BIG_EDGE} lies outside P(X) - {{∅, {{0}}}}"),
    ("extra-edge-image", "v2 v3", f"{BIG_EDGE} lies outside P(X) - {{∅, {{0}}}}"),
] + MISSING_X012
OUT_OF_X_GRACEFUL = [
    ("extra-edge-image", "c l2", "edge label {2} lies outside P(X) - {∅, {0}}"),
    ("missing-edge-image", "{0,1}", UNEXPLAINED)]

# Each case: the graph, the labeling, the IASL violations every class reports
# first, and each class's own violations after them (none when not listed).
PIPELINE_CASES = {
    # no usable labels: the class rules get no edges, only the edge count shows
    "unusable": (
        path(4),
        Labeling(GroundSet((0, 1, 2)), {"v2": IntSet(()), "v3": IntSet((3,)),
                                        "v4": IntSet((3,)), "ghost": IntSet((1,))}),
        [("unlabeled-vertex", "v1", "vertex has no label"),
         ("unknown-vertex", "ghost", "label for a vertex not in the graph"),
         ("empty-label", "v2", "labels must be non-empty"),
         ("not-a-subset", "v3", "{3} is not a subset of X = {0,1,2}"),
         ("not-a-subset", "v4", "{3} is not a subset of X = {0,1,2}"),
         ("injectivity", "v3,v4", "vertices share the label {3}")],
        {cls: [("bad-edge-count", "graph",
                "3 edges, but a set-graceful labeling over |X| = 3 needs 6")]
         for cls in ("iasgl", "top-iasgl")}),
    # every vertex labeled, one label empty: still no edges for the rules
    "empty-only": (
        star(2), mk((0, 1), c=(), l1=(1,), l2=(0, 1)),
        [("empty-label", "c", "labels must be non-empty")],
        {}),
    # a valid IASL whose two edges both carry {0,2}+{0,1} = {0,1,2}+{0,1}
    "edge-faults": (
        path(3), mk((0, 1, 2), v1=(0, 2), v2=(0, 1), v3=(0, 1, 2)),
        [],
        {"iasi": [("not-a-subset", "v1 v2", f"{BIG_EDGE} is not a subset of X = {{0,1,2}}"),
                  ("not-a-subset", "v2 v3", f"{BIG_EDGE} is not a subset of X = {{0,1,2}}"),
                  ("edge-image-not-injective", "v2 v3", f"{BIG_EDGE} already used by v1 v2")],
         "uniform:1": [("bad-edge-size", e, f"{BIG_EDGE} has 4 elements, expected 1")
                       for e in ("v1 v2", "v2 v3")],
         "uniform:2": [("bad-edge-size", e, f"{BIG_EDGE} has 4 elements, expected 2")
                       for e in ("v1 v2", "v2 v3")],
         "iasgl": EDGE_FAULTS_GRACEFUL,
         # f+ maps E(G) into P(X): each edge sum outside X is reported as
         # the IASI check reports it
         "top-iasl": [("not-a-subset", e, f"{BIG_EDGE} is not a subset of X = {{0,1,2}}")
                      for e in ("v1 v2", "v2 v3")] + [NOT_CLOSED],
         "top-iasgl": [NOT_CLOSED] + EDGE_FAULTS_GRACEFUL}),
    # a label outside X: the edge rules still run, the topology rule does not
    "out-of-x": (
        star(2), mk((0, 1), c=(0,), l1=(1,), l2=(2,)),
        [("not-a-subset", "l2", "{2} is not a subset of X = {0,1}")],
        {"iasi": [("not-a-subset", "c l2", "edge label {2} is not a subset of X = {0,1}")],
         "uniform:2": [("bad-edge-size", f"c {leaf}",
                        f"edge label {{{leaf[1]}}} has 1 elements, expected 2")
                       for leaf in ("l1", "l2")],
         "iasgl": OUT_OF_X_GRACEFUL,
         "top-iasgl": OUT_OF_X_GRACEFUL}),
    "graceful": (
        star(6), mk((0, 1, 2), c=(0,), l1=(1,), l2=(2,), l3=(0, 1), l4=(0, 2),
                    l5=(1, 2), l6=(0, 1, 2)),
        [],
        {"uniform:1": [("bad-edge-size", "c l3", "edge label {0,1} has 2 elements, expected 1"),
                       ("bad-edge-size", "c l4", "edge label {0,2} has 2 elements, expected 1"),
                       ("bad-edge-size", "c l5", "edge label {1,2} has 2 elements, expected 1"),
                       ("bad-edge-size", "c l6",
                        "edge label {0,1,2} has 3 elements, expected 1")],
         "uniform:2": [("bad-edge-size", "c l1", "edge label {1} has 1 elements, expected 2"),
                       ("bad-edge-size", "c l2", "edge label {2} has 1 elements, expected 2"),
                       ("bad-edge-size", "c l6",
                        "edge label {0,1,2} has 3 elements, expected 2")]}),
}


class TestVerificationPipeline:
    """Every class reports the IASL violations, then its own rules' violations
    in order: kinds, places, details and order are pinned."""

    @pytest.mark.parametrize("case", PIPELINE_CASES)
    @pytest.mark.parametrize("cls", VERIFIERS)
    def test_violation_lists(self, case, cls):
        g, f, iasl, own = PIPELINE_CASES[case]
        report = VERIFIERS[cls](g, f)
        expected = iasl + own.get(cls, [])
        assert [(v.kind, v.where, v.detail) for v in report.violations] == expected
        assert report.verdict == (not expected)

    def test_cases_reach_every_violation_kind(self):
        reached = {v[0] for _g, _f, iasl, own in PIPELINE_CASES.values()
                   for v in iasl + [v for vs in own.values() for v in vs]}
        assert reached == {
            "unlabeled-vertex", "unknown-vertex", "empty-label", "not-a-subset",
            "injectivity", "edge-image-not-injective", "bad-edge-size",
            "bad-edge-count", "extra-edge-image", "missing-edge-image",
            "not-a-topology"}
