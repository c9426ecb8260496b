"""The theorem-checking suite: statuses, witnesses, and determinism."""

from collections import Counter

import pytest

from iasl_lab import (GroundSet, ORACLE_CHECKS, OracleScope,
                      iter_top_iasgl_assignments, path, run_all, run_oracle,
                      suite_clean, verify_iasgl)
from iasl_lab.oracle import Witness

X01 = GroundSet((0, 1))
X012 = GroundSet((0, 1, 2))


@pytest.fixture(scope="module")
def reports():
    return run_all(5, [X01, X012])


class TestRegistry:
    def test_sixteen_checks(self):
        assert len(ORACLE_CHECKS) == 16

    def test_expected_ids(self):
        assert list(ORACLE_CHECKS) == [
            "P1", "P2", "P3", "P4", "T-even", "T-char", "T-tree", "T-toppend",
            "T-maxel", "T-disc", "T-real", "T-treq", "T-acyc", "T-reg",
            "T-nsc", "T-discgl"]

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_oracle("T-nope", 4, [X01])

    def test_caps(self):
        # graph enumeration caps the vertices; the ground sets have only the
        # GroundSet cap of five elements
        from iasl_lab import EnumerationInfeasible
        with pytest.raises(EnumerationInfeasible):
            run_oracle("P1", 8, [X01])
        with pytest.raises(EnumerationInfeasible):
            run_oracle("P1", 4, [GroundSet(range(6))])
        assert suite_clean(run_all(5, [GroundSet((0, 1, 2, 3))]))


class TestRunAll:
    def test_empty_ground_sets(self):
        assert run_all(5, []) == []
        assert run_all(0, []) == []

    @pytest.mark.parametrize("max_vertices", [0, -1])
    def test_empty_vertex_scope_is_rejected(self, max_vertices):
        with pytest.raises(ValueError):
            run_all(max_vertices, [X01])
        with pytest.raises(ValueError):
            run_oracle("P1", max_vertices, [X01])

    def test_repeated_ground_set_is_rejected(self):
        with pytest.raises(ValueError):
            run_all(4, [X012, X01, GroundSet((0, 1, 2))])
        with pytest.raises(ValueError):
            run_oracle("T-tree", 4, [X01, X01])

    def test_report_count_and_order(self, reports):
        assert [r.theorem_id for r in reports] == list(ORACLE_CHECKS)

    def test_suite_clean(self, reports):
        assert suite_clean(reports)

    def test_nonconfirmed_checks_are_documented(self, reports):
        for r in reports:
            if r.holds != "confirmed":
                assert r.documented

    def test_counterexamples_carry_witnesses(self, reports):
        for r in reports:
            if r.holds in ("counterexample", "mixed"):
                assert r.witnesses

    def test_trivial_graph_scope(self):
        # with a single vertex there is nothing to label gracefully, so every
        # check comes back vacuously confirmed
        reports = run_all(1, [X01])
        assert len(reports) == 16
        assert all(r.holds == "confirmed" for r in reports)


class TestKnownOutcomes:
    def test_p3_counterexample_on_small_star(self, reports):
        # at this scope every graceful labeling lives on the 2-leaf star over
        # {0,1}, and each one refutes the claimed neighbor count
        p3 = next(r for r in reports if r.theorem_id == "P3")
        assert p3.holds == "counterexample"
        assert p3.documented
        assert any("demands 3" in w.detail for w in p3.witnesses)

    def test_p3_mixed_once_larger_instances_appear(self):
        p3 = run_oracle("P3", 6, [X01, X012])
        assert p3.holds == "mixed"

    def test_p3_alone_over_x01_is_pure_counterexample(self):
        p3 = run_oracle("P3", 5, [X01])
        assert p3.holds == "counterexample"
        assert p3.witnesses

    def test_real_confirmed(self, reports):
        t = next(r for r in reports if r.theorem_id == "T-real")
        assert t.holds == "confirmed"
        assert t.instances_checked == 14  # 2 topologies with {0} on X01, 12 on X012

    def test_reg_confirmed(self, reports):
        t = next(r for r in reports if r.theorem_id == "T-reg")
        assert t.holds == "confirmed"
        assert t.instances_checked > 0

    def test_nsc_reading_adjudication(self, reports):
        t = next(r for r in reports if r.theorem_id == "T-nsc")
        by_label = {f.label: f for f in t.findings}
        assert by_label["c-reading-statement"].status == "supported"
        assert by_label["c-reading-proof"].status == "counterexample"
        assert by_label["c-reading-proof"].witnesses

    def test_acyclic_literal_reading_refuted(self, reports):
        t = next(r for r in reports if r.theorem_id == "T-acyc")
        assert t.holds == "confirmed"
        finding = next(f for f in t.findings if f.label == "acyclic-literal-exponent")
        assert finding.status == "counterexample"

    def test_tree_star_exclusivity_at_seven(self):
        t = run_oracle("T-tree", 7, [X012])
        assert t.holds == "confirmed"
        assert t.instances_checked == 25  # all trees on 1..7 vertices

    def test_tree_equivalence_at_seven(self):
        t = run_oracle("T-treq", 7, [X012])
        assert t.holds == "confirmed"
        # the 6-leaf star admits 720 labelings (one per leaf arrangement)
        info = next(f for f in t.findings if f.label == "tree-iasgl-topological")
        assert info.detail.startswith("720/720")

    def test_acyclic_star_shape_at_seven(self):
        t = run_oracle("T-acyc", 7, [X012])
        assert t.holds == "confirmed"


@pytest.fixture(scope="module")
def counted_seven():
    """The reports at seven vertices and how many labelings they built."""
    built = []
    labeling = OracleScope.labeling
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OracleScope, "labeling", staticmethod(
            lambda x, sol: built.append(sol) or labeling(x, sol)))
        reports = run_all(7, [X01, X012])
    return reports, len(built)


class TestReadingWitnesses:
    def test_only_reported_labelings_are_built(self, counted_seven):
        reports, built = counted_seven
        witnesses = [w for r in reports for w in r.witnesses] + [
            w for r in reports for f in r.findings for w in f.witnesses]
        assert built == len(witnesses) == 28

    def test_a_reading_finding_carries_at_most_three_witnesses(self, counted_seven):
        reports, _ = counted_seven
        findings = [f for r in reports for f in r.findings]
        # T-char's b-nonempty reading misses on all 734 instances
        assert max(len(f.witnesses) for f in findings) == 3


class TestScreenLookup:
    def test_t_nsc_screens_through_the_search_module(self, monkeypatch):
        # instrumentation that wraps search.screen sees the oracle's calls
        from iasl_lab import search
        calls = []
        screen = search.screen
        monkeypatch.setattr(search, "screen",
                            lambda g, x, mode: calls.append((g, x)) or screen(g, x, mode))
        run_oracle("T-nsc", 7, [X01, X012])
        assert len(calls) == 2


class TestSolutionCaches:
    def test_each_core_runs_once_per_instance(self, monkeypatch):
        from iasl_lab import oracle
        runs = Counter()
        for name in ("iter_iasgl_assignments", "iter_top_iasl_assignments"):
            core = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda g, x, name=name, core=core:
                                runs.update([(name, g, x)]) or core(g, x))
        run_all(7, [X01, X012])
        assert max(runs.values()) == 1
        assert {name for name, _g, _x in runs} == {
            "iter_iasgl_assignments", "iter_top_iasl_assignments"}

    def test_top_iasgl_filter_matches_the_search(self):
        scope = OracleScope(6, [X01, X012])
        for g, x in scope.pairs():
            assert scope.top_iasgl_solutions(g, x) == tuple(
                iter_top_iasgl_assignments(g, x))

    def test_top_iasgl_solutions_are_graceful_objects_in_order(self):
        # T-treq reads "topological" off this tuple by identity
        scope = OracleScope(7, [X01, X012])
        for g, x in scope.pairs():
            graceful = iter(scope.iasgl_solutions(g, x))
            assert all(any(sol is top for sol in graceful)
                       for top in scope.top_iasgl_solutions(g, x))

    def test_each_graceful_solution_is_closure_checked_once(self, monkeypatch,
                                                            capsys):
        from iasl_lab import cli, oracle, search
        checked = []
        closed_family = search.closed_family
        monkeypatch.setattr(search, "closed_family", lambda masks, xmask:
                            checked.append(xmask) or closed_family(masks, xmask))
        assert cli.main(["oracle", "all", "--max-vertices", "7", "--json"]) == 0
        capsys.readouterr()
        # one check per graceful solution in scope, all in search.keep_topological
        assert len(checked) == 734
        assert not hasattr(oracle, "closed_family")


class TestWitnessesReverify:
    def test_p3_witnesses_are_real_labelings(self, reports):
        # the counterexample witnesses must themselves be verifying labelings:
        # the claim fails on genuine instances, not on junk
        p3 = next(r for r in reports if r.theorem_id == "P3")
        for w in p3.witnesses:
            assert w.labeling is not None
            assert verify_iasgl(w.graph, w.labeling).verdict


class TestDeterminism:
    def test_reports_byte_identical(self):
        import json
        a = json.dumps([r.to_json() for r in run_all(4, [X01, X012])])
        b = json.dumps([r.to_json() for r in run_all(4, [X01, X012])])
        assert a == b

    def test_witness_without_a_labeling_is_null(self):
        # T-even's witness carries no labeling
        assert Witness(path(2), None, "odd edge count 1").to_json() == {
            "graph": {"vertices": ["v1", "v2"], "edges": [["v1", "v2"]]},
            "labeling": None, "detail": "odd edge count 1"}

    def test_report_json_shape(self, reports):
        payload = reports[0].to_json()
        assert set(payload) == {"id", "description", "scope", "instances_checked",
                                "holds", "documented", "witnesses", "findings"}
        assert payload["scope"] == {"max_vertices": 5,
                                    "ground_sets": ["{0,1}", "{0,1,2}"]}
