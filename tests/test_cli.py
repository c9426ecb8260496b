"""Command-line interface: subcommands, exit codes, JSON schema, round trips."""

import json

import pytest

from iasl_lab import parse_graph, parse_labeling
from iasl_lab.cli import main

K12_GRAPH = "c l1\nc l2\n"
K12_LABELING = "X {0,1}\nc {0}\nl1 {1}\nl2 {0,1}\n"
C6_GRAPH = "v1 v2\nv2 v3\nv3 v4\nv4 v5\nv5 v6\nv6 v1\n"


@pytest.fixture
def k12(tmp_path):
    g = tmp_path / "g.txt"
    f = tmp_path / "f.txt"
    g.write_text(K12_GRAPH)
    f.write_text(K12_LABELING)
    return str(g), str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_iasgl_true(self, capsys, k12):
        g, f = k12
        code, out, _ = run(capsys, "verify", "--class", "iasgl", g, f)
        assert code == 0
        assert "verdict: true" in out

    def test_json_payload(self, capsys, k12):
        g, f = k12
        code, out, _ = run(capsys, "verify", "--class", "iasgl", g, f, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "iasl-lab/1"
        assert payload["verdict"] is True
        assert payload["violations"] == []

    def test_false_verdict_exits_one(self, capsys, tmp_path, k12):
        g, _ = k12
        f = tmp_path / "bad.txt"
        f.write_text("X {0,1}\nc {1}\nl1 {1}\nl2 {0,1}\n")
        code, out, _ = run(capsys, "verify", "--class", "iasgl", g, str(f))
        assert code == 1
        assert "injectivity" in out

    @pytest.mark.parametrize("cls", ["iasl", "iasi", "top-iasl", "top-iasgl",
                                     "uniform:1"])
    def test_all_classes_accepted(self, capsys, k12, cls):
        g, f = k12
        code, _, _ = run(capsys, "verify", "--class", cls, g, f)
        assert code in (0, 1)

    def test_uniform_without_degree(self, capsys, k12):
        g, f = k12
        code, _, err = run(capsys, "verify", "--class", "uniform", g, f)
        assert code == 2
        assert "error" in err

    def test_unknown_class(self, capsys, k12):
        g, f = k12
        code, _, _ = run(capsys, "verify", "--class", "rainbow", g, f)
        assert code == 2

    @pytest.mark.parametrize("cls, message", [
        ("rainbow", "unknown labeling class 'rainbow'"),
        ("uniform", "uniform class needs a degree, e.g. --class uniform:2"),
        ("uniform:x", "not an integer: 'x'"),
        ("uniform:0", "uniformity degree must be a positive integer"),
    ])
    def test_class_is_checked_before_any_file_is_read(self, capsys, tmp_path, cls,
                                                       message):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(capsys, "verify", "--class", cls, missing, missing)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_parse_error_reports_line(self, capsys, tmp_path, k12):
        _, f = k12
        bad = tmp_path / "bad.txt"
        bad.write_text("a b\na b\n")
        code, _, err = run(capsys, "verify", "--class", "iasl", str(bad), f)
        assert code == 2
        assert "line 2" in err


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", "{0,1,2}")
        assert code == 0
        assert "rho = 3" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "{0,1,2}", "--json")
        payload = json.loads(out)
        assert payload["rho"] == 3
        assert payload["rho_prime"] == 1
        assert payload["x_is_sumset"] is True
        by_set = {s["set"]: s for s in payload["subsets"]}
        assert by_set["{2}"]["nontrivial_sumset"] is True
        assert by_set["{2}"]["witness"] == ["{1}", "{1}"]

    def test_bare_literal(self, capsys):
        code, out, _ = run(capsys, "classify", "0,1", "--json")
        assert json.loads(out)["rho"] == 0


class TestSearch:
    def test_found(self, capsys, tmp_path):
        g = tmp_path / "k16.txt"
        g.write_text("\n".join(f"c l{i}" for i in range(1, 7)) + "\n")
        code, out, _ = run(capsys, "search", "--mode", "iasgl", str(g),
                           "{0,1,2}", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["found"] is True
        assert payload["labeling"]["assignment"]["c"] == "{0}"

    def test_not_found_exits_one(self, capsys, tmp_path):
        g = tmp_path / "c6.txt"
        g.write_text(C6_GRAPH)
        code, out, _ = run(capsys, "search", "--mode", "top-iasgl", str(g),
                           "{0,1,2}", "--json")
        payload = json.loads(out)
        assert code == 1
        assert payload["found"] is False
        assert payload["screen"]["pendant_floor_ok"] is False

    def test_unknown_mode(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text("a b\n")
        code, _, _ = run(capsys, "search", "--mode", "foo", str(g), "{0,1}")
        assert code == 2

    def test_text_mode_prints_labels(self, capsys, tmp_path):
        g = tmp_path / "k12.txt"
        g.write_text(K12_GRAPH)
        code, out, _ = run(capsys, "search", "--mode", "iasgl", str(g), "{0,1}")
        assert code == 0
        assert "found: yes" in out
        assert "{0}" in out


class TestRealize:
    TOPOLOGY = "∅\n{0}\n{0,1}\n{0,1,2}\n"

    def test_writes_files_that_reparse(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text(self.TOPOLOGY)
        og = tmp_path / "out_g.txt"
        of = tmp_path / "out_f.txt"
        code, _, _ = run(capsys, "realize", str(t), "--out-graph", str(og),
                         "--out-labeling", str(of))
        assert code == 0
        g = parse_graph(og.read_text())
        f = parse_labeling(of.read_text())
        assert g.n == 3 and g.m == 2
        assert str(f.assignment["c"]) == "{0}"
        # verify the emitted pair through the CLI as well
        code, out, _ = run(capsys, "verify", "--class", "top-iasl", str(og),
                           str(of))
        assert code == 0

    def test_json(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text(self.TOPOLOGY)
        code, out, _ = run(capsys, "realize", str(t), "--json")
        payload = json.loads(out)
        assert payload["graph"]["vertices"] == ["c", "p1", "p2"]
        assert payload["labeling"]["assignment"]["c"] == "{0}"

    def test_not_realizable(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text("∅\n{1}\n{0,1}\n")
        code, _, err = run(capsys, "realize", str(t))
        assert code == 2
        assert "{0}" in err

    def test_degenerate(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text("∅\n{0,1}\n")
        code, _, _ = run(capsys, "realize", str(t))
        assert code == 2

    def test_stdout_mode_sections_reparse(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text(self.TOPOLOGY)
        code, out, _ = run(capsys, "realize", str(t))
        assert code == 0
        graph_part, labeling_part = out.split("# labeling")
        g = parse_graph(graph_part)
        f = parse_labeling(labeling_part)
        assert g.n == 3
        assert str(f.assignment["c"]) == "{0}"


class TestEnumTopologies:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "enum-topologies", "{0,1,2}", "--count")
        assert code == 0
        assert out.strip() == "29"

    def test_with_zero(self, capsys):
        code, out, _ = run(capsys, "enum-topologies", "{0,1}", "--with-zero",
                           "--count")
        assert out.strip() == "2"

    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, "enum-topologies", "{0,1}")
        assert code == 0
        assert "4 topologies" in out
        assert "{} {0} {0,1}" in out

    def test_json_lists_opens(self, capsys):
        code, out, _ = run(capsys, "enum-topologies", "{0,1}", "--json")
        payload = json.loads(out)
        assert payload["count"] == 4
        assert {"opens": ["{}", "{0,1}"],
                "is_topology": True} in payload["topologies"]

    def test_five_elements(self, capsys):
        code, out, _ = run(capsys, "enum-topologies", "{0,1,2,3,4}", "--count")
        assert (code, out.strip()) == (0, "6942")

    def test_infeasible(self, capsys):
        # the ground-set cap refuses a sixth element
        code, out, err = run(capsys, "enum-topologies", "{0,1,2,3,4,5}")
        assert (code, out) == (2, "")
        assert "ground set has 6 elements, cap is 5" in err


class TestMinGroundSet:
    def test_found(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text(K12_GRAPH)
        code, out, _ = run(capsys, "min-ground-set", "--mode", "iasgl", str(g))
        assert code == 0
        assert out.strip() == "{0,1}"

    def test_none(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text("a b\n")
        code, out, _ = run(capsys, "min-ground-set", "--mode", "iasgl", str(g),
                           "--json")
        payload = json.loads(out)
        assert code == 1
        assert payload["found"] is False
        assert payload["ground"] is None

    def test_top_iasgl_over_five_elements(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text("".join(f"c l{i}\n" for i in range(1, 31)))
        code, out, _ = run(capsys, "min-ground-set", "--mode", "top-iasgl", str(g))
        assert (code, out.strip()) == (0, "{0,1,2,3,4}")

    @pytest.mark.parametrize("command", ["search", "min-ground-set"])
    @pytest.mark.parametrize("mode", ["top_iasl", "foo"])
    def test_one_table_of_mode_names(self, capsys, tmp_path, command, mode):
        g = tmp_path / "g.txt"
        g.write_text(K12_GRAPH)
        ground = ["{0,1}"] if command == "search" else []
        code, out, err = run(capsys, command, "--mode", mode, str(g), *ground)
        assert (code, out) == (2, "")
        assert f"unknown search mode {mode!r}, expected one of " \
               "iasgl, top-iasl, top-iasgl" in err

    def test_negative_element_bound_exits_two(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text(K12_GRAPH)
        code, out, err = run(capsys, "min-ground-set", "--mode", "iasgl",
                             "--max-element", "-3", str(g))
        assert (code, out) == (2, "")
        assert "element bound must be non-negative, got -3" in err

    def test_zero_element_bound(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text("v\n")
        code, out, _ = run(capsys, "min-ground-set", "--mode", "top-iasl",
                           "--max-element", "0", str(g))
        assert (code, out.strip()) == (0, "{0}")


class TestOracle:
    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "oracle", "T-real", "--max-vertices", "4",
                           "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["clean"] is True
        assert payload["reports"][0]["id"] == "T-real"

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "oracle", "all", "--max-vertices", "4")
        assert code == 0
        assert "suite clean" in out

    def test_custom_ground_set(self, capsys):
        code, out, _ = run(capsys, "oracle", "P1", "--max-vertices", "3",
                           "--ground-set", "{0,1}", "--json")
        payload = json.loads(out)
        assert payload["ground_sets"] == ["{0,1}"]

    def test_four_element_ground_set(self, capsys):
        code, out, _ = run(capsys, "oracle", "all", "--max-vertices", "5",
                           "--ground-set", "{0,1,2,3}", "--json")
        assert code == 0
        assert json.loads(out)["clean"] is True

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "oracle", "T-zzz", "--max-vertices", "3")
        assert code == 2
        assert "unknown theorem id" in err

    @pytest.mark.parametrize("max_vertices", ["0", "-1"])
    def test_empty_vertex_scope_exits_two(self, capsys, max_vertices):
        code, out, err = run(capsys, "oracle", "all", "--max-vertices", max_vertices)
        assert code == 2
        assert "suite clean" not in out
        assert err.startswith("error:")

    def test_repeated_ground_set_exits_two(self, capsys):
        code, out, err = run(capsys, "oracle", "all", "--max-vertices", "4",
                             "--ground-set", "{0,1,2}", "--ground-set", "{0,1,2}")
        assert code == 2
        assert "twice" in err

    def test_repeated_id_exits_two(self, capsys):
        code, out, err = run(capsys, "oracle", "P1", "T-real", "P1",
                             "--max-vertices", "4")
        assert code == 2
        assert out == ""
        assert "given twice" in err

    def test_named_checks_match_their_reports_in_all(self, capsys):
        ids = ["T-disc", "P1", "T-char", "T-real"]
        code, out, _ = run(capsys, "oracle", *ids, "--max-vertices", "5", "--json")
        assert code == 0
        named = json.loads(out)["reports"]
        _, out, _ = run(capsys, "oracle", "all", "--max-vertices", "5", "--json")
        every = {r["id"]: r for r in json.loads(out)["reports"]}
        assert named == [every[tid] for tid in ids]

    def test_named_checks_share_one_scope(self, capsys, monkeypatch):
        from iasl_lab import oracle
        scopes = []

        class Counted(oracle.OracleScope):
            def __init__(self, *args):
                super().__init__(*args)
                scopes.append(self)

        monkeypatch.setattr(oracle, "OracleScope", Counted)
        code, _, _ = run(capsys, "oracle", "P1", "P2", "T-tree", "--max-vertices", "4")
        assert code == 0
        assert len(scopes) == 1

    def test_benchmark_json_bytes_are_pinned(self, capsys):
        # the benchmark's digest: the default scope at seven vertices
        import hashlib
        code, out, _ = run(capsys, "oracle", "all", "--max-vertices", "7", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f0dfe93ff768a2ae00ca2f63574b20af0e3f05c453602207ce83b65d4ba711ef")

    def test_default_json_bytes_are_pinned(self, capsys):
        # the reports of the default scope at six vertices, byte for byte
        import hashlib
        code, out, _ = run(capsys, "oracle", "all", "--max-vertices", "6", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a415b362cf7028bdb39611b02863c9960e8420aa7cab778ad16620a35559c5d4")

    # at one and two vertices every reading tally is empty, so these pin the
    # findings of a reading that no labeling reached as well
    @pytest.mark.parametrize("scope, digest", [
        ("--max-vertices 1",
         "5b5a23d323ca34dca26c400be62be0bdacb1a95e6035f510d78a9c91085319b4"),
        ("--max-vertices 2",
         "6163f4a8595da29a193f5b2e717417533cffaeacc3d1824d24c60cd0f4acdb6e"),
        ("--max-vertices 3",
         "5f0c9eb8bdd6a2e5f79d44c2d18d5dd34821ee55dcac2f4b14965a9b3bbfed92"),
        ("--max-vertices 4",
         "ed8a292035fe3759a94a1b05e80d22def031ae4cfffc746cdfe17a95f6f99e6c"),
        ("--max-vertices 5",
         "a9aee1ba66e8fc96ee572ede7d1c27c63889ea6ee3155230a331d3dc090d3ade"),
        ("--max-vertices 6 --ground-set {0,1,3}",
         "2dc33e31b88cd404cd49a4b5cd1a9e00c4feed763802de15a52d5ee4381a03ce"),
        ("--max-vertices 5 --ground-set {0,1,2,3}",
         "1bd9a7d6c8b8721ebed2e1bc0bc7afb8ec22a49799cbdb5c94a481f47479457d"),
        # T-maxel judges 35,946 top-IASL solutions here, against 964 at the
        # default scope
        ("--max-vertices 7 --ground-set {0,1,2,3}",
         "88c8cc5db2762bba65ecdf4cfd8ccfc08f70606036c633cc926ec093ca7eafc3"),
    ])
    def test_other_scope_json_bytes_are_pinned(self, capsys, scope, digest):
        import hashlib
        code, out, _ = run(capsys, "oracle", "all", *scope.split(), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExitCodeContract:
    def test_verdict_and_exit_agree(self, capsys, k12, tmp_path):
        g, f = k12
        for cls in ("iasl", "iasgl", "top-iasl", "top-iasgl"):
            code, out, _ = run(capsys, "verify", "--class", cls, g, f, "--json")
            assert (code == 0) == json.loads(out)["verdict"]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "{0,1}")
        assert code == 0
        code, _, err = run(capsys, "verify", "--class", "iasl",
                           "/nonexistent/g.txt", "/nonexistent/f.txt")
        assert code == 2


LOOSE_LITERALS = ["{1_0}", "{+1}", "{\u0663}"]  # 10, 1 and 3 to int()
LOOSE_INTEGERS = ["1_0", "+1", "\u0663"]


class TestInputErrors:
    @pytest.mark.parametrize("literal", LOOSE_LITERALS)
    def test_loose_literal_argument_exits_two(self, capsys, literal):
        code, out, err = run(capsys, "classify", literal.replace("{", "{0,"))
        assert code == 2
        assert out == ""
        assert "bad set literal" in err

    @pytest.mark.parametrize("literal", LOOSE_LITERALS)
    def test_loose_literal_in_a_labeling_file(self, capsys, tmp_path, k12,
                                              literal):
        g, _ = k12
        f = tmp_path / "f.txt"
        f.write_text(f"X {{0,1,10}}\nc {{0}}\nl1 {literal}\nl2 {{0,1}}\n",
                     encoding="utf-8")
        code, _, err = run(capsys, "verify", "--class", "iasl", g, str(f))
        assert code == 2
        assert err.startswith("error: line 3: bad set literal")

    @pytest.mark.parametrize("literal", LOOSE_LITERALS)
    def test_loose_literal_in_a_topology_file(self, capsys, tmp_path, literal):
        t = tmp_path / "t.txt"
        t.write_text(f"∅\n{{0}}\n{literal}\n{{0,1}}\n", encoding="utf-8")
        code, out, err = run(capsys, "realize", str(t))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 3: bad set literal")

    def test_comment_only_topology_file_has_no_line(self, capsys, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text("# nothing here\n\n")
        code, _, err = run(capsys, "realize", str(t))
        assert code == 2
        assert err == "error: empty topology file\n"

    @pytest.mark.parametrize("text", LOOSE_INTEGERS)
    @pytest.mark.parametrize("option", ["--max-vertices", "--max-element"])
    def test_loose_integer_option_exits_two(self, capsys, tmp_path, option, text):
        g = tmp_path / "g.txt"
        g.write_text(K12_GRAPH)
        argv = (["oracle", "P1"] if option == "--max-vertices"
                else ["min-ground-set", "--mode", "iasgl", str(g)])
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, text])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == ""
        assert f"invalid integer value: {text!r}" in out.err

    @pytest.mark.parametrize("text", LOOSE_INTEGERS + ["x"])
    def test_loose_uniform_degree_exits_two(self, capsys, k12, text):
        g, f = k12
        code, out, err = run(capsys, "verify", "--class", f"uniform:{text}", g, f)
        assert (code, out) == (2, "")
        assert err == f"error: not an integer: {text!r}\n"

    def test_uniform_degree_out_of_range_keeps_the_library_message(self, capsys, k12):
        g, f = k12
        code, _, err = run(capsys, "verify", "--class", "uniform:0", g, f)
        assert code == 2
        assert err == "error: uniformity degree must be a positive integer\n"

    def test_missing_header_has_no_line(self, capsys, tmp_path, k12):
        g, _ = k12
        f = tmp_path / "f.txt"
        f.write_text("# no header\n")
        code, _, err = run(capsys, "verify", "--class", "iasl", g, str(f))
        assert code == 2
        assert err == "error: missing ground set header 'X {...}'\n"


class TestLineEnds:
    """Files reach the parsers as written: only "\\n" ends a line."""

    def test_lone_carriage_return_is_not_a_line_end(self, capsys, tmp_path):
        # as two lines, a b and b c would be a path with a labeling over {0,1}
        g = tmp_path / "g.txt"
        g.write_bytes(b"a b\rb c\n")
        code, out, err = run(capsys, "search", "--mode", "iasgl", str(g), "{0,1}")
        assert (code, out) == (2, "")
        assert err == "error: line 1: expected 1 or 2 tokens, got 4\n"

    def write_twins(self, tmp_path, name, text, twin):
        plain = tmp_path / f"{name}-plain.txt"
        other = tmp_path / f"{name}-twin.txt"
        plain.write_bytes(text.encode("utf-8"))
        other.write_bytes(twin(text.encode("utf-8")))
        return str(plain), str(other)

    def run_twins(self, capsys, tmp_path, command, twin):
        """The command's (code, stdout, stderr) on plain K1,2 input files and
        on their twins, whose bytes ``twin`` makes from the plain ones."""
        graph = self.write_twins(tmp_path, "g", K12_GRAPH, twin)
        labeling = self.write_twins(tmp_path, "f", K12_LABELING, twin)
        topology = self.write_twins(tmp_path, "t", TestRealize.TOPOLOGY, twin)
        results = []
        for side in (0, 1):
            argv = {"search": ["search", "--mode", "iasgl", graph[side], "{0,1}"],
                    "verify": ["verify", "--class", "iasgl", graph[side],
                               labeling[side]],
                    "realize": ["realize", topology[side]]}[command]
            results.append(run(capsys, *argv, "--json"))
        return results

    @pytest.mark.parametrize("command", ["search", "verify", "realize"])
    def test_crlf_file_reads_as_its_lf_twin(self, capsys, tmp_path, command):
        results = self.run_twins(capsys, tmp_path, command,
                                 lambda data: data.replace(b"\n", b"\r\n"))
        assert results[0] == results[1]
        assert results[0][0] == 0

    @pytest.mark.parametrize("command", ["search", "verify", "realize"])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, command):
        # a UTF-8 byte-order mark would otherwise start the first vertex name
        # or ground-set line
        results = self.run_twins(capsys, tmp_path, command,
                                 lambda data: b"\xef\xbb\xbf" + data)
        assert results[0] == results[1]
        assert results[0][0] == 0
