"""The experiment scripts: integer options, bounds and exit codes."""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
LOOSE_INTEGERS = ["1_0", "+1", "\u0663"]  # 10, 1 and 3 to int()


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def census():
    return load("admissibility_census")


@pytest.fixture(scope="module")
def smallest():
    return load("smallest_ground_sets")


def run(capsys, script, *argv):
    code = script.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name, option", [("admissibility_census", "--max-vertices"),
                                          ("smallest_ground_sets", "--max-element")])
@pytest.mark.parametrize("text", LOOSE_INTEGERS + ["x"])
def test_loose_integer_exits_two(capsys, name, option, text):
    with pytest.raises(SystemExit) as exc:
        load(name).main([option, text])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert f"invalid integer value: {text!r}" in out.err


class TestCensus:
    @pytest.mark.parametrize("max_vertices", ["0", "-1", "8"])
    def test_vertex_bound_is_checked_before_the_census(self, capsys, census,
                                                       max_vertices):
        code, out, err = run(capsys, census, "--max-vertices", max_vertices)
        assert (code, out) == (2, "")
        assert err == f"error: --max-vertices must be 1 to 7, got {max_vertices}\n"

    @pytest.mark.parametrize("literal, message", [
        ("{0,1", "unbalanced braces"),
        ("{1,2}", "ground set must contain 0"),
        ("{0,1,2,3,4,5}", "ground set has 6 elements, cap is 5"),
    ])
    def test_bad_ground_set_exits_two(self, capsys, census, literal, message):
        code, out, err = run(capsys, census, "--max-vertices", "3",
                             "--ground-set", "{0,1}", "--ground-set", literal)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_small_census(self, capsys, census):
        code, out, err = run(capsys, census, "--max-vertices", "3",
                             "--ground-set", "{0,1}")
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert rows[1] == "=== ground set {0,1} ==="
        assert rows[3:9] == [" 1        1      0         1          0",
                             " 2        1      0         1          0",
                             " 3        2      1         1          1",
                             "          4      1         3          1  (totals)",
                             "graceful classes:",
                             "  n=3: star, degrees [2, 1, 1]"]
        assert re.fullmatch(r"total time: \d+\.\d ms", rows[-1])


class TestSmallestGroundSets:
    @pytest.mark.parametrize("max_element, message", [
        ("11", "element bound capped at 10"),
        ("-1", "element bound must be non-negative, got -1"),
    ])
    def test_element_bound_is_checked_before_the_table(self, capsys, smallest,
                                                       max_element, message):
        code, out, err = run(capsys, smallest, "--max-element", max_element)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_table(self, capsys, smallest):
        code, out, err = run(capsys, smallest)
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 17
        assert rows[5].split() == ["K_(1,14)", "{0,1,2,3}", "{0,1,2,3}", "{0,1,2,3}"]
        assert rows[9].split() == ["P_5", "-", "{0,1,2,3}", "-"]
        assert re.fullmatch(r"total time: \d+\.\d ms", rows[-1])


class TestClassAtlas:
    def test_committed_atlas_is_the_rendering(self):
        # fails when the class build or ENUMERATION_VERTEX_CAP changes
        # without the atlas being written again
        atlas = load("write_class_atlas")
        assert atlas.ATLAS.read_bytes() == atlas.render().encode("utf-8")
