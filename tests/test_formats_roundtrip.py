"""Generated round-trip properties and the shared line rule of the three
file formats."""

import re

import pytest
from hypothesis import given, strategies as st

from iasl_lab import (Graph, GraphParseError, GroundSet, IntSet, Labeling,
                      LabelingParseError, ParseError, Topology,
                      TopologyParseError, all_nonempty_subsets,
                      enumerate_topologies, parse_graph, parse_labeling,
                      parse_topology)

names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


@st.composite
def graphs(draw):
    vs = draw(st.lists(names, min_size=1, max_size=8, unique=True))
    pairs = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) \
        if pairs else []
    return Graph(vs, chosen)


@st.composite
def labelings(draw):
    ground_elems = draw(st.frozensets(st.integers(min_value=1, max_value=9),
                                      max_size=4))
    x = GroundSet(frozenset({0}) | ground_elems)
    subs = all_nonempty_subsets(x)
    vs = draw(st.lists(names, min_size=1, max_size=min(6, len(subs)),
                       unique=True))
    chosen = draw(st.lists(st.sampled_from(subs), min_size=len(vs),
                           max_size=len(vs)))
    return Labeling(x, dict(zip(vs, chosen)))


@given(graphs())
def test_graph_emit_reparses_identically(g):
    assert parse_graph(g.emit()) == g


@given(labelings())
def test_labeling_emit_reparses_identically(f):
    again = parse_labeling(f.emit())
    assert again.ground == f.ground
    assert again.assignment == f.assignment


# names the text formats would change: whitespace splits a name into tokens,
# "#" starts a comment and an empty name is a blank line
UNWRITABLE_NAMES = ["a b", "#x", "#a", ""]


@pytest.mark.parametrize("name", UNWRITABLE_NAMES)
def test_graph_emit_refuses_a_name_it_cannot_carry(name):
    g = Graph(["u", name, "w #"], [("u", name)])
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        g.emit()


@pytest.mark.parametrize("name", UNWRITABLE_NAMES)
def test_labeling_emit_refuses_a_name_it_cannot_carry(name):
    f = Labeling(GroundSet((0, 1)), {"u": IntSet((0,)), name: IntSet((1,)),
                                     "w #": IntSet((0, 1))})
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        f.emit()


# names that are no strings, which Graph refuses where they enter
# (TestGraphInvariants); the atlas path skips that check
@pytest.mark.parametrize("name", [1, None, ("a",)])
def test_emit_refuses_a_non_string_name(name):
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        Graph._unchecked(("u", name), ((0, 1),)).emit()
    f = Labeling(GroundSet((0, 1)), {"u": IntSet((0,)), name: IntSet((1,))})
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        f.emit()


@given(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
def test_emit_reparses_identically_or_refuses(vs):
    g = Graph(vs, list(zip(vs, vs[1:])))
    try:
        text = g.emit()
    except ValueError:
        return
    assert parse_graph(text) == g
    x = GroundSet((0, 1, 2))
    f = Labeling(x, dict(zip(vs, all_nonempty_subsets(x))))
    again = parse_labeling(f.emit())
    assert again.assignment == f.assignment


@given(st.integers(min_value=1, max_value=4), st.data())
def test_topology_emit_reparses_identically(n, data):
    x = GroundSet(tuple(range(n)))
    tops = enumerate_topologies(x)
    t = data.draw(st.sampled_from(tops))
    again = parse_topology(t.emit())
    assert again.opens == t.opens
    assert again.ground == t.ground


@given(st.frozensets(st.integers(min_value=0, max_value=30), max_size=8))
def test_set_literal_round_trip(elems):
    s = IntSet(elems)
    assert IntSet.parse(str(s)) == s


# (parser, its error, three good lines, a bad line) per format
FORMATS = {
    "graph": (parse_graph, GraphParseError, ["a b", "b c", "d"], "a b c"),
    "labeling": (parse_labeling, LabelingParseError,
                 ["X {0,1}", "a {0}", "b {1}"], "c {1_0}"),
    "labeling-name-only": (parse_labeling, LabelingParseError,
                           ["X {0,1}", "a {0}", "b {1}"], "c"),
    "topology": (parse_topology, TopologyParseError, ["∅", "{0}", "{0,1}"],
                 "{+1}"),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_formats_share_one_line_rule(fmt):
    parse, error, good, bad = FORMATS[fmt]
    plain = parse("\n".join(good) + "\n")
    decorated = parse(f"{good[0]}  # a comment\r\n\r\n{good[1]}#\r\n{good[2]}\r\n")
    assert decorated == plain
    with pytest.raises(error) as err:
        parse(f"{good[0]}  # a comment\r\n\r\n{bad}\r\n{good[2]}\r\n")
    assert isinstance(err.value, ParseError)
    assert err.value.line == 3
    assert str(err.value).startswith("line 3: ")
    # only "\n" ends a line: the other breaks of str.splitlines join two good
    # lines into one bad one, reported with its "\n"-counted number
    for joint in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029":
        with pytest.raises(error) as err:
            parse(f"{good[0]}\r\n{good[1]}{joint}{good[2]}\r\n")
        assert err.value.line == 2
