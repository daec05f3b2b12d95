import pytest

from leavitt import (
    DuplicateIdError,
    GraphParseError,
    GraphSyntaxError,
    NotACycleError,
    Path,
    UnknownEdgeError,
    UnknownVertexError,
    canonical_specialization,
    cycle_exits,
    is_ne_cycle,
    parse_graph,
)
from leavitt.graph import Specialization


def test_parse_basic(g3):
    assert g3.vertices == ("v1", "v2", "v3", "v4", "v5")
    assert g3.edge_ids() == ("a", "b2", "b3", "b4", "d")
    assert g3.source_of("b4") == "v4"
    assert g3.target_of("b4") == "v2"
    assert g3.out_edges("v1") == ("a", "d")
    assert g3.in_edges("v2") == ("a", "b4")
    assert g3.is_sink("v5")
    assert g3.sinks() == ("v5",)


def test_parse_skips_blanks_and_comments():
    g = parse_graph("# heading\n\nvertex a\n  # indented comment\nvertex b\nedge e a b\n")
    assert g.vertices == ("a", "b")


def test_parse_error_line_numbers():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("vertex v1\nvertex v1\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(GraphParseError) as exc:
        parse_graph("vertex v1\nedge e v1\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(GraphParseError) as exc:
        parse_graph("frobnicate v1\n")
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize("odd", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\u2029"])
def test_parse_breaks_lines_only_at_newlines(odd):
    # an odd separator inside a comment does not start a new line
    with pytest.raises(DuplicateIdError) as exc:
        parse_graph(f"# one{odd}two\nvertex a\nvertex a\n")
    assert exc.value.line == 3
    # nor does it split one line into two declarations
    with pytest.raises(GraphParseError) as exc:
        parse_graph(f"vertex a{odd}vertex b\nvertex a\n")
    assert exc.value.line == 1 and "expected 'vertex <id>'" in str(exc.value)


def test_parse_accepts_lf_crlf_and_cr_line_endings():
    for nl in ("\n", "\r\n", "\r"):
        g = parse_graph(nl.join(["# g", "vertex a", "vertex b", "edge e a b", ""]))
        assert g.vertices == ("a", "b") and g.edges == (("e", "a", "b"),)
        with pytest.raises(DuplicateIdError) as exc:
            parse_graph(nl.join(["vertex a", "", "vertex a"]))
        assert exc.value.line == 3


def test_parse_rejects_bad_identifiers():
    with pytest.raises(GraphParseError):
        parse_graph("vertex 1v\n")
    with pytest.raises(GraphParseError):
        parse_graph("vertex v-1\n")


def test_parse_rejects_unknown_endpoints():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("vertex v1\nedge e v1 v9\n")
    assert "v9" in str(exc.value)
    with pytest.raises(GraphParseError):
        parse_graph("vertex v1\nedge e v9 v1\n")


def test_parse_rejects_duplicate_edge_id():
    with pytest.raises(DuplicateIdError):
        parse_graph("vertex v1\nedge e v1 v1\nedge e v1 v1\n")


def test_vertex_and_edge_namespaces_are_separate():
    g = parse_graph("vertex x\nvertex y\nedge x x y\n")
    assert g.has_vertex("x") and g.has_edge("x")


def test_graph_constructor_validates():
    from leavitt import Graph

    with pytest.raises(UnknownVertexError):
        Graph(("v1",), (("e", "v1", "v2"),))
    with pytest.raises(DuplicateIdError):
        Graph(("v1", "v1"), ())
    # the identifier rule of parse_graph, without a line number
    for vertices, edges, bad in [
        (["a b", "x,y"], [("e 1", "a b", "x,y")], "a b"),
        (["v1", ""], [], ""),
        (["v1"], [("e 1", "v1", "v1")], "e 1"),
        (["v1", "x,y"], [("e", "v1", "x,y")], "x,y"),
    ]:
        with pytest.raises(GraphSyntaxError, match=f"^invalid identifier {bad!r}$") as info:
            Graph(vertices, edges)
        assert info.value.line is None


def test_path_factories(g3):
    p = g3.path("v1", ["a", "b2"])
    assert p.source == "v1" and p.target == "v3" and p.length == 2
    assert str(p) == "a b2"
    assert str(g3.vertex_path("v2")) == "@v2"
    with pytest.raises(ValueError):
        g3.path("v1", ["b2"])  # b2 starts at v2
    with pytest.raises(ValueError):
        g3.path("v1", ["a", "d"])  # d does not continue from v2


def test_path_concat(g3):
    p = g3.path("v1", ["a"])
    q = g3.path("v2", ["b2", "b3"])
    assert g3.concat(p, q).edges == ("a", "b2", "b3")
    with pytest.raises(ValueError):
        g3.concat(q, p)


def test_path_key_orders_by_length_then_edges(g3):
    paths = [
        g3.path("v2", ["b2", "b3"]),
        g3.vertex_path("v1"),
        g3.path("v1", ["d"]),
        g3.path("v1", ["a"]),
    ]
    paths.sort(key=g3.path_key)
    assert [str(p) for p in paths] == ["@v1", "a", "d", "b2 b3"]


def test_path_key_rejects_unknown_names(g3):
    with pytest.raises(UnknownEdgeError):
        g3.path_key(Path("v1", ("a", "zz"), "v2"))
    with pytest.raises(UnknownVertexError):
        g3.path_key(Path("v9", (), "v9"))
    with pytest.raises(UnknownVertexError):
        g3.path_key(Path("v9", ("a",), "v2"))


def test_cycle_canonical_rotation(g3):
    # same cycle declared from three different starting edges
    c1 = g3.cycle(("b2", "b3", "b4"))
    c2 = g3.cycle(("b3", "b4", "b2"))
    c3 = g3.cycle(("b4", "b2", "b3"))
    assert c1 == c2 == c3
    assert c1.sources[0] == "v2"
    assert str(c1) == "(b2 b3 b4)"
    g3.check_cycle(c1)


def test_cycle_rejects_non_cycles(g3):
    with pytest.raises(NotACycleError):
        g3.cycle(())
    with pytest.raises(NotACycleError):
        g3.cycle(("a",))  # not closed
    g = parse_graph(
        "vertex x\nvertex y\nedge e1 x y\nedge e2 y x\nedge e3 x y\nedge e4 y x\n"
    )
    with pytest.raises(NotACycleError):
        g.cycle(("e1", "e2", "e3", "e4"))  # revisits x


def test_cycle_exits_and_ne(g1, g2, g3):
    c = g2.cycle(("c",))
    assert cycle_exits(g2, c) == ["f"]
    assert not is_ne_cycle(g2, c)
    assert cycle_exits(g1, g1.cycle(("c",))) == []
    assert is_ne_cycle(g1, g1.cycle(("c",)))
    assert is_ne_cycle(g3, g3.cycle(("b2", "b3", "b4")))


def test_check_cycle_rejects_foreign(g1, g3):
    c = g1.cycle(("c",))
    with pytest.raises(Exception):
        g3.check_cycle(c)


def test_canonical_specialization(g3, g4):
    s = canonical_specialization(g3)
    # first declared out-edge at each non-sink
    assert s["v1"] == "a"
    assert s["v2"] == "b2"
    assert s.is_special("a")
    assert not s.is_special("d")
    assert canonical_specialization(g4)["u"] == "e"


def test_specialization_validation(g2):
    with pytest.raises(ValueError):
        Specialization(g2, {})  # v1 missing
    with pytest.raises(ValueError):
        Specialization(g2, {"v1": "c", "v2": "c"})  # v2 is a sink
    g = parse_graph("vertex x\nvertex y\nedge e x y\nedge h y x\n")
    with pytest.raises(ValueError):
        Specialization(g, {"x": "h", "y": "h"})  # h does not start at x


def test_graph_value_semantics():
    a = parse_graph("vertex v\nedge e v v\n")
    b = parse_graph("vertex v\nedge e v v\n")
    assert a == b and hash(a) == hash(b)
    c = parse_graph("vertex v\n")
    assert a != c


def test_path_is_an_immutable_named_tuple(g3):
    p = g3.path("v1", ["a"])
    with pytest.raises(AttributeError):
        p.source = "v2"
    same = Path("v1", ("a",), "v2")
    assert p == same and hash(p) == hash(same)
    assert repr(p) == "Path(source='v1', edges=('a',), target='v2')"
    # len() counts the three fields; the path length is a property
    assert len(p) == 3 and p.length == 1 and g3.path("v1", ["a", "b2"]).length == 2
    assert g3.vertex_path("v2").length == 0
