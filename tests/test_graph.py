import collections
import random
import re

import pytest

from leavitt import (
    DuplicateIdError,
    Graph,
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
    assert g3.out_edges("v5") == ()
    assert [v for v in g3.vertices if not g3.out_edges(v)] == ["v5"]


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
    assert g.has_vertex("x") and "x" in g.edge_ids()


def test_graph_constructor_validates():
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


@pytest.mark.parametrize("item", [("e", "a"), ("e", "a", "a", "x"), 5, "eaa", None, {"e", "a", "b"}, iter("eab")])
def test_graph_constructor_refuses_an_edge_that_is_not_a_triple(item):
    # a triple of the right shape, or a list of three, is an edge
    assert Graph(["a", "b"], [("e", "a", "b"), ["f", "b", "a"]]).edges == (("e", "a", "b"), ("f", "b", "a"))
    message = f"^expected an edge \\(id, source, target\\), not {re.escape(repr(item))}$"
    with pytest.raises(GraphSyntaxError, match=message) as info:
        Graph(["a", "b"], [("e", "a", "b"), item])
    assert info.value.line is None
    # the shape of every edge is checked before any vertex or edge id
    with pytest.raises(GraphSyntaxError, match=message):
        Graph(["1a", "a"], [("2e", "x", "y"), item])


@pytest.mark.parametrize(
    "vertices, edges, bad",
    [
        ([5], [], 5),
        ([None], [], None),
        (["a"], [(b"e", "a", "a")], b"e"),
        (["a"], [("e", 5, "a")], 5),
        (["a"], [("e", "a", ["x"])], ["x"]),  # unhashable: never looked up
        ([["a"]], [], ["a"]),
        ([1, 1], [], 1),  # before the duplicate check
        (["a"], [(2, "a", "a"), (2, "a", "a")], 2),
        (["a"], [("e", 5.0, "b")], 5.0),  # before the unknown-vertex check
    ],
)
def test_graph_constructor_refuses_ids_that_are_not_strings(vertices, edges, bad):
    with pytest.raises(GraphSyntaxError, match=f"^invalid identifier {re.escape(repr(bad))}$") as info:
        Graph(vertices, edges)
    assert info.value.line is None


def test_path_and_cycle_refuse_a_bare_string(g3):
    # a string is an iterable of its characters, never a sequence of edge ids
    for build in (lambda: g3.path("v2", "b2"), lambda: g3.path("v1", "a"), lambda: g3.cycle("a")):
        with pytest.raises(TypeError, match="^expected a sequence of edge ids, not the string "):
            build()
    assert g3.path("v1", ("a", "b2")) == g3.path("v1", ["a", "b2"]) == Path("v1", ("a", "b2"), "v3")
    assert g3.cycle(["b3", "b4", "b2"]) == g3.cycle(iter(("b2", "b3", "b4")))


def test_sorted_vertices_follow_declaration_order(g3):
    assert g3.sorted_vertices({"v5", "v1", "v3"}) == ("v1", "v3", "v5")
    assert g3.sorted_vertices([]) == ()
    with pytest.raises(UnknownVertexError, match="unknown vertex 'v9'"):
        g3.sorted_vertices(["v1", "v9"])


def test_path_factories(g3):
    p = g3.path("v1", ["a", "b2"])
    assert p.source == "v1" and p.target == "v3" and p.length == 2
    assert str(p) == "a b2"
    assert str(g3.vertex_path("v2")) == "@v2"
    with pytest.raises(ValueError):
        g3.path("v1", ["b2"])  # b2 starts at v2
    with pytest.raises(ValueError):
        g3.path("v1", ["a", "d"])  # d does not continue from v2


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


def test_specialization_refuses_malformed_choices():
    # like a bad id given to Graph, a malformed choice is refused with the
    # package's own error, naming the specialization, before any id is looked up
    g = parse_graph("vertex v\nedge x v v\n")
    for choices in ("ve", "", 5, None):
        message = f"^expected specialization choices as \\(vertex, edge\\) pairs or a mapping, not {re.escape(repr(choices))}$"
        with pytest.raises(GraphSyntaxError, match=message):
            Specialization(g, choices)
    for choices, item in [
        ({"v": ["x"]}, ("v", ["x"])),
        ({1: "x"}, (1, "x")),
        ({"v": None}, ("v", None)),
        ([("v",)], ("v",)),
        (["vx"], "vx"),
        ([("v", "x", "x")], ("v", "x", "x")),
        ([5], 5),
    ]:
        message = f"^expected a specialization choice \\(vertex, edge\\), not {re.escape(repr(item))}$"
        with pytest.raises(GraphSyntaxError, match=message):
            Specialization(g, choices)
    assert Specialization(g, [["v", "x"]]) == Specialization(g, {"v": "x"}) == Specialization(g, (("v", "x"),))


def test_graph_value_semantics():
    a = parse_graph("vertex v\nedge e v v\n")
    b = parse_graph("vertex v\nedge e v v\n")
    assert a == b and hash(a) == hash(b)
    c = parse_graph("vertex v\n")
    assert a != c


def test_constructor_takes_one_shot_iterables_and_hashes_on_demand(corpus):
    for g in corpus:
        text = "".join(f"vertex {v}\n" for v in g.vertices) + "".join(f"edge {e} {s} {t}\n" for e, s, t in g.edges)
        built = Graph(tuple(g.vertices), tuple(g.edges))
        streamed = Graph(iter(g.vertices), (e for e in g.edges))
        for h in (parse_graph(text), built, streamed):
            assert h == built and (h.vertices, h.edges, h.edge_ids()) == (built.vertices, built.edges, built.edge_ids())
            assert [h.vertex_index(v) for v in h.vertices] == list(range(len(g.vertices)))
            assert hash(h) == hash((h.vertices, h.edges)) == hash(built)


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


# -- differential check of the parser against its earlier form --------------

_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _ref_check_ident(x, line=None):
    if not _REF_IDENT.fullmatch(x):
        raise GraphSyntaxError(f"invalid identifier {x!r}", line)


def _reference_constructor(vertices, edges):
    """The ``Graph`` constructor's checks as they stood when ``parse_graph``
    still ran them a second time: every vertex, then every edge in order."""
    vertices = tuple(vertices)
    edges = tuple((e, s, t) for e, s, t in edges)
    vindex = {}
    for v in vertices:
        _ref_check_ident(v)
        if v in vindex:
            raise DuplicateIdError(f"duplicate vertex id {v!r}")
        vindex[v] = len(vindex)
    eindex = {}
    for e, s, t in edges:
        _ref_check_ident(e)
        if e in eindex:
            raise DuplicateIdError(f"duplicate edge id {e!r}")
        if s not in vindex:
            raise UnknownVertexError(f"unknown vertex {s!r}")
        if t not in vindex:
            raise UnknownVertexError(f"unknown vertex {t!r}")
        eindex[e] = len(eindex)
    return vertices, edges


def _reference_parse(text):
    """``parse_graph`` as it stood when it checked all three ids of every edge
    line and then handed its lists to the checking constructor."""
    vertices, vset, eset, edges = [], set(), set(), []
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise GraphSyntaxError("expected 'vertex <id>'", lineno)
            vid = tokens[1]
            _ref_check_ident(vid, lineno)
            if vid in vset:
                raise DuplicateIdError(f"duplicate vertex id {vid!r}", lineno)
            vset.add(vid)
            vertices.append(vid)
        elif tokens[0] == "edge":
            if len(tokens) != 4:
                raise GraphSyntaxError("expected 'edge <id> <src-vertex> <dst-vertex>'", lineno)
            eid, src, dst = tokens[1:]
            for ident in (eid, src, dst):
                _ref_check_ident(ident, lineno)
            if eid in eset:
                raise DuplicateIdError(f"duplicate edge id {eid!r}", lineno)
            eset.add(eid)
            edges.append((eid, src, dst, lineno))
        else:
            raise GraphSyntaxError(f"unknown directive {tokens[0]!r}", lineno)
    for eid, src, dst, lineno in edges:
        if src not in vset:
            raise UnknownVertexError(f"unknown vertex {src!r}", lineno)
        if dst not in vset:
            raise UnknownVertexError(f"unknown vertex {dst!r}", lineno)
    return _reference_constructor(vertices, [(e, s, t) for e, s, t, _ in edges])


_GOOD_IDS = ["a", "b", "c", "v1", "_x", "B2", "edge", "vertex"]
_BAD_IDS = ["1v", "v-1", "a.b", "é", "xü", "$", "0"]


def _random_declarations(rng):
    """Seeded declarations: mostly a valid graph, with bad ids, repeated ids
    and endpoints that are never declared."""
    def spoil(x):
        return rng.choice(_BAD_IDS) if rng.random() < 0.02 else x

    names = rng.sample(_GOOD_IDS, rng.randint(1, 5))
    vertices = [spoil(v) for v in names if rng.random() > 0.04]
    if rng.random() < 0.08:
        vertices.append(rng.choice(names))
    edges = [(spoil(f"e{i}"), spoil(rng.choice(names)), spoil(rng.choice(names))) for i in range(rng.randint(0, 5))]
    if edges and rng.random() < 0.08:
        edges.append((rng.choice(edges)[0], rng.choice(names), rng.choice(names)))
    return vertices, edges


def _random_graph_text(rng):
    vertices, edges = _random_declarations(rng)
    lines = [("vertex", v) for v in vertices] + [("edge", *e) for e in edges]
    rng.shuffle(lines)  # so some edges come before the vertices they name
    out = []
    for decl in lines:
        roll = rng.random()
        if roll < 0.01:
            decl = decl[:-1]
        elif roll < 0.02:
            decl = decl + ("extra",)
        elif roll < 0.03:
            decl = (rng.choice(["Vertex", "edges", "node", "#ok"]),) + decl[1:]
        gap = rng.choice([" ", "  ", "\t", " \x0b "])
        out.append(rng.choice(["", " ", "\t"]) + gap.join(decl))
        if rng.random() < 0.1:
            out.append(rng.choice(["", "# note", "   ", "  # vertex x"]))
    breaks = ["\n", "\r\n", "\r"]
    if rng.random() < 0.5:
        nl = rng.choice(breaks)
        return nl.join(out) + rng.choice(["", nl])
    return "".join(line + rng.choice(breaks) for line in out)


def _outcome(build, *args):
    try:
        g = build(*args)
    except GraphParseError as exc:
        return ("error", type(exc), str(exc), exc.line)
    if isinstance(g, tuple):
        return ("graph",) + g
    return ("graph", g.vertices, g.edges)


def _assert_consistent(g):
    """Every lookup of a parsed graph agrees with its declaration lists."""
    assert g == Graph(g.vertices, g.edges) and hash(g) == hash(Graph(g.vertices, g.edges))
    assert g.edge_ids() == tuple(e for e, _, _ in g.edges)
    for i, v in enumerate(g.vertices):
        assert g.vertex_index(v) == i
        assert g.out_edges(v) == tuple(e for e, s, _ in g.edges if s == v)
        assert g.in_edges(v) == tuple(e for e, _, t in g.edges if t == v)
    for e, s, t in g.edges:
        assert (g.source_of(e), g.target_of(e), e in g.edge_ids()) == (s, t, True)


def test_parse_and_constructor_match_their_reference_checks():
    rng = random.Random(1207)
    kinds = collections.Counter()
    for _ in range(20_000):
        text = _random_graph_text(rng)
        expected = _outcome(_reference_parse, text)
        got = _outcome(parse_graph, text)
        assert got == expected, text
        kinds[expected[1].__name__ if expected[0] == "error" else "graph"] += 1
        if got[0] == "graph":
            _assert_consistent(parse_graph(text))
        vertices, edges = _random_declarations(rng)
        expected = _outcome(_reference_constructor, vertices, edges)
        assert _outcome(Graph, vertices, edges) == expected
        # the constructor reads each argument once, so one-shot iterables do
        assert _outcome(Graph, iter(vertices), (e for e in edges)) == expected
    # the mix reaches every outcome, each many times
    assert min(kinds[k] for k in ("graph", "GraphSyntaxError", "DuplicateIdError", "UnknownVertexError")) > 500, kinds
