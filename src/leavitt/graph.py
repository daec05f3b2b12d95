"""Finite directed multigraph model: parsing, paths, cycles, specializations.

Vertices and edges are named by string ids.  Declaration order is semantic:
it drives every canonical ordering in the package (sorted reports, canonical
cycle rotations, the default specialization).
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence

__all__ = [
    "Graph",
    "Path",
    "Cycle",
    "Specialization",
    "parse_graph",
    "cycle_exits",
    "is_ne_cycle",
    "canonical_specialization",
    "GraphError",
    "GraphParseError",
    "GraphSyntaxError",
    "DuplicateIdError",
    "UnknownVertexError",
    "UnknownEdgeError",
    "NotACycleError",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class GraphError(ValueError):
    """Base class for graph-related errors."""


class GraphParseError(GraphError):
    """Invalid graph data; carries a 1-based line number when one is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class GraphSyntaxError(GraphParseError):
    pass


class DuplicateIdError(GraphParseError):
    pass


class UnknownVertexError(GraphParseError):
    pass


class UnknownEdgeError(GraphParseError):
    pass


class NotACycleError(GraphError):
    pass


class Path(namedtuple("Path", ("source", "edges", "target"))):
    """A vertex (length 0) or a composable edge sequence in a fixed graph.

    A named tuple, so hashing and equality run in C; ``len(p)`` is 3, the
    number of fields, and the path length is ``p.length``.
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        return _path_text(self.source, self.edges)


def _path_text(source: str, edges: tuple) -> str:
    """A path's text: its edge ids, or ``@v`` for the length-0 path at v."""
    return " ".join(edges) if edges else "@" + source


class _Value:
    """Base of the immutable value types.  A subclass names its fields in
    ``__slots__`` and ``__match_args__``; the one constructor binds its
    arguments to them, by position or keyword, and raises ``TypeError``
    naming the type and its fields when one is missing, extra, unknown or
    given twice.  As in a frozen dataclass, an instance equals only an
    instance of its own type with equal fields and hashes as their tuple.
    A subclass may have a checking constructor of its own that stores the
    fields through this one.  Its ``__slots__`` may extend ``__match_args__``
    with derived state, which that constructor sets once with
    ``object.__setattr__``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs:
            args += tuple([kwargs.pop(name) for name in names[len(args) :] if name in kwargs])
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes the fields {names}, each once, by position or keyword")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # the type and the fields, which pickle and copy rebuild from
        return self.__class__, tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{self.__class__.__qualname__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class Cycle(_Value):
    """A closed path whose edge sources are pairwise distinct, stored in the
    rotation that starts at the smallest vertex."""

    __slots__ = __match_args__ = ("path", "sources")

    @property
    def edges(self) -> tuple[str, ...]:
        return self.path.edges

    @property
    def length(self) -> int:
        return self.path.length

    @property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.sources)

    def __str__(self) -> str:
        return "(" + " ".join(self.edges) + ")"


def _check_ident(x: str, line: int | None = None) -> None:
    if not isinstance(x, str) or not _IDENT.fullmatch(x):
        raise GraphSyntaxError(f"invalid identifier {x!r}", line)


def _edge_triple(item) -> tuple:
    """An edge given to ``Graph`` as an (id, source, target) tuple; a string
    or anything else that is not a sequence of three items is refused."""
    if isinstance(item, str) or not isinstance(item, Sequence) or len(item) != 3:
        raise GraphSyntaxError(f"expected an edge (id, source, target), not {item!r}")
    return tuple(item)


def _choice_pair(item) -> tuple:
    """A specialization choice given as a (vertex id, edge id) tuple or list;
    anything else, a string included, is refused.  The types are concrete, as
    an abstract ``Sequence`` check per choice is slow."""
    if not (isinstance(item, (tuple, list)) and len(item) == 2 and isinstance(item[0], str) and isinstance(item[1], str)):
        raise GraphSyntaxError(f"expected a specialization choice (vertex, edge), not {item!r}")
    return tuple(item)


def _edge_sequence(edges: Iterable[str]) -> tuple[str, ...]:
    """The edge ids of a path or cycle as a tuple; a string is refused, since
    it is an iterable of its characters, never a sequence of edges."""
    if isinstance(edges, str):
        raise TypeError(f"expected a sequence of edge ids, not the string {edges!r}")
    return tuple(edges)


class Graph(_Value):
    """Immutable finite directed multigraph with declaration-ordered ids.

    Its fields are the vertex ids and the (id, source, target) edges, each
    in declaration order.  Vertex ids and edge ids live in separate
    namespaces; each must be unique within its own.
    """

    __match_args__ = ("vertices", "edges")
    # the indexes and adjacency that ``_init`` derives from the fields
    __slots__ = __match_args__ + ("_vindex", "_eindex", "_src", "_dst", "_out", "_in")
    # the hereditary module's index, set on first use, the center module's path
    # layers, a list it extends, and weak references
    __slots__ += ("_scc_index", "_path_layers", "__weakref__")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Sequence[str]]):
        edges = tuple(map(_edge_triple, edges))
        vindex: dict[str, int] = {}
        for v in vertices:
            _check_ident(v)
            if v in vindex:
                raise DuplicateIdError(f"duplicate vertex id {v!r}")
            vindex[v] = len(vindex)
        eindex: dict[str, int] = {}
        for e, s, t in edges:
            _check_ident(e)
            if e in eindex:
                raise DuplicateIdError(f"duplicate edge id {e!r}")
            eindex[e] = len(eindex)
            for v in (s, t):
                if not isinstance(v, str):
                    raise GraphSyntaxError(f"invalid identifier {v!r}")
                if v not in vindex:
                    raise UnknownVertexError(f"unknown vertex {v!r}")
        self._init(vindex, eindex, edges)

    def _init(self, vindex: dict[str, int], eindex: dict[str, int], edges: tuple[tuple[str, str, str], ...]) -> None:
        """Set up a graph from the tables that the checks of ``__init__`` or
        ``parse_graph`` fill: each vertex and each edge id mapped to its
        declaration index, and the edges in declaration order."""
        super().__init__(tuple(vindex), edges)
        out: dict[str, list[str]] = {v: [] for v in vindex}
        inc: dict[str, list[str]] = {v: [] for v in vindex}
        for e, s, t in edges:
            out[s].append(e)
            inc[t].append(e)
        object.__setattr__(self, "_vindex", vindex)
        object.__setattr__(self, "_eindex", eindex)
        object.__setattr__(self, "_src", {e: s for e, s, _ in edges})
        object.__setattr__(self, "_dst", {e: t for e, _, t in edges})
        object.__setattr__(self, "_out", {v: tuple(es) for v, es in out.items()})
        object.__setattr__(self, "_in", {v: tuple(es) for v, es in inc.items()})
        object.__setattr__(self, "_scc_index", None)
        object.__setattr__(self, "_path_layers", [])

    # -- basic accessors -------------------------------------------------

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(self._eindex)

    def has_vertex(self, v: str) -> bool:
        return v in self._vindex

    def source_of(self, e: str) -> str:
        try:
            return self._src[e]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {e!r}") from None

    def target_of(self, e: str) -> str:
        try:
            return self._dst[e]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {e!r}") from None

    def out_edges(self, v: str) -> tuple[str, ...]:
        try:
            return self._out[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def in_edges(self, v: str) -> tuple[str, ...]:
        try:
            return self._in[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def vertex_index(self, v: str) -> int:
        try:
            return self._vindex[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def sorted_vertices(self, ws: Iterable[str]) -> tuple[str, ...]:
        try:
            return tuple(sorted(ws, key=self._vindex.__getitem__))
        except KeyError as exc:
            raise UnknownVertexError(f"unknown vertex {exc.args[0]!r}") from None

    # -- paths and cycles ------------------------------------------------

    def vertex_path(self, v: str) -> Path:
        return self.path(v)

    def edge_path(self, e: str) -> Path:
        return Path(self.source_of(e), (e,), self.target_of(e))

    def path(self, source: str, edges: Iterable[str] = ()) -> Path:
        """Build a validated path from ``source`` along ``edges``."""
        edges = _edge_sequence(edges)
        if not self.has_vertex(source):
            raise UnknownVertexError(f"unknown vertex {source!r}")
        cur = source
        for e in edges:
            if self.source_of(e) != cur:
                raise ValueError(f"edge {e!r} does not start at {cur!r}")
            cur = self.target_of(e)
        return Path(source, edges, cur)

    def path_key(self, p: Path):
        """Sort key: length, then the declaration indexes of the edges, then
        that of the source.  Every monomial and path order derives from it."""
        source, edges, _ = p
        try:
            return (len(edges), tuple(map(self._eindex.__getitem__, edges)), self._vindex[source])
        except KeyError as exc:
            # the edges are looked up first, so an unknown edge is the one reported
            if any(e not in self._eindex for e in edges):
                raise UnknownEdgeError(f"unknown edge {exc.args[0]!r}") from None
            raise UnknownVertexError(f"unknown vertex {exc.args[0]!r}") from None

    def cycle(self, edges: Iterable[str]) -> Cycle:
        """Canonicalize ``edges`` as a cycle (rotated to the smallest start vertex)."""
        edges = _edge_sequence(edges)
        if not edges:
            raise NotACycleError("a cycle needs at least one edge")
        sources = tuple(self.source_of(e) for e in edges)
        if len(set(sources)) != len(sources):
            raise NotACycleError("edge sources repeat")
        if self.path(sources[0], edges).target != sources[0]:
            raise NotACycleError("edge sequence is not closed")
        i = min(range(len(edges)), key=lambda j: self.vertex_index(sources[j]))
        rot = edges[i:] + edges[:i]
        return Cycle(self.path(sources[i], rot), sources[i:] + sources[:i])

    def check_cycle(self, c: Cycle) -> None:
        try:
            rebuilt = self.cycle(c.edges)
        except (GraphError, ValueError) as exc:
            raise NotACycleError(f"not a cycle of this graph: {exc}") from exc
        if rebuilt != c:
            raise NotACycleError("cycle does not belong to this graph")

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class Specialization(_Value):
    """A total choice of one outgoing edge per non-sink vertex.

    The chosen edges are "special"; they decide which monomials count as
    normal form in the algebra.  The field ``choices`` holds the (vertex,
    edge) pairs in vertex declaration order; the constructor takes them as
    such pairs, which pickle and copy pass it, or as a mapping from vertex
    to edge, and refuses anything else before it looks up an id.
    """

    __match_args__ = ("graph", "choices")
    __slots__ = __match_args__ + ("_edge_at", "special_edges")

    def __init__(self, graph: Graph, choices: Mapping[str, str] | Iterable[tuple[str, str]]):
        if isinstance(choices, str) or not isinstance(choices, Iterable):
            raise GraphSyntaxError(f"expected specialization choices as (vertex, edge) pairs or a mapping, not {choices!r}")
        choices = dict(map(_choice_pair, choices.items() if isinstance(choices, Mapping) else choices))
        non_sinks = {v for v in graph.vertices if graph.out_edges(v)}
        if set(choices) != non_sinks:
            missing = non_sinks - set(choices)
            extra = set(choices) - non_sinks
            what = []
            if missing:
                what.append(f"missing {graph.sorted_vertices(missing)}")
            if extra:
                what.append(f"unexpected {tuple(sorted(extra))}")
            raise ValueError("specialization domain must be exactly the non-sink vertices: " + ", ".join(what))
        for v, e in choices.items():
            if graph.source_of(e) != v:
                raise ValueError(f"edge {e!r} does not start at {v!r}")
        super().__init__(graph, tuple([(v, choices[v]) for v in graph.vertices if v in choices]))
        object.__setattr__(self, "_edge_at", choices)
        object.__setattr__(self, "special_edges", frozenset(choices.values()))

    def __getitem__(self, v: str) -> str:
        return self._edge_at[v]

    def is_special(self, e: str) -> bool:
        return e in self.special_edges


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Lines: ``# comment``, ``vertex <id>``, ``edge <id> <src-vertex> <dst-vertex>``.
    Blank lines are ignored.  Lines end at LF, CRLF or CR only (the newlines
    ``open()`` translates), so errors carry 1-based physical line numbers.
    The rules are those of the ``Graph`` constructor, checked here once each,
    so the graph is built without the constructor's second pass.
    """
    vindex: dict[str, int] = {}  # id -> declaration index, as the graph keeps it
    eindex: dict[str, int] = {}
    edges: list[tuple[str, str, str]] = []
    pending: list[tuple[int, str]] = []  # endpoints not declared before their edge
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise GraphSyntaxError("expected 'vertex <id>'", lineno)
            vid = tokens[1]
            _check_ident(vid, lineno)
            if vid in vindex:
                raise DuplicateIdError(f"duplicate vertex id {vid!r}", lineno)
            vindex[vid] = len(vindex)
        elif tokens[0] == "edge":
            if len(tokens) != 4:
                raise GraphSyntaxError("expected 'edge <id> <src-vertex> <dst-vertex>'", lineno)
            eid, src, dst = tokens[1:]
            _check_ident(eid, lineno)
            for v in (src, dst):
                if v not in vindex:  # a declared vertex passed this check on its own line
                    _check_ident(v, lineno)
                    pending.append((lineno, v))
            if eid in eindex:
                raise DuplicateIdError(f"duplicate edge id {eid!r}", lineno)
            eindex[eid] = len(eindex)
            edges.append((eid, src, dst))
        else:
            raise GraphSyntaxError(f"unknown directive {tokens[0]!r}", lineno)
    for lineno, v in pending:
        if v not in vindex:
            raise UnknownVertexError(f"unknown vertex {v!r}", lineno)
    g = Graph.__new__(Graph)
    g._init(vindex, eindex, tuple(edges))
    return g


def cycle_exits(g: Graph, c: Cycle) -> list[str]:
    """Edges that leave a cycle vertex but are not part of the cycle."""
    g.check_cycle(c)
    members = set(c.edges)
    verts = c.vertex_set
    return [e for e, s, _ in g.edges if s in verts and e not in members]


def is_ne_cycle(g: Graph, c: Cycle) -> bool:
    """True when the cycle has no exits."""
    return not cycle_exits(g, c)


def canonical_specialization(g: Graph) -> Specialization:
    """The default specialization: the first declared outgoing edge at each non-sink."""
    return Specialization(g, {v: g.out_edges(v)[0] for v in g.vertices if g.out_edges(v)})
