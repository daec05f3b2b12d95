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
        return " ".join(self.edges) if self.edges else "@" + self.source


class _Value:
    """Base of the immutable value types.  A subclass names its fields in
    ``__slots__`` and ``__match_args__`` and stores them with
    ``object.__setattr__``.  As in a frozen dataclass, an instance equals only
    an instance of its own type with equal fields and hashes as their tuple."""

    __slots__ = ()

    def __reduce__(self):  # the type and the fields, which pickle and copy rebuild from
        return self.__class__, tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__ else NotImplemented

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

    def __init__(self, path: Path, sources: tuple[str, ...]):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "sources", sources)

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
    if not _IDENT.fullmatch(x):
        raise GraphSyntaxError(f"invalid identifier {x!r}", line)


class Graph:
    """Immutable finite directed multigraph with declaration-ordered ids.

    Vertex ids and edge ids live in separate namespaces; each must be unique
    within its own.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Sequence[str]]):
        vertices = tuple(vertices)
        edges = tuple((e, s, t) for e, s, t in edges)
        declared: set[str] = set()
        for v in vertices:
            _check_ident(v)
            if v in declared:
                raise DuplicateIdError(f"duplicate vertex id {v!r}")
            declared.add(v)
        seen: set[str] = set()
        for e, s, t in edges:
            _check_ident(e)
            if e in seen:
                raise DuplicateIdError(f"duplicate edge id {e!r}")
            seen.add(e)
            for v in (s, t):
                if v not in declared:
                    raise UnknownVertexError(f"unknown vertex {v!r}")
        self._init(vertices, edges)

    def _init(self, vertices: tuple[str, ...], edges: tuple[tuple[str, str, str], ...]) -> None:
        """Set up a graph whose ids passed the checks of ``__init__`` or ``parse_graph``."""
        self._vertices = vertices
        self._edges = edges
        self._vindex = {v: i for i, v in enumerate(vertices)}
        self._eindex = {e: i for i, (e, _, _) in enumerate(edges)}
        self._src = {e: s for e, s, _ in edges}
        self._dst = {e: t for e, _, t in edges}
        out: dict[str, list[str]] = {v: [] for v in vertices}
        inc: dict[str, list[str]] = {v: [] for v in vertices}
        for e, s, t in edges:
            out[s].append(e)
            inc[t].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in inc.items()}
        self._edge_ids = tuple(self._eindex)
        self._hash = hash((vertices, edges))
        self._scc_index = None  # built by the hereditary module on first use
        self._path_layers = []  # grown by the center module's oracle

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[str, str, str], ...]:
        return self._edges

    def edge_ids(self) -> tuple[str, ...]:
        return self._edge_ids

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
        if not self.has_vertex(v):
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return Path(v, (), v)

    def edge_path(self, e: str) -> Path:
        return Path(self.source_of(e), (e,), self.target_of(e))

    def path(self, source: str, edges: Iterable[str] = ()) -> Path:
        """Build a validated path from ``source`` along ``edges``."""
        if not self.has_vertex(source):
            raise UnknownVertexError(f"unknown vertex {source!r}")
        cur = source
        edges = tuple(edges)
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
        edges = tuple(edges)
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

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self._vertices)} vertices, {len(self._edges)} edges)"


class Specialization:
    """A total choice of one outgoing edge per non-sink vertex.

    The chosen edges are "special"; they decide which monomials count as
    normal form in the algebra.
    """

    def __init__(self, graph: Graph, choices: Mapping[str, str]):
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
        self.graph = graph
        self._choices = {v: choices[v] for v in graph.vertices if v in choices}
        self.special_edges = frozenset(self._choices.values())
        self._key = (graph, tuple(self._choices.items()))

    def __getitem__(self, v: str) -> str:
        return self._choices[v]

    def is_special(self, e: str) -> bool:
        return e in self.special_edges

    def __eq__(self, other) -> bool:
        return isinstance(other, Specialization) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}->{e}" for v, e in self._choices.items())
        return f"Specialization({inner})"


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Lines: ``# comment``, ``vertex <id>``, ``edge <id> <src-vertex> <dst-vertex>``.
    Blank lines are ignored.  Lines end at LF, CRLF or CR only (the newlines
    ``open()`` translates), so errors carry 1-based physical line numbers.
    The rules are those of the ``Graph`` constructor, checked here once each,
    so the graph is built without the constructor's second pass.
    """
    vertices: list[str] = []
    vset: set[str] = set()
    eset: set[str] = set()
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
            if vid in vset:
                raise DuplicateIdError(f"duplicate vertex id {vid!r}", lineno)
            vset.add(vid)
            vertices.append(vid)
        elif tokens[0] == "edge":
            if len(tokens) != 4:
                raise GraphSyntaxError("expected 'edge <id> <src-vertex> <dst-vertex>'", lineno)
            eid, src, dst = tokens[1:]
            _check_ident(eid, lineno)
            for v in (src, dst):
                if v not in vset:  # a declared vertex passed this check on its own line
                    _check_ident(v, lineno)
                    pending.append((lineno, v))
            if eid in eset:
                raise DuplicateIdError(f"duplicate edge id {eid!r}", lineno)
            eset.add(eid)
            edges.append((eid, src, dst))
        else:
            raise GraphSyntaxError(f"unknown directive {tokens[0]!r}", lineno)
    for lineno, v in pending:
        if v not in vset:
            raise UnknownVertexError(f"unknown vertex {v!r}", lineno)
    g = Graph.__new__(Graph)
    g._init(tuple(vertices), tuple(edges))
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
