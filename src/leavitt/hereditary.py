"""Hereditary vertex-set calculus over a finite directed graph.

Covers annihilator sets, arrival paths with finiteness witnesses, minimal
hereditary sets, cycle equivalence of the minimal sets, the two Boolean
algebras they generate, and the structure report that predicts the center
of the associated Leavitt path algebra.

The structure is a reachability fact about the strongly connected
components (SCCs) of the graph, so each graph computes its SCCs once, on
first use, and keeps them with the facts derived from them (``_Index``).
The SCCs and their condensation come from Kosaraju's two sweeps, in
topological order.  One pass in reverse order then gives each SCC the set
of minimal sets it reaches, and the classes, their supports and which of
them are finitary are read off those sets: all vertices of an SCC reach
exactly the same minimal sets.  The vertices that reach a subset come from
one search back along the in-edges from it (``_into``), which costs the
size of what it finds and their in-edges.  ``perp`` is its complement;
``_below`` sorts the part outside a hereditary subset by SCC, successors
first, and is the arrival region of every support, cycle and join.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graph import Cycle, Graph, GraphError, Path, _Value

__all__ = [
    "NotHereditaryError",
    "NotFinitaryError",
    "FiniteArrivals",
    "InfiniteArrivals",
    "ClassSummand",
    "CenterReport",
    "is_hereditary",
    "perp",
    "arrival_paths",
    "is_finitary",
    "minimal_hereditary_sets",
    "equivalence_classes",
    "annihilator_boolean_algebra",
    "finitary_boolean_subalgebra",
    "center_structure",
]


class NotHereditaryError(GraphError):
    """The subset has an edge leaving it."""

    def __init__(self, subset: frozenset[str], message: str):
        self.subset = subset
        super().__init__(message)


class NotFinitaryError(GraphError):
    """The subset admits infinitely many arrival paths; carries a witness."""

    def __init__(self, subset: frozenset[str], witness: Cycle, connector: Path):
        self.subset = subset
        self.witness = witness
        self.connector = connector
        super().__init__(
            f"subset is not finitary: cycle {witness} stays outside it and reaches it via {connector}"
        )


class FiniteArrivals(_Value):
    """Complete list of arrival paths, sorted by (length, edge ids)."""

    __slots__ = __match_args__ = ("paths",)

    def max_length(self) -> int:
        return max((p.length for p in self.paths), default=0)


class InfiniteArrivals(_Value):
    """Marker that the arrival-path set is infinite, with a pumping witness."""

    __slots__ = __match_args__ = ("witness", "connector")


def _as_vertex_set(g: Graph, ws: Iterable[str]) -> tuple[str, ...]:
    """The subset's vertices in declaration order.  ``sorted`` reads ``ws``
    once and looks up each id's index in the caller's order, so
    UnknownVertexError names the first member ``g`` lacks."""
    if isinstance(ws, str):
        # a string is an iterable of its characters, never a vertex set
        raise TypeError(f"expected a collection of vertex ids, not the string {ws!r}")
    return g.sorted_vertices(ws)


def is_hereditary(g: Graph, ws: Iterable[str]) -> bool:
    """True when every edge from the subset stays inside it."""
    try:
        _require_hereditary(g, ws)
    except NotHereditaryError:
        return False
    return True


def _require_hereditary(g: Graph, ws: Iterable[str]) -> frozenset[str]:
    """The subset, which no edge may leave; NotHereditaryError names the
    first leaving edge, walking the subset in declaration order."""
    order = _as_vertex_set(g, ws)
    W, dst = frozenset(order), g._dst
    for v in order:
        for e in g._out[v]:
            if dst[e] not in W:
                raise NotHereditaryError(W, f"not hereditary: edge {e!r} leaves the subset at {v!r} -> {dst[e]!r}")
    return W


def _bit_indexes(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a nonnegative ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _into(g: Graph, ws: Iterable[str]) -> set[str]:
    """The vertices with a path (length >= 0) into the vertices ``ws``: one
    search back along the in-edges, over what it finds and their in-edges."""
    inc, src = g._in, g._src
    seen = set(ws)
    todo = list(seen)
    for v in todo:  # grows while it is read
        for e in inc[v]:
            if (s := src[e]) not in seen:
                seen.add(s)
                todo.append(s)
    return seen


def perp(g: Graph, ws: Iterable[str]) -> frozenset[str]:
    """Vertices with no path into the subset (the annihilator complement)."""
    return frozenset(g._vindex.keys() - _into(g, _as_vertex_set(g, ws)))


def is_finitary(g: Graph, ws: Iterable[str]) -> bool:
    """True when the subset has finitely many arrival paths.

    Equivalent to: no cycle disjoint from the subset reaches it.
    """
    try:
        _arrival_region(g, ws)
    except NotFinitaryError:
        return False
    return True


def _shortest_path(g: Graph, start: str, goal: Iterable[str]) -> Path:
    """Breadth-first shortest path of length >= 1 from ``start`` into ``goal``."""
    via: dict[str, str] = {}  # vertex -> the edge that first reached it
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for e in g.out_edges(v):
                t = g.target_of(e)
                if t in via:
                    continue
                via[t] = e
                if t in goal:
                    edges = [e]
                    while g.source_of(edges[-1]) != start:
                        edges.append(via[g.source_of(edges[-1])])
                    return g.path(start, reversed(edges))
                nxt.append(t)
        frontier = nxt
    raise AssertionError(f"{start!r} does not reach the goal")


def _below(g: Graph, W: Iterable[str]) -> list[str]:
    """The arrival region of the hereditary subset W: the vertices outside
    it that reach it, successors first; NotFinitaryError when a cycle lies
    among them.

    W is a union of SCCs, and so is the region, which is sorted by SCC in
    descending topological order, successors first.  When no SCC of it
    holds a cycle each is one vertex, so the order is fixed.
    """
    idx = _index(g)
    below = sorted(_into(g, W).difference(W), key=idx.comp_of.__getitem__, reverse=True)
    if looping := idx.looped.intersection(map(idx.comp_of.__getitem__, below)):
        # shortest cycle through the first-declared cycle vertex outside W
        v = next(v for v in g.vertices if idx.comp_of[v] in looping)
        W = frozenset(W)
        raise NotFinitaryError(W, g.cycle(_shortest_path(g, v, (v,)).edges), _shortest_path(g, v, W))
    return below


def _arrival_region(g: Graph, ws: Iterable[str]) -> tuple[frozenset[str], list[str]]:
    """The subset W, checked hereditary, and its arrival region (``_below``)."""
    W = _require_hereditary(g, ws)
    return W, _below(g, W)


def _arrival_ends(g: Graph, W: Iterable[str], below: Iterable[str]) -> dict[str, list[tuple[tuple[str, ...], str]]]:
    """The arrival paths into W from each vertex that reaches it, as (edges,
    range) pairs, given the vertices ``below`` outside W that reach it,
    successors first: a path from v is an out-edge e of v and a path from
    the target of e."""
    out, dst = g._out, g._dst
    ends = {w: [((), w)] for w in W}
    for v in below:
        ends[v] = [((e,) + p, r) for e in out[v] for p, r in ends.get(dst[e], ())]
    return ends


def _arrivals(g: Graph, ws: Iterable[str]) -> list[Path]:
    """The arrival paths into the subset, unsorted; NotFinitaryError if infinite."""
    return [Path(v, p, r) for v, ends in _arrival_ends(g, *_arrival_region(g, ws)).items() for p, r in ends]


def arrival_paths(g: Graph, ws: Iterable[str]) -> FiniteArrivals | InfiniteArrivals:
    """All paths that end in the subset with every earlier source outside it.

    Each member vertex counts as a length-0 arrival path.  The empty subset
    has no arrival paths.  When the set is infinite, returns the witness
    cycle (disjoint from the subset) and a connector path into the subset.
    """
    try:
        paths = _arrivals(g, ws)
    except NotFinitaryError as exc:
        return InfiniteArrivals(exc.witness, exc.connector)
    paths.sort(key=g.path_key)
    return FiniteArrivals(tuple(paths))


def _strong_components(g: Graph) -> tuple[list[list[str]], dict[str, int], list[set[int]]]:
    """Kosaraju's two sweeps: the SCCs in topological order, each as the
    list of its vertices, each vertex's SCC, and each SCC's successors,
    itself exactly when it holds a cycle.

    In reverse order of finishing a depth-first search, each unplaced vertex
    lies in an SCC no other unplaced SCC reaches: its unplaced ancestors.
    The second sweep reads each edge once, as an in-edge of its target, whose
    source is then placed in that SCC or an earlier one.  Both sweeps read
    the graph's adjacency tables directly.
    """
    out, dst, inc, src = g._out, g._dst, g._in, g._src
    finished: list[str] = []
    seen: set[str] = set()
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(out[root]))]
        while work:
            v, it = work[-1]
            for e in it:
                t = dst[e]
                if t not in seen:
                    seen.add(t)
                    work.append((t, iter(out[t])))
                    break
            else:
                work.pop()
                finished.append(v)
    comps, comp_of, succs = [], {}, []
    for root in reversed(finished):
        if root in comp_of:
            continue
        i = comp_of[root] = len(comps)
        succs.append(set())
        comp = [root]
        for v in comp:  # grows while it is read
            for e in inc[v]:
                s = src[e]
                if s not in comp_of:
                    comp_of[s] = i
                    comp.append(s)
                succs[comp_of[s]].add(i)
        comps.append(comp)
    return comps, comp_of, succs


class _Index:
    """The SCCs of one graph and the facts this module derives from them.

    SCC ``i`` is the ``i``-th in Kosaraju's topological order, before every
    SCC it reaches.  Sets of minimal-set indexes are int masks, bit j for
    the j-th minimal set.  One pass in reverse topological order gives each
    SCC its mask, the minimal sets it reaches: the union of its successors'
    masks.  An SCC's vertices reach exactly the minimal sets in its mask, so
    the classes, their supports and every double annihilator of a union of
    minimal sets are read off the masks, with no further search.

    The minimal sets that one cycle reaches fall into one class, and a
    one-set class is finitary unless a cycle outside its set reaches it.
    The support of a class holds the SCCs whose mask lies inside the class.
    Arrival regions are searched, not kept (``_below``): the index gives
    them only each vertex's SCC, to sort by, and the SCCs that hold a
    cycle.  The ``ClassSummand`` values are built on first use.  The index
    keeps no reference back to the graph: that would form a cycle that
    outlives the graph until the garbage collector runs.
    """

    def __init__(self, g: Graph):
        comps, self.comp_of, succs = _strong_components(g)
        self.looped = {i for i, below in enumerate(succs) if i in below}  # the SCCs that hold a cycle
        for i in self.looped:
            succs[i].remove(i)  # each SCC's successors, itself left out
        # the minimal sets, ordered as their first-declared vertices are
        sinks = [i for _, i in sorted((min(map(g._vindex.__getitem__, comps[i])), i) for i, b in enumerate(succs) if not b)]
        self.minimal = tuple(frozenset(comps[i]) for i in sinks)
        hits = self.hits = [0] * len(comps)  # per SCC, the minimal sets it reaches
        for j, i in enumerate(sinks):
            hits[i] = 1 << j
        for i in range(len(comps) - 1, -1, -1):
            for j in succs[i]:
                hits[i] |= hits[j]
        # cls[j] is the class of minimal set j, as a mask shared by its members;
        # cycled holds the minimal sets that a cycle outside them reaches
        cls, cycled = [1 << j for j in range(len(sinks))], 0
        for h in {hits[i] for i in self.looped if succs[i]}:
            cycled |= h
            if h & ~cls[(h & -h).bit_length() - 1]:  # h spans two classes: merge
                for j in _bit_indexes(h):
                    h |= cls[j]
                for j in _bit_indexes(h):
                    cls[j] = h
        masks = list(dict.fromkeys(cls))  # each class once, in the order of its least member
        self.classes = [(c.bit_length() - 1,) if c & c - 1 == 0 else _bit_indexes(c) for c in masks]
        where = list(map({c: p for p, c in enumerate(masks)}.__getitem__, cls))  # each set's class
        home = {}  # per mask, the position of the class whose support holds its SCCs, else -1
        for h in set(hits):
            j = (h & -h).bit_length() - 1
            home[h] = -1 if h & ~cls[j] else where[j]
        self.supports = [[] for _ in masks]  # each in declaration order
        for v in g.vertices:
            if (p := home[hits[self.comp_of[v]]]) >= 0:
                self.supports[p].append(v)
        # a one-set class is Laurent when it is finitary and one cycle covers its set
        self.cycles = [None] * len(self.classes)  # per class, its Laurent cycle or None
        for i in self.looped:
            j = hits[i].bit_length() - 1
            if not succs[i] and cls[j] == hits[i] and not cycled & hits[i]:
                self.cycles[where[j]] = _ne_cycle_covering(g, comps[i])
        self._summands = None

    @property
    def summands(self) -> tuple[ClassSummand, ...]:
        """One summand per class, built on first use: ``center`` needs none."""
        if self._summands is None:
            self._summands = tuple(map(ClassSummand, self.classes, map(frozenset, self.supports), self.cycles))
        return self._summands


def _index(g: Graph) -> _Index:
    """The index of ``g``, built on first use and kept on the graph."""
    if g._scc_index is None:
        object.__setattr__(g, "_scc_index", _Index(g))
    return g._scc_index


def _structure(g: Graph) -> _Index:
    """The index of a graph with vertices, which every minimal set needs."""
    if not g.vertices:
        raise ValueError("graph has no vertices")
    return _index(g)


def minimal_hereditary_sets(g: Graph) -> list[frozenset[str]]:
    """The minimal nonempty hereditary subsets: terminal strongly connected components."""
    return list(_structure(g).minimal)


def equivalence_classes(g: Graph) -> list[tuple[int, ...]]:
    """Partition of the minimal-set indexes under the shared-cycle relation.

    Two minimal sets are related when one cycle avoids both and reaches both.
    Every cycle lies inside a single strongly connected component and shares
    its reachability, so it suffices to merge the sets of minimal sets that
    the components containing a cycle reach.
    """
    return list(_structure(g).classes)


def _joins(g: Graph, groups: list[tuple[int, ...]]) -> list[frozenset[str]]:
    """The supports of the 2^n unions of n groups of minimal-set indexes, sorted.

    The support of a union is its double annihilator.  Every vertex reaches
    some minimal set, and each minimal set outside the union lies in its
    annihilator; so the double annihilator is the set of vertices that reach
    no minimal set outside the union.  An SCC's vertices reach exactly the
    minimal sets in its mask, so these are the vertices whose SCC's mask,
    ``hits[comp_of[v]]``, lies inside the union.
    """
    idx = _structure(g)
    n = len(groups)
    masks = [sum(1 << i for i in grp) for grp in groups]
    picks = (sum(masks[j] for j in _bit_indexes(pick)) for pick in range(1 << n))
    members = {frozenset(v for v, i in idx.comp_of.items() if not idx.hits[i] & ~picked) for picked in picks}
    if len(members) != 1 << n:
        raise AssertionError(f"the Boolean algebra must have exactly 2^{n} members")
    return sorted(members, key=lambda s: (len(s), sorted(map(g.vertex_index, s))))


def annihilator_boolean_algebra(g: Graph) -> list[frozenset[str]]:
    """All annihilator hereditary subsets: double annihilators of unions of
    minimal sets.  Exactly 2^k of them."""
    return _joins(g, [(i,) for i in range(len(_structure(g).minimal))])


def finitary_boolean_subalgebra(g: Graph) -> list[frozenset[str]]:
    """All finitary annihilator hereditary subsets: Boolean joins of the class
    supports.  Exactly 2^m of them."""
    return _joins(g, _structure(g).classes)


class ClassSummand(_Value):
    """One equivalence class of minimal sets with its support and kind:
    ``cycle`` is the covering exit-free cycle when the summand is Laurent,
    else None."""

    __slots__ = __match_args__ = ("members", "support", "cycle")

    @property
    def is_laurent(self) -> bool:
        return self.cycle is not None

    @property
    def cycle_length(self) -> int | None:
        return self.cycle.length if self.cycle is not None else None


class CenterReport(_Value):
    """Structure of the center: one summand per equivalence class."""

    __slots__ = __match_args__ = ("graph", "minimal_sets", "summands")

    @property
    def laurent_count(self) -> int:
        return sum(1 for s in self.summands if s.is_laurent)

    @property
    def isomorphism(self) -> str:
        parts = ["F[t^-1,t]"] * self.laurent_count
        parts += ["F"] * (len(self.summands) - self.laurent_count)
        return " (+) ".join(parts)


def _ne_cycle_covering(g: Graph, W: list[str]) -> Cycle | None:
    """The exit-free cycle whose vertex set is ``W``, if one exists.

    ``W`` must list a terminal strongly connected component; then it is
    covered by a single cycle exactly when every member has out-degree one.
    """
    if any(len(g.out_edges(v)) != 1 for v in W):
        return None
    v = min(W, key=g.vertex_index)  # the canonical rotation starts here
    sources, edges = [], []
    for _ in W:  # the walk closes after |W| steps when its cycle covers W
        sources.append(v)
        edges.append(g.out_edges(v)[0])
        v = g.target_of(edges[-1])
    if v != sources[0] or set(sources) != set(W):
        raise AssertionError("terminal component is not covered by its cycle")
    return Cycle(Path(v, tuple(edges), v), tuple(sources))


def center_structure(g: Graph) -> CenterReport:
    """Predict the center: one Laurent summand per finitary exit-free cycle
    class, one field summand per remaining class."""
    idx = _structure(g)
    return CenterReport(g, idx.minimal, idx.summands)
