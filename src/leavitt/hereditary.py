"""Hereditary vertex-set calculus over a finite directed graph.

Covers annihilator sets, arrival paths with finiteness witnesses, minimal
hereditary sets, cycle equivalence of the minimal sets, the two Boolean
algebras they generate, and the structure report that predicts the center
of the associated Leavitt path algebra.

Every one of these is a reachability fact about the strongly connected
components (SCCs) of the graph, so each graph computes its SCCs once, on
first use, and keeps them with the facts derived from them (``_Index``).
The SCCs and their condensation come from Kosaraju's two sweeps, in
topological order.  One pass in reverse order then gives each SCC the set
of minimal sets it reaches, and the classes and their supports are read off
those sets: all vertices of an SCC reach exactly the same minimal sets.
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


def _as_vertex_set(g: Graph, ws: Iterable[str]) -> tuple[frozenset[str], int]:
    """The subset as a frozenset and as an int bitset, bit i for the vertex
    declared i-th; UnknownVertexError names the first member ``g`` lacks."""
    if isinstance(ws, str):
        # a string is an iterable of its characters, never a vertex set
        raise TypeError(f"expected a collection of vertex ids, not the string {ws!r}")
    W = frozenset(ws)
    return W, sum(1 << g.vertex_index(v) for v in W)


def is_hereditary(g: Graph, ws: Iterable[str]) -> bool:
    """True when every edge from the subset stays inside it."""
    try:
        _require_hereditary(g, ws)
    except NotHereditaryError:
        return False
    return True


def _require_hereditary(g: Graph, ws: Iterable[str]) -> tuple[frozenset[str], int]:
    """``_as_vertex_set`` of a subset that no edge leaves; NotHereditaryError
    names the first leaving edge found."""
    W, mask = _as_vertex_set(g, ws)
    for v in W:
        for e in g.out_edges(v):
            t = g.target_of(e)
            if t not in W:
                raise NotHereditaryError(W, f"not hereditary: edge {e!r} leaves the subset at {v!r} -> {t!r}")
    return W, mask


def _bit_indexes(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a nonnegative ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _members(g: Graph, mask: int) -> frozenset[str]:
    """The vertices whose bit is set; ``~mask`` gives the complement."""
    return frozenset(map(g.vertices.__getitem__, _bit_indexes(mask & (1 << len(g.vertices)) - 1)))


def perp(g: Graph, ws: Iterable[str]) -> frozenset[str]:
    """Vertices with no path into the subset (the annihilator complement)."""
    W, _ = _as_vertex_set(g, ws)
    return _members(g, ~_index(g).reach(W))


def is_finitary(g: Graph, ws: Iterable[str]) -> bool:
    """True when the subset has finitely many arrival paths.

    Equivalent to: no cycle disjoint from the subset reaches it.
    """
    W, mask = _require_hereditary(g, ws)
    idx = _index(g)
    return not idx.reach(W) & ~mask & idx.cyclic


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


def _arrival_region(g: Graph, ws: Iterable[str]) -> tuple[frozenset[str], list[str]]:
    """The hereditary subset W and the vertices outside it that reach it,
    successors first; NotFinitaryError when a cycle lies among the latter."""
    W, mask = _require_hereditary(g, ws)
    idx = _index(g)
    outside = idx.reach(W) & ~mask
    looping = outside & idx.cyclic
    if looping:
        # shortest cycle through the first-declared cycle vertex outside W
        v = g.vertices[(looping & -looping).bit_length() - 1]
        raise NotFinitaryError(W, g.cycle(_shortest_path(g, v, (v,)).edges), _shortest_path(g, v, W))
    # outside W is acyclic; reverse topological order puts successors first
    return W, sorted(_members(g, outside), key=idx.comp_of.__getitem__, reverse=True)


def _arrivals(g: Graph, ws: Iterable[str]) -> list[Path]:
    """The arrival paths into the subset, unsorted; NotFinitaryError if infinite."""
    W, below = _arrival_region(g, ws)
    tails = dict.fromkeys(W, ((),))  # the edge sequences of the arrival paths from each vertex
    paths = [g.vertex_path(w) for w in W]
    for v in below:
        tails[v] = [(e,) + rest for e in g.out_edges(v) for rest in tails.get(g.target_of(e), ())]
        paths.extend(Path(v, seq, g.target_of(seq[-1])) for seq in tails[v])
    return paths


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


def _strong_components(g: Graph) -> tuple[list[frozenset[str]], dict[str, int], list[set[int]]]:
    """Kosaraju's two sweeps: the SCCs in topological order, each vertex's
    SCC, and each SCC's successors, itself exactly when it holds a cycle.

    In reverse order of finishing a depth-first search, each unplaced vertex
    lies in an SCC no other unplaced SCC reaches: its unplaced ancestors.
    The second sweep reads each edge once, as an in-edge of its target, whose
    source is then placed in that SCC or an earlier one.
    """
    finished: list[str] = []
    seen: set[str] = set()
    for root in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(g.out_edges(root)))]
        while work:
            v, it = work[-1]
            for e in it:
                t = g.target_of(e)
                if t not in seen:
                    seen.add(t)
                    work.append((t, iter(g.out_edges(t))))
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
            for e in g.in_edges(v):
                s = g.source_of(e)
                if s not in comp_of:
                    comp_of[s] = i
                    comp.append(s)
                succs[comp_of[s]].add(i)
        comps.append(frozenset(comp))
    return comps, comp_of, succs


class _Index:
    """The SCCs of one graph and the facts this module derives from them.

    SCC ``i`` is the ``i``-th in Kosaraju's topological order, before every
    SCC it reaches.  Vertex sets are bitsets (see ``_as_vertex_set``), and
    so are sets of minimal-set indexes.  One pass in reverse topological
    order gives each SCC its mask, the minimal sets it reaches: the union of
    its successors' masks.  An SCC's vertices reach exactly the minimal sets
    in its mask, so the classes, their supports and every double annihilator
    of a union of minimal sets are read off the distinct masks, with no
    further search.
    The index keeps only names, ints and frozensets: a reference back to the
    graph would form a cycle that outlives the graph until the garbage
    collector runs.
    """

    def __init__(self, g: Graph):
        comps, self.comp_of, succs = _strong_components(g)
        bits = [0] * len(comps)
        for k, v in enumerate(g.vertices):
            bits[self.comp_of[v]] |= 1 << k
        self.cyclic = 0  # vertices on a cycle
        self.reach_into = bits[:]  # per SCC, the vertices with a path into it
        loops = []  # the SCCs that hold a cycle
        for i, below in enumerate(succs):
            if i in below:
                self.cyclic |= bits[i]
                loops.append(i)
                below.remove(i)
            for j in below:
                self.reach_into[j] |= self.reach_into[i]
        # the lowest bit orders the sinks as their first-declared vertices do
        sinks = sorted((i for i, below in enumerate(succs) if not below), key=lambda i: bits[i] & -bits[i])
        self.minimal = tuple(comps[i] for i in sinks)
        hits = [0] * len(comps)  # per SCC, the minimal sets it reaches
        for j, i in enumerate(sinks):
            hits[i] = 1 << j
        for i in range(len(comps) - 1, -1, -1):
            for j in succs[i]:
                hits[i] |= hits[j]
        self.by_mask: dict[int, int] = {}  # mask -> the vertices of the SCCs with it
        for h, b in zip(hits, bits):
            self.by_mask[h] = self.by_mask.get(h, 0) | b

        # the minimal sets below one cyclic SCC fall into one class: cls[j] is
        # the class of minimal set j, as a mask shared by all its members
        cls = [1 << j for j in range(len(sinks))]
        for h in {hits[i] for i in loops}:
            if h & ~cls[(h & -h).bit_length() - 1]:  # h spans two classes: merge
                for j in _bit_indexes(h):
                    h |= cls[j]
                for j in _bit_indexes(h):
                    cls[j] = h
        self.classes = [_bit_indexes(c) for j, c in enumerate(cls) if c & -c == 1 << j]
        # the support of a class holds the SCCs that reach no other minimal set
        supports = dict.fromkeys(cls, 0)
        for h, b in self.by_mask.items():
            c = cls[(h & -h).bit_length() - 1]
            if not h & ~c:
                supports[c] |= b
        summands = []
        for members in self.classes:
            i = sinks[members[0]]
            finitary = not self.reach_into[i] & ~bits[i] & self.cyclic
            cycle = _ne_cycle_covering(g, comps[i]) if len(members) == 1 and finitary else None
            summands.append(ClassSummand(members, _members(g, supports[cls[members[0]]]), cycle))
        self.summands = tuple(summands)

    def reach(self, W: Iterable[str]) -> int:
        """Vertices with a path (length >= 0) into ``W``."""
        out = 0
        for c in {self.comp_of[v] for v in W}:
            out |= self.reach_into[c]
        return out

    def support(self, g: Graph, chosen: int) -> frozenset[str]:
        """Double annihilator of the union of the minimal sets in the bitset
        ``chosen``, read off the table of distinct masks.

        Every vertex reaches some minimal set, and each minimal set outside
        the union lies in its annihilator; so the double annihilator is the
        set of vertices that reach no minimal set outside the union.  An
        SCC's vertices reach exactly the minimal sets in its mask, so these
        are the SCCs whose mask lies inside ``chosen``.
        """
        return _members(g, sum(b for h, b in self.by_mask.items() if not h & ~chosen))


def _index(g: Graph) -> _Index:
    """The index of ``g``, built on first use and kept on the graph."""
    if g._scc_index is None:
        g._scc_index = _Index(g)
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
    """The supports of the 2^n unions of n groups of minimal-set indexes, sorted."""
    idx = _structure(g)
    n = len(groups)
    masks = [sum(1 << i for i in grp) for grp in groups]
    picks = (sum(masks[j] for j in _bit_indexes(pick)) for pick in range(1 << n))
    members = {idx.support(g, picked) for picked in picks}
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


def _ne_cycle_covering(g: Graph, W: frozenset[str]) -> Cycle | None:
    """The exit-free cycle whose vertex set is ``W``, if one exists.

    ``W`` must be a terminal strongly connected component; then it is covered
    by a single cycle exactly when every member has out-degree one.
    """
    if any(len(g.out_edges(v)) != 1 for v in W):
        return None
    v = min(W, key=g.vertex_index)  # the canonical rotation starts here
    sources, edges = [], []
    for _ in W:  # the walk closes after |W| steps when its cycle covers W
        sources.append(v)
        edges.append(g.out_edges(v)[0])
        v = g.target_of(edges[-1])
    if v != sources[0] or set(sources) != W:
        raise AssertionError("terminal component is not covered by its cycle")
    return Cycle(Path(v, tuple(edges), v), tuple(sources))


def center_structure(g: Graph) -> CenterReport:
    """Predict the center: one Laurent summand per finitary exit-free cycle
    class, one field summand per remaining class."""
    idx = _structure(g)
    return CenterReport(g, idx.minimal, idx.summands)
