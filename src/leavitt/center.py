"""Central elements of a Leavitt path algebra and an independent cross-check.

The constructive side writes each central idempotent, the sum of [p][p]
over the arrival paths p into a finitary hereditary subset, straight in
normal form in one pass over the vertices that reach it, successors first,
and each graded basis element as the sum of [p rot^k][p] over the arrival
paths p into an exit-free cycle.
``brute_force_center`` knows none of that theory: it solves the linear
commutation constraints directly over the monomial basis and is used to
validate the construction.  It works on plain tuples of names: a candidate
[p][q] is (u, p's edges, q's edges, r), read sorted off path layers, and a
row key is (generator, left source, left edges, right source, right edges),
written by a one-edge rule that emits basic terms only.  A ``Monomial`` is
built only for a term of a returned element.  Most rows force their column
to zero; ``_nullspace`` sets those columns aside.
"""

from __future__ import annotations

from .graph import Cycle, Graph, Path, _Value, cycle_exits
from .hereditary import _arrival_region, _arrivals, center_structure
from .algebra import Element, LeavittAlgebra, Monomial

__all__ = [
    "HasExitError",
    "idempotent",
    "cycle_generator",
    "embed",
    "CentralBasis",
    "center_basis",
    "center_dimension_predicted",
    "oracle_bound",
    "brute_force_center",
    "span_dimension",
    "spans_equal",
]


class HasExitError(ValueError):
    """The cycle has an exit, so its rotation sums are not central."""


def idempotent(algebra: LeavittAlgebra, ws) -> Element:
    """Central idempotent of a finitary annihilator subset W: the sum of
    p p^* over the arrival paths p into W, written straight in normal form.

    One pass over the vertices that reach W, successors first, gives N_v,
    the sum over the arrival paths from v; c_u is the coefficient of u in
    N_u, and 0 when u does not reach W.  N_w = w on W.  Off W, with e the
    special edge at v, c_v = c_t(e) and N_v is c_v v, plus c [f a][f a] for
    each out-edge f and term c [a][a] of N_t(f) with |a| >= 1, plus
    (c_t(g) - c_v) [g][g] for each out-edge g, which is 0 for g = e.  That
    is the sum of f N_t(f) f^* with its one non-basic term, c_t(e) [e][e],
    rewritten by the vertex relation [e][e] = v - sum of [g][g] over g != e;
    [f a][f a] keeps a's last edge, and no two terms are one monomial.
    """
    g, field = algebra.graph, algebra.field
    W, below = _arrival_region(g, ws)
    coeff = dict.fromkeys(W, 1)  # c_v for every v that reaches W
    tails = dict.fromkeys(W, ())  # the terms c [a][a] of N_v with |a| >= 1, as (a, c)
    for v in below:
        cv = coeff[v] = coeff.get(g.target_of(algebra.specialization[v]), 0)
        acc = tails[v] = []
        for f in g.out_edges(v):
            t = g.target_of(f)
            acc.extend((Path(v, (f,) + a.edges, a.target), c) for a, c in tails.get(t, ()))
            if diff := coeff.get(t, 0) - cv:
                acc.append((Path(v, (f,), t), field.reduce(diff)))
    terms = {Monomial(p, p): field.one for p in (Path(v, (), v) for v, cv in coeff.items() if cv)}
    terms.update((Monomial(a, a), c) for acc in tails.values() for a, c in acc)
    return Element(algebra, terms)


def cycle_generator(algebra: LeavittAlgebra, c: Cycle) -> Element:
    """Sum of the rotations of an exit-free cycle, each based at its own
    start vertex.  Central in the corner algebra over the cycle's vertices.

    Each term [rot_s][@s] has an empty right path, so it is basic.
    """
    exits = cycle_exits(algebra.graph, c)
    if exits:
        raise HasExitError(
            f"cycle {c} has exit edge {exits[0]!r}; its rotation sum is not central"
        )
    one = algebra.field.one
    terms = {}
    for i, s in enumerate(c.sources):
        terms[Monomial(Path(s, c.edges[i:] + c.edges[:i], s), Path(s, (), s))] = one
    return Element(algebra, terms)


def embed(algebra: LeavittAlgebra, ws, a: Element) -> Element:
    """Conjugate an element supported on a finitary annihilator subset out
    to the whole algebra: sum of p a p^* over arrival paths p.

    Conjugating a monomial x y^* by one path needs that path to end at the
    shared source of x and y, so every monomial of ``a`` must have both its
    paths based at one vertex of the subset.
    """
    if a.algebra != algebra:
        raise ValueError("element belongs to a different algebra")
    g = algebra.graph
    arrivals = _arrivals(g, ws)
    inside = frozenset(ws)
    terms = {}
    for m, c in a._terms.items():
        if m.left.source != m.right.source:
            raise ValueError(f"monomial {m} is not based at a single vertex")
        if m.left.source not in inside:
            raise ValueError(f"monomial {m} is not supported inside the subset")
        for p in arrivals:
            if p.target != m.left.source:
                continue
            terms[Monomial(g.concat(p, m.left), g.concat(p, m.right))] = c
    return Element(algebra, algebra._normal_form(terms))


class CentralBasis(_Value):
    """A basis of one graded piece of the center, with provenance strings."""

    __slots__ = __match_args__ = ("degree", "elements", "provenance")

    def __init__(self, degree: int, elements: tuple, provenance: tuple):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "provenance", provenance)

    def __len__(self) -> int:
        return len(self.elements)


def center_basis(algebra: LeavittAlgebra, d: int) -> CentralBasis:
    """Basis of the degree-d homogeneous piece of the center.

    Degree 0 yields the idempotents of the class supports.  Degree d != 0
    yields, for each Laurent summand whose cycle c has length n dividing
    |d|, the sum over the arrival paths p into c's vertex set of [p rot^k][p]
    (sides swapped for d < 0), with k = |d|/n and rot the cycle read from
    where p ends.  That is ``embed(alg, C, cycle_generator(alg, c) ** k)``,
    starred for d < 0, term for term.  Every term is basic: its left side
    ends with a cycle edge and its right side does not.  The index built c
    with no exit, so nothing is re-checked.
    """
    report = center_structure(algebra.graph)
    elements: list[Element] = []
    provenance: list[str] = []
    if d == 0:
        for s in report.summands:
            elements.append(idempotent(algebra, s.support))
            sup = "{" + ",".join(algebra.graph.sorted_vertices(s.support)) + "}"
            provenance.append(f"idempotent of {sup}")
        return CentralBasis(0, tuple(elements), tuple(provenance))
    one = algebra.field.one
    for s in report.summands:
        c = s.cycle
        if c is None or d % c.length != 0:
            continue
        k = abs(d) // c.length
        rot = {v: (c.edges[i:] + c.edges[:i]) * k for i, v in enumerate(c.sources)}
        terms = {}
        for p in _arrivals(algebra.graph, c.vertex_set):
            lifted = Path(p.source, p.edges + rot[p.target], p.target)
            terms[Monomial(lifted, p) if d > 0 else Monomial(p, lifted)] = one
        elements.append(Element(algebra, terms))
        provenance.append(f"cycle {c} to the power {k}")
    return CentralBasis(d, tuple(elements), tuple(provenance))


def center_dimension_predicted(graph: Graph, d: int) -> int:
    """Dimension of the degree-d piece of the center, from the structure
    of the finitary annihilator algebra alone."""
    report = center_structure(graph)
    if d == 0:
        return len(report.summands)
    return sum(
        1
        for s in report.summands
        if s.cycle is not None and d % s.cycle.length == 0
    )


def oracle_bound(graph: Graph, d: int) -> int:
    """Monomial size cap that provably captures the whole degree-d center.

    Every constructed basis element of degree d has monomial size at most
    2*base + |d| where base is the longest arrival path into a field
    summand's support or a Laurent cycle's vertex set.  Any arrival path
    into a Laurent support extends, along a shortest path into the cycle,
    to one at least as long into the cycle, so the support needs no search
    of its own.  The extra slack leaves room for the oracle to notice
    elements just past the boundary.
    """
    base = 0
    for s in center_structure(graph).summands:
        ws = s.support if s.cycle is None else s.cycle.vertex_set
        base = max([base, *(p.length for p in _arrivals(graph, ws))])
    return 2 * base + abs(d) + 2


# -- linear algebra over the active field -----------------------------------


def _row_reduce(rows: list[dict], field) -> tuple[list[dict], dict]:
    """Sparse reduced row echelon form.  Returns (rows, pivot column -> row index)."""
    red = field.reduce
    pivots: dict = {}
    reduced: list[dict] = []
    for row in rows:
        row = dict(row)
        # stored pivot rows never contain each other's pivot columns, so one
        # pass over the pivot columns present in the incoming row clears all
        for c in [c for c in row if c in pivots]:
            lead = row[c]
            for c2, v2 in reduced[pivots[c]].items():
                total = red(row.get(c2, 0) - lead * v2)
                if total:
                    row[c2] = total
                else:
                    row.pop(c2, None)
        if not row:
            continue
        col = min(row)
        inv = field.inverse(row[col])
        row = {c: red(v * inv) for c, v in row.items()}
        for prior in reduced:
            if col in prior:
                lead = prior[col]
                for c2, v2 in row.items():
                    total = red(prior.get(c2, 0) - lead * v2)
                    if total:
                        prior[c2] = total
                    else:
                        prior.pop(c2, None)
        pivots[col] = len(reduced)
        reduced.append(row)
    return reduced, pivots


def _nullspace(rows: list[dict], ncols: int, field) -> list[dict]:
    """Basis of the solution space of rows * x = 0, columns 0..ncols-1.

    Rows hold entries that are nonzero in the field, as field scalars or as
    ints such as the oracle's 1 and -1, which elimination reduces where it
    uses them.  A row with one entry forces its column to 0, and so does a
    row left with one entry once the forced columns are dropped; this
    repeats, with no scalar arithmetic, until no new column is forced.  Only
    the rest of the system is eliminated, and no forced column is free.  The
    basis is the one that eliminating the whole system gives: a forced
    column's row in the unique reduced row echelon form is its unit vector,
    so the other rows of that form are the form of the rest, and every basis
    vector is unchanged.  Every column of a reduced row other
    than its pivot is free, so the basis is read off the rows' own entries.
    """
    forced: set = set()
    while True:
        rest, newly = [], set()
        for row in rows:
            live = [c for c in row if c not in forced]
            if len(live) == 1:
                newly.add(live[0])
            elif live:
                rest.append(row)
        if not newly:
            break
        forced |= newly
        rows = rest
    reduced, pivots = _row_reduce(
        [{c: v for c, v in row.items() if c not in forced} for row in rest], field
    )
    basis = {c: {c: field.one} for c in range(ncols) if c not in pivots and c not in forced}
    for col, idx in pivots.items():
        for f, coeff in reduced[idx].items():
            if f != col:
                basis[f][col] = field.reduce(-coeff)
    return list(basis.values())


def _edge_terms(maps: tuple, c: tuple, key: dict) -> list[tuple[tuple, int]]:
    """The products of a candidate c = (u, p, q, r), the monomial m = [p][q],
    and one edge generator, as basic terms (row key, sign): sign 1 for
    m gen, -1 for gen m.  The row key is (k, left source, left edges, right
    source, right edges), with k = ``key[e]`` for e and ``key[e] + 1`` for
    e*; ``maps`` holds the graph's source, target, in- and out-edge maps and
    its special edges.

    A product of monomials is nonzero exactly when one inner path continues
    the other, so for an edge e:
      e m = [e p][q] and m e* = [p][e q] when e ends at u;
      m e = [p][q'] when q = e q', and [p e][@t(e)] when q is the vertex r;
      e* m = [p'][q] when p = e p', and [@t(e)][q e] when p is the vertex r;
    and every other product is 0.  Only e m = [e][q' e], when p is the vertex,
    and m e* = [p' e][e], when q is, can be non-basic, for e special: the
    vertex relation at s(e) writes [a e][b e] as [a][b] minus the sum of
    [a f][b f] over the other out-edges f of s(e).
    """
    src, dst, ins, outs, special = maps
    u, p, q, r = c
    terms = []
    for e in ins[u]:
        s, k = src[e], key[e]
        terms.append(((k, s, (e,) + p, u, q), -1))
        terms.append(((k + 1, u, p, s, (e,) + q), 1))
    if q:
        terms.append(((key[q[0]], u, p, dst[q[0]], q[1:]), 1))
    if p:
        terms.append(((key[p[0]] + 1, dst[p[0]], p[1:], u, q), -1))
    if not (p and q):
        for e in outs[r]:
            if not q:
                terms.append(((key[e], u, p + (e,), dst[e], ()), 1))
            if not p:
                terms.append(((key[e] + 1, dst[e], (), u, q + (e,)), -1))
        e = (p or q or (None,))[-1]
        if e in special:
            # replace [a e][b e], with a = p' and b = q', by its normal form
            a, b, s = p[:-1], q[:-1], src[e]
            k, ls, rs, sign = (key[e], s, u, -1) if q else (key[e] + 1, u, s, 1)
            terms[terms.index(((k, ls, a + (e,), rs, b + (e,)), sign))] = ((k, ls, a, rs, b), sign)
            for f in outs[s]:
                if f != e:
                    terms.append(((k, ls, a + (f,), rs, b + (f,)), -sign))
    return terms


def _candidates(algebra: LeavittAlgebra, d: int, max_support: int) -> list[tuple]:
    """The oracle's unknowns, basic monomials [p][q] of degree d and size at
    most max_support whose paths share a source u and range r, in
    ``monomial_key`` order, each as the flat tuple (u, p's edges, q's edges, r).

    Layer 0 holds the vertices and layer 1 the edges, and each later layer
    extends the one before through the out-edges, all in declaration order.
    So every layer is in ``Graph.path_key`` order, and no sort is needed.
    """
    g, special = algebra.graph, algebra.specialization.special_edges
    dst, outs = g._dst, g._out
    by_len = [[(v, (), v) for v in g.vertices]]
    limit = (max_support + abs(d)) // 2
    if limit >= 1:
        by_len.append([(s, (e,), t) for e, s, t in g.edges])
    for _ in range(limit - 1):
        by_len.append([(s, es + (e,), dst[e]) for s, es, t in by_len[-1] for e in outs[t]])

    candidates: list[tuple] = []
    for lq in range(len(by_len)):
        lp = lq + d
        if lp < 0 or lp >= len(by_len) or lp + lq > max_support:
            continue
        by_pair: dict[tuple[str, str], list] = {}
        for s, es, t in by_len[lq]:
            by_pair.setdefault((s, t), []).append(es)
        for u, p, r in by_len[lp]:
            for q in by_pair.get((u, r), ()):
                # not basic: both paths end with the same special edge
                if not (lp and lq and p[-1] == q[-1] and p[-1] in special):
                    candidates.append((u, p, q, r))
    return candidates


def brute_force_center(algebra: LeavittAlgebra, d: int, max_support: int) -> list[Element]:
    """Degree-d central elements by direct linear algebra, no structure theory.

    Unknowns are the basic monomials of degree d and size at most
    max_support whose two paths share a source vertex: commutation with the
    vertex generators alone forces that diagonal shape, so the restriction
    loses nothing.  Edge and edge-star commutators give the linear system,
    one row per (generator, output monomial).  Candidates and row keys are
    plain tuples of names, each term comes from a one-edge rule of
    ``_edge_terms``, which emits basic terms only, and a ``Monomial`` is
    built only for a term of a returned element.  Each term's sign is summed
    into its row where it lands, so the rows hold the ints 1 and -1, which
    ``_row_reduce`` reduces into the field as it eliminates.
    """
    g, field = algebra.graph, algebra.field
    maps = (g._src, g._dst, g._in, g._out, algebra.specialization.special_edges)
    candidates = _candidates(algebra, d, max_support)

    # edge number k gives the generators e and e*, with row keys 2k and 2k+1
    key = {e: 2 * k for k, e in enumerate(g.edge_ids())}
    rows: dict[tuple, dict] = {}
    for i, c in enumerate(candidates):
        # terms can cancel: for a loop a at v, a [a][@v] and [a][@v] a are
        # both [a a][@v].  No two terms of m gen, or of gen m, are one
        # monomial, so each sum is -1, 0 or 1, and 0 is decided over the ints
        for out, sign in _edge_terms(maps, c, key):
            row = rows.setdefault(out, {})
            if total := row.pop(i, 0) + sign:
                row[i] = total

    elements = []
    for vec in _nullspace(list(rows.values()), len(candidates), field):
        picked = ((candidates[i], c) for i, c in vec.items())
        terms = {Monomial(Path(u, p, r), Path(u, q, r)): c for (u, p, q, r), c in picked}
        elements.append(Element(algebra, terms))
    return elements


def span_dimension(elements) -> int:
    """Rank of a family of elements of one algebra."""
    elements = list(elements)
    if not elements:
        return 0
    algebra = elements[0].algebra
    field = algebra.field
    index: dict[Monomial, int] = {}
    rows = []
    for el in elements:
        if el.algebra != algebra:
            raise ValueError("elements live in different algebras")
        row = {}
        for m, c in el._terms.items():
            row[index.setdefault(m, len(index))] = c
        rows.append(row)
    reduced, _ = _row_reduce(rows, field)
    return len(reduced)


def spans_equal(first, second) -> bool:
    """Whether two families of elements span the same subspace."""
    first, second = list(first), list(second)
    r1 = span_dimension(first)
    r2 = span_dimension(second)
    return r1 == r2 == span_dimension(first + second)
