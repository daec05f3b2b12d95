"""Central elements of a Leavitt path algebra and an independent cross-check.

The constructive side writes each central idempotent, the sum of [p][p]
over the arrival paths p into a finitary hereditary subset, straight in
normal form in one pass over the vertices that reach it, successors first,
and each graded basis element as the sum of [p rot^k][p] over the arrival
paths p into an exit-free cycle.  Those vertices come from one search
back from the subset (``hereditary._below``).  ``center_basis`` and
``oracle_bound`` search from the class supports and Laurent cycles of the
graph's index (``hereditary._Index``), which need no check; only
``idempotent``, which takes any subset, checks it first.
``brute_force_center`` knows none of that theory: it solves the linear
commutation constraints directly over the monomial basis and is used to
validate the construction.  It works on plain tuples of names: a candidate
[p][q] is (u, p's edges, q's edges, r), read sorted off path layers that
each call builds, less those that a chain of in-edge rows forces to 0, at
every size (``_candidates``).  ``verify`` solves all its degrees as one
system, which is block-diagonal in the degree (``_center_by_degree``).  The
rows are built one edge at a time from two buckets, the candidates m by
source and under each edge e with m e != 0, each keyed by its output (left
source, left edges, right source, right edges) and written by one-edge rules
that emit basic terms only; the edge stars need no rows.  Most rows force
their column to zero and are dropped as the edge is done; ``_nullspace``
starts from those.  Both sides key each term of an element as ``Element``
does, by that flat (left source, left edges, right source, right edges)
tuple, so neither builds a ``Path`` or a ``Monomial``.
"""

from __future__ import annotations

from .graph import Graph, _Value
from .hereditary import _arrival_ends, _arrival_region, _below, _structure
from .algebra import AlgebraMismatchError, Element, LeavittAlgebra

__all__ = [
    "idempotent",
    "CentralBasis",
    "center_basis",
    "center_dimension_predicted",
    "oracle_bound",
    "brute_force_center",
    "span_dimension",
    "spans_equal",
]


def idempotent(algebra: LeavittAlgebra, ws) -> Element:
    """Central idempotent of a finitary annihilator subset W: the sum of
    p p^* over the arrival paths p into W, written straight in normal form.

    W is checked and its arrival region searched (``_arrival_region``); the
    terms are then those of ``_idempotent_terms``.
    """
    return Element(algebra, _idempotent_terms(algebra, *_arrival_region(algebra.graph, ws)))


def _idempotent_terms(algebra: LeavittAlgebra, W, below) -> dict:
    """The terms of the idempotent of W, given the vertices ``below`` that
    reach W from outside, successors first.

    One pass over them gives N_v, the sum over the arrival paths from v; c_u
    is the coefficient of u in N_u, and 0 when u does not reach W.  N_w = w
    on W.  Off W, with e the special edge at v, c_v = c_t(e) and N_v is
    c_v v, plus c [f a][f a] for each out-edge f and term c [a][a] of
    N_t(f) with |a| >= 1, plus (c_t(g) - c_v) [g][g] for each out-edge g,
    which is 0 for g = e.  That is the sum of f N_t(f) f^* with its one
    non-basic term, c_t(e) [e][e], rewritten by the vertex relation
    [e][e] = v - sum of [g][g] over g != e; [f a][f a] keeps a's last edge,
    and no two terms are one monomial.
    """
    g, reduce, one = algebra.graph, algebra.field.reduce, algebra.field.one
    out, dst, special = g._out, g._dst, algebra.specialization._edge_at
    coeff = dict.fromkeys(W, 1)  # c_v for every v that reaches W
    tails = dict.fromkeys(W, ())  # the terms c [a][a] of N_v with |a| >= 1, as (a's edges, c)
    for v in below:
        cv = coeff[v] = coeff.get(dst[special[v]], 0)
        acc = tails[v] = []
        for f in out[v]:
            t = dst[f]
            acc.extend(((f,) + a, c) for a, c in tails.get(t, ()))
            if diff := coeff.get(t, 0) - cv:
                acc.append(((f,), reduce(diff)))
    terms = {(v, (), v, ()): one for v, cv in coeff.items() if cv}
    return terms | {(v, a, v, a): c for v, acc in tails.items() for a, c in acc}


class CentralBasis(_Value):
    """A basis of one graded piece of the center, with provenance strings."""

    __slots__ = __match_args__ = ("degree", "elements", "provenance")

    def __len__(self) -> int:
        return len(self.elements)


def center_basis(algebra: LeavittAlgebra, d: int) -> CentralBasis:
    """Basis of the degree-d homogeneous piece of the center.

    Degree 0 yields the idempotents of the class supports.  Degree d != 0
    yields, for each Laurent summand whose cycle c has length n dividing
    |d|, the sum over the arrival paths p into c's vertex set of [p rot^k][p]
    (sides swapped for d < 0), with k = |d|/n and rot the cycle read from
    where p ends.  That is the sum of p z^k p^* over those arrival paths,
    computed by the algebra's products, with z the sum of c's rotations,
    starred for d < 0, term for term.  Every term is basic: its left side
    ends with a cycle edge and its right side does not.  The index built c
    with no exit and lists each support, both hereditary and finitary, so
    neither is checked again: each arrival region is one search back
    (``_below``), and the arrival paths are listed as edge tuples.
    """
    g, idx = algebra.graph, _structure(algebra.graph)
    elements: list[Element] = []
    provenance: list[str] = []
    if d == 0:
        for W in idx.supports:
            elements.append(Element(algebra, _idempotent_terms(algebra, W, _below(g, W))))
            provenance.append("idempotent of {" + ",".join(W) + "}")
        return CentralBasis(0, tuple(elements), tuple(provenance))
    one = algebra.field.one
    for c in idx.cycles:
        if c is None or d % c.length:
            continue
        k = abs(d) // c.length
        rot = {v: (c.edges[i:] + c.edges[:i]) * k for i, v in enumerate(c.sources)}
        ends = _arrival_ends(g, c.sources, _below(g, c.sources))
        lifted = ((u, p, p + rot[r]) for u, paths in ends.items() for p, r in paths)
        elements.append(Element(algebra, {(u, q, u, p) if d > 0 else (u, p, u, q): one for u, p, q in lifted}))
        provenance.append(f"cycle {c} to the power {k}")
    return CentralBasis(d, tuple(elements), tuple(provenance))


def center_dimension_predicted(graph: Graph, d: int) -> int:
    """Dimension of the degree-d piece of the center, from the structure
    of the finitary annihilator algebra alone: one per class at degree 0,
    else one per Laurent summand whose cycle length divides d."""
    cycles = _structure(graph).cycles
    return len(cycles) if d == 0 else sum(c is not None and d % c.length == 0 for c in cycles)


def oracle_bound(graph: Graph, d: int) -> int:
    """Monomial size cap that provably captures the whole degree-d center.

    Every constructed basis element of degree d has monomial size at most
    2*base + |d| where base is the longest arrival path into a field
    summand's support or a Laurent cycle's vertex set.  Any arrival path
    into a Laurent support extends, along a shortest path into the cycle,
    to one at least as long into the cycle, so the support needs no search
    of its own.  The index lists each support and cycle, neither checked
    again; one search back from each gives its arrival region, successors
    first (``_below``), and one pass over that region finds the longest
    arrival path from each vertex, with none listed.  The extra slack
    leaves room for the oracle to notice elements just past the boundary.
    """
    idx, out, dst = _structure(graph), graph._out, graph._dst
    base = 0
    for W, c in zip(idx.supports, idx.cycles):
        W = W if c is None else c.sources
        depth = dict.fromkeys(W, 0)
        for v in _below(graph, W):
            depth[v] = 1 + max(depth.get(dst[f], -1) for f in out[v])
        base = max(base, *depth.values())
    return 2 * base + abs(d) + 2


# -- linear algebra over the active field -----------------------------------


def _row_reduce(rows: list[dict], field) -> dict:
    """The reduced row echelon form of the span of ``rows``, as
    {pivot column: row}, with the columns in their int order.

    It is the unique one.  Each incoming row is cleared of the stored pivot
    columns, which adds none: no stored row has an entry in another's pivot
    column.  A row left nonzero is scaled so that its least column, its
    pivot, has entry 1, and that column is cleared from the stored rows,
    which only adds columns above their own pivots.  So each stored row's
    least column is its pivot, with entry 1, and no other row has an entry
    in a pivot column: the map is the unique reduced row echelon form of the
    row space for the shared column order, whatever the rows' order, scale
    or spanning set.
    """
    red = field.reduce
    reduced: dict = {}

    def subtract(target: dict, col, row: dict) -> None:
        """target -= target[col] * row, for a row whose pivot is col."""
        lead = target[col]
        for c, v in row.items():
            total = red(target.get(c, 0) - lead * v)
            if total:
                target[c] = total
            else:
                target.pop(c, None)

    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in reduced]:
            subtract(row, c, reduced[c])
        if not row:
            continue
        col = min(row)
        inv = field.inverse(row[col])
        row = {c: red(v * inv) for c, v in row.items()}
        for prior in reduced.values():
            if col in prior:
                subtract(prior, col, row)
        reduced[col] = row
    return reduced


def _nullspace(rows: list[dict], ncols: int, field, forced=()) -> list[dict]:
    """Basis of the solution space of rows * x = 0, columns 0..ncols-1.

    Rows hold entries that are nonzero in the field, as field scalars or as
    ints such as the oracle's 1 and -1, which elimination reduces where it
    uses them.  A row with one entry forces its column to 0, and so does a
    row left with one entry once the forced columns are dropped; this
    repeats, with no scalar arithmetic, until no new column is forced.  It
    starts from the columns in ``forced``, as if each had a one-entry row.
    Only the rest of the system is eliminated, and no forced column is
    free.  The basis is the one that eliminating the whole system gives: a
    forced column's row in the unique reduced row echelon form is its unit
    vector, so the other rows of that form are the form of the rest, and
    every basis vector is unchanged.  Every column of a reduced row other
    than its pivot is free, so the basis is read off the entries of the
    {pivot column: row} map that ``_row_reduce`` returns.
    """
    forced = set(forced)
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
    reduced = _row_reduce([{c: v for c, v in row.items() if c not in forced} for row in rest], field)
    basis = {c: {c: field.one} for c in range(ncols) if c not in reduced and c not in forced}
    for col, row in reduced.items():
        for f, coeff in row.items():
            if f != col:
                basis[f][col] = field.reduce(-coeff)
    return list(basis.values())


def _path_layers(g: Graph, limit: int) -> list[tuple[list, dict, dict]]:
    """The paths of g of lengths 0..limit, one layer per length, each as the
    list of (source, edges, range) tuples, those edges grouped by (source,
    range), and each vertex's deep in-edges there: those whose source ends a
    path of the layer's length.  Layer 0 holds the vertices and layer 1 the
    edges, and each later layer extends the one before through the
    out-edges, all in declaration order, so every layer is in
    ``Graph.path_key`` order.  Each call builds its own list, which ends
    at the first empty layer.
    """
    layers: list[tuple[list, dict, dict]] = []
    src, dst, outs = g._src, g._dst, g._out
    while len(layers) <= limit and (not layers or layers[-1][0]):
        if not layers:
            paths = [(v, (), v) for v in g.vertices]
        elif len(layers) == 1:
            paths = [(s, (e,), t) for e, s, t in g.edges]
        else:
            paths = [(s, es + (e,), dst[e]) for s, es, t in layers[-1][0] for e in outs[t]]
        by_ends: dict[tuple[str, str], list] = {}
        for s, es, t in paths:
            by_ends.setdefault((s, t), []).append(es)
        ends = {t for _, t in by_ends}
        deep = {v: tuple(e for e in es if src[e] in ends) for v, es in g._in.items()}
        layers.append((paths, by_ends, deep))
    return layers


def _candidates(algebra: LeavittAlgebra, caps: dict) -> list[tuple]:
    """The oracle's unknowns at each degree d of ``caps``, in degree blocks in
    the order of ``caps``: the basic monomials [p][q] of degree d and size
    at most caps[d] whose paths share a source u and range r, each block in
    ``monomial_key`` order, each as the flat tuple (u, p's edges, q's edges,
    r), less those that a chain of in-edge rows forces to 0.  They are read
    off one ``_path_layers`` call: each layer of p is paired with the
    grouping of q's layer, so no sort is needed.

    The presolve: let m = [p][q] at u have size n >= 1, let
    k = (caps[d] - n) // 2, and let e end at u with s(e) the end of some
    path of length k, a deep in-edge of layer k.  In e's rows only m and its m e
    partner P = [e p][e q] have a term at [e p][q]: no vertex-relation
    output starts with e, and [A][@s(e)] e = [e p][@u], with A e = e p, is
    one only when q is a vertex and p ends with e.  Unless that holds, or p
    is a vertex, q ends with e and e is special, so that e m is rewritten,
    m is forced to 0 and left out.  By induction on k: at k = 0, P is past
    the cap and the row is {m: -1}.  At k >= 1, P has size n + 2, so its k
    is k - 1, and neither of its sides is a vertex, so neither case holds
    for it.  The last edge of a path of length k into s(e) is a deep
    in-edge of s(e) in layer k - 1, so P is left out, hence forced, and e's
    row forces m.  At a u with two deep in-edges one of them is outside
    both cases, so that size goes whole.  A forced column is never free, so
    the kernel basis and its order are as with m kept (``_nullspace``).
    """
    special = algebra.specialization.special_edges
    layers = _path_layers(algebra.graph, max((cap + abs(d)) // 2 for d, cap in caps.items()))
    last = len(layers) - 1
    candidates: list[tuple] = []
    for d, cap in caps.items():
        for lq, (_, by_ends, _) in enumerate(layers):
            lp = lq + d
            if not (0 <= lp <= last and lp + lq <= cap):
                continue
            # an empty layer ends the list, and no path is longer
            deep = lp + lq and layers[min((cap - lp - lq) // 2, last)][2]
            for u, p, r in layers[lp][0]:
                qs = by_ends.get((u, r), ())
                if deep and (into := deep[u]):
                    if len(into) > 1:
                        continue
                    e = into[0]
                    if p:  # kept only as the partner of [A][@s(e)] e
                        if lq or p[-1] != e:
                            continue
                    elif e in special:  # kept only where e m is rewritten
                        qs = [q for q in qs if q[-1] == e]
                    else:
                        continue
                for q in qs:
                    # not basic: both paths end with the same special edge
                    if not (lp and lq and p[-1] == q[-1] and p[-1] in special):
                        candidates.append((u, p, q, r))
    return candidates


def _generator_rows(e: str, s: str, t: str, others, cands: list, here, meets) -> dict:
    """The rows of m e - e m for the edge e from s to t, as
    {output: {candidate index: sign}}, each output a basic monomial
    (left source, left edges, right source, right edges).  ``cands`` holds
    the candidates m = [p][q] as (u, p's edges, q's edges, r); ``here``
    indexes those with u = t, so e m != 0, and ``meets`` those with
    m e != 0, whose q starts with e or is the vertex s.  ``others`` is s's
    out-edges when e is special, else None.

    A product of monomials is nonzero exactly when one inner path continues
    the other: e m = [e p][q] when u = t, m e = [p][q'] when q = e q', and
    m e = [p e][@t] when q = @s.  Only e m = [e][q' e] can be non-basic, for
    e special, and the vertex relation at s writes it as [@s][q'] minus the
    sum of [f][q' f] over the other out-edges f of s.  No two terms of m e,
    or of e m, are one monomial, so each sum is -1, 0 or 1: for a loop a at
    v, a [a][@v] and [a][@v] a cancel.
    """
    rows: dict[tuple, dict] = {}
    for i in here:  # no two of these outputs are one monomial
        u, p, q, r = cands[i]
        if others is not None and not p and q and q[-1] == e:
            b = q[:-1]
            rows[s, (), u, b] = {i: -1}
            rows.update(((s, (f,), u, b + (f,)), {i: 1}) for f in others if f != e)
        else:
            rows[s, (e,) + p, u, q] = {i: -1}
    for i in meets:
        u, p, q, r = cands[i]
        out = (u, p, t, q[1:]) if q else (u, p + (e,), t, ())
        row = rows.get(out)
        if row is None:
            rows[out] = {i: 1}
        elif total := row.pop(i, 0) + 1:
            row[i] = total
    return rows


def brute_force_center(algebra: LeavittAlgebra, d: int, max_support: int) -> list[Element]:
    """Degree-d central elements by direct linear algebra, no structure theory.

    Unknowns are the basic monomials of degree d and size at most
    max_support whose two paths share a source vertex: commutation with the
    vertices forces that shape, so the restriction loses nothing.  Each
    edge e gives one row per output monomial of its commutator, and e*
    gives none: commuting with the edges implies commuting with the edge
    stars (``Element.is_central`` proves both facts).  So the edge rows
    have the kernel of the full system, and with it its row space, reduced
    form and basis.  ``_candidates`` leaves out the monomials that a
    chain of in-edge rows forces, which changes no basis vector.  This is
    the one-degree call of ``_center_by_degree``.
    """
    return _center_by_degree(algebra, {d: max_support})[d]


def _center_by_degree(algebra: LeavittAlgebra, caps: dict) -> dict[int, list[Element]]:
    """``brute_force_center`` at every degree d of ``caps`` with its cap
    caps[d], as {d: elements}, from one system.

    The candidates come in degree blocks (``_candidates``) and are bucketed
    once, by source and under each edge e with m e != 0 (q's first edge, or
    each out-edge of a vertex q); ``_generator_rows`` then builds the rows
    one edge at a time.  Each output of m e - e m has degree deg(m) + 1, so
    no row mixes two degrees and the system is block-diagonal: its reduced
    form is the union of the per-degree ones, and the kernel basis lists
    each degree's vectors, in order, block after block.  Each one-entry row
    forces its column and is dropped; only longer rows are kept for
    ``_nullspace``.  Rows hold the ints 1 and -1, which ``_row_reduce``
    reduces into the field.  A kernel vector's candidate (u, p, q, r)
    becomes the element term (u, p, u, q), with no ``Path`` or
    ``Monomial`` built, and the vector goes to its terms' degree.
    """
    g, field = algebra.graph, algebra.field
    outs, special = g._out, algebra.specialization.special_edges
    candidates = _candidates(algebra, caps)

    # candidate indexes by source, and under each edge e with m e != 0
    at, meets = {}, {}
    for i, (u, p, q, r) in enumerate(candidates):
        at.setdefault(u, []).append(i)
        for e in q[:1] or outs[r]:
            meets.setdefault(e, []).append(i)

    forced, kept = set(), []
    for e, s, t in g.edges:
        here, others = at.get(t, ()), outs[s] if e in special else None
        if here or e in meets:
            for row in _generator_rows(e, s, t, others, candidates, here, meets.get(e, ())).values():
                if len(row) == 1:
                    forced.update(row)
                elif row:
                    kept.append(row)

    found: dict[int, list[Element]] = {d: [] for d in caps}
    for vec in _nullspace(kept, len(candidates), field, forced):
        picked = ((candidates[i], c) for i, c in vec.items())
        terms = {(u, p, u, q): c for (u, p, q, r), c in picked}
        _, p, _, q = next(iter(terms))
        found[len(p) - len(q)].append(Element(algebra, terms))
    return found


def _reduced_forms(*families) -> list[dict]:
    """The reduced form of each family of elements of one algebra, with the
    monomials of all the families numbered in one index, so that two
    families span the same subspace exactly when their forms are equal."""
    algebra, index, systems = None, {}, []
    for family in families:
        systems.append(rows := [])
        for el in family:
            algebra = algebra or el.algebra
            if el.algebra != algebra:
                raise AlgebraMismatchError("elements live in different algebras")
            rows.append({index.setdefault(m, len(index)): c for m, c in el._terms.items()})
    return [_row_reduce(rows, algebra.field) if rows else {} for rows in systems]


def span_dimension(elements) -> int:
    """Rank of a family of elements of one algebra."""
    return len(_reduced_forms(elements)[0])


def spans_equal(first, second) -> bool:
    """Whether two families of elements of one algebra span the same
    subspace: each is reduced once over one monomial index, and the two
    reduced forms are compared, with no elimination of their union."""
    one, two = _reduced_forms(first, second)
    return one == two
