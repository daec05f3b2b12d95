"""Central elements of a Leavitt path algebra and an independent cross-check.

The constructive side builds central idempotents from arrival paths into
finitary hereditary subsets and graded basis elements from cycle powers
conjugated out over those arrivals.  ``brute_force_center`` knows none of
that theory: it solves the linear commutation constraints directly over the
monomial basis and is used to validate the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Cycle, Graph, Path, cycle_exits
from .hereditary import (
    FiniteArrivals,
    InfiniteArrivals,
    NotFinitaryError,
    arrival_paths,
    center_structure,
)
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


def _finite_arrivals(graph: Graph, ws) -> FiniteArrivals:
    """Arrival paths into ``ws``; NotFinitaryError when there are infinitely many."""
    arr = arrival_paths(graph, ws)
    if isinstance(arr, InfiniteArrivals):
        raise NotFinitaryError(frozenset(ws), arr.witness, arr.connector)
    return arr


def idempotent(algebra: LeavittAlgebra, ws) -> Element:
    """Central idempotent of a finitary annihilator subset: sum of p p^*
    over all arrival paths p into the subset."""
    arr = _finite_arrivals(algebra.graph, ws)
    one = algebra.field.one
    return Element(algebra, algebra._normal_form({Monomial(p, p): one for p in arr.paths}))


def _rotation_power(algebra: LeavittAlgebra, c: Cycle, k: int) -> Element:
    """The k-th power of the rotation sum of an exit-free cycle, written
    term for term as the sum over cycle vertices s of [rot_s^k][@s].

    Rotations at different vertices multiply to zero and [rot_s^i][@s] times
    [rot_s^j][@s] is [rot_s^(i+j)][@s], whose empty right path keeps it basic.
    """
    exits = cycle_exits(algebra.graph, c)
    if exits:
        raise HasExitError(
            f"cycle {c} has exit edge {exits[0]!r}; its rotation sum is not central"
        )
    one = algebra.field.one
    terms = {}
    for i, s in enumerate(c.sources):
        rot = (c.edges[i:] + c.edges[:i]) * k
        terms[Monomial(Path(s, rot, s), Path(s, (), s))] = one
    return Element(algebra, algebra._normal_form(terms))


def cycle_generator(algebra: LeavittAlgebra, c: Cycle) -> Element:
    """Sum of the rotations of an exit-free cycle, each based at its own
    start vertex.  Central in the corner algebra over the cycle's vertices."""
    return _rotation_power(algebra, c, 1)


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
    arr = _finite_arrivals(g, ws)
    inside = frozenset(ws)
    terms = {}
    for m, c in a._terms.items():
        if m.left.source != m.right.source:
            raise ValueError(f"monomial {m} is not based at a single vertex")
        if m.left.source not in inside:
            raise ValueError(f"monomial {m} is not supported inside the subset")
        for p in arr.paths:
            if p.target != m.left.source:
                continue
            terms[Monomial(g.concat(p, m.left), g.concat(p, m.right))] = c
    return Element(algebra, algebra._normal_form(terms))


@dataclass(frozen=True)
class CentralBasis:
    """A basis of one graded piece of the center, with provenance strings."""

    degree: int
    elements: tuple
    provenance: tuple

    def __len__(self) -> int:
        return len(self.elements)


def center_basis(algebra: LeavittAlgebra, d: int) -> CentralBasis:
    """Basis of the degree-d homogeneous piece of the center.

    Degree 0 yields the idempotents of the class supports.  Degree d != 0
    yields, for each exit-free cycle of length dividing |d| that generates a
    Laurent summand, the matching power of its rotation sum, written in
    closed form, conjugated out over the cycle's own vertex set (then starred
    for negative d).
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
    for s in report.summands:
        if s.cycle is None or d % s.cycle.length != 0:
            continue
        k = abs(d) // s.cycle.length
        lifted = embed(algebra, s.cycle.vertex_set, _rotation_power(algebra, s.cycle, k))
        if d < 0:
            lifted = lifted.star()
        elements.append(lifted)
        provenance.append(f"cycle {s.cycle} to the power {k}")
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
    2*base + |d| where base is the longest arrival path into any class
    support or any Laurent cycle's vertex set; the extra slack leaves room
    for the oracle to notice elements just past the boundary.
    """
    report = center_structure(graph)
    base = 0
    for s in report.summands:
        base = max(base, _finite_arrivals(graph, s.support).max_length())
        if s.cycle is not None:
            base = max(base, _finite_arrivals(graph, s.cycle.vertex_set).max_length())
    return 2 * base + abs(d) + 2


# -- linear algebra over the active field -----------------------------------


def _row_reduce(rows: list[dict], field) -> tuple[list[dict], dict]:
    """Sparse reduced row echelon form.  Returns (rows, pivot column -> row index)."""
    zero = field.zero
    pivots: dict = {}
    reduced: list[dict] = []
    for row in rows:
        row = dict(row)
        # stored pivot rows never contain each other's pivot columns, so one
        # pass over the pivot columns present in the incoming row clears all
        for c in [c for c in row if c in pivots]:
            lead = row.get(c)
            if not lead:
                continue
            for c2, v2 in reduced[pivots[c]].items():
                total = row.get(c2, zero) - lead * v2
                if total:
                    row[c2] = total
                else:
                    row.pop(c2, None)
        if not row:
            continue
        col = min(row)
        inv = field.one / row[col]
        row = {c: v * inv for c, v in row.items()}
        for prior in reduced:
            if col in prior:
                lead = prior[col]
                for c2, v2 in row.items():
                    total = prior.get(c2, zero) - lead * v2
                    if total:
                        prior[c2] = total
                    else:
                        prior.pop(c2, None)
        pivots[col] = len(reduced)
        reduced.append(row)
    return reduced, pivots


def _nullspace(rows: list[dict], ncols: int, field) -> list[dict]:
    """Basis of the solution space of rows * x = 0, columns 0..ncols-1."""
    reduced, pivots = _row_reduce(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = {f: field.one}
        for col, idx in pivots.items():
            coeff = reduced[idx].get(f)
            if coeff:
                vec[col] = -coeff
        basis.append(vec)
    return basis


def _touching_edges(graph: Graph, m: Monomial) -> tuple[str, ...]:
    """The edges e for which e or e* multiplies m = [p][q] = p q^* to a
    nonzero monomial on one side or the other, in a fixed order, each once.

    A product of monomials is nonzero exactly when one inner path continues
    the other.  So m e needs e to be the first edge of q (any edge out of
    the range r when q is a vertex); e* m needs the same of p; and e m and
    m e* need e to end at the source of p or of q.
    """
    p, q = m.left, m.right
    found = list(graph.in_edges(p.source))
    if q.source != p.source:
        found += graph.in_edges(q.source)
    for side in (p, q):
        if side.edges:
            found.append(side.edges[0])
        else:
            found += graph.out_edges(side.target)
    return tuple(dict.fromkeys(found))


def brute_force_center(
    algebra: LeavittAlgebra, d: int, max_support: int
) -> list[Element]:
    """Degree-d central elements by direct linear algebra, no structure theory.

    Unknowns are the basic monomials of degree d and size at most
    max_support whose two paths share a source vertex: commutation with the
    vertex generators alone forces that diagonal shape, so the restriction
    loses nothing.  Edge and edge-star commutators give the linear system.
    """
    g = algebra.graph
    field = algebra.field

    # paths grouped by length, then by source
    by_len: list[list[Path]] = [[g.vertex_path(v) for v in g.vertices]]
    limit = (max_support + abs(d)) // 2
    for _ in range(limit):
        nxt = []
        for p in by_len[-1]:
            for e in g.out_edges(p.target):
                nxt.append(Path(p.source, p.edges + (e,), g.target_of(e)))
        by_len.append(nxt)

    candidates: list[Monomial] = []
    for lq in range(len(by_len)):
        lp = lq + d
        if lp < 0 or lp >= len(by_len):
            continue
        if lp + lq > max_support:
            continue
        by_pair: dict[tuple[str, str], list[Path]] = {}
        for q in by_len[lq]:
            by_pair.setdefault((q.source, q.target), []).append(q)
        for p in by_len[lp]:
            for q in by_pair.get((p.source, p.target), ()):
                m = Monomial(p, q)
                if algebra.is_basic(m):
                    candidates.append(m)
    candidates.sort(key=algebra.monomial_key)

    # edge e gives the generators e and e*, as monomials, with row keys 2k and 2k+1
    gens: dict[str, tuple] = {}
    for k, e in enumerate(g.edge_ids()):
        ep, tp = g.edge_path(e), g.vertex_path(g.target_of(e))
        gens[e] = ((2 * k, Monomial(ep, tp)), (2 * k + 1, Monomial(tp, ep)))

    one, zero = field.one, field.zero
    product = algebra._monomial_product
    rows: dict[tuple, dict] = {}
    for i, m in enumerate(candidates):
        # For m = [p][q] with source u and range r, e or e* can multiply m to
        # something nonzero only for e an in-edge of u, the first edge of p
        # or of q, or, when p or q is a vertex, an out-edge of r; every other
        # generator commutes with m to 0.  The normal form is linear, so the
        # commutator NF(m gen) - NF(gen m) is the NF of the raw difference.
        for e in _touching_edges(g, m):
            for gi, gen in gens[e]:
                raw = {}
                mg = product(m, gen)
                if mg is not None:
                    raw[mg] = one
                gm = product(gen, m)
                if gm is not None:
                    raw[gm] = raw.get(gm, zero) - one
                # each (m, gen) pair is visited once, so no entry is written twice
                for out, c in algebra._normal_form(raw).items():
                    rows.setdefault((gi, out), {})[i] = c

    kernel = _nullspace(list(rows.values()), len(candidates), field)
    elements = []
    for vec in kernel:
        elements.append(Element(algebra, {candidates[i]: c for i, c in vec.items()}))
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
