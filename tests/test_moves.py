"""Graph moves that must not change the center, checked on each side alone.

``verify`` compares the structure side with the oracle, so it cannot see a
fault that both sides share.  Here each side is compared with itself across
a graph move from the classification of Leavitt path algebras (Abrams,
Louly, Pardo and Smith, "Flow invariants in the classification of Leavitt
path algebras", J. Algebra 333, 2011):

- a disjoint union gives the direct product of the two algebras, so the
  graded dimensions of the center add and the finitary Boolean algebras
  multiply;
- eliminating a source that emits edges gives the corner by the full
  idempotent 1 - v (Morita equivalence), and the center of a unital ring is
  a Morita invariant; since 1 - v has degree 0, the graded dimensions stay
  equal too, which is a theorem;
- an out-split gives an isomorphic algebra (not a graded isomorphism in
  general).  That its graded center dimensions stay equal is only what a
  seeded scratch run of 226 out-splits observed, not a theorem;
- an in-split at a vertex that emits an edge gives a Morita equivalent
  algebra.  Equal graded center dimensions are only observed for it too,
  not a theorem.  At a sink the move is not allowed: splitting a sink into
  two turns a summand F into F (+) F.
"""

import random
from collections import Counter

from leavitt import (
    Graph,
    LeavittAlgebra,
    brute_force_center,
    center_dimension_predicted,
    center_structure,
    finitary_boolean_subalgebra,
    oracle_bound,
)

from oracles import random_graph

DEGREES = range(-3, 4)


def _invariants(g):
    """Both sides' view of the center: the oracle's dimension at each degree,
    the predicted dimensions, the summand kinds and the Boolean algebra size."""
    alg, base = LeavittAlgebra(g), oracle_bound(g, 0)
    oracle = tuple(len(brute_force_center(alg, d, base + abs(d))) for d in DEGREES)
    predicted = tuple(center_dimension_predicted(g, d) for d in DEGREES)
    kinds = Counter(p for p in center_structure(g).isomorphism.split(" (+) ") if p)
    return oracle, predicted, kinds, len(finitary_boolean_subalgebra(g))


def _graphs(seed, count):
    rng = random.Random(seed)
    return rng, [random_graph(rng, max_vertices=5, max_edges=8) for _ in range(count)]


def _union(g, h):
    """Disjoint union, with every id of g prefixed by a and of h by b."""
    vertices = [f"a{v}" for v in g.vertices] + [f"b{v}" for v in h.vertices]
    edges = [(f"a{e}", f"a{s}", f"a{t}") for e, s, t in g.edges]
    edges += [(f"b{e}", f"b{s}", f"b{t}") for e, s, t in h.edges]
    return Graph(vertices, edges)


def _eliminate_source(g, v):
    """g without the source v and the edges it emits."""
    return Graph([w for w in g.vertices if w != v], [edge for edge in g.edges if edge[1] != v])


def _out_split(g, v, parts):
    """The out-split at v by a partition of its out-edges into nonempty parts:
    v becomes one vertex v_i per part, each emitting the edges of its part,
    and every edge e into v becomes one edge e_i into each v_i."""
    part_of = {e: i for i, part in enumerate(parts) for e in part}
    copies = [f"{v}_{i}" for i in range(len(parts))]
    vertices = [w for u in g.vertices for w in (copies if u == v else [u])]
    edges = []
    for e, s, t in g.edges:
        s = copies[part_of[e]] if s == v else s
        if t == v:
            edges += [(f"{e}_{i}", s, c) for i, c in enumerate(copies)]
        else:
            edges.append((e, s, t))
    return Graph(vertices, edges)


def _in_split(g, v, parts):
    """The in-split at v by a partition of its in-edges into nonempty parts:
    v becomes one vertex v_i per part, receiving the edges of its part, and
    every edge f out of v becomes one edge f_i out of each v_i.  A loop at v
    is both: each copy of it ends at the copy of v of its part."""
    part_of = {e: i for i, part in enumerate(parts) for e in part}
    copies = [f"{v}_{i}" for i in range(len(parts))]
    vertices = [w for u in g.vertices for w in (copies if u == v else [u])]
    edges = []
    for e, s, t in g.edges:
        t = copies[part_of[e]] if t == v else t
        if s == v:
            edges += [(f"{e}_{i}", c, t) for i, c in enumerate(copies)]
        else:
            edges.append((e, s, t))
    return Graph(vertices, edges)


def test_disjoint_union_adds_dimensions_and_multiplies_boolean_algebras():
    _, pool = _graphs(31, 300)
    for g, h in zip(pool[::2], pool[1::2]):
        (og, pg, kg, bg), (oh, ph, kh, bh) = _invariants(g), _invariants(h)
        ou, pu, ku, bu = _invariants(_union(g, h))
        assert ou == tuple(map(sum, zip(og, oh))), (g.edges, h.edges)
        assert pu == tuple(map(sum, zip(pg, ph))), (g.edges, h.edges)
        assert (ku, bu) == (kg + kh, bg * bh), (g.edges, h.edges)


def test_source_elimination_keeps_the_center():
    rng, pool = _graphs(32, 600)
    moved = 0
    for g in pool:
        sources = [v for v in g.vertices if g.out_edges(v) and not g.in_edges(v)]
        if not sources:
            continue
        v = rng.choice(sources)
        assert _invariants(_eliminate_source(g, v)) == _invariants(g), (g.edges, v)
        moved += 1
    assert moved >= 150, moved


def test_out_split_keeps_the_center():
    rng, pool = _graphs(33, 500)
    moved = 0
    for g in pool:
        splittable = [v for v in g.vertices if len(g.out_edges(v)) >= 2]
        if not splittable:
            continue
        v = rng.choice(splittable)
        out = list(g.out_edges(v))
        rng.shuffle(out)
        cuts = sorted(rng.sample(range(1, len(out)), rng.randint(1, len(out) - 1)))
        parts = [out[i:j] for i, j in zip([0] + cuts, cuts + [len(out)])]
        assert _invariants(_out_split(g, v, parts)) == _invariants(g), (g.edges, v, parts)
        moved += 1
    assert moved >= 150, moved


def test_in_split_keeps_the_center():
    rng, pool = _graphs(34, 500)
    moved = 0
    for g in pool:
        splittable = [v for v in g.vertices if g.out_edges(v) and len(g.in_edges(v)) >= 2]
        if not splittable:
            continue
        v = rng.choice(splittable)
        into = list(g.in_edges(v))
        rng.shuffle(into)
        cuts = sorted(rng.sample(range(1, len(into)), rng.randint(1, len(into) - 1)))
        parts = [into[i:j] for i, j in zip([0] + cuts, cuts + [len(into)])]
        assert _invariants(_in_split(g, v, parts)) == _invariants(g), (g.edges, v, parts)
        moved += 1
    assert moved >= 150, moved
