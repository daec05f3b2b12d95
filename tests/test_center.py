import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from leavitt import (
    AlgebraMismatchError,
    Element,
    Graph,
    InfiniteArrivals,
    LeavittAlgebra,
    Monomial,
    NotFinitaryError,
    NotHereditaryError,
    PrimeField,
    Rationals,
    Specialization,
    UnknownVertexError,
    arrival_paths,
    brute_force_center,
    center_basis,
    center_dimension_predicted,
    center_structure,
    finitary_boolean_subalgebra,
    idempotent,
    oracle_bound,
    parse_graph,
    span_dimension,
    spans_equal,
)

import leavitt.algebra
import leavitt.center
import leavitt.cli
import leavitt.graph
import leavitt.hereditary
from leavitt.center import (
    _candidates,
    _center_by_degree,
    _generator_rows,
    _nullspace,
    _path_layers,
    _row_reduce,
)

from oracles import hereditary_subsets, random_element, random_graph


def fs(*names):
    return frozenset(names)


@pytest.fixture(scope="module")
def chain_loop():
    # one step into a loop: the cycle's own vertex set sits strictly inside
    # its class support's double-perp closure
    return parse_graph("vertex u\nvertex w\nedge a u w\nedge c w w\n")


@pytest.fixture(scope="module")
def fork_loops():
    # two separate loops reachable from a common source with no cycle at it
    return parse_graph(
        "vertex u\nvertex w1\nvertex w2\n"
        "edge e u w1\nedge f u w2\nedge c1 w1 w1\nedge c2 w2 w2\n"
    )


def test_idempotent_fixture_values(g3, g4):
    a3 = LeavittAlgebra(g3)
    assert str(idempotent(a3, fs("v5"))) == "v5+[d][d]"
    assert str(idempotent(a3, fs("v2", "v3", "v4"))) == "v1+v2+v3+v4-[d][d]"
    assert idempotent(a3, fs()) == a3.zero()
    assert idempotent(a3, fs(*g3.vertices)) == a3.one()
    a4 = LeavittAlgebra(g4)
    assert str(idempotent(a4, fs("w1"))) == "u+w1-[f][f]"


def test_idempotent_errors(g2, g3):
    with pytest.raises(NotHereditaryError):
        idempotent(LeavittAlgebra(g3), fs("v1"))
    with pytest.raises(NotFinitaryError) as exc:
        idempotent(LeavittAlgebra(g2), fs("v2"))
    assert str(exc.value.witness) == "(c)"


def test_idempotent_rejects_bad_subsets(g2, g3):
    alg = LeavittAlgebra(g3)
    with pytest.raises(TypeError, match="^expected a collection of vertex ids, not the string 'v5'$"):
        idempotent(alg, "v5")
    with pytest.raises(UnknownVertexError, match="^unknown vertex 'v9'$"):
        idempotent(alg, fs("v5", "v9"))
    with pytest.raises(NotHereditaryError, match="^not hereditary: edge 'a' leaves the subset at 'v1' -> 'v2'$"):
        idempotent(alg, fs("v1"))
    with pytest.raises(NotFinitaryError) as exc:
        idempotent(LeavittAlgebra(g2), ["v2"])
    assert str(exc.value) == "subset is not finitary: cycle (c) stays outside it and reaches it via f"
    assert exc.value.subset == fs("v2")
    assert (exc.value.witness, exc.value.connector) == (g2.cycle(["c"]), g2.path("v1", ["f"]))


def _reference_idempotent(alg, ws):
    """The idempotent the generic way: the sum of [p][p] over the arrival
    paths p into ws, sorted, then put through the stack rewriter."""
    arr = arrival_paths(alg.graph, ws)
    if isinstance(arr, InfiniteArrivals):
        raise NotFinitaryError(frozenset(ws), arr.witness, arr.connector)
    return Element(alg, alg._normal_form({_as_key(Monomial(p, p)): alg.field.one for p in arr.paths}))


def _reference_generator(alg, c):
    """The sum of the rotations of the cycle c, each as a path element."""
    rotations = (alg.graph.path(s, c.edges[i:] + c.edges[:i]) for i, s in enumerate(c.sources))
    return reduce(operator.add, map(alg.path_element, rotations))


def _reference_embed(alg, ws, a):
    """The paper's sum of p a p^* over the arrival paths p into ws, computed
    by the algebra's own products."""
    total = alg.zero()
    for p in arrival_paths(alg.graph, ws).paths:
        x = alg.path_element(p)
        total = total + x * a * x.star()
    return total


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(97)], ids=["rat", "fp2", "fp97"])
def test_idempotent_matches_generic_normal_form(field):
    # the one-pass recursion reads spec[v], so random special edges are used
    # as well as the canonical ones; a subset that is not finitary must fail
    # the same way
    rng = random.Random(4242)
    finitary = infinite = 0
    for _ in range(300):
        g = random_graph(rng, max_vertices=7, max_edges=13)
        choices = {v: rng.choice(g.out_edges(v)) for v in g.vertices if g.out_edges(v)}
        algebras = [LeavittAlgebra(g, field=field), LeavittAlgebra(g, Specialization(g, choices), field)]
        for ws in hereditary_subsets(g):
            for alg in algebras:
                try:
                    expected = _reference_idempotent(alg, ws)
                except NotFinitaryError as ref:
                    with pytest.raises(NotFinitaryError) as exc:
                        idempotent(alg, ws)
                    got = exc.value
                    assert (str(got), got.subset, got.witness, got.connector) == (
                        str(ref), ref.subset, ref.witness, ref.connector
                    )
                    infinite += 1
                    continue
                assert idempotent(alg, ws)._terms == expected._terms, (g, alg.specialization, ws)
                finitary += 1
    assert finitary > 5000 and infinite > 500, (finitary, infinite)


def test_idempotent_takes_no_generic_step(monkeypatch, graphs, corpus):
    # every idempotent is written straight in normal form: no stack rewriter
    # and no arrival-path list
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(LeavittAlgebra, "_normal_form", counted("_normal_form", LeavittAlgebra._normal_form))
    arrivals = counted("_arrivals", leavitt.hereditary._arrivals)
    for module in (leavitt.center, leavitt.hereditary):
        monkeypatch.setattr(module, "_arrivals", arrivals, raising=False)
    built = 0
    for g in list(graphs.values()) + corpus:
        for field in (Rationals(), PrimeField(2)):
            alg = LeavittAlgebra(g, field=field)
            for w in finitary_boolean_subalgebra(g):
                idempotent(alg, w)
                built += 1
    assert built > 500 and calls == []
    # the wrappers do count: arrival_paths lists arrival paths, and an
    # element product normal-forms
    alg = LeavittAlgebra(graphs["g3"])
    arrival_paths(graphs["g3"], center_structure(graphs["g3"]).minimal_sets[0])
    alg.edge("a") * alg.edge_star("a")
    assert sorted(set(calls)) == ["_arrivals", "_normal_form"]


def test_idempotents_are_central_idempotents(graphs):
    for g in graphs.values():
        alg = LeavittAlgebra(g)
        for w in finitary_boolean_subalgebra(g):
            e = idempotent(alg, w)
            assert e * e == e
            assert e.star() == e
            assert e.is_central()


def test_idempotent_product_law(graphs):
    # e(W1) e(W2) = e(W1 cap W2) over the finitary family, and complements sum to 1
    rng = random.Random(111)
    pool = list(graphs.values()) + [random_graph(rng) for _ in range(25)]
    from leavitt import perp

    for g in pool:
        alg = LeavittAlgebra(g)
        fam = finitary_boolean_subalgebra(g)
        idem = {w: idempotent(alg, w) for w in fam}
        for w1 in fam:
            assert idem[w1] + idem[perp(g, w1)] == alg.one()
            for w2 in fam:
                assert idem[w1] * idem[w2] == idem[w1 & w2]


def test_cycle_generator_values(g1, g3):
    a1 = LeavittAlgebra(g1)
    assert _reference_generator(a1, g1.cycle(("c",))) == a1.edge("c")
    a3 = LeavittAlgebra(g3)
    z = _reference_generator(a3, g3.cycle(("b2", "b3", "b4")))
    assert str(z) == "[b2 b3 b4][@v2]+[b3 b4 b2][@v3]+[b4 b2 b3][@v4]"


def test_cycle_generator_unitary_on_its_corner(g1, g3):
    for g, edges in ((g1, ("c",)), (g3, ("b2", "b3", "b4"))):
        alg = LeavittAlgebra(g)
        c = g.cycle(edges)
        z = _reference_generator(alg, c)
        corner = alg.zero()
        for v in sorted(c.vertex_set):
            corner = corner + alg.vertex(v)
        assert z * z.star() == corner
        assert z.star() * z == corner
        assert z * z.star() == z.star() * z


def test_embed_reproduces_idempotent(g3):
    alg = LeavittAlgebra(g3)
    w = fs("v2", "v3", "v4")
    total = alg.vertex("v2") + alg.vertex("v3") + alg.vertex("v4")
    assert _reference_embed(alg, w, total) == idempotent(alg, w)


def test_embed_over_everything_is_identity(g3):
    alg = LeavittAlgebra(g3)
    z = _reference_generator(alg, g3.cycle(("b2", "b3", "b4")))
    assert _reference_embed(alg, fs(*g3.vertices), z) == z


def test_embed_expands_cycle_generator(g3):
    alg = LeavittAlgebra(g3)
    z = _reference_generator(alg, g3.cycle(("b2", "b3", "b4")))
    lifted = _reference_embed(alg, fs("v2", "v3", "v4"), z)
    expected = alg.parse_element(
        "[b2 b3 b4][@v2] + [b3 b4 b2][@v3] + [b4 b2 b3][@v4] + [a b2 b3 b4][a]"
    )
    assert lifted == expected
    assert lifted.is_central()


def test_embed_is_multiplicative_on_diagonal_elements(g3):
    alg = LeavittAlgebra(g3)
    w = fs("v2", "v3", "v4")
    z = _reference_generator(alg, g3.cycle(("b2", "b3", "b4")))
    corner = alg.vertex("v2") + alg.vertex("v3") + alg.vertex("v4")
    for a, b in ((z, z), (z, corner), (z * z, z.star())):
        lifted = _reference_embed(alg, w, a * b)
        assert lifted == _reference_embed(alg, w, a) * _reference_embed(alg, w, b)


def test_center_basis_dimensions_match_prediction(graphs, chain_loop, fork_loops):
    pool = dict(graphs)
    pool["chain_loop"] = chain_loop
    pool["fork_loops"] = fork_loops
    for g in pool.values():
        alg = LeavittAlgebra(g)
        for d in range(-4, 5):
            basis = center_basis(alg, d)
            assert basis.degree == d
            assert len(basis) == center_dimension_predicted(g, d)
            assert len(basis.provenance) == len(basis)
            for el in basis.elements:
                assert el.is_central()
                assert el.degrees() in ([], [d])
            assert span_dimension(basis.elements) == len(basis)


def test_center_basis_fixture_values(g1, g3):
    a3 = LeavittAlgebra(g3)
    d0 = center_basis(a3, 0)
    assert [str(e) for e in d0.elements] == ["v1+v2+v3+v4-[d][d]", "v5+[d][d]"]
    assert center_basis(a3, 1).elements == ()
    assert center_basis(a3, 2).elements == ()
    d3 = center_basis(a3, 3)
    assert [str(e) for e in d3.elements] == [
        "[b2 b3 b4][@v2]+[b3 b4 b2][@v3]+[b4 b2 b3][@v4]+[a b2 b3 b4][a]"
    ]
    dm3 = center_basis(a3, -3)
    assert [str(e) for e in dm3.elements] == [
        "[@v2][b2 b3 b4]+[@v3][b3 b4 b2]+[@v4][b4 b2 b3]+[a][a b2 b3 b4]"
    ]
    assert dm3.elements[0] == d3.elements[0].star()
    a1 = LeavittAlgebra(g1)
    for d in range(-3, 4):
        assert len(center_basis(a1, d)) == 1
    assert str(center_basis(a1, 2).elements[0]) == "[c c][@v1]"
    assert str(center_basis(a1, 0).elements[0]) == "v1"


@pytest.mark.parametrize("field", [Rationals(), PrimeField(97)], ids=["rat", "fp97"])
def test_center_basis_cycle_powers_equal_repeated_products(field, chain_loop, fork_loops, corpus):
    # center_basis writes the cycle powers in closed form; the reference is
    # the k-th power of the rotation sum conjugated out by the algebra's own
    # products, starred for negative degrees
    for g in [chain_loop, fork_loops] + corpus:
        alg = LeavittAlgebra(g, field=field)
        cycles = [s.cycle for s in center_structure(g).summands if s.cycle is not None]
        top = 3 * max((c.length for c in cycles), default=0)
        for d in range(-top, top + 1):
            if d == 0:
                continue
            expected = []
            for c in cycles:
                if d % c.length == 0:
                    power = reduce(operator.mul, [_reference_generator(alg, c)] * (abs(d) // c.length))
                    z = _reference_embed(alg, c.vertex_set, power)
                    expected.append(z.star() if d < 0 else z)
            basis = center_basis(alg, d).elements
            assert basis == tuple(expected), d
            # written term for term: every term basic, with coefficient one
            assert all(alg.is_basic(m) and c == field.one for el in basis for m, c in el.terms()), d


def test_center_basis_cycle_powers_take_no_generic_step(monkeypatch, g3, chain_loop, fork_loops):
    # for d != 0 every term is written straight from its arrival path: no
    # normal form and no star
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    patched = [
        (LeavittAlgebra, "_normal_form"),
        (Element, "star"),
    ]
    for owner, name in patched:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    built = 0
    for g in (g3, chain_loop, fork_loops):
        alg = LeavittAlgebra(g)
        for d in (-6, -3, -2, -1, 1, 2, 3, 6):
            built += len(center_basis(alg, d))
    assert built == 28 and calls == []
    # the wrappers do count: conjugating g3's cycle generator out by
    # products and starring it runs both
    alg = LeavittAlgebra(g3)
    (c,) = [s.cycle for s in center_structure(g3).summands if s.cycle is not None]
    _reference_embed(alg, c.vertex_set, _reference_generator(alg, c)).star()
    assert sorted(set(calls)) == sorted(name for _, name in patched)


def test_center_basis_conjugates_past_the_cycle(chain_loop):
    # the degree-1 generator needs the arrival path from outside the loop;
    # the bare loop edge does not commute with that edge
    alg = LeavittAlgebra(chain_loop)
    basis = center_basis(alg, 1)
    assert [str(e) for e in basis.elements] == ["[c][@w]+[a c][a]"]
    assert not alg.edge("c").is_central()


def test_center_basis_separate_loops_give_two_generators(fork_loops):
    alg = LeavittAlgebra(fork_loops)
    basis = center_basis(alg, 1)
    assert len(basis) == 2
    assert [str(e) for e in basis.elements] == [
        "[c1][@w1]+[e c1][e]",
        "[c2][@w2]+[f c2][f]",
    ]


def test_center_basis_provenance_strings(g3):
    alg = LeavittAlgebra(g3)
    assert center_basis(alg, 0).provenance == (
        "idempotent of {v2,v3,v4}",
        "idempotent of {v5}",
    )
    assert center_basis(alg, 3).provenance == ("cycle (b2 b3 b4) to the power 1",)
    assert center_basis(alg, -6).provenance == ("cycle (b2 b3 b4) to the power 2",)


def test_center_dimension_predicted_values(g1, g3, g6, fork_loops):
    assert center_dimension_predicted(g3, 0) == 2
    assert center_dimension_predicted(g3, 3) == 1
    assert center_dimension_predicted(g3, -3) == 1
    assert center_dimension_predicted(g3, 1) == 0
    assert center_dimension_predicted(g3, 2) == 0
    for d in range(-4, 5):
        assert center_dimension_predicted(g1, d) == 1
    assert center_dimension_predicted(g6, 0) == 1
    assert center_dimension_predicted(g6, 1) == 0
    assert center_dimension_predicted(fork_loops, 0) == 2
    assert center_dimension_predicted(fork_loops, 2) == 2


def test_oracle_fixture_values(g1, g2, g3):
    dim0 = brute_force_center(LeavittAlgebra(g3), 0, 8)
    assert len(dim0) == 2
    g1_basis = brute_force_center(LeavittAlgebra(g1), 2, 6)
    assert [str(e) for e in g1_basis] == ["[c c][@v1]"]
    assert brute_force_center(LeavittAlgebra(g2), 1, 8) == []


def _paths_by_ends(g, max_len):
    """Every path of length at most max_len, grouped by (source, target)."""
    frontier = [g.vertex_path(v) for v in g.vertices]
    groups = {}
    for _ in range(max_len + 1):
        for p in frontier:
            groups.setdefault((p.source, p.target), []).append(p)
        frontier = [g.path(p.source, p.edges + (e,)) for p in frontier for e in g.out_edges(p.target)]
    return groups


def _plain_nullspace(rows, ncols, field):
    """Null space by eliminating the whole system, with no columns set aside:
    the unique reduced row echelon form, then one basis vector per free
    column."""
    reduced = _row_reduce(rows, field)
    basis = []
    for f in (c for c in range(ncols) if c not in reduced):
        vec = {f: field.one}
        for col, row in reduced.items():
            coeff = row.get(f)
            if coeff:
                vec[col] = field.reduce(-coeff)
        basis.append(vec)
    return basis


def _reference_oracle(alg, d, max_support):
    """The oracle with its rows built by Element arithmetic: x * gen - gen * x
    for every candidate x and every one of the 2|E| edge and edge-star
    generators, followed by a plain null space."""
    g, field = alg.graph, alg.field
    paths = [p for group in _paths_by_ends(g, (max_support + abs(d)) // 2).values() for p in group]
    pairs = (Monomial(p, q) for p in paths for q in paths)
    candidates = sorted(
        (
            m
            for m in pairs
            if (m.left.source, m.left.target) == (m.right.source, m.right.target)
            and m.degree == d
            and m.size <= max_support
            and alg.is_basic(m)
        ),
        key=alg.monomial_key,
    )
    gens = [alg.edge(e) for e in g.edge_ids()] + [alg.edge_star(e) for e in g.edge_ids()]
    rows = {}
    for i, m in enumerate(candidates):
        x = Element(alg, {_as_key(m): field.one})
        for gi, gen in enumerate(gens):
            for out, c in (x * gen - gen * x)._terms.items():
                rows.setdefault((gi, out), {})[i] = c
    kernel = _plain_nullspace(list(rows.values()), len(candidates), field)
    return [Element(alg, {_as_key(candidates[i]): c for i, c in vec.items()}) for vec in kernel]


def _oracle_settings(g, rng):
    """The graph's algebra over rat and over fp:97, and over rat under
    special edges other than the canonical ones wherever there is a choice."""
    choices = {
        v: rng.choice(g.out_edges(v)[1:] or g.out_edges(v)) for v in g.vertices if g.out_edges(v)
    }
    return [
        LeavittAlgebra(g),
        LeavittAlgebra(g, field=PrimeField(97)),
        LeavittAlgebra(g, Specialization(g, choices)),
    ]


def test_oracle_rows_from_monomial_products_match_element_arithmetic(chain_loop, fork_loops, corpus):
    # the returned elements are read off the unique reduced row echelon form,
    # so building the rows another way must not change them, not even their
    # order.  The multigraphs add parallel edges and more loops at a vertex
    rng = random.Random(5)
    for g in [chain_loop, fork_loops] + corpus + _small_multigraphs(55, 40):
        for alg in _oracle_settings(g, rng):
            for d in range(-3, 4):
                bound = oracle_bound(g, d)
                got = [str(e) for e in brute_force_center(alg, d, bound)]
                assert got == [str(e) for e in _reference_oracle(alg, d, bound)], (g, alg, d)


def test_oracle_matches_element_arithmetic_at_small_caps(chain_loop, fork_loops, corpus):
    # cap 0 leaves only the vertices for d = 0 and no candidate for d != 0,
    # with no layer 1 built at |d| = 1; cap |d| leaves one side a vertex
    rng = random.Random(6)
    for g in [chain_loop, fork_loops] + corpus:
        for alg in _oracle_settings(g, rng):
            for d in range(-3, 4):
                for cap in sorted({0, abs(d)}):
                    got = [str(e) for e in brute_force_center(alg, d, cap)]
                    assert got == [str(e) for e in _reference_oracle(alg, d, cap)], (g, alg, d, cap)


def _as_monomial(g, left_source, left_edges, right_source, right_edges):
    """The Monomial that the oracle's flat tuples stand for, both paths
    validated against the graph and ending at one vertex."""
    m = Monomial(g.path(left_source, left_edges), g.path(right_source, right_edges))
    assert m.left.target == m.right.target, str(m)
    return m


def _as_key(m):
    """The flat tuple (left source, left edges, right source, right edges)
    that an element's terms and the kernel's products key the Monomial m by."""
    (u, a, _), (w, b, _) = m
    return u, a, w, b


def _small_multigraphs(seed, count):
    """The ``_shuffled_multigraph``s of one seed, less those with a vertex of
    more than 3 out-edges: the reference oracle pairs every two paths, and
    ``oracle_bound`` is 2 for most of them, so the bound would not tell."""
    rng = random.Random(seed)
    pool = [_shuffled_multigraph(rng) for _ in range(count)]
    kept = [g for g in pool if all(len(g.out_edges(v)) <= 3 for v in g.vertices)]
    assert len(kept) >= 2 * count // 3, len(kept)
    return kept


def _shuffled_multigraph(rng):
    """A random graph with parallel edges and loops, its edges declared in a
    shuffled order and numbered in that order, so not grouped by source."""
    n = rng.randint(1, 4)
    vs = [f"v{i}" for i in range(1, n + 1)]
    ends = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 7))]
    rng.shuffle(ends)
    lines = [f"vertex {v}" for v in vs]
    lines += [f"edge e{j} {s} {t}" for j, (s, t) in enumerate(ends, 1)]
    return parse_graph("\n".join(lines))


def _unfiltered_candidates(alg, d, cap):
    """Every basic [p][q] of degree d and size at most cap whose paths share
    a source u and range r, as (u, p's edges, q's edges, r) in
    ``monomial_key`` order: the candidates with nothing left out."""
    special = alg.specialization.special_edges
    layers = _path_layers(alg.graph, (cap + abs(d)) // 2)
    full = []
    for lq in range(len(layers)):
        lp = lq + d
        if 0 <= lp < len(layers) and lp + lq <= cap:
            for u, p, r in layers[lp][0]:
                for q in layers[lq][1].get((u, r), ()):
                    if not (lp and lq and p[-1] == q[-1] and p[-1] in special):
                        full.append((u, p, q, r))
    return full


def _edge_rows(alg, cands):
    """Every row of the whole edge system on ``cands``, each edge's rows
    built by ``_generator_rows``."""
    g, rows = alg.graph, []
    for e, s, t in g.edges:
        others = g.out_edges(s) if alg.specialization.is_special(e) else None
        here = [i for i, (u, p, q, r) in enumerate(cands) if u == t]
        meets = [i for i, (u, p, q, r) in enumerate(cands) if q[:1] == (e,) or not q and r == s]
        rows.extend(_generator_rows(e, s, t, others, cands, here, meets).values())
    return rows


def _presolve_forced(rows):
    """The columns that the singleton-row presolve forces to 0: those of the
    one-entry rows, then of the rows left with one entry once the forced
    columns are dropped, until no new column is forced."""
    forced = set()
    while True:
        newly = set()
        for row in rows:
            live = row.keys() - forced
            if len(live) == 1:
                newly |= live
        if not newly:
            return forced
        forced |= newly


def test_candidates_leave_out_only_columns_a_one_entry_row_forces(chain_loop, fork_loops, corpus):
    # the presolve in _candidates may leave out a candidate only where the
    # whole, unfiltered system forces it, and must keep the rest in order.
    # Near the cap, where k = (cap - size) // 2 is 0, an in-edge's row holds
    # it alone; lower down a chain of in-edge rows forces it, each row left
    # with one entry once the one past it is forced.  The caps take in 0, 1,
    # one side a vertex, and every size at either parity.  Dropping the
    # rewrite case [@u][q' e] for e special, whose rows have two entries,
    # must fail here, and so must counting every in-edge at every size
    rng = random.Random(19)
    dropped_total = deep_total = 0
    for g in [chain_loop, fork_loops] + corpus + _small_multigraphs(60, 40):
        for alg in _oracle_settings(g, rng):
            for d in range(-3, 4):
                bound = oracle_bound(g, d)
                for cap in sorted({0, 1, abs(d), bound - 1, bound, bound + 1}):
                    full, kept = _unfiltered_candidates(alg, d, cap), _candidates(alg, {d: cap})
                    kept_set = set(kept)
                    assert kept == [m for m in full if m in kept_set], (g, alg, d, cap)
                    dropped = {i for i, m in enumerate(full) if m not in kept_set}
                    if not dropped:
                        continue
                    rows = _edge_rows(alg, full)
                    near = {i for i in dropped if (cap - len(full[i][1]) - len(full[i][2])) // 2 == 0}
                    missed = near - {c for row in rows if len(row) == 1 for c in row}
                    assert not missed, (g, alg, d, cap, [full[i] for i in sorted(missed)])
                    missed = dropped - near - _presolve_forced(rows)
                    assert not missed, (g, alg, d, cap, [full[i] for i in sorted(missed)])
                    dropped_total += len(dropped)
                    deep_total += len(dropped - near)
    assert dropped_total > 45_000 and deep_total > 7_000, (dropped_total, deep_total)


def test_candidates_come_out_in_monomial_key_order(chain_loop, fork_loops, corpus):
    # the layers are built in edge declaration order and never sorted, so the
    # keys must rise strictly; the first graph declares e4 before e1 and
    # groups no edges by source.  The presolve only leaves candidates out,
    # so the order holds with it.  Which monomials are candidates is checked
    # against the reference oracle above, and which are left out against
    # the whole system's one-entry rows.
    out_of_order = parse_graph(
        "vertex a\nvertex b\nvertex c\n"
        "edge e4 b c\nedge e1 c c\nedge e3 a b\nedge e2 c b\nedge e5 b b\nedge e6 c b\n"
    )
    rng = random.Random(17)
    pool = [out_of_order, chain_loop, fork_loops] + corpus
    pool += [_shuffled_multigraph(rng) for _ in range(60)]
    for g in pool:
        for alg in _oracle_settings(g, rng):
            for d in range(-3, 4):
                for cap in (0, 2, 5):
                    keys = []
                    for u, p, q, r in _candidates(alg, {d: cap}):
                        m = _as_monomial(g, u, p, u, q)
                        assert m.left.target == r, (g, d, cap, str(m), r)
                        keys.append(alg.monomial_key(m))
                    assert all(a < b for a, b in zip(keys, keys[1:])), (g, d, cap)


def _random_system(rng, field, signs=False):
    """A sparse system with a chain of forcing rows, random rows, empty and
    duplicate rows, and columns that no row mentions; with ``signs``, every
    entry is the int 1 or -1, unreduced, as the oracle's rows hold them.

    The chain {c0}, {c0, c1}, ..., {c(k-1), ck} is on columns of its own, so
    setting forced columns aside takes k + 1 >= 3 rounds to reach ck."""
    if signs:
        entry = lambda: rng.choice([1, -1])
    elif isinstance(field, Rationals):
        entry = lambda: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
    else:
        entry = lambda: field.coerce(rng.randrange(1, field.p))
    chain_len = rng.randint(3, 5)
    width = rng.randint(2, 10)
    unused = rng.randint(0, 3)
    cols = list(range(chain_len + width + unused))
    rng.shuffle(cols)
    chain, shared = cols[:chain_len], cols[chain_len : chain_len + width]
    rows = [{chain[0]: entry()}]
    rows += [{a: entry(), b: entry()} for a, b in zip(chain, chain[1:])]
    for _ in range(rng.randint(0, 2 * width)):
        k = rng.choice([1, 2, 2, 2, 3, 4])
        rows.append({c: entry() for c in rng.sample(shared, min(k, width))})
    rows += [{} for _ in range(rng.randint(0, 2))]
    rows += [dict(rng.choice(rows)) for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    return rows, len(cols)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(97)], ids=lambda f: f.name)
def test_nullspace_presolve_matches_plain_elimination(field):
    # setting forced columns aside must give the very basis that eliminating
    # the whole system gives: the same vectors in the same order
    for ncols in range(4):
        assert _nullspace([], ncols, field) == _plain_nullspace([], ncols, field)
    rng = random.Random(91)
    for _ in range(400):
        rows, ncols = _random_system(rng, field)
        assert _nullspace(rows, ncols, field) == _plain_nullspace(rows, ncols, field), (rows, ncols)
    # the oracle passes its rows as the ints 1 and -1: the basis must be the
    # one of the system coerced into the field, down to each coefficient's
    # type and residue and each vector's key order
    for _ in range(400):
        rows, ncols = _random_system(rng, field, signs=True)
        coerced = [{c: field.coerce(v) for c, v in row.items()} for row in rows]
        got = _nullspace(rows, ncols, field)
        assert got == _plain_nullspace(coerced, ncols, field), (rows, ncols)
        assert repr(got) == repr(_nullspace(coerced, ncols, field)), (rows, ncols)


def test_nullspace_presolve_scans_each_row_once_it_is_settled():
    # a work count, since no basis tells it: each round of forcing scans only
    # the rows the round before left with two or more live columns.  2,000
    # one-entry rows and the chain {c0}, {c0, c1}, ..., {c6, c7} take 2,036
    # scans of a row; rescanning every row each round takes nine times 2,008
    scans = 0

    class Counted(dict):
        def __iter__(self):
            nonlocal scans
            scans += 1
            return super().__iter__()

        def items(self):
            nonlocal scans
            scans += 1
            return super().items()

    chain = [Counted({0: 1})] + [Counted({c: 1, c + 1: -1}) for c in range(7)]
    rows = [Counted({c: 1}) for c in range(8, 2008)] + chain
    assert _nullspace(rows, 2010, Rationals()) == [{2008: 1}, {2009: 1}]
    assert scans <= 2 * len(rows), scans


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(97)], ids=lambda f: f.name)
def test_coefficients_are_exact_canonical_scalars(field, corpus):
    # equal elements must store equal coefficients and print the same: over
    # rat an int or a Fraction, never a float or a bool; over fp:p a residue
    # in [1, p)
    if isinstance(field, Rationals):
        assert type(field.coerce(True)) is int and field.coerce(True) == 1
        assert type(field.inverse(Fraction(1, 2))) is int and field.inverse(Fraction(1, 2)) == 2
        assert field.inverse(-2) == Fraction(-1, 2)
        canonical = lambda c: type(c) in (int, Fraction) and c != 0
    else:
        canonical = lambda c: type(c) is int and 1 <= c < field.p
    for g in corpus:
        alg = LeavittAlgebra(g, field=field)
        elements = [idempotent(alg, w) for w in finitary_boolean_subalgebra(g)]
        for d in range(-3, 4):
            elements += center_basis(alg, d).elements
            elements += brute_force_center(alg, d, oracle_bound(g, d))
        for el in elements:
            for m, c in el.terms():
                assert canonical(c), (g, field.name, str(m), c)


def test_edge_rules_give_every_nonzero_generator_product(chain_loop, fork_loops, corpus):
    # for a basic monomial m whose paths share a source, the rows must hold
    # every term basic, and, read down m's column, the normal form of
    # m e - e m over the |E| edge generators; the edge stars need no rows.
    # The candidates that meet e are found here by scanning them all.  The
    # multigraphs add non-special out-edges of s(e) that share a target,
    # which the reference oracle's kernel does not see
    rng = random.Random(11)
    for g in [chain_loop, fork_loops] + corpus + _small_multigraphs(56, 30):
        gens = [Monomial(g.edge_path(e), g.vertex_path(g.target_of(e))) for e in g.edge_ids()]
        pairs = [Monomial(p, q) for group in _paths_by_ends(g, 4).values() for p in group for q in group]
        for alg in _oracle_settings(g, rng)[::2]:  # canonical, then other special edges
            ms = [m for m in pairs if m.size <= 4 and alg.is_basic(m)]
            expected = []
            for m in ms:
                column = {}
                for k, gen in enumerate(gens):
                    raw = Counter()
                    for a, b, sign in ((m, gen, 1), (gen, m, -1)):
                        product = alg._monomial_product(_as_key(a), _as_key(b))
                        if product is not None:
                            raw[product] += sign
                    nf = alg._normal_form({out: c for out, c in raw.items() if c})
                    column.update(((k, _as_monomial(g, *out)), c) for out, c in nf.items())
                expected.append(column)
            got = [{} for _ in ms]
            cands = [(p.source, p.edges, q.edges, p.target) for p, q in ms]
            for k, e in enumerate(g.edge_ids()):
                s, t = g.source_of(e), g.target_of(e)
                others = g.out_edges(s) if alg.specialization.is_special(e) else None
                here = [i for i, (u, p, q, r) in enumerate(cands) if u == t]
                meets = [i for i, (u, p, q, r) in enumerate(cands) if q[:1] == (e,) or not q and r == s]
                for out, row in _generator_rows(e, s, t, others, cands, here, meets).items():
                    out = _as_monomial(g, *out)
                    assert alg.is_basic(out), (g, str(out))
                    for i, sign in row.items():
                        got[i][k, out] = sign
            for m, column, want in zip(ms, got, expected):
                assert column == want, (g, str(m))


def test_oracle_hands_each_generator_the_candidates_it_meets(monkeypatch, chain_loop, fork_loops, corpus):
    # the candidates are bucketed once, and each edge e must get just the
    # ones a scan finds, in one call on the candidates, with no edge that
    # meets one skipped and no call for e*: commuting with the vertices and
    # the edges already gives commuting with every e*, since
    # e* x = sum of e* x f f* over the out-edges f of s(e) = x e*
    calls = []
    original = leavitt.center._generator_rows
    monkeypatch.setattr(leavitt.center, "_generator_rows", lambda *args: calls.append(args) or original(*args))
    rng = random.Random(12)
    for g in [chain_loop, fork_loops] + corpus + _small_multigraphs(57, 20):
        for alg in _oracle_settings(g, rng):
            for d in (-2, 0, 1):
                cap = oracle_bound(g, d)
                cands = _candidates(alg, {d: cap})
                expected = []
                for e, s, t in g.edges:
                    others = g.out_edges(s) if alg.specialization.is_special(e) else None
                    here = [i for i, (u, p, q, r) in enumerate(cands) if u == t]
                    meets = [i for i, (u, p, q, r) in enumerate(cands) if q[:1] == (e,) or not q and r == s]
                    if here or meets:
                        expected.append((e, s, t, others, cands, here, meets))
                calls.clear()
                brute_force_center(alg, d, cap)
                assert [args[:5] + tuple(map(list, args[5:])) for args in calls] == expected, (g, d)


def test_oracle_output_commutes_with_every_edge_star(chain_loop, fork_loops, corpus):
    # the oracle builds no edge-star rows, because commuting with the
    # vertices and the edges gives commuting with every e*: check that
    # directly, by Element arithmetic, on the graphs and settings of the
    # reference comparisons
    rng = random.Random(13)
    for g in [chain_loop, fork_loops] + corpus + _small_multigraphs(58, 40):
        for alg in _oracle_settings(g, rng):
            stars = [alg.edge_star(e) for e in g.edge_ids()]
            for d in range(-3, 4):
                for el in brute_force_center(alg, d, oracle_bound(g, d)):
                    for star in stars:
                        assert el * star == star * el, (g, alg, d, str(el), str(star))


def test_oracle_calls_each_edge_once_at_most(monkeypatch, fork_loops):
    # one _generator_rows call per edge and none for an edge star: a star
    # side put back makes 2|E| calls.  On the rose every edge meets a
    # candidate at d = 0, so the counter is seen to count
    rose = parse_graph("vertex v\nedge a v v\nedge b v v\n")
    calls = []
    original = leavitt.center._generator_rows
    monkeypatch.setattr(leavitt.center, "_generator_rows", lambda *args: calls.append(args[0]) or original(*args))
    for g in (rose, fork_loops):
        for alg in (LeavittAlgebra(g), LeavittAlgebra(g, field=PrimeField(97))):
            for d in range(-3, 4):
                for cap in sorted({oracle_bound(g, d), 8}):
                    calls.clear()
                    brute_force_center(alg, d, cap)
                    assert len(calls) <= len(g.edge_ids()), (g, d, cap, calls)
                    assert len(set(calls)) == len(calls), (g, d, cap, calls)
                    if g is rose and d == 0:
                        assert sorted(calls) == ["a", "b"], (cap, calls)


def test_verify_builds_each_edges_rows_once_for_all_degrees(monkeypatch, tmp_path, fork_loops, corpus):
    # verify solves its nine degrees as one system, so each edge's rows are
    # built in one _generator_rows call; a solve per degree makes up to nine
    # per edge.  On the rose every edge meets a candidate at d = 0
    rose = parse_graph("vertex v\nedge a v v\nedge b v v\n")
    calls = []
    original = leavitt.center._generator_rows
    monkeypatch.setattr(leavitt.center, "_generator_rows", lambda *args: calls.append(args[0]) or original(*args))
    for i, g in enumerate([rose, fork_loops] + corpus):
        lines = [f"vertex {v}" for v in g.vertices] + [f"edge {e} {s} {t}" for e, s, t in g.edges]
        path = tmp_path / f"g{i}.lpa"
        path.write_text("\n".join(lines) + "\n")
        calls.clear()
        assert leavitt.cli.main(["verify", str(path), "--max-degree", "4"]) == 0, g
        assert len(set(calls)) == len(calls) <= len(g.edges), (g, calls)
        if g is rose:
            assert sorted(calls) == ["a", "b"], calls


def test_one_system_for_all_degrees_matches_each_degree_alone(chain_loop, fork_loops, corpus):
    # the system is block-diagonal in the degree, so its kernel basis is each
    # degree's basis in turn: element for element and in order, at verify's
    # caps, oracle_bound per degree or one --max-len for all
    rng = random.Random(23)
    for g in [chain_loop, fork_loops] + corpus + _small_multigraphs(61, 40):
        shared = oracle_bound(g, 3)
        for alg in _oracle_settings(g, rng):
            for caps in ({d: oracle_bound(g, d) for d in range(-3, 4)}, dict.fromkeys(range(-3, 4), shared)):
                got = _center_by_degree(alg, caps)
                assert list(got) == list(caps), (g, alg, caps)
                for d, cap in caps.items():
                    alone = brute_force_center(alg, d, cap)
                    assert got[d] == alone and list(map(str, got[d])) == list(map(str, alone)), (g, alg, d, cap)


def test_rose_candidates_at_cap_16_are_its_vertex_alone():
    # v ends paths of every length and has two in-edges, so a chain of
    # in-edge rows forces every candidate of size >= 1; the near-cap rule
    # alone keeps the 16,384 candidates of the sizes below the top
    rose = LeavittAlgebra(parse_graph("vertex v\nedge a v v\nedge b v v\n"))
    assert _candidates(rose, {0: 16}) == [("v", (), (), "v")]


def test_oracle_rows_build_no_named_tuple(monkeypatch, corpus):
    # candidates, row keys and the returned elements' terms are plain
    # tuples and every row term is basic: no Monomial and no Path is built,
    # and nothing is put in normal form
    built, handed, kernel_terms = Counter(), [], 0

    def count_new(cls):
        original = cls.__new__

        def new(c, *args, **kwargs):
            built[cls.__name__] += 1
            return original(c, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", new)

    def normal_form(self, raw):
        handed.append(len(raw))
        return original_normal_form(self, raw)

    # the bounds search arrival paths, so they are found before counting
    runs = [(LeavittAlgebra(g), d, oracle_bound(g, d)) for g in corpus for d in range(-3, 4)]
    original_normal_form = LeavittAlgebra._normal_form
    count_new(leavitt.graph.Path)
    count_new(leavitt.algebra.Monomial)
    monkeypatch.setattr(LeavittAlgebra, "_normal_form", normal_form)
    for alg, d, bound in runs:
        kernel = brute_force_center(alg, d, bound)
        kernel_terms += sum(len(el._terms) for el in kernel)
    assert kernel_terms > 300 and handed == [], (kernel_terms, len(handed))
    assert built["Monomial"] == 0 and built["Path"] == 0, (built, kernel_terms)
    # the counters do count: one parsed element is put in normal form, and
    # listing its terms builds its monomial and the monomial's paths
    v = alg.graph.vertices[0]
    alg.parse_element(f"[@{v}][@{v}]").terms()
    assert built["Monomial"] == 1 and built["Path"] >= 2 and handed


def _rose_oracle_peak(cap):
    """The degree-0 oracle on the two-petal rose at ``cap``: its kernel size
    and its tracemalloc peak."""
    alg = LeavittAlgebra(parse_graph("vertex v\nedge a v v\nedge b v v\n"))
    tracemalloc.start()
    try:
        kernel = brute_force_center(alg, 0, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(kernel), peak


def test_oracle_memory_peak_on_the_two_petal_rose():
    # the rows are built one generator at a time, and a one-entry row is
    # dropped once it has forced its column, so the whole system is never
    # held at once; no size above 0 is a candidate, since v has two in-edges
    # and ends paths of every length.  The tracemalloc peak at d = 0 and
    # cap 14 is about 0.01 MB (3 MB with the near-cap rule alone); the
    # 20 MB bound fails an oracle that holds every row in one dict (39.2 MB)
    size, peak = _rose_oracle_peak(14)
    assert size == 1
    assert peak <= 20e6, peak / 1e6


def test_oracle_memory_peak_on_the_two_petal_rose_at_cap_18():
    # the oracle's memory target, 80 MB at cap 18.  The peak is about
    # 0.15 MB, the path layers; keeping the 65,536 candidates below the top
    # size takes it to 50 MB, and the 196,608 top-size ones as well to 202 MB
    size, peak = _rose_oracle_peak(18)
    assert size == 1
    assert peak <= 80e6, peak / 1e6


def test_oracle_output_is_central(g3, chain_loop):
    for g, d in ((g3, 0), (g3, 3), (chain_loop, 1)):
        alg = LeavittAlgebra(g)
        for el in brute_force_center(alg, d, oracle_bound(g, d)):
            assert el.is_central()
            assert el.degrees() in ([], [d])


def test_oracle_agrees_with_structure_on_fixtures(graphs, chain_loop, fork_loops):
    pool = dict(graphs)
    pool["chain_loop"] = chain_loop
    pool["fork_loops"] = fork_loops
    for g in pool.values():
        alg = LeavittAlgebra(g)
        for d in range(-3, 4):
            bound = oracle_bound(g, d)
            oracle = brute_force_center(alg, d, bound)
            basis = center_basis(alg, d)
            assert len(oracle) == len(basis)
            assert spans_equal(list(basis.elements), oracle)
            # the reduced forms decide as the earlier rank rule does, also
            # on families with an element left out
            elements = list(basis.elements)
            for one, two in ((oracle, elements), (elements, oracle), (oracle, elements[1:]), (oracle[:-1], elements)):
                assert spans_equal(one, two) == _reference_spans_equal(one, two), (g, d)


def test_oracle_agrees_over_prime_field(g3):
    field = PrimeField(97)
    alg = LeavittAlgebra(g3, field=field)
    for d in (0, 3):
        oracle = brute_force_center(alg, d, oracle_bound(g3, d))
        basis = center_basis(alg, d)
        assert len(oracle) == len(basis)
        assert spans_equal(list(basis.elements), oracle)


def test_zero_one_idempotent_combinations_are_central(graphs):
    # every 0/1 combination of the class-support idempotents is a central
    # idempotent, and together they span the whole degree-zero center
    from itertools import product as iproduct

    for g in graphs.values():
        alg = LeavittAlgebra(g)
        supports = [s.support for s in center_structure(g).summands]
        idems = [idempotent(alg, u) for u in supports]
        for bits in iproduct((0, 1), repeat=len(idems)):
            combo = alg.zero()
            for bit, e in zip(bits, idems):
                if bit:
                    combo = combo + e
            assert combo * combo == combo
            assert combo.is_central()
        oracle = brute_force_center(alg, 0, oracle_bound(g, 0))
        assert spans_equal(idems, oracle)


def test_oracle_bound_covers_basis_support(graphs, chain_loop):
    pool = dict(graphs)
    pool["chain_loop"] = chain_loop
    for g in pool.values():
        for d in range(-4, 5):
            bound = oracle_bound(g, d)
            assert bound >= abs(d)
            alg = LeavittAlgebra(g)
            for el in center_basis(alg, d).elements:
                assert max(m.size for m, _ in el.terms()) <= bound


def test_oracle_bound_searches_once_per_summand(monkeypatch, corpus, chain_loop, fork_loops):
    # the longest arrival into a Laurent cycle is at least as long as any into
    # its summand's support, so searching both gives the same bound; the
    # index hands down every region, so oracle_bound searches none itself
    searched = []

    def counted(g, ws):
        searched.append(ws)
        return leavitt.hereditary._arrival_region(g, ws)

    monkeypatch.setattr(leavitt.center, "_arrival_region", counted)
    for g in [chain_loop, fork_loops] + corpus:
        summands = center_structure(g).summands
        base = 0
        for s in summands:
            for ws in [s.support] + ([s.cycle.vertex_set] if s.cycle is not None else []):
                base = max(base, arrival_paths(g, ws).max_length())
        searched.clear()
        assert oracle_bound(g, 0) == 2 * base + 2, g
        assert searched == []


def test_oracle_bound_lists_no_arrival_path(monkeypatch):
    # n diamonds, then a fork into two sinks: 2^n arrival paths into each
    # sink, the longest of length 2n + 1, found with no path listed
    n = 60
    lines = [f"vertex {v}{i}" for i in range(n) for v in "abc"] + [f"vertex a{n}", "vertex x", "vertex y"]
    for i in range(n):
        lines += [f"edge f{i} a{i} b{i}", f"edge g{i} a{i} c{i}", f"edge h{i} b{i} a{i + 1}", f"edge k{i} c{i} a{i + 1}"]
    g = parse_graph("\n".join(lines + [f"edge ex a{n} x", f"edge ey a{n} y"]) + "\n")

    def refused(*args):
        raise AssertionError("oracle_bound listed the arrival paths")

    for module in (leavitt.center, leavitt.hereditary):
        monkeypatch.setattr(module, "_arrivals", refused, raising=False)
    assert oracle_bound(g, 0) == 244 == 4 * n + 4


def test_oracle_bound_is_base_plus_degree(graphs, corpus):
    # verify computes the base once and adds |d| for each degree
    for g in list(graphs.values()) + corpus:
        base = oracle_bound(g, 0)
        for d in range(-4, 5):
            assert oracle_bound(g, d) == base + abs(d), (g, d)


def test_span_helpers(g3):
    alg = LeavittAlgebra(g3)
    e1 = idempotent(alg, fs("v2", "v3", "v4"))
    e2 = idempotent(alg, fs("v5"))
    assert span_dimension([e1, e2]) == 2
    assert span_dimension([e1, e2, e1 + e2, alg.zero()]) == 2
    assert spans_equal([e1, e2], [e1 + e2, e1 - e2])
    assert not spans_equal([e1], [e2])
    assert spans_equal([], [alg.zero()])


def test_spans_equal_on_dependent_families(g3):
    # a family's rank is not its size: three elements of rank 2 span what
    # two other combinations do, and 0 adds nothing
    alg = LeavittAlgebra(g3)
    e1 = idempotent(alg, fs("v2", "v3", "v4"))
    e2 = idempotent(alg, fs("v5"))
    dependent = [e1, e2, e1 + e2, alg.zero()]
    assert span_dimension(dependent) == 2
    assert spans_equal(dependent, [e1 - e2, e2 + e2])
    assert spans_equal([e1 - e2, e2 + e2], dependent)
    assert not spans_equal(dependent, [e1 + e2])
    assert not spans_equal([e1, e1 + e1], [e2])


def test_spans_equal_with_different_generators():
    # no element of one family is an element of the other
    alg = LeavittAlgebra(parse_graph("vertex v1\nvertex v2\nvertex v3\nedge a v1 v2\n"))
    v1, v2, v3, a = alg.vertex("v1"), alg.vertex("v2"), alg.vertex("v3"), alg.edge("a")
    assert spans_equal([v1, v2, v3], [v1 + v2, v2 + v3, v1 + v3])
    assert spans_equal([v1 + a, v2], [v1 + v2 + a, v2 + v2 + v2])
    assert spans_equal([v1 - v1], [])


def test_spans_equal_tells_equal_ranks_apart():
    # equal ranks, different spans: only the rank of the union tells them apart
    alg = LeavittAlgebra(parse_graph("vertex v1\nvertex v2\nvertex v3\nedge a v1 v2\n"))
    v1, v2, v3, a = alg.vertex("v1"), alg.vertex("v2"), alg.vertex("v3"), alg.edge("a")
    assert not spans_equal([v1, v2], [v1, v3])
    assert not spans_equal([v1 + v2], [v1 - v2])
    assert not spans_equal([v1, a], [v1 + a, v2])
    assert not spans_equal([], [a])


def test_spans_equal_reduces_each_family_once(monkeypatch, g3):
    # one reduction per family and none of their union: the two reduced
    # forms are compared as they are
    alg = LeavittAlgebra(g3)
    e1 = idempotent(alg, fs("v2", "v3", "v4"))
    e2 = idempotent(alg, fs("v5"))
    sizes = []
    original = leavitt.center._row_reduce
    monkeypatch.setattr(leavitt.center, "_row_reduce", lambda rows, field: sizes.append(len(rows)) or original(rows, field))
    assert spans_equal([e1, e2, e1 + e2, e1 - e2], [e1 + e2, e2, alg.zero()])
    assert sizes == [4, 3]
    sizes.clear()
    assert not spans_equal([e1, e1 + e1], [e1, e2])
    assert sizes == [2, 2]


def _reference_reduced_family(elements, index, algebra=None):
    """The earlier ``_reduced_family``: (algebra, reduced rows) of a family of
    elements of one algebra, each monomial numbered by ``index``, which
    numbers new ones as they come."""
    rows = []
    for el in elements:
        algebra = algebra or el.algebra
        if el.algebra != algebra:
            raise AlgebraMismatchError("elements live in different algebras")
        rows.append({index.setdefault(m, len(index)): c for m, c in el._terms.items()})
    return algebra, list(_row_reduce(rows, algebra.field).values()) if rows else []


def _reference_spans_equal(first, second):
    """The earlier rule, kept as the reference: both families are reduced once
    over one monomial index, and the rank of their union is that of the two
    reduced families stacked."""
    index = {}
    algebra, one = _reference_reduced_family(first, index)
    algebra, two = _reference_reduced_family(second, index, algebra)
    return len(one) == len(two) and (not one or len(_row_reduce(one + two, algebra.field)) == len(one))


def _linear_combination(field, *terms):
    """The sum of c * row over the (c, row) pairs, with no zero entry."""
    total = {}
    for c, row in terms:
        for col, v in row.items():
            total[col] = field.reduce(total.get(col, 0) + c * v)
    return {col: v for col, v in total.items() if v}


@pytest.mark.parametrize("field", [Rationals(), PrimeField(97)], ids=lambda f: f.name)
def test_row_reduce_returns_the_unique_reduced_form(field):
    # each key is its row's least column, with entry 1, no other row has an
    # entry in a key column, and every spanning set of one row space gives
    # the same map
    rng = random.Random(27)
    scalars = [Fraction(-3, 2), -1, 2, Fraction(5, 3)] if isinstance(field, Rationals) else [1, 5, 96]
    for _ in range(300):
        ncols = rng.randint(1, 10)
        rows = [
            {c: rng.choice([-3, -2, -1, 1, 2, 3]) for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols)))}
            for _ in range(rng.randint(0, 8))
        ]
        rows += [dict(rng.choice(rows)) for _ in range(rng.randint(0, 2))] if rows else []
        form = _row_reduce(rows, field)
        for col, row in form.items():
            assert min(row) == col and row[col] == 1, (rows, form)
            assert all(v and field.reduce(v) == v for v in row.values()), (rows, form)
            assert not any(col in other for key, other in form.items() if key != col), (rows, form)
        assert _row_reduce(rows + list(form.values()), field) == form, rows
        shuffled = rng.sample(rows, len(rows))
        scaled = [_linear_combination(field, (rng.choice(scalars), row)) for row in rows]
        sums = rows[:1] + [_linear_combination(field, (1, a), (1, b)) for a, b in zip(rows, rows[1:])]
        for same_span in (shuffled, scaled, sums):
            assert _row_reduce(same_span, field) == form, (rows, same_span)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(97)], ids=lambda f: f.name)
def test_spans_equal_matches_the_reference_rule(field, corpus):
    # families with zero elements, repeats, scalar multiples and dependent
    # sums, some with an element dropped or a random one added
    rng = random.Random(2027)
    outcomes = Counter()
    for g in corpus:
        alg = LeavittAlgebra(g, field=field)
        for _ in range(4):
            base = [random_element(rng, alg) for _ in range(rng.randint(0, 3))]
            first = base + [rng.choice(base + [alg.zero()]) for _ in range(rng.randint(0, 2))]
            second = [rng.choice([-1, 3]) * x for x in base] + [x + y for x, y in zip(base, base[1:])]
            second.append(alg.zero())
            rng.shuffle(second)
            change = rng.randrange(3)
            if change == 1:
                second.pop(rng.randrange(len(second)))
            elif change == 2:
                second.append(random_element(rng, alg))
            for one, two in ((first, second), (second, first)):
                expected = _reference_spans_equal(one, two)
                assert spans_equal(one, two) == expected, (g, one, two)
                outcomes[expected] += 1
            assert span_dimension(first) == len(_reference_reduced_family(first, {})[1])
    assert min(outcomes[True], outcomes[False]) > 100, outcomes


def test_span_helpers_reject_mixed_algebras(g3):
    one, other = LeavittAlgebra(g3), LeavittAlgebra(g3, field=PrimeField(97))
    x, y = one.vertex("v1"), other.vertex("v1")
    # the error Element arithmetic raises, a ValueError, so callers are unaffected
    assert issubclass(AlgebraMismatchError, ValueError)
    with pytest.raises(AlgebraMismatchError, match="different algebras"):
        span_dimension([x, y])
    with pytest.raises(AlgebraMismatchError, match="different algebras"):
        spans_equal([x], [y])
    with pytest.raises(AlgebraMismatchError, match="different algebras"):
        spans_equal([x, y], [x])
    assert span_dimension([]) == 0
    assert spans_equal([], []) and spans_equal([], [y - y]) and spans_equal([x - x], [])


# -- the index hands every region down: no search per summand ----------------


def test_center_basis_and_oracle_bound_search_no_arrival_region(monkeypatch, corpus, chain_loop, fork_loops):
    # each element and bound is first built through the checked search,
    # then on a fresh copy of the graph with the searches refused
    expected = []
    for g in [chain_loop, fork_loops] + corpus:
        alg = LeavittAlgebra(g)
        summands = center_structure(g).summands
        lengths = {s.cycle_length for s in summands if s.is_laurent}
        degrees = [0] + [sign * k * n for n in lengths for k in (1, 2) for sign in (1, -1)]
        bases = {d: center_basis(alg, d) for d in degrees}
        assert [el._terms for el in bases[0].elements] == [idempotent(alg, s.support)._terms for s in summands]
        expected.append((g, bases, {d: oracle_bound(g, d) for d in degrees}))

    def refused(*args):
        raise AssertionError("an arrival search ran")

    for module in (leavitt.center, leavitt.hereditary):
        for name in ("_arrival_region", "_arrivals"):
            monkeypatch.setattr(module, name, refused, raising=False)
    for g, bases, bounds in expected:
        fresh = Graph(g.vertices, g.edges)
        alg = LeavittAlgebra(fresh)
        for d, basis in bases.items():
            got = center_basis(alg, d)
            assert [el._terms for el in got.elements] == [el._terms for el in basis.elements]
            assert got.provenance == basis.provenance
            assert oracle_bound(fresh, d) == bounds[d]


def test_center_functions_refuse_a_graph_with_no_vertices():
    empty = Graph([], [])
    alg = LeavittAlgebra(empty)
    for call in (
        lambda: center_basis(alg, 0),
        lambda: center_basis(alg, 2),
        lambda: center_dimension_predicted(empty, 0),
        lambda: center_dimension_predicted(empty, 2),
        lambda: oracle_bound(empty, 0),
    ):
        with pytest.raises(ValueError, match="^graph has no vertices$"):
            call()
