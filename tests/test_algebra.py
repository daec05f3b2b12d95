import gc
import math
import random
import re
import time
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from leavitt import (
    AlgebraMismatchError,
    Element,
    ElementSyntaxError,
    Graph,
    LeavittAlgebra,
    Monomial,
    Path,
    PrimeField,
    Rationals,
    Specialization,
    UnknownEdgeError,
    UnknownVertexError,
    brute_force_center,
    canonical_specialization,
    center_basis,
    finitary_boolean_subalgebra,
    idempotent,
    oracle_bound,
    parse_graph,
)

from leavitt.algebra import _is_prime

from oracles import closed_paths_upto, is_power_of_ne_cycle, random_element, random_graph


@pytest.fixture(scope="module")
def algebras(graphs):
    return {name: LeavittAlgebra(g) for name, g in graphs.items()}


def test_vertex_relation(algebras):
    for alg in algebras.values():
        for v in alg.graph.vertices:
            for w in alg.graph.vertices:
                prod = alg.vertex(v) * alg.vertex(w)
                assert prod == (alg.vertex(v) if v == w else alg.zero())


def test_edge_unit_relation(algebras):
    # s(e) e = e r(e) = e and the starred versions
    for alg in algebras.values():
        g = alg.graph
        for e in g.edge_ids():
            el = alg.edge(e)
            star = alg.edge_star(e)
            assert alg.vertex(g.source_of(e)) * el == el
            assert el * alg.vertex(g.target_of(e)) == el
            assert alg.vertex(g.target_of(e)) * star == star
            assert star * alg.vertex(g.source_of(e)) == star


def test_star_orthogonality_relation(algebras):
    for alg in algebras.values():
        g = alg.graph
        for e in g.edge_ids():
            for f in g.edge_ids():
                prod = alg.edge_star(e) * alg.edge(f)
                if e == f:
                    assert prod == alg.vertex(g.target_of(e))
                else:
                    assert prod == alg.zero()


def test_vertex_decomposition_relation(algebras):
    # v = sum of ee* over edges leaving v, at every non-sink v
    for alg in algebras.values():
        g = alg.graph
        for v in g.vertices:
            if not g.out_edges(v):
                continue
            total = alg.zero()
            for e in g.out_edges(v):
                total = total + alg.edge(e) * alg.edge_star(e)
            assert total == alg.vertex(v)


def test_normal_form_examples(g1, g2, g3):
    a1 = LeavittAlgebra(g1)
    assert str(a1.edge_star("c") * a1.edge("c")) == "v1"
    assert str(a1.edge("c") * a1.edge_star("c")) == "v1"

    a2 = LeavittAlgebra(g2)
    cc = a2.edge("c") * a2.edge_star("c")
    assert str(cc) == "v1-[f][f]"
    c2 = a2.path_element(g2.path("v1", ["c", "c"]))
    assert str(c2 * c2.star()) == "v1-[f][f]-[c f][c f]"

    a3 = LeavittAlgebra(g3)
    aa = a3.edge("a") * a3.edge_star("a")
    assert str(aa) == "v1-[d][d]"


def test_is_basic(g2):
    alg = LeavittAlgebra(g2)
    pc = g2.path("v1", ["c"])
    pf = g2.path("v1", ["f"])
    assert not alg.is_basic(Monomial(pc, pc))  # c is the special edge at v1
    assert alg.is_basic(Monomial(pf, pf))
    assert alg.is_basic(Monomial(pc, g2.vertex_path("v1")))


def test_mul_examples(g2, g3):
    a2 = LeavittAlgebra(g2)
    assert (a2.edge_star("f") * a2.edge("c")).is_zero()
    a3 = LeavittAlgebra(g3)
    prod = a3.edge("a") * a3.edge("b2")
    assert str(prod) == "[a b2][@v3]"


def test_mul_respects_path_overlap(g3):
    alg = LeavittAlgebra(g3)
    ab = alg.path_element(g3.path("v1", ["a", "b2"]))
    a = alg.path_element(g3.path("v1", ["a"]))
    assert a.star() * ab == alg.edge("b2")
    assert ab.star() * a == alg.edge_star("b2")


def test_involution(g3):
    alg = LeavittAlgebra(g3)
    el = alg.edge("a")
    assert str(el.star()) == "[@v2][a]"
    two = 2 * alg.path_element(g3.path("v1", ["a", "b2"]))
    assert str(two.star()) == "2*[@v3][a b2]"
    rng = random.Random(404)
    for _ in range(200):
        x = random_element(rng, alg)
        y = random_element(rng, alg)
        assert (x * y).star() == y.star() * x.star()
        assert x.star().star() == x


def test_monomial_is_an_immutable_named_tuple(g3):
    a, v2 = g3.path("v1", ["a"]), g3.vertex_path("v2")
    m = Monomial(a, v2)
    with pytest.raises(AttributeError):
        m.left = v2
    same = Monomial(Path("v1", ("a",), "v2"), Path("v2", (), "v2"))
    assert m == same and hash(m) == hash(same)
    assert repr(m) == (
        "Monomial(left=Path(source='v1', edges=('a',), target='v2'), "
        "right=Path(source='v2', edges=(), target='v2'))"
    )
    assert (m.degree, m.size) == (1, 1)
    assert m.star() == Monomial(v2, a) and (m.star().degree, m.star().size) == (-1, 1)
    ab = Monomial(g3.path("v1", ["a", "b2"]), g3.path("v3", ["b3", "b4", "b2"]))
    assert (ab.degree, ab.size) == (-1, 5)
    assert str(m) == "[a][@v2]" and str(Monomial(v2, v2)) == "v2"


def test_degree_component(g1):
    alg = LeavittAlgebra(g1)
    a = alg.edge("c") + alg.vertex("v1")
    assert a.degree_component(1) == alg.edge("c")
    assert a.degree_component(0) == alg.vertex("v1")
    assert a.degree_component(5).is_zero()
    assert a.degrees() == [0, 1]


def test_grading_is_multiplicative(graphs):
    rng = random.Random(505)
    for g in graphs.values():
        alg = LeavittAlgebra(g)
        for _ in range(40):
            x = random_element(rng, alg)
            y = random_element(rng, alg)
            prod = x * y
            for d in prod.degrees():
                total = alg.zero()
                for i in x.degrees():
                    total = total + x.degree_component(i) * y.degree_component(d - i)
                assert prod.degree_component(d) == total


def test_is_central_examples(g1, g2, g3):
    assert LeavittAlgebra(g1).edge("c").is_central()
    assert not LeavittAlgebra(g2).edge("c").is_central()
    a3 = LeavittAlgebra(g3)
    el = a3.vertex("v5") + a3.edge("d") * a3.edge_star("d")
    assert el.is_central()


def _reference_is_central(x):
    """``Element.is_central`` as it stood when it multiplied by every
    vertex, edge and edge star."""
    alg, g = x.algebra, x.algebra.graph
    gens = [alg.vertex(v) for v in g.vertices]
    gens += [alg.edge(e) for e in g.edge_ids()]
    gens += [alg.edge_star(e) for e in g.edge_ids()]
    return all(x * gen == gen * x for gen in gens)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2)], ids=["rat", "fp:2"])
def test_is_central_matches_the_product_check(g1, g2, g3, graphs, corpus, field):
    verdicts = Counter()

    def check(x):
        want = _reference_is_central(x)
        assert x.is_central() == want, (x.algebra.graph, x)
        verdicts[want] += 1

    rng = random.Random(31)
    for g in corpus:
        alg = LeavittAlgebra(g, field=field)
        for _ in range(20):
            check(random_element(rng, alg))
    for g in graphs.values():
        alg = LeavittAlgebra(g, field=field)
        for d in range(-3, 4):
            for x in list(center_basis(alg, d).elements) + brute_force_center(alg, d, oracle_bound(g, d)):
                check(x)
                for e in g.edge_ids():
                    check(x + alg.edge(e))
    # the examples of test_is_central_examples, the non-central one included
    a1, a2, a3 = (LeavittAlgebra(g, field=field) for g in (g1, g2, g3))
    for x in (a1.edge("c"), a2.edge("c"), a3.vertex("v5") + a3.edge("d") * a3.edge_star("d")):
        check(x)
    assert verdicts[True] >= 100 and verdicts[False] >= 1000, verdicts


def test_is_central_forms_two_products_per_edge_and_none_on_mixed_sources(monkeypatch, graphs):
    calls = []
    mul = Element.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counting)
    checked = 0
    for g in graphs.values():
        alg = LeavittAlgebra(g)
        for d in range(-3, 4):
            for x in center_basis(alg, d).elements:
                calls.clear()
                assert x.is_central()
                assert len(calls) == 2 * len(g.edge_ids())
                checked += 1
    assert checked >= 10
    a3 = LeavittAlgebra(graphs["g3"])
    # each has a term whose two paths start at different vertices
    for x in (a3.edge("a"), a3.edge_star("d"), a3.one() + a3.edge("a"), a3.edge("b2")):
        calls.clear()
        assert not x.is_central()
        assert calls == []


def test_one_is_identity(graphs):
    rng = random.Random(606)
    for g in graphs.values():
        alg = LeavittAlgebra(g)
        one = alg.one()
        for _ in range(25):
            x = random_element(rng, alg)
            assert one * x == x
            assert x * one == x


def test_associativity_random_triples(graphs):
    rng = random.Random(707)
    for g in graphs.values():
        alg = LeavittAlgebra(g)
        for _ in range(120):
            x = random_element(rng, alg)
            y = random_element(rng, alg)
            z = random_element(rng, alg)
            assert (x * y) * z == x * (y * z)


def test_normal_form_idempotent_and_linear(graphs):
    rng = random.Random(808)
    for g in graphs.values():
        alg = LeavittAlgebra(g)
        for _ in range(40):
            x = random_element(rng, alg)
            # feeding normal terms back in reproduces the element
            assert alg.element(x.terms()) == x
            y = random_element(rng, alg)
            merged = alg.element(list(x.terms()) + list(y.terms()))
            assert merged == x + y


def test_normal_form_order_independent(g2):
    alg = LeavittAlgebra(g2)
    c2 = g2.path("v1", ["c", "c"])
    c1 = g2.path("v1", ["c"])
    f = g2.path("v1", ["f"])
    terms = [(Monomial(c2, c2), 1), (Monomial(f, f), 2), (Monomial(c2, c1), -1)]
    forward = alg.element(terms)
    backward = alg.element(list(reversed(terms)))
    assert forward == backward


# -- differential check of the normal form -----------------------------------
#
# The work-stack rewriter that the one-pass normal form replaced, kept
# verbatim as the reference: both must give the same dict for every raw
# combination.


def _reference_normal_form(self, raw):
    g = self.graph
    red = self.field.reduce
    out = {}
    stack = list(raw.items())
    while stack:
        m, c = stack.pop()
        if not c:
            continue
        if self.is_basic(m):
            acc = out.get(m)
            total = red(c if acc is None else acc + c)
            if total:
                out[m] = total
            elif acc is not None:
                del out[m]
            continue
        e = m.left.edges[-1]
        v = g.source_of(e)
        left1 = Path(m.left.source, m.left.edges[:-1], v)
        right1 = Path(m.right.source, m.right.edges[:-1], v)
        stack.append((Monomial(left1, right1), c))
        for f in g.out_edges(v):
            if f == e:
                continue
            t = g.target_of(f)
            stack.append(
                (
                    Monomial(
                        Path(left1.source, left1.edges + (f,), t),
                        Path(right1.source, right1.edges + (f,), t),
                    ),
                    -c,
                )
            )
    return out


def _last_edge_specialization(g):
    """The non-canonical choice: the last declared out-edge of every non-sink."""
    return Specialization(g, {v: g.out_edges(v)[-1] for v in g.vertices if g.out_edges(v)})


def _walk_back(rng, g, at):
    edges = []
    for _ in range(rng.randint(0, 3)):
        ins = g.in_edges(at)
        if not ins:
            break
        e = rng.choice(list(ins))
        edges.insert(0, e)
        at = g.source_of(e)
    return edges


def _raw_monomial(rng, alg):
    """A random path pair with a common range, often followed by a common
    tail of special edges (non-basic, peeled once per tail edge) or by one
    common edge of any kind."""
    g, spec = alg.graph, alg.specialization
    r = rng.choice(list(g.vertices))
    left, right = _walk_back(rng, g, r), _walk_back(rng, g, r)
    tail = []
    roll = rng.random()
    if roll < 0.4:
        for _ in range(rng.randint(1, 4)):
            if not g.out_edges(r):
                break
            tail.append(spec[r])
            r = g.target_of(spec[r])
    elif roll < 0.6 and g.out_edges(r):
        tail.append(rng.choice(list(g.out_edges(r))))
    # a path with no edges is the vertex r, and then there is no tail
    return Monomial(*(g.path(g.source_of(es[0]) if es else r, es) for es in (left + tail, right + tail)))


def _peels(alg, m):
    """How many times the vertex relation peels m: the length of the common
    tail of special edges of its two paths."""
    a, b, k = m.left.edges, m.right.edges, 0
    while k < min(len(a), len(b)) and a[-1 - k] == b[-1 - k] and alg.specialization.is_special(a[-1 - k]):
        k += 1
    return k


def _raw_combination(rng, alg, scalars):
    """Raw terms summed into one dict, unreduced: random monomials, repeats,
    a pair that cancels outright, and a non-basic monomial together with
    minus its vertex-relation expansion, which normalizes to zero."""
    g, raw = alg.graph, {}

    def put(m, c):
        raw[m] = raw.get(m, 0) + c

    for _ in range(rng.randint(1, 8)):
        m, c = _raw_monomial(rng, alg), rng.choice(scalars)
        put(m, c)
        roll = rng.random()
        if roll < 0.2:
            put(m, rng.choice(scalars))  # a repeat
        elif roll < 0.3:
            put(m, -c)  # cancels
        elif roll < 0.45 and not alg.is_basic(m):
            (u, a, _), (w, b, _) = m
            e, v = a[-1], g.source_of(a[-1])
            put(Monomial(Path(u, a[:-1], v), Path(w, b[:-1], v)), -c)
            for f in g.out_edges(v):
                if f != e:
                    t = g.target_of(f)
                    put(Monomial(Path(u, a[:-1] + (f,), t), Path(w, b[:-1] + (f,), t)), c)
    return raw


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2)], ids=["rat", "fp:2"])
def test_normal_form_matches_the_reference_on_raw_combinations(corpus, field):
    scalars = [0, 1, -1, 2, 3, -5] + ([Fraction(1, 2), Fraction(-3, 4)] if field == Rationals() else [7, 11])
    rng = random.Random(1019)
    seen = Counter()
    for g in corpus:
        for spec in (canonical_specialization(g), _last_edge_specialization(g)):
            alg = LeavittAlgebra(g, spec, field)
            for _ in range(25):
                raw = _raw_combination(rng, alg, scalars)
                want = _reference_normal_form(alg, raw)
                assert alg._normal_form(raw) == want, (g, spec, raw)
                peels = [_peels(alg, m) for m in raw]
                seen["non-basic"] += max(peels) >= 1
                seen["cascade"] += max(peels) >= 2
                seen["zero"] += not want
    assert seen["non-basic"] >= 3000 and seen["cascade"] >= 2000 and seen["zero"] >= 200, seen


def test_normal_form_peels_a_cascade_in_one_pass():
    # feeders f1 and f2 into w = c0, then a chain of n special edges e_i, each
    # of whose sources has one other out-edge g_i into a sink: [f1 e1..en][f2
    # e1..en] peels n times, to [f1][f2] minus [f1 e1..e(i-1) g_i][f2 e1..e(i-1) g_i]
    n = 500
    lines = ["vertex x1", "vertex x2"] + [f"vertex c{i}" for i in range(n + 1)]
    lines += [f"vertex s{i}" for i in range(1, n + 1)] + ["edge f1 x1 c0", "edge f2 x2 c0"]
    for i in range(1, n + 1):
        lines += [f"edge e{i} c{i - 1} c{i}", f"edge g{i} c{i - 1} s{i}"]
    g = parse_graph("\n".join(lines) + "\n")
    alg = LeavittAlgebra(g)
    chain = tuple(f"e{i}" for i in range(1, n + 1))
    raw = {Monomial(g.path("x1", ("f1",) + chain), g.path("x2", ("f2",) + chain)): 3}
    want = {Monomial(g.path("x1", ["f1"]), g.path("x2", ["f2"])): 3}
    for i in range(1, n + 1):
        a = chain[: i - 1] + (f"g{i}",)
        want[Monomial(g.path("x1", ("f1",) + a), g.path("x2", ("f2",) + a))] = -3
    got = alg._normal_form(raw)
    assert len(got) == n + 1
    assert got == want == _reference_normal_form(alg, raw)


def test_closed_path_projections_detect_ne_cycles(graphs):
    # pp* collapses to the source vertex exactly when p repeats an exit-free
    # cycle; p*p always collapses to the range vertex
    for g in graphs.values():
        alg = LeavittAlgebra(g)
        for src, edges in closed_paths_upto(g, 4):
            if not edges:
                continue
            p = alg.path_element(g.path(src, edges))
            assert p.star() * p == alg.vertex(src)
            collapses = p * p.star() == alg.vertex(src)
            assert collapses == is_power_of_ne_cycle(g, src, edges)


def test_parse_element_round_trip(g3):
    alg = LeavittAlgebra(g3)
    el = alg.parse_element("1 * [a b2] [@v3]  +  -1/2 * [@v1] [@v1]")
    assert str(el) == "-1/2*v1+[a b2][@v3]"
    rng = random.Random(909)
    for _ in range(80):
        x = random_element(rng, alg)
        assert alg.parse_element(str(x)) == x


def test_parse_element_accepts_bare_vertices(g3):
    alg = LeavittAlgebra(g3)
    assert alg.parse_element("v5 + [d][d]") == alg.parse_element("1*[@v5][@v5]+[d][d]")


def test_parse_element_rejects_garbage(g3):
    alg = LeavittAlgebra(g3)
    for text in (
        "",
        "[a]",
        "[a][a]",  # ranges differ: a ends at v2, a ends at v2 -- fine, see below
        "[a][d]",  # v2 vs v5
        "[a b3][@v4]",  # b3 does not follow a
        "[zzz][@v1]",
        "vbad",
        "2 ** [a][a]",
        "[a][@v2] ++ v5",
        "[][]",
    ):
        if text == "[a][a]":
            alg.parse_element(text)  # actually valid
            continue
        with pytest.raises(ElementSyntaxError):
            alg.parse_element(text)


# -- differential check of the element reader --------------------------------
#
# The character scanner the term regexes replaced, kept verbatim as the
# reference: the regex reader must accept and reject the same texts, build the
# same elements, and word every semantic fault the same way.

_REF_SIGNED_SCALAR = re.compile(r"[+-]?\d+(?:/\d+)?")
_REF_IDENT_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _reference_parse_element(self, text):
    g = self.graph
    zero = self.field.zero
    raw = {}
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_side():
        nonlocal pos
        if pos >= n or text[pos] != "[":
            raise ElementSyntaxError(f"expected '[' at offset {pos}")
        pos += 1
        skip_ws()
        if pos < n and text[pos] == "@":
            pos += 1
            m = _REF_IDENT_TOKEN.match(text, pos)
            if not m:
                raise ElementSyntaxError(f"expected a vertex id at offset {pos}")
            pos = m.end()
            name = m.group()
            if not g.has_vertex(name):
                raise ElementSyntaxError(f"unknown vertex {name!r}")
            side = g.vertex_path(name)
        else:
            ids = []
            while True:
                skip_ws()
                if pos < n and text[pos] == "]":
                    break
                m = _REF_IDENT_TOKEN.match(text, pos)
                if not m:
                    raise ElementSyntaxError(f"expected an edge id or ']' at offset {pos}")
                ids.append(m.group())
                pos = m.end()
            if not ids:
                raise ElementSyntaxError("empty bracket: use [@v] for a vertex path")
            try:
                side = g.path(g.source_of(ids[0]), ids)
            except ValueError as exc:
                raise ElementSyntaxError(str(exc)) from exc
        skip_ws()
        if pos >= n or text[pos] != "]":
            raise ElementSyntaxError(f"expected ']' at offset {pos}")
        pos += 1
        return side

    skip_ws()
    if pos == n:
        raise ElementSyntaxError("empty element text")
    first = True
    while pos < n:
        sign = 1
        skip_ws()
        if first:
            if pos < n and text[pos] in "+-":
                sign = -1 if text[pos] == "-" else 1
                pos += 1
            first = False
        else:
            if pos >= n:
                break
            if text[pos] == "+":
                pos += 1
            elif text[pos] == "-":
                sign = -1
                pos += 1
            else:
                raise ElementSyntaxError(f"expected '+' or '-' at offset {pos}")
        skip_ws()
        m = _REF_SIGNED_SCALAR.match(text, pos)
        if m:
            try:
                coeff = self.field.parse_scalar(m.group())
            except (ValueError, ZeroDivisionError) as exc:
                raise ElementSyntaxError(f"bad scalar {m.group()!r}: {exc}") from exc
            pos = m.end()
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
        else:
            coeff = self.field.one
        if pos < n and text[pos] == "[":
            left = parse_side()
            skip_ws()
            right = parse_side()
            if left.target != right.target:
                raise ElementSyntaxError(
                    f"paths must share a range vertex: [{left}] ends at {left.target!r}, [{right}] at {right.target!r}"
                )
            mono = Monomial(left, right)
        else:
            m = _REF_IDENT_TOKEN.match(text, pos)
            if not m:
                raise ElementSyntaxError(f"expected '[' or a vertex id at offset {pos}")
            name = m.group()
            pos = m.end()
            if not g.has_vertex(name):
                raise ElementSyntaxError(f"unknown vertex {name!r}")
            p = g.vertex_path(name)
            mono = Monomial(p, p)
        if sign < 0:
            coeff = -coeff
        raw[mono] = raw.get(mono, zero) + coeff
        skip_ws()
    return Element(self, self._normal_form(raw))


# syntax faults are worded differently by the two readers and may be found
# before or after a semantic fault in the same term; everything else is semantic
_SYNTAX_FAULTS = ("expected ", "cannot read ")
_FUZZ_NAMES = ("v1", "v2", "v3", "v4", "v5", "a", "b2", "b3", "b4", "d", "zz", "x_9")
_FUZZ_SCALARS = ("0", "1", "3", "12", "-1", "+2", "1/2", "-1/2", "2/4", "3/0", "-3/0", "1/97", "97")
_FUZZ_GLUE = ("", "", " ", " ", "  ", "\t", "\n", "\x0c")
_FUZZ_NOISE = ("[", "]", "[]", "@", "+", "-", "*", "**", "/", "3/", "@v1", "@zz", "][", "v1", "a", "3/0")


def _fuzz_walk(rng, g, start, backward):
    edges, at = [], start
    for _ in range(rng.randint(0, 3)):
        step = g.in_edges(at) if backward else g.out_edges(at)
        if not step:
            break
        e = rng.choice(step)
        edges.append(e)
        at = g.source_of(e) if backward else g.target_of(e)
    return edges[::-1] if backward else edges, at


def _fuzz_side(rng, edges, at):
    if not edges and rng.random() < 0.9:
        return ["[", "@" + at, "]"]
    if rng.random() < 0.1:
        edges = [rng.choice(_FUZZ_NAMES) for _ in range(rng.randint(0, 2))]
    return ["[", rng.choice((" ", "  ", "\t")).join(edges), "]"]


def _fuzz_text(rng, g):
    """A seeded element text: well-formed terms, then up to two token edits."""
    tokens = []
    for i in range(rng.randint(1, 3)):
        if i or rng.random() < 0.3:
            tokens.append(rng.choice("+-") if rng.random() < 0.95 else "")
        if rng.random() < 0.5:
            tokens.append(rng.choice(_FUZZ_SCALARS))
            if rng.random() < 0.5:
                tokens.append("*")
        if rng.random() < 0.3:
            tokens.append(rng.choice(_FUZZ_NAMES))
            continue
        left, mid = _fuzz_walk(rng, g, rng.choice(g.vertices), backward=False)
        right, src = _fuzz_walk(rng, g, mid, backward=True)
        if rng.random() < 0.1:
            right, src = _fuzz_walk(rng, g, rng.choice(g.vertices), backward=True)
        tokens += _fuzz_side(rng, left, mid) + _fuzz_side(rng, right, src)
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(len(tokens) + 1)
        edit = rng.randrange(3)
        if edit == 0 and i < len(tokens):
            del tokens[i]
        elif edit == 1:
            tokens.insert(i, rng.choice(_FUZZ_NOISE + _FUZZ_NAMES + _FUZZ_SCALARS))
        elif i < len(tokens):
            tokens[i] = rng.choice(_FUZZ_NOISE)
    return "".join(tok + rng.choice(_FUZZ_GLUE) for tok in tokens)


def _read(parse, alg, text):
    try:
        return parse(alg, text), None
    except ElementSyntaxError as exc:
        return None, str(exc)


@pytest.fixture(scope="module")
def fuzz_texts(g3):
    rng = random.Random(20261018)
    return [_fuzz_text(rng, g3) for _ in range(50_000)]


@pytest.mark.parametrize("field", [Rationals(), PrimeField(97)], ids=["rat", "fp:97"])
def test_parse_element_matches_the_reference_scanner(g3, field, fuzz_texts):
    alg = LeavittAlgebra(g3, field=field)
    rng = random.Random(909)
    elements = [x for x in (random_element(rng, alg) for _ in range(500)) if not x.is_zero()]
    texts = fuzz_texts + [str(x) for x in elements]
    counts = {"accepted": 0, "semantic": 0, "syntax": 0}
    for text in texts:
        want, want_msg = _read(_reference_parse_element, alg, text)
        got, got_msg = _read(LeavittAlgebra.parse_element, alg, text)
        assert (got is None) == (want is None), (text, want_msg, got_msg)
        if want is not None:
            assert got == want, text
            counts["accepted"] += 1
        elif want_msg.startswith(_SYNTAX_FAULTS) or got_msg.startswith(_SYNTAX_FAULTS):
            counts["syntax"] += 1
        else:
            assert got_msg == want_msg, text
            counts["semantic"] += 1
    # the generator must reach every outcome often enough to mean something
    assert counts["accepted"] >= 5_000 and counts["semantic"] >= 5_000, counts
    for x in elements:
        assert alg.parse_element(str(x)) == x


def test_parse_element_time_is_linear_in_long_faulty_texts(g3):
    # a regex with two adjacent whitespace runs would take minutes on these
    alg = LeavittAlgebra(g3)
    n = 20_000
    texts = [" " * n + "#", "3" + " " * n + "#", "v1 -" + " " * n + "#", "[" + " " * n + "#][a]",
             "[" + " a" * n + " #][a]", "[a]" + " " * n + "[a] #", "v5" + "+v5" * n + "+#"]
    start = time.perf_counter()
    for text in texts:
        with pytest.raises(ElementSyntaxError):
            alg.parse_element(text)
    assert time.perf_counter() - start < 5.0


def test_checked_constructors_compare_the_stored_target(g3):
    alg = LeavittAlgebra(g3)
    bad = Path("v1", ("a",), "v5")  # edge a ends at v2
    at_v5 = g3.vertex_path("v5")
    with pytest.raises(ValueError, match="ends at 'v2', not at its stored target 'v5'"):
        alg.monomial(bad, at_v5)
    with pytest.raises(ValueError, match="'v2'.*'v5'"):
        alg.monomial(at_v5, bad)
    with pytest.raises(ValueError, match="'v2'.*'v5'"):
        alg.element([(Monomial(bad, at_v5), 1)])
    with pytest.raises(ValueError, match="'v2'.*'v5'"):
        alg.path_element(bad)
    a = g3.path("v1", ["a"])
    m = alg.monomial(a, g3.vertex_path("v2"))
    assert alg.element([(m, 1)]) == alg.path_element(a) == alg.parse_element("[a][@v2]")


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2)], ids=lambda f: f.name)
def test_generators_are_their_one_monomial_elements(graphs, field):
    for g in graphs.values():
        alg = LeavittAlgebra(g, field=field)
        for v in g.vertices:
            at_v = Path(v, (), v)
            assert alg.vertex(v) == Element(alg, {Monomial(at_v, at_v): field.one})
        for e, s, t in g.edges:
            edge, at_t = Path(s, (e,), t), Path(t, (), t)
            assert alg.edge(e) == Element(alg, {Monomial(edge, at_t): field.one})
            assert alg.edge_star(e) == Element(alg, {Monomial(at_t, edge): field.one})
        with pytest.raises(UnknownVertexError, match="unknown vertex 'nowhere'"):
            alg.vertex("nowhere")
        for build in (alg.edge, alg.edge_star):
            with pytest.raises(UnknownEdgeError, match="unknown edge 'nowhere'"):
                build("nowhere")
            with pytest.raises(UnknownEdgeError):
                build(g.vertices[0])


def test_str_zero_and_signs(g3):
    alg = LeavittAlgebra(g3)
    assert str(alg.zero()) == "0"
    el = alg.vertex("v5") - alg.vertex("v1")
    assert str(el) == "v1-v5" or str(el) == "-v1+v5"
    assert str(-alg.vertex("v5")) == "-v5"
    assert str(3 * alg.vertex("v5")) == "3*v5"
    assert str(Fraction(1, 2) * alg.vertex("v5")) == "1/2*v5"
    assert str(-3 * alg.vertex("v5")) == "-3*v5"
    # a is special at v1, so [a][a] = v1 - [d][d]
    el = alg.parse_element("-v1 + 2*v2 - 1/2*[a][a] - [d][@v5] + [d][d]")
    assert str(el) == "-3/2*v1+2*v2-[d][@v5]+3/2*[d][d]"


def _assert_terms_in_monomial_key_order(el):
    alg = el.algebra
    assert [m for m, _ in el.terms()] == sorted(el._terms, key=alg.monomial_key), str(el)


def _printed_elements(rng, alg, rounds):
    """The idempotents, the center bases at d in -6..6, and random sums,
    products and stars."""
    elements = [idempotent(alg, w) for w in finitary_boolean_subalgebra(alg.graph)]
    for d in range(-6, 7):
        elements += center_basis(alg, d).elements
    for _ in range(rounds):
        x, y = random_element(rng, alg, 6, 4), random_element(rng, alg, 6, 4)
        elements += [x + y, x * y, (x - y).star(), x * y.star()]
    return elements


@pytest.mark.parametrize(
    "field", [Rationals(), PrimeField(2), PrimeField(97)], ids=["rat", "fp:2", "fp:97"]
)
def test_terms_follow_monomial_key_on_the_fixtures(graphs, field):
    rng = random.Random(4242)
    for g in graphs.values():
        for el in _printed_elements(rng, LeavittAlgebra(g, field=field), 30):
            _assert_terms_in_monomial_key_order(el)


def test_terms_follow_monomial_key_on_the_corpus(corpus):
    rng = random.Random(4343)
    for g in corpus:
        for el in _printed_elements(rng, LeavittAlgebra(g), 3):
            _assert_terms_in_monomial_key_order(el)


def test_terms_order_edges_and_vertices_by_declaration():
    # e10 is declared before e2, and z before a: declaration order, not name order
    g = parse_graph("vertex z\nvertex a\nvertex b\nedge e10 z a\nedge e2 z a\nedge x b a\n")
    alg = LeavittAlgebra(g)
    assert str(alg.parse_element("a + b + z")) == "z+a+b"
    assert str(alg.parse_element("[e2][@a] + [e10][@a]")) == "[e10][@a]+[e2][@a]"
    # parallel edges, and equal left paths that differ only on the right
    el = alg.parse_element("[e2][x] + [e2][e10] + [e10][x] + [e10][e2] + [x][e2]")
    assert str(el) == "[e10][e2]+[e10][x]+[e2][e10]+[e2][x]+[x][e2]"
    # a loop: paths of one length that first differ after a shared prefix
    loop = parse_graph("vertex v\nvertex w\nedge l v v\nedge f v w\nedge k v w\n")
    alg = LeavittAlgebra(loop)
    el = alg.parse_element("[l l k][@w] + [l l f][@w] + [l f][@w] + [l l l][@v] + [f][f]")
    assert str(el) == "[f][f]+[l f][@w]+[l l l][@v]+[l l f][@w]+[l l k][@w]"
    for el in (el, alg.parse_element("[l k][l f] + [l k][l k] + [k][k]")):
        _assert_terms_in_monomial_key_order(el)
    # the first difference decides, whatever the later edges are
    g = parse_graph("vertex v\nvertex w\nedge l v v\nedge f v w\nedge k v w\nedge m1 w w\nedge m2 w w\n")
    el = LeavittAlgebra(g).parse_element("[l k m1][@w] + [l f m2][@w]")
    assert str(el) == "[l f m2][@w]+[l k m1][@w]"


def test_printing_cycle_powers_builds_no_sort_keys(monkeypatch, g3):
    # the terms are compared up to their first differing edge, so printing a
    # long cycle power maps no whole path to its edge indexes
    alg = LeavittAlgebra(g3)
    elements = center_basis(alg, 6000).elements + center_basis(alg, -6000).elements
    expected = [sorted(el._terms, key=alg.monomial_key) for el in elements]
    texts = [str(el) for el in elements]

    def refuse(*args):
        raise AssertionError("a full sort key was built")

    monkeypatch.setattr(Graph, "path_key", refuse)
    monkeypatch.setattr(LeavittAlgebra, "monomial_key", refuse)
    for el, order, text in zip(elements, expected, texts):
        assert len(order) == 4
        assert [m for m, _ in el.terms()] == order
        assert str(el) == text


def test_printing_does_not_keep_the_graph_alive():
    g = parse_graph("vertex u\nvertex w\nedge a u w\nedge b u w\nedge c w w\n")
    ref = weakref.ref(g)
    gc.disable()
    try:
        alg = LeavittAlgebra(g)
        el = center_basis(alg, 5).elements[0]
        assert str(el) == "[c c c c c][@w]+[a c c c c c][a]+[b c c c c c][b]"
        del g, alg, el
        assert ref() is None
    finally:
        gc.enable()


def test_algebra_constructor_checks_argument_types(g3):
    spec = canonical_specialization(g3)
    for kwargs, name in [
        ({"graph": "g3"}, "graph"),
        ({"graph": None}, "graph"),
        ({"graph": g3, "specialization": dict(spec.choices)}, "specialization"),
        ({"graph": g3, "field": 5}, "field"),
        ({"graph": g3, "field": "rat"}, "field"),
    ]:
        with pytest.raises(TypeError, match=f"^{name} must be "):
            LeavittAlgebra(**kwargs)
    assert LeavittAlgebra(g3, None, None) == LeavittAlgebra(g3, spec, Rationals())
    assert LeavittAlgebra(g3, field=PrimeField(5)).field == PrimeField(5)


def test_algebra_mismatch(g1, g2):
    a1 = LeavittAlgebra(g1)
    a2 = LeavittAlgebra(g2)
    with pytest.raises(AlgebraMismatchError):
        a1.one() + a2.one()
    with pytest.raises(AlgebraMismatchError):
        a1.one() * a2.one()


def test_fp_scalar_arithmetic():
    # residues are plain ints in [0, p); the field reduces and inverts them
    field = PrimeField(7)
    assert field.zero == 0 and field.one == 1
    assert field.coerce(3) == 3 and field.coerce(-3) == 4 and field.coerce(10) == 3
    assert field.reduce(3 + 5) == 1
    assert field.reduce(3 * 5) == 1
    assert field.reduce(3 - 5) == 5
    assert field.reduce(-3) == 4
    assert field.inverse(5) == 3
    assert field.reduce(3 * field.inverse(5)) == 2  # 3 / 5 = 3 * 3 = 2 mod 7
    assert field.coerce(Fraction(1, 2)) == 4  # inverse of 2 mod 7
    assert field.parse_scalar("3/5") == 2
    for bad in (0, 7, -14):
        with pytest.raises(ZeroDivisionError):
            field.inverse(bad)
    with pytest.raises(ZeroDivisionError):
        field.coerce(Fraction(1, 7))
    # numerator and denominator are each reduced before dividing: 7/7 is 0/0, not 1
    with pytest.raises(ZeroDivisionError):
        field.parse_scalar("7/7")


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(2**31 - 1)  # Mersenne prime
    for bad in (0, 1, 4, 9, 561, 2**31 + 11, -7):
        with pytest.raises(ValueError):
            PrimeField(bad)
    # a non-int modulus is refused before the primality test, even one equal to a prime
    for bad in (7.0, 37.0, 4.0, 2.5, "7", Fraction(7), None):
        with pytest.raises(TypeError):
            PrimeField(bad)


def test_is_prime_matches_trial_division():
    # the bases 2, 3, 5 and 7 are exact below 3,215,031,751, past every
    # modulus PrimeField accepts; the least strong pseudoprimes to the bases
    # 2, to 2 and 3, and to 2, 3 and 5 must still be rejected
    for n in range(10**5):
        assert _is_prime(n) == (n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))), n
    for n in (2047, 1373653, 25326001):
        assert not _is_prime(n), n


def test_prime_field_algebra_matches_rationals_on_integer_identities(g2):
    fp = LeavittAlgebra(g2, field=PrimeField(97))
    lhs = fp.edge("c") * fp.edge_star("c")
    # -1 is stored as the residue 96
    assert str(lhs) == "v1+96*[f][f]"
    assert lhs == fp.parse_element("v1 - [f][f]")
    # relation (4) over the prime field
    total = fp.zero()
    for e in g2.out_edges("v1"):
        total = total + fp.edge(e) * fp.edge_star(e)
    assert total == fp.vertex("v1")
    assert fp.parse_element("1/2 * [@v2][@v2]") == 49 * fp.vertex("v2")


def test_rationals_field_object():
    r = Rationals()
    assert r.coerce(2) == Fraction(2)
    assert r.parse_scalar("-3/2") == Fraction(-3, 2)
    assert r == Rationals()
    with pytest.raises(TypeError):
        r.coerce(0.5)


def test_fp_scalars_do_not_mix_moduli(g2):
    # residues are bare ints, so the algebras' fields keep the moduli apart
    a = LeavittAlgebra(g2, field=PrimeField(5)).vertex("v1")
    b = LeavittAlgebra(g2, field=PrimeField(7)).vertex("v1")
    with pytest.raises(AlgebraMismatchError):
        a + b
    with pytest.raises(AlgebraMismatchError):
        a * b
