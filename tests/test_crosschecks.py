"""Results of related inputs checked against each other on the seeded corpus:
another specialization, another scalar field, another declaration order."""

import json
import random

from leavitt import (
    Graph,
    LeavittAlgebra,
    PrimeField,
    Rationals,
    Specialization,
    brute_force_center,
    center_basis,
    center_dimension_predicted,
    center_structure,
    oracle_bound,
    spans_equal,
)
from leavitt.cli import main

from conftest import CORPUS_SEED

DEGREES = range(-3, 4)


def test_center_does_not_depend_on_the_specialization(corpus):
    # the canonical basis, renormalised under other special edges, spans the
    # oracle's center there and the basis built there directly; every vertex
    # with a choice gets a special edge other than its canonical one
    rng = random.Random(CORPUS_SEED + 1)
    for g in corpus:
        canonical = LeavittAlgebra(g)
        choices = {
            v: rng.choice(g.out_edges(v)[1:] or g.out_edges(v))
            for v in g.vertices
            if g.out_edges(v)
        }
        other = LeavittAlgebra(g, Specialization(g, choices))
        for d in DEGREES:
            moved = [other.element(x.terms()) for x in center_basis(canonical, d).elements]
            oracle = brute_force_center(other, d, oracle_bound(g, d))
            assert len(oracle) == len(moved) == center_dimension_predicted(g, d)
            assert spans_equal(moved, oracle), (choices, d)
            assert spans_equal(moved, center_basis(other, d).elements), (choices, d)


def test_oracle_dimensions_do_not_depend_on_the_field(corpus):
    fields = [Rationals(), PrimeField(2), PrimeField(3), PrimeField(97)]
    for g in corpus[:40]:
        for d in DEGREES:
            dims = []
            for field in fields:
                alg = LeavittAlgebra(g, field=field)
                oracle = brute_force_center(alg, d, oracle_bound(g, d))
                basis = center_basis(alg, d).elements
                assert len(oracle) == len(basis) and spans_equal(oracle, basis), (field.name, d)
                dims.append(len(oracle))
            assert dims == [center_dimension_predicted(g, d)] * len(fields), d


def test_declaration_order_does_not_change_the_center(corpus):
    rng = random.Random(CORPUS_SEED + 2)
    for g in corpus:
        vertices, edges = list(g.vertices), list(g.edges)
        rng.shuffle(vertices)
        rng.shuffle(edges)
        shuffled = Graph(vertices, edges)
        assert center_structure(shuffled).isomorphism == center_structure(g).isomorphism
        for d in DEGREES:
            dim = center_dimension_predicted(g, d)
            assert center_dimension_predicted(shuffled, d) == dim, (vertices, edges, d)
            oracle = brute_force_center(LeavittAlgebra(shuffled), d, oracle_bound(shuffled, d))
            assert len(oracle) == dim, (vertices, edges, d)


def test_idempotents_do_not_depend_on_the_field(corpus, tmp_path, capsys):
    # the same finitary subsets pass the Boolean-law certificate over every field
    for n, g in enumerate(corpus):
        path = tmp_path / f"g{n}.lpa"
        path.write_text(
            "".join(f"vertex {v}\n" for v in g.vertices)
            + "".join(f"edge {e} {s} {t}\n" for e, s, t in g.edges)
        )
        subsets = []
        for field in ("rat", "fp:2", "fp:97"):
            code = main(["idempotents", str(path), "--json", "--field", field])
            out, err = capsys.readouterr()
            assert (code, err) == (0, ""), (n, field)
            subsets.append([row["vertices"] for row in json.loads(out)["payload"]["subsets"]])
        assert subsets[0] == subsets[1] == subsets[2], n
