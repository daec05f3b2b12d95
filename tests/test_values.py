"""Value semantics of the package's immutable types.

Each small type is equal only to an instance of the same type with equal
fields, hashes as the tuple of its fields, refuses assignment and deletion,
has a ``Name(field=value, ...)`` repr, takes its fields by position or
keyword, each exactly once, supports ``match`` by position, and survives
pickle, copy and deepcopy.  The three types an algebra is built from,
``Graph``, ``Specialization`` and ``LeavittAlgebra``, share these semantics
but keep their own validating constructors, and ``Graph`` its short repr.
"""

import copy
import pickle

import pytest

from leavitt import (
    CenterReport,
    CentralBasis,
    ClassSummand,
    Cycle,
    Element,
    FiniteArrivals,
    Graph,
    InfiniteArrivals,
    LeavittAlgebra,
    Path,
    PrimeField,
    Rationals,
    Specialization,
    canonical_specialization,
    center_structure,
    parse_graph,
)

G = parse_graph("vertex v\nvertex w\nedge c v v\nedge g v w\n")
LOOP = Path("v", ("c",), "v")
TO_W = Path("v", ("g",), "w")
CYCLE = Cycle(LOOP, ("v",))
SUPPORT = frozenset({"w"})


# (type, field names, field values, other field values) for each type
CASES = [
    (Cycle, ("path", "sources"), (LOOP, ("v",)), (TO_W, ("v",))),
    (Rationals, (), (), None),
    (PrimeField, ("p",), (7,), (11,)),
    (FiniteArrivals, ("paths",), ((LOOP, TO_W),), ((TO_W,),)),
    (InfiniteArrivals, ("witness", "connector"), (CYCLE, TO_W), (CYCLE, LOOP)),
    (ClassSummand, ("members", "support", "cycle"), ((0,), SUPPORT, None), ((0,), SUPPORT, CYCLE)),
    (
        CenterReport,
        ("graph", "minimal_sets", "summands"),
        (G, (SUPPORT,), (ClassSummand((0,), SUPPORT, None),)),
        (G, (SUPPORT,), ()),
    ),
    (CentralBasis, ("degree", "elements", "provenance"), (0, ("e",), ("why",)), (1, ("e",), ("why",))),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, values, other):
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not (a != b)
    assert hash(a) == hash(b) == hash(values)
    # keywords in any order, and positional arguments followed by keywords
    assert cls(**dict(reversed(list(zip(names, values))))) == a
    for k in range(len(names) + 1):
        assert cls(*values[:k], **dict(zip(names[k:], values[k:]))) == a
    assert a != values and values != a
    assert a != object()
    if other is not None:
        assert a != cls(*other)


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_constructor_takes_each_field_once(cls, names, values, other):
    bad = [
        lambda: cls(*values, None),  # one positional argument too many
        lambda: cls(**dict(zip(names, values)), extra=None),  # an unknown keyword
    ]
    if names:
        bad += [
            lambda: cls(*values[:-1]),  # the last field missing
            lambda: cls(**dict(zip(names[1:], values[1:]))),  # the first field missing
            lambda: cls(*values, **{names[0]: values[0]}),  # a field given both ways
        ]
    for build in bad:
        with pytest.raises(TypeError, match=cls.__name__):
            build()


def test_rationals_take_no_fields():
    assert Rationals() == Rationals(**{})
    for build in (lambda: Rationals(7), lambda: Rationals(p=7)):
        with pytest.raises(TypeError, match=r"Rationals takes the fields \(\)"):
            build()


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_instances_are_immutable(cls, names, values, other):
    x = cls(*values)
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_repr_names_the_fields(cls, names, values, other):
    x = cls(*values)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(x) == f"{cls.__name__}({fields})"
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, names, values, other):
    x = cls(*values)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x and hash(y) == hash(x)
        assert tuple(getattr(y, name) for name in names) == values


def test_match_binds_fields_by_position():
    match PrimeField(7), CYCLE, ClassSummand((0,), SUPPORT, None):
        case PrimeField(p), Cycle(path, sources), ClassSummand(members, support, None):
            assert (p, path, sources, members, support) == (7, LOOP, ("v",), (0,), SUPPORT)
        case _:
            pytest.fail("no case matched")


def test_reprs_of_the_small_types():
    assert repr(Rationals()) == "Rationals()"
    assert repr(PrimeField(7)) == "PrimeField(p=7)"
    assert repr(CYCLE) == "Cycle(path=Path(source='v', edges=('c',), target='v'), sources=('v',))"
    assert repr(CentralBasis(2, (), ())) == "CentralBasis(degree=2, elements=(), provenance=())"


def test_central_basis_length_counts_its_elements():
    assert len(CentralBasis(0, ("a", "b"), ("x", "y"))) == 2
    assert len(CentralBasis(3, (), ())) == 0


def test_field_objects_keep_their_class_attributes():
    r, f = Rationals(), PrimeField(7)
    assert (r.name, r.zero, r.one) == ("rat", 0, 1)
    assert (f.name, f.zero, f.one) == ("fp:7", 0, 1)
    assert Rationals() != PrimeField(7)


SPEC = Specialization(G, {"v": "c"})
# (type, field names, field values, other field values, private attributes)
# for the three types an algebra is built from
CENTRAL_CASES = [
    (
        Graph,
        ("vertices", "edges"),
        (("v", "w"), (("c", "v", "v"), ("g", "v", "w"))),
        (("v", "w"), (("c", "v", "v"),)),
        ("_vindex", "_eindex", "_src", "_dst", "_out", "_in", "_scc_index", "_path_layers"),
    ),
    (Specialization, ("graph", "choices"), (G, (("v", "c"),)), (G, (("v", "g"),)), ("_edge_at", "special_edges")),
    (LeavittAlgebra, ("graph", "specialization", "field"), (G, SPEC, Rationals()), (G, SPEC, PrimeField(7)), ()),
]
CENTRAL_IDS = [case[0].__name__ for case in CENTRAL_CASES]


@pytest.mark.parametrize("cls, names, values, other, private", CENTRAL_CASES, ids=CENTRAL_IDS)
def test_central_types_equal_and_hash_as_their_fields(cls, names, values, other, private):
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a is not b and a == b and not (a != b)
    assert hash(a) == hash(b) == hash(values)
    assert cls.__match_args__ == names
    assert tuple(getattr(a, name) for name in names) == values
    assert a != values and values != a
    assert a != object()
    assert a != cls(*other) and cls(*other) != a


def test_central_types_equal_however_built():
    assert G == Graph(iter(G.vertices), [list(edge) for edge in G.edges])
    assert hash(G) == hash((G.vertices, G.edges))
    assert SPEC == Specialization(G, (("v", "c"),)) == Specialization(G, iter([("v", "c")])) == canonical_specialization(G)
    assert hash(SPEC) == hash((G, (("v", "c"),)))
    default = LeavittAlgebra(G)
    assert default == LeavittAlgebra(G, SPEC) == LeavittAlgebra(G, field=Rationals()) == LeavittAlgebra(G, None, None)
    assert hash(default) == hash((G, SPEC, Rationals()))
    assert default != LeavittAlgebra(G, Specialization(G, {"v": "g"}))


def test_match_binds_the_fields_of_the_central_types():
    match G, SPEC, LeavittAlgebra(G, field=PrimeField(7)):
        case Graph(vertices, edges), Specialization(graph, choices), LeavittAlgebra(g, s, PrimeField(p)):
            assert (vertices, edges) == (("v", "w"), (("c", "v", "v"), ("g", "v", "w")))
            assert (graph, choices, g, s, p) == (G, (("v", "c"),), G, SPEC, 7)
        case _:
            pytest.fail("no case matched")


@pytest.mark.parametrize("cls, names, values, other, private", CENTRAL_CASES, ids=CENTRAL_IDS)
def test_central_types_survive_pickle_and_copy(cls, names, values, other, private):
    x = cls(*values)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x and hash(y) == hash(x)
        assert tuple(getattr(y, name) for name in names) == values
        assert repr(y) == repr(x)


def test_copied_graphs_and_specializations_rebuild_their_tables():
    g = parse_graph("vertex v\nvertex w\nedge c v v\nedge g v w\n")
    center_structure(g)  # fills the graph's cache, which a copy does not carry
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert (h.out_edges("v"), h.in_edges("w"), h.vertex_index("w")) == (("c", "g"), ("g",), 1)
        assert center_structure(h) == center_structure(g)
    for s in (pickle.loads(pickle.dumps(SPEC)), copy.deepcopy(SPEC)):
        assert (s["v"], s.special_edges) == ("c", frozenset({"c"}))


@pytest.mark.parametrize("cls, names, values, other, private", CENTRAL_CASES, ids=CENTRAL_IDS)
def test_central_types_are_immutable(cls, names, values, other, private):
    x = cls(*values)
    for name in names + private + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(*values) and hash(x) == hash(values)
    assert set(private) <= set(cls.__slots__)


def test_reprs_of_the_central_types():
    assert repr(G) == "Graph(2 vertices, 2 edges)"
    assert repr(SPEC) == "Specialization(graph=Graph(2 vertices, 2 edges), choices=(('v', 'c'),))"
    assert repr(LeavittAlgebra(G, field=PrimeField(7))) == (
        "LeavittAlgebra(graph=Graph(2 vertices, 2 edges), specialization=Specialization(graph=Graph(2 vertices, 2 edges), "
        "choices=(('v', 'c'),)), field=PrimeField(p=7))"
    )


def test_elements_are_immutable_unhashable_values():
    # an element is a value of its algebra and its term dict: it refuses
    # assignment and deletion, compares by value, is unhashable like the
    # dict it holds, and survives pickle and copy
    alg = LeavittAlgebra(G)
    el = alg.parse_element("2*[c][c] - [g][@w] + w")
    for name in ("algebra", "_terms", "extra"):
        with pytest.raises(AttributeError):
            setattr(el, name, None)
        with pytest.raises(AttributeError):
            delattr(el, name)
    assert el == alg.parse_element("w - [g][@w] + 2*[c][c]") and str(el) == "2*v+w-[g][@w]-2*[g][g]"
    assert el != alg.zero() and el != str(el) and el != Element(LeavittAlgebra(G, field=PrimeField(7)), el._terms)
    with pytest.raises(TypeError, match="unhashable type: 'Element'"):
        hash(el)
    assert repr(el) == "Element(2*v+w-[g][@w]-2*[g][g])"
    assert Element.__match_args__ == ("algebra", "_terms")
    for y in (pickle.loads(pickle.dumps(el)), copy.copy(el), copy.deepcopy(el)):
        assert type(y) is Element and y == el and repr(y) == repr(el)
