"""Value semantics of the package's small immutable types.

Each type is equal only to an instance of the same type with equal fields,
hashes as the tuple of its fields, refuses assignment and deletion, has a
``Name(field=value, ...)`` repr, takes its fields by position or keyword,
each exactly once, supports ``match`` by position, and survives pickle,
copy and deepcopy.
"""

import copy
import pickle

import pytest

from leavitt import (
    CenterReport,
    CentralBasis,
    ClassSummand,
    Cycle,
    FiniteArrivals,
    InfiniteArrivals,
    Path,
    PrimeField,
    Rationals,
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
