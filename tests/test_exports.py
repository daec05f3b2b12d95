import leavitt
from leavitt import Element, LeavittAlgebra

# the package's exports before the unused graph API was removed
EARLIER_EXPORTS = {
    "Graph", "Path", "Cycle", "Specialization", "GraphError", "GraphParseError",
    "GraphSyntaxError", "DuplicateIdError", "UnknownVertexError", "UnknownEdgeError",
    "NotACycleError", "CycleCapExceeded", "parse_graph", "descendants", "simple_cycles",
    "cycle_exits", "is_ne_cycle", "canonical_specialization", "NotHereditaryError",
    "NotFinitaryError", "FiniteArrivals", "InfiniteArrivals", "is_hereditary", "perp",
    "is_finitary", "arrival_paths", "points_to", "minimal_hereditary_sets",
    "equivalence_classes", "class_support", "annihilator_boolean_algebra",
    "finitary_boolean_subalgebra", "ClassSummand", "CenterReport", "center_structure",
    "Rationals", "PrimeField", "FpScalar", "Monomial", "Element", "LeavittAlgebra",
    "AlgebraMismatchError", "ElementSyntaxError", "HasExitError", "idempotent",
    "cycle_generator", "embed", "CentralBasis", "center_basis",
    "center_dimension_predicted", "oracle_bound", "brute_force_center", "span_dimension",
    "spans_equal", "__version__",
}
# the unused graph API, the Z/p scalar class once residues became plain ints,
# class_support, which the summands of center_structure already carry, and the
# second construction of the cycle powers (cycle_generator, embed and its
# HasExitError), which center_basis writes in closed form
REMOVED = {
    "CycleCapExceeded", "descendants", "simple_cycles", "points_to", "FpScalar", "class_support",
    "HasExitError", "cycle_generator", "embed",
}


def test_exports_are_the_earlier_ones_minus_the_removed_graph_api():
    assert len(leavitt.__all__) == len(set(leavitt.__all__))
    assert set(leavitt.__all__) == EARLIER_EXPORTS - REMOVED
    for name in leavitt.__all__:
        assert getattr(leavitt, name) is not None


# the public methods of the two algebra classes before LeavittAlgebra.generators
# was removed: its one caller, Element.is_central, now checks the term sources
# and forms only the edge products
EARLIER_METHODS = {
    Element: {"is_zero", "terms", "degrees", "star", "degree_component", "is_central"},
    LeavittAlgebra: {
        "zero", "one", "vertex", "edge", "edge_star", "path_element", "monomial", "element",
        "generators", "is_basic", "monomial_key", "parse_element",
    },
}
REMOVED_METHODS = {LeavittAlgebra: {"generators"}}


def test_public_methods_are_the_earlier_ones_minus_the_removed():
    for cls, earlier in EARLIER_METHODS.items():
        public = {name for name in dir(cls) if not name.startswith("_") and callable(getattr(cls, name))}
        assert public == earlier - REMOVED_METHODS.get(cls, set()), cls.__name__
