import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import weakref

import pytest

import leavitt
from leavitt import (
    FiniteArrivals,
    Graph,
    InfiniteArrivals,
    NotHereditaryError,
    annihilator_boolean_algebra,
    arrival_paths,
    center_structure,
    equivalence_classes,
    finitary_boolean_subalgebra,
    is_finitary,
    is_hereditary,
    minimal_hereditary_sets,
    parse_graph,
    perp,
)
from leavitt.cli import main
from leavitt.hereditary import _arrival_region, _index, _strong_components

from oracles import (
    brute_arrival_paths,
    brute_hereditary,
    brute_is_finitary,
    brute_minimal_hereditary,
    brute_perp,
    brute_reaches,
    hereditary_subsets,
    random_graph,
)


def fs(*names):
    return frozenset(names)


def test_is_hereditary_fixture_values(g3):
    assert is_hereditary(g3, fs("v2", "v3", "v4"))
    assert is_hereditary(g3, fs("v5"))
    assert is_hereditary(g3, fs())
    assert is_hereditary(g3, set(g3.vertices))
    assert not is_hereditary(g3, fs("v1"))
    assert not is_hereditary(g3, fs("v2"))


def test_is_hereditary_rejects_unknown_vertex(g3):
    with pytest.raises(ValueError):
        is_hereditary(g3, fs("nope"))


def test_perp_fixture_values(g3):
    assert perp(g3, fs("v5")) == fs("v2", "v3", "v4")
    assert perp(g3, fs("v2", "v3", "v4")) == fs("v5")
    assert perp(g3, fs()) == fs("v1", "v2", "v3", "v4", "v5")
    assert perp(g3, fs("v1")) == fs("v2", "v3", "v4", "v5")


def test_bare_string_is_not_read_as_a_vertex_set(g3):
    with pytest.raises(TypeError, match="^expected a collection of vertex ids, not the string 'v1'$"):
        perp(g3, "v1")
    # "ab" names a vertex, and its characters name two others
    g = parse_graph("vertex a\nvertex b\nvertex ab\nedge e ab a\n")
    assert perp(g, ["ab"]) == fs("a", "b")
    for check in (perp, is_hereditary, is_finitary, arrival_paths):
        with pytest.raises(TypeError, match="not the string 'ab'$"):
            check(g, "ab")


def test_error_messages_do_not_depend_on_the_hash_seed():
    # ids are looked up in the caller's order and the subset is walked in
    # declaration order, so no message names whatever a set iterates first
    script = """
from leavitt import arrival_paths, is_finitary, parse_graph, perp
g = parse_graph("vertex a\\nvertex b\\nvertex c\\nvertex d\\nedge e a d\\nedge f b d\\nedge h c d\\n")
for check, ws in ((perp, ["x", "y", "z"]), (arrival_paths, ["a", "b", "c"]), (is_finitary, iter("abc"))):
    try:
        check(g, ws)
    except ValueError as exc:
        print(type(exc).__name__, exc)
"""
    src = str(pathlib.Path(leavitt.__file__).resolve().parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            timeout=60,
        ).stdout
        for seed in ("1", "2")
    ]
    leaves = "NotHereditaryError not hereditary: edge 'e' leaves the subset at 'a' -> 'd'\n"
    assert outs == ["UnknownVertexError unknown vertex 'x'\n" + 2 * leaves] * 2


def test_perp_against_closure_oracle():
    rng = random.Random(303)
    for _ in range(50):
        g = random_graph(rng)
        for ws in hereditary_subsets(g):
            assert perp(g, ws) == brute_perp(g, ws)
            assert is_hereditary(g, perp(g, ws))


def test_perp_triple_collapses():
    # perp of a perp is stable under one more round trip
    rng = random.Random(304)
    for _ in range(40):
        g = random_graph(rng)
        for ws in hereditary_subsets(g):
            p = perp(g, ws)
            assert perp(g, perp(g, p)) == p


def test_hereditary_against_subset_oracle():
    rng = random.Random(305)
    import itertools

    for _ in range(30):
        g = random_graph(rng, max_vertices=4)
        for r in range(len(g.vertices) + 1):
            for combo in itertools.combinations(g.vertices, r):
                assert is_hereditary(g, combo) == brute_hereditary(g, combo)


def test_arrival_paths_fixture_values(g2, g3):
    arr = arrival_paths(g3, fs("v2", "v3", "v4"))
    assert isinstance(arr, FiniteArrivals)
    assert [str(p) for p in arr.paths] == ["@v2", "@v3", "@v4", "a"]
    assert arr.max_length() == 1

    arr = arrival_paths(g3, fs("v5"))
    assert [str(p) for p in arr.paths] == ["@v5", "d"]

    arr = arrival_paths(g3, fs())
    assert isinstance(arr, FiniteArrivals) and arr.paths == ()

    arr = arrival_paths(g2, fs("v2"))
    assert isinstance(arr, InfiniteArrivals)
    assert str(arr.witness) == "(c)"
    assert str(arr.connector) == "f"


def test_arrival_paths_requires_hereditary(g3):
    with pytest.raises(NotHereditaryError):
        arrival_paths(g3, fs("v2"))


def test_arrival_witness_and_finite_list_shapes():
    # infinite case: witness disjoint from ws, connector leads from it into ws;
    # finite case: exhaustive bounded walk search finds exactly the same paths
    rng = random.Random(306)
    for _ in range(60):
        g = random_graph(rng)
        for ws in hereditary_subsets(g):
            arr = arrival_paths(g, ws)
            if isinstance(arr, InfiniteArrivals):
                assert arr.witness.vertex_set.isdisjoint(ws)
                assert arr.connector.source in arr.witness.vertex_set
                assert arr.connector.target in ws
                g.check_cycle(arr.witness)
            else:
                longest = arr.max_length()
                expected = brute_arrival_paths(g, ws, len(g.vertices) + longest)
                got = sorted((p.source, p.edges) for p in arr.paths)
                assert got == sorted(expected)


def test_arrival_paths_on_a_chain_deeper_than_the_recursion_limit(tmp_path, capsys):
    # a feeder chain into an exit-free loop, longer than any recursive walk allows
    n = sys.getrecursionlimit() + 200
    lines = [f"vertex c{i}" for i in range(n + 1)]
    lines += [f"edge e{i} c{i} c{i + 1}" for i in range(n)]
    lines.append(f"edge loop c{n} c{n}")
    text = "\n".join(lines) + "\n"
    arr = arrival_paths(parse_graph(text), fs(f"c{n}"))
    assert isinstance(arr, FiniteArrivals)
    assert len(arr.paths) == n + 1 and arr.max_length() == n

    path = tmp_path / "chain.lpa"
    path.write_text(text)
    code = main(["center", str(path), "--degree", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(report["payload"]["basis"]) == 1


def test_is_finitary_fixture_values(g2, g3, g6):
    assert is_finitary(g3, fs("v2", "v3", "v4"))
    assert is_finitary(g3, fs("v5"))
    assert not is_finitary(g2, fs("v2"))
    assert not is_finitary(g6, fs("w1"))
    assert not is_finitary(g6, fs("w1", "w2"))
    assert is_finitary(g6, fs("v0", "w1", "w2"))


def test_is_finitary_against_walk_oracle():
    rng = random.Random(307)
    for _ in range(60):
        g = random_graph(rng)
        for ws in hereditary_subsets(g):
            assert is_finitary(g, ws) == brute_is_finitary(g, ws)


def test_minimal_hereditary_fixture_values(g1, g2, g3, g4, g5, g6):
    def names(g):
        return [tuple(sorted(w)) for w in minimal_hereditary_sets(g)]

    assert names(g1) == [("v1",)]
    assert names(g2) == [("v2",)]
    assert names(g3) == [("v2", "v3", "v4"), ("v5",)]
    assert names(g4) == [("w1",), ("w2",)]
    assert names(g5) == [("v2",)]
    assert names(g6) == [("w1",), ("w2",)]


def test_minimal_hereditary_against_subset_oracle():
    rng = random.Random(308)
    for _ in range(60):
        g = random_graph(rng)
        assert minimal_hereditary_sets(g) == brute_minimal_hereditary(g)


def test_minimal_hereditary_rejects_empty_graph():
    from leavitt import Graph

    with pytest.raises(ValueError):
        minimal_hereditary_sets(Graph((), ()))


def test_equivalence_classes_fixture_values(g1, g2, g3, g4, g6):
    assert equivalence_classes(g1) == [(0,)]
    assert equivalence_classes(g2) == [(0,)]
    assert equivalence_classes(g3) == [(0,), (1,)]
    assert equivalence_classes(g4) == [(0,), (1,)]
    # the loop at v0 reaches both sinks, gluing their classes
    assert equivalence_classes(g6) == [(0, 1)]


def test_equivalence_classes_partition_property():
    rng = random.Random(309)
    for _ in range(60):
        g = random_graph(rng)
        classes = equivalence_classes(g)
        seen = [i for members in classes for i in members]
        assert sorted(seen) == list(range(len(minimal_hereditary_sets(g))))


def test_class_support(g3, g6):
    def supports(g):
        return [(s.members, s.support) for s in center_structure(g).summands]

    assert supports(g3) == [((0,), fs("v2", "v3", "v4")), ((1,), fs("v5"))]
    assert supports(g6) == [((0, 1), fs("v0", "w1", "w2"))]


def test_class_supports_are_disjoint_and_finitary():
    rng = random.Random(310)
    for _ in range(60):
        g = random_graph(rng)
        summands = center_structure(g).summands
        assert [s.members for s in summands] == equivalence_classes(g)
        supports = [s.support for s in summands]
        for i, u in enumerate(supports):
            assert is_finitary(g, u)
            assert is_hereditary(g, u)
            for v in supports[i + 1 :]:
                assert u.isdisjoint(v)


def test_annihilator_algebra_fixture_values(g3, g6):
    fam = annihilator_boolean_algebra(g3)
    assert [tuple(sorted(w)) for w in fam] == [
        (),
        ("v5",),
        ("v2", "v3", "v4"),
        ("v1", "v2", "v3", "v4", "v5"),
    ]
    assert len(annihilator_boolean_algebra(g6)) == 4


def test_annihilator_algebra_is_boolean():
    rng = random.Random(311)
    for _ in range(50):
        g = random_graph(rng)
        fam = set(annihilator_boolean_algebra(g))
        assert len(fam) == 2 ** len(minimal_hereditary_sets(g))
        for w1 in fam:
            assert perp(g, w1) in fam
            assert perp(g, perp(g, w1)) == w1
            for w2 in fam:
                assert w1 & w2 in fam


def test_finitary_subalgebra_fixture_values(g2, g3, g6):
    assert [tuple(sorted(w)) for w in finitary_boolean_subalgebra(g3)] == [
        (),
        ("v5",),
        ("v2", "v3", "v4"),
        ("v1", "v2", "v3", "v4", "v5"),
    ]
    assert [tuple(sorted(w)) for w in finitary_boolean_subalgebra(g6)] == [
        (),
        ("v0", "w1", "w2"),
    ]
    assert len(finitary_boolean_subalgebra(g2)) == 2


def test_finitary_subalgebra_members_are_finitary_annihilators():
    rng = random.Random(312)
    for _ in range(50):
        g = random_graph(rng)
        fam = finitary_boolean_subalgebra(g)
        assert len(fam) == 2 ** len(equivalence_classes(g))
        for w in fam:
            assert is_hereditary(g, w)
            assert is_finitary(g, w)
            assert perp(g, perp(g, w)) == w
            assert perp(g, w) in set(fam)


def test_center_structure_iso_strings(graphs):
    expected = {
        "g1": "F[t^-1,t]",
        "g2": "F",
        "g3": "F[t^-1,t] (+) F",
        "g4": "F (+) F",
        "g5": "F",
        "g6": "F",
    }
    for name, iso in expected.items():
        assert center_structure(graphs[name]).isomorphism == iso


def test_center_structure_laurent_recognition(g1, g3, g6):
    rep = center_structure(g3)
    kinds = [(s.is_laurent, s.cycle_length) for s in rep.summands]
    assert kinds == [(True, 3), (False, None)]
    assert str(rep.summands[0].cycle) == "(b2 b3 b4)"
    rep = center_structure(g1)
    assert rep.summands[0].is_laurent and rep.summands[0].cycle_length == 1
    rep = center_structure(g6)
    assert not rep.summands[0].is_laurent


def test_laurent_cycles_are_the_canonical_rotation(corpus):
    # the walk starts at the first-declared vertex, here in the middle of the cycle
    g = parse_graph("vertex b\nvertex a\nvertex c\nedge x a b\nedge y b c\nedge z c a\n")
    (s,) = center_structure(g).summands
    assert str(s.cycle) == "(y z x)" and s.cycle.sources == ("b", "c", "a")
    for g in [g] + corpus:
        for s in center_structure(g).summands:
            if s.cycle is not None:
                assert g.cycle(s.cycle.edges) == s.cycle
                assert s.cycle.vertex_set in minimal_hereditary_sets(g)


def test_structure_cache_does_not_keep_the_graph_alive():
    g = parse_graph("vertex v\nvertex w\nedge e v w\nedge l w w\n")
    ref = weakref.ref(g)
    gc.disable()
    try:
        center_structure(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_cached_results_are_not_shared_with_callers(g3):
    sets = minimal_hereditary_sets(g3)
    classes = equivalence_classes(g3)
    sets.clear()
    classes.append((7,))
    assert minimal_hereditary_sets(g3) == [fs("v2", "v3", "v4"), fs("v5")]
    assert equivalence_classes(g3) == [(0,), (1,)]


def test_strong_components_are_reachability_classes_in_topological_order(corpus):
    rng = random.Random(808)
    for g in corpus + [random_graph(rng, 40, 80) for _ in range(50)]:
        comps, comp_of, succs = _strong_components(g)
        pairs = brute_reaches(g)
        mutual = {
            frozenset(u for u in g.vertices if (u, v) in pairs and (v, u) in pairs)
            for v in g.vertices
        }
        assert len(comps) == len(mutual) and {frozenset(S) for S in comps} == mutual
        assert comp_of == {v: i for i, S in enumerate(comps) for v in S}
        for e in g.edge_ids():
            assert comp_of[g.source_of(e)] <= comp_of[g.target_of(e)]
        # the condensation: j follows i != j exactly when an edge runs from
        # SCC i to SCC j, and i follows itself exactly when it holds a cycle
        crossing = {(comp_of[g.source_of(e)], comp_of[g.target_of(e)]) for e in g.edge_ids()}
        loops = {g.source_of(e) for e in g.edge_ids() if g.source_of(e) == g.target_of(e)}
        assert len(succs) == len(comps)
        for i, S in enumerate(map(set, comps)):
            for j in range(len(comps)):
                if j != i:
                    assert (j in succs[i]) == ((i, j) in crossing), (g, i, j)
            assert (i in succs[i]) == (len(S) >= 2 or bool(S & loops)), (g, i)

    # iterative sweeps: no recursion limit on a long cycle or a long chain
    n = 3000
    names = [f"c{i}" for i in range(n)]
    ring = Graph(names, [(f"e{i}", names[i], names[(i + 1) % n]) for i in range(n)])
    comps, _, succs = _strong_components(ring)
    assert [set(S) for S in comps] == [set(names)] and succs == [{0}]
    chain = Graph(names, [(f"e{i}", names[i], names[i + 1]) for i in range(n - 1)])
    assert _strong_components(chain)[0::2] == ([[v] for v in names], [{i + 1} for i in range(n - 1)] + [set()])


# -- the classes, supports and Boolean algebras from their definitions -------


def _walk_reaches(g):
    """(u, v) for every vertex v a walk from u visits, by a search from each u."""
    pairs = set()
    for u in g.vertices:
        seen, todo = {u}, [u]
        while todo:
            for e in g.out_edges(todo.pop()):
                t = g.target_of(e)
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        pairs.update((u, t) for t in seen)
    return pairs


class _Oracle:
    """Minimal sets, classes, supports and both Boolean algebras, computed
    from a reachability relation by their definitions alone."""

    def __init__(self, g, reach):
        self.g = g
        self.below = {v: frozenset(t for (s, t) in reach if s == v) for v in g.vertices}
        # a minimal hereditary set is everything below a vertex that all of it reaches back
        self.minimal = sorted(
            {self.below[v] for v in g.vertices if all((u, v) in reach for u in self.below[v])},
            key=lambda w: min(map(g.vertex_index, w)),
        )
        self.on_cycle = {g.source_of(e) for e in g.edge_ids() if (g.target_of(e), g.source_of(e)) in reach}
        k = len(self.minimal)
        related = {
            (a, b)
            for a in range(k)
            for b in range(k)
            if a == b
            or any(
                v not in self.minimal[a] | self.minimal[b]
                and not self.below[v].isdisjoint(self.minimal[a])
                and not self.below[v].isdisjoint(self.minimal[b])
                for v in self.on_cycle
            )
        }
        while True:  # transitive closure
            more = {(a, d) for (a, b) in related for (c, d) in related if b == c}
            if more <= related:
                break
            related |= more
        self.classes = sorted({tuple(b for b in range(k) if (a, b) in related) for a in range(k)})

    def perp(self, ws):
        return frozenset(v for v in self.g.vertices if self.below[v].isdisjoint(ws))

    def support(self, indexes):
        return self.perp(self.perp(frozenset().union(*(self.minimal[i] for i in indexes))))

    def joins(self, groups):
        members = {
            self.support([i for j, grp in enumerate(groups) if pick >> j & 1 for i in grp])
            for pick in range(1 << len(groups))
        }
        return sorted(members, key=lambda s: (len(s), sorted(map(self.g.vertex_index, s))))


def _check_structure(g, oracle, algebras=True):
    assert minimal_hereditary_sets(g) == oracle.minimal
    assert equivalence_classes(g) == oracle.classes
    summands = center_structure(g).summands
    assert [s.members for s in summands] == oracle.classes
    for s in summands:
        assert s.support == oracle.support(s.members)
    if algebras:
        assert annihilator_boolean_algebra(g) == oracle.joins([(i,) for i in range(len(oracle.minimal))])
        assert finitary_boolean_subalgebra(g) == oracle.joins(oracle.classes)


def _shaped_like_structure_large(rng, weights):
    """Forward edges of step 1-12, and one edge in ten back by 0-4 steps."""
    n = rng.randint(60, 120)
    edges = []
    for i in range(n):
        for _ in range(rng.choices((0, 1, 2), weights=weights)[0]):
            j = min(n - 1, i + rng.randint(1, 12)) if rng.random() < 0.9 else max(0, i - rng.randint(0, 4))
            edges.append((f"e{len(edges)}", f"v{i}", f"v{j}"))
    return Graph([f"v{i}" for i in range(n)], edges)


def test_structure_matches_its_definitions_on_small_graphs():
    rng = random.Random(1212)
    merged = 0
    for _ in range(200):
        g = random_graph(rng)
        reach = brute_reaches(g)
        assert _walk_reaches(g) == reach
        oracle = _Oracle(g, reach)
        assert oracle.minimal == brute_minimal_hereditary(g)
        for cls in oracle.classes:
            union = frozenset().union(*(oracle.minimal[i] for i in cls))
            assert oracle.support(cls) == brute_perp(g, brute_perp(g, union))
        _check_structure(g, oracle)
        merged += any(len(cls) > 1 for cls in oracle.classes)
    assert merged >= 3


def test_structure_matches_its_definitions_on_large_graphs():
    rng = random.Random(1213)
    merged = laurent = 0
    # few sinks, so that both Boolean algebras (2^k and 2^m members) stay small
    for _ in range(20):
        g = _shaped_like_structure_large(rng, (1, 12, 6))
        oracle = _Oracle(g, _walk_reaches(g))
        assert len(oracle.minimal) <= 12
        _check_structure(g, oracle)
        merged += any(len(cls) > 1 for cls in oracle.classes)
        laurent += center_structure(g).laurent_count
    assert merged >= 5 and laurent >= 5
    # the benchmark's own mix of sinks: too many minimal sets for the algebras
    for _ in range(10):
        g = _shaped_like_structure_large(rng, (5, 12, 3))
        _check_structure(g, _Oracle(g, _walk_reaches(g)), algebras=False)


def test_perp_and_is_finitary_against_the_oracle_on_large_graphs():
    rng = random.Random(1214)
    unhereditary = infinite = 0
    for _ in range(10):
        g = _shaped_like_structure_large(rng, (5, 12, 3))
        oracle = _Oracle(g, _walk_reaches(g))
        for _ in range(20):
            ws = rng.sample(g.vertices, rng.randint(1, 8))
            assert perp(g, ws) == oracle.perp(ws)
            unhereditary += not is_hereditary(g, ws)
            W = frozenset().union(*(oracle.below[v] for v in ws))  # the least hereditary set holding ws
            # the cycle vertices outside W that reach it, in declaration order
            looping = [v for v in g.vertices if v in oracle.on_cycle and v not in W and oracle.below[v] & W]
            assert is_finitary(g, W) == (not looping)
            if looping:
                arr = arrival_paths(g, W)
                assert looping[0] in arr.witness.vertex_set and arr.witness.vertex_set.isdisjoint(W)
                assert arr.connector.source == looping[0] and arr.connector.target in W
                infinite += 1
    assert unhereditary >= 150 and 20 <= infinite <= 180, (unhereditary, infinite)


# -- the index's supports and arrival regions are the searched ones ----------


def _forward_graph(rng):
    """A graph of the shape of the ``structure-large`` benchmark workload:
    150-900 vertices of out-degree 0, 1 or 2, most edges a short jump
    forward, a few a short step back, so there are many sinks, some cycles
    and deep arrival regions."""
    n = rng.randint(150, 900)
    edges = []
    for i in range(n):
        for _ in range(rng.choices((0, 1, 2), weights=(5, 12, 3))[0]):
            j = min(n - 1, i + rng.randint(1, 12)) if rng.random() < 0.9 else max(0, i - rng.randint(0, 4))
            edges.append((f"e{len(edges)}", f"v{i}", f"v{j}"))
    return Graph([f"v{i}" for i in range(n)], edges)


def test_index_regions_are_the_searched_arrival_regions(corpus):
    rng = random.Random(4242)
    laurent = 0
    for g in corpus + [_forward_graph(rng) for _ in range(50)]:
        idx = _index(g)
        for s, (W, below, cycle, above) in zip(idx.summands, idx.arrivals(), strict=True):
            assert W == list(g.sorted_vertices(s.support)) and cycle == s.cycle
            assert below == _arrival_region(g, s.support)[1]
            if s.cycle is None:
                assert above is None
            else:
                assert above == _arrival_region(g, s.cycle.vertex_set)[1]
                laurent += 1
    assert laurent > 100, laurent
