"""Seeded input generators for the four benchmark workloads.

Every workload is a catalog of operations.  Catalog entry ``i`` of a workload
is a pure function of the workload name and ``i``: one graph file and one CLI
argument list.  The expected stdout digest of each entry was recorded once
(see ``record.py``), which is what lets the benchmark check every output.
A run's ``--seed`` picks which entries run and in what order (``op_order``).

Each generator's docstring says why its workload exists (``WHY``); the
reason is part of the benchmark's contract, so a later change must not tune a
workload away from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CATALOG_DIR = Path(__file__).resolve().parent / "catalog"

# Catalog sizes: about four times what a 25-second run of the recording commit
# gets through.  A program fast enough to use up its catalog ends the run
# early; every metric stays valid, measured over the whole catalog.
CATALOG_SIZE = {
    "oracle-corpus": 2000,
    "structure-large": 1000,
    "idempotents-fork": 2400,
    "cycle-powers": 2400,
}

# Strata per workload: every run takes one entry of each stratum per round,
# so any prefix of a run has the same cost mix whatever the seed.
STRATA = 20

PROBES = 3

@dataclass(frozen=True)
class Op:
    """One CLI operation: a graph file's text and the argv around it."""

    name: str
    text: str
    args: tuple[str, ...]  # argv with "{file}" standing for the graph path
    expected_dim: int | None = None  # structural check for center ops

    def argv(self, path: str) -> list[str]:
        return [path if a == "{file}" else a for a in self.args]


def _graph_text(vertices: list[str], edges: list[tuple[str, str]], tag) -> str:
    """The graph file; ``tag`` goes into every vertex name, so no two
    operations of a run share a graph, not even an isomorphic copy."""
    lines = [f"vertex {v}_{tag}" for v in vertices]
    lines += [f"edge e{i} {s}_{tag} {t}_{tag}" for i, (s, t) in enumerate(edges, 1)]
    return "\n".join(lines) + "\n"


def _oracle_corpus(rng: random.Random, index: int) -> Op:
    """The brute-force cross-check: brute_force_center and tiny Element
    products dominate, hereditary is under 5%, and alternating the field
    makes a scalar change show for both Fraction and FpScalar."""
    n = rng.randint(2, 5)
    pairs = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1)]
    m = rng.randint(1, min(8, len(pairs)))
    edges = [(f"v{s}", f"v{t}") for s, t in rng.sample(pairs, m)]
    field = "rat" if index % 2 == 0 else "fp:2147483647"
    text = _graph_text([f"v{i}" for i in range(1, n + 1)], edges, index)
    args = ("verify", "{file}", "--max-degree", "4", "--field", field)
    return Op(f"oracle-corpus/{index}", text, args)


def _structure_large(rng: random.Random, index: int) -> Op:
    """Structure theory at scale: perp reruns per class and center_structure
    per report on hundreds of vertices, large degree-0 idempotents are
    printed, and there is no oracle work."""
    n = rng.randint(150, 900)
    edges = []
    for i in range(n):
        for _ in range(rng.choices((0, 1, 2), weights=(5, 12, 3))[0]):
            if rng.random() < 0.9:
                j = min(n - 1, i + rng.randint(1, 12))
            else:
                j = max(0, i - rng.randint(0, 4))
            edges.append((f"v{i + 1}", f"v{j + 1}"))
    text = _graph_text([f"v{i}" for i in range(1, n + 1)], edges, index)
    if index % 2 == 0:
        args = ("analyze", "{file}")
    else:
        args = ("center", "{file}", "--degree", "0")
    return Op(f"structure-large/{index}", text, args)


def _idempotents_fork(rng: random.Random, index: int) -> Op:
    """The Boolean-law check of idempotents: 4^m products of large elements,
    few kernel calls on many terms."""
    chain = rng.randint(1, 4)
    m = rng.choices((2, 3, 4, 5), weights=(8, 6, 5, 1))[0]
    vertices = [f"f{i}" for i in range(1, chain + 1)] + ["h"]
    edges = [(f"f{i}", f"f{i + 1}") for i in range(1, chain)] + [(f"f{chain}", "h")]
    for b in range(1, m + 1):
        kind = rng.choice(("sink", "loop", "chain"))
        length = rng.randint(2, 3) if kind == "chain" else 1
        names = [f"b{b}_{k}" for k in range(1, length + 1)]
        vertices += names
        edges.append(("h", names[0]))
        edges += list(zip(names, names[1:]))
        if kind == "loop":
            edges.append((names[0], names[0]))
    text = _graph_text(vertices, edges, index)
    return Op(f"idempotents-fork/{index}", text, ("idempotents", "{file}"))


def _cycles_with_feeders(
    rng: random.Random, chain: list[str] = ()
) -> tuple[list[str], list[tuple[str, str]], list[int]]:
    """1-3 exit-free sink cycles of length 1-6, each fed by 0-3 tree
    vertices; ``chain`` names the vertices of an extra feeder chain into the
    first cycle.  Returns vertices, edges and the cycle lengths."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    lengths = []
    for c in range(1, rng.randint(1, 3) + 1):
        length = rng.randint(1, 6)
        lengths.append(length)
        ring = [f"c{c}_{k}" for k in range(1, length + 1)]
        tree = [f"t{c}_{k}" for k in range(1, rng.randint(0, 3) + 1)]
        vertices += ring + tree
        edges += list(zip(ring, ring[1:] + ring[:1]))
        for k, t in enumerate(tree):
            edges.append((t, rng.choice(ring + tree[:k])))
    if chain:
        vertices += chain
        edges += list(zip(chain, chain[1:])) + [(chain[-1], "c1_1")]
    return vertices, edges, lengths


def _cycle_powers(rng: random.Random, index: int) -> Op:
    """The only workload where z ** n and embed do real work: small elements
    on long paths that grow with the degree."""
    vertices, edges, lengths = _cycles_with_feeders(rng)
    # 60 is divisible by every cycle length 1..6, so each cycle adds one element
    d = 60 * rng.randint(1, 24) * rng.choice((1, -1))
    text = _graph_text(vertices, edges, index)
    args = ("center", "{file}", "--degree", str(d))
    return Op(f"cycle-powers/{index}", text, args, expected_dim=len(lengths))


GENERATORS = {
    "oracle-corpus": _oracle_corpus,
    "structure-large": _structure_large,
    "idempotents-fork": _idempotents_fork,
    "cycle-powers": _cycle_powers,
}

WORKLOADS = tuple(GENERATORS)

# why each workload exists, one line each; part of the benchmark's contract
WHY = {name: " ".join(gen.__doc__.split()) for name, gen in GENERATORS.items()}


def catalog_op(workload: str, index: int) -> Op:
    """Catalog entry ``index`` of ``workload``; independent of any run seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{index}"), index)


def load_catalog(workload: str) -> tuple[list[int], list[str]]:
    """Recorded cost stratum and stdout sha256 of every catalog entry."""
    strata, digests = [], []
    with open(CATALOG_DIR / f"{workload}.txt", encoding="ascii") as fh:
        for line in fh:
            stratum, digest = line.split()
            strata.append(int(stratum))
            digests.append(digest)
    return strata, digests


def probe_ops(workload: str, seed: int) -> list[Op]:
    """Deep-feeder probes: cycle-powers graphs whose feeder chain is
    1,200-2,000 vertices deep, drawn from the run seed.

    They exercise the recursion depth of arrival-path enumeration.  They
    count in the reported fail_rate but stay out of the latency samples and
    of the JSON attempted/failed counts, because a fix turns a fast failure
    into seconds of real work.  The probes' vertex names differ, so their
    set iteration orders, which decide whether the recursion overflows, are
    independent.
    """
    if workload != "cycle-powers":
        return []
    ops = []
    for k in range(PROBES):
        rng = random.Random(f"probe:{seed}:{k}")
        depth = rng.randint(1200, 2000)
        chain = [f"d{i}" for i in range(1, depth + 1)]
        vertices, edges, lengths = _cycles_with_feeders(rng, chain)
        d = 60 * rng.randint(1, 4) * rng.choice((1, -1))
        text = _graph_text(vertices, edges, f"p{k}")
        args = ("center", "{file}", "--degree", str(d))
        ops.append(Op(f"probe-deep-feeder-{k} (depth {depth})", text, args, len(lengths)))
    return ops


def op_order(strata: list[int], seed: int) -> list[int]:
    """Catalog indexes in the order a run with ``seed`` visits them.

    ``strata[i]`` is the cost stratum of entry ``i``.  Each round takes the
    next entry of every stratum, in a seeded order, so the cost mix of every
    prefix is the same for all seeds.
    """
    rng = random.Random(f"order:{seed}")
    pools: dict[int, list[int]] = {}
    for i, s in enumerate(strata):
        pools.setdefault(s, []).append(i)
    for pool in pools.values():
        rng.shuffle(pool)
    keys = sorted(pools)
    order = []
    for r in range(max(len(p) for p in pools.values())):
        rnd = [pools[k][r] for k in keys if r < len(pools[k])]
        rng.shuffle(rnd)
        order += rnd
    return order
