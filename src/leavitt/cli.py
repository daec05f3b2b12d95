"""Command-line front end.

Four subcommands over a graph file: ``analyze`` (structure of the center),
``center`` (explicit basis of one graded piece), ``verify`` (brute-force
cross-check of the constructed center), ``idempotents`` (the Boolean algebra
of central idempotents).  Output is plain text, or a stable key/value tree
with ``--json``.  Exit codes: 0 success, 1 failed check, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .graph import Graph, GraphParseError, parse_graph
from .hereditary import finitary_boolean_subalgebra, center_structure, perp
from .algebra import LeavittAlgebra, PrimeField, Rationals
from .center import (
    brute_force_center,
    center_basis,
    center_dimension_predicted,
    idempotent,
    oracle_bound,
    spans_equal,
)

__all__ = ["main", "build_parser"]


def _field_arg(text: str):
    if text == "rat":
        return Rationals()
    modulus = text.removeprefix("fp:")
    if modulus != text and modulus.isascii() and modulus.isdecimal():
        try:
            return PrimeField(int(modulus))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"unknown field {text!r}: use rat or fp:<prime>")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description="Compute the center of the Leavitt path algebra of a finite directed graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="graph file (vertex/edge lines)")
        p.add_argument("--json", action="store_true", help="emit a machine-readable report")
        p.add_argument(
            "--field",
            type=_field_arg,
            default=Rationals(),
            metavar="rat|fp:<prime>",
            help="scalar field (default rat)",
        )

    p = sub.add_parser("analyze", help="decompose the center of the algebra")
    common(p)

    p = sub.add_parser("center", help="basis of one graded piece of the center")
    common(p)
    p.add_argument("--degree", type=int, required=True, help="grading degree")

    p = sub.add_parser("verify", help="cross-check the center against a brute-force solver")
    common(p)
    p.add_argument("--max-degree", type=int, default=3, help="check all |d| up to this (default 3)")
    p.add_argument(
        "--max-len",
        type=int,
        default=None,
        help="monomial size cap for the solver (default: derived bound)",
    )

    p = sub.add_parser("idempotents", help="central idempotents of the Boolean algebra")
    common(p)

    return parser


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphParseError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"{path} is not valid UTF-8: {exc.reason} at byte {exc.start}") from exc
    # a leading byte-order mark is not part of the text; "utf-8-sig" would
    # drop it too, but report a later bad byte's offset 3 too low
    g = parse_graph(text.removeprefix("\ufeff"))
    if not g.vertices:
        raise GraphParseError("graph has no vertices")
    return g


def _set_str(g: Graph, ws) -> str:
    return "{" + ",".join(g.sorted_vertices(ws)) + "}"


def _counted(n: int, singular: str, plural: str) -> str:
    return f"{n} {singular if n == 1 else plural}"


def _emit(args, g: Graph, payload: dict, lines: list[str]) -> None:
    """Print the graph's size and then ``lines``, or with ``--json`` the
    report of ``args.command`` around ``payload``."""
    n, m = len(g.vertices), len(g.edge_ids())
    if args.json:
        import json  # only ``--json`` needs it
        graph = {"vertices": n, "edges": m}
        report = {"format_version": "1", "command": args.command, "graph": graph, "payload": payload}
        print(json.dumps(report, indent=2))
    else:
        head = f"graph: {_counted(n, 'vertex', 'vertices')}, {_counted(m, 'edge', 'edges')}"
        print("\n".join([head, *lines]))


def _cmd_analyze(args, g: Graph) -> int:
    rep = center_structure(g)
    k = len(rep.minimal_sets)
    m = len(rep.summands)
    minimal = [g.sorted_vertices(w) for w in rep.minimal_sets]
    supports = [g.sorted_vertices(s.support) for s in rep.summands]
    payload = {
        "minimal_sets": minimal,
        "classes": [
            {
                "members": list(s.members),
                "support": support,
                "kind": "laurent" if s.is_laurent else "field",
                "cycle": str(s.cycle) if s.cycle is not None else None,
                "cycle_length": s.cycle_length,
            }
            for s, support in zip(rep.summands, supports)
        ],
        "k": k,
        "m": m,
        "annihilator_size": 2**k,
        "finitary_size": 2**m,
        "isomorphism": rep.isomorphism,
    }

    lines = ["minimal hereditary sets:"]
    for i, w in enumerate(minimal, 1):
        lines.append(f"  W{i} = {{{','.join(w)}}}")
    lines.append("classes:")
    for i, (s, support) in enumerate(zip(rep.summands, supports), 1):
        members = ",".join(f"W{j + 1}" for j in s.members)
        if s.is_laurent:
            kind = f"Laurent via cycle {s.cycle} of length {s.cycle_length}"
        else:
            kind = "field"
        lines.append(f"  I{i} = {{{members}}}: support {{{','.join(support)}}}, {kind}")
    lines.append(f"annihilator algebra: {2**k} subsets (2^{k})")
    lines.append(f"finitary subalgebra: {2**m} subsets (2^{m})")
    lines.append(f"center: {rep.isomorphism}")
    _emit(args, g, payload, lines)
    return 0


def _cmd_center(args, g: Graph) -> int:
    algebra = LeavittAlgebra(g, field=args.field)
    basis = center_basis(algebra, args.degree)
    predicted = center_dimension_predicted(g, args.degree)
    texts = [str(el) for el in basis.elements]
    payload = {
        "field": args.field.name,
        "degree": args.degree,
        "predicted_dimension": predicted,
        "basis": [
            {"element": text, "provenance": why}
            for text, why in zip(texts, basis.provenance)
        ],
    }
    lines = [f"degree {args.degree} basis (predicted dimension {predicted}):"]
    if texts:
        for text, why in zip(texts, basis.provenance):
            lines.append(f"  {text}  ({why})")
    else:
        lines.append("  (none)")
    _emit(args, g, payload, lines)
    return 0


def _cmd_verify(args, g: Graph) -> int:
    if args.max_degree < 0:
        print("error: --max-degree must be >= 0", file=sys.stderr)
        return 2
    if args.max_len is not None and args.max_len < 0:
        print("error: --max-len must be >= 0", file=sys.stderr)
        return 2
    algebra = LeavittAlgebra(g, field=args.field)
    # oracle_bound(g, d) is oracle_bound(g, 0) + |d|: search the arrivals once
    base = oracle_bound(g, 0) if args.max_len is None else None
    rows = []
    lines = []
    all_ok = True
    for d in range(-args.max_degree, args.max_degree + 1):
        bound = args.max_len if base is None else base + abs(d)
        found = brute_force_center(algebra, d, bound)
        basis = center_basis(algebra, d)
        predicted = center_dimension_predicted(g, d)
        ok = len(found) == predicted == len(basis.elements) and spans_equal(
            found, basis.elements
        )
        all_ok = all_ok and ok
        rows.append(
            {
                "degree": d,
                "oracle_dimension": len(found),
                "predicted_dimension": predicted,
                "bound": bound,
                "ok": ok,
            }
        )
        lines.append(
            f"degree {d}: oracle dim {len(found)}, predicted {predicted}, "
            f"bound {bound}: {'OK' if ok else 'FAIL'}"
        )
    lines.append("all degrees OK" if all_ok else "verification FAILED")
    payload = {
        "field": args.field.name,
        "max_degree": args.max_degree,
        "degrees": rows,
        "ok": all_ok,
    }
    _emit(args, g, payload, lines)
    return 0 if all_ok else 1


def _boolean_law_failure(g: Graph, one, members: dict) -> str | None:
    """The first Boolean-algebra law the idempotents break, or None.

    Each law is checked once.  The m atoms, the images of the class supports,
    are nonzero orthogonal idempotents summing to 1 (m^2 products).  The atom
    sets A(w) = {i : support_i <= w} run once over all 2^m masks, and each
    member w maps to the sum of its atoms, has ``perp(w)`` the member with
    atom set the complement of A(w), and is the intersection of the coatoms
    (the members missing one atom) outside A(w).  Nonzero orthogonal
    idempotents are linearly independent (multiply sum c_i e_i = 0 by e_j),
    so the image of perp(w) is 1 minus that of w, and distinct atom sets give
    distinct elements, hence distinct texts.  Any two members multiply to the
    sum over their common atoms, the image of their intersection.
    """
    supports = [s.support for s in center_structure(g).summands]
    for s in supports:
        if s not in members:
            return f"class support {_set_str(g, s)} escapes the family"
    atoms = [members[s] for s in supports]
    for i, e in enumerate(atoms):
        if e.is_zero():
            return f"atom {_set_str(g, supports[i])} maps to 0"
        for j, f in enumerate(atoms):
            product = e * f
            if i == j and product != e:
                return f"atom {_set_str(g, supports[i])} is not idempotent"
            if i != j and not product.is_zero():
                s, t = _set_str(g, supports[i]), _set_str(g, supports[j])
                return f"atoms {s} and {t} are not orthogonal"
    m = len(atoms)
    full = (1 << m) - 1
    # the sum of the atoms in each mask, built from the mask without its lowest bit
    images = [one.algebra.zero()]
    for mask in range(1, full + 1):
        low = mask & -mask
        images.append(images[mask ^ low] + atoms[low.bit_length() - 1])
    if images[full] != one:
        return "atoms do not sum to 1"

    by_atoms = {sum(1 << i for i, s in enumerate(supports) if s <= w): w for w in members}
    if len(by_atoms) != len(members) or len(members) != 1 << m:
        return f"members do not match the 2^{m} atom sets one to one"
    coatoms = [by_atoms[full ^ 1 << j] for j in range(m)]
    everything = frozenset(g.vertices)
    for picked, w in by_atoms.items():
        if images[picked] != members[w]:
            return f"sum law fails for {_set_str(g, w)}"
        if perp(g, w) != by_atoms[full ^ picked]:
            return f"complement law fails for {_set_str(g, w)}"
        outside = (c for j, c in enumerate(coatoms) if not picked >> j & 1)
        if everything.intersection(*outside) != w:
            return f"meet law fails for {_set_str(g, w)}"
    return None


def _cmd_idempotents(args, g: Graph) -> int:
    algebra = LeavittAlgebra(g, field=args.field)
    family = finitary_boolean_subalgebra(g)
    members = {w: idempotent(algebra, w) for w in family}

    # Boolean laws must hold before anything is printed
    failure = _boolean_law_failure(g, algebra.one(), members)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    texts = {w: str(members[w]) for w in family}

    payload = {
        "field": args.field.name,
        "count": len(family),
        "subsets": [
            {"vertices": g.sorted_vertices(w), "element": texts[w]}
            for w in family
        ],
    }
    lines = [f"finitary annihilator subsets: {len(family)}"]
    for w in family:
        lines.append(f"  {_set_str(g, w)} -> {texts[w]}")
    _emit(args, g, payload, lines)
    return 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "center": _cmd_center,
    "verify": _cmd_verify,
    "idempotents": _cmd_idempotents,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, not at import, and
    kept for the process, since parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        g = _load_graph(args.file)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _HANDLERS[args.command](args, g)


if __name__ == "__main__":
    sys.exit(main())
