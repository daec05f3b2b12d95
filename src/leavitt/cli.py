"""Command-line front end.

Four subcommands over a graph file: ``analyze`` (structure of the center),
``center`` (explicit basis of one graded piece), ``verify`` (brute-force
cross-check of the constructed center), ``idempotents`` (the Boolean algebra
of central idempotents).

Each command's handler builds only a payload of plain values, which
``_emit`` wraps in one report with the graph's vertex and edge counts.
``--json`` prints that report as it is; the text output is read off it
line by line by the command's view in ``_HANDLERS``, so the two forms
cannot disagree.  Exit codes: 0 success, 1 failed check, 2 bad input, 141
when the reader closes stdout early (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .graph import Graph, GraphParseError, parse_graph
from .hereditary import finitary_boolean_subalgebra, center_structure, perp
from .algebra import LeavittAlgebra, PrimeField, Rationals
from .center import (
    _center_by_degree,
    center_basis,
    center_dimension_predicted,
    idempotent,
    oracle_bound,
    spans_equal,
)

__all__ = ["main", "build_parser"]


def _int_arg(text: str, signed: bool = True) -> int:
    """An integer written as ASCII digits, after a ``-`` if ``signed``."""
    digits = text.removeprefix("-") if signed else text
    if digits.isascii() and digits.isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer{'' if signed else ' >= 0'}, not {text!r}")


_count_arg = functools.partial(_int_arg, signed=False)  # never negative


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
    p.add_argument("--degree", type=_int_arg, required=True, help="grading degree")

    p = sub.add_parser("verify", help="cross-check the center against a brute-force solver")
    common(p)
    p.add_argument("--max-degree", type=_count_arg, default=3, help="check all |d| up to this (default 3)")
    p.add_argument(
        "--max-len",
        type=_count_arg,
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


def _emit(args, g: Graph, payload: dict) -> None:
    """Print the report of ``args.command`` around ``payload``: with
    ``--json`` as JSON, else as the lines of its text view."""
    graph = {"vertices": len(g.vertices), "edges": len(g.edge_ids())}
    report = {"format_version": "1", "command": args.command, "graph": graph, "payload": payload}
    if args.json:
        import json  # only ``--json`` needs it
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_text_lines(report)))


def _text_lines(report: dict):
    """The text output of ``report``: the graph's size, then the lines that
    its command's view reads off the payload."""
    n, m = report["graph"]["vertices"], report["graph"]["edges"]
    yield f"graph: {n} {'vertex' if n == 1 else 'vertices'}, {m} {'edge' if m == 1 else 'edges'}"
    yield from _HANDLERS[report["command"]][1](report["payload"])


def _cmd_analyze(args, g: Graph) -> tuple[int, dict]:
    rep = center_structure(g)
    return 0, {
        "minimal_sets": [g.sorted_vertices(w) for w in rep.minimal_sets],
        "classes": [
            {
                "members": list(s.members),
                "support": g.sorted_vertices(s.support),
                "kind": "laurent" if s.is_laurent else "field",
                "cycle": str(s.cycle) if s.cycle is not None else None,
                "cycle_length": s.cycle_length,
            }
            for s in rep.summands
        ],
        "k": len(rep.minimal_sets),
        "m": len(rep.summands),
        "annihilator_size": 2 ** len(rep.minimal_sets),
        "finitary_size": 2 ** len(rep.summands),
        "isomorphism": rep.isomorphism,
    }


def _analyze_text(p: dict):
    yield "minimal hereditary sets:"
    for i, w in enumerate(p["minimal_sets"], 1):
        yield f"  W{i} = {{{','.join(w)}}}"
    yield "classes:"
    for i, c in enumerate(p["classes"], 1):
        members = ",".join(f"W{j + 1}" for j in c["members"])
        kind = "field"
        if c["kind"] == "laurent":
            kind = f"Laurent via cycle {c['cycle']} of length {c['cycle_length']}"
        yield f"  I{i} = {{{members}}}: support {{{','.join(c['support'])}}}, {kind}"
    yield f"annihilator algebra: {p['annihilator_size']} subsets (2^{p['k']})"
    yield f"finitary subalgebra: {p['finitary_size']} subsets (2^{p['m']})"
    yield f"center: {p['isomorphism']}"


def _cmd_center(args, g: Graph) -> tuple[int, dict]:
    basis = center_basis(LeavittAlgebra(g, field=args.field), args.degree)
    return 0, {
        "field": args.field.name,
        "degree": args.degree,
        "predicted_dimension": center_dimension_predicted(g, args.degree),
        "basis": [
            {"element": str(el), "provenance": why}
            for el, why in zip(basis.elements, basis.provenance)
        ],
    }


def _center_text(p: dict):
    yield f"degree {p['degree']} basis (predicted dimension {p['predicted_dimension']}):"
    for row in p["basis"]:
        yield f"  {row['element']}  ({row['provenance']})"
    if not p["basis"]:
        yield "  (none)"


def _cmd_verify(args, g: Graph) -> tuple[int, dict]:
    algebra = LeavittAlgebra(g, field=args.field)
    # oracle_bound(g, d) is oracle_bound(g, 0) + |d|: search the arrivals once
    base = oracle_bound(g, 0) if args.max_len is None else None
    degrees = range(-args.max_degree, args.max_degree + 1)
    bounds = {d: args.max_len if base is None else base + abs(d) for d in degrees}
    # every degree's oracle in one system, which is block-diagonal in the degree
    oracle = _center_by_degree(algebra, bounds)
    rows = []
    for d, bound in bounds.items():
        found = oracle[d]
        basis = center_basis(algebra, d)
        predicted = center_dimension_predicted(g, d)
        ok = len(found) == predicted == len(basis.elements) and spans_equal(
            found, basis.elements
        )
        rows.append(
            {
                "degree": d,
                "oracle_dimension": len(found),
                "predicted_dimension": predicted,
                "bound": bound,
                "ok": ok,
            }
        )
    all_ok = all(row["ok"] for row in rows)
    return 0 if all_ok else 1, {
        "field": args.field.name,
        "max_degree": args.max_degree,
        "degrees": rows,
        "ok": all_ok,
    }


def _verify_text(p: dict):
    for row in p["degrees"]:
        yield (
            f"degree {row['degree']}: oracle dim {row['oracle_dimension']}, "
            f"predicted {row['predicted_dimension']}, bound {row['bound']}: {'OK' if row['ok'] else 'FAIL'}"
        )
    yield "all degrees OK" if p["ok"] else "verification FAILED"


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


def _cmd_idempotents(args, g: Graph) -> tuple[int, dict | None]:
    algebra = LeavittAlgebra(g, field=args.field)
    members = {w: idempotent(algebra, w) for w in finitary_boolean_subalgebra(g)}

    # Boolean laws must hold before anything is printed
    failure = _boolean_law_failure(g, algebra.one(), members)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1, None
    return 0, {
        "field": args.field.name,
        "count": len(members),
        "subsets": [
            {"vertices": g.sorted_vertices(w), "element": str(element)}
            for w, element in members.items()
        ],
    }


def _idempotents_text(p: dict):
    yield f"finitary annihilator subsets: {p['count']}"
    for row in p["subsets"]:
        yield f"  {{{','.join(row['vertices'])}}} -> {row['element']}"


# each command's report builder, which returns its exit code and payload
# (None when a failed check has printed its error), and its text view
_HANDLERS = {
    "analyze": (_cmd_analyze, _analyze_text),
    "center": (_cmd_center, _center_text),
    "verify": (_cmd_verify, _verify_text),
    "idempotents": (_cmd_idempotents, _idempotents_text),
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
    try:
        code, payload = _HANDLERS[args.command][0](args, g)
        if payload is not None:
            _emit(args, g, payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at the null device, so that the
        # interpreter's own flush at exit finds no broken pipe; a stream with
        # no descriptor raises io.UnsupportedOperation, a ValueError
        with open(os.devnull, "wb") as null, contextlib.suppress(ValueError):
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
