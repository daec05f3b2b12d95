"""Exact symbolic arithmetic in the Leavitt path algebra of a finite graph.

Elements are linear combinations of monomials ``left * right^*`` (two paths
with a common range vertex) over the rationals or a prime field.  Scalars
are plain numbers: ints, with a ``Fraction`` only where elimination divides,
or residues in [0, p); the field object alone reduces and inverts them.  A
fixed specialization -- one chosen "special" edge per non-sink vertex --
induces a monomial basis: a monomial is basic unless both paths end with the
same special edge.  All arithmetic keeps elements in that basis, and
everything is exact.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, compress, count
from operator import ne

from .graph import _IDENT, Graph, Path, Specialization, _Value, _path_text, canonical_specialization

__all__ = [
    "Rationals",
    "PrimeField",
    "Monomial",
    "Element",
    "LeavittAlgebra",
    "AlgebraMismatchError",
    "ElementSyntaxError",
]


class AlgebraMismatchError(ValueError):
    """Operands belong to different graphs, specializations, or scalar fields."""


class ElementSyntaxError(ValueError):
    """Malformed element text."""


# -- scalar fields ---------------------------------------------------------

_MR_BASES = (2, 3, 5, 7)


def _is_prime(n: int) -> bool:
    """Whether n is prime, exactly for n < 3,215,031,751, the least composite
    that Miller-Rabin passes at the bases 2, 3, 5 and 7 (Jaeschke, Math. Comp.
    61, 1993); every modulus ``PrimeField`` accepts is below it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _exact(q: Fraction):
    """``q`` as an int when it is integral, else ``q`` itself."""
    return q.numerator if q.denominator == 1 else q


class Rationals(_Value):
    """Exact rational scalars: ints, and ``Fraction``s where elimination divides."""

    __slots__ = __match_args__ = ()
    name = "rat"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return int(x)  # a bool becomes 0 or 1
        if isinstance(x, Fraction):
            return _exact(x)
        raise TypeError(f"cannot coerce {x!r} to a rational scalar")

    def reduce(self, x):
        return x

    def inverse(self, x):
        return _exact(1 / Fraction(x))

    def parse_scalar(self, token: str):
        return _exact(Fraction(token))


class PrimeField(_Value):
    """Scalars modulo a prime p <= 2^31, held as the residues 0 <= x < p."""

    __slots__ = __match_args__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError(f"the modulus must be an int, not {p!r}")
        if not (2 <= p <= 2**31 and _is_prime(p)):
            raise ValueError(f"{p} is not a prime <= 2^31")
        object.__setattr__(self, "p", p)

    @property
    def name(self) -> str:
        return f"fp:{self.p}"

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return x.numerator * self.inverse(x.denominator) % self.p
        raise TypeError(f"cannot coerce {x!r} into Z/{self.p}")

    def reduce(self, x: int) -> int:
        return x % self.p

    def inverse(self, x: int) -> int:
        if x % self.p == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return pow(x, -1, self.p)

    def parse_scalar(self, token: str) -> int:
        # numerator and denominator are each reduced first, so p/p is 0/0, not 1
        num, slash, den = token.partition("/")
        value = self.coerce(int(num))
        if slash:
            value = value * self.inverse(int(den)) % self.p
        return value


# -- monomials and elements -------------------------------------------------


class Monomial(namedtuple("Monomial", ("left", "right"))):
    """Product ``left * right^*`` of two paths ending at the same vertex.

    A named tuple of its two paths, like ``Path``."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.left.length - self.right.length

    @property
    def size(self) -> int:
        return self.left.length + self.right.length

    def star(self) -> "Monomial":
        return Monomial(self.right, self.left)

    def is_vertex(self) -> bool:
        return not self.left.edges and not self.right.edges

    def __str__(self) -> str:
        return _term_text(self.left.source, self.left.edges, self.right.source, self.right.edges)


def _term_text(u: str, a: tuple, w: str, b: tuple) -> str:
    """The text of the monomial [a][b] with a from u and b from w: a vertex's
    id when both paths are that vertex, else both paths in brackets."""
    return f"[{_path_text(u, a)}][{_path_text(w, b)}]" if a or b else u


# element text: a bracket side is ``@v`` or edge ids; a term is a separator
# sign (optional on the first term), an optional signed coefficient with an
# optional ``*``, then two bracket sides or a bare vertex id.  No two ``\s*``
# are adjacent, so a failed match backtracks in linear time.  ``re`` compiles
# them on first use and caches them: the CLI never parses elements.
_SIDE = rf"\s*(?:(?:@(?P<vertex>{_IDENT.pattern})|(?P<edges>{_IDENT.pattern}(?:\s+{_IDENT.pattern})*))\s*)?"
_TERM = (
    rf"\s*(?:(?P<sign>[+-])\s*)?(?:(?P<coeff>[+-]?\d+(?:/\d+)?)\s*(?:\*\s*)?)?"
    rf"(?:\[(?P<left>[^\]]*)\]\s*\[(?P<right>[^\]]*)\]|(?P<vertex>{_IDENT.pattern}))\s*"
)


class Element(_Value):
    """An algebra element held in the basic-monomial normal form.

    Its fields are the algebra and ``_terms``, a dict from each basic
    monomial [a][b] to its nonzero coefficient.  The monomial is keyed as
    the flat tuple (a's source, a's edges, b's source, b's edges); its
    range is the target of a's last edge, or a's source when a is a vertex.
    Elements are equal when their fields are; the dict makes them unhashable.
    """

    __slots__ = __match_args__ = ("algebra", "_terms")
    __hash__ = None

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def _sorted_terms(self) -> list[tuple[tuple, object]]:
        """The (key, coefficient) pairs in ``LeavittAlgebra.monomial_key``
        order: left length, right length, then the left and the right path,
        each by its edges' declaration indexes (a length-0 path by its
        vertex's).  Two monomials are compared up to their first differing edge."""
        g = self.algebra.graph
        eindex, vindex = g._eindex, g._vindex  # held by no algebra: no reference cycle

        def cmp(x, y):
            (u1, e1, _, r1), (u2, e2, _, r2) = x[0], y[0]
            d = len(e1) - len(e2) or len(r1) - len(r2)
            if d:
                return d
            if e1 == e2:
                if u1 != u2:
                    return vindex[u1] - vindex[u2]
                # one left path: the right paths end at its range, so they differ in an edge
                e1, e2 = r1, r2
            # most pairs differ at the first edge; else find the first mismatch in C
            i = 0 if e1[0] != e2[0] else next(compress(count(), map(ne, e1, e2)))
            return eindex[e1[i]] - eindex[e2[i]]

        return sorted(self._terms.items(), key=cmp_to_key(cmp))

    def terms(self) -> list[tuple[Monomial, object]]:
        """The (monomial, coefficient) pairs in ``LeavittAlgebra.monomial_key``
        order, each monomial built from its key."""
        dst, terms = self.algebra.graph._dst, self._sorted_terms()
        ranges = [dst[a[-1]] if a else u for (u, a, _, _), _ in terms]
        return [(Monomial(Path(u, a, r), Path(w, b, r)), c) for ((u, a, w, b), c), r in zip(terms, ranges)]

    def degrees(self) -> list[int]:
        return sorted({len(a) - len(b) for _, a, _, b in self._terms})

    # -- ring operations --------------------------------------------------

    def _require_same(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("elements live in different algebras")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same(other)
        terms = dict(self._terms)
        red = self.algebra.field.reduce
        for m, c in other._terms.items():
            total = red(terms.get(m, 0) + c)
            if total:
                terms[m] = total
            else:
                terms.pop(m, None)
        return Element(self.algebra, terms)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        red = self.algebra.field.reduce
        return Element(self.algebra, {m: red(-c) for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same(other)
            alg = self.algebra
            # [p1][q1] [p2][q2] is 0 unless q1 and p2 share a source and one continues
            # the other: index the right factor by p2's source and first edge, if any
            index: dict[str, dict] = {}
            for m2, c2 in other._terms.items():
                index.setdefault(m2[0], {}).setdefault(m2[1][:1], []).append((m2, c2))
            raw: dict[tuple, object] = {}
            for m1, c1 in self._terms.items():
                _, _, w, q = m1
                starts = index.get(w)
                if starts is None:
                    continue
                if q:
                    meets = chain(starts.get(q[:1], ()), starts.get((), ()))
                else:
                    meets = chain.from_iterable(starts.values())
                for m2, c2 in meets:
                    m = alg._monomial_product(m1, m2)
                    if m is None:
                        continue
                    raw[m] = raw.get(m, 0) + c1 * c2
            return Element(alg, alg._normal_form(raw))
        try:
            c = self.algebra.field.coerce(other)
        except TypeError:
            return NotImplemented
        if not c:
            return self.algebra.zero()
        red = self.algebra.field.reduce
        return Element(self.algebra, {m: red(v * c) for m, v in self._terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def star(self) -> "Element":
        """The involution: swap the two paths of every monomial."""
        # the basis condition is symmetric in the two paths, so no rewriting is needed
        return Element(self.algebra, {(w, b, u, a): c for (u, a, w, b), c in self._terms.items()})

    def degree_component(self, d: int) -> "Element":
        return Element(self.algebra, {m: c for m, c in self._terms.items() if len(m[1]) - len(m[3]) == d})

    def is_central(self) -> bool:
        """Exact commutation with every vertex, edge and edge star.

        v [p][q] is [p][q] if p starts at v, else 0, and [p][q] v is [p][q] if
        q starts at v, else 0.  The terms are distinct basic monomials, so x
        commutes with the vertices exactly when each term's two paths share a
        source.  Such an x commutes with every e* once it commutes with every
        edge: by the vertex relation at v = s(e), e* x = sum of e* x f f* =
        sum of e* f x f* = r(e) x e* = x e* over the out-edges f of v.  So the
        sources and the 2|E| products x e and e x decide.
        """
        if any(u != w for u, _, w, _ in self._terms):
            return False
        alg = self.algebra
        return all(self * gen == gen * self for gen in map(alg.edge, alg.graph.edge_ids()))

    # -- text ---------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for key, c in self._sorted_terms():
            cs, m = str(c), _term_text(*key)
            sign, cs = ("-", cs[1:]) if cs.startswith("-") else ("+", cs)
            parts.append(f"{sign}{m}" if cs == "1" else f"{sign}{cs}*{m}")
        return "".join(parts).removeprefix("+") or "0"

    def __repr__(self) -> str:
        return f"Element({self})"


class LeavittAlgebra(_Value):
    """The Leavitt path algebra of a finite graph over an exact scalar field.

    Its fields are the graph, the specialization (by default the canonical
    one) and the field (by default the rationals)."""

    __slots__ = __match_args__ = ("graph", "specialization", "field")

    def __init__(
        self,
        graph: Graph,
        specialization: Specialization | None = None,
        field: Rationals | PrimeField | None = None,
    ):
        if not isinstance(graph, Graph):
            raise TypeError(f"graph must be a Graph, not {graph!r}")
        specialization = canonical_specialization(graph) if specialization is None else specialization
        if not isinstance(specialization, Specialization):
            raise TypeError(f"specialization must be None or a Specialization, not {specialization!r}")
        if specialization.graph != graph:
            raise AlgebraMismatchError("specialization belongs to a different graph")
        field = Rationals() if field is None else field
        if not isinstance(field, (Rationals, PrimeField)):
            raise TypeError(f"field must be None, Rationals or PrimeField, not {field!r}")
        super().__init__(graph, specialization, field)

    # -- element constructors ---------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        """The sum of all vertices (the identity of the unital algebra)."""
        return Element(self, {(v, (), v, ()): self.field.one for v in self.graph.vertices})

    def vertex(self, v: str) -> Element:
        return self.path_element(self.graph.vertex_path(v))

    def edge(self, e: str) -> Element:
        return self.path_element(self.graph.edge_path(e))

    def edge_star(self, e: str) -> Element:
        return self.edge(e).star()

    def _check_path(self, p: Path) -> None:
        """Raise unless ``p`` is a path of the graph, stored target included."""
        target = self.graph.path(p.source, p.edges).target
        if target != p.target:
            raise ValueError(f"path {p} ends at {target!r}, not at its stored target {p.target!r}")

    def path_element(self, p: Path) -> Element:
        self._check_path(p)
        return Element(self, {(p.source, p.edges, p.target, ()): self.field.one})

    def monomial(self, left: Path, right: Path) -> Monomial:
        self._check_path(left)
        self._check_path(right)
        if left.target != right.target:
            raise ValueError(
                f"paths must share a range vertex: {left} ends at {left.target!r}, {right} at {right.target!r}"
            )
        return Monomial(left, right)

    def element(self, terms: Iterable[tuple[Monomial, object]]) -> Element:
        """Normal form of a formal combination of path-pair monomials."""
        raw: dict[tuple, object] = {}
        for m, c in terms:
            (u, a, _), (w, b, _) = self.monomial(m.left, m.right)  # validate
            raw[u, a, w, b] = raw.get((u, a, w, b), 0) + self.field.coerce(c)
        return Element(self, self._normal_form(raw))

    # -- normal form --------------------------------------------------------

    def is_basic(self, m: Monomial) -> bool:
        le, re_ = m.left.edges, m.right.edges
        return not (le and re_ and le[-1] == re_[-1] and self.specialization.is_special(le[-1]))

    def _normal_form(self, raw: dict) -> dict:
        """The basic form of ``raw``, in one pass over its terms.

        A basic monomial is stored as it is.  While [a e][b e] has a special
        last edge e on both sides, the vertex relation at v = s(e) peels it to
        [a][b] and adds -c [a f][b f] to the output for each other out-edge f
        of v, which is not special, so the term is basic.  Unreduced scalars
        in ``raw`` are fine: each stored total goes through ``field.reduce``.
        """
        g, special, red = self.graph, self.specialization.special_edges, self.field.reduce
        out: dict[tuple, object] = {}

        def add(m: tuple, c) -> None:
            acc = out.get(m)
            total = red(c if acc is None else acc + c)
            if total:
                out[m] = total
            elif acc is not None:
                del out[m]

        for m, c in raw.items():
            if not c:
                continue
            u, a, w, b = m
            while a and b and a[-1] == b[-1] and a[-1] in special:
                e, a, b = a[-1], a[:-1], b[:-1]
                m = u, a, w, b
                for f in g.out_edges(g.source_of(e)):
                    if f != e:
                        add((u, a + (f,), w, b + (f,)), -c)
            add(m, c)
        return out

    def _monomial_product(self, m1: tuple, m2: tuple) -> tuple | None:
        """Raw product of two monomial keys, or None when it collapses to zero.

        Nonzero exactly when one of the inner paths is a continuation of the
        other; the overlap telescopes away.
        """
        (u, p1, w, q), (u2, p2, w2, q2) = m1, m2
        n, n2 = len(q), len(p2)
        if w != u2:
            return None
        if n2 >= n:
            if p2[:n] == q:
                return u, p1 + p2[n:], w2, q2
        elif q[:n2] == p2:
            return u, p1, w2, q2 + q[n2:]
        return None

    def monomial_key(self, m: Monomial):
        left, right = m
        key = self.graph.path_key
        return (len(left.edges), len(right.edges), key(left), key(right))

    # -- element text -------------------------------------------------------

    def parse_element(self, text: str) -> Element:
        """Parse the element syntax: signed terms ``coeff * [p] [q]``.

        Each bracket holds whitespace-separated edge ids or ``@v`` for the
        length-0 path at vertex ``v``; a bare vertex id abbreviates its
        vertex monomial; the coefficient (with optional ``*``) defaults to 1.
        Every term after the first starts with a ``+`` or ``-`` separator.
        """
        g = self.graph
        if not text.strip():
            raise ElementSyntaxError("empty element text")

        def side(body: str) -> Path:
            m = re.fullmatch(_SIDE, body)
            if m is None:
                raise ElementSyntaxError(f"cannot read the path [{body}]")
            if m["vertex"]:
                if not g.has_vertex(m["vertex"]):
                    raise ElementSyntaxError(f"unknown vertex {m['vertex']!r}")
                return g.vertex_path(m["vertex"])
            if not m["edges"]:
                raise ElementSyntaxError("empty bracket: use [@v] for a vertex path")
            ids = m["edges"].split()
            try:
                return g.path(g.source_of(ids[0]), ids)
            except ValueError as exc:
                raise ElementSyntaxError(str(exc)) from exc

        raw: dict[tuple, object] = {}
        pos = 0
        while pos < len(text):
            t = re.compile(_TERM).match(text, pos)
            if t is None or (pos and not t["sign"]):
                raise ElementSyntaxError(f"cannot read a term at offset {pos}")
            coeff = self.field.one
            if t["coeff"]:
                try:
                    coeff = self.field.parse_scalar(t["coeff"])
                except (ValueError, ZeroDivisionError) as exc:
                    raise ElementSyntaxError(f"bad scalar {t['coeff']!r}: {exc}") from exc
            if t["vertex"]:
                left = right = side("@" + t["vertex"])
            else:
                left, right = side(t["left"]), side(t["right"])
                if left.target != right.target:
                    raise ElementSyntaxError(
                        f"paths must share a range vertex: [{left}] ends at {left.target!r}, [{right}] at {right.target!r}"
                    )
            key = left.source, left.edges, right.source, right.edges
            raw[key] = raw.get(key, 0) + (-coeff if t["sign"] == "-" else coeff)
            pos = t.end()
        return Element(self, self._normal_form(raw))
