"""Twisted Laurent polynomials in t over the shifted-index x ring.

Elements are finite sums of t^k * a_k with the scalar a_k written on the
right of t^k.  Multiplication twists scalars past powers of t by the
index shift on the x variables:

    (t^k * a) (t^l * b) = t^(k+l) * a.shift(-l) * b

so for instance (t * x_0)(t * 1) = t^2 * x_{-1}.  This makes the ring
associative with t a unit, and plain polynomials embed at t-degree 0.

Every product goes through `dot`, which sums products term by term into
one {monomial: coefficient} table per t-degree and drops zeros once, at
the end (sparse multiply-accumulate, as in Monagan and Pearce, 2009), so
a caller needing a sum of products calls it once and builds no partial sum.

The module also owns the line-oriented text format for these elements
(one term per `t^K * [MONO] * COEFF` chunk, " + "-joined, canonically
sorted) and the collapse homomorphism onto Z[x^{+-1}, t^{+-1}] that
identifies every x_i with x; that target is a LaurentPoly in two fixed
variables, x at index 0 and t at index 1.
"""

from __future__ import annotations

import math
import re
from operator import add, sub
from typing import Iterable, Mapping

from .laurent import LaurentPoly, Monomial, _mul_monomials, collapse_poly, format_monomial


class SkewLaurent:
    """Element sum_k t^k * a_k, stored as t-degree -> nonzero LaurentPoly."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, LaurentPoly] | None = None):
        self.coeffs: dict[int, LaurentPoly] = {
            k: a for k, a in (coeffs or {}).items() if not a.is_zero()
        }

    @classmethod
    def zero(cls) -> "SkewLaurent":
        return cls()

    @classmethod
    def one(cls) -> "SkewLaurent":
        return cls({0: LaurentPoly.one()})

    @classmethod
    def from_poly(cls, a: LaurentPoly) -> "SkewLaurent":
        return cls({0: a})

    @classmethod
    def const(cls, c: int) -> "SkewLaurent":
        return cls({0: LaurentPoly.const(c)})

    @classmethod
    def t(cls, k: int = 1, a: LaurentPoly | int = 1) -> "SkewLaurent":
        """The element t^k * a."""
        if isinstance(a, int):
            a = LaurentPoly.const(a)
        return cls({k: a})

    def coeff(self, k: int) -> LaurentPoly:
        return self.coeffs.get(k, LaurentPoly.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def val_deg(self) -> tuple[float, float]:
        """(lowest, highest) t-degree; (inf, -inf) for the zero element."""
        if not self.coeffs:
            return (math.inf, -math.inf)
        return (min(self.coeffs), max(self.coeffs))

    def valuation(self) -> float:
        return self.val_deg()[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkewLaurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset((k, frozenset(a.coeffs.items())) for k, a in self.coeffs.items()))

    @classmethod
    def _trusted(cls, coeffs: dict[int, LaurentPoly]) -> "SkewLaurent":
        """Wrap, unfiltered, a dict that the arithmetic keeps free of zero layers."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    def __add__(self, other: "SkewLaurent") -> "SkewLaurent":
        return self._merge(other, add)

    def __sub__(self, other: "SkewLaurent") -> "SkewLaurent":
        return self._merge(other, sub)

    def _merge(self, other: "SkewLaurent", op) -> "SkewLaurent":
        out = dict(self.coeffs)
        for k, a in other.coeffs.items():
            s = op(out.get(k, LaurentPoly.zero()), a)
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        return SkewLaurent._trusted(out)

    def __neg__(self) -> "SkewLaurent":
        return SkewLaurent._trusted({k: -a for k, a in self.coeffs.items()})

    def __mul__(self, other: "SkewLaurent | LaurentPoly | int") -> "SkewLaurent":
        return dot([(self, _coerce(other))])

    def __rmul__(self, other: "LaurentPoly | int") -> "SkewLaurent":
        return _coerce(other) * self

    def change_basis(self) -> "SkewLaurent":
        """`LaurentPoly.change_basis` on every coefficient.

        The substitution commutes with the index shift, so this is a ring
        isomorphism of the twisted ring over polynomial coefficients.
        """
        return SkewLaurent({k: a.change_basis() for k, a in self.coeffs.items()})

    def collapse(self) -> LaurentPoly:
        """Homomorphism x_i -> x, t -> t into the commutative two-variable ring.

        The image is a LaurentPoly with x at index 0 and t at index 1; the
        layers land on distinct powers of t, so their terms never collide.
        """
        return LaurentPoly(
            {m: c for k, a in self.coeffs.items() for m, c in collapse_poly(a, k).coeffs.items()}
        )

    def __repr__(self) -> str:
        return f"SkewLaurent({format_skew(self)!r})"


def _coerce(value: "SkewLaurent | LaurentPoly | int") -> SkewLaurent:
    if isinstance(value, SkewLaurent):
        return value
    if isinstance(value, LaurentPoly):
        return SkewLaurent.from_poly(value)
    if isinstance(value, int):
        return SkewLaurent.const(value)
    raise TypeError(f"cannot multiply SkewLaurent by {type(value).__name__}")


def dot(pairs: Iterable[tuple[SkewLaurent, SkewLaurent]]) -> SkewLaurent:
    """The sum of a * b over the pairs, accumulated in place; the twist
    shifts each left monomial by -l as it meets layer t^l on the right.
    """
    out: dict[int, dict[Monomial, int]] = {}
    for a, b in pairs:
        for l, bl in b.coeffs.items():
            right = bl.coeffs.items()
            for k, ak in a.coeffs.items():
                layer = out.setdefault(k + l, {})
                for ma, ca in ak.coeffs.items():
                    if l:
                        ma = tuple([(i - l, e) for i, e in ma])
                    for mb, cb in right:
                        m = _mul_monomials(ma, mb)
                        layer[m] = layer.get(m, 0) + ca * cb
    kept = {k: {m: c for m, c in layer.items() if c} for k, layer in out.items()}
    return SkewLaurent._trusted({k: LaurentPoly._trusted(d) for k, d in kept.items() if d})


def format_skew(p: SkewLaurent) -> str:
    """Canonical one-line form: terms sorted by t-degree then monomial."""
    if p.is_zero():
        return "0"
    parts = []
    for k in sorted(p.coeffs):
        a = p.coeffs[k]
        for mono in sorted(a.coeffs):
            parts.append(f"t^{k} * [{format_monomial(mono)}] * {a.coeffs[mono]}")
    return " + ".join(parts)


_TERM_RE = re.compile(r"t\^(-?\d+) \* \[([^\]]*)\] \* (-?\d+)\Z")
_FACTOR_RE = re.compile(r"x_(-?\d+)\^(-?\d+)\Z")


def _parse_monomial(text: str) -> Monomial:
    if text == "1":
        return ()
    pairs = []
    for factor in text.split(" "):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"bad monomial factor: {factor!r}")
        index, exponent = int(m.group(1)), int(m.group(2))
        if exponent == 0:
            raise ValueError(f"zero exponent in monomial factor: {factor!r}")
        pairs.append((index, exponent))
    if pairs != sorted(pairs) or len({i for i, _ in pairs}) != len(pairs):
        raise ValueError(f"monomial factors out of order or repeated: {text!r}")
    return tuple(pairs)


def parse_skew(text: str) -> SkewLaurent:
    """Inverse of format_skew; raises ValueError on malformed input."""
    text = text.strip()
    if text == "0":
        return SkewLaurent.zero()
    out: dict[int, dict[Monomial, int]] = {}
    for chunk in text.split(" + "):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad term: {chunk!r}")
        k = int(m.group(1))
        mono = _parse_monomial(m.group(2))
        c = int(m.group(3))
        if c == 0:
            raise ValueError(f"zero coefficient in term: {chunk!r}")
        layer = out.setdefault(k, {})
        if mono in layer:
            raise ValueError(f"repeated monomial at t^{k}: {chunk!r}")
        layer[mono] = c
    return SkewLaurent({k: LaurentPoly(layer) for k, layer in out.items()})
