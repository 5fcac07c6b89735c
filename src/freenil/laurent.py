"""Exact arithmetic in Laurent polynomial rings over the integers.

`LaurentPoly` is the commutative ring with one invertible variable x_i
per integer index i; it carries an index-shift map x_i -> x_{i+m} used by
the twisted multiplication one level up.  The same class, read with x at
index 0 and t at index 1, is the two-variable ring Z[x^{+-1}, t^{+-1}]
that receives the collapse homomorphism (`collapse_poly`) sending every
x_i to x.

Coefficients are arbitrary-precision ints throughout; nothing here is
floating point.  Monomials are sorted tuples of (index, exponent) pairs
with all exponents nonzero, so equality of elements is dict equality.

The variables are just indexed symbols.  The twisted-ring layer reads
them either as x_i or as y_i = 1 - x_i; `LaurentPoly.change_basis` is the
exact change between the two readings on polynomials, and
`clearing_unit` finds the monomial that first turns a Laurent polynomial
into one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Mapping

Monomial = tuple[tuple[int, int], ...]


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted monomials, dropping exponents that cancel."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ia, ea = a[i]
        ib, eb = b[j]
        if ia < ib:
            out.append(a[i])
            i += 1
        elif ib < ia:
            out.append(b[j])
            j += 1
        else:
            if ea + eb:
                out.append((ia, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class LaurentPoly:
    """Element of Z[x_i^{+-1} : i in Z], stored as monomial -> coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, int] | None = None):
        self.coeffs: dict[Monomial, int] = {
            m: c for m, c in (coeffs or {}).items() if c != 0
        }

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({(): c})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.const(1)

    @classmethod
    def x(cls, index: int, exponent: int = 1) -> "LaurentPoly":
        if exponent == 0:
            return cls.one()
        return cls({((index, exponent),): 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[Monomial, int] = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                m = _mul_monomials(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return LaurentPoly(out)

    def __rmul__(self, scalar: int) -> "LaurentPoly":
        if not isinstance(scalar, int):
            return NotImplemented
        return LaurentPoly({m: scalar * c for m, c in self.coeffs.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers only exist for monomials; invert x(i, e) directly")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, m: int) -> "LaurentPoly":
        """Ring automorphism relabelling x_i to x_{i+m}."""
        if m == 0:
            return self
        return LaurentPoly(
            {tuple((i + m, e) for i, e in mono): c for mono, c in self.coeffs.items()}
        )

    def change_basis(self) -> "LaurentPoly":
        """The substitution v_i -> 1 - v_i at every index; its own inverse.

        It is a ring automorphism of the polynomial subring that commutes
        with `shift`, so it reads x-coordinates as y_i = 1 - x_i and back.
        Negative exponents have no image (1 - v_i is not a unit) and raise
        ValueError; clear them first with `clearing_unit`.  One index is
        substituted at a time, so the work follows the sizes of the input
        and output: the 2^d-term expansion of a run of d factors maps to
        one monomial without the 3^d terms of expanding each monomial.
        """
        indices = set()
        for mono in self.coeffs:
            for i, e in mono:
                if e < 0:
                    raise ValueError(f"change of basis needs a polynomial, got x_{i}^{e}")
                indices.add(i)
        terms = self.coeffs
        for index in sorted(indices):
            out: dict[Monomial, int] = {}
            for mono, c in terms.items():
                for pos, (i, e) in enumerate(mono):
                    if i == index:
                        break
                else:
                    out[mono] = out.get(mono, 0) + c
                    continue
                head, tail = mono[:pos], mono[pos + 1:]
                for k, b in _one_minus_power(e):
                    key = head + ((index, k),) + tail if k else head + tail
                    out[key] = out.get(key, 0) + b * c
            terms = {m: c for m, c in out.items() if c}
        return LaurentPoly(terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


@lru_cache(maxsize=None)
def _one_minus_power(e: int) -> tuple[tuple[int, int], ...]:
    """(k, coefficient of v^k) over the expansion of (1 - v)^e, e >= 0."""
    return tuple((k, (-1) ** k * math.comb(e, k)) for k in range(e + 1))


def clearing_unit(polys: Iterable[LaurentPoly]) -> tuple[LaurentPoly, LaurentPoly]:
    """(m, m^-1) for the least monomial m that makes every p * m a polynomial."""
    need: dict[int, int] = {}
    for p in polys:
        for mono in p.coeffs:
            for i, e in mono:
                if e < need.get(i, 0):
                    need[i] = e
    mono = tuple(sorted((i, -e) for i, e in need.items()))
    return LaurentPoly({mono: 1}), LaurentPoly({tuple((i, -e) for i, e in mono): 1})


def one_minus_x(index: int) -> LaurentPoly:
    """The element 1 - x_i."""
    return LaurentPoly.one() - LaurentPoly.x(index)


def x_diff(index: int) -> LaurentPoly:
    """The element x_{i-1} - x_i."""
    return LaurentPoly.x(index - 1) - LaurentPoly.x(index)


def format_monomial(mono: Monomial) -> str:
    if not mono:
        return "1"
    return " ".join(f"x_{i}^{e}" for i, e in mono)


def format_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for mono in sorted(p.coeffs):
        parts.append(f"[{format_monomial(mono)}] * {p.coeffs[mono]}")
    return " + ".join(parts)


def collapse_poly(p: LaurentPoly, t_exp: int = 0) -> LaurentPoly:
    """Apply x_i -> x to one coefficient, at t-degree t_exp.

    The image lives in Z[x^{+-1}, t^{+-1}], read as a LaurentPoly with x at
    index 0 and t at index 1.
    """
    by_x: dict[int, int] = {}
    for mono, c in p.coeffs.items():
        xe = sum(e for _, e in mono)
        by_x[xe] = by_x.get(xe, 0) + c
    t = ((1, t_exp),) if t_exp else ()
    return LaurentPoly({((0, xe),) + t if xe else t: c for xe, c in by_x.items()})
