"""Exact arithmetic in Laurent polynomial rings over the integers.

`LaurentPoly` is the commutative ring with one invertible variable x_i
per integer index i <= TOP_INDEX; it carries an index-shift map
x_i -> x_{i+m} used by the twisted multiplication one level up.  The same
class, read with x at index 0 and t at index 1, is the two-variable ring
Z[x^{+-1}, t^{+-1}] that receives the collapse homomorphism
(`collapse_poly`) sending every x_i to x.

Coefficients are arbitrary-precision ints; nothing here is floating
point.  A monomial is one packed int (Monagan and Pearce, 2007): prod
x_i^{e_i} is sum e_i * 2^(8 (TOP_INDEX - i)), one signed 8-bit digit per
index, so indices are unbounded below, a monomial product is one int
addition and the shift by m is a multiplication by 2^(-8m).  Stored
exponents lie in [-EXP_BOUND, EXP_BOUND), so two sum exactly within a
digit; each product checks its result against that bound.  An index above
TOP_INDEX or an exponent past the bound raises LimitExceeded, never a
wrong key.  The constructor takes the sorted (index, exponent) tuples
that `terms()` and `unpack` give back, and indices are decoded only where
they are read one at a time.  No zero coefficient is stored, so equality
is dict equality; the arithmetic wraps its own dicts with `_trusted`.

The variables are just indexed symbols.  The twisted-ring layer reads
them either as x_i or as y_i = 1 - x_i; `LaurentPoly.change_basis` is the
exact change between the two readings on polynomials, and
`clearing_unit` finds the monomial that first turns a Laurent polynomial
into one.
"""
from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add, or_, sub
from typing import Iterable, Mapping

from .errors import LimitExceeded

Monomial = tuple[tuple[int, int], ...]

TOP_INDEX = 16  # x_i is the digit at position TOP_INDEX - i
EXP_BOUND = 64  # stored exponents lie in [-EXP_BOUND, EXP_BOUND)
_W = 8  # bits per digit; digit sums lie in [-2 EXP_BOUND, 2 EXP_BOUND)
_HALF = 1 << (_W - 1)


@lru_cache(maxsize=None)
def _masks(n: int) -> tuple[int, int, int]:
    """Digit EXP_BOUND, digit _HALF, and both, at each position below n.  A key
    has a negative exponent iff it is negative or meets the last mask."""
    ones = ((1 << (_W * n)) - 1) // ((1 << _W) - 1)
    return EXP_BOUND * ones, _HALF * ones, (EXP_BOUND + _HALF) * ones


def pack(mono: Iterable[tuple[int, int]]) -> int:
    """The packed key of a monomial given as (index, exponent) pairs."""
    key = 0
    for i, e in mono:
        if i > TOP_INDEX or not -EXP_BOUND <= e < EXP_BOUND:
            raise LimitExceeded(f"x_{i}^{e} is outside the packed monomials: indices up to "
                                f"{TOP_INDEX}, exponents in [{-EXP_BOUND}, {EXP_BOUND})")
        key += e << (_W * (TOP_INDEX - i))
    return key


def _digits(key: int) -> bytes:
    """The digits of a packed key plus _HALF, from position 0 up, with zeros above."""
    n = key.bit_length() // _W + 2
    return (key + _masks(n)[1]).to_bytes(n, "little")


def unpack(key: int) -> Monomial:
    """The sorted (index, exponent) pairs of a packed key."""
    digits = _digits(key)
    return tuple((TOP_INDEX - p, digits[p] - _HALF) for p in range(len(digits) - 1, -1, -1)
                 if digits[p] != _HALF)


def _check_bound(keys) -> None:
    """LimitExceeded unless every exponent of the keys (a collection) is in bound.
    Each digit is an exact sum of two in-bound exponents; offset by EXP_BOUND per
    digit, a key is in bound iff it is nonnegative with no digit's top bit set."""
    if keys:
        offset, high, _ = _masks(max(map(int.bit_length, keys)) // _W + 2)
        spread = reduce(or_, map(offset.__add__, keys))
        if spread < 0 or spread & high:
            raise LimitExceeded(f"a product has an exponent outside [{-EXP_BOUND}, {EXP_BOUND})")


def _split_digit(key: int, bits: int) -> tuple[int, int]:
    """(e, rest): the exponent at bit offset `bits` of a packed key, and the
    key without it.  The digits below are less than 2^(bits-1) in size, so
    adding that much before the shift rounds them off exactly."""
    e = ((((key + (1 << bits >> 1)) >> bits) + _HALF) & ((1 << _W) - 1)) - _HALF
    return e, key - (e << bits)


class LaurentPoly:
    """Element of Z[x_i^{+-1} : i <= TOP_INDEX], stored as packed monomial -> coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, int] | None = None):
        self.coeffs: dict[int, int] = {pack(m): c for m, c in (coeffs or {}).items() if c}

    @classmethod
    def _trusted(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        """Wrap, unfiltered, a dict that the arithmetic keeps free of zeros."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls._trusted({0: c} if c else {})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.const(1)

    @classmethod
    def x(cls, index: int, exponent: int = 1) -> "LaurentPoly":
        if exponent == 0:
            return cls.one()
        return cls._trusted({pack([(index, exponent)]): 1})

    def terms(self) -> dict[Monomial, int]:
        """The decoded view: tuple monomial -> coefficient."""
        return {unpack(m): c for m, c in self.coeffs.items()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._merge(other, add)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._merge(other, sub)

    def _merge(self, other: "LaurentPoly", op) -> "LaurentPoly":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = op(out.get(m, 0), c)
            if s:
                out[m] = s
            else:
                del out[m]
        return LaurentPoly._trusted(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        right = other.coeffs.items()
        for ma, ca in self.coeffs.items():
            for mb, cb in right:
                m = ma + mb
                out[m] = out.get(m, 0) + ca * cb
        kept = {m: c for m, c in out.items() if c}
        _check_bound(kept)
        return LaurentPoly._trusted(kept)

    def __rmul__(self, scalar: int) -> "LaurentPoly":
        if not isinstance(scalar, int):
            return NotImplemented
        return LaurentPoly._trusted({m: scalar * c for m, c in self.coeffs.items()} if scalar else {})

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
        """Ring automorphism relabelling x_i to x_{i+m}; LimitExceeded past TOP_INDEX."""
        if m == 0:
            return self
        if m < 0:
            return LaurentPoly._trusted({k << (-_W * m): c for k, c in self.coeffs.items()})
        bits = _W * m
        low = (1 << bits) - 1
        if any(k & low for k in self.coeffs):
            raise LimitExceeded(f"shifting by {m} moves an index above x_{TOP_INDEX}")
        return LaurentPoly._trusted({k >> bits: c for k, c in self.coeffs.items()})

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
        spread = reduce(or_, self.coeffs, 0)  # with no negative digit, the union of supports
        n = spread.bit_length() // _W + 1
        if spread < 0 or spread & _masks(n)[2]:
            i, e = next(f for key in self.coeffs for f in unpack(key) if f[1] < 0)
            raise ValueError(f"change of basis needs a polynomial, got x_{i}^{e}")
        support = spread.to_bytes(n, "little")
        terms = self.coeffs
        for bits in [_W * p for p in range(n - 1, -1, -1) if support[p]]:
            out: dict[int, int] = {}
            for key, c in terms.items():
                e, rest = _split_digit(key, bits)
                for k, b in _one_minus_power(e):
                    m = rest + (k << bits)
                    out[m] = out.get(m, 0) + b * c
            terms = {m: c for m, c in out.items() if c}
        return LaurentPoly._trusted(terms)

    def by_power(self, index: int) -> dict[int, "LaurentPoly"]:
        """{e: a_e} with self = sum_e a_e * x_index^e and each a_e free of x_index."""
        bits, out = _W * (TOP_INDEX - index), {}
        for key, c in self.coeffs.items():
            e, rest = _split_digit(key, bits)
            out.setdefault(e, {})[rest] = c
        return {e: LaurentPoly._trusted(d) for e, d in out.items()}

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
        signs = _masks(max(map(int.bit_length, p.coeffs), default=0) // _W + 1)[2]
        for key in p.coeffs:
            if key < 0 or key & signs:
                for i, e in unpack(key):
                    if e < need.get(i, 0):
                        need[i] = e
    key = pack((i, -e) for i, e in need.items())
    return LaurentPoly._trusted({key: 1}), LaurentPoly._trusted({-key: 1})


def one_minus_x(index: int) -> LaurentPoly:
    """The element 1 - x_i."""
    return LaurentPoly.one() - LaurentPoly.x(index)


@lru_cache(maxsize=None)
def x_diff(index: int) -> LaurentPoly:
    """The element x_{i-1} - x_i; cached, so shared and read-only."""
    return LaurentPoly.x(index - 1) - LaurentPoly.x(index)


def format_monomial(mono: Monomial) -> str:
    if not mono:
        return "1"
    return " ".join(f"x_{i}^{e}" for i, e in mono)


def format_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    return " + ".join(f"[{format_monomial(m)}] * {c}" for m, c in sorted(p.terms().items()))


def collapse_poly(p: LaurentPoly, t_exp: int = 0) -> LaurentPoly:
    """Apply x_i -> x to one coefficient, at t-degree t_exp.

    The image lives in Z[x^{+-1}, t^{+-1}], read as a LaurentPoly with x at
    index 0 and t at index 1.
    """
    by_x: dict[int, int] = {}
    for key, c in p.coeffs.items():
        digits = _digits(key)
        xe = sum(digits) - _HALF * len(digits)
        by_x[xe] = by_x.get(xe, 0) + c
    return LaurentPoly._trusted({pack(((0, xe), (1, t_exp))): c for xe, c in by_x.items() if c})
