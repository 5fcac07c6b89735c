"""Twisted Laurent polynomials in t over the shifted-index x ring.

Elements are finite sums of t^k * a_k with the scalar a_k written on the
right of t^k.  Multiplication twists scalars past powers of t by the
index shift on the x variables:

    (t^k * a) (t^l * b) = t^(k+l) * a.shift(-l) * b

so for instance (t * x_0)(t * 1) = t^2 * x_{-1}.  This makes the ring
associative with t a unit, and plain polynomials embed at t-degree 0.

Every product goes through `dot`, which sums products term by term into
one {monomial: coefficient} table per t-degree (sparse multiply-accumulate,
as in Monagan and Pearce, 2009), so a caller needing a sum of products calls
it once and builds no partial sum.  On the packed monomials of `laurent` a
term product is one int addition.  A layer that cancels builds nothing, and
only keys that survive, none for a proof, are checked against the bound.

The module also owns the line-oriented text format for these elements
(one term per `t^K * [MONO] * COEFF` chunk, " + "-joined, canonically
sorted; the tests hold its parser) and the collapse homomorphism onto
Z[x^{+-1}, t^{+-1}] that identifies every x_i with x, a LaurentPoly with x
at index 0 and t at index 1.  `collapse_dot` collapses a sum of products
without building it: it bins each term product by its key's digit sum.
"""

from __future__ import annotations

import math
from operator import add, sub
from typing import Iterable, Mapping

from .laurent import _W, EXP_BOUND, TOP_INDEX, LaurentPoly, _check_bound, _masks, format_monomial


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
        """x_i -> x, t -> t into a LaurentPoly with x at index 0, t at index 1 (`collapse_dot`)."""
        return collapse_dot([(self, {0: {0: 1}})])

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
    """The sum of a * b over the pairs, accumulated in place (the twist shifts each left
    monomial by -l as it meets layer t^l on the right).  A layer that cancels, checked by
    one `any`, builds nothing; the rest drop zeros, and only their keys meet the bound."""
    out: dict[int, dict[int, int]] = {}
    for a, b in pairs:
        for l, bl in b.coeffs.items():
            right = bl.coeffs.items()
            # t^l moves each left index down by l: for l > 0 the key shifts in
            # place (no LaurentPoly per layer pair on this hot path); for l < 0
            # `shift` checks the top index.
            down = _W * l if l > 0 else 0
            for k, ak in a.coeffs.items():
                layer = out.setdefault(k + l, {})
                for ma, ca in (ak if l >= 0 else ak.shift(-l)).coeffs.items():
                    ma <<= down
                    for mb, cb in right:
                        m = ma + mb
                        layer[m] = layer.get(m, 0) + ca * cb
    kept = {k: LaurentPoly._trusted({m: c for m, c in layer.items() if c})
            for k, layer in out.items() if any(layer.values())}
    if kept:
        _check_bound([m for a in kept.values() for m in a.coeffs])
    return SkewLaurent._trusted(kept)


def collapse_dot(pairs: Iterable[tuple[SkewLaurent, Mapping]]) -> LaurentPoly:
    """collapse(sum a * b) over pairs whose right factors are packed terms {t-degree:
    {key: coefficient}}: each term product's key is formed as in `dot`, all are checked
    against the bound, then each coefficient is binned at (t-degree, digit sum of key)."""
    keys, at = [], []
    for a, b in pairs:
        for l, right in b.items():
            right, down = right.items(), _W * l if l > 0 else 0
            for k, ak in a.coeffs.items():
                for ma, ca in (ak if l >= 0 else ak.shift(-l)).coeffs.items():
                    ma <<= down
                    for mb, cb in right:
                        keys.append(ma + mb)
                        at.append((k + l, ca * cb))
    n = _check_bound(keys)
    offset, base, bins, out, bad = _masks(n)[0], EXP_BOUND * n, {}, {}, []
    for m, (t, c) in zip(keys, at):
        tx = t, sum((m + offset).to_bytes(n, "little")) - base
        bins[tx] = bins.get(tx, 0) + c
    for (t, xe), c in bins.items():
        if c and -EXP_BOUND <= xe < EXP_BOUND and -EXP_BOUND <= t < EXP_BOUND:
            out[(xe << _W * TOP_INDEX) + (t << _W * (TOP_INDEX - 1))] = c
        elif c:
            bad.append(((0, xe), (1, t)))
    if bad:  # the least such monomial raises LimitExceeded, as `pack` does
        LaurentPoly({min(bad): 1})
    return LaurentPoly._trusted(out)


def format_skew(p: SkewLaurent) -> str:
    """Canonical one-line form: terms sorted by t-degree then monomial."""
    if p.is_zero():
        return "0"
    parts = []
    for k in sorted(p.coeffs):
        for mono, c in sorted(p.coeffs[k].terms().items()):
            parts.append(f"t^{k} * [{format_monomial(mono)}] * {c}")
    return " + ".join(parts)
