"""Tuple-monomial oracles for the packed twisted-ring arithmetic.

Here a monomial is a sorted tuple of (index, exponent) pairs, and two
multiply by merging: slow, but with no bound on indices or exponents.
Every function reads the decoded view `LaurentPoly.terms()` and returns
plain dicts, a {tuple monomial: coefficient} table per polynomial and a
{t-degree: table} map per twisted element, with no zero coefficient and
no empty layer.
"""

from __future__ import annotations

import math

from freenil.skewpoly import SkewLaurent


def mul_monomials(a, b):
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


def _kept(table):
    return {m: c for m, c in table.items() if c}


def poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mul_monomials(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return _kept(out)


def shift(a, m):
    return {tuple((i + m, e) for i, e in mono): c for mono, c in a.items()}


def skew_terms(p: SkewLaurent):
    return {k: a.terms() for k, a in p.coeffs.items()}


def dot(pairs):
    """sum a * b over pairs of SkewLaurent, with the twist (t^k a)(t^l b) = t^(k+l) a.shift(-l) b."""
    out = {}
    for a, b in pairs:
        for l, bl in skew_terms(b).items():
            for k, ak in skew_terms(a).items():
                layer = out.setdefault(k + l, {})
                for m, c in poly_mul(shift(ak, -l), bl).items():
                    layer[m] = layer.get(m, 0) + c
    return {k: layer for k, layer in ((k, _kept(layer)) for k, layer in out.items()) if layer}


def change_basis(a):
    """v_i -> 1 - v_i at every index of a polynomial, one index at a time."""
    indices = sorted({i for mono in a for i, e in mono})
    assert all(e > 0 for mono in a for _, e in mono)
    terms = dict(a)
    for index in indices:
        out = {}
        for mono, c in terms.items():
            e = dict(mono).get(index, 0)
            rest = tuple(f for f in mono if f[0] != index)
            for k in range(e + 1):
                key = tuple(sorted(rest + ((index, k),))) if k else rest
                out[key] = out.get(key, 0) + (-1) ** k * math.comb(e, k) * c
        terms = _kept(out)
    return terms


def collapse(p: SkewLaurent):
    """x_i -> x at index 0, t -> t at index 1."""
    out = {}
    for k, a in skew_terms(p).items():
        for mono, c in a.items():
            xe = sum(e for _, e in mono)
            key = tuple(f for f in ((0, xe), (1, k)) if f[1])
            out[key] = out.get(key, 0) + c
    return _kept(out)
