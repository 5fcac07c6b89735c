"""Arithmetic laws for the x-ring and the twisted t-ring, plus the text format.

Hand-computed products anchor the twist convention; hypothesis checks the
ring axioms on small random elements, exactly (integer coefficients, no
tolerance anywhere).
"""

import json
import re

from hypothesis import example, given, settings, strategies as st

import pytest

import tuple_ring
from freenil.errors import LimitExceeded
from freenil.laurent import (
    EXP_BOUND,
    TOP_INDEX,
    LaurentPoly,
    Monomial,
    clearing_unit,
    format_poly,
    one_minus_x,
    pack,
    unpack,
    x_diff,
)
from freenil.skewpoly import SkewLaurent, collapse_dot, dot, format_skew


def power(p: LaurentPoly, n: int) -> LaurentPoly:
    """p^n for n >= 0 by square-and-multiply."""
    if n < 0:
        raise ValueError("negative powers only exist for monomials; invert x(i, e) directly")
    result = LaurentPoly.one()
    while n:
        if n & 1:
            result = result * p
        p = p * p
        n >>= 1
    return result


# The parser of format_skew's text; the library only writes it.

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
    """Inverse of format_skew; raises ValueError on malformed input, and
    LimitExceeded on an index or exponent outside the packed monomials."""
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


def P(**kw) -> LaurentPoly:
    # Shorthand: P(c=2) = 2, plus x(i, e) terms built by the tests directly.
    return LaurentPoly.const(kw.get("c", 0))


monomials = st.dictionaries(
    st.integers(-2, 2), st.integers(-2, 2).filter(bool), max_size=2
).map(lambda d: tuple(sorted(d.items())))

polys = st.dictionaries(
    monomials, st.integers(-3, 3).filter(bool), max_size=3
).map(LaurentPoly)

skews = st.dictionaries(st.integers(-2, 2), polys, max_size=3).map(SkewLaurent)

# Polynomials proper (no negative exponents): the domain of change_basis.
plain_polys = st.dictionaries(
    st.dictionaries(st.integers(-3, 3), st.integers(1, 3), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    ),
    st.integers(-3, 3).filter(bool),
    max_size=4,
).map(LaurentPoly)

plain_skews = st.dictionaries(st.integers(-2, 2), plain_polys, max_size=3).map(SkewLaurent)


def layered_mul(a: SkewLaurent, b: SkewLaurent) -> SkewLaurent:
    """The product layer by layer: the oracle for the fused `dot` kernel.

    Each (k, l) layer pair is one shift, one LaurentPoly product and one
    sum, with a new filtered object at every step.
    """
    out: dict[int, LaurentPoly] = {}
    for k, a_k in a.coeffs.items():
        for l, b_l in b.coeffs.items():
            term = a_k.shift(-l) * b_l
            if term.is_zero():
                continue
            s = out.get(k + l, LaurentPoly.zero()) + term
            if s.is_zero():
                out.pop(k + l, None)
            else:
                out[k + l] = s
    return SkewLaurent(out)


def assert_canonical(p):
    """No zero coefficient, no empty layer, sorted monomials of nonzero exponents."""
    if isinstance(p, SkewLaurent):
        layers = list(p.coeffs.values())
        assert all(isinstance(a, LaurentPoly) and a.coeffs for a in layers)
    else:
        layers = [p]
    for a in layers:
        for mono, c in a.terms().items():
            assert isinstance(c, int) and c != 0
            indices = [i for i, _ in mono]
            assert indices == sorted(set(indices))
            assert all(e != 0 for _, e in mono)
    return p


def reference_mul_monomials(a, b):
    merged = {}
    for index, exponent in a + b:
        merged[index] = merged.get(index, 0) + exponent
    return tuple(sorted((i, e) for i, e in merged.items() if e != 0))


class TestLaurentPoly:
    def test_x_times_inverse(self):
        assert LaurentPoly.x(0) * LaurentPoly.x(0, -1) == LaurentPoly.one()

    def test_binomial_square(self):
        y = one_minus_x(0)
        expected = (
            LaurentPoly.one()
            - 2 * LaurentPoly.x(0)
            + LaurentPoly.x(0, 2)
        )
        assert y * y == expected

    def test_x_diff_is_difference(self):
        assert x_diff(1) == LaurentPoly.x(0) - LaurentPoly.x(1)

    def test_shift_on_generators(self):
        assert x_diff(0).shift(1) == x_diff(1)
        assert one_minus_x(-2).shift(2) == one_minus_x(0)

    def test_shift_is_additive(self):
        p = x_diff(0) * one_minus_x(3)
        assert p.shift(2).shift(-5) == p.shift(-3)

    @given(polys, polys)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys, polys, polys)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys, st.integers(-3, 3))
    def test_shift_is_ring_map(self, a, b, m):
        assert (a * b).shift(m) == a.shift(m) * b.shift(m)
        assert (a + b).shift(m) == a.shift(m) + b.shift(m)

    @given(polys, polys)
    def test_domain_no_zero_divisors(self, a, b):
        if not a.is_zero() and not b.is_zero():
            assert not (a * b).is_zero()

    def test_pow_matches_repeated_mul(self):
        # Square-and-multiply powers, which no command uses, live here.
        p = one_minus_x(0) + LaurentPoly.x(1, -1)
        assert power(p, 3) == p * p * p
        assert power(p, 0) == LaurentPoly.one()
        with pytest.raises(ValueError):
            power(p, -1)


    @given(monomials, monomials)
    def test_monomial_merge_matches_reference(self, a, b):
        want = reference_mul_monomials(a, b)
        assert tuple_ring.mul_monomials(a, b) == want
        assert unpack(pack(a) + pack(b)) == want


class TestChangeOfBasis:
    def test_known_images(self):
        assert LaurentPoly.x(0).change_basis() == one_minus_x(0)
        assert LaurentPoly.x(2, 2).change_basis() == one_minus_x(2) * one_minus_x(2)
        assert x_diff(1).change_basis() == LaurentPoly.x(1) - LaurentPoly.x(0)
        assert LaurentPoly.const(5).change_basis() == LaurentPoly.const(5)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.x(1, -1).change_basis()

    def test_run_of_factors_is_one_monomial(self):
        run = LaurentPoly.one()
        for i in range(-9, 1):
            run = run * one_minus_x(i)
        assert len(run.coeffs) == 2**10
        assert run.change_basis() == LaurentPoly({tuple((i, 1) for i in range(-9, 1)): 1})

    @given(plain_polys)
    def test_involution(self, a):
        assert a.change_basis().change_basis() == a

    @given(plain_polys, plain_polys)
    @settings(max_examples=60)
    def test_ring_map(self, a, b):
        assert (a * b).change_basis() == a.change_basis() * b.change_basis()
        assert (a + b).change_basis() == a.change_basis() + b.change_basis()

    @given(plain_polys, st.integers(-3, 3))
    def test_commutes_with_shift(self, a, m):
        assert a.shift(m).change_basis() == a.change_basis().shift(m)

    @given(plain_skews, plain_skews)
    @settings(max_examples=40)
    def test_twisted_ring_map(self, a, b):
        assert (a * b).change_basis() == a.change_basis() * b.change_basis()

    @given(polys)
    def test_clearing_then_mapping_back_returns_input(self, a):
        unit, inverse = clearing_unit([a])
        assert unit * inverse == LaurentPoly.one()
        cleared = a * unit
        exponents = [e for mono in cleared.terms() for _, e in mono]
        assert all(e > 0 for e in exponents)
        # The unit is the least one: each of its indices reaches exponent 0.
        for i, _ in next(iter(unit.terms())):
            assert any(all(j != i for j, _ in mono) for mono in cleared.terms())
        assert cleared.change_basis().change_basis() * inverse == a


class TestSkewMul:
    def test_twist_example(self):
        lhs = SkewLaurent.t(1, LaurentPoly.x(0)) * SkewLaurent.t(1)
        assert lhs == SkewLaurent.t(2, LaurentPoly.x(-1))

    def test_t_conjugation_shifts_index(self):
        # t^k * x_i * t^-k = x_{i+k}
        t = SkewLaurent.t(1)
        tinv = SkewLaurent.t(-1)
        xi = SkewLaurent.from_poly(LaurentPoly.x(0))
        assert t * xi * tinv == SkewLaurent.from_poly(LaurentPoly.x(1))
        assert tinv * xi * t == SkewLaurent.from_poly(LaurentPoly.x(-1))

    def test_t_inverse(self):
        assert SkewLaurent.t(3) * SkewLaurent.t(-3) == SkewLaurent.one()

    def test_noncommutative_witness(self):
        t = SkewLaurent.t(1)
        x0 = SkewLaurent.from_poly(LaurentPoly.x(0))
        assert x0 * t == SkewLaurent.t(1, LaurentPoly.x(-1))
        assert x0 * t != t * x0

    @given(skews, skews, skews)
    @settings(max_examples=60)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(skews, skews, skews)
    @settings(max_examples=60)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(skews)
    def test_one_is_identity(self, a):
        assert SkewLaurent.one() * a == a
        assert a * SkewLaurent.one() == a

    def test_val_deg(self):
        assert SkewLaurent.zero().val_deg() == (float("inf"), float("-inf"))
        p = SkewLaurent.t(-2) + SkewLaurent.t(5, x_diff(0))
        assert p.val_deg() == (-2, 5)

    def test_scalar_embedding_multiplies_pointwise(self):
        p = SkewLaurent.t(2, x_diff(1))
        assert p * 3 == SkewLaurent.t(2, 3 * x_diff(1))


class TestFusedKernel:
    """`dot` and `*` against the layer-by-layer product, in canonical form."""

    @given(skews, skews)
    def test_mul_matches_layered_product(self, a, b):
        assert assert_canonical(a * b) == layered_mul(a, b)

    @given(st.lists(st.tuples(skews, skews), max_size=4))
    @settings(max_examples=80)
    def test_dot_is_the_sum_of_products(self, pairs):
        want = SkewLaurent.zero()
        for a, b in pairs:
            want = want + layered_mul(a, b)
        assert assert_canonical(dot(pairs)) == want
        assert assert_canonical(dot(iter(pairs))) == want

    @given(skews, skews, skews, st.integers(-3, 3))
    @settings(max_examples=80)
    def test_cancelling_sums_are_zero(self, a, b, c, k):
        shifted = SkewLaurent.t(k) * b
        for got in (
            dot([(a, b), (-a, b)]),
            dot([(a, b), (a, -b)]),
            dot([(a, b + c), (-a, b), (a, -c)]),
            dot([(a, shifted), (-(a * SkewLaurent.t(k)), b)]),
            a * b - a * b,
        ):
            assert got.is_zero() and got.coeffs == {}
        # Part of the sum cancels and the rest survives in canonical form.
        assert assert_canonical(dot([(a, b), (a, c), (-a, b)])) == layered_mul(a, c)

    def test_cancellation_drops_terms_and_layers(self):
        x0, x1 = LaurentPoly.x(0), LaurentPoly.x(1, -2)
        left = SkewLaurent({0: x0, 2: x1})
        right = SkewLaurent.t(-1, x0 - x1)
        got = dot([(left, right), (SkewLaurent({0: -x0}), right)])
        assert got == SkewLaurent.t(1, x1.shift(1) * (x0 - x1))
        assert set(got.coeffs) == {1}
        assert_canonical(got)

    def test_empty_sum(self):
        assert dot([]) == SkewLaurent.zero()
        assert dot([(SkewLaurent.zero(), SkewLaurent.one())]).coeffs == {}

    @given(polys, polys, st.integers(-3, 3), st.integers(-3, 3))
    def test_twist_law(self, a, b, k, l):
        # (t^k a)(t^l b) = t^(k+l) a.shift(-l) b; (t x_0)(t 1) = t^2 x_{-1} is one case
        got = SkewLaurent.t(k, a) * SkewLaurent.t(l, b)
        assert assert_canonical(got) == SkewLaurent.t(k + l, a.shift(-l) * b)

    @given(skews, skews, skews)
    @settings(max_examples=60)
    def test_dot_associative(self, a, b, c):
        assert dot([(dot([(a, b)]), c)]) == dot([(a, dot([(b, c)]))])
        assert assert_canonical((a * b) * c) == layered_mul(a, layered_mul(b, c))

    @given(skews, skews)
    def test_every_operation_stays_canonical(self, a, b):
        for got in (a + b, a - b, -a, a * b, b * a, a - a, a + (-a)):
            assert_canonical(got)
        assert a - b == a + (-b)
        for p, q in ((a.coeff(0), b.coeff(1)), (a.coeff(-1), a.coeff(-1))):
            for got in (p + q, p - q, -p, p * q, p - p, p.shift(2), p.shift(-1)):
                assert_canonical(got)
            assert p - q == p + (-q)

    def test_public_constructors_filter_zeros(self):
        assert LaurentPoly({(): 0, ((0, 1),): 2}).terms() == {((0, 1),): 2}
        assert SkewLaurent({0: LaurentPoly.zero(), 1: LaurentPoly.one()}).coeffs == {1: LaurentPoly.one()}
        assert LaurentPoly({(): 0}) == LaurentPoly.zero()


# Packed keys at their edges: indices at the top, near zero and far below
# it; exponents small or at the digit bound, where products may pass it.
far_below = st.integers(-1003, -997)
edge_exponents = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from([-EXP_BOUND, 1 - EXP_BOUND, EXP_BOUND - 2, EXP_BOUND - 1]),
)


def edge_polys(indices, max_size=3):
    monos = st.dictionaries(indices, edge_exponents, max_size=3).map(lambda d: tuple(sorted(d.items())))
    return st.dictionaries(monos, st.integers(-3, 3).filter(bool), max_size=max_size).map(LaurentPoly)


top_polys = edge_polys(st.one_of(st.integers(-3, 3), far_below, st.integers(TOP_INDEX - 2, TOP_INDEX)))
# At most TOP_INDEX - 2, so that twists by up to two stay below the top.
twist_skews = st.dictionaries(
    st.integers(-2, 2), edge_polys(st.one_of(st.integers(-3, 3), far_below, st.just(TOP_INDEX - 2))),
    max_size=3,
).map(SkewLaurent)


# Left factors with t-degrees at the collapse bound, and right factors as the
# collapse samples draw them, t^s (x_i^e + c): twists that cross TOP_INDEX,
# exponents at the bound and w = 0 (e = 0, c = -1).
edge_skews = st.one_of(
    st.integers(-3, 3).map(lambda i: SkewLaurent.from_poly(x_diff(i))),
    st.dictionaries(
        st.one_of(st.integers(-2, 2), st.sampled_from([-EXP_BOUND - 1, -EXP_BOUND, EXP_BOUND - 2, EXP_BOUND - 1])),
        top_polys, min_size=1, max_size=3,
    ).map(SkewLaurent),
)
sample_factors = st.builds(
    lambda s, i, e, c: SkewLaurent.t(s, LaurentPoly.x(i, e) + LaurentPoly.const(c)),
    st.integers(-3, 3), st.one_of(st.integers(-3, 3), far_below, st.integers(TOP_INDEX - 2, TOP_INDEX)),
    st.one_of(st.just(0), edge_exponents), st.integers(-2, 2),
)


def outcome(compute):
    try:
        return compute()
    except LimitExceeded as e:
        return LimitExceeded, str(e)


def in_bound(tables):
    return all(-EXP_BOUND <= e < EXP_BOUND for t in tables for mono in t for _, e in mono)


def or_limit(compute):
    try:
        return compute()
    except LimitExceeded:
        return LimitExceeded


class TestPackedKeys:
    """Packed monomials against the tuple oracle in `tuple_ring`."""

    @given(top_polys, top_polys)
    @settings(max_examples=150)
    def test_products_match_tuple_products(self, a, b):
        want = tuple_ring.poly_mul(a.terms(), b.terms())
        assert or_limit(lambda: (a * b).terms()) == (want if in_bound([want]) else LimitExceeded)

    @given(st.lists(st.tuples(twist_skews, twist_skews), max_size=3))
    @settings(max_examples=150)
    def test_dot_matches_tuple_dot(self, pairs):
        want = tuple_ring.dot(pairs)
        expect = want if in_bound(want.values()) else LimitExceeded
        assert or_limit(lambda: tuple_ring.skew_terms(dot(pairs))) == expect
        if expect is not LimitExceeded:
            cancelled = pairs + [(-a, b) for a, b in pairs]
            assert dot(cancelled).coeffs == {} and tuple_ring.dot(cancelled) == {}

    @given(top_polys, st.integers(-3, 3))
    def test_shift_matches_tuple_shift(self, a, m):
        want = tuple_ring.shift(a.terms(), m)
        fits = all(i <= TOP_INDEX for mono in want for i, _ in mono)
        assert or_limit(lambda: a.shift(m).terms()) == (want if fits else LimitExceeded)

    @given(edge_polys(st.one_of(st.integers(-3, 3), far_below, st.just(TOP_INDEX)), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_change_basis_matches_tuple_change_basis(self, a):
        if any(e < 0 for mono in a.terms() for _, e in mono):
            with pytest.raises(ValueError):
                a.change_basis()
            return
        got = a.change_basis()
        assert got.terms() == tuple_ring.change_basis(a.terms())
        assert got.change_basis() == a

    @given(twist_skews)
    def test_collapse_matches_tuple_collapse(self, p):
        want = tuple_ring.collapse(p)
        assert or_limit(lambda: p.collapse().terms()) == (want if in_bound([want]) else LimitExceeded)

    @settings(settings.get_profile("ci"), max_examples=400)
    @given(edge_skews, sample_factors)
    @example(SkewLaurent.from_poly(LaurentPoly.x(TOP_INDEX)), SkewLaurent.zero())
    @example(SkewLaurent.t(EXP_BOUND - 1, LaurentPoly.x(1, 2)), SkewLaurent.t(1, LaurentPoly.x(0, 3)))
    def test_collapse_kernel_matches_the_collapsed_product(self, a, w):
        packed = {l: p.coeffs for l, p in w.coeffs.items()}
        got = outcome(lambda: collapse_dot([(a, packed)]))
        assert got == outcome(lambda: (a * w).collapse())
        if isinstance(got, LaurentPoly):
            assert got.terms() == tuple_ring.collapse(a * w)

    @given(top_polys)
    def test_pack_round_trip(self, a):
        for mono in a.terms():
            assert unpack(pack(mono)) == mono

    def test_bounds_are_exact(self):
        assert LaurentPoly.x(TOP_INDEX, EXP_BOUND - 1).terms() == {((TOP_INDEX, EXP_BOUND - 1),): 1}
        assert LaurentPoly.x(-10**4, -EXP_BOUND).terms() == {((-10**4, -EXP_BOUND),): 1}
        for index, exponent in ((0, EXP_BOUND), (0, -EXP_BOUND - 1), (TOP_INDEX + 1, 1)):
            with pytest.raises(LimitExceeded):
                LaurentPoly.x(index, exponent)
        half = LaurentPoly.x(-3, EXP_BOUND // 2)
        assert (half * LaurentPoly.x(-3, -EXP_BOUND // 2)) == LaurentPoly.one()
        with pytest.raises(LimitExceeded):
            half * half

    def test_exponent_past_the_bound_exits_three_before_any_product(self, capsys, monkeypatch):
        import freenil.skewpoly as skewpoly
        import freenil.syzygy as syzygy
        from freenil.cli import main

        products = []
        real_mul, real_dot, real_collapse = LaurentPoly.__mul__, skewpoly.dot, skewpoly.collapse_dot
        monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: products.append(1) or real_mul(a, b))
        for module in (skewpoly, syzygy):
            monkeypatch.setattr(module, "dot", lambda pairs: products.append(1) or real_dot(pairs))
            monkeypatch.setattr(module, "collapse_dot",
                                lambda pairs: products.append(1) or real_collapse(pairs))
        # A generator x_{i-1}^EXP_BOUND - x_i, one step past the bound, built
        # afresh as in a new process: no generator an earlier test cached is read.
        monkeypatch.setattr(syzygy, "x_diff", lambda i: LaurentPoly.x(i - 1, EXP_BOUND) - LaurentPoly.x(i))
        syzygy._collapsed_generator.cache_clear()
        code = main(["grouph", "collapse", "--max-n", "2"])
        out = capsys.readouterr()
        assert code == 3 and out.err == ""
        assert f"x_-1^{EXP_BOUND} is outside the packed monomials" in json.loads(out.out)["data"]["limit"]
        assert products == []


class TestCollapse:
    def test_kills_x_diff(self):
        assert SkewLaurent.from_poly(x_diff(5)).collapse().is_zero()

    def test_preserves_one(self):
        assert SkewLaurent.one().collapse() == LaurentPoly.one()

    def test_collapse_ignores_shift(self):
        p = one_minus_x(0) * LaurentPoly.x(3, -2)
        for k in (-2, 0, 3):
            assert SkewLaurent.t(k, p.shift(7)).collapse() == SkewLaurent.t(k, p).collapse()

    @given(skews, skews)
    @settings(max_examples=60)
    def test_is_ring_hom(self, a, b):
        assert (a * b).collapse() == a.collapse() * b.collapse()
        assert (a + b).collapse() == a.collapse() + b.collapse()

    def test_t_maps_to_t(self):
        # The target reads x at index 0 and t at index 1.
        got = SkewLaurent.t(4, LaurentPoly.x(-1, 2)).collapse()
        assert got == LaurentPoly.x(0, 2) * LaurentPoly.x(1, 4)


class TestTextFormat:
    def test_zero(self):
        assert format_skew(SkewLaurent.zero()) == "0"
        assert parse_skew("0") == SkewLaurent.zero()

    def test_known_string(self):
        p = SkewLaurent.t(2, LaurentPoly.x(-1)) - SkewLaurent.const(3)
        assert format_skew(p) == "t^0 * [1] * -3 + t^2 * [x_-1^1] * 1"

    def test_exponent_always_written(self):
        assert "x_0^1" in format_skew(SkewLaurent.from_poly(LaurentPoly.x(0)))

    @given(skews)
    def test_round_trip(self, p):
        assert parse_skew(format_skew(p)) == p

    @given(skews)
    def test_canonical_fixed_point(self, p):
        s = format_skew(p)
        assert format_skew(parse_skew(s)) == s

    @pytest.mark.parametrize(
        "bad",
        [
            "t^1 * [x_0^0] * 2",
            "t^1 * [x_0^1] * 0",
            "t^1 * [x_0^1 x_0^2] * 1",
            "t^1 * [x_1^1 x_0^1] * 1",
            "t * [1] * 1",
            "t^1 * [1] * 1 +",
            "garbage",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_skew(bad)

    def test_poly_format_zero(self):
        assert format_poly(LaurentPoly.zero()) == "0"
