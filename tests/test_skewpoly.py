"""Arithmetic laws for the x-ring and the twisted t-ring, plus the text format.

Hand-computed products anchor the twist convention; hypothesis checks the
ring axioms on small random elements, exactly (integer coefficients, no
tolerance anywhere).
"""

from hypothesis import given, settings, strategies as st

import pytest

from freenil.laurent import (
    LaurentPoly,
    _mul_monomials,
    clearing_unit,
    collapse_poly,
    format_poly,
    one_minus_x,
    x_diff,
)
from freenil.skewpoly import SkewLaurent, format_skew, parse_skew


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
        p = one_minus_x(0) + LaurentPoly.x(1, -1)
        assert p ** 3 == p * p * p
        assert p ** 0 == LaurentPoly.one()


    @given(monomials, monomials)
    def test_monomial_merge_matches_reference(self, a, b):
        assert _mul_monomials(a, b) == reference_mul_monomials(a, b)


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
        exponents = [e for mono in cleared.coeffs for _, e in mono]
        assert all(e > 0 for e in exponents)
        # The unit is the least one: each of its indices reaches exponent 0.
        for i, _ in next(iter(unit.coeffs)):
            assert any(all(j != i for j, _ in mono) for mono in cleared.coeffs)
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


class TestCollapse:
    def test_kills_x_diff(self):
        assert SkewLaurent.from_poly(x_diff(5)).collapse().is_zero()

    def test_preserves_one(self):
        assert SkewLaurent.one().collapse() == LaurentPoly.one()

    def test_collapse_ignores_shift(self):
        p = one_minus_x(0) * LaurentPoly.x(3, -2)
        assert collapse_poly(p.shift(7)) == collapse_poly(p)

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
