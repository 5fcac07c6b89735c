"""Packed elimination against the list and Fraction eliminations it replaced.

Over `QQ`, every `rref` row must be the monic rational rref row scaled to
coprime integers with a positive pivot, and nothing may leave the ints:
no Fraction and no float.  Over GF(p) the rows are the monic rref itself.
The references are `nil_helpers.reference_rref`, the old Fraction code,
and `nil_helpers.list_rref`, the fraction-free list code.
"""

from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from freenil.linalg import MODULUS_BOUND, GFp, QQ, in_rowspan, right_nullspace, rowspan_contains, rref

from nil_helpers import (
    cancel,
    list_rref,
    mat_vec,
    monic,
    primitive,
    reference_in_rowspan,
    reference_nullspace,
    reference_rref,
)

ints = st.integers(-6, 6)
moduli = st.sampled_from([None, 2, 3, 7])


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    a = [[draw(ints) for _ in range(cols)] for _ in range(rows)]
    p = draw(moduli)
    return a, cols, p, (QQ if p is None else GFp(p))


def all_ints(rows) -> bool:
    return all(type(x) is int for row in rows for x in row)


@given(st.lists(ints, min_size=1, max_size=5), st.lists(ints, min_size=1, max_size=5),
       st.integers(-4, 4).filter(bool))
def test_field_operations_on_ints_stay_exact(u, v, lead):
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    assert type(QQ.dot(u, v)) is int and QQ.dot(u, v) == sum(x * y for x, y in zip(u, v))
    # A pivot row is zero before its pivot column, here column n.
    row = primitive([0] * n + [lead] + u)
    assert all_ints([row]) and gcd(*row) == 1 and row[n] > 0
    target = v + [3] + v
    cleared = cancel(target, row, n)
    assert all_ints([cleared]) and cleared[n] == 0
    # cleared is a nonzero multiple c of target - (3 / row[n]) row.
    want = [row[n] * x - 3 * y for x, y in zip(target, row)]
    c = next((Fraction(a, b) for a, b in zip(want, cleared) if b), None)
    assert [Fraction(x) for x in want] == [c * x for x in cleared] if c else not any(want)
    monic_row = primitive([x % 7 for x in row], 7)
    assert monic_row[n] == 1
    assert cancel([x % 7 for x in target], monic_row, n, 7) == [
        (x - 3 * y) % 7 for x, y in zip(target, monic_row)
    ]
    assert type(QQ.zero) is int and type(QQ.one) is int


@given(matrices())
@settings(max_examples=150)
def test_int_inputs_agree_with_fraction_inputs(matrix):
    a, cols, p, field = matrix
    basis = rref(a, field)
    assert all_ints(basis)
    assert [monic(row, p) for row in basis] == reference_rref(a, p)
    for row in basis:
        lead = next(x for x in row if x)
        if p is None:
            assert lead > 0 and gcd(*row) == 1
        else:
            assert lead == 1 and all(0 <= x < p for x in row)


@given(matrices())
@settings(max_examples=150)
def test_nullspace_is_the_integer_rref_of_the_reference(matrix):
    a, cols, p, field = matrix
    kernel = right_nullspace(a, cols, field)
    assert all_ints(kernel)
    assert kernel == rref(kernel, field)
    for y in kernel:
        assert all(x == 0 for x in mat_vec(a, y, field))
    want = reference_rref(reference_nullspace(a, cols, p), p)
    assert [monic(y, p) for y in kernel] == want


@given(matrices(), st.lists(ints, min_size=5, max_size=5))
@settings(max_examples=150)
def test_in_rowspan_is_a_rank_test(matrix, vector):
    a, cols, p, field = matrix
    v = vector[:cols]
    basis = rref(a, field)
    assert all(in_rowspan(row, basis, field) for row in a)
    grows = len(reference_rref(a + [v], p)) > len(reference_rref(a, p))
    assert in_rowspan(v, basis, field) == (not grows)


@given(matrices(), st.data())
@settings(settings.get_profile("ci"), max_examples=300)
def test_rowspan_contains_is_in_rowspan_on_every_row(matrix, data):
    # Inner rows: arbitrary, zero (over GF(p) also a multiple of p), or an
    # integer combination of the rows of `a`, whose GF(p) entries leave [0, p).
    a, cols, p, field = matrix
    outer = rref(a, field)
    inner = []
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["any", "zero", "span"]))
        if kind == "any":
            row = data.draw(st.lists(ints, min_size=cols, max_size=cols))
        elif kind == "zero":
            row = [p * data.draw(ints) for _ in range(cols)] if p else [0] * cols
        else:
            coefs = data.draw(st.lists(ints, min_size=len(a), max_size=len(a)))
            row = [sum(c * r[j] for c, r in zip(coefs, a)) for j in range(cols)]
        inner.append(row)
    want = all(reference_in_rowspan(row, outer, field) for row in inner)
    assert rowspan_contains(inner, outer, field) == want
    assert rowspan_contains(inner, [], field) == all(
        reference_in_rowspan(row, [], field) for row in inner
    )


# Packed rows: shapes of the image chain's stacked letter images (tall) and
# of short wide blocks, entries far past a machine word, and moduli whose
# squares need wide fields.
WIDE_MODULI = [None, 2, 3, 7, 2**31 - 1, 2**61 - 1]


@st.composite
def packed_cases(draw):
    rows = draw(st.sampled_from([0, 1, 3, draw(st.integers(0, 40))]))
    cols = draw(st.sampled_from([1, 14, draw(st.integers(1, 14))]))
    bound = draw(st.sampled_from([1, 6, 2**80]))
    entry = st.integers(-bound, bound) | st.just(0)
    if draw(st.booleans()):
        a = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    else:
        # Low rank: integer combinations of a few rows.
        base = [[draw(entry) for _ in range(cols)] for _ in range(draw(st.integers(0, 4)))]
        a = [[sum(c * x for c, x in zip(coefs, col)) for col in zip(*base)] if base else [0] * cols
             for coefs in (draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
                           for _ in range(rows))]
    return a, draw(st.sampled_from(WIDE_MODULI))


@given(packed_cases())
@settings(settings.get_profile("ci"), max_examples=400)
def test_packed_rref_matches_the_list_and_fraction_eliminations(case):
    a, p = case
    basis = rref(a, QQ if p is None else GFp(p))
    assert all_ints(basis)
    assert basis == list_rref(a, p)
    assert [monic(row, p) for row in basis] == reference_rref(a, p)


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1, 2**61 - 1])
def test_packed_rref_on_degenerate_shapes(p):
    for field in (QQ, GFp(p)):
        assert rref([], field) == []
        assert rref([[0] * 14] * 40, field) == []
        assert rref([[0], [0]], field) == []
        assert rref([[p * 5]] * 3, field) == ([[1]] if field is QQ else [])
        assert rref([[-3], [5]], field) == [[1]]
        assert rref([[]], field) == []


def test_prime_moduli_up_to_the_bound():
    start = perf_counter()
    assert GFp(2**61 - 1).p == 2**61 - 1
    assert GFp(3_317_044_064_679_887_385_961_813).one == 1  # the largest prime below the bound
    assert perf_counter() - start < 0.5
    # Among the non-primes: Carmichael numbers (561, 41041), and strong
    # pseudoprimes to every prime base up to 7, 23 and 37 in turn.
    for composite in (1, 0, -7, 4, 41 * 43, 561, 41041, 2**61 + 1, 3_215_031_751,
                      3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461):
        with pytest.raises(ValueError, match=f"must be a prime below {MODULUS_BOUND}, got"):
            GFp(composite)
    with pytest.raises(ValueError, match=str(MODULUS_BOUND)):
        GFp(MODULUS_BOUND)
