"""Fraction-free elimination against the Fraction elimination it replaced.

Over `QQ`, every `rref` row must be the monic rational rref row scaled to
coprime integers with a positive pivot, and nothing may leave the ints:
no Fraction and no float.  Over GF(p) the rows are the monic rref itself.
The reference is `nil_helpers.reference_rref`, the old Fraction code.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from freenil.linalg import GFp, QQ, in_rowspan, mat_vec, right_nullspace, rref

from nil_helpers import monic, reference_nullspace, reference_rref

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
    row = QQ.primitive([0] * n + [lead] + u)
    assert all_ints([row]) and gcd(*row) == 1 and row[n] > 0
    target = v + [3] + v
    cleared = QQ.cancel(target, row, n)
    assert all_ints([cleared]) and cleared[n] == 0
    # cleared is a nonzero multiple c of target - (3 / row[n]) row.
    want = [row[n] * x - 3 * y for x, y in zip(target, row)]
    c = next((Fraction(a, b) for a, b in zip(want, cleared) if b), None)
    assert [Fraction(x) for x in want] == [c * x for x in cleared] if c else not any(want)
    gf = GFp(7)
    monic_row = gf.primitive([x % 7 for x in row])
    assert monic_row[n] == 1
    assert gf.cancel([x % 7 for x in target], monic_row, n) == [
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
