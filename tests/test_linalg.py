"""The rational field keeps integer input exact and float-free.

`QQ` keeps ints as ints and only `div` makes Fractions, so the routines
must give the same answers on int matrices as on the same matrices
written with Fraction entries, and never a float on either.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from freenil.linalg import QQ, in_rowspan, mat_vec, right_nullspace, rref

ints = st.integers(-6, 6)
shapes = st.tuples(st.integers(0, 4), st.integers(1, 4))


@st.composite
def int_matrices(draw):
    rows, cols = draw(shapes)
    return [[draw(ints) for _ in range(cols)] for _ in range(rows)], cols


def exact(values) -> bool:
    return all(type(v) in (int, Fraction) for v in values)


def fractions(a):
    return [[Fraction(e) for e in row] for row in a]


@given(ints, ints)
def test_field_operations_on_ints_stay_exact(a, b):
    for value in (QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.from_int(a)):
        assert type(value) is int
    if b:
        assert QQ.div(a, b) == Fraction(a, b)
        assert type(QQ.div(a, b)) is Fraction
    assert type(QQ.zero) is int and type(QQ.one) is int


@given(int_matrices(), st.lists(ints, min_size=4, max_size=4))
@settings(max_examples=80)
def test_int_inputs_agree_with_fraction_inputs(matrix, vector):
    a, cols = matrix
    v = vector[:cols]
    basis = rref(a)
    assert basis == rref(fractions(a))
    assert all(exact(row) for row in basis)
    kernel = right_nullspace(a, cols)
    assert kernel == right_nullspace(fractions(a), cols)
    for y in kernel:
        assert exact(y)
        assert all(x == 0 for x in mat_vec(a, y))
    assert all(in_rowspan(row, basis) for row in a)
    assert in_rowspan(v, basis) == in_rowspan([Fraction(x) for x in v], rref(fractions(a)))
