"""Small exact linear algebra over the rationals and prime fields.

Matrices are lists of rows.  Vectors are plain lists.  Every routine is
total on degenerate shapes (zero rows, zero columns) because block
modules routinely have zero-dimensional components.  No floats anywhere.

Every routine takes one field object with a single protocol: `zero`,
`one`, `from_int`, `add`, `sub`, `mul`, `div` and `is_zero`.  `QQ` keeps
integers as ints, so products of integer matrices stay in Z, and only
`div` turns them into Fractions.  `GFp` works with ints mod p.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list]
Vector = list


class QQ:
    """The rational numbers: ints where exact, Fractions once divided."""

    name = "rational"
    zero = 0
    one = 1

    @staticmethod
    def from_int(n: int) -> int:
        return n

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return Fraction(a) / b

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0


class GFp:
    """The field with p elements; p must be prime for division to work."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.name = f"gf({p})"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError
        return (a * pow(b, -1, self.p)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0


def identity(n: int, field=QQ) -> Matrix:
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_mul(a: Matrix, b: Matrix, field=QQ) -> Matrix:
    if not a:
        # A zero-row matrix forgets its width; the product is empty anyway.
        return []
    rows = len(a)
    inner = len(a[0])
    cols = len(b[0]) if b else 0
    if inner != len(b):
        raise ValueError(f"shape mismatch: {rows}x{inner} times {len(b)}x{cols}")
    out = []
    for row in a:
        acc = [field.zero] * cols
        for k, x in enumerate(row):
            if field.is_zero(x):
                continue
            brow = b[k]
            for j in range(cols):
                acc[j] = field.add(acc[j], field.mul(x, brow[j]))
        out.append(acc)
    return out


def mat_vec(a: Matrix, v: Vector, field=QQ) -> Vector:
    if a and len(a[0]) != len(v):
        raise ValueError("shape mismatch in matrix-vector product")
    out = []
    for row in a:
        s = field.zero
        for x, y in zip(row, v):
            s = field.add(s, field.mul(x, y))
        out.append(s)
    return out


def mat_eq_zero(a: Matrix, field=QQ) -> bool:
    return all(field.is_zero(x) for row in a for x in row)


def hstack(blocks: Sequence[Matrix], rows: int) -> Matrix:
    """Concatenate blocks left to right; every block must have `rows` rows."""
    out = [[] for _ in range(rows)]
    for block in blocks:
        if len(block) != rows:
            raise ValueError("row count mismatch in hstack")
        for i in range(rows):
            out[i] = out[i] + list(block[i])
    return out


def rref(a: Matrix, field=QQ) -> Matrix:
    """Reduced row echelon form with zero rows dropped.

    The result is the canonical basis of the row space, so two subspaces
    are equal iff their rref matrices are equal lists.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(cols):
        pivot = next(
            (r for r in range(pivot_row, rows) if not field.is_zero(m[r][col])), None
        )
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        inv = m[pivot_row][col]
        m[pivot_row] = [field.div(x, inv) for x in m[pivot_row]]
        for r in range(rows):
            if r != pivot_row and not field.is_zero(m[r][col]):
                factor = m[r][col]
                m[r] = [
                    field.sub(x, field.mul(factor, y))
                    for x, y in zip(m[r], m[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == rows:
            break
    return [row for row in m[:pivot_row]]


def right_nullspace(a: Matrix, cols: int, field=QQ) -> list[Vector]:
    """Basis of {y : a @ y = 0} inside the cols-dimensional column space."""
    r = rref(a, field)
    pivots = []
    for row in r:
        for j, x in enumerate(row):
            if not field.is_zero(x):
                pivots.append(j)
                break
    free = [j for j in range(cols) if j not in pivots]
    basis = []
    for j in free:
        v = [field.zero] * cols
        v[j] = field.one
        for row, pj in zip(r, pivots):
            v[pj] = field.sub(field.zero, row[j])
        basis.append(v)
    return basis


def left_nullspace(a: Matrix, rows: int, field=QQ) -> list[Vector]:
    """Basis of {w : w @ a = 0} inside the rows-dimensional row space."""
    return right_nullspace(transpose(a), rows, field)


def in_rowspan(v: Vector, basis: Matrix, field=QQ) -> bool:
    """Is v a combination of the rows of an rref basis?"""
    residue = list(v)
    for row in basis:
        lead = next((j for j, x in enumerate(row) if not field.is_zero(x)), None)
        if lead is None:
            continue
        factor = field.div(residue[lead], row[lead])
        if field.is_zero(factor):
            continue
        residue = [field.sub(x, field.mul(factor, y)) for x, y in zip(residue, row)]
    return all(field.is_zero(x) for x in residue)


def rowspan_contains(inner: Matrix, outer: Matrix, field=QQ) -> bool:
    return all(in_rowspan(row, outer, field) for row in inner)
