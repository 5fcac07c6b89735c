"""Small exact linear algebra over the rationals and prime fields.

Matrices are lists of rows.  Vectors are plain lists.  Every routine is
total on degenerate shapes (zero rows, zero columns) because block
modules routinely have zero-dimensional components.  No floats anywhere.

Every routine takes one field object with a single protocol: `zero`,
`one`, `from_int`, `dot`, `primitive` and `cancel`.  Elements are ints in
canonical form (reduced mod p over GF(p)), so zero is plain `0`.
Elimination is fraction-free: clearing an entry replaces a row by
`pivot * row - entry * pivot_row` (Bareiss 1968 shows that exact
elimination over Z needs no rationals), and `QQ` then divides the row by
the gcd of its entries.  No `Fraction` is ever built, and a reduced basis
over `QQ` is the rational one with each row scaled to coprime integers.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

Matrix = list[list]
Vector = list


class QQ:
    """The rationals, computed on integer rows taken up to scale."""

    zero = 0
    one = 1

    @staticmethod
    def from_int(n: int) -> int:
        return n

    @staticmethod
    def dot(u, v) -> int:
        return sum(map(mul, u, v))

    @staticmethod
    def primitive(row: Vector) -> Vector:
        """The canonical multiple of a nonzero row: coprime ints, first entry > 0."""
        g = gcd(*row)
        if next(filter(None, row)) < 0:
            g = -g
        return row if g == 1 else [x // g for x in row]

    @staticmethod
    def cancel(row: Vector, pivot_row: Vector, col: int) -> Vector:
        """A nonzero multiple of row - (row[col] / pivot_row[col]) pivot_row.

        `pivot_row` must be zero before `col`, so only the head is scaled.
        """
        p, e = pivot_row[col], row[col]
        head = row[:col] if p == 1 else [p * x for x in row[:col]]
        out = head + [p * x - e * y for x, y in zip(row[col:], pivot_row[col:])]
        g = gcd(*out)
        return out if g <= 1 else [x // g for x in out]


class GFp:
    """The field with p elements; p must be prime for division to work."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def dot(self, u, v) -> int:
        return sum(map(mul, u, v)) % self.p

    def primitive(self, row: Vector) -> Vector:
        """The monic multiple of a nonzero row."""
        inv = pow(next(filter(None, row)), -1, self.p)
        return row if inv == 1 else [x * inv % self.p for x in row]

    def cancel(self, row: Vector, pivot_row: Vector, col: int) -> Vector:
        """row - row[col] pivot_row, for a monic `pivot_row` zero before `col`."""
        e, q = row[col], self.p
        return row[:col] + [(x - e * y) % q for x, y in zip(row[col:], pivot_row[col:])]


def identity(n: int, field=QQ) -> Matrix:
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix, field=QQ) -> Matrix:
    if not a:
        # A zero-row matrix forgets its width; the product is empty anyway.
        return []
    inner = len(a[0])
    if inner != len(b):
        cols = len(b[0]) if b else 0
        raise ValueError(f"shape mismatch: {len(a)}x{inner} times {len(b)}x{cols}")
    columns = list(zip(*b))
    zero_row = [field.zero] * len(columns)
    return [[field.dot(row, col) for col in columns] if any(row) else zero_row[:] for row in a]


def mat_eq_zero(a: Matrix) -> bool:
    return not any(map(any, a))


def _lead(row: Vector) -> int:
    # The first nonzero value is found in C, then its first position.
    return row.index(next(filter(None, row)))


def rref(a: Matrix, field=QQ) -> Matrix:
    """Reduced row echelon form with zero rows dropped, each row `primitive`.

    Over `QQ` every row is the rational rref row times a positive integer,
    so its entries are coprime ints and its pivot is positive; over GF(p)
    rows are monic.  The result is a canonical basis of the row space, so
    two subspaces are equal iff their rref matrices are equal lists.
    """
    # QQ.from_int is the identity, so over QQ the rows are only copied.
    m = [list(row) if field is QQ else list(map(field.from_int, row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        prow = m[pivot_row] = field.primitive(m[pivot_row])
        for r in range(rows):
            if r != pivot_row and m[r][col]:
                m[r] = field.cancel(m[r], prow, col)
        pivot_row += 1
        if pivot_row == rows:
            break
    return m[:pivot_row]


def right_nullspace(a: Matrix, cols: int, field=QQ) -> list[Vector]:
    """The rref basis of {y : a @ y = 0} inside the cols-dimensional space."""
    return reduced_nullspace(rref(a, field), cols, field)


def reduced_nullspace(r: Matrix, cols: int, field=QQ) -> list[Vector]:
    """`right_nullspace` of a matrix that is already its own `rref`.

    Built from one solution per free column of `r`, zero on the other free
    columns; integer-valued over `QQ`.
    """
    pivots = [_lead(row) for row in r]
    taken = set(pivots)
    basis = []
    for j in range(cols):
        if j in taken:
            continue
        # Pivots are 1 over GF(p), so the scale is 1 there.
        scale = lcm(*(row[p] for row, p in zip(r, pivots) if row[j]))
        v = [field.zero] * cols
        v[j] = field.from_int(scale)
        for row, p in zip(r, pivots):
            if row[j]:
                v[p] = field.from_int(-row[j] * (scale // row[p]))
        basis.append(v)
    return rref(basis, field)


def left_nullspace(a: Matrix, rows: int, field=QQ) -> list[Vector]:
    """Basis of {w : w @ a = 0} inside the rows-dimensional row space."""
    return right_nullspace([list(col) for col in zip(*a)], rows, field)


def in_rowspan(v: Vector, basis: Matrix, field=QQ) -> bool:
    """Is v a combination of the rows of a reduced (rref) basis?"""
    return rowspan_contains([v], basis, field)


def rowspan_contains(inner: Matrix, outer: Matrix, field=QQ) -> bool:
    """Is every row of `inner` a combination of the rows of the reduced basis `outer`?

    Each reduced row is zero on the other rows' pivots, so the only
    candidate for a row v is the sum of v[p] / b[p] * b over the rows b
    with pivot p.  Both sides are compared scaled by the lcm of the pivots
    (1 over GF(p)); a pivot column always agrees, so only the free columns
    are compared.
    """
    if not outer:
        return not any(field.from_int(x) for row in inner for x in row)
    pivots = [_lead(row) for row in outer]
    scale = lcm(*(row[p] for row, p in zip(outer, pivots)))
    factors = [(p, scale // row[p]) for row, p in zip(outer, pivots)]
    free = [(j, col) for j, col in enumerate(zip(*outer)) if j not in pivots]
    for v in inner:
        v = list(map(field.from_int, v))
        coef = [v[p] * f for p, f in factors]
        if any(field.dot(coef, col) != field.from_int(scale * v[j]) for j, col in free):
            return False
    return True
