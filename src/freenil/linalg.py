"""Small exact linear algebra over the rationals and prime fields.

Matrices are lists of rows.  Vectors are plain lists.  Every routine is
total on degenerate shapes (zero rows, zero columns) because block
modules routinely have zero-dimensional components.  No floats anywhere.

Every routine takes one field object with a single protocol: `zero`,
`one`, `from_int` and `dot`.  Elements are ints in canonical form
(reduced mod p over GF(p)), so zero is plain `0`.  No `Fraction` is ever
built: a reduced basis over `QQ` is the rational one with each row scaled
to coprime integers.

`rref` packs each row into one int, one W-bit field per column with
column 0 on top, so a row update is a few C-level big-int operations.
Over GF(p) fields stay non-negative: with e a row's field in the pivot
column and r = e mod p, `x += (p - r) * pivot - ((e + p - r) << shift)`
by the monic pivot row zeroes that field and adds less than p^2 to the
others.  Fields are reduced only in a new pivot row and at unpack, so
none reaches p^2 (cols + 1), which sets W.  Over `QQ` fields are signed.
The basis grows one input row x at a time, Jordan-reduced with every
pivot equal to d: x becomes `d * x - sum(x[c] * basis_c)` over the pivot
columns c, with no division.  If that is nonzero its top field is a new
pivot pv, each basis row y takes the fraction-free Bareiss-Jordan step
`y = (pv * y - e * x) // d` (Bareiss 1968), e being its field in pv's
column, and d becomes pv.  Each division is exact field by field and
every field is a minor of the input, so the Hadamard bound (the root of
the product of the min(rows, cols) largest squared row norms) plus a
sign bit sets W.  A row zero above a column reads its entry there as
`(x + half) >> shift`; any other row adds half a field to each first.
Output rows are divided by the gcd of their entries once.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import lshift, mul

Matrix = list[list]
Vector = list

# Miller-Rabin on the primes up to 41 decides primality below this bound
# (Sorenson and Webster 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_BOUND = 3_317_044_064_679_887_385_961_981


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


def _is_prime(n: int) -> bool:
    if any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or any(pow(b, d << k, n) == n - 1 for k in range(s))
               for b in _BASES)


class GFp:
    """The field with p elements, for a prime p below `MODULUS_BOUND`."""

    def __init__(self, p: int):
        if not 2 <= p < MODULUS_BOUND or not _is_prime(p):
            raise ValueError(f"modulus must be a prime below {MODULUS_BOUND}, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def dot(self, u, v) -> int:
        return sum(map(mul, u, v)) % self.p


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
    """Reduced row echelon form with zero rows dropped.

    Over `QQ` every row is the rational rref row times a positive integer,
    so its entries are coprime ints and its pivot is positive; over GF(p)
    rows are monic.  The result is a canonical basis of the row space, so
    two subspaces are equal iff their rref matrices are equal lists.
    """
    if not a:
        return []
    return _rref_qq(a, len(a[0])) if field is QQ else _rref_gf(a, len(a[0]), field.p)


def _rref_gf(a: Matrix, cols: int, p: int) -> Matrix:
    w = (p * p * (cols + 1)).bit_length()
    mask = (1 << w) - 1
    shifts = range(w * (cols - 1), -1, -w)
    rows = [x for x in (sum(map(lshift, map(p.__rmod__, row), shifts)) for row in a) if x]
    done = 0
    for shift in shifts:
        if done == len(rows):
            break
        for i in range(done, len(rows)):
            if (rows[i] >> shift & mask) % p:
                break
        else:
            continue
        row = rows[i]
        inv = pow(row >> shift & mask, -1, p)
        pivot = sum(map(lshift, [(row >> s & mask) * inv % p for s in shifts], shifts))
        rows[i] = rows[done]
        rows = [x + (p - r) * pivot - ((e + p - r) << shift) if (r := (e := x >> shift & mask) % p)
                else x for x in rows]
        rows[done] = pivot
        done += 1
    return [[(x >> s & mask) % p for s in shifts] for x in rows[:done]]


def _rref_qq(a: Matrix, cols: int) -> Matrix:
    a = [row for row in a if any(row)]
    norms = sorted([sum(map(mul, row, row)) for row in a], reverse=True)
    w = prod(norms[:cols]).bit_length() // 2 + 2
    top, mask = 1 << (w - 1), (1 << w) - 1
    shifts = range(w * (cols - 1), -1, -w)
    bias = top * ((1 << w * cols) - 1) // mask
    basis, lead, d = [], [], 1
    for row in a:
        x = d * sum(map(lshift, row, shifts)) - sum(map(mul, map(row.__getitem__, lead), basis))
        if not x:
            continue
        # The top nonzero field of x holds its top bit.
        shift = abs(x).bit_length() // w * w
        pv = (x + ((1 << shift) >> 1)) >> shift
        basis = [(pv * y - (((y + bias) >> shift & mask) - top) * x) // d for y in basis]
        basis.append(x)
        lead.append(cols - 1 - shift // w)
        d = pv
        if len(basis) == cols:
            break
    if d < 0:  # every pivot is d
        basis = [-x for x in basis]
    out = [[((x + bias) >> s & mask) - top for s in shifts] for _, x in sorted(zip(lead, basis))]
    return [[f // g for f in row] if (g := gcd(*row)) > 1 else row for row in out]


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
