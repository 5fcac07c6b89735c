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
Over GF(p) the rows are `PackedRows`, on which `rref`, `rowspan_contains`
and the image chain of `freenil.nilobj` run.  Fields stay non-negative:
with e a row's field in the pivot column and r = e mod p,
`x += (p - r) * pivot - ((e + p - r) << shift)` by the monic pivot row
zeroes that field and adds less than p^2 to the others; a span test
reduces a row so by each row of a monic basis, then tests each field
mod p.  Only a new pivot row and the output are reduced.  An image row
F a of a reduced row a, from F's packed columns, has fields below D p^2
for units at most D wide and takes at most D such steps, so no field
reaches p^2 (2D + 2), which sets W.  Over `QQ` fields are signed.
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
    if field is QQ:
        return _rref_qq(a, len(a[0]))
    rows = PackedRows(field.p, len(a[0]))
    return rows.rref(rows.pack([[x % field.p for x in row] for row in a]), len(a[0]))[1]


class PackedRows:
    """GF(p) rows of at most `dim` entries in [0, p), packed one int per row (see the module doc)."""

    def __init__(self, p: int, dim: int):
        self.p, self.w, self.mask = p, (w := (p * p * (2 * dim + 2)).bit_length()), (1 << w) - 1

    def pack(self, rows: Matrix) -> list[int]:
        shifts = range(self.w * (len(rows[0]) - 1), -1, -self.w) if rows else ()
        return [sum(map(lshift, row, shifts)) for row in rows]

    images = staticmethod(lambda rows, columns: [sum(map(mul, a, columns)) for a in rows])

    def rref(self, rows: list[int], cols: int) -> tuple[list[int], Matrix]:
        """The monic rref basis of packed rows, packed and as lists."""
        if not (rows := [x for x in rows if x]):
            return [], []
        p, mask, shifts, done = self.p, self.mask, range(self.w * (cols - 1), -1, -self.w), 0
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
        out = [[(x >> s & mask) % p for s in shifts] for x in rows[:done]]
        return [sum(map(lshift, row, shifts)) for row in out], out

    def contains(self, inner: list[int], outer: list[int], cols: int) -> bool:
        """Is each packed row of `inner` in the span of the packed monic rref basis `outer`?"""
        p, mask, shifts = self.p, self.mask, range(self.w * (cols - 1), -1, -self.w)
        if not inner:
            return True
        lead = [x.bit_length() - 1 for x in outer]
        for v in inner:
            v += sum(map(mul, [-(v >> s & mask) % p for s in lead], outer))
            if any((v >> s & mask) % p for s in shifts):
                return False
        return True


class ListRows:
    """The same kernels over `QQ` on lists of ints, by `rref` and `rowspan_contains`."""

    pack = staticmethod(lambda rows: rows)
    images = staticmethod(lambda rows, columns: [_image(columns, a) for a in rows])
    rref = staticmethod(lambda rows, cols: (rref(rows),) * 2)
    contains = staticmethod(lambda inner, outer, cols: rowspan_contains(inner, outer))


def _image(columns, a):
    """F a from the columns of F, summed over the nonzero entries of a only."""
    (x, col), *rest = [(x, col) for x, col in zip(a, columns) if x]
    out = [x * y for y in col]
    for x, col in rest:
        out = [o + x * y for o, y in zip(out, col)]
    return out


def row_kernels(field, dim: int):
    """The image chain's kernels, picked by field, for units at most `dim` wide."""
    return ListRows if field is QQ else PackedRows(field.p, dim)


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

    Over GF(p) this is `PackedRows.contains`.  Over `QQ` the only candidate
    for a row v is the sum of v[p] / b[p] * b over the rows b with pivot p,
    compared scaled by the lcm of the pivots on the free columns only.
    """
    if field is not QQ:
        rows = PackedRows(field.p, cols := len((inner or outer or [[]])[0]))
        return rows.contains(rows.pack([[x % field.p for x in v] for v in inner]), rows.pack(outer), cols)
    if not outer:
        return not any(map(any, inner))
    pivots = [_lead(row) for row in outer]
    scale = lcm(*(row[p] for row, p in zip(outer, pivots)))
    factors = [(p, scale // row[p]) for row, p in zip(outer, pivots)]
    free = [(j, col) for j, col in enumerate(zip(*outer)) if j not in pivots]
    for v in inner:
        coef = [v[p] * f for p, f in factors]
        if any(sum(map(mul, coef, col)) != scale * v[j] for j, col in free):
            return False
    return True
