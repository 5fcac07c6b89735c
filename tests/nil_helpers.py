"""Shared generators and the oracles for nil tests.

The brute-force oracle multiplies letter matrices directly (its own
product loop, its own word enumeration) so it shares no code with the
implementation under test beyond raw Python ints.  The reference
elimination is the Fraction one `freenil.linalg` used before it went
fraction-free: monic rref rows over Q, or over GF(p) when a modulus is
given.  The list elimination is the fraction-free Gauss-Jordan on lists
of ints that `linalg.rref` ran before it packed each row into one int.
The row-by-row span test is the one `linalg.in_rowspan` ran before it
became `rowspan_contains` on one row.  The eager image chain is
the one `nilobj.is_nilpotent` ran before it built its kernel layers only
when they are read.  The list image, the list span test and the list
chain are what `is_nilpotent` and `filtration_items` ran over GF(p)
before their rows were packed one int per row.
"""

from fractions import Fraction
from math import gcd, lcm
from random import Random

from freenil.linalg import QQ, identity, mat_mul, reduced_nullspace, rref
from freenil.nilobj import BlockRing, Letter, NilObject


def mat_vec(a, v, field=QQ):
    if a and len(a[0]) != len(v):
        raise ValueError("shape mismatch in matrix-vector product")
    return [field.dot(row, v) for row in a]


def _raw_mul(a, b, cols, mod=None):
    # cols is passed explicitly: a list-of-rows matrix with zero rows
    # cannot tell us its own width.
    rows, inner = len(a), len(b)
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        row = a[i]
        for k in range(inner):
            if row[k] == 0:
                continue
            for j in range(cols):
                out[i][j] += row[k] * b[k][j]
    if mod is not None:
        out = [[e % mod for e in row] for row in out]
    return out


def brute_nilpotent(X: NilObject, length: int | None = None) -> bool:
    """True iff every chained letter word of `length` (default total_dim) letters vanishes."""
    d = sum(X.dims.values()) if length is None else length
    mod = None
    if X.ring.base.startswith("gf("):
        mod = int(X.ring.base[3:-1])
    if d == 0:
        return True
    partial = [
        ([l], [list(r) for r in X.mats[l.name]]) for l in X.letters
    ]
    for _ in range(d - 1):
        nxt = []
        for chain, mat in partial:
            for l in X.letters:
                if chain[-1].dst == l.src:
                    prod = _raw_mul(mat, X.mats[l.name], X.dims[l.dst], mod)
                    nxt.append((chain + [l], prod))
        partial = nxt
    dead = all(all(e == 0 for row in mat for e in row) for _, mat in partial)
    if not X.letters:
        return True
    return dead


def random_object(rng: Random, base: str = "int", max_units: int = 2,
                  max_total_dim: int = 5, max_letters: int = 3,
                  triangular: bool = False, prefix: str = "l") -> NilObject:
    """Random NilObject; triangular=True forces nilpotency by construction.

    Triangular instances zero every entry (r, c) unless the global index of
    the target basis vector strictly exceeds that of the source, so every
    long enough composite vanishes.
    """
    n_units = rng.randint(1, max_units)
    units = tuple("ab"[:n_units]) if n_units <= 2 else tuple(
        chr(ord("a") + i) for i in range(n_units)
    )
    dims = {}
    remaining = max_total_dim
    for u in units:
        d = rng.randint(0, min(3, remaining))
        dims[u] = d
        remaining -= d
    offsets = {}
    acc = 0
    for u in units:
        offsets[u] = acc
        acc += dims[u]
    ring = BlockRing(units, base)
    letters = []
    mats = {}
    for idx in range(rng.randint(0, max_letters)):
        src = rng.choice(units)
        dst = rng.choice(units)
        name = f"{prefix}{idx}"
        mat = []
        for r in range(dims[src]):
            row = []
            for c in range(dims[dst]):
                if triangular and offsets[dst] + c <= offsets[src] + r:
                    row.append(0)
                else:
                    row.append(rng.randint(-2, 2))
            mat.append(row)
        letters.append(Letter(name, src, dst))
        mats[name] = mat
    return NilObject(ring, dims, letters, mats)


def brute_index(X: NilObject) -> int:
    """The least word length at which every word vanishes, for a nilpotent X."""
    if X.total_dim() == 0:
        return 0
    return next(d for d in range(1, X.total_dim() + 1) if brute_nilpotent(X, d))


def modulus(base: str):
    """None for the "int" base, p for "gf(p)"."""
    return None if base == "int" else int(base[3:-1])


def _norm(x, p):
    return Fraction(x) if p is None else x % p


def reference_rref(a, p=None):
    """Monic reduced row echelon form with zero rows dropped."""
    m = [[_norm(x, p) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col] if p is None else pow(m[r][col], -1, p)
        m[r] = [_norm(x * inv, p) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [_norm(x - f * y, p) for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return m[:r]


def primitive(row, p=None):
    """The canonical multiple of a nonzero row: coprime ints with a positive
    first entry over Q, monic over GF(p)."""
    lead = next(filter(None, row))
    if p is not None:
        inv = pow(lead, -1, p)
        return row if inv == 1 else [x * inv % p for x in row]
    g = gcd(*row)
    if lead < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def cancel(row, pivot_row, col, p=None):
    """Clear row[col] by the pivot row, which must be zero before `col`.

    Over Q a nonzero multiple of row - (row[col] / pivot_row[col]) pivot_row,
    divided by the gcd of its entries; over GF(p) the pivot row is monic and
    the result is row - row[col] pivot_row.
    """
    e = row[col]
    if p is not None:
        return row[:col] + [(x - e * y) % p for x, y in zip(row[col:], pivot_row[col:])]
    pv = pivot_row[col]
    head = row[:col] if pv == 1 else [pv * x for x in row[:col]]
    out = head + [pv * x - e * y for x, y in zip(row[col:], pivot_row[col:])]
    g = gcd(*out)
    return out if g <= 1 else [x // g for x in out]


def list_rref(a, p=None):
    """Fraction-free Gauss-Jordan on lists: `linalg.rref` with rows unpacked."""
    m = [list(row) if p is None else [x % p for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        prow = m[pivot_row] = primitive(m[pivot_row], p)
        for r in range(rows):
            if r != pivot_row and m[r][col]:
                m[r] = cancel(m[r], prow, col, p)
        pivot_row += 1
        if pivot_row == rows:
            break
    return m[:pivot_row]


def reference_nullspace(a, cols, p=None):
    """Basis of {y : a @ y = 0}, one vector per free column, 1 there."""
    red = reference_rref(a, p)
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in red]
    basis = []
    for free in (j for j in range(cols) if j not in pivots):
        y = [_norm(0, p)] * cols
        y[free] = _norm(1, p)
        for row, pc in zip(red, pivots):
            y[pc] = _norm(-row[free], p)
        basis.append(y)
    return basis


def monic(row, p=None):
    """A nonzero row divided by its leading entry, as the reference writes it."""
    lead = next(x for x in row if x != 0)
    if p is None:
        return [Fraction(x, lead) for x in row]
    inv = pow(lead, -1, p)
    return [x * inv % p for x in row]


def reference_in_rowspan(v, basis, field=QQ):
    """Is v a combination of the rows of a reduced (rref) basis?

    Each reduced row is zero on the other rows' pivots, so the only
    candidate is the sum of v[p] / b[p] * b over the rows b with pivot p.
    Both sides are compared scaled by the lcm of the pivots (1 over GF(p)),
    in every column.
    """
    v = list(map(field.from_int, v))
    if not basis:
        return not any(v)
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    scale = lcm(*(row[p] for row, p in zip(basis, pivots)))
    coef = [v[p] * (scale // row[p]) for row, p in zip(basis, pivots)]
    return all(
        field.dot(coef, col) == field.from_int(scale * x) for col, x in zip(zip(*basis), v)
    )


def eager_is_nilpotent(X: NilObject):
    """(verdict, index, layers) from the image chain, every layer built as it goes.

    One `mat_vec` per basis row and letter, one nullspace per layer, and
    the shrink recheck through `reference_in_rowspan` row by row.
    """
    field = X.field
    units = X.ring.units
    images = {u: identity(X.dims[u], field) for u in units}
    chain = []
    while True:
        chain.append(
            {u: tuple(map(tuple, reduced_nullspace(images[u], X.dims[u], field))) for u in units}
        )
        nxt = {
            u: rref(
                [mat_vec(X.mats[l.name], a, field)
                 for l in X.letters if l.src == u for a in images[l.dst]],
                field,
            )
            for u in units
        }
        assert all(reference_in_rowspan(row, images[u], field) for u in units for row in nxt[u])
        if all(len(nxt[u]) == len(images[u]) for u in units):
            break
        images = nxt
        assert len(chain) <= X.total_dim()
    nilpotent = not any(images.values())
    return nilpotent, len(chain) - 1 if nilpotent else None, tuple(chain)


def list_image(columns, a, p=None):
    """F @ a from the columns of F, summed over the nonzero entries of a only; mod p if given."""
    (x, col), *rest = [(x, col) for x, col in zip(a, columns) if x]
    out = [x * y for y in col]
    for x, col in rest:
        out = [o + x * y for o, y in zip(out, col)]
    return out if p is None else [o % p for o in out]


def list_rowspan_contains(inner, outer, field=QQ):
    """Is every row of `inner` a combination of the rows of the reduced basis `outer`?

    Each reduced row is zero on the other rows' pivots, so the only
    candidate for a row v is the sum of v[p] / b[p] * b over the rows b
    with pivot p.  Both sides are compared scaled by the lcm of the pivots
    (1 over GF(p)) in the free columns.
    """
    if not outer:
        return not any(field.from_int(x) for row in inner for x in row)
    pivots = [next(j for j, x in enumerate(row) if x) for row in outer]
    scale = lcm(*(row[p] for row, p in zip(outer, pivots)))
    factors = [(p, scale // row[p]) for row, p in zip(outer, pivots)]
    free = [(j, col) for j, col in enumerate(zip(*outer)) if j not in pivots]
    for v in inner:
        v = list(map(field.from_int, v))
        coef = [v[p] * f for p, f in factors]
        if any(field.dot(coef, col) != field.from_int(scale * v[j]) for j, col in free):
            return False
    return True


def list_is_nilpotent(X: NilObject):
    """(verdict, index, image chain) by the list chain: list images, `list_rref`, list shrink test."""
    p, field, dims = modulus(X.ring.base), X.field, X.dims
    units = X.ring.units
    columns = [(l.src, l.dst, list(zip(*X.mats[l.name]))) for l in X.letters if dims[l.src]]
    images = {u: identity(dims[u], field) for u in units}
    chain = [images]
    while True:
        rows = {u: [] for u in units}
        for src, dst, cols in columns:
            rows[src] += [list_image(cols, a, p) for a in images[dst]]
        nxt = {u: list_rref(rows[u], p) for u in units}
        assert all(list_rowspan_contains(nxt[u], images[u], field) for u in units)
        if all(len(nxt[u]) == len(images[u]) for u in units):
            break
        images = nxt
        assert len(chain) <= X.total_dim()
        chain.append(images)
    nilpotent = not any(images.values())
    return nilpotent, len(chain) - 1 if nilpotent else None, chain


def list_chain_items(X: NilObject, chain):
    """The chain items of the certificate on list rows: starts at zero, increasing, mapped down."""
    field, units, dims = X.field, X.ring.units, X.dims
    letters = [(l.src, l.dst, list(zip(*X.mats[l.name]))) for l in X.letters if dims[l.src]]
    steps = list(zip(chain, chain[1:]))
    return (all(len(chain[0][u]) == dims[u] for u in units),
            all(list_rowspan_contains(a[u], b[u], field) for b, a in steps for u in units),
            all(list_rowspan_contains(mat_mul(b[dst], cols, field), a[src], field)
                for b, a in steps for src, dst, cols in letters))
