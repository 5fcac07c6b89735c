"""Shared generators and the oracles for nil tests.

The brute-force oracle multiplies letter matrices directly (its own
product loop, its own word enumeration) so it shares no code with the
implementation under test beyond raw Python ints.  The reference
elimination is the Fraction one `freenil.linalg` used before it went
fraction-free: monic rref rows over Q, or over GF(p) when a modulus is
given.
"""

from fractions import Fraction
from random import Random

from freenil.nilobj import BlockRing, Letter, NilObject


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


def brute_nilpotent(X: NilObject) -> bool:
    """True iff every chained letter word of length total_dim vanishes."""
    d = sum(X.dims.values())
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
