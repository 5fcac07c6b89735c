"""Independent oracles for the benchmark's correctness checks.

Nothing here imports freenil: every expected value is computed from first
principles so that a wrong answer from the program cannot also be the
expected one.

- ``necklace_census``: the aperiodic necklace (Moebius) formula, which
  counts the primitive rotation classes the sieve must emit.
- ``nil_index``: brute-force typed word products over Z or GF(p), giving
  the least nilpotency index (or None when some word of length
  total-dimension survives).
- permutation and affine models of the shipped constructions, used to
  check that a normal form names the same element as its input.
- ``double_coset_count``: double cosets by direct orbit enumeration.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# Word census -----------------------------------------------------------------

def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def necklace_census(k: int, bound: int) -> int:
    """Primitive rotation classes of length 1..bound over k letters."""
    total = 0
    for n in range(1, bound + 1):
        s = sum(_mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
        total += s // n
    return total


# Block modules ---------------------------------------------------------------

def _mat_mul(a, b, p):
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    acc[j] += x * y
        out.append([v % p for v in acc] if p else acc)
    return out


def _is_zero(m, p):
    return all((v % p if p else v) == 0 for row in m for v in row)


def nil_index(module: dict):
    """Least d with every typed word of length d zero, or None if none <= dim.

    ``module`` is the JSON dict of a block module.  Words whose letters do
    not chain dst -> src act as zero and are skipped; a word through a
    zero-dimensional unit is zero as well.
    """
    base = module.get("base", "int")
    p = 0 if base == "int" else int(base[3:-1])
    dims = module["dims"]
    total = sum(dims.values())
    letters = [
        (l["src"], l["dst"], [[v % p if p else v for v in row] for row in l["matrix"]])
        for l in module["letters"]
        if dims[l["src"]] and dims[l["dst"]]
    ]
    if total == 0:
        return 0
    # products[i] holds the nonzero products of typed words of the current length
    products = [(src, dst, m) for src, dst, m in letters if not _is_zero(m, p)]
    for d in range(1, total + 1):
        if not products:
            return d
        if d == total:
            return None
        nxt = []
        for src, mid, m in products:
            for s2, dst, m2 in letters:
                if s2 == mid:
                    prod = _mat_mul(m, m2, p)
                    if not _is_zero(prod, p):
                        nxt.append((src, dst, prod))
        products = nxt
    return None


# Group models ----------------------------------------------------------------

def perm_mul(g, h):
    """Apply g first, then h (the convention of the permutation tables)."""
    return tuple(h[i] for i in g)


def perm_inv(g):
    out = [0] * len(g)
    for i, j in enumerate(g):
        out[j] = i
    return tuple(out)


def perm_name(g) -> str:
    return "".join(str(i) for i in g)


def perm_from_name(name: str):
    return tuple(int(ch) for ch in name)


def symmetric_group(n: int):
    return list(itertools.permutations(range(n)))


def cycle_perm(n: int, cycle):
    """One-line permutation of range(n) sending cycle[i] to cycle[i+1]."""
    out = list(range(n))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        out[a] = b
    return tuple(out)


def generated(gens, n):
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = perm_mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def double_coset_count(n: int, left, right) -> int:
    """Number of H_l x H_r orbits on S_n, by enumeration."""
    hl, hr = generated(left, n), generated(right, n)
    seen, count = set(), 0
    for x in symmetric_group(n):
        if x in seen:
            continue
        count += 1
        seen |= {perm_mul(perm_mul(l, x), r) for l in hl for r in hr}
    return count


# Infinite dihedral group as affine maps x -> sign*x + shift, left factor first.
def _aff_mul(g, h):
    return (g[0] * h[0], h[0] * g[1] + h[1])


_DINF = {(1, "1"): (1, 0), (1, "s"): (-1, 0), (2, "1"): (1, 0), (2, "r"): (-1, 1)}


def eval_dinf(tokens):
    out = (1, 0)
    for t in tokens:
        out = _aff_mul(out, _DINF[t])
    return out


# s3z2 is S3 *_{Z2} Z2 with r glued to (12): the pushout is S3 itself.
S3_PERMS = {
    "1": (0, 1, 2),
    "(12)": (1, 0, 2),
    "(13)": (2, 1, 0),
    "(23)": (0, 2, 1),
    "(123)": (1, 2, 0),
    "(132)": (2, 0, 1),
}


def eval_s3z2(tokens):
    out = S3_PERMS["1"]
    for k, name in tokens:
        out = perm_mul(out, S3_PERMS["(12)" if (k, name) == (2, "r") else name])
    return out


# BS(1,2) as affine maps x -> 2^k x + m, left factor first; a = x+1, t = 2x.
def _bs_mul(g, h):
    return (g[0] + h[0], Fraction(2) ** h[0] * g[1] + h[1])


def eval_bs12(tokens):
    """Tokens are ("t", +-1) or ("a", exponent)."""
    out = (0, Fraction(0))
    for kind, value in tokens:
        if kind == "t":
            step = (1, Fraction(0)) if value == 1 else (-1, Fraction(0))
        else:
            step = (0, Fraction(value))
        out = _bs_mul(out, step)
    return out


def amalgam_s4_models(c1, c2):
    """Homomorphisms S4 *_{Z4} S4 -> S4, as lookup tables over element names.

    Factor 1 maps identically.  Factor 2 maps by conjugation with a sigma
    taking the second embedded 4-cycle c2 to the first, c1, optionally
    followed by conjugation with a power of c1; all of them agree on the
    shared Z4, so each defines a homomorphism of the amalgam.  Each model
    sends a token (factor, name) to the index of its image in S4.
    """
    s4 = symmetric_group(4)
    index = {p: i for i, p in enumerate(s4)}
    sigma = next(s for s in s4 if perm_mul(perm_mul(perm_inv(s), c2), s) == c1)
    models = []
    for tau in sorted(generated([c1], 4)):
        conj = perm_mul(sigma, tau)
        inv = perm_inv(conj)
        image = {}
        for g in s4:
            image[(1, perm_name(g))] = index[g]
            image[(2, perm_name(g))] = index[perm_mul(perm_mul(inv, g), conj)]
        models.append(image)
    return models


_S4 = symmetric_group(4)
S4_TABLE = [[_S4.index(perm_mul(g, h)) for h in _S4] for g in _S4]


def eval_s4_amalgam(tokens, model):
    """Index in S4 of the word's image under one model."""
    out = 0  # the identity comes first in symmetric_group order
    for token in tokens:
        out = S4_TABLE[out][model[token]]
    return out
