"""Faithful concrete models used as independent oracles by the group tests.

Every model multiplies left factor first (matching the permutation-table
convention), so a token word evaluates by a plain left fold.  The infinite
dihedral group and the (1,2) Baumslag-Solitar group are realized as affine
maps of the line; the symmetric group is realized by one-line permutations
composed by hand.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from freenil.groups import FiniteGroup


def fold(mul, identity, elems):
    out = identity
    for g in elems:
        out = mul(out, g)
    return out


# Infinite dihedral: pairs (sign, shift) acting as x -> sign*x + shift,
# multiplied left-to-right: (g*h)(x) = h(g(x)).
DIH_ID = (1, 0)


def dih_mul(g, h):
    return (g[0] * h[0], h[0] * g[1] + h[1])


def dih_inv(g):
    return (g[0], -g[0] * g[1])


# Reflections generating the infinite dihedral group.
DIH_S = (-1, 0)
DIH_R = (-1, 1)


def eval_dihedral(tokens):
    """Evaluate amalgam tokens over {1,s} * {1,r} in the affine model."""
    table = {(1, "1"): DIH_ID, (1, "s"): DIH_S, (2, "1"): DIH_ID, (2, "r"): DIH_R}
    return fold(dih_mul, DIH_ID, [table[t] for t in tokens])


# One-line permutations, left factor applied first.
def perm_mul(g, h):
    return tuple(h[i] for i in g)


def perm_inv(g):
    out = [0] * len(g)
    for i, j in enumerate(g):
        out[j] = i
    return tuple(out)


S3_PERMS = {
    "1": (0, 1, 2),
    "(12)": (1, 0, 2),
    "(13)": (2, 1, 0),
    "(23)": (0, 2, 1),
    "(123)": (1, 2, 0),
    "(132)": (2, 0, 1),
}

S3_NAMES = {perm: name for name, perm in S3_PERMS.items()}


def eval_s3_pushout(tokens):
    """Evaluate s3z2 amalgam tokens in S_3.

    The second factor's generator is glued to (12) through the shared
    subgroup, so the pushout collapses onto the first factor.
    """
    out = S3_PERMS["1"]
    for k, name in tokens:
        image = S3_PERMS["(12)" if (k, name) == (2, "r") else name]
        out = perm_mul(out, image)
    return out


# BS(1,2): pairs (k, m) acting as x -> 2^k * x + m with m rational,
# multiplied left-to-right.  a = x+1, t = 2x, and a*t = t*a*a holds.
BS_ID = (0, Fraction(0))
BS_A = (0, Fraction(1))
BS_T = (1, Fraction(0))


def bs_mul(g, h):
    return (g[0] + h[0], Fraction(2) ** h[0] * g[1] + h[1])


def bs_inv(g):
    return (-g[0], -Fraction(2) ** -g[0] * g[1])


def eval_bs12(tokens):
    """Evaluate HNN tokens over the rank-1 free abelian base."""
    out = BS_ID
    for kind, value in tokens:
        if kind == "t":
            step = BS_T if value == 1 else bs_inv(BS_T)
        else:
            step = (0, Fraction(value[0]))
        out = bs_mul(out, step)
    return out


# Cubic reference checks for the group layer, the slow originals of what
# FiniteGroup and FiniteSubgroup.generated now do by generators.

def is_associative(table):
    """Check (i*j)*k == i*(j*k) for every triple of indices."""
    n = len(table)
    return all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(n) for j in range(n) for k in range(n)
    )


def closure_by_pairs(group, generators):
    """Identity, generators and their inverses, closed by all-pairs products."""
    closure = {group.identity}
    closure.update(generators)
    closure.update(group.invert(g) for g in generators)
    grew = True
    while grew:
        grew = False
        for g in tuple(closure):
            for h in tuple(closure):
                p = group.multiply(g, h)
                if p not in closure:
                    closure.add(p)
                    grew = True
    return closure


def random_loop(rng, n):
    """A random normalized Latin square of order n: a loop with identity 0.

    Cells are filled row by row with values in random order, backtracking
    on a dead end.
    """
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    fill(0)
    return table


def symmetric_perms(degree):
    """Every permutation of range(degree), named by its one-line form."""
    return {"p" + "".join(map(str, p)): p for p in itertools.permutations(range(degree))}


def from_permutations(perms):
    """The table group of a closed set of permutations.

    ``perms`` maps element names to permutations of ``range(d)`` in
    one-line notation; the product g*h applies g first, then h.
    """
    items = [(name, tuple(perm)) for name, perm in perms.items()]
    if not items:
        raise ValueError("a group needs at least an identity element")
    degree = len(items[0][1])
    by_perm = {}
    for name, perm in items:
        if sorted(perm) != list(range(degree)):
            raise ValueError(f"{name!r} is not a permutation of range({degree})")
        by_perm[perm] = name
    if len(by_perm) != len(items):
        raise ValueError("permutations must be distinct")
    index = {name: i for i, (name, _) in enumerate(items)}
    table = []
    for _, pg in items:
        row = []
        for _, ph in items:
            composite = tuple(ph[pg[i]] for i in range(degree))
            if composite not in by_perm:
                raise ValueError("permutation set is not closed under composition")
            row.append(index[by_perm[composite]])
        table.append(row)
    return FiniteGroup([name for name, _ in items], table)


def perm_table(perms):
    """Multiplication table of a closed list of permutations, in list order."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[perm_mul(g, h)] for h in perms] for g in perms]


def relabel(table, order):
    """The same operation with element order[k] listed k-th."""
    pos = {old: new for new, old in enumerate(order)}
    return [[pos[table[i][j]] for j in order] for i in order]
