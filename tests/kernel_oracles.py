"""x-coordinate oracles for the twisted-ring kernel, used by the syzygy tests.

The library builds and checks kernel pairs in y-coordinates, where a run
y_0 ... y_{-n} is one monomial.  Here the same facts are checked the slow
way, in x, where that run expands to 2^(n+1) terms: `y_run` builds the
run, and `bounded_kernel_check` decides kernel membership through the
layer recurrences as well as through the defining map.

`collapse_certificate_oracle` is the collapse certificate that multiplies
and collapses every sample it draws, the way the library did before it
formed each distinct product once per command.  `verify_relations_oracle`
is the relation suite that builds every X(p, q) from fresh objects and
converts and formats each last projection per pair, the way the library
did before its pieces were shared within a command.  `kernel_pair_y_oracle`
builds V_n as one `dot` over its terms rather than from its layers.
`two_sided_relation` multiplies out both sides of sum W_i c_i, where the
library multiplies out the U side and derives the V side from f(W_i) = 0.

The x descent is the complexity descent as the library ran it before it
held states in y: every state's components in x, where X(p, q) has
2^(p+2) terms, each state proved through a clearing unit and a change of
basis, and `ideal_decompose_x` taking divided differences of x-Laurent
polynomials term by term.
"""

import math
from random import Random

from freenil.errors import InvariantError, LimitExceeded
from freenil.laurent import LaurentPoly, one_minus_x, x_diff
from freenil.report import item
from freenil.skewpoly import SkewLaurent, dot, format_skew
from freenil.syzygy import (
    MAX_DESCENT_STEPS,
    RANDOM_SPREAD,
    Complexity,
    RelationVector,
    defining_map,
    kernel_pair_y,
    last_projection_generator,
    pairwise_relation_y,
)


def y_run(top: int, bottom: int) -> LaurentPoly:
    """Product y_top * y_{top-1} * ... * y_bottom in x; one when top < bottom."""
    out = LaurentPoly.one()
    for i in range(top, bottom - 1, -1):
        out = out * one_minus_x(i)
    return out


def bounded_kernel_check(U: SkewLaurent, V: SkewLaurent, n: int) -> bool:
    """Is (U, V) in the kernel with both t-supports inside [0, n]?

    When the support bounds hold, kernel membership is equivalent to the
    triangular layer recurrences

        v_k = u_k + sum_{0<=i<k} z_{1-i} y_{-i} ... y_{2-k} u_i

    together with the closing relation

        0 = sum_{0<=i<=n} z_{1-i} y_{-i} ... y_{1-n} u_i

    and this function verifies the equivalence on every call.
    """
    nu_u, deg_u = U.val_deg()
    nu_v, deg_v = V.val_deg()
    if nu_u < 0 or deg_u > n or nu_v < 0 or deg_v > n:
        return False
    in_kernel = defining_map(U, V).is_zero()

    u = [U.coeff(i) for i in range(n + 1)]
    v = [V.coeff(i) for i in range(n + 1)]
    layered = True
    for k in range(n + 1):
        rhs = u[k]
        for i in range(k):
            rhs = rhs + x_diff(1 - i) * y_run(-i, 2 - k) * u[i]
        if v[k] != rhs:
            layered = False
            break
    if layered:
        closing = LaurentPoly.zero()
        for i in range(n + 1):
            closing = closing + x_diff(1 - i) * y_run(-i, 1 - n) * u[i]
        layered = closing.is_zero()
    if layered != in_kernel:
        raise InvariantError("layer recurrences disagree with kernel membership")
    return in_kernel


def collapse_certificate_oracle(n: int, samples: int = 20, seed: int = 7):
    """`syzygy.collapse_certificate` with every draw multiplied and collapsed."""
    rng = Random(seed)
    items = []
    for j in range(n):
        got = SkewLaurent.from_poly(x_diff(-j)).collapse()
        items.append(item(f"generator z_{-j} collapses to zero", True, got.is_zero()))
    dead = 0
    for _ in range(samples):
        j = rng.randrange(n)
        w = SkewLaurent.t(
            rng.randint(-2, 2),
            LaurentPoly.x(rng.randint(-2, 2), rng.randint(-2, 2))
            + LaurentPoly.const(rng.randint(-2, 2)),
        )
        prod = SkewLaurent.from_poly(x_diff(-j)) * w
        if prod.collapse().is_zero():
            dead += 1
    items.append(item("random right multiples collapse to zero", samples, dead))
    one = SkewLaurent.one().collapse()
    items.append(item("the unit survives the collapse", "1", "1" if one == one * one and not one.is_zero() else "0"))
    witnesses = all(
        not SkewLaurent.from_poly(last_projection_generator(p, n)).is_zero()
        for p in range(n - 1)
    ) if n >= 2 else True
    items.append(item("projection witnesses are nonzero", True, witnesses))
    return items


def fresh_z(i: int) -> LaurentPoly:
    """z_i = y_i - y_{i-1} in y-coordinates, built afresh."""
    return LaurentPoly.x(i) - LaurentPoly.x(i - 1)


def fresh_yrun(top: int, bottom: int) -> LaurentPoly:
    """The monomial y_top ... y_bottom in y-coordinates, built afresh."""
    return LaurentPoly({tuple((i, 1) for i in range(bottom, top + 1)): 1})


def kernel_pair_y_oracle(n: int) -> tuple[SkewLaurent, SkewLaurent]:
    """W_n in y-coordinates, every object built afresh, V_n as one `dot`
    over its terms t^i a * b, the way the library built it before it
    assembled V_n from its layers."""
    z1, zmn = fresh_z(1), fresh_z(-n)
    U = SkewLaurent.from_poly(zmn) - SkewLaurent.t(n + 1, z1 * fresh_yrun(0, -n))
    terms = [(zmn, 0, LaurentPoly.one())]
    terms += [(zmn * z1, i, fresh_yrun(0, 2 - i)) for i in range(1, n + 1)]
    terms.append((-z1, n + 1, fresh_yrun(0, 1 - n) * LaurentPoly.x(-1 - n)))
    V = dot((SkewLaurent.t(i, a), SkewLaurent.from_poly(b)) for a, i, b in terms)
    return U, V


def fresh_relation_y(p: int, q: int) -> dict:
    """The components of X(p, q) in y-coordinates, every object built afresh."""
    c = {p: -SkewLaurent.from_poly(fresh_z(-q)), q: SkewLaurent.from_poly(fresh_z(-p))}
    tail = SkewLaurent.t(p + 1, fresh_z(1) * fresh_yrun(0, -p))
    c[q - p - 1] = c.get(q - p - 1, SkewLaurent.zero()) - tail
    return c


def two_sided_relation(entries, pair=kernel_pair_y) -> bool:
    """Is sum W_i c_i = (0, 0) over the (i, c_i), with W_i = pair(i)?  One `dot`
    per side, both multiplied out; `kernel_pair` checks x components."""
    terms = [(pair(i), ci) for i, ci in entries]
    return all(dot((W[side], ci) for W, ci in terms).is_zero() for side in (0, 1))


def verify_relations_oracle(max_q: int):
    """`syzygy.verify_relations` with every relation built afresh and
    every last projection converted and formatted per pair."""
    items, relations = [], {}
    for q in range(1, max_q + 1):
        for p in range(q):
            c = relations[p, q] = fresh_relation_y(p, q)
            items.append(item(f"relation ({p},{q}) validates", True, two_sided_relation(c.items())))
    for n in range(2, max_q + 2):
        for p in range(n - 1):
            got = relations[p, n - 1][n - 1].change_basis()
            want = SkewLaurent.from_poly(LaurentPoly.x(-p - 1) - LaurentPoly.x(-p))
            items.append(
                item(f"last projection of ({p},{n - 1}) at arity {n}", format_skew(want), format_skew(got))
            )
    return items


def relation_x(p: int, q: int) -> dict:
    """The nonzero components of X(p, q) in x-coordinates."""
    return {i: c.change_basis() for i, c in pairwise_relation_y(p, q).items()}


def power_diff_quotient(e: int, u_index: int, v_index: int) -> LaurentPoly:
    """g with x_u^e - x_v^e = (x_u - x_v) * g, for any integer e."""
    if e >= 0:
        return sum((LaurentPoly.x(u_index, m) * LaurentPoly.x(v_index, e - 1 - m) for m in range(e)),
                   LaurentPoly.zero())
    pos = power_diff_quotient(-e, u_index, v_index)
    return -(LaurentPoly.x(u_index, e) * LaurentPoly.x(v_index, e) * pos)


def ideal_decompose_x(a: LaurentPoly, n: int):
    """Write a = sum_{0<=j<n} z_{-j} a_j if a lies in (z_0, ..., z_{1-n}), all in x.

    Substitute x_{-j} = x_{1-j} + z_{1-j} for j = n down to 1, harvesting the
    z-coefficient at each stage.  Membership holds exactly when the fully
    substituted residue (every x_{-j} pushed to x_0) is zero.
    """
    if n < 1:
        raise ValueError(f"the ideal needs at least one generator, got n={n}")
    coeffs = [LaurentPoly.zero() for _ in range(n)]
    b = a
    for j in range(n, 0, -1):
        harvested = LaurentPoly.zero()
        substituted = LaurentPoly.zero()
        for e, be in b.by_power(-j).items():
            harvested = harvested + be * power_diff_quotient(e, -j, 1 - j)
            substituted = substituted + be * LaurentPoly.x(1 - j, e)
        coeffs[j - 1] = coeffs[j - 1] + harvested
        b = substituted
    if not b.is_zero():
        return None
    if sum((x_diff(-j) * c for j, c in enumerate(coeffs)), LaurentPoly.zero()) != a:
        raise InvariantError("ideal decomposition fails to recombine")
    return coeffs


def descent_state_x(n: int, terms, base=None) -> RelationVector:
    """base + sum X(p, q) w over the terms (p, q, w), all in x, one `dot` per
    touched index; proved by `RelationVector(n, c)` through its clearing unit."""
    touched = {}
    for p, q, w in terms:
        for i, ci in relation_x(p, q).items():
            touched.setdefault(i, []).append((ci, w))
    comps = dict(base or {})
    for i, products in touched.items():
        ci = comps.pop(i, SkewLaurent.zero()) + dot(products)
        if not ci.is_zero():
            comps[i] = ci
    try:
        return RelationVector(n, comps)
    except ValueError as exc:
        raise InvariantError(f"descent state: {exc}") from None


def complexity_x(X: RelationVector) -> Complexity:
    """The complexity read from the x components."""
    if not X.c:
        raise ValueError("the zero vector has no complexity")
    nus = {k: ci.valuation() for k, ci in X.c.items()}
    beta = min(nus.values())
    gamma = max(k for k, nu in nus.items() if nu == beta)
    return Complexity(alpha=nus.get(X.n - 1, math.inf), beta=beta, gamma=gamma)


def reduce_step_x(X: RelationVector) -> RelationVector:
    """One descent step in x: subtract sum_j X(j, gamma) a_j t^beta, where the a_j
    decompose the left layer coefficient of c_gamma at t-degree beta."""
    chi = complexity_x(X)
    beta, gamma = chi.beta, chi.gamma
    layer = {k: ck.coeff(beta).shift(beta) for k, ck in X.c.items() if k <= gamma}
    if not sum((x_diff(-k) * c for k, c in layer.items()), LaurentPoly.zero()).is_zero():
        raise InvariantError("lowest-layer identity violated")
    parts = ideal_decompose_x(layer[gamma], gamma)
    if parts is None:
        raise InvariantError("layer coefficient escapes the expected ideal")
    terms = [(j, gamma, -SkewLaurent.from_poly(aj) * SkewLaurent.t(beta))
             for j, aj in enumerate(parts) if not aj.is_zero()]
    out = descent_state_x(X.n, terms, X.c)
    if out.c and not complexity_x(out) < chi:
        raise InvariantError("descent step failed to lower the complexity")
    return out


def reduce_chain_x(X: RelationVector) -> list:
    """Iterate `reduce_step_x` to zero; returns the full trace."""
    trace = [X]
    for _ in range(MAX_DESCENT_STEPS):
        if not trace[-1].c:
            return trace
        trace.append(reduce_step_x(trace[-1]))
    raise LimitExceeded(f"reduction did not terminate within {MAX_DESCENT_STEPS} steps")


def random_relation_x(n: int, rng: Random) -> RelationVector:
    """`syzygy.random_relation` with every right factor built in x."""
    terms = []
    pairs = [(p, q) for q in range(1, n) for p in range(q)]
    rng.shuffle(pairs)
    for p, q in pairs:
        if len(terms) >= 2 and rng.random() < 0.5:
            break
        mono = LaurentPoly.x(rng.randint(-RANDOM_SPREAD, RANDOM_SPREAD), rng.randint(-1, 1))
        coef = rng.choice([-2, -1, 1, 2]) * mono
        terms.append((p, q, SkewLaurent.t(rng.randint(0, RANDOM_SPREAD), coef)))
    return descent_state_x(n, terms)


def chi_trace_x(X: RelationVector) -> list:
    """The complexities along the x descent from X, then "zero"."""
    return [complexity_x(v) for v in reduce_chain_x(X)[:-1]] + ["zero"]
