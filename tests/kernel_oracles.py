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
"""

from random import Random

from freenil.errors import InvariantError
from freenil.laurent import LaurentPoly, one_minus_x, x_diff
from freenil.report import item
from freenil.skewpoly import SkewLaurent, dot, format_skew
from freenil.syzygy import defining_map, kernel_pair_y, last_projection_generator


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


def verify_relations_oracle(max_q: int):
    """`syzygy.verify_relations` with every relation built afresh and
    every last projection converted and formatted per pair."""
    items, relations = [], {}
    for q in range(1, max_q + 1):
        for p in range(q):
            c = relations[p, q] = fresh_relation_y(p, q)
            terms = [(kernel_pair_y(i), ci) for i, ci in c.items()]
            proved = all(dot((W[side], ci) for W, ci in terms).is_zero() for side in (0, 1))
            items.append(item(f"relation ({p},{q}) validates", True, proved))
    for n in range(2, max_q + 2):
        for p in range(n - 1):
            got = relations[p, n - 1][n - 1].change_basis()
            want = SkewLaurent.from_poly(LaurentPoly.x(-p - 1) - LaurentPoly.x(-p))
            items.append(
                item(f"last projection of ({p},{n - 1}) at arity {n}", format_skew(want), format_skew(got))
            )
    return items
