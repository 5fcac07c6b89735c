"""Kernel pairs, relation vectors, and the complexity-descent step.

The twisted ring acts on pairs (U, V) through the map

    f(U, V) = (1 - t*y_0) U - (1 - t*y_1) V,      y_i = 1 - x_i,

whose kernel is spanned by an explicit family of pairs W_n = (U_n, V_n),
one per n >= 0.  Relation vectors record right-module relations among the
W_i; the pairwise relations X(p, q) are the universal examples.  A single
descent step rewrites a relation vector against the X(j, gamma) family so
that its complexity (a triple built from t-valuations) strictly drops in
a well-order, which is the engine behind the non-finite-generation
certificates exposed by collapse_certificate.

Two coordinate systems share the LaurentPoly and SkewLaurent types, and
`change_basis` maps between them exactly:

* y-coordinates (index i read as y_i) are where the kernel pairs, the
  pairwise relations, the collapse witnesses and every evaluation of f or
  of sum W_i c_i are built and checked: `kernel_pair_y`,
  `pairwise_relation_y`, `defining_map_y`.  There a run y_0 ... y_{-n} is
  one monomial, so U_n has 4 terms and V_n has O(n).  Each of these sums
  is one `skewpoly.dot` per side, and X(p, q) is proved once per (p, q).
  Their pieces (z_i, the runs, the tails t^{p+1} z_1 y_0 ... y_{-p}) are
  built once per command and shared read-only; every X(p, q) ends in the
  one object z_{-p}, so its last projection is converted once per p.
* x-coordinates are the public basis: `kernel_pair`, `pairwise_relation`
  and `defining_map` are in x, as the exact images of the y objects.
  Descent (`reduce_step`, `ideal_decompose`, `complexity`) stays in x,
  because its inputs carry negative exponents, which have no y image
  until a monomial unit clears them.

A relation is a map from index to nonzero component; X(p, q) has at most
three in any arity (`pairwise_relation` is its dense view).  Every descent
state (a random combination, a pair sum, a step's result) is built by
`_descent_state`, one `dot` per touched index, and proved once.

Everything is exact; any failed internal assertion raises InvariantError
because the identities involved are theorems, not runtime conditions.
Only a RelationVector built from caller-supplied components raises
ValueError when it is not a relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvariantError, LimitExceeded
from .laurent import LaurentPoly, clearing_unit, one_minus_x, x_diff
from .report import CheckItem, item
from .skewpoly import SkewLaurent, dot, format_skew

Pair = tuple[SkewLaurent, SkewLaurent]

MAX_DESCENT_STEPS = 10_000  # reduce_chain raises LimitExceeded past this
RANDOM_SPREAD = 2  # random_relation's bound on x-indices and t-shifts


# y-coordinates: the same polynomial types, with index i read as y_i.

@lru_cache(maxsize=None)
def _yrun(top: int, bottom: int) -> LaurentPoly:
    """y_top * ... * y_bottom, a single monomial; one when top < bottom."""
    return LaurentPoly({tuple((i, 1) for i in range(bottom, top + 1)): 1})


@lru_cache(maxsize=None)
def _z(i: int) -> LaurentPoly:
    """z_i = x_{i-1} - x_i, which is y_i - y_{i-1}."""
    return LaurentPoly.x(i) - LaurentPoly.x(i - 1)


@lru_cache(maxsize=None)
def _generator(i: int) -> SkewLaurent:
    """z_i at t-degree 0: U_{-i}'s first term, and the last component of X(-i, q)."""
    return SkewLaurent.from_poly(_z(i))


@lru_cache(maxsize=None)
def _tail(p: int) -> SkewLaurent:
    """t^{p+1} z_1 y_0 ... y_{-p}: U_p's twisted term, and X(p, q)'s correction."""
    return SkewLaurent.t(p + 1, _z(1) * _yrun(0, -p))


def _to_y(elements: Sequence[SkewLaurent]) -> tuple[list[SkewLaurent], LaurentPoly]:
    """Clear x-denominators with one right unit m, then change basis.

    Returns the y images of the c * m, and m^{-1}.  Both uses (f, and
    sum W_i c_i) are right-linear, so m^{-1} takes the unit back off.
    """
    unit, inverse = clearing_unit(a for c in elements for a in c.coeffs.values())
    if unit != LaurentPoly.one():
        elements = [c * unit for c in elements]
    return [c.change_basis() for c in elements], inverse


@lru_cache(maxsize=None)
def _defining_factors() -> tuple[SkewLaurent, ...]:
    """f's left factors in y: 1 - t*y_0 and -(1 - t*y_1), then the same
    with bare x conjugates, 1 - t + t*x and -(1 - t + t^2 x t^{-1}), x = 1 - y_0."""
    one, t, tinv = SkewLaurent.one(), SkewLaurent.t(1), SkewLaurent.t(-1)
    x = SkewLaurent.from_poly(one_minus_x(0))
    return (one - SkewLaurent.t(1, LaurentPoly.x(0)), -(one - SkewLaurent.t(1, LaurentPoly.x(1))),
            one - t + t * x, -(one - t + t * t * x * tinv))


def defining_map_y(U: SkewLaurent, V: SkewLaurent) -> SkewLaurent:
    """f(U, V) = (1 - t*y_0) U - (1 - t*y_1) V, everything in y-coordinates;
    both spellings of f must give one element."""
    fu, fv, literal_u, literal_v = _defining_factors()
    got = dot([(fu, U), (fv, V)])
    literal = dot([(literal_u, U), (literal_v, V)])
    if got != literal:
        raise InvariantError("two spellings of the defining map disagree")
    return got


def defining_map(U: SkewLaurent, V: SkewLaurent) -> SkewLaurent:
    """f(U, V) for x-coordinate inputs, evaluated in y-coordinates.

    f is left multiplication, so f(U m, V m) = f(U, V) m for the unit m
    that clears the x-denominators of U and V.
    """
    (Uy, Vy), inverse = _to_y([U, V])
    return defining_map_y(Uy, Vy).change_basis() * inverse


@lru_cache(maxsize=None)
def kernel_pair_y(n: int) -> Pair:
    """The pair W_n = (U_n, V_n) in y-coordinates; proves f(W_n) = 0.

    U_n = z_{-n} - t^{n+1} z_1 y_0 y_{-1} ... y_{-n}
    V_n = z_{-n} + sum_{0<i<=n} t^i z_{-n} z_1 y_0 ... y_{2-i}
                 - t^{n+1} z_1 y_0 ... y_{1-n} y_{-1-n}

    The descending y-product in the sum is empty at i = 1, and the last
    factor of the tail term skips y_{-n}.  Raises InvariantError unless
    the defining map, in both spellings, kills the pair.
    """
    if n < 0:
        raise ValueError(f"kernel pairs are indexed by n >= 0, got {n}")
    z1, zmn = _z(1), _z(-n)
    U = _generator(-n) - _tail(n)
    zz = zmn * z1
    terms = [(zmn, 0, LaurentPoly.one())] + [(zz, i, _yrun(0, 2 - i)) for i in range(1, n + 1)]
    terms.append((-z1, n + 1, _yrun(0, 1 - n) * LaurentPoly.x(-1 - n)))
    V = dot((SkewLaurent.t(i, a), SkewLaurent.from_poly(b)) for a, i, b in terms)
    if not defining_map_y(U, V).is_zero():
        raise InvariantError(f"kernel pair {n} is not killed by the defining map")
    return (U, V)


@lru_cache(maxsize=None)
def kernel_pair(n: int) -> Pair:
    """W_n in x-coordinates, the image of `kernel_pair_y(n)`.

    Here a run y_0 ... y_{-n} expands to 2^(n+1) terms.
    """
    U, V = kernel_pair_y(n)
    return (U.change_basis(), V.change_basis())


@dataclass(frozen=True)
class Complexity:
    """Valuation profile (alpha, beta, gamma) of a relation vector.

    alpha is the valuation of the last component (inf when it vanishes),
    beta the least valuation over all components, gamma the largest
    position attaining beta.  The order makes descent well-founded:
    smaller means larger alpha, then larger beta, then smaller gamma.
    """

    alpha: float
    beta: float
    gamma: int

    def __post_init__(self):
        if self.beta > self.alpha:
            raise InvariantError("beta must not exceed alpha")

    def __lt__(self, other: "Complexity") -> bool:
        return (-self.alpha, -self.beta, self.gamma) < (-other.alpha, -other.beta, other.gamma)


@dataclass(frozen=True)
class RelationVector:
    """Validated relation sum W_i c_i = (0, 0), as {i: c_i != 0} with 0 <= i < n."""

    n: int
    c: dict[int, SkewLaurent]

    def __post_init__(self):
        if self.n < 1 or any(not 0 <= i < self.n or ci.is_zero() for i, ci in self.c.items()):
            raise ValueError(f"need n >= 1 and nonzero components in [0, n), got n={self.n}")
        # sum W_i c_i m = 0 iff sum W_i c_i = 0, for the unit m of _to_y.
        _check_relation_y(zip(self.c, _to_y(list(self.c.values()))[0]))

    def is_zero(self) -> bool:
        return not self.c


def _check_relation_y(entries: Iterable[tuple[int, SkewLaurent]]) -> None:
    """Raise ValueError unless sum W_i c_i = (0, 0) over the (i, c_i), all in y."""
    terms = [(kernel_pair_y(i), ci) for i, ci in entries]
    first = dot((U, ci) for (U, _), ci in terms)
    second = dot((V, ci) for (_, V), ci in terms)
    if not (first.is_zero() and second.is_zero()):
        raise ValueError("not a relation: sum W_i c_i is nonzero")


def _check_arity(p: int, q: int, n: int) -> None:
    if not 0 <= p < q < n:
        raise ValueError(f"need 0 <= p < q < n, got p={p}, q={q}, n={n}")


def _descent_state(n: int, terms: Iterable, base=None) -> RelationVector:
    """base + sum X(p, q) w over the terms (p, q, w), one `dot` per touched index.

    Built from proven relations: a failed check means the library is wrong.
    """
    touched: dict[int, list[tuple[SkewLaurent, SkewLaurent]]] = {}
    for p, q, w in terms:
        _check_arity(p, q, n)
        for i, ci in pairwise_relation_x(p, q).items():
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


@lru_cache(maxsize=None)
def pairwise_relation_y(p: int, q: int) -> Mapping[int, SkewLaurent]:
    """The relation W_q z_{-p} - W_p z_{-q} - W_{q-p-1} t^{p+1} z_1 y_0 ... y_{-p} = 0.

    Its nonzero components in y-coordinates, proved here (InvariantError
    otherwise): c_p gets -z_{-q}, c_q gets z_{-p}, and c_{q-p-1} gets the
    twisted correction (added, since q - p - 1 may collide with p, at
    another t-degree).  The cached map is shared, so it is read-only.
    """
    if not 0 <= p < q:
        raise ValueError(f"need 0 <= p < q, got p={p}, q={q}")
    c = {p: -_generator(-q), q: _generator(-p)}
    c[q - p - 1] = c.get(q - p - 1, SkewLaurent.zero()) - _tail(p)
    try:
        _check_relation_y(c.items())
    except ValueError as exc:
        raise InvariantError(f"pairwise relation ({p},{q}): {exc}") from None
    return MappingProxyType(c)


@lru_cache(maxsize=None)
def pairwise_relation_x(p: int, q: int) -> Mapping[int, SkewLaurent]:
    """X(p, q) in x-coordinates, the read-only map the descent reads."""
    return MappingProxyType({i: ci.change_basis() for i, ci in pairwise_relation_y(p, q).items()})


@lru_cache(maxsize=None)
def pairwise_relation(p: int, q: int, n: int) -> tuple[SkewLaurent, ...]:
    """X(p, q) at arity n in x-coordinates: `pairwise_relation_x` as a dense tuple."""
    _check_arity(p, q, n)
    xs = pairwise_relation_x(p, q)
    return tuple(xs.get(i, SkewLaurent.zero()) for i in range(n))


def _power_diff_quotient(e: int, u_index: int, v_index: int) -> LaurentPoly:
    """g with x_u^e - x_v^e = (x_u - x_v) * g, for any integer e."""
    if e >= 0:
        return sum((LaurentPoly.x(u_index, m) * LaurentPoly.x(v_index, e - 1 - m) for m in range(e)),
                   LaurentPoly.zero())
    pos = _power_diff_quotient(-e, u_index, v_index)
    return -(LaurentPoly.x(u_index, e) * LaurentPoly.x(v_index, e) * pos)


def ideal_decompose(a: LaurentPoly, n: int) -> Optional[list[LaurentPoly]]:
    """Write a = sum_{0<=j<n} z_{-j} a_j if a lies in (z_0, ..., z_{1-n}).

    Strategy: substitute x_{-j} = x_{1-j} + z_{1-j} for j = n down to 1,
    harvesting the z-coefficient at each stage.  Membership holds exactly
    when the fully substituted residue (every x_{-j} pushed to x_0) is zero.
    """
    if n < 1:
        raise ValueError(f"the ideal needs at least one generator, got n={n}")
    coeffs = [LaurentPoly.zero() for _ in range(n)]
    b = a
    for j in range(n, 0, -1):
        parts = b.by_power(-j)
        harvested = LaurentPoly.zero()
        substituted = LaurentPoly.zero()
        for e, be in parts.items():
            harvested = harvested + be * _power_diff_quotient(e, -j, 1 - j)
            substituted = substituted + be * LaurentPoly.x(1 - j, e)
        coeffs[j - 1] = coeffs[j - 1] + harvested
        b = substituted
    if not b.is_zero():
        return None
    if sum((x_diff(-j) * c for j, c in enumerate(coeffs)), LaurentPoly.zero()) != a:
        raise InvariantError("ideal decomposition fails to recombine")
    return coeffs


def complexity(X: RelationVector) -> Complexity:
    if X.is_zero():
        raise ValueError("the zero vector has no complexity")
    nus = {k: ci.valuation() for k, ci in X.c.items()}
    beta = min(nus.values())
    gamma = max(k for k, nu in nus.items() if nu == beta)
    return Complexity(alpha=nus.get(X.n - 1, math.inf), beta=beta, gamma=gamma)


def reduce_step(X: RelationVector) -> RelationVector:
    """One descent step: cancel the lowest t-layer at position gamma.

    Subtracts sum_j X(j, gamma) * a_j t^beta where the a_j decompose the
    left layer coefficient of c_gamma at t-degree beta over the ideal
    (z_0, ..., z_{1-gamma}).  The result is a validated relation vector
    which is either zero or of strictly smaller complexity.

    gamma = 0 cannot occur: the lowest-layer identity would read
    z_0 * layer_0 = 0 with layer_0 nonzero, which fails in the domain
    Z[x^{+-1}], so such a vector raises InvariantError at that check.
    """
    if X.is_zero():
        raise ValueError("cannot reduce the zero vector")
    chi = complexity(X)
    beta, gamma = chi.beta, chi.gamma
    if not isinstance(beta, int):
        raise InvariantError(f"lowest t-degree {beta} of a nonzero vector is not finite")

    # Left layer coefficients at t-degree beta: c_k = ... + layer_k t^beta + ...
    layer = {k: ck.coeff(beta).shift(beta) for k, ck in X.c.items() if k <= gamma}
    if not sum((x_diff(-k) * c for k, c in layer.items()), LaurentPoly.zero()).is_zero():
        raise InvariantError("lowest-layer identity violated")

    parts = ideal_decompose(layer[gamma], gamma)
    if parts is None:
        raise InvariantError("layer coefficient escapes the expected ideal")

    terms = [
        (j, gamma, -SkewLaurent.from_poly(aj) * SkewLaurent.t(beta))
        for j, aj in enumerate(parts)
        if not aj.is_zero()
    ]
    out = _descent_state(X.n, terms, X.c)
    if not out.is_zero() and not complexity(out) < chi:
        raise InvariantError("descent step failed to lower the complexity")
    return out


def reduce_chain(X: RelationVector) -> list[RelationVector]:
    """Iterate reduce_step to zero; returns the full trace."""
    trace = [X]
    for _ in range(MAX_DESCENT_STEPS):
        cur = trace[-1]
        if cur.is_zero():
            return trace
        trace.append(reduce_step(cur))
    raise LimitExceeded(f"reduction did not terminate within {MAX_DESCENT_STEPS} steps")


def _descent_summary(trace: list[RelationVector]) -> tuple[list[Complexity], bool, bool]:
    """(complexities of the nonzero states, ends at zero, strictly decreasing)."""
    chis = [complexity(v) for v in trace if not v.is_zero()]
    decreasing = all(b < a for a, b in zip(chis, chis[1:]))
    return chis, trace[-1].is_zero(), decreasing


@lru_cache(maxsize=None)
def _projection_texts(p: int, last: SkewLaurent) -> tuple[str, str]:
    """z_{-p} and `last`, a y component, in x as text; keyed by value, so once per component."""
    return format_skew(SkewLaurent.from_poly(x_diff(-p))), format_skew(last.change_basis())


def last_projection_generator(p: int, n: int) -> LaurentPoly:
    """The witness z_{-p} produced as the last component of X(p, n-1) at arity n."""
    want, got = _projection_texts(p, pairwise_relation_y(p, n - 1)[n - 1])
    if got != want:
        raise InvariantError("last projection of the pairwise relation is off")
    return x_diff(-p)


# Report-producing verifiers shared by the test suite and the CLI.

def verify_kernel_pairs(max_n: int) -> list[CheckItem]:
    """One item per kernel pair W_0 .. W_max_n: the `grouph verify-kernel` report."""
    items = []
    for n in range(max_n + 1):
        kernel_pair_y(n)  # proves f(W_n) = 0 in y, or raises InvariantError
        items.append(item(f"defining map kills the degree-{n} pair", "0", "0"))
    return items


def verify_relations(max_q: int) -> list[CheckItem]:
    pairs = [(p, q) for q in range(1, max_q + 1) for p in range(q)]
    # proves each relation, or raises InvariantError, and reads back its last component
    lasts = [pairwise_relation_y(p, q)[q] for p, q in pairs]
    return [item(f"relation ({p},{q}) validates", True, True) for p, q in pairs] + [
        item(f"last projection of ({p},{q}) at arity {q + 1}", *_projection_texts(p, last))
        for (p, q), last in zip(pairs, lasts)
    ]


def random_relation(n: int, rng: Random) -> RelationVector:
    """Random right-combination of pairwise relations at arity n."""
    terms = []
    pairs = [(p, q) for q in range(1, n) for p in range(q)]
    rng.shuffle(pairs)
    for p, q in pairs:
        if len(terms) >= 2 and rng.random() < 0.5:
            break
        mono = LaurentPoly.x(rng.randint(-RANDOM_SPREAD, RANDOM_SPREAD), rng.randint(-1, 1))
        coef = rng.choice([-2, -1, 1, 2]) * mono
        w = SkewLaurent.t(rng.randint(0, RANDOM_SPREAD), coef)
        terms.append((p, q, w))
    return _descent_state(n, terms)


def reduce_pair_sum(
    pairs: Iterable[tuple[int, int]], n: int
) -> tuple[list[CheckItem], list[str]]:
    """Descend from the sum of the pairwise relations X(p, q) at arity n.

    The sum is validated once.  Returns the end-state and monotonicity
    items, and one trace entry per vector: its complexity as
    "chi=(alpha, beta, gamma)", then "zero" for the final state.
    """
    start = _descent_state(n, ((p, q, SkewLaurent.one()) for p, q in pairs))
    chis, ended, decreasing = _descent_summary(reduce_chain(start))
    steps = [f"chi=({c.alpha}, {c.beta}, {c.gamma})" for c in chis]
    if ended:
        steps.append("zero")
    items = [
        item("the chain reaches an end state", True, ended),
        item("complexity strictly decreases", True, decreasing),
    ]
    return items, steps


def verify_reduction(arity: int, count: int, seed: int) -> list[CheckItem]:
    rng = Random(seed)
    items = []
    for trial in range(count):
        n = rng.randint(2, arity)
        X = random_relation(n, rng)
        if X.is_zero():
            items.append(item(f"trial {trial}: combination already zero", True, True))
            continue
        trace = reduce_chain(X)
        _, ended, decreasing = _descent_summary(trace)
        items.append(
            item(
                f"trial {trial}: arity {n} chain of {len(trace) - 1} steps",
                "strictly decreasing to an end state",
                "ok" if (decreasing and ended) else "violation",
                ok=decreasing and ended,
            )
        )
    return items


@lru_cache(maxsize=None)
def _collapsed_generator(j: int) -> tuple[SkewLaurent, bool]:
    """z_{-j}, and whether the collapse kills it; built once per index."""
    z = SkewLaurent.from_poly(x_diff(-j))
    return z, z.collapse().is_zero()


@lru_cache(maxsize=625 * 64)  # a draw is j < n, then s, a, b, c in [-2, 2]; n <= 64
def _sample_collapses(j: int, s: int, a: int, b: int, c: int) -> bool:
    """Whether z_{-j} t^s (x_a^b + c) collapses to zero; each draw is multiplied once."""
    w = SkewLaurent.t(s, LaurentPoly.x(a, b) + LaurentPoly.const(c))
    return (_collapsed_generator(j)[0] * w).collapse().is_zero()


def collapse_certificate(n: int, samples: int = 20, seed: int = 7) -> list[CheckItem]:
    """Certify 1 is outside the right ideal generated by z_0..z_{1-n}.

    The collapse map x_i -> x is a ring morphism killing every generator,
    hence the whole right ideal, while collapse(1) = 1 survives.  Checked
    on the generators, on random right multiples, and on the unit.  Each
    stage draws its own samples from Random(seed); a product drawn again,
    in this stage or another, is looked up rather than formed.
    """
    rng = Random(seed)
    items = [
        item(f"generator z_{-j} collapses to zero", True, _collapsed_generator(j)[1])
        for j in range(n)
    ]
    draw = rng.randrange  # draw(5) - 2 reads the stream as randint(-2, 2) does
    dead = 0
    for _ in range(samples):
        j = draw(n)
        dead += _sample_collapses(j, draw(5) - 2, draw(5) - 2, draw(5) - 2, draw(5) - 2)
    items.append(item("random right multiples collapse to zero", samples, dead))
    one = SkewLaurent.one().collapse()
    items.append(item("the unit survives the collapse", "1", "1" if one == one * one and not one.is_zero() else "0"))
    witnesses = all(not last_projection_generator(p, n).is_zero() for p in range(n - 1))
    items.append(item("projection witnesses are nonzero", True, witnesses))
    return items


def collapse_images(max_n: int) -> list[dict]:
    """Collapse images of the generators z_0 .. z_{1-max_n}, then of the unit."""
    images = []
    for j in range(max_n):
        z, dies = _collapsed_generator(j)
        images.append({"element": format_skew(z), "image": "0" if dies else "nonzero"})
    unit = SkewLaurent.one().collapse()
    survives = unit == unit * unit and not unit.is_zero()
    images.append({"element": "1", "image": "1" if survives else "changed"})
    return images
