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
  one monomial, so U_n has 4 terms and V_n has O(n), one per t-degree.
  f(W_n) is one `skewpoly.dot`, over factors proved equal to f's literal
  spelling once per command; each sum W_i c_i is one `dot` on the U side (24
  term pairs for X(p, q)), and X(p, q) is proved once per (p, q).
  Their pieces (z_i, the runs, the tails t^{p+1} z_1 y_0 ... y_{-p}) are
  built once per command and shared read-only; every X(p, q) ends in the
  one object z_{-p}, so its last projection is converted once per p.
* x-coordinates are the public basis: `kernel_pair`, `pairwise_relation`,
  `defining_map` and a RelationVector's `c` are in x, as exact images.

A relation is a map from index to nonzero component; X(p, q) has at most
three in any arity (`pairwise_relation` is its dense view).  Descent runs in
y as well: a state's c_i is P_i x^(-M), P_i read in y over one x-monomial M,
and `ideal_decompose` splits Delta(P g) = Delta(P) g + sigma(P) Delta(g) for
g = x^(-M), so each a_j is the ring element of the x descent.  Each state
is built by `_descent_state`, one `dot` per touched index, and proved once.

Everything is exact; any failed internal assertion raises InvariantError
because the identities involved are theorems, not runtime conditions.
Only a RelationVector built from caller-supplied components raises
ValueError when it is not a relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from random import Random
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvariantError, LimitExceeded
from .laurent import LaurentPoly, clearing_unit, one_minus_x, pack, unpack, x_diff
from .report import CheckItem, item
from .skewpoly import SkewLaurent, collapse_dot, dot, format_skew

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


def _to_y(elements: Sequence[SkewLaurent]) -> tuple[list[SkewLaurent], int]:
    """(the P_i, M) with each c = P x^(-M), x^M the least monomial clearing every c, P in y."""
    unit, _ = clearing_unit(a for c in elements for a in c.coeffs.values())
    return [(c * unit).change_basis() for c in elements], next(iter(unit.coeffs))


@lru_cache(maxsize=None)
def _unit_y(M: int) -> LaurentPoly:
    """x^M read in y, a product of (1 - y_i)^e_i, for a packed M with no negative exponent."""
    return LaurentPoly._trusted({M: 1}).change_basis()


def _over(P, M: int, D: int):
    """The numerator of P x^(-M) over x^(-D), for M dividing D."""
    return P if M == D else P * _unit_y(D - M)


def _divided(comps: dict[int, SkewLaurent], i: int) -> Optional[dict[int, SkewLaurent]]:
    """Each P / (1 - y_i) if 1 - y_i divides every P, else None: a quotient's coefficients in
    y_i are the running sums of P's, and the last sum, P at y_i = 1, must vanish."""
    out = {}
    for k, pk in comps.items():
        out[k] = SkewLaurent._trusted({})
        for t, a in pk.coeffs.items():
            parts, run, q = a.by_power(i), LaurentPoly.zero(), LaurentPoly.zero()
            for d in range(max(parts)):
                run = run + parts.get(d, LaurentPoly.zero())
                q = q + run * LaurentPoly.x(i, d)
            if not (run + parts[max(parts)]).is_zero():
                return None
            out[k].coeffs[t] = q
    return out


def _shift_key(M: int, m: int) -> int:
    """x^M with x_i relabelled x_{i+m}, as `LaurentPoly.shift` does."""
    return next(iter(LaurentPoly._trusted({M: 1}).shift(m).coeffs)) if M else 0


@lru_cache(maxsize=None)
def _defining_factors() -> tuple[SkewLaurent, SkewLaurent]:
    """f's left factors in y, 1 - t*y_0 and -(1 - t*y_1), proved once per
    command (InvariantError otherwise) equal to their spelling with bare x
    conjugates, 1 - t + t*x and -(1 - t + t^2 x t^{-1}), x = 1 - y_0."""
    one, t, tinv = SkewLaurent.one(), SkewLaurent.t(1), SkewLaurent.t(-1)
    x = SkewLaurent.from_poly(one_minus_x(0))
    factors = (one - SkewLaurent.t(1, LaurentPoly.x(0)), -(one - SkewLaurent.t(1, LaurentPoly.x(1))))
    if factors != (one - t + t * x, -(one - t + t * t * x * tinv)):
        raise InvariantError("two spellings of the defining map disagree")
    return factors


def defining_map_y(U: SkewLaurent, V: SkewLaurent) -> SkewLaurent:
    """f(U, V) = (1 - t*y_0) U - (1 - t*y_1) V, everything in y-coordinates;
    one `dot` over the factors `_defining_factors` proved."""
    fu, fv = _defining_factors()
    return dot([(fu, U), (fv, V)])


def defining_map(U: SkewLaurent, V: SkewLaurent) -> SkewLaurent:
    """f(U, V) for x-coordinate inputs, evaluated in y-coordinates.

    f is left multiplication, so f(U m, V m) = f(U, V) m for the unit m
    that clears the x-denominators of U and V.
    """
    (Uy, Vy), M = _to_y([U, V])
    return defining_map_y(Uy, Vy).change_basis() * LaurentPoly._trusted({-M: 1})


@lru_cache(maxsize=None)
def kernel_pair_y(n: int) -> Pair:
    """The pair W_n = (U_n, V_n) in y-coordinates; proves f(W_n) = 0.

    U_n = z_{-n} - t^{n+1} z_1 y_0 y_{-1} ... y_{-n}
    V_n = z_{-n} + sum_{0<i<=n} t^i z_{-n} z_1 y_0 ... y_{2-i}
                 - t^{n+1} z_1 y_0 ... y_{1-n} y_{-1-n}

    The descending y-product in the sum is empty at i = 1, and the last
    factor of the tail term skips y_{-n}.  V_n has one term per t-degree,
    so it is built layer by layer.  Raises InvariantError unless the
    defining map kills the pair.
    """
    if n < 0:
        raise ValueError(f"kernel pairs are indexed by n >= 0, got {n}")
    z1, zmn = _z(1), _z(-n)
    U = _generator(-n) - _tail(n)
    zz = zmn * z1
    V = SkewLaurent({0: zmn, **{i: zz * _yrun(0, 2 - i) for i in range(1, n + 1)},
                     n + 1: -(z1 * _yrun(0, 1 - n) * LaurentPoly.x(-1 - n))})
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


class RelationVector:
    """Validated relation sum W_i c_i = (0, 0), as {i: c_i != 0} with 0 <= i < n, from x
    components c, held as c_i = P_i x^(-M): P_i read in y, one packed x-monomial M >= 0 for
    all i.  So sum W_i c_i = 0 iff sum W_i P_i = 0, and P_i has c_i's t-valuations.  A
    descent state sets n, P and M; its `c` is built on first read."""

    def __init__(self, n: int, c: Mapping[int, SkewLaurent]):
        P, M = _to_y(list(c.values()))
        self.n, self.P, self.M, self.c = n, dict(zip(c, P)), M, dict(c)
        self.__post_init__()

    def __post_init__(self):
        if self.n < 1 or any(not 0 <= i < self.n or pi.is_zero() for i, pi in self.P.items()):
            raise ValueError(f"need n >= 1 and nonzero components in [0, n), got n={self.n}")
        _check_relation_y(self.P.items())

    @cached_property
    def c(self) -> dict[int, SkewLaurent]:
        return {i: pi.change_basis() * LaurentPoly._trusted({-self.M: 1}) for i, pi in self.P.items()}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RelationVector) and (self.n, self.c) == (other.n, other.c)

    def is_zero(self) -> bool:
        return not self.P


def _check_relation_y(entries: Iterable[tuple[int, SkewLaurent]]) -> None:
    """Raise ValueError unless sum W_i c_i = (0, 0) over the (i, c_i) in y, from sum U_i c_i:
    `kernel_pair_y` proved (1 - t*y_0) U_i = (1 - t*y_1) V_i; left-multiply sum U_i c_i = 0 by
    1 - t*y_0; a skew Laurent ring over a domain is a domain, so sum V_i c_i = 0 as well."""
    if not dot((kernel_pair_y(i)[0], ci) for i, ci in entries).is_zero():
        raise ValueError("not a relation: sum W_i c_i is nonzero")


def _check_arity(p: int, q: int, n: int) -> None:
    if not 0 <= p < q < n:
        raise ValueError(f"need 0 <= p < q < n, got p={p}, q={q}, n={n}")


def _descent_state(n: int, terms: Iterable, M: int = 0, base=None) -> RelationVector:
    """base + sum X(p, q) w x^(-M) over the terms (p, q, w), all in y, one `dot` per touched
    index, with M a multiple of the base's denominator, then each x_i = 1 - y_i that divides
    every component cancelled.  Built from proven relations: a failed check means the
    library is wrong."""
    touched: dict[int, list[tuple[SkewLaurent, SkewLaurent]]] = {}
    for p, q, w in terms:
        _check_arity(p, q, n)
        for i, ci in pairwise_relation_y(p, q).items():
            touched.setdefault(i, []).append((ci, w))
    comps = {} if base is None else {i: _over(pi, base.M, M) for i, pi in base.P.items()}
    for i, products in touched.items():
        ci = comps.pop(i, SkewLaurent.zero()) + dot(products)
        if not ci.is_zero():
            comps[i] = ci
    for i, e in unpack(M):  # lowest terms: M becomes the least monomial clearing the x view
        while e and (quotients := _divided(comps, i)) is not None:
            comps, M, e = quotients, M - pack([(i, 1)]), e - 1
    X = RelationVector.__new__(RelationVector)
    X.n, X.P, X.M = n, comps, M
    try:
        X.__post_init__()
    except ValueError as exc:
        raise InvariantError(f"descent state: {exc}") from None
    return X


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
def pairwise_relation(p: int, q: int, n: int) -> tuple[SkewLaurent, ...]:
    """X(p, q) at arity n in x-coordinates: the image of `pairwise_relation_y` as a dense tuple."""
    _check_arity(p, q, n)
    ys = pairwise_relation_y(p, q)
    return tuple(ys[i].change_basis() if i in ys else SkewLaurent.zero() for i in range(n))


@lru_cache(maxsize=None)
def _quotient(e: int, i: int) -> LaurentPoly:
    """-sum_{m<e} v_i^m v_{i+1}^(e-1-m): read in y, (y_i^e - y_{i+1}^e)/(x_i - x_{i+1});
    read in x, (x_i^(-e) - x_{i+1}^(-e))/(x_i - x_{i+1}) times (x_i x_{i+1})^e."""
    return LaurentPoly({((i, m), (i + 1, e - 1 - m)): -1 for m in range(e)})


def ideal_decompose(a: LaurentPoly, M: int, n: int) -> Optional[tuple[list[LaurentPoly], int]]:
    """Write a x^(-M) = sum_{0<=j<n} z_{-j} a_j if it lies in (z_0, ..., z_{1-n}), with a
    read in y and M packed; returns the a_j read in y over one x^(-D), M | D, or None.

    For j = n down to 1: a_{j-1} = Delta_j b = (b - sigma_j b)/(x_{-j} - x_{1-j}) and
    b -> sigma_j b, where sigma_j is x_{-j} -> x_{1-j}; a lies in the ideal exactly when
    the residue is zero.  On b = P g, g = x^(-M): Delta_j(P g) = Delta_j(P) g +
    sigma_j(P) Delta_j(g), and Delta_j(x_{-j}^(-e)) = -(x_{-j} x_{1-j})^(-e) sum_{m<e}
    x_{-j}^m x_{1-j}^(e-1-m), so the denominator grows only at index 1 - j.
    """
    if n < 1:
        raise ValueError(f"the ideal needs at least one generator, got n={n}")
    parts, b, Mb, D = [], a, M, M  # each part's denominator divides D = M times every bump
    for j in range(n, 0, -1):
        harvested, substituted = LaurentPoly.zero(), LaurentPoly.zero()
        for e, be in b.by_power(-j).items():
            harvested = harvested + be * _quotient(e, -j)
            substituted = substituted + be * LaurentPoly.x(1 - j, e)
        e = dict(unpack(Mb)).get(-j, 0)  # x_{-j}^(-e) in the denominator
        bump = pack([(1 - j, e)])
        if e:
            harvested = harvested * _unit_y(bump) + substituted * _quotient(e, -j).change_basis()
        parts.append((harvested, Mb + bump))
        Mb, D = Mb + bump - pack([(-j, e)]), D + bump
        b = substituted
    if not b.is_zero():
        return None
    coeffs = [_over(aj, Mj, D) for aj, Mj in reversed(parts)]
    if sum((_z(-j) * c for j, c in enumerate(coeffs)), LaurentPoly.zero()) != _over(a, M, D):
        raise InvariantError("ideal decomposition fails to recombine")
    return coeffs, D


def complexity(X: RelationVector) -> Complexity:
    if X.is_zero():
        raise ValueError("the zero vector has no complexity")
    nus = {k: pk.valuation() for k, pk in X.P.items()}
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

    # Left layer coefficients at t-degree beta: c_k = ... + layer_k t^beta + ...,
    # each layer_k the numerator read in y over the shared x^(-M) shifted by beta.
    layer = {k: pk.coeff(beta).shift(beta) for k, pk in X.P.items() if k <= gamma}
    if not sum((_z(-k) * c for k, c in layer.items()), LaurentPoly.zero()).is_zero():
        raise InvariantError("lowest-layer identity violated")

    decomposed = ideal_decompose(layer[gamma], _shift_key(X.M, beta), gamma)
    if decomposed is None:
        raise InvariantError("layer coefficient escapes the expected ideal")

    # X(j, gamma) times -a_j t^beta = -t^beta a_j.shift(-beta), over the denominator shifted back
    parts, D = decomposed
    terms = [(j, gamma, -SkewLaurent.t(beta, aj.shift(-beta))) for j, aj in enumerate(parts)
             if not aj.is_zero()]
    out = _descent_state(X.n, terms, _shift_key(D, -beta), X)
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
        # x_a^e read in y: (1 - y_a)^e for e >= 0, a denominator x_a for e = -1
        x_a = pack([(rng.randint(-RANDOM_SPREAD, RANDOM_SPREAD), 1)])
        e = rng.randint(-1, 1)
        coef = rng.choice([-2, -1, 1, 2]) * (_unit_y(x_a) if e == 1 else LaurentPoly.one())
        terms.append((p, q, SkewLaurent.t(rng.randint(0, RANDOM_SPREAD), coef), x_a if e < 0 else 0))
    M = sum({Mw for *_, Mw in terms})  # x_a for each a drawn with e = -1
    return _descent_state(n, [(p, q, _over(w, Mw, M)) for p, q, w, Mw in terms], M)


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
    """Whether z_{-j} t^s (x_a^b + c) collapses to zero; each draw's product is formed once."""
    w = {pack([(a, b)]): 1, 0: c} if b else {0: 1 + c}  # x_a^b + c; 1 has the key 0
    return collapse_dot([(_collapsed_generator(j)[0], {s: w})]).is_zero()


def _below(bits, n: int, k: int) -> int:
    """`randrange(n)` off `bits` = getrandbits, k = n.bit_length(): its rejection loop, same stream."""
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def collapse_certificate(n: int, samples: int = 20, seed: int = 7) -> list[CheckItem]:
    """Certify 1 is outside the right ideal generated by z_0..z_{1-n}.

    The collapse map x_i -> x is a ring morphism killing every generator,
    hence the whole right ideal, while collapse(1) = 1 survives.  Checked
    on the generators, on random right multiples, and on the unit.  Each
    stage draws its own samples from Random(seed); a new draw's product is
    formed key by key and collapsed in one `collapse_dot`, a repeat looked up.
    """
    rng = Random(seed)
    items = [
        item(f"generator z_{-j} collapses to zero", True, _collapsed_generator(j)[1])
        for j in range(n)
    ]
    bits, k, dead = rng.getrandbits, n.bit_length(), 0  # _below(bits, 5, 3) - 2 is randint(-2, 2)
    for _ in range(samples):
        j, s, a, b = _below(bits, n, k), _below(bits, 5, 3), _below(bits, 5, 3), _below(bits, 5, 3)
        dead += _sample_collapses(j, s - 2, a - 2, b - 2, _below(bits, 5, 3) - 2)
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
