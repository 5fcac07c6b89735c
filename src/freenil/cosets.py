"""Double cosets, conjugate subgroup transport, and the split round-trip
checks for induction between module categories.

``double_cosets`` partitions a finite group (or an action-stable subset of
it) into Hl*x*Hr orbits.  ``conjugate_subgroup_data`` computes, for two
embeddings of the same subgroup and a conjugating element x, the part of the
subgroup whose right image falls inside the conjugated left image, together
with the transport map this induces, and verifies the transport elementwise.
``induction_roundtrip_check`` confirms, at the level of explicit basis
tokens, that inducing a based module pair up through a construction and
restricting back is the original module plus a swapped copy smeared over the
nontrivial coset blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .amalgam import Amalgam
from .errors import InvariantError, UnsupportedOperation
from .groups import FiniteSubgroup, subgroup_members
from .hnn import HNN
from .report import CheckItem, item


def _subgroup_members(group, subgroup):
    """Accept a subgroup object or a bare element collection; validate closure.

    A `FiniteSubgroup` of ``group`` already proved its closure when built.
    """
    if isinstance(subgroup, FiniteSubgroup) and subgroup.group is group:
        return subgroup.members
    return subgroup_members(group, getattr(subgroup, "members", subgroup))


def double_cosets(group, left, right, subset=None):
    """Partition ``subset`` (default: the whole group) into left*x*right orbits.

    Orbits come back as tuples sorted in ambient element order, listed by
    first appearance; their disjoint union is exactly the input set.
    """
    if not getattr(group, "is_finite", False):
        raise UnsupportedOperation("double cosets need a finite group oracle")
    hl = _subgroup_members(group, left)
    hr = _subgroup_members(group, right)
    if subset is None:
        pool = list(group.elements())
    else:
        pool = list(dict.fromkeys(group.check(g) for g in subset))
    pool_set = set(pool)
    seen = set()
    orbits = []
    for x in pool:
        if x in seen:
            continue
        orbit = {
            group.multiply(group.multiply(l, x), r)
            for l in hl
            for r in hr
        }
        if not orbit <= pool_set:
            raise ValueError("subset is not stable under the double action")
        seen |= orbit
        orbits.append(tuple(sorted(orbit, key=group.sort_key)))
    return orbits


@dataclass(frozen=True)
class ConjugateSubgroupData:
    """Transportable part of the subgroup at a conjugating element.

    ``gamma`` lists the subgroup elements whose right-embedding image lies in
    the conjugated left image; ``transport`` pairs each with the element the
    conjugation carries it to; ``target`` is the analogous part at the
    inverse element, which the transport maps onto bijectively.
    """

    x: object
    gamma: tuple
    transport: tuple
    target: tuple
    items: tuple


def conjugate_subgroup_data(group, alpha, beta, x):
    if not getattr(group, "is_finite", False):
        raise UnsupportedOperation("conjugate subgroup data needs a finite group")
    sub = alpha.src
    if beta.src is not sub:
        raise ValueError("the two embeddings must share their source")
    if alpha.dst is not group or beta.dst is not group:
        raise ValueError("both embeddings must land in the given group")
    group.check(x)
    xinv = group.invert(x)

    def conj(g, by, by_inv):
        return group.multiply(group.multiply(by, g), by_inv)

    left_conj = frozenset(conj(alpha.apply(h), x, xinv) for h in sub.elements())
    gamma = tuple(g for g in sub.elements() if beta.apply(g) in left_conj)
    pairs = []
    for g in gamma:
        carried = alpha.preimage(conj(beta.apply(g), xinv, x))
        if carried is None:
            raise InvariantError("conjugated image escaped the left embedding")
        if conj(alpha.apply(carried), x, xinv) != beta.apply(g):
            raise InvariantError("transport identity failed: inconsistent oracle")
        pairs.append((g, carried))
    right_conj = frozenset(conj(beta.apply(h), xinv, x) for h in sub.elements())
    target = tuple(c for c in sub.elements() if alpha.apply(c) in right_conj)

    transport = dict(pairs)
    gamma_set = set(gamma)
    closed = all(
        sub.multiply(a, b) in gamma_set for a, b in itertools.product(gamma, repeat=2)
    ) and all(sub.invert(a) in gamma_set for a in gamma)
    homomorphic = all(
        transport[sub.multiply(a, b)] == sub.multiply(transport[a], transport[b])
        for a, b in itertools.product(gamma, repeat=2)
    )
    image = tuple(transport[g] for g in gamma)
    items = (
        item("transport identity", f"holds at {len(gamma)} elements", "verified", True),
        item("gamma is a subgroup", True, closed),
        item("transport is injective", len(gamma), len(set(image))),
        item("transport lands onto the inverse-side part", sorted(target), sorted(image)),
        item("transport is a homomorphism", True, homomorphic),
    )
    if not all(entry.ok for entry in items):
        raise InvariantError("conjugate transport failed verification")
    return ConjugateSubgroupData(x, gamma, tuple(pairs), target, items)


@dataclass(frozen=True)
class RoundTripReport:
    """Token-level verdicts and bijections for the two round trips."""

    items: tuple
    swap_pairs: tuple
    induction_pairs: tuple
    dims: dict

    @property
    def ok(self):
        return all(entry.ok for entry in self.items)


def _based_labels(dims):
    m1, m2 = dims
    if not all(isinstance(m, int) and m >= 0 for m in (m1, m2)):
        raise ValueError("based module dimensions must be nonnegative integers")
    return (
        tuple(("u", i) for i in range(m1)),
        tuple(("v", j) for j in range(m2)),
    )


def _transversals(construction, bound):
    if isinstance(construction, Amalgam):
        images = [embed.image for embed in construction.embeddings]
    elif isinstance(construction, HNN):
        images = [construction.alpha.image, construction.beta.image]
    else:
        raise TypeError(f"no induction data for construction {construction!r}")
    reps = []
    for image in images:
        if not image.finite_index:
            raise UnsupportedOperation(
                "the induction round trip needs finite-index subgroup images"
            )
        reps.append(image.transversal_list(bound))
    return reps


def induction_roundtrip_check(dims, construction=None, bound=4):
    """Check the two split round trips on a based module pair.

    The first round trip (forget both coordinates, then re-diagonalize)
    must be the module plus its coordinate swap; this needs no oracles.
    The second (induce up through the construction, then restrict back)
    must be the module plus the swap smeared over nontrivial coset blocks;
    it is checked whenever a construction is supplied, by exhibiting a
    basis-token bijection between the two sides.
    """
    basis1, basis2 = _based_labels(dims)
    m1, m2 = len(basis1), len(basis2)
    items = []
    dims_out = {"module": (m1, m2)}

    swap_pairs = []
    for comp in (1, 2):
        for b in basis1:
            swap_pairs.append(((comp, b), ("direct" if comp == 1 else "swapped", b)))
        for b in basis2:
            swap_pairs.append(((comp, b), ("swapped" if comp == 1 else "direct", b)))
    dims_out["forget_rediagonalize"] = (m1 + m2, m1 + m2)
    items.append(
        item(
            "forget-and-rediagonalize dims",
            (m1 + m2, m1 + m2),
            (
                sum(1 for (comp, _), _ in swap_pairs if comp == 1),
                sum(1 for (comp, _), _ in swap_pairs if comp == 2),
            ),
        )
    )
    items.append(
        item(
            "swap bijection is one-to-one",
            len(swap_pairs),
            len({src for src, _ in swap_pairs}),
        )
    )

    induction_pairs = ()
    if construction is not None:
        reps_a, reps_b = _transversals(construction, bound)
        hnn = isinstance(construction, HNN)
        if hnn:
            id_a = id_b = construction.base.identity
        else:
            id_a, id_b = (factor.identity for factor in construction.factors)
        # the first and last blocks are shared; an HNN adds the two stable ones
        pairs = [
            ((1, b, r), ("direct", b) if r == id_a else ("swapped", b, (2, 1), r))
            for b in basis1
            for r in reps_a
        ]
        if hnn:
            pairs += [
                ((1, b, r, "stable"), ("swapped", b, (1, 1), r)) for b in basis2 for r in reps_b
            ]
            pairs += [
                ((2, b, r, "stable"), ("swapped", b, (2, 2), r)) for b in basis1 for r in reps_a
            ]
        pairs += [
            ((2, b, r), ("direct", b) if r == id_b else ("swapped", b, (1, 2), r))
            for b in basis2
            for r in reps_b
        ]
        ka, kb = len(reps_a), len(reps_b)
        if hnn:
            direct = (m1 * ka + m2 * kb, m1 * ka + m2 * kb)
            rebuilt = (m1 + m2 * kb + m1 * (ka - 1), m2 + m2 * (kb - 1) + m1 * ka)
        else:
            direct = (m1 * ka, m2 * kb)
            rebuilt = (m1 + m1 * (ka - 1), m2 + m2 * (kb - 1))
        induction_pairs = tuple(pairs)
        dims_out["induce_restrict"] = direct
        items.append(item("induce-and-restrict dims", direct, rebuilt))
        items.append(
            item(
                "induction bijection is one-to-one",
                len(induction_pairs),
                len({src for src, _ in induction_pairs}),
            )
        )
        items.append(
            item(
                "induction bijection hits distinct targets",
                len(induction_pairs),
                len({dst for _, dst in induction_pairs}),
            )
        )

    return RoundTripReport(
        items=tuple(items),
        swap_pairs=tuple(swap_pairs),
        induction_pairs=induction_pairs,
        dims=dims_out,
    )
