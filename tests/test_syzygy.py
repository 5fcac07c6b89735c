"""Kernel pairs, pairwise relations, ideal membership, and descent.

The oracle for every identity here is exact expansion in the twisted ring
(itself law-tested in test_skewpoly).  Hand-frozen small cases pin the
formulas; property runs exercise descent termination and round-trips.
The library builds pairs and relations in y-coordinates; the direct
x-coordinate constructors below are kept as references for their images.
"""

import itertools
import json
import math
from dataclasses import asdict, astuple
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from freenil.cli import main
from freenil.errors import InvariantError
from freenil.laurent import LaurentPoly, clearing_unit, format_poly, one_minus_x, pack, unpack, x_diff
from freenil.skewpoly import SkewLaurent, format_skew
from freenil.syzygy import (
    Complexity,
    kernel_pair_y,
    pairwise_relation_y,
    RelationVector,
    collapse_certificate,
    complexity,
    defining_map,
    ideal_decompose,
    kernel_pair,
    pairwise_relation,
    random_relation,
    reduce_chain,
    reduce_pair_sum,
    reduce_step,
    verify_kernel_pairs,
    verify_relations,
    verify_reduction,
)

from kernel_oracles import (
    bounded_kernel_check,
    chi_trace_x,
    collapse_certificate_oracle,
    complexity_x,
    descent_state_x,
    fresh_relation_y,
    fresh_yrun,
    fresh_z,
    ideal_decompose_x,
    kernel_pair_y_oracle,
    random_relation_x,
    reduce_chain_x,
    reduce_step_x,
    relation_x,
    two_sided_relation,
    verify_relations_oracle,
    y_run,
)


def sk(p: LaurentPoly) -> SkewLaurent:
    return SkewLaurent.from_poly(p)


# Reference constructors, computed directly in x-coordinates.

def reference_defining_map(U: SkewLaurent, V: SkewLaurent) -> SkewLaurent:
    """f(U, V) = (1 - t*y_0) U - (1 - t*y_1) V, expanded in x."""
    one = SkewLaurent.one()
    left = (one - SkewLaurent.t(1, one_minus_x(0))) * U
    right = (one - SkewLaurent.t(1, one_minus_x(1))) * V
    return left - right


def reference_kernel_pair(n: int):
    z1 = x_diff(1)
    zmn = x_diff(-n)
    U = sk(zmn) - SkewLaurent.t(n + 1, z1 * y_run(0, -n))
    V = sk(zmn)
    for i in range(1, n + 1):
        V = V + SkewLaurent.t(i, zmn * z1 * y_run(0, 2 - i))
    V = V - SkewLaurent.t(n + 1, z1 * y_run(0, 1 - n) * one_minus_x(-1 - n))
    return (U, V)


def reference_pairwise_relation(p: int, q: int, n: int) -> tuple[SkewLaurent, ...]:
    c = [SkewLaurent.zero() for _ in range(n)]
    c[p] = c[p] - sk(x_diff(-q))
    c[q] = c[q] + sk(x_diff(-p))
    c[q - p - 1] = c[q - p - 1] - SkewLaurent.t(p + 1, x_diff(1) * y_run(0, -p))
    return tuple(c)


def combine(n: int, *terms) -> RelationVector:
    """The validated relation sum_k X_k w_k, for dense component tuples X_k and right factors w_k.

    Summed densely, component by component, as an oracle for the sparse descent states.
    """
    comps = [SkewLaurent.zero()] * n
    for X, w in terms:
        comps = [a + b * w for a, b in zip(comps, X)]
    return RelationVector(n, {i: c for i, c in enumerate(comps) if not c.is_zero()})


def unchecked(n: int, c: dict) -> RelationVector:
    """A RelationVector that skips validation, for raw complexity profiles: the
    components c are x-polynomials, so they are their own numerators over M = 1."""
    X = object.__new__(RelationVector)
    X.n, X.c, X.M = n, c, 0
    X.P = {i: ci.change_basis() for i, ci in c.items()}
    return X


def clear_relation_caches():
    pairwise_relation.cache_clear()
    pairwise_relation_y.cache_clear()


small_skews = st.dictionaries(
    st.integers(-2, 2),
    st.dictionaries(
        st.dictionaries(st.integers(-2, 2), st.integers(-2, 2).filter(bool), max_size=2)
        .map(lambda d: tuple(sorted(d.items()))),
        st.integers(-3, 3).filter(bool),
        max_size=3,
    ).map(LaurentPoly),
    max_size=3,
).map(SkewLaurent)


class TestAgainstXReferences:
    @pytest.mark.parametrize("n", range(11))
    def test_kernel_pair_is_the_x_reference(self, n):
        assert kernel_pair(n) == reference_kernel_pair(n)

    @pytest.mark.parametrize("q", range(1, 11))
    def test_pairwise_relation_is_the_x_reference(self, q):
        for n in (q + 1, q + 2):
            for p in range(q):
                assert pairwise_relation(p, q, n) == reference_pairwise_relation(p, q, n)

    @pytest.mark.parametrize("n", range(7))
    def test_reference_map_kills_reference_pairs(self, n):
        assert reference_defining_map(*reference_kernel_pair(n)).is_zero()

    @given(small_skews, small_skews)
    @settings(max_examples=60)
    def test_defining_map_matches_reference(self, U, V):
        # Inputs carry negative exponents, so this exercises the clearing unit.
        assert defining_map(U, V) == reference_defining_map(U, V)

    @pytest.mark.parametrize("n", [0, 1, 5, 64])
    def test_y_pair_sizes(self, n):
        U, V = kernel_pair_y(n)
        terms = lambda s: sum(len(a.coeffs) for a in s.coeffs.values())
        assert terms(U) == 4
        assert terms(V) == 4 * n + 4

    def test_y_relation_maps_to_x_relation(self):
        for p, q, n in [(0, 1, 2), (1, 3, 4), (2, 5, 7)]:
            xs = {i: c.change_basis() for i, c in pairwise_relation_y(p, q).items()}
            assert tuple(xs.get(i, SkewLaurent.zero()) for i in range(n)) == pairwise_relation(p, q, n)


class TestDefiningMap:
    def test_kills_zero(self):
        z = SkewLaurent.zero()
        assert defining_map(z, z).is_zero()

    def test_diagonal_unit(self):
        one = SkewLaurent.one()
        assert defining_map(one, one) == SkewLaurent.t(1, x_diff(1))

    def test_first_slot_alone(self):
        got = defining_map(SkewLaurent.one(), SkewLaurent.zero())
        want = SkewLaurent.one() - SkewLaurent.t(1, one_minus_x(0))
        assert got == want


class TestKernelPairs:
    def test_smallest_pair_frozen_form(self):
        U, V = kernel_pair(0)
        z0, z1 = x_diff(0), x_diff(1)
        assert U == sk(z0) - SkewLaurent.t(1, z1 * one_minus_x(0))
        assert V == sk(z0) - SkewLaurent.t(1, z1 * one_minus_x(-1))

    @pytest.mark.parametrize("n", range(13))
    def test_killed_by_defining_map(self, n):
        U, V = kernel_pair(n)
        assert defining_map(U, V).is_zero()

    def test_layer_built_pair_matches_dot_oracle(self):
        for n in range(17):
            assert kernel_pair_y(n) == kernel_pair_y_oracle(n)

    def test_disagreeing_spellings_exit_four(self, capsys, monkeypatch, cold_caches):
        # The literal spelling of f is proved against the y factors once per
        # command, when they are built; a wrong one stops the command.
        import freenil.syzygy as syzygy

        monkeypatch.setattr(syzygy, "one_minus_x", lambda i: LaurentPoly.x(i))
        syzygy._defining_factors.cache_clear()
        assert main(["grouph", "verify-kernel", "--max-n", "2"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["invariant"] == "two spellings of the defining map disagree"
        monkeypatch.undo()
        syzygy._defining_factors.cache_clear()
        assert main(["grouph", "verify-kernel", "--max-n", "2"]) == 0

    def test_t_support(self):
        U, V = kernel_pair(4)
        assert U.val_deg() == (0, 5)
        assert V.val_deg() == (0, 5)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            kernel_pair(-1)

    def test_y_run_empty_when_reversed(self):
        assert y_run(0, 1) == LaurentPoly.one()
        assert y_run(0, 0) == one_minus_x(0)
        assert y_run(0, -1) == one_minus_x(0) * one_minus_x(-1)


class TestBoundedKernelCheck:
    @pytest.mark.parametrize("n", range(7))
    def test_pairs_pass_at_their_bound(self, n):
        U, V = kernel_pair(n)
        assert bounded_kernel_check(U, V, n + 1) is True

    def test_diagonal_unit_fails(self):
        one = SkewLaurent.one()
        assert bounded_kernel_check(one, one, 0) is False

    def test_zero_passes(self):
        z = SkewLaurent.zero()
        assert bounded_kernel_check(z, z, 0) is True

    def test_degree_overflow_fails(self):
        U, V = kernel_pair(2)
        assert bounded_kernel_check(U, V, 2) is False

    def test_negative_valuation_fails(self):
        U, V = kernel_pair(1)
        tinv = SkewLaurent.t(-1)
        assert bounded_kernel_check(U * tinv, V * tinv, 3) is False


class TestPairwiseRelation:
    def test_explicit_small_case(self):
        X = pairwise_relation(0, 1, 2)
        assert X[0] == -sk(x_diff(-1)) - SkewLaurent.t(1, x_diff(1) * one_minus_x(0))
        assert X[1] == sk(x_diff(0))

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)])
    def test_validates_at_minimal_arity(self, p, q):
        X = pairwise_relation(p, q, q + 1)
        assert len(X) == q + 1 and not all(c.is_zero() for c in X)

    def test_collision_slot(self):
        # q = 2p + 1 drops the twisted correction onto slot p.
        X = pairwise_relation(1, 3, 4)
        assert X[1] == -sk(x_diff(-3)) - SkewLaurent.t(
            2, x_diff(1) * one_minus_x(0) * one_minus_x(-1)
        )

    @pytest.mark.parametrize("p,q,n", [(1, 1, 3), (2, 1, 3), (0, 3, 3), (-1, 1, 3)])
    def test_bad_indices_rejected(self, p, q, n):
        with pytest.raises(ValueError):
            pairwise_relation(p, q, n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_last_projection(self, n):
        for p in range(n - 1):
            got = pairwise_relation(p, n - 1, n)[-1]
            assert got == sk(x_diff(-p))

    def test_fresh_relation_proved_once(self, monkeypatch):
        import freenil.syzygy as syzygy

        clear_relation_caches()
        calls = []
        real = syzygy._check_relation_y
        monkeypatch.setattr(syzygy, "_check_relation_y", lambda c: calls.append(1) or real(c))
        pairwise_relation(2, 5, 7)
        assert len(calls) == 1

    def test_relation_proved_once_across_arities(self, monkeypatch):
        import freenil.syzygy as syzygy

        clear_relation_caches()
        calls = []
        real = syzygy._check_relation_y
        monkeypatch.setattr(syzygy, "_check_relation_y", lambda c: calls.append(1) or real(c))
        heads = set()
        for n in (9, 4, 6, 12):
            ys, xs = pairwise_relation_y(1, 3), relation_x(1, 3)
            dense = pairwise_relation(1, 3, n)
            # q - p - 1 = p here, so X(1, 3) has two entries, and no zero is stored.
            assert sorted(ys) == sorted(xs) == [1, 3]
            assert not any(c.is_zero() for c in [*ys.values(), *xs.values()])
            assert len(dense) == n and all(c.is_zero() for c in dense[4:])
            heads.add((tuple(sorted(ys.items())), tuple(sorted(xs.items())), dense[:4]))
        assert len(heads) == 1
        assert len(calls) == 1

    def test_forged_vector_rejected(self):
        with pytest.raises(ValueError):
            RelationVector(2, {0: SkewLaurent.one()})

    @pytest.mark.parametrize("n,c", [
        (4, {4: SkewLaurent.one()}),
        (4, {-1: SkewLaurent.one()}),
        (0, {}),
        (-1, {}),
        (4, {1: SkewLaurent.zero()}),
    ], ids=["index-n", "negative-index", "arity-zero", "negative-arity", "stored-zero"])
    def test_shape_rejected(self, n, c):
        with pytest.raises(ValueError, match="need n >= 1"):
            RelationVector(n, c)

    def test_negative_exponents_validate(self):
        # The y-basis check first clears x-denominators with a right unit.
        w = SkewLaurent.t(-2, 3 * LaurentPoly.x(2, -3) * LaurentPoly.x(-1, -1))
        X = combine(4, (pairwise_relation(1, 3, 4), w))
        forged = dict(X.c)
        forged[0] = forged.get(0, SkewLaurent.zero()) + sk(LaurentPoly.x(0, -1))
        with pytest.raises(ValueError, match="not a relation"):
            RelationVector(4, forged)


def accepted(check, *args) -> bool:
    """Does check(*args) return rather than raise ValueError?"""
    try:
        check(*args)
    except ValueError:
        return False
    return True


def terms_in(a: SkewLaurent) -> int:
    return sum(len(layer.coeffs) for layer in a.coeffs.values())


nonzero_skews = small_skews.filter(lambda a: not a.is_zero())


class TestRelationProof:
    """The library multiplies out sum U_i c_i alone; `two_sided_relation` also
    multiplies out sum V_i c_i, which f(W_i) = 0 makes redundant."""

    @settings(settings.get_profile("ci"), max_examples=120)
    @given(st.integers(2, 8), st.data())
    def test_accepts_exactly_what_the_two_sided_oracle_accepts(self, n, data):
        import freenil.syzygy as syzygy

        pairs = st.integers(1, n - 1).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q)))
        terms = data.draw(st.lists(st.tuples(pairs, nonzero_skews), min_size=1, max_size=3))
        perturb = data.draw(st.none() | st.tuples(st.integers(0, n - 1), nonzero_skews))
        # In y: right-combinations of the proven relations, read off `pairwise_relation_y`.
        ys = [SkewLaurent.zero()] * n
        for (p, q), w in terms:
            for i, ci in pairwise_relation_y(p, q).items():
                ys[i] = ys[i] + ci * w
        # In x: the same right factors read as x elements, through the clearing unit.
        xs = [SkewLaurent.zero()] * n
        for (p, q), w in terms:
            xs = [a + b * w for a, b in zip(xs, pairwise_relation(p, q, n))]
        if perturb is not None:
            i, delta = perturb
            ys[i], xs[i] = ys[i] + delta, xs[i] + delta
        y_entries = [(i, c) for i, c in enumerate(ys) if not c.is_zero()]
        x_entries = {i: c for i, c in enumerate(xs) if not c.is_zero()}
        # A perturbation at one index moves sum U_i c_i by U_i delta != 0.
        valid = perturb is None
        assert accepted(syzygy._check_relation_y, y_entries) == two_sided_relation(y_entries) == valid
        assert accepted(RelationVector, n, x_entries) == valid
        assert two_sided_relation(x_entries.items(), kernel_pair) == valid

    def test_planted_t5_rejected(self):
        import freenil.syzygy as syzygy

        w = SkewLaurent.t(1, LaurentPoly.x(-1, 2) - 3 * LaurentPoly.x(2, -1))
        c = {i: ci * w for i, ci in pairwise_relation_y(2, 5).items()}
        assert accepted(syzygy._check_relation_y, c.items()) and two_sided_relation(c.items())
        c[5] = c[5] + SkewLaurent.t(5)
        assert not accepted(syzygy._check_relation_y, c.items()) and not two_sided_relation(c.items())
        X = combine(6, (pairwise_relation(2, 5, 6), w))
        forged = {**X.c, 5: X.c[5] + SkewLaurent.t(5)}
        assert not two_sided_relation(forged.items(), kernel_pair)
        with pytest.raises(ValueError, match="not a relation"):
            RelationVector(6, forged)

    def test_proof_work_is_constant_in_q(self, monkeypatch):
        # Sum over the proof's `dot` pairs of |a| |b| in terms: U_i has 4 terms
        # and each X(p, q) has 6, so 24 for every (p, q); the V side, skipped,
        # has 4i + 4 terms.
        import freenil.syzygy as syzygy

        for i in range(64):
            kernel_pair_y(i)  # proved before counting: f(W_i) is a `dot` of its own
        clear_relation_caches()
        work, active = [], []
        real_dot, real_check = syzygy.dot, syzygy._check_relation_y

        def counting(pairs):
            pairs = list(pairs)
            if active:
                work[-1] += sum(terms_in(a) * terms_in(b) for a, b in pairs)
            return real_dot(pairs)

        def check(entries):
            active.append(1)
            try:
                real_check(entries)
            finally:
                active.pop()

        monkeypatch.setattr(syzygy, "dot", counting)
        monkeypatch.setattr(syzygy, "_check_relation_y", check)
        for q in range(1, 64):
            for p in range(q):
                work.append(0)
                pairwise_relation_y(p, q)
                assert work[-1] == 24, (p, q)


small_polys = st.dictionaries(
    st.tuples(st.integers(-3, 0), st.integers(-2, 2).filter(bool)).map(lambda p: (p,)),
    st.integers(-3, 3).filter(bool),
    max_size=2,
).map(LaurentPoly)


def decompose_in_y(a: LaurentPoly, n: int):
    """`ideal_decompose` on an x-Laurent a, given as its y numerator over the
    clearing unit x^M; the a_j come back as x elements, or None."""
    unit, _ = clearing_unit([a])
    got = ideal_decompose((a * unit).change_basis(), pack(next(iter(unit.terms()))), n)
    if got is None:
        return None
    parts, D = got
    return [aj.change_basis() * LaurentPoly({unpack(-D): 1}) for aj in parts]


class TestIdealDecompose:
    # The library decomposes y numerators over x-monomial denominators; each
    # case reads its a_j back in x, and must also be what the x oracle gives.
    def test_telescoping_example(self):
        a = LaurentPoly.x(-2) - LaurentPoly.x(0)
        got = decompose_in_y(a, 3)
        assert got == ideal_decompose_x(a, 3) == [LaurentPoly.one(), LaurentPoly.one(), LaurentPoly.zero()]

    def test_non_member(self):
        assert decompose_in_y(LaurentPoly.x(1), 2) is None
        assert decompose_in_y(LaurentPoly.one(), 5) is None

    def test_generator_times_unit(self):
        a = x_diff(-3) * LaurentPoly.x(3)
        got = decompose_in_y(a, 4)
        assert got is not None and got == ideal_decompose_x(a, 4)
        rebuilt = LaurentPoly.zero()
        for j, aj in enumerate(got):
            rebuilt = rebuilt + x_diff(-j) * aj
        assert rebuilt == a

    def test_zero_is_member(self):
        assert decompose_in_y(LaurentPoly.zero(), 2) == [LaurentPoly.zero()] * 2

    def test_inverse_exponents_handled(self):
        a = LaurentPoly.x(-1, -2) - LaurentPoly.x(0, -2)
        got = decompose_in_y(a, 1)
        assert got is not None and got == ideal_decompose_x(a, 1)
        assert x_diff(0) * got[0] == a

    @given(st.lists(small_polys, min_size=1, max_size=3))
    @settings(max_examples=50)
    def test_membership_round_trip(self, parts):
        n = len(parts)
        a = LaurentPoly.zero()
        for j, aj in enumerate(parts):
            a = a + x_diff(-j) * aj
        got = decompose_in_y(a, n)
        assert got is not None and got == ideal_decompose_x(a, n)
        rebuilt = LaurentPoly.zero()
        for j, aj in enumerate(got):
            rebuilt = rebuilt + x_diff(-j) * aj
        assert rebuilt == a

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            ideal_decompose(LaurentPoly.one(), 0, 0)
        with pytest.raises(ValueError):
            ideal_decompose_x(LaurentPoly.one(), 0)

    def test_not_linear_over_the_clearing_unit(self):
        # Decomposing the cleared numerator and dividing each a_j by the unit
        # gives another decomposition of a, with other a_j (so another descent
        # trace): Delta_j does not commute with a unit at x_{-j}.  The P/D rule
        # gives the x oracle's a_j.
        a = x_diff(-1) * LaurentPoly.x(-3, -1) * LaurentPoly.x(-1, -1)
        unit, inverse = clearing_unit([a])
        naive = [aj * inverse for aj in ideal_decompose_x(a * unit, 3)]
        assert naive == [LaurentPoly.zero(), LaurentPoly.x(-3, -1) * LaurentPoly.x(-1, -1), LaurentPoly.zero()]
        want = ideal_decompose_x(a, 3)
        assert want[1] == LaurentPoly.x(-2, -1) * LaurentPoly.x(-1, -1) and not want[2].is_zero()
        assert decompose_in_y(a, 3) == want

    @given(st.integers(1, 4), st.data())
    @settings(settings.get_profile("ci"), max_examples=60)
    def test_laurent_inputs_match_the_x_oracle(self, n, data):
        # Negative exponents at x_{-j} and x_{1-j}, members and non-members:
        # every a_j is the oracle's as an x element.
        def mono():
            j = data.draw(st.integers(0, n))
            return LaurentPoly({((-j, data.draw(st.integers(-2, 2).filter(bool))),
                                 (1 - j, data.draw(st.integers(-2, 2).filter(bool)))): 1})

        a = LaurentPoly.zero()
        for j in range(n):
            for _ in range(data.draw(st.integers(0, 2))):
                a = a + data.draw(st.sampled_from([-2, -1, 1, 3])) * (x_diff(-j) * mono())
        if data.draw(st.booleans()):
            a = a + mono()  # usually leaves the ideal
        assert decompose_in_y(a, n) == ideal_decompose_x(a, n)


class TestComplexity:
    def test_raw_single_entry(self):
        chi = complexity(unchecked(1, {0: SkewLaurent.t(2, x_diff(1))}))
        assert astuple(chi) == (2, 2, 0)

    def test_relation_profile(self):
        X = RelationVector(4, relation_x(0, 3))
        assert astuple(complexity(X)) == (0, 0, 3)

    def test_vanishing_last_component(self):
        X = RelationVector(3, relation_x(0, 1))
        chi = complexity(X)
        assert chi.alpha == math.inf and chi.beta == 0 and chi.gamma == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            complexity(RelationVector(1, {}))

    def test_order_prefers_higher_alpha(self):
        assert Complexity(3, 1, 2) < Complexity(2, 1, 2)
        assert Complexity(2, 2, 1) < Complexity(2, 1, 1)
        assert Complexity(2, 1, 0) < Complexity(2, 1, 3)
        assert not Complexity(2, 1, 3) < Complexity(2, 1, 3)

    def test_profile_must_be_consistent(self):
        with pytest.raises(InvariantError):
            Complexity(1, 2, 0)


class TestReduceStep:
    def test_scaled_relation_one_step(self):
        X = combine(4, (pairwise_relation(0, 2, 4), SkewLaurent.t(3)))
        chi = complexity(X)
        Y = reduce_step(X)
        assert Y.is_zero() or complexity(Y) < chi

    def test_gamma_zero_breaks_the_layer_identity(self):
        # Validation rules gamma = 0 out, so build the vector around it: the
        # identity z_0 * layer_0 = 0 fails first.
        X = unchecked(2, {0: SkewLaurent.one()})
        assert complexity(X).gamma == 0
        with pytest.raises(InvariantError, match="lowest-layer identity"):
            reduce_step(X)

    def test_zero_vector_rejected(self):
        Z = RelationVector(2, {})
        with pytest.raises(ValueError):
            reduce_step(Z)

    @pytest.mark.parametrize("seed", range(6))
    def test_chains_terminate_and_descend(self, seed):
        rng = Random(seed)
        X = random_relation(rng.randint(2, 5), rng)
        if X.is_zero():
            return
        trace = reduce_chain(X)
        assert trace[-1].is_zero()
        chis = [complexity(v) for v in trace[:-1]]
        assert all(b < a for a, b in zip(chis, chis[1:]))

    def test_outputs_stay_validated(self):
        X = combine(
            4,
            (pairwise_relation(1, 2, 4), SkewLaurent.t(1, LaurentPoly.x(-1))),
            (pairwise_relation(0, 3, 4), SkewLaurent.const(2)),
        )
        Y = reduce_step(X)
        assert isinstance(Y, RelationVector)
        # Constructing a copy revalidates the membership condition.
        RelationVector(Y.n, Y.c)


    def test_all_pairs_at_arity_14_multiply_only_stored_entries(self, capsys, monkeypatch):
        import freenil.skewpoly as skewpoly
        import freenil.syzygy as syzygy

        kernel_pair_y.cache_clear()
        syzygy._defining_factors.cache_clear()
        clear_relation_caches()
        calls, idle = [], []
        real = skewpoly.dot

        def counting(pairs):
            pairs = list(pairs)
            calls.append(1)
            if all(a.is_zero() or b.is_zero() for a, b in pairs):
                idle.append(1)
            return real(pairs)

        monkeypatch.setattr(skewpoly, "dot", counting)
        monkeypatch.setattr(syzygy, "dot", counting)
        flags = [x for q in range(1, 14) for p in range(q) for x in ("--pair", f"{p},{q}")]
        assert main(["grouph", "reduce", "--arity", "14", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["data"]["trace"][-1] == "zero"
        # Zipping dense tuples against the state took 1,673 calls, 1,010 of
        # them on zeros alone.  Now only the proof of the final zero state
        # sums nothing: one empty sum.  The defining map builds its four
        # factors once (4 calls), not once per kernel pair (4 x 14), and each
        # of the 14 kernel pairs is proved with one `dot`: its V is built
        # from its layers, and the literal spelling of f is checked on the
        # factors, not multiplied again (465 calls before, 3 per pair).  Each
        # of the 91 descent terms' right factors -t^beta a_j.shift(-beta) is
        # built as one term, not as a product (437 calls before).  The 118
        # state calls are one per touched index.  Each of the 105 relation
        # proofs (91 pairwise relations, 14 descent states) is one `dot` on
        # the U side, not one per side (346 calls before): 4 + 14 + 118 + 105.
        assert len(calls) == 241
        assert len(idle) == 1


class TestSharedPieces:
    def test_commands_leave_every_shared_piece_as_built(self, capsys, cold_caches):
        # The y-coordinate pieces, the relations and the generators are
        # cached and shared by every caller in a command; none may change them.
        import freenil.syzygy as syzygy

        for argv in (["grouph", "relations", "--max-q", "8"], ["grouph", "collapse", "--max-n", "8"],
                     ["grouph", "reduce", "--arity", "6", "--count", "5", "--seed", "3"]):
            assert main(argv) == 0
        capsys.readouterr()
        for i in range(-10, 3):
            assert format_poly(syzygy._z(i)) == format_poly(fresh_z(i))
            assert format_poly(syzygy._yrun(0, i)) == format_poly(fresh_yrun(0, i))
            assert format_skew(syzygy._generator(i)) == format_skew(sk(fresh_z(i)))
            fresh_x = LaurentPoly.x(i - 1) - LaurentPoly.x(i)
            assert format_poly(x_diff(i)) == format_poly(fresh_x)
            assert format_skew(syzygy._collapsed_generator(-i)[0]) == format_skew(sk(fresh_x))
        for p in range(10):
            tail = SkewLaurent.t(p + 1, fresh_z(1) * fresh_yrun(0, -p))
            assert format_skew(syzygy._tail(p)) == format_skew(tail)
        for q in range(1, 9):
            for p in range(q):
                fresh = fresh_relation_y(p, q)
                assert {i: format_skew(c) for i, c in pairwise_relation_y(p, q).items()} == {
                    i: format_skew(c) for i, c in fresh.items()}
                assert list(map(format_skew, pairwise_relation(p, q, q + 1))) == [
                    format_skew(fresh[i].change_basis() if i in fresh else SkewLaurent.zero())
                    for i in range(q + 1)]
        for n in range(10):
            assert list(map(format_skew, kernel_pair_y(n))) == list(
                map(format_skew, kernel_pair_y.__wrapped__(n)))
        assert list(map(format_skew, syzygy._defining_factors())) == list(
            map(format_skew, syzygy._defining_factors.__wrapped__()))


class TestXDescentOracle:
    # The x descent in kernel_oracles, as the library ran it before it held
    # states in y; the y descent is checked against it below.
    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_chains_terminate_and_descend(self, seed):
        rng = Random(seed)
        X = random_relation_x(rng.randint(2, 5), rng)
        trace = reduce_chain_x(X)
        assert not trace[-1].c
        chis = [complexity_x(v) for v in trace[:-1]]
        assert all(b < a for a, b in zip(chis, chis[1:]))

    def test_oracle_gamma_zero_breaks_the_layer_identity(self):
        with pytest.raises(InvariantError, match="lowest-layer identity"):
            reduce_step_x(unchecked(2, {0: SkewLaurent.one()}))

    def test_oracle_states_are_the_library_states(self):
        X = combine(4, (pairwise_relation(1, 2, 4), SkewLaurent.t(1, LaurentPoly.x(-1))),
                    (pairwise_relation(0, 3, 4), SkewLaurent.const(2)))
        assert reduce_step_x(X) == reduce_step(X)


def chi_trace_y(X) -> list:
    return [complexity(v) for v in reduce_chain(X)[:-1]] + ["zero"]


class TestTracesMatchTheXDescent:
    # Every a_j of the y descent is the x descent's ring element, so each
    # step lands on the same state and the chi traces agree.
    @settings(settings.get_profile("ci"), max_examples=60)
    @given(st.integers(2, 10), st.integers(0, 10**6))
    def test_random_relations(self, n, seed):
        X = random_relation(n, Random(seed))
        assert X == random_relation_x(n, Random(seed))
        if not X.is_zero():
            assert chi_trace_y(X) == chi_trace_x(X)

    @settings(settings.get_profile("ci"), max_examples=60)
    @given(st.integers(2, 10).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, n - 1).flatmap(
            lambda q: st.tuples(st.integers(0, q - 1), st.just(q))), min_size=1, max_size=8))))
    def test_pair_sums(self, case):
        n, pairs = case
        _, steps = reduce_pair_sum(pairs, n)
        start = descent_state_x(n, [(p, q, SkewLaurent.one()) for p, q in pairs])
        want = [f"chi=({c.alpha}, {c.beta}, {c.gamma})" for c in chi_trace_x(start)[:-1]]
        assert steps == want + ["zero"]

    @pytest.mark.parametrize("seed", [2, 3, 4, 8, 20])
    def test_states_are_in_lowest_terms(self, seed, monkeypatch):
        # Each of these chains cancels a factor x_i = 1 - y_i from a state:
        # its x view is still the x descent's state, it revalidates from that
        # view, and its denominator is the least monomial that clears it.
        import freenil.syzygy as syzygy

        cancelled, real = [], syzygy._divided

        def counting(comps, i):
            quotients = real(comps, i)
            cancelled.append(quotients is not None)
            return quotients

        monkeypatch.setattr(syzygy, "_divided", counting)
        rng = Random(seed)
        X = random_relation(rng.randint(3, 7), rng)
        y_trace, x_trace = reduce_chain(X), reduce_chain_x(X)
        assert any(cancelled)
        assert [v.c for v in y_trace] == [v.c for v in x_trace]
        for v in y_trace:
            unit, _ = clearing_unit(a for c in v.c.values() for a in c.coeffs.values())
            assert v.M == pack(next(iter(unit.terms()), ()))
            assert RelationVector(v.n, v.c) == v


class TestRandomRelation:
    @staticmethod
    def chained(n, rng, spread=2):
        # The draw order of `random_relation`, summed by `combine`.
        terms = []
        pairs = [(p, q) for q in range(1, n) for p in range(q)]
        rng.shuffle(pairs)
        used = 0
        for p, q in pairs:
            if used >= 2 and rng.random() < 0.5:
                break
            mono = LaurentPoly.x(rng.randint(-spread, spread), rng.randint(-1, 1))
            coef = rng.choice([-2, -1, 1, 2]) * mono
            w = SkewLaurent.t(rng.randint(0, spread), coef)
            terms.append((pairwise_relation(p, q, n), w))
            used += 1
        return combine(n, *terms)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_chained_sum(self, seed):
        n = 2 + seed % 5
        got = random_relation(n, Random(seed))
        assert got == self.chained(n, Random(seed))

    def test_validated_once(self, monkeypatch):
        import freenil.syzygy as syzygy

        n, seed = 6, 3
        self.chained(n, Random(seed))  # fill the pairwise cache
        calls = []
        real = syzygy._check_relation_y
        monkeypatch.setattr(syzygy, "_check_relation_y", lambda c: calls.append(1) or real(c))
        random_relation(n, Random(seed))
        assert len(calls) == 1


class TestVerifiers:
    def test_kernel_pair_items(self, capsys):
        items = verify_kernel_pairs(4)
        assert main(["grouph", "verify-kernel", "--max-n", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [asdict(i) for i in items] == report["items"]

    def test_relation_items(self):
        items = verify_relations(4)
        assert all(i.ok for i in items)

    def test_reduction_items(self):
        items = verify_reduction(arity=4, count=10, seed=11)
        assert len(items) == 10 and all(i.ok for i in items)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_collapse_certificate(self, n):
        items = collapse_certificate(n)
        assert all(i.ok for i in items)

    @settings(settings.get_profile("ci"), max_examples=150)
    @given(st.integers(1, 12), st.sampled_from([1, 20, 200]), st.sampled_from([0, 7, 12345]))
    def test_collapse_certificate_matches_the_uncached_oracle(self, n, samples, seed):
        assert collapse_certificate(n, samples, seed) == collapse_certificate_oracle(n, samples, seed)

    @pytest.mark.parametrize("max_q", range(13))
    def test_relation_items_match_the_per_pair_oracle(self, max_q, cold_caches):
        assert verify_relations(max_q) == verify_relations_oracle(max_q)

    def test_relations_convert_each_last_component_once(self, monkeypatch, cold_caches):
        import freenil.syzygy as syzygy

        conversions = []
        real = SkewLaurent.change_basis
        monkeypatch.setattr(SkewLaurent, "change_basis", lambda c: conversions.append(1) or real(c))
        q = 10
        verify_relations(q)
        # the q(q+1)/2 = 55 last projections share q distinct components
        assert len(conversions) == q
        info = syzygy._projection_texts.cache_info()
        assert (info.misses, info.hits) == (q, q * (q + 1) // 2 - q)

    def test_draws_are_the_randrange_stream(self):
        # collapse_certificate reads getrandbits directly; the stream, and so
        # every report, must be the one Random.randrange reads.
        from freenil.syzygy import _below

        for seed in range(40):
            ours, theirs = Random(seed), Random(seed)
            for n in range(1, 65):
                for _ in range(5):
                    assert _below(ours.getrandbits, n, n.bit_length()) == theirs.randrange(n)
                assert ours.getstate() == theirs.getstate()

    def test_collapse_forms_each_distinct_sample_product_once(self, capsys, monkeypatch):
        import freenil.syzygy as syzygy

        formed = []
        real = syzygy.collapse_dot
        monkeypatch.setattr(syzygy, "collapse_dot", lambda pairs: formed.append(1) or real(pairs))
        syzygy._sample_collapses.cache_clear()
        assert main(["grouph", "collapse", "--max-n", "7"]) == 0
        capsys.readouterr()
        # 7 stages of 20 draws: 140 lookups, 92 distinct products, each formed once
        info = syzygy._sample_collapses.cache_info()
        assert (info.misses, info.hits) == (92, 48)
        assert len(formed) == 92

    @pytest.mark.parametrize("left", [SkewLaurent.one(), SkewLaurent.from_poly(LaurentPoly.x(0))])
    def test_samples_item_sees_a_left_factor_outside_the_ideal(self, left, monkeypatch):
        import freenil.syzygy as syzygy

        # Every drawn product of a generator lies in the ideal, so only a left
        # factor outside it shows that the samples are formed and collapsed.
        monkeypatch.setattr(syzygy, "_collapsed_generator", lambda j: (left, False))
        syzygy._sample_collapses.cache_clear()
        try:
            items = {i.name: i for i in collapse_certificate(3, 40, 7)}
        finally:
            syzygy._sample_collapses.cache_clear()
        samples = items["random right multiples collapse to zero"]
        assert samples.expected == "40" and int(samples.got) < 40 and not samples.ok

    @pytest.mark.parametrize("j", range(3))
    def test_each_sample_matches_its_collapsed_product(self, j):
        import freenil.syzygy as syzygy

        z = SkewLaurent.from_poly(x_diff(-j))
        for s, a, b, c in itertools.product(range(-2, 3), repeat=4):
            w = SkewLaurent.t(s, LaurentPoly.x(a, b) + LaurentPoly.const(c))
            assert syzygy._sample_collapses.__wrapped__(j, s, a, b, c) == (z * w).collapse().is_zero()
