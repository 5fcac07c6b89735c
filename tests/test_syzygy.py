"""Kernel pairs, pairwise relations, ideal membership, and descent.

The oracle for every identity here is exact expansion in the twisted ring
(itself law-tested in test_skewpoly).  Hand-frozen small cases pin the
formulas; property runs exercise descent termination and round-trips.
The library builds pairs and relations in y-coordinates; the direct
x-coordinate constructors below are kept as references for their images.
"""

import json
import math
from dataclasses import asdict, astuple
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from freenil.cli import main
from freenil.errors import InvariantError
from freenil.laurent import LaurentPoly, format_poly, one_minus_x, x_diff
from freenil.skewpoly import SkewLaurent, format_skew
from freenil.syzygy import (
    Complexity,
    kernel_pair_y,
    pairwise_relation_x,
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
    reduce_step,
    verify_kernel_pairs,
    verify_relations,
    verify_reduction,
)

from kernel_oracles import (
    bounded_kernel_check,
    collapse_certificate_oracle,
    fresh_relation_y,
    fresh_yrun,
    fresh_z,
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
    """A RelationVector that skips validation, for raw complexity profiles."""
    X = object.__new__(RelationVector)
    object.__setattr__(X, "n", n)
    object.__setattr__(X, "c", c)
    return X


def clear_relation_caches():
    pairwise_relation.cache_clear()
    pairwise_relation_x.cache_clear()
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
            assert xs == pairwise_relation_x(p, q)
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
            ys, xs = pairwise_relation_y(1, 3), pairwise_relation_x(1, 3)
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


small_polys = st.dictionaries(
    st.tuples(st.integers(-3, 0), st.integers(-2, 2).filter(bool)).map(lambda p: (p,)),
    st.integers(-3, 3).filter(bool),
    max_size=2,
).map(LaurentPoly)


class TestIdealDecompose:
    def test_telescoping_example(self):
        a = LaurentPoly.x(-2) - LaurentPoly.x(0)
        got = ideal_decompose(a, 3)
        assert got == [LaurentPoly.one(), LaurentPoly.one(), LaurentPoly.zero()]

    def test_non_member(self):
        assert ideal_decompose(LaurentPoly.x(1), 2) is None
        assert ideal_decompose(LaurentPoly.one(), 5) is None

    def test_generator_times_unit(self):
        a = x_diff(-3) * LaurentPoly.x(3)
        got = ideal_decompose(a, 4)
        assert got is not None
        rebuilt = LaurentPoly.zero()
        for j, aj in enumerate(got):
            rebuilt = rebuilt + x_diff(-j) * aj
        assert rebuilt == a

    def test_zero_is_member(self):
        assert ideal_decompose(LaurentPoly.zero(), 2) == [LaurentPoly.zero()] * 2

    def test_inverse_exponents_handled(self):
        a = LaurentPoly.x(-1, -2) - LaurentPoly.x(0, -2)
        got = ideal_decompose(a, 1)
        assert got is not None
        assert x_diff(0) * got[0] == a

    @given(st.lists(small_polys, min_size=1, max_size=3))
    @settings(max_examples=50)
    def test_membership_round_trip(self, parts):
        n = len(parts)
        a = LaurentPoly.zero()
        for j, aj in enumerate(parts):
            a = a + x_diff(-j) * aj
        got = ideal_decompose(a, n)
        assert got is not None
        rebuilt = LaurentPoly.zero()
        for j, aj in enumerate(got):
            rebuilt = rebuilt + x_diff(-j) * aj
        assert rebuilt == a

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            ideal_decompose(LaurentPoly.one(), 0)


class TestComplexity:
    def test_raw_single_entry(self):
        chi = complexity(unchecked(1, {0: SkewLaurent.t(2, x_diff(1))}))
        assert astuple(chi) == (2, 2, 0)

    def test_relation_profile(self):
        X = RelationVector(4, dict(pairwise_relation_x(0, 3)))
        assert astuple(complexity(X)) == (0, 0, 3)

    def test_vanishing_last_component(self):
        X = RelationVector(3, dict(pairwise_relation_x(0, 1)))
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
        # sums nothing: one empty sum per side.  The defining map builds its
        # four factors once (4 calls), not once per kernel pair (4 x 14).
        assert len(calls) == 465
        assert len(idle) == 2


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
                assert {i: format_skew(c) for i, c in pairwise_relation_x(p, q).items()} == {
                    i: format_skew(c.change_basis()) for i, c in fresh.items()}
        for n in range(10):
            assert list(map(format_skew, kernel_pair_y(n))) == list(
                map(format_skew, kernel_pair_y.__wrapped__(n)))
        assert list(map(format_skew, syzygy._defining_factors())) == list(
            map(format_skew, syzygy._defining_factors.__wrapped__()))


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

    def test_collapse_forms_each_distinct_sample_product_once(self, capsys):
        import freenil.syzygy as syzygy

        syzygy._sample_collapses.cache_clear()
        assert main(["grouph", "collapse", "--max-n", "7"]) == 0
        capsys.readouterr()
        # 7 stages of 20 draws: 140 lookups, 92 distinct products
        info = syzygy._sample_collapses.cache_info()
        assert (info.misses, info.hits) == (92, 48)
