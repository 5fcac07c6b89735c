"""Word combinatorics: primitivity, canonical rotations, enumeration, sieve.

Expected values come from brute-force oracles defined at the top of this
file (rotation enumeration, proper-power search, a divisor-sum class
count) and are never copied from the implementation under test.
"""

import heapq
import itertools
from random import Random
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from freenil import words
from freenil.errors import InvariantError
from freenil.words import (
    Alphabet,
    aperiodic_necklace_count,
    as_word,
    cyclic_canonical,
    is_reduced,
    prefix_extensions,
    primitive_classes,
    sieve,
    verify_admissible,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


# Oracles.

def rotate(u, k):
    if not u:
        return u
    k %= len(u)
    return u[k:] + u[:k]


def brute_min_rotation(u, letters="ab"):
    # Least rotation in the declared letter order, by direct comparison.
    return min((u[k:] + u[:k] for k in range(len(u))),
               key=lambda w: [letters.index(l) for l in w])


def brute_is_primitive(u):
    n = len(u)
    for d in range(1, n):
        if n % d == 0 and u[:d] * (n // d) == u:
            return False
    return True


def brute_class_count(k, n):
    # Divisor sum with an independently tabulated Moebius function.
    mob = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0}
    total = sum(mob[d] * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def brute_classes(alphabet, bound):
    # Independent enumeration of all k^n words: dedup primitive words by
    # their rotation sets.
    seen = set()
    out = set()
    for n in range(1, bound + 1):
        for w in itertools.product(alphabet.letters, repeat=n):
            if brute_is_primitive(w) and w not in seen:
                rotations = {w[k:] + w[:k] for k in range(len(w))}
                seen |= rotations
                out.add(brute_min_rotation(w, alphabet.letters))
    return out


def reference_sieve(alphabet, bound):
    # The original O(census^2) sieve: rebuild the whole pool from its prefix
    # extensions each step and scan it for the least word.
    letters = [(l,) for l in alphabet.letters]
    if len(alphabet) <= 1:
        return letters
    pool = set(letters)
    emitted = []
    while pool:
        pivot = min(pool, key=alphabet.sort_key)
        emitted.append(pivot)
        pool = prefix_extensions(pool, pivot, bound)
    return emitted


def heap_sieve(alphabet, bound):
    # The in-place heap sieve, the large-bound oracle: a heap keyed by
    # (length, letter ranks) yields each pivot, a set holds the live pool,
    # and per-length buckets, filtered against the pool before every pivot,
    # supply the sources.
    letters = [(l,) for l in alphabet.letters]
    heap = [(1, alphabet.key(w), w) for w in letters]
    heapq.heapify(heap)
    pool = set(letters)
    buckets = [[] for _ in range(bound + 1)]
    buckets[1] = [(key, w) for _, key, w in heap]
    emitted = []
    while heap:
        m, pivot_key, pivot = heapq.heappop(heap)
        pool.remove(pivot)
        emitted.append(pivot)
        sources = []
        for n in range(1, bound - m + 1):
            buckets[n] = [entry for entry in buckets[n] if entry[1] in pool]
            sources.extend(buckets[n])
        for key, w in sources:
            n = len(w) + m
            while n <= bound:
                key, w = pivot_key + key, pivot + w
                if w not in pool:
                    pool.add(w)
                    heapq.heappush(heap, (n, key, w))
                    buckets[n].append((key, w))
                n += m
    return emitted


words_ab = st.text(alphabet="ab", min_size=1, max_size=12).map(as_word)

# Largest bound per letter count with a class census of about 1,000 or less
# (1 letter: 1 class at any bound; 2: 747; 3: 508; 4: 964).
REFERENCE_BOUNDS = {1: 12, 2: 12, 3: 7, 4: 6}


class TestIsReduced:
    def test_square_is_not_primitive(self):
        assert is_reduced(as_word("abab")) is False

    def test_single_letter_is_primitive(self):
        assert is_reduced(as_word("a")) is True

    def test_length_five_example(self):
        w = as_word("aabab")
        assert brute_is_primitive(w)
        assert is_reduced(w) is True

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            is_reduced(())

    @given(words_ab)
    def test_matches_brute_force(self, w):
        assert is_reduced(w) == brute_is_primitive(w)

    @given(words_ab)
    def test_rotation_invariant(self, w):
        for k in range(len(w)):
            assert is_reduced(rotate(w, k)) == is_reduced(w)


class TestCyclicCanonical:
    def test_two_letters(self):
        assert cyclic_canonical(as_word("ba"), AB) == as_word("ab")

    def test_identity_on_length_one(self):
        assert cyclic_canonical(as_word("a"), AB) == as_word("a")

    def test_three_rotations(self):
        assert cyclic_canonical(as_word("cab"), ABC) == as_word("abc")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cyclic_canonical((), AB)

    @given(words_ab)
    def test_matches_brute_force(self, w):
        assert cyclic_canonical(w, AB) == brute_min_rotation(w)

    @given(words_ab, st.integers(0, 11))
    def test_constant_on_rotation_class(self, w, k):
        assert cyclic_canonical(rotate(w, k), AB) == cyclic_canonical(w, AB)

    def test_respects_alphabet_order_not_string_order(self):
        reversed_ab = Alphabet(("b", "a"))
        assert cyclic_canonical(as_word("ab"), reversed_ab) == as_word("ba")


# Every word of length 1..10 over three letters, 88,572 in all, powers included.
WORDS_UP_TO_10 = [w for n in range(1, 11) for w in itertools.product("abc", repeat=n)]


class TestPowerTestAndLeastRotation:
    """`is_reduced` and `cyclic_canonical` against the brute-force oracles."""

    def test_is_reduced_on_every_word_up_to_length_ten(self):
        assert [w for w in WORDS_UP_TO_10 if is_reduced(w) != brute_is_primitive(w)] == []

    @pytest.mark.parametrize("letters", ["abc", "cba"])
    def test_cyclic_canonical_on_every_word_up_to_length_ten(self, letters):
        alphabet = Alphabet(letters)
        assert [w for w in WORDS_UP_TO_10
                if cyclic_canonical(w, alphabet) != brute_min_rotation(w, letters)] == []

    @settings(settings.get_profile("ci"), max_examples=300)
    @given(st.data())
    def test_powers_over_multi_character_letters(self, data):
        # Declared in drawn order, so "x10" may sort before "b" or "x1".
        letters = data.draw(st.permutations(["b", "ab", "x1", "x10", "yy", "c"]))
        letters = letters[:data.draw(st.integers(1, len(letters)))]
        u = tuple(data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=6)))
        p = data.draw(st.integers(1, 4))
        w = rotate(u * p, data.draw(st.integers(0, len(u) * p - 1)))
        assert is_reduced(w) == brute_is_primitive(w)
        if p > 1:
            assert not is_reduced(w)
        assert cyclic_canonical(w, Alphabet(letters)) == brute_min_rotation(w, letters)

    @pytest.mark.parametrize("text", [
        "".join(Random(20000).choice("abc") for _ in range(20000)),
        "ab" * 10000 + "b",
    ], ids=["random", "(ab)^10000 b"])
    def test_linear_time_on_20000_letters(self, text):
        # A least rotation taken as a min over all rotation slices is
        # quadratic and takes seconds here.
        w = as_word(text)
        start = perf_counter()
        primitive = is_reduced(w)
        middle = perf_counter()
        least = "".join(cyclic_canonical(w, ABC))
        assert max(middle - start, perf_counter() - middle) < 0.5
        assert primitive == brute_is_primitive(w)
        assert len(least) == len(text) and least in text + text
        if text.endswith("bb"):
            assert least == text  # (ab)^10000 b is its own Lyndon conjugate


class TestPrimitiveClasses:
    def test_bound_one(self):
        assert primitive_classes(AB, 1) == {("a",), ("b",)}

    def test_counts_up_to_four(self):
        classes = primitive_classes(AB, 4)
        by_len = [len([w for w in classes if len(w) == n]) for n in (1, 2, 3, 4)]
        assert by_len == [2, 1, 2, 3]
        assert len(classes) == 8

    def test_one_letter_alphabet(self):
        assert primitive_classes(Alphabet(("a",)), 5) == {("a",)}

    @pytest.mark.parametrize("k,alphabet", [(2, AB), (3, ABC)])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_formula(self, k, alphabet, n):
        classes = primitive_classes(alphabet, n)
        count_n = len([w for w in classes if len(w) == n])
        assert count_n == brute_class_count(k, n)
        assert aperiodic_necklace_count(k, n) == brute_class_count(k, n)

    @pytest.mark.parametrize("bound", range(1, 7))
    def test_matches_independent_enumeration(self, bound):
        assert primitive_classes(AB, bound) == brute_classes(AB, bound)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_independent_enumeration_in_declared_order(self, data):
        letters = data.draw(
            st.lists(st.sampled_from("abcdxyz"), min_size=1, max_size=4, unique=True)
        )
        bound = data.draw(st.integers(1, REFERENCE_BOUNDS[len(letters)]))
        alphabet = Alphabet(letters)
        assert primitive_classes(alphabet, bound) == brute_classes(alphabet, bound)

    def test_bad_necklace_sum_raises_invariant_error(self, monkeypatch):
        monkeypatch.setattr(words, "mobius", lambda d: 1)
        with pytest.raises(InvariantError, match="not divisible"):
            aperiodic_necklace_count(2, 3)


class TestPrefixExtensions:
    def test_two_letters(self):
        J = {as_word("a"), as_word("b")}
        got = prefix_extensions(J, as_word("a"), 4)
        assert got == {as_word(w) for w in ("b", "ab", "aab", "aaab")}

    def test_singleton_pool_empties(self):
        assert prefix_extensions({as_word("a")}, as_word("a"), 10) == set()

    def test_longer_pivot(self):
        J = {as_word("b"), as_word("ab")}
        got = prefix_extensions(J, as_word("b"), 4)
        assert got == {as_word(w) for w in ("ab", "bab", "bbab")}

    def test_pivot_must_be_member(self):
        with pytest.raises(ValueError):
            prefix_extensions({as_word("a")}, as_word("b"), 3)


class TestSieve:
    def test_small_budget_prefix(self):
        _, emitted = sieve(AB, 2)
        assert emitted[:3] == [as_word("a"), as_word("b"), as_word("ab")]

    def test_emitted_count_matches_enumeration(self):
        _, emitted = sieve(AB, 4)
        assert len(emitted) == 8
        assert len(emitted) == len(primitive_classes(AB, 4))

    def test_one_letter_emits_one_pivot(self):
        state, emitted = sieve(Alphabet(("a",)), 3)
        assert emitted == [as_word("a")]
        assert state.step == len(emitted) == 1

    @pytest.mark.parametrize("alphabet", [AB, ABC])
    @pytest.mark.parametrize("bound", range(1, 9))
    def test_bijection_with_classes(self, alphabet, bound):
        _, emitted = sieve(alphabet, bound)
        canon = {cyclic_canonical(w, alphabet) for w in emitted}
        assert len(canon) == len(emitted)
        assert canon == primitive_classes(alphabet, bound)

    def test_pivot_lengths_non_decreasing(self):
        _, emitted = sieve(AB, 8)
        lens = [len(w) for w in emitted]
        assert lens == sorted(lens)
        assert max(lens) <= 8

    def test_all_pivots_primitive(self):
        _, emitted = sieve(ABC, 6)
        assert all(is_reduced(w) for w in emitted)

    def test_state_records_steps_and_emitted(self):
        state, emitted = sieve(AB, 5)
        assert state.step == len(emitted) == 14
        assert state.emitted == tuple(emitted)

    @pytest.mark.parametrize("letters", ["a", "ba", "cab", "dbca"])
    def test_matches_reference_sieve_at_largest_bound(self, letters):
        alphabet = Alphabet(tuple(letters))
        bound = REFERENCE_BOUNDS[len(letters)]
        _, emitted = sieve(alphabet, bound)
        assert emitted == reference_sieve(alphabet, bound)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_reference_sieve_in_order(self, data):
        letters = data.draw(
            st.lists(st.sampled_from("abcdxyz"), min_size=1, max_size=4, unique=True)
        )
        bound = data.draw(st.integers(1, REFERENCE_BOUNDS[len(letters)]))
        alphabet = Alphabet(letters)
        _, emitted = sieve(alphabet, bound)
        assert emitted == reference_sieve(alphabet, bound)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("letters, bound", [
        (("a", "b"), 16),
        (("x", "yy", "xy"), 11),
        (("a", "b", "c", "d"), 9),
        (("e", "dd", "c", "bb", "a"), 8),
    ])
    def test_matches_heap_sieve_at_large_bounds(self, letters, bound, reverse):
        # censuses of 8,800 / 25,486 / 40,584 / 63,319 at the largest bound,
        # past what `reference_sieve` can reach; both parities of the bound
        alphabet = Alphabet(letters[::-1] if reverse else letters)
        for b in (bound - 1, bound):
            _, emitted = sieve(alphabet, b)
            assert emitted == heap_sieve(alphabet, b)

    def test_equal_letter_ranks_raise(self):
        alphabet = Alphabet(("a", "b", "c"))
        alphabet._rank["c"] = alphabet._rank["b"]
        with pytest.raises(InvariantError, match="sieve words b and c have equal letter ranks"):
            sieve(alphabet, 3)


class TestVerifyAdmissible:
    def test_sieve_output_passes(self):
        _, emitted = sieve(AB, 6)
        items = verify_admissible(emitted, AB, 6)
        assert all(i.ok for i in items)

    def test_cyclic_collision_fails(self):
        cands = [as_word(w) for w in ("a", "b", "ab", "ba")]
        items = verify_admissible(cands, AB, 2)
        assert not all(i.ok for i in items)
        assert any("distinct" in i.name and not i.ok for i in items)

    def test_missing_class_fails(self):
        items = verify_admissible([as_word("a")], AB, 1)
        assert any("missing" in i.name and not i.ok for i in items)

    def test_non_primitive_candidate_reported_not_raised(self):
        items = verify_admissible([as_word("aa"), as_word("a"), as_word("b")], AB, 2)
        bad = [i for i in items if "primitive" in i.name]
        assert bad and not bad[0].ok
