"""Word combinatorics: primitivity, canonical rotations, enumeration, sieve.

Expected values come from brute-force oracles defined at the top of this
file (rotation enumeration, proper-power search, a divisor-sum class
count) and from the tuple-word library in `tuple_words`, and are never
copied from the implementation under test.  The library's words are rank
strings; the oracles here work on tuples or strings of letters, and a
result is compared after `Alphabet.encode` maps the oracle's words to
rank strings.
"""

import heapq
import itertools
from random import Random
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tuple_words
from freenil import words
from freenil.errors import InvariantError
from freenil.words import (
    Alphabet,
    aperiodic_necklace_count,
    cyclic_canonical,
    is_reduced,
    prefix_extensions,
    primitive_classes,
    sieve,
    verify_admissible,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
as_word = AB.encode  # one letter per character of a text over a < b


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
    # The original O(census^2) sieve on tuple words: rebuild the whole pool
    # from its prefix extensions each step and scan it for the least word.
    letters = [(l,) for l in alphabet.letters]
    if len(alphabet) <= 1:
        return letters
    pool = set(letters)
    emitted = []
    while pool:
        pivot = min(pool, key=lambda w: tuple_words.sort_key(alphabet, w))
        emitted.append(pivot)
        pool = prefix_extensions(pool, pivot, bound)
    return emitted


def heap_sieve(alphabet, bound):
    # The in-place heap sieve, the large-bound oracle: a heap keyed by
    # (length, letter ranks) yields each pivot, a set holds the live pool,
    # and per-length buckets, filtered against the pool before every pivot,
    # supply the sources.
    letters = [(l,) for l in alphabet.letters]
    heap = [(1, tuple_words.rank_key(alphabet, w), w) for w in letters]
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


def encoded(alphabet, ws):
    return [alphabet.encode(w) for w in ws]


words_ab = st.text(alphabet="ab", min_size=1, max_size=12).map(as_word)
RANKS_AB = AB.encode(AB.letters)

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
            is_reduced("")

    @given(words_ab)
    def test_matches_brute_force(self, w):
        assert is_reduced(w) == brute_is_primitive(w)

    @given(words_ab)
    def test_rotation_invariant(self, w):
        for k in range(len(w)):
            assert is_reduced(rotate(w, k)) == is_reduced(w)


class TestCyclicCanonical:
    def test_two_letters(self):
        assert cyclic_canonical(as_word("ba")) == as_word("ab")

    def test_identity_on_length_one(self):
        assert cyclic_canonical(as_word("a")) == as_word("a")

    def test_three_rotations(self):
        assert cyclic_canonical(ABC.encode("cab")) == ABC.encode("abc")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cyclic_canonical("")

    @given(words_ab)
    def test_matches_brute_force(self, w):
        assert cyclic_canonical(w) == brute_min_rotation(w, RANKS_AB)

    @given(words_ab, st.integers(0, 11))
    def test_constant_on_rotation_class(self, w, k):
        assert cyclic_canonical(rotate(w, k)) == cyclic_canonical(w)

    def test_respects_alphabet_order_not_string_order(self):
        reversed_ab = Alphabet(("b", "a"))
        least = cyclic_canonical(reversed_ab.encode("ab"))
        assert least == reversed_ab.encode("ba") and reversed_ab.spell(least) == "ba"


# Every word of length 1..10 over three letters, 88,572 in all, powers included.
WORDS_UP_TO_10 = [w for n in range(1, 11) for w in itertools.product("abc", repeat=n)]


class TestPowerTestAndLeastRotation:
    """`is_reduced` and `cyclic_canonical` against the brute-force oracles."""

    def test_is_reduced_on_every_word_up_to_length_ten(self):
        assert [w for w in WORDS_UP_TO_10
                if is_reduced(ABC.encode(w)) != brute_is_primitive(w)] == []

    @pytest.mark.parametrize("letters", ["abc", "cba"])
    def test_cyclic_canonical_on_every_word_up_to_length_ten(self, letters):
        alphabet = Alphabet(letters)
        encode = alphabet.encode
        assert [w for w in WORDS_UP_TO_10
                if cyclic_canonical(encode(w)) != encode(brute_min_rotation(w, letters))] == []

    @settings(settings.get_profile("ci"), max_examples=300)
    @given(st.data())
    def test_powers_over_multi_character_letters(self, data):
        # Declared in drawn order, so "x10" may sort before "b" or "x1".
        letters = data.draw(st.permutations(["b", "ab", "x1", "x10", "yy", "c"]))
        letters = letters[:data.draw(st.integers(1, len(letters)))]
        u = tuple(data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=6)))
        p = data.draw(st.integers(1, 4))
        w = rotate(u * p, data.draw(st.integers(0, len(u) * p - 1)))
        encode = Alphabet(letters).encode
        assert is_reduced(encode(w)) == brute_is_primitive(w)
        if p > 1:
            assert not is_reduced(encode(w))
        assert cyclic_canonical(encode(w)) == encode(brute_min_rotation(w, letters))

    @pytest.mark.parametrize("text", [
        "".join(Random(20000).choice("abc") for _ in range(20000)),
        "ab" * 10000 + "b",
    ], ids=["random", "(ab)^10000 b"])
    def test_linear_time_on_20000_letters(self, text):
        # A least rotation taken as a min over all rotation slices is
        # quadratic and takes seconds here.
        w = ABC.encode(text)
        start = perf_counter()
        primitive = is_reduced(w)
        middle = perf_counter()
        least = ABC.spell(cyclic_canonical(w))
        assert max(middle - start, perf_counter() - middle) < 0.5
        assert primitive == brute_is_primitive(text)
        assert len(least) == len(text) and least in text + text
        if text.endswith("bb"):
            assert least == text  # (ab)^10000 b is its own Lyndon conjugate


class TestPrimitiveClasses:
    def test_bound_one(self):
        assert primitive_classes(AB, 1) == [as_word("a"), as_word("b")]

    def test_counts_up_to_four(self):
        classes = primitive_classes(AB, 4)
        by_len = [len([w for w in classes if len(w) == n]) for n in (1, 2, 3, 4)]
        assert by_len == [2, 1, 2, 3]
        assert len(classes) == 8

    def test_one_letter_alphabet(self):
        assert primitive_classes(Alphabet(("a",)), 5) == [as_word("a")]

    @pytest.mark.parametrize("k,alphabet", [(2, AB), (3, ABC)])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_formula(self, k, alphabet, n):
        classes = primitive_classes(alphabet, n)
        count_n = len([w for w in classes if len(w) == n])
        assert count_n == brute_class_count(k, n)
        assert aperiodic_necklace_count(k, n) == brute_class_count(k, n)

    @pytest.mark.parametrize("bound", range(1, 7))
    def test_matches_independent_enumeration(self, bound):
        assert set(primitive_classes(AB, bound)) == set(encoded(AB, brute_classes(AB, bound)))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_independent_enumeration_in_declared_order(self, data):
        letters = data.draw(
            st.lists(st.sampled_from("abcdxyz"), min_size=1, max_size=4, unique=True)
        )
        bound = data.draw(st.integers(1, REFERENCE_BOUNDS[len(letters)]))
        alphabet = Alphabet(letters)
        want = sorted(encoded(alphabet, brute_classes(alphabet, bound)))
        assert primitive_classes(alphabet, bound) == want  # in lexicographic order

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
        assert list(map(AB.spell, emitted)) == ["a", "b", "ab"]

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
        canon = {cyclic_canonical(w) for w in emitted}
        assert len(canon) == len(emitted)
        assert canon == set(primitive_classes(alphabet, bound))

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
        assert emitted == encoded(alphabet, reference_sieve(alphabet, bound))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_reference_sieve_in_order(self, data):
        letters = data.draw(
            st.lists(st.sampled_from("abcdxyz"), min_size=1, max_size=4, unique=True)
        )
        bound = data.draw(st.integers(1, REFERENCE_BOUNDS[len(letters)]))
        alphabet = Alphabet(letters)
        _, emitted = sieve(alphabet, bound)
        assert emitted == encoded(alphabet, reference_sieve(alphabet, bound))

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
            assert emitted == encoded(alphabet, heap_sieve(alphabet, b))

    def test_equal_letter_ranks_raise(self):
        # the sieve encodes its letters through the rank table, so a
        # non-injective table puts one word in a bucket twice
        alphabet = Alphabet(("a", "b", "c"))
        alphabet._rank["c"] = alphabet._rank["b"]
        with pytest.raises(InvariantError, match="sieve word b is twice in its length-1 bucket"):
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


# Letters of one to three characters, so that rank order, string order and
# the order of the spelled words all differ.
ORACLE_LETTERS = ["a", "b", "c", "x1", "x10", "yy", "zq"]
# Largest bound per letter count with a class census of about 1,000 or less.
ORACLE_BOUNDS = {1: 12, 2: 12, 3: 7, 4: 6, 5: 5, 6: 4}


def compare_with_tuple_oracles(alphabet, bound, candidates, dropped=()):
    """Rank-string sieve, classes and verify against `tuple_words`.

    ``candidates`` are tuple words; ``dropped`` Lyndon words (tuples) are
    taken out of both verifiers' targets, so the candidates' classes among
    them read as extraneous.
    """
    _, emitted = sieve(alphabet, bound)
    assert emitted == encoded(alphabet, tuple_words.sieve(alphabet, bound))
    classes = tuple_words.primitive_classes(alphabet, bound)
    assert primitive_classes(alphabet, bound) == sorted(encoded(alphabet, classes))
    dropped_ranks = set(encoded(alphabet, dropped))
    library_classes, oracle_classes = words.primitive_classes, tuple_words.primitive_classes
    with mock.patch.object(words, "primitive_classes", lambda a, b: [
            w for w in library_classes(a, b) if w not in dropped_ranks]), \
            mock.patch.object(tuple_words, "primitive_classes",
                              lambda a, b: oracle_classes(a, b) - set(dropped)):
        got = verify_admissible(encoded(alphabet, candidates), alphabet, bound)
        want = tuple_words.verify_admissible(candidates, alphabet, bound)
    assert got == want  # names, expected and got texts byte for byte, verdicts
    return got


class TestRankStringsMatchTupleOracles:
    @settings(settings.get_profile("ci"), max_examples=60)
    @given(st.data())
    def test_sieve_classes_and_verify(self, data):
        k = data.draw(st.integers(1, 6))
        letters = data.draw(st.permutations(ORACLE_LETTERS))[:k]
        order = data.draw(st.sampled_from(["drawn", "ascending", "reversed"]))
        if order != "drawn":
            letters = sorted(letters, reverse=order == "reversed")
        alphabet = Alphabet(letters)
        bound = data.draw(st.integers(1, ORACLE_BOUNDS[k]))
        sieved = tuple_words.sieve(alphabet, bound)
        index = st.integers(0, len(sieved) - 1)
        missing = data.draw(st.sets(index, max_size=3))
        candidates = [w for i, w in enumerate(sieved) if i not in missing]
        for i in data.draw(st.lists(index, max_size=3)):  # proper powers
            candidates.append(sieved[i] * data.draw(st.integers(2, 3)))
        for i in data.draw(st.lists(index, max_size=3)):  # rotated duplicates
            candidates.append(rotate(sieved[i], data.draw(st.integers(1, bound))))
        candidates = data.draw(st.permutations(candidates))
        classes = sorted(tuple_words.primitive_classes(alphabet, bound))
        dropped = data.draw(st.sets(st.sampled_from(classes), max_size=3))
        compare_with_tuple_oracles(alphabet, bound, candidates, dropped)

    def test_every_failing_item_in_reversed_multi_character_order(self):
        alphabet = Alphabet(("yy", "x1", "b"))
        sieved = tuple_words.sieve(alphabet, 3)
        candidates = [w for w in sieved if w != ("x1", "b")]  # a missing class
        candidates += [("b", "b"), ("b", "x1", "b", "x1")]  # a power, and one past the bound
        candidates += [("yy", "b", "x1")]  # a rotation of the sieve's x1 yy b
        items = compare_with_tuple_oracles(alphabet, 3, candidates,
                                           dropped=[("yy", "b"), ("b",)])
        assert [(i.name, i.got, i.ok) for i in items] == [
            ("all candidates primitive", "[bb]", False),
            ("rotation classes distinct", "[yybx1]", False),
            ("no class missing", "[x1b]", False),
            ("no class extraneous", "[b, yyb]", False),
            ("class count", "13", False),
        ]

    def test_ranks_across_the_surrogate_block(self):
        # 57,400 letters at L = 1: ranks 55,296-57,343 are the UTF-16
        # surrogate code points, and ranks run past them to 57,399.
        letters = [f"{i:05d}" for i in range(57_400)]
        Random(57_344).shuffle(letters)  # declared order is not string order
        alphabet = Alphabet(letters)
        _, emitted = sieve(alphabet, 1)
        assert "\ud800" in emitted and "\udfff" in emitted and emitted[-1] == chr(57_399)
        assert list(map(alphabet.spell, emitted)) == letters
        missing = set(range(55_000, 57_400, 97))
        candidates = [(l,) for i, l in enumerate(letters) if i not in missing]
        items = compare_with_tuple_oracles(alphabet, 1, candidates,
                                           dropped=[(letters[56_000],)])
        assert [i.ok for i in items] == [True, True, False, False, False]
