"""Free-monoid words, cyclic words, primitivity, and the admissible-set sieve.

Words are tuples of letters drawn from a finite ordered alphabet.  The
alphabet's declared order (not Python's string order) drives every
lexicographic comparison, so ``Alphabet(("b", "a"))`` really does sort
``b`` before ``a``.  Primitivity is a power test (one comparison per
prime dividing the length), and both the least rotation and the Lyndon
class oracle come from Duval's factorization pass.  The sieve runs one
length at a time over sorted per-length buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InvariantError

Word = tuple[str, ...]


def as_word(w: Iterable[str] | str) -> Word:
    """Coerce a string (one letter per character) or iterable to a Word."""
    return tuple(w)


class Alphabet:
    """A finite ordered set of letters; the order fixes all tie-breaking."""

    def __init__(self, letters: Iterable[str]):
        self.letters: tuple[str, ...] = tuple(letters)
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")
        if any(not l for l in self.letters):
            raise ValueError("alphabet letters must be nonempty strings")
        self._rank = {l: i for i, l in enumerate(self.letters)}

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({self.letters!r})"

    def key(self, u: Word) -> tuple[int, ...]:
        """Map a word to its letter-rank tuple for order comparisons."""
        try:
            return tuple(self._rank[l] for l in u)
        except KeyError as exc:
            raise ValueError(f"letter {exc.args[0]!r} not in alphabet") from None

    def sort_key(self, u: Word) -> tuple[int, tuple[int, ...]]:
        """Length-then-lex key, the order used to pick sieve pivots."""
        return (len(u), self.key(u))


def is_reduced(u: Word) -> bool:
    """True iff the word is primitive: not a proper power of any shorter word.

    A word of length n is a proper power iff it is its prefix of length
    n/p repeated p times for some prime p dividing n (a power u^m is also
    (u^(m/p))^p), so the power test is one tuple comparison per prime.
    """
    n = len(u)
    if n == 0:
        raise ValueError("empty word has no primitivity status")
    for p in _prime_divisors(n):
        if u[:n // p] * p == u:
            return False
    return True


def _least_rotation_index(key: tuple[int, ...]) -> int:
    """Index of a lexicographically least rotation, by Duval's factorization.

    Factor ``key + key`` into non-increasing Lyndon words (Duval 1983); the
    last factor that starts in the first half starts a least rotation.
    Linear in the length, like the generation step of `primitive_classes`.
    """
    n = len(key)
    doubled = key + key
    i = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and doubled[k] <= doubled[j]:
            k = i if doubled[k] < doubled[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


def cyclic_canonical(u: Word, alphabet: Alphabet) -> Word:
    """Canonical representative of the rotation class: the least rotation.

    Two words get equal results iff they are rotations of each other.
    """
    if not u:
        raise ValueError("empty word has no rotation class")
    k = _least_rotation_index(alphabet.key(u))
    return u[k:] + u[:k]


def primitive_classes(alphabet: Alphabet, bound: int) -> set[Word]:
    """Canonical representatives of rotation classes of primitive words.

    The least rotation of a primitive word is its Lyndon conjugate (Duval,
    "Factorizing words over an ordered alphabet", 1983), so these are the
    Lyndon words of length 1..bound in the declared order.  Duval's 1988
    generation step (in Fredricksen-Kessler-Maiorana order) repeats the
    current word up to the bound, drops trailing largest letters and steps
    the last letter up: O(bound) per Lyndon word, O(census * bound) in all.
    """
    if bound < 1:
        raise ValueError("length bound must be >= 1")
    letters = alphabet.letters
    successor = dict(zip(letters, letters[1:]))  # all but the largest letter
    out: set[Word] = set()
    w = [letters[0]]
    while w:
        out.add(tuple(w))
        w = (w * (bound // len(w) + 1))[:bound]
        while w and w[-1] not in successor:
            w.pop()
        if w:
            w[-1] = successor[w[-1]]
    return out


@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return (*out, n) if n > 1 else tuple(out)


def mobius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else -1 per prime factor."""
    if n < 1:
        raise ValueError("mobius undefined for n < 1")
    primes = _prime_divisors(n)
    return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)


def aperiodic_necklace_count(k: int, n: int) -> int:
    """Number of rotation classes of primitive length-n words over k letters."""
    if n < 1:
        raise ValueError("length must be >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += mobius(d) * k ** (n // d)
            if d != n // d:
                total += mobius(n // d) * k ** d
        d += 1
    if total % n:
        raise InvariantError(f"necklace sum {total} is not divisible by length {n}")
    return total // n


def prefix_extensions(words: set[Word], pivot: Word, bound: int) -> set[Word]:
    """All words ``pivot^p + other`` (p >= 0, other != pivot) of length <= bound."""
    if pivot not in words:
        raise ValueError("pivot must belong to the word set")
    out: set[Word] = set()
    for other in words:
        if other == pivot:
            continue
        w = other
        while len(w) <= bound:
            out.add(w)
            w = pivot + w
    return out


@dataclass(frozen=True)
class SieveState:
    """Final state of a sieve run: the step count and every pivot emitted."""

    step: int
    emitted: tuple[Word, ...]


def sieve(alphabet: Alphabet, bound: int) -> tuple[SieveState, list[Word]]:
    """Run the pivot sieve (Lazard elimination) up to the length budget.

    Starts from the single letters, repeatedly picks the shortest word
    (ties broken by the alphabet order), emits it, and replaces the pool
    by its prefix extensions (see `prefix_extensions`).  Truncation to
    ``bound`` is sound because extensions never shorten words.  Returns
    the final state and the emitted pivots, which enumerate one
    representative per primitive rotation class of length <= bound.

    A pivot of length m only adds words longer than m, so the sieve runs
    one length at a time: every word of length m is in its bucket before
    the first pivot of length m, and the sorted bucket is that length's
    pivot order.  Each pivot extends the rest of its own bucket and the
    buckets of lengths m+1..bound-m; they are read longest first, so the
    words the pivot adds (to longer buckets) are never read as its sources.
    Every extension is a word the sieve emits, so a run makes one word
    concatenation per emitted word past the letters, plus one sort per length.
    """
    if bound < 1:
        raise ValueError("length bound must be >= 1")
    # Entries are (rank tuple, word); the recheck below proves rank tuples
    # distinct per bucket, so sorting orders words by the alphabet alone.
    buckets: list[list[tuple[tuple[int, ...], Word]]] = [[] for _ in range(bound + 1)]
    buckets[1] = [(alphabet.key((l,)), (l,)) for l in alphabet.letters]
    emitted: list[Word] = []
    for m in range(1, bound + 1):
        bucket = sorted(buckets[m])
        for (key, w), (next_key, v) in zip(bucket, bucket[1:]):
            if key == next_key:
                raise InvariantError(
                    f"sieve words {''.join(w)} and {''.join(v)} have equal letter ranks")
        for i, (pivot_key, pivot) in enumerate(bucket):
            if not is_reduced(pivot):
                raise InvariantError(f"sieve pivot {''.join(pivot)} is not primitive")
            emitted.append(pivot)
            for n in range(bound - m, m - 1, -1):
                for key, w in bucket[i + 1:] if n == m else buckets[n]:
                    for k in range(n + m, bound + 1, m):
                        key, w = pivot_key + key, pivot + w
                        buckets[k].append((key, w))
    return SieveState(len(emitted), tuple(emitted)), emitted


def verify_admissible(candidates: Sequence[Word], alphabet: Alphabet, bound: int):
    """Check a candidate admissible set against the enumeration oracle.

    Verifies that, restricted to length <= bound, every candidate is
    primitive, the canonical-rotation map is injective on the candidates,
    and its image is exactly the set of primitive rotation classes.
    Failures are reported as items, never raised.
    Returns a list of (check name, expected, got, ok) tuples.
    """
    from .report import CheckItem

    items: list[CheckItem] = []
    in_range = [w for w in candidates if len(w) <= bound]

    primitive, not_reduced = [], []
    for w in in_range:
        (primitive if is_reduced(w) else not_reduced).append(w)
    items.append(CheckItem("all candidates primitive", "[]",
                           _fmt_words(not_reduced), not not_reduced))

    canon: dict[Word, Word] = {}
    collisions: list[Word] = []
    for w in primitive:
        c = cyclic_canonical(w, alphabet)
        if c in canon and canon[c] != w:
            collisions.append(w)
        canon.setdefault(c, w)
    items.append(CheckItem("rotation classes distinct", "[]",
                           _fmt_words(collisions), not collisions))

    target = primitive_classes(alphabet, bound)
    missing = sorted(target - set(canon), key=alphabet.sort_key)
    extra = sorted(set(canon) - target, key=alphabet.sort_key)
    items.append(CheckItem("no class missing", "[]", _fmt_words(missing), not missing))
    items.append(CheckItem("no class extraneous", "[]", _fmt_words(extra), not extra))
    items.append(CheckItem("class count", str(len(target)), str(len(canon)),
                           len(canon) == len(target) and not collisions))
    return items


def _fmt_words(ws: Iterable[Word]) -> str:
    return "[" + ", ".join("".join(w) for w in ws) + "]"
