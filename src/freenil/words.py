r"""Free-monoid words, cyclic words, primitivity, and the admissible-set sieve.

A word is a rank string: one code point per letter, ``chr(rank)`` for the
letter's rank in the alphabet's declared order (not Python's string
order), so over ``Alphabet(("b", "a"))`` the word ``b`` is ``"\x00"`` and
really does sort before ``a``.  Code-point order is then the alphabet
order and a word is its own sort key, so concatenation, sorting and
slicing are C string operations; `Alphabet.spell` writes a word out in
letters with one ``str.translate``.  Primitivity is a power test (one
comparison per prime dividing the length); the least rotation comes from
Duval's factorization pass and the Lyndon classes from Duval's generation
step, both run on the string itself.  The sieve runs one length at a
time over sorted per-length buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InvariantError


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
        self._spelling = dict(enumerate(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({self.letters!r})"

    def encode(self, u: Iterable[str]) -> str:
        """The rank string of a sequence of letters."""
        try:
            return "".join([chr(self._rank[l]) for l in u])
        except KeyError as exc:
            raise ValueError(f"letter {exc.args[0]!r} not in alphabet") from None

    def spell(self, w: str) -> str:
        """A rank string written out in letters."""
        return w.translate(self._spelling)

    def sort_key(self, w: str) -> tuple[int, str]:
        """Length-then-lex key, the order of sieve pivots and reported classes."""
        return (len(w), w)


def is_reduced(u: str) -> bool:
    """True iff the word is primitive: not a proper power of any shorter word.

    A word of length n is a proper power iff it is its prefix of length
    n/p repeated p times for some prime p dividing n (a power u^m is also
    (u^(m/p))^p), so the power test is one string comparison per prime.
    """
    n = len(u)
    if n == 0:
        raise ValueError("empty word has no primitivity status")
    for p in _prime_divisors(n):
        if u[:n // p] * p == u:
            return False
    return True


def cyclic_canonical(u: str) -> str:
    """Canonical representative of the rotation class: the least rotation.

    Two words get equal results iff they are rotations of each other.
    Factor ``u + u`` into non-increasing Lyndon words (Duval 1983); the
    last factor that starts in the first half starts a least rotation.
    Linear in the length, like the generation step of `primitive_classes`.
    """
    n = len(u)
    if not n:
        raise ValueError("empty word has no rotation class")
    doubled, end = u + u, 2 * n
    i = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < end:
            a, b = doubled[k], doubled[j]
            if a == b:
                k += 1
            elif a < b:
                k = i
            else:
                break
            j += 1
        while i <= k:
            i += j - k
    return u[start:] + u[:start]


def primitive_classes(alphabet: Alphabet, bound: int) -> list[str]:
    """Canonical representatives of rotation classes of primitive words.

    The least rotation of a primitive word is its Lyndon conjugate (Duval,
    "Factorizing words over an ordered alphabet", 1983), so these are the
    Lyndon words of length 1..bound in the declared order.  Duval's 1988
    generation step (in Fredricksen-Kessler-Maiorana order) repeats the
    current word up to the bound, drops trailing largest letters and steps
    the last letter up: O(bound) per Lyndon word, O(census * bound) in all.
    The words come out in lexicographic order.
    """
    if bound < 1:
        raise ValueError("length bound must be >= 1")
    largest = chr(len(alphabet) - 1)
    out: list[str] = []
    w = "\x00"
    while w:
        out.append(w)
        w = (w * (bound // len(w) + 1))[:bound].rstrip(largest)
        if w:
            w = w[:-1] + chr(ord(w[-1]) + 1)
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


def prefix_extensions(words: set, pivot, bound: int) -> set:
    """All words ``pivot^p + other`` (p >= 0, other != pivot) of length <= bound."""
    if pivot not in words:
        raise ValueError("pivot must belong to the word set")
    out = set()
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
    emitted: tuple[str, ...]


def sieve(alphabet: Alphabet, bound: int) -> tuple[SieveState, list[str]]:
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
    buckets: list[list[str]] = [[] for _ in range(bound + 1)]
    buckets[1] = list(alphabet.encode(alphabet.letters))
    emitted: list[str] = []
    for m in range(1, bound + 1):
        bucket = sorted(buckets[m])
        for w, v in zip(bucket, bucket[1:]):
            if w == v:
                raise InvariantError(
                    f"sieve word {alphabet.spell(w)} is twice in its length-{m} bucket")
        for i, pivot in enumerate(bucket):
            if not is_reduced(pivot):
                raise InvariantError(f"sieve pivot {alphabet.spell(pivot)} is not primitive")
            emitted.append(pivot)
            for n in range(bound - m, m - 1, -1):
                sources = bucket[i + 1:] if n == m else buckets[n]
                prefix = pivot
                for k in range(n + m, bound + 1, m):
                    buckets[k] += [prefix + w for w in sources]
                    prefix += pivot
    return SieveState(len(emitted), tuple(emitted)), emitted


def verify_admissible(candidates: Sequence[str], alphabet: Alphabet, bound: int):
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
                           _fmt_words(not_reduced, alphabet), not not_reduced))

    canon: dict[str, str] = {}
    collisions: list[str] = []
    for w in primitive:
        c = cyclic_canonical(w)
        if c in canon and canon[c] != w:
            collisions.append(w)
        canon.setdefault(c, w)
    items.append(CheckItem("rotation classes distinct", "[]",
                           _fmt_words(collisions, alphabet), not collisions))

    target = set(primitive_classes(alphabet, bound))
    missing = sorted(target - canon.keys(), key=alphabet.sort_key)
    extra = sorted(canon.keys() - target, key=alphabet.sort_key)
    items.append(CheckItem("no class missing", "[]", _fmt_words(missing, alphabet), not missing))
    items.append(CheckItem("no class extraneous", "[]", _fmt_words(extra, alphabet), not extra))
    items.append(CheckItem("class count", str(len(target)), str(len(canon)),
                           len(canon) == len(target) and not collisions))
    return items


def _fmt_words(ws: Iterable[str], alphabet: Alphabet) -> str:
    return "[" + ", ".join(map(alphabet.spell, ws)) + "]"
