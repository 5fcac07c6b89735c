"""Tuple-word oracles for the rank-string words of `freenil.words`.

Here a word is a tuple of letters, ordered by the tuple of their ranks in
the alphabet's declared order, which is rebuilt each time a word is
compared.  These are the sieve, the least rotation, the Lyndon generator
and the admissibility check that `freenil.words` ran before it held words
as rank strings; the check's items read exactly as the library's do.
"""

from __future__ import annotations

from functools import lru_cache, partial

from freenil.report import CheckItem
from freenil.words import is_reduced


@lru_cache(maxsize=None)
def _ranks(alphabet):
    return {l: i for i, l in enumerate(alphabet.letters)}


def rank_key(alphabet, u):
    """A word's letter-rank tuple in the alphabet's declared order."""
    rank = _ranks(alphabet)
    return tuple(rank[l] for l in u)


def sort_key(alphabet, u):
    return (len(u), rank_key(alphabet, u))


def least_rotation_index(key):
    """Index of a least rotation of a rank tuple, by Duval's factorization."""
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


def cyclic_canonical(u, alphabet):
    k = least_rotation_index(rank_key(alphabet, u))
    return u[k:] + u[:k]


def primitive_classes(alphabet, bound):
    """The Lyndon words of length 1..bound, by Duval's generation step on letter lists."""
    letters = alphabet.letters
    successor = dict(zip(letters, letters[1:]))
    out = set()
    w = [letters[0]]
    while w:
        out.add(tuple(w))
        w = (w * (bound // len(w) + 1))[:bound]
        while w and w[-1] not in successor:
            w.pop()
        if w:
            w[-1] = successor[w[-1]]
    return out


def sieve(alphabet, bound):
    """The per-length bucket sieve on (rank tuple, word tuple) entries."""
    buckets = [[] for _ in range(bound + 1)]
    buckets[1] = [(rank_key(alphabet, (l,)), (l,)) for l in alphabet.letters]
    emitted = []
    for m in range(1, bound + 1):
        bucket = sorted(buckets[m])
        for i, (pivot_key, pivot) in enumerate(bucket):
            emitted.append(pivot)
            for n in range(bound - m, m - 1, -1):
                for key, w in bucket[i + 1:] if n == m else buckets[n]:
                    for k in range(n + m, bound + 1, m):
                        key, w = pivot_key + key, pivot + w
                        buckets[k].append((key, w))
    return emitted


def verify_admissible(candidates, alphabet, bound):
    """The admissibility items for tuple-word candidates."""
    items = []
    in_range = [w for w in candidates if len(w) <= bound]
    primitive, not_reduced = [], []
    for w in in_range:
        (primitive if is_reduced(w) else not_reduced).append(w)
    items.append(CheckItem("all candidates primitive", "[]",
                           _fmt_words(not_reduced), not not_reduced))
    canon, collisions = {}, []
    for w in primitive:
        c = cyclic_canonical(w, alphabet)
        if c in canon and canon[c] != w:
            collisions.append(w)
        canon.setdefault(c, w)
    items.append(CheckItem("rotation classes distinct", "[]",
                           _fmt_words(collisions), not collisions))
    target = primitive_classes(alphabet, bound)
    by_order = partial(sort_key, alphabet)
    missing = sorted(target - set(canon), key=by_order)
    extra = sorted(set(canon) - target, key=by_order)
    items.append(CheckItem("no class missing", "[]", _fmt_words(missing), not missing))
    items.append(CheckItem("no class extraneous", "[]", _fmt_words(extra), not extra))
    items.append(CheckItem("class count", str(len(target)), str(len(canon)),
                           len(canon) == len(target) and not collisions))
    return items


def _fmt_words(ws):
    return "[" + ", ".join("".join(w) for w in ws) + "]"
