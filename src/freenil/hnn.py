"""Britton normal forms for an HNN extension over an oracle base group.

The extension adjoins a stable letter t to the base group, subject to
``left(c) * t == t * right(c)`` for every c in the associated subgroup, where
``left`` and ``right`` are the two embeddings.  Words are carried as
``g_0 t^{e_1} g_1 ... t^{e_n} g_n``.  Normalization removes pinches --
subwords ``t^-1 left(c) t`` and ``t right(c) t^-1`` -- in one left-to-right
pass: a pinch can only close when its second stable letter arrives, and the
segment it encloses is final by then (Britton's lemma; Lyndon & Schupp,
IV.2).  A sweep right to left then replaces every g_k (k >= 1) by its
canonical coset representative, pushing the subgroup surplus through the
stable letter toward g_0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .groups import embedding_from_dict, group_from_dict


@dataclass(frozen=True)
class HNNWord:
    """Britton-reduced word; ``tail`` holds (sign, base element) pairs."""

    base0: object
    tail: tuple


def _find_pinch(tail, membership):
    """Index of the leftmost pinch in a tail of (sign, middle) pairs, or None;
    ``membership[sign]`` tests a middle against the source image of t^sign."""
    for i, ((sign, g), (after, _)) in enumerate(zip(tail, tail[1:])):
        if sign == -after and membership[sign](g):
            return i
    return None


class HNN:
    """Base oracle plus two embeddings of the associated subgroup."""

    __slots__ = ("subgroup", "base", "alpha", "beta", "_ops")

    def __init__(self, subgroup, base, alpha, beta):
        if alpha.src is not subgroup or beta.src is not subgroup:
            raise ValueError("both embeddings must start at the associated subgroup")
        if alpha.dst is not base or beta.dst is not base:
            raise ValueError("both embeddings must land in the base group")
        # base names share the word text with the stable letter and "1"
        reserved = set(base.names if base.kind == "finite" else base.letters)
        if reserved & {"t", "T+", "T-"}:
            raise ValueError('the base group may not use the stable letter names "t", "T+", "T-"')
        if "1" in reserved and base.identity != "1":
            raise ValueError('only the identity of the base group may be named "1"')
        self.subgroup = subgroup
        self.base = base
        self.alpha = alpha
        self.beta = beta
        # the trusted operations of `_carry(sign)`, keyed by the sign
        member, rep, preimage, apply = {}, {}, {}, {}
        for sign in (1, -1):
            source, target = self._carry(sign)
            member[sign], rep[sign] = source.image.trusted()
            preimage[sign] = source.trusted()[1]
            apply[sign] = target.trusted()[0]
        self._ops = member, rep, preimage, apply

    def identity_word(self):
        return HNNWord(self.base.identity, ())

    def _carry(self, sign):
        """(source, target) with t^sign * source(c) == target(c) * t^sign.

        A segment after t^sign is pinched, or split into coset head and
        representative, by the source image; the head crosses as target(c).
        """
        return (self.beta, self.alpha) if sign == 1 else (self.alpha, self.beta)

    def normalize(self, tokens):
        """Fold raw tokens, ("t", sign) or ("g", element), into Britton form.

        Pinches are removed as the stable letters arrive: the open segment
        ``seg`` sits between the last stable letter and the new one, and
        every earlier middle segment is already pinch-free.  Each base
        element is checked here, once per distinct object: the check is
        memoised on ``id``, not on equality, since ``(1.0,) == (1,)`` and an
        unhashable token must still reach the check.  The rest uses
        trusted operations.
        """
        base = self.base
        identity, multiply, check = base.identity, base.multiply, base.check
        member, rep, preimage, apply = self._ops
        checked = {}  # id -> element; holding it keeps the id from being reused
        segs = []  # closed segments; `seg` is the open one
        seg = identity
        signs = []
        for token in tokens:
            try:
                kind, value = token
            except (TypeError, ValueError):
                raise ValueError(f"malformed token {token!r}") from None
            if kind == "g":
                if id(value) not in checked:
                    checked[id(value)] = check(value)
                seg = multiply(seg, value)
            elif kind == "t":
                if value not in (1, -1):
                    raise ValueError("stable-letter exponent must be +1 or -1")
                last = signs[-1] if signs else 0
                if last == -value and member[last](seg):
                    c = preimage[last](seg)
                    if c is None:
                        raise InvariantError("image membership without a preimage")
                    signs.pop()
                    seg = multiply(segs.pop(), apply[last](c))
                    continue
                signs.append(value)
                segs.append(seg)
                seg = identity
            else:
                raise ValueError(f"unknown token kind {kind!r}")
        segs.append(seg)

        # canonical representatives, swept right to left; pushing the coset
        # head through t^e cannot create a new pinch because membership in
        # either image is stable under right multiplication from it
        for i in range(len(signs) - 1, -1, -1):
            g, sign = segs[i + 1], signs[i]
            r = rep[sign](g)
            c = preimage[sign](multiply(g, base.invert(r)))
            if c is None:
                raise InvariantError("coset head escaped the subgroup image")
            segs[i + 1] = r
            segs[i] = multiply(segs[i], apply[sign](c))

        tail = tuple(zip(signs, segs[1:]))
        if _find_pinch(tail, member) is not None:
            raise InvariantError("a pinch survived the canonical sweep")
        return HNNWord(segs[0], tail)

    def assert_reduced(self, word):
        """Raise unless the word is pinch-free; used before grading it."""
        membership = {sign: self._carry(sign)[0].image.membership for sign in (1, -1)}
        if _find_pinch(word.tail, membership) is not None:
            raise InvariantError("word is not Britton-reduced")

    def word_tokens(self, word):
        tokens = []
        if word.base0 != self.base.identity:
            tokens.append(("g", word.base0))
        for sign, g in word.tail:
            tokens.append(("t", sign))
            if g != self.base.identity:
                tokens.append(("g", g))
        return tokens

    def multiply_words(self, a, b):
        return self.normalize(self.word_tokens(a) + self.word_tokens(b))

    def __repr__(self):
        return f"HNN({self.base!r})"


def hnn_from_dict(data):
    subgroup = group_from_dict(data["subgroup"])
    base = group_from_dict(data["base"])
    return HNN(
        subgroup,
        base,
        embedding_from_dict(subgroup, base, data["alpha"]),
        embedding_from_dict(subgroup, base, data["beta"]),
    )
