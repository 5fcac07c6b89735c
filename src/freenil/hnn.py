"""Britton normal forms for an HNN extension over an oracle base group.

The extension adjoins a stable letter t to the base group, subject to
``left(c) * t == t * right(c)`` for every c in the associated subgroup, where
``left`` and ``right`` are the two embeddings.  Words are carried as
``g_0 t^{e_1} g_1 ... t^{e_n} g_n``.  Normalization removes pinches --
subwords ``t^-1 left(c) t`` and ``t right(c) t^-1`` -- leftmost first until
none remain, then sweeps right to left replacing every g_k (k >= 1) by its
canonical coset representative, pushing the subgroup surplus through the
stable letter toward g_0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .groups import (
    embedding_from_dict,
    embedding_to_dict,
    group_from_dict,
    group_to_dict,
)


@dataclass(frozen=True)
class HNNWord:
    """Britton-reduced word; ``tail`` holds (sign, base element) pairs."""

    base0: object
    tail: tuple

    def t_length(self):
        return len(self.tail)


def _find_pinch(hnn, signs, middles):
    """Index of the leftmost pinch, or None.  middles[i] sits after signs[i]."""
    for i in range(len(signs) - 1):
        if signs[i] == -1 and signs[i + 1] == 1:
            if hnn.alpha.image.membership(middles[i]):
                return i
        elif signs[i] == 1 and signs[i + 1] == -1:
            if hnn.beta.image.membership(middles[i]):
                return i
    return None


class HNN:
    """Base oracle plus two embeddings of the associated subgroup."""

    __slots__ = ("subgroup", "base", "alpha", "beta")

    def __init__(self, subgroup, base, alpha, beta):
        if alpha.src is not subgroup or beta.src is not subgroup:
            raise ValueError("both embeddings must start at the associated subgroup")
        if alpha.dst is not base or beta.dst is not base:
            raise ValueError("both embeddings must land in the base group")
        reserved = base.names if base.kind == "finite" else base.letters
        if "t" in reserved:
            raise ValueError('the base group may not use the stable letter name "t"')
        self.subgroup = subgroup
        self.base = base
        self.alpha = alpha
        self.beta = beta

    def identity_word(self):
        return HNNWord(self.base.identity, ())

    def normalize(self, tokens):
        """Fold raw tokens, ("t", sign) or ("g", element), into Britton form."""
        segs = [self.base.identity]
        signs = []
        for token in tokens:
            try:
                kind, value = token
            except (TypeError, ValueError):
                raise ValueError(f"malformed token {token!r}") from None
            if kind == "t":
                if value not in (1, -1):
                    raise ValueError("stable-letter exponent must be +1 or -1")
                signs.append(value)
                segs.append(self.base.identity)
            elif kind == "g":
                self.base.check(value)
                segs[-1] = self.base.multiply(segs[-1], value)
            else:
                raise ValueError(f"unknown token kind {kind!r}")

        while True:
            i = _find_pinch(self, signs, segs[1:])
            if i is None:
                break
            if signs[i] == -1:
                c = self.alpha.preimage(segs[i + 1])
                if c is None:
                    raise InvariantError("image membership without a preimage")
                mid = self.beta.apply(c)
            else:
                c = self.beta.preimage(segs[i + 1])
                if c is None:
                    raise InvariantError("image membership without a preimage")
                mid = self.alpha.apply(c)
            merged = self.base.multiply(self.base.multiply(segs[i], mid), segs[i + 2])
            segs[i : i + 3] = [merged]
            del signs[i : i + 2]

        # canonical representatives, swept right to left; pushing the coset
        # head through t^e cannot create a new pinch because membership in
        # either image is stable under right multiplication from it
        for i in range(len(signs) - 1, -1, -1):
            g = segs[i + 1]
            source = self.beta if signs[i] == 1 else self.alpha
            target = self.alpha if signs[i] == 1 else self.beta
            r = source.image.rep(g)
            c = source.preimage(self.base.multiply(g, self.base.invert(r)))
            if c is None:
                raise InvariantError("coset head escaped the subgroup image")
            segs[i + 1] = r
            segs[i] = self.base.multiply(segs[i], target.apply(c))

        if _find_pinch(self, signs, segs[1:]) is not None:
            raise InvariantError("a pinch survived the canonical sweep")
        return HNNWord(segs[0], tuple(zip(signs, segs[1:])))

    def assert_reduced(self, word):
        """Raise unless the word is pinch-free; used before grading it."""
        signs = [sign for sign, _ in word.tail]
        middles = [g for _, g in word.tail]
        if _find_pinch(self, signs, middles) is not None:
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

    def invert_word(self, word):
        tokens = []
        for kind, value in reversed(self.word_tokens(word)):
            if kind == "t":
                tokens.append(("t", -value))
            else:
                tokens.append(("g", self.base.invert(value)))
        return self.normalize(tokens)

    def __repr__(self):
        return f"HNN({self.base!r})"


def hnn_to_dict(hnn):
    return {
        "construction": "hnn",
        "subgroup": group_to_dict(hnn.subgroup),
        "base": group_to_dict(hnn.base),
        "alpha": embedding_to_dict(hnn.alpha),
        "beta": embedding_to_dict(hnn.beta),
    }


def hnn_from_dict(data):
    subgroup = group_from_dict(data["subgroup"])
    base = group_from_dict(data["base"])
    return HNN(
        subgroup,
        base,
        embedding_from_dict(subgroup, base, data["alpha"]),
        embedding_from_dict(subgroup, base, data["beta"]),
    )
