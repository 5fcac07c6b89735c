"""Normal forms in an amalgamated free product of two oracle groups.

A word is carried as ``head * s_1 * ... * s_n``: the head lives in the shared
subgroup, and the syllables alternate between the two factors with every s_k
a canonical coset representative different from the identity.  Normalization
folds a raw token list into this shape by merging same-factor neighbours,
absorbing syllables that lie in the shared subgroup's image into whatever
sits to their left, and finally sweeping right to left so each syllable
becomes its coset representative while the subgroup surplus migrates into
the head.
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
class AmalgamWord:
    """Normal form ``head * syllables``; produced by ``Amalgam.normalize``."""

    head: object
    syllables: tuple


class Amalgam:
    """Two factor oracles glued along embedded copies of a shared subgroup."""

    __slots__ = ("subgroup", "factors", "embeddings")

    def __init__(self, subgroup, factor1, factor2, embed1, embed2):
        if embed1.src is not subgroup or embed2.src is not subgroup:
            raise ValueError("both embeddings must start at the shared subgroup")
        if embed1.dst is not factor1 or embed2.dst is not factor2:
            raise ValueError("each embedding must land in its own factor")
        self.subgroup = subgroup
        self.factors = (factor1, factor2)
        self.embeddings = (embed1, embed2)

    def identity_word(self):
        return AmalgamWord(self.subgroup.identity, ())

    def normalize(self, tokens):
        """Fold raw (factor, element) tokens into the normal form."""
        head = self.subgroup.identity
        stack = []

        def absorb(k, g):
            nonlocal head
            factor = self.factors[k - 1]
            if g == factor.identity:
                return
            if stack and stack[-1][0] == k:
                _, top = stack.pop()
                absorb(k, factor.multiply(top, g))
                return
            embed = self.embeddings[k - 1]
            if embed.image.membership(g):
                c = embed.preimage(g)
                if c is None:
                    raise InvariantError("image membership without a preimage")
                if stack:
                    j, top = stack.pop()
                    other = self.factors[j - 1]
                    absorb(j, other.multiply(top, self.embeddings[j - 1].apply(c)))
                else:
                    head = self.subgroup.multiply(head, c)
                return
            stack.append((k, g))

        for token in tokens:
            try:
                k, g = token
            except (TypeError, ValueError):
                raise ValueError(f"malformed token {token!r}") from None
            if k not in (1, 2):
                raise ValueError("factor tag must be 1 or 2")
            self.factors[k - 1].check(g)
            absorb(k, g)

        # sweep right to left onto canonical coset representatives; the
        # surplus subgroup part commutes across the seam via the embeddings
        for i in range(len(stack) - 1, -1, -1):
            k, g = stack[i]
            factor = self.factors[k - 1]
            embed = self.embeddings[k - 1]
            r = embed.image.rep(g)
            if r == factor.identity:
                raise InvariantError("a syllable collapsed during the canonical sweep")
            c = embed.preimage(factor.multiply(g, factor.invert(r)))
            if c is None:
                raise InvariantError("coset head escaped the subgroup image")
            stack[i] = (k, r)
            if c == self.subgroup.identity:
                continue
            if i == 0:
                head = self.subgroup.multiply(head, c)
            else:
                j, left = stack[i - 1]
                other = self.factors[j - 1]
                stack[i - 1] = (j, other.multiply(left, self.embeddings[j - 1].apply(c)))
        return AmalgamWord(head, tuple(stack))

    def word_tokens(self, word):
        tokens = []
        if word.head != self.subgroup.identity:
            tokens.append((1, self.embeddings[0].apply(word.head)))
        tokens.extend(word.syllables)
        return tokens

    def multiply_words(self, a, b):
        return self.normalize(self.word_tokens(a) + self.word_tokens(b))

    def invert_word(self, word):
        return self.normalize(
            [
                (k, self.factors[k - 1].invert(g))
                for k, g in reversed(self.word_tokens(word))
            ]
        )

    def __repr__(self):
        return f"Amalgam({self.factors[0]!r}, {self.factors[1]!r})"


def amalgam_to_dict(amalgam):
    return {
        "construction": "amalgam",
        "subgroup": group_to_dict(amalgam.subgroup),
        "factor1": group_to_dict(amalgam.factors[0]),
        "factor2": group_to_dict(amalgam.factors[1]),
        "embedding1": embedding_to_dict(amalgam.embeddings[0]),
        "embedding2": embedding_to_dict(amalgam.embeddings[1]),
    }


def amalgam_from_dict(data):
    subgroup = group_from_dict(data["subgroup"])
    factor1 = group_from_dict(data["factor1"])
    factor2 = group_from_dict(data["factor2"])
    return Amalgam(
        subgroup,
        factor1,
        factor2,
        embedding_from_dict(subgroup, factor1, data["embedding1"]),
        embedding_from_dict(subgroup, factor2, data["embedding2"]),
    )
