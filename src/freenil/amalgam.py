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
from .groups import embedding_from_dict, group_from_dict


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
        """Fold raw (factor, element) tokens into the normal form.

        Each token is checked here, once per distinct object and factor tag
        (one object may name an element of one factor only), as in
        ``HNN.normalize``; the fold and the sweep then use the factors'
        trusted operations, which do not check again.
        """
        subgroup = self.subgroup
        head = subgroup.identity
        stack = []
        # each factor's operations and its memo of checked elements (id -> element:
        # holding each keeps its id from being reused), indexed by its tag k (slot 0 is unused)
        check, identity, multiply, invert, member, rep, apply, preimage, checked = zip(
            (None,) * 9,
            *(
                (f.check, f.identity, f.multiply, f.invert, *e.image.trusted(), *e.trusted(), {})
                for f, e in zip(self.factors, self.embeddings)
            ),
        )
        for token in tokens:
            try:
                k, g = token
            except (TypeError, ValueError):
                raise ValueError(f"malformed token {token!r}") from None
            if k not in (1, 2):
                raise ValueError("factor tag must be 1 or 2")
            if id(g) not in checked[k]:
                checked[k][id(g)] = check[k](g)
            # absorb (k, g): merge it into a same-factor top, or carry its
            # subgroup-image part into whatever sits to its left
            while g != identity[k]:
                if stack and stack[-1][0] == k:
                    g = multiply[k](stack.pop()[1], g)
                elif member[k](g):
                    c = preimage[k](g)
                    if c is None:
                        raise InvariantError("image membership without a preimage")
                    if not stack:
                        head = subgroup.multiply(head, c)
                        break
                    k, top = stack.pop()
                    g = multiply[k](top, apply[k](c))
                else:
                    stack.append((k, g))
                    break

        # sweep right to left onto canonical coset representatives; the
        # surplus subgroup part commutes across the seam via the embeddings
        for i in range(len(stack) - 1, -1, -1):
            k, g = stack[i]
            r = rep[k](g)
            if r == identity[k]:
                raise InvariantError("a syllable collapsed during the canonical sweep")
            c = preimage[k](multiply[k](g, invert[k](r)))
            if c is None:
                raise InvariantError("coset head escaped the subgroup image")
            stack[i] = (k, r)
            if c == subgroup.identity:
                continue
            if i == 0:
                head = subgroup.multiply(head, c)
            else:
                j, left = stack[i - 1]
                stack[i - 1] = (j, multiply[j](left, apply[j](c)))
        return AmalgamWord(head, tuple(stack))

    def word_tokens(self, word):
        tokens = []
        if word.head != self.subgroup.identity:
            tokens.append((1, self.embeddings[0].apply(word.head)))
        tokens.extend(word.syllables)
        return tokens

    def multiply_words(self, a, b):
        return self.normalize(self.word_tokens(a) + self.word_tokens(b))

    def __repr__(self):
        return f"Amalgam({self.factors[0]!r}, {self.factors[1]!r})"


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
