"""Reference normal-form pipeline: parse token by token, fold by recursion.

These are the plain forms of `cli.parse_word_tokens`, `Amalgam.normalize`,
`HNN.normalize` and `cli.render_word`.  The shipped versions parse each
distinct token text once per word and fold with trusted group operations;
here every token is parsed on its own, the amalgam fold is the recursive
``absorb``, and every group operation goes through the checked public
methods.  The two pipelines must agree on every word, errors included.
"""

from __future__ import annotations

from freenil.amalgam import Amalgam, AmalgamWord
from freenil.errors import InvariantError
from freenil.groups import format_element, parse_element
from freenil.hnn import HNN, HNNWord


def parse_word_tokens(construction, text):
    if text.strip() == "1":
        return []
    tokens = []
    for raw in text.split():
        if isinstance(construction, HNN):
            if raw == "T+":
                tokens.append(("t", 1))
            elif raw == "T-":
                tokens.append(("t", -1))
            elif raw != "1":
                element = parse_element(construction.base, raw.replace(",", " "))
                tokens.append(("g", element))
        elif isinstance(construction, Amalgam):
            tag, sep, rest = raw.partition(":")
            if not sep or tag not in ("1", "2"):
                raise ValueError(
                    f"amalgam tokens look like 1:ELEMENT or 2:ELEMENT, got {raw!r}"
                )
            k = int(tag)
            element = parse_element(construction.factors[k - 1], rest.replace(",", " "))
            tokens.append((k, element))
        else:
            raise ValueError("words need an amalgam or HNN construction")
    return tokens


def amalgam_normalize(amalgam, tokens):
    head = amalgam.subgroup.identity
    stack = []

    def absorb(k, g):
        nonlocal head
        factor = amalgam.factors[k - 1]
        if g == factor.identity:
            return
        if stack and stack[-1][0] == k:
            _, top = stack.pop()
            absorb(k, factor.multiply(top, g))
            return
        embed = amalgam.embeddings[k - 1]
        if embed.image.membership(g):
            c = embed.preimage(g)
            if c is None:
                raise InvariantError("image membership without a preimage")
            if stack:
                j, top = stack.pop()
                other = amalgam.factors[j - 1]
                absorb(j, other.multiply(top, amalgam.embeddings[j - 1].apply(c)))
            else:
                head = amalgam.subgroup.multiply(head, c)
            return
        stack.append((k, g))

    for token in tokens:
        try:
            k, g = token
        except (TypeError, ValueError):
            raise ValueError(f"malformed token {token!r}") from None
        if k not in (1, 2):
            raise ValueError("factor tag must be 1 or 2")
        amalgam.factors[k - 1].check(g)
        absorb(k, g)

    for i in range(len(stack) - 1, -1, -1):
        k, g = stack[i]
        factor = amalgam.factors[k - 1]
        embed = amalgam.embeddings[k - 1]
        r = embed.image.rep(g)
        if r == factor.identity:
            raise InvariantError("a syllable collapsed during the canonical sweep")
        c = embed.preimage(factor.multiply(g, factor.invert(r)))
        if c is None:
            raise InvariantError("coset head escaped the subgroup image")
        stack[i] = (k, r)
        if c == amalgam.subgroup.identity:
            continue
        if i == 0:
            head = amalgam.subgroup.multiply(head, c)
        else:
            j, left = stack[i - 1]
            other = amalgam.factors[j - 1]
            stack[i - 1] = (j, other.multiply(left, amalgam.embeddings[j - 1].apply(c)))
    return AmalgamWord(head, tuple(stack))


def _find_pinch(hnn, tail):
    for i, ((sign, g), (after, _)) in enumerate(zip(tail, tail[1:])):
        if sign == -after and hnn._carry(sign)[0].image.membership(g):
            return i
    return None


def hnn_normalize(hnn, tokens):
    base = hnn.base
    segs = [base.identity]
    signs = []
    for token in tokens:
        try:
            kind, value = token
        except (TypeError, ValueError):
            raise ValueError(f"malformed token {token!r}") from None
        if kind == "t":
            if value not in (1, -1):
                raise ValueError("stable-letter exponent must be +1 or -1")
            if signs and signs[-1] == -value:
                source, target = hnn._carry(signs[-1])
                if source.image.membership(segs[-1]):
                    c = source.preimage(segs[-1])
                    if c is None:
                        raise InvariantError("image membership without a preimage")
                    segs.pop()
                    signs.pop()
                    segs[-1] = base.multiply(segs[-1], target.apply(c))
                    continue
            signs.append(value)
            segs.append(base.identity)
        elif kind == "g":
            base.check(value)
            segs[-1] = base.multiply(segs[-1], value)
        else:
            raise ValueError(f"unknown token kind {kind!r}")

    for i in range(len(signs) - 1, -1, -1):
        g = segs[i + 1]
        source, target = hnn._carry(signs[i])
        r = source.image.rep(g)
        c = source.preimage(base.multiply(g, base.invert(r)))
        if c is None:
            raise InvariantError("coset head escaped the subgroup image")
        segs[i + 1] = r
        segs[i] = base.multiply(segs[i], target.apply(c))

    tail = tuple(zip(signs, segs[1:]))
    if _find_pinch(hnn, tail) is not None:
        raise InvariantError("a pinch survived the canonical sweep")
    return HNNWord(segs[0], tail)


def normalize(construction, tokens):
    if isinstance(construction, HNN):
        return hnn_normalize(construction, tokens)
    return amalgam_normalize(construction, tokens)


def render_word(construction, word):
    parts = []
    if isinstance(construction, HNN):
        for kind, value in construction.word_tokens(word):
            if kind == "t":
                parts.append("T+" if value == 1 else "T-")
            else:
                parts.append(format_element(construction.base, value).replace(" ", ","))
    else:
        for k, g in construction.word_tokens(word):
            text = format_element(construction.factors[k - 1], g).replace(" ", ",")
            parts.append(f"{k}:{text}")
    return " ".join(parts) if parts else "1"
