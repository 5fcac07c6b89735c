"""The shipped normal-form pipeline against the reference in normal_form_oracle.

Words are drawn over dinf, s3z2, bs12 and an S4 *_{Z4} S4 file, with
repeated tokens, identity tokens and runs that cancel.  Parsing,
normalizing and rendering must give the same word and the same text as
the reference; words with bad tokens must fail with the same error, and
raw token lists with one bad token must fail the same way at the
`normalize` entry, where each caller-supplied token is checked.  The entry
checks run once per distinct token object (and factor, in an amalgam), so
bad tokens that equal a good one that came before, one object under both
amalgam tags, and unhashable ones are tried directly.
"""

import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from freenil import cli

import normal_form_oracle as oracle
from group_models import perm_inv, perm_mul, perm_table, symmetric_perms

S4 = symmetric_perms(4)
S4_NAMES = {p: name for name, p in S4.items()}
C1 = (1, 2, 3, 0)  # the 4-cycle 0 -> 1 -> 2 -> 3
C2 = (2, 3, 1, 0)  # the 4-cycle 0 -> 2 -> 1 -> 3


def s4_amalgam_dict():
    """S4 *_{Z4} S4, the shared Z4 sent to two different 4-cycles."""
    perms = list(S4.values())
    s4 = {"kind": "finite", "names": list(S4), "table": perm_table(perms)}
    z4 = {"kind": "finite", "names": ["e", "c", "c2", "c3"],
          "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}
    return {
        "construction": "amalgam",
        "subgroup": z4,
        "factor1": s4,
        "factor2": s4,
        "embedding1": {"kind": "finite", "generator_images": {"c": S4_NAMES[C1]}},
        "embedding2": {"kind": "finite", "generator_images": {"c": S4_NAMES[C2]}},
    }


def _s4_cancelling():
    runs = []
    for p in S4.values():
        for k in "12":
            runs.append((f"{k}:{S4_NAMES[p]}", f"{k}:{S4_NAMES[perm_inv(p)]}"))
    # c1^e in factor 1 is c2^e in factor 2, so these cancel across the seam
    c1e, c2e = C1, C2
    for _ in range(3):
        runs.append((f"1:{S4_NAMES[c1e]}", f"2:{S4_NAMES[perm_inv(c2e)]}"))
        c1e, c2e = perm_mul(c1e, C1), perm_mul(c2e, C2)
    return runs


S3 = ("1", "(12)", "(13)", "(23)", "(123)", "(132)")

# name: (token pool with identity tokens, cancelling runs, bad tokens)
WORDS = {
    "dinf": (
        ["1:s", "2:r", "1:1", "2:1"],
        [("1:s", "1:s"), ("2:r", "2:r"), ("1:1", "2:1")],
        ["3:s", "s", "1:r", "2:", "1:s,s"],
    ),
    "s3z2": (
        [f"1:{n}" for n in S3] + ["2:r", "2:1"],
        [("1:(123)", "1:(132)"), ("1:(13)", "1:(13)"), ("1:(12)", "2:r"), ("2:r", "1:(12)")],
        ["2:(12)", "1:(14)", "0:1", "(12)", "1:"],
    ),
    "s4z4s4": (
        [f"{k}:{n}" for k in "12" for n in S4],
        _s4_cancelling(),
        ["1:p0000", "3:p0123", "p0123", "2:e", "1:c"],
    ),
    "bs12": (
        ["T+", "T-", "a", "a^-1", "a^2", "a^3", "1"],
        [("a", "a^-1"), ("a^2", "a^-2"), ("T+", "T-"), ("T-", "T+"), ("a^-3", "a^3")],
        ["b", "a^0", "a^x", "T", "1:a", "a,a", "c"],
    ),
}

# raw tokens for `normalize` itself: good ones, and ones its entry check rejects
RAW = {
    "dinf": ([(1, "s"), (2, "r"), (1, "1"), (2, "1")],
             [(1, "r"), (2, "zz"), (3, "s"), (1, 5), ("x",), None]),
    "s3z2": ([(1, n) for n in S3] + [(2, "r"), (2, "1")],
             [(2, "(12)"), (1, "(14)"), (0, "1"), (1, ("(12)",))]),
    "s4z4s4": ([(k, n) for k in (1, 2) for n in S4],
               [(1, "p0000"), (2, "e"), (1, "c"), (1, None)]),
    "bs12": ([("t", 1), ("t", -1), ("g", (1,)), ("g", (-1,)), ("g", (2,)), ("g", (0,))],
             [("g", (1, 2)), ("g", ()), ("g", "a"), ("g", (1.0,)), ("t", 2), ("q", 1), ("g",)]),
}


@pytest.fixture(scope="module")
def constructions(tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "s4z4s4.json"
    path.write_text(json.dumps(s4_amalgam_dict()))
    return {
        "dinf": cli._load_construction("dinf"),
        "s3z2": cli._load_construction("s3z2"),
        "s4z4s4": cli._load_construction(str(path)),
        "bs12": cli._load_construction("bs12"),
    }


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # the error itself is the thing compared
        return type(exc).__name__, str(exc)


@st.composite
def word_texts(draw, name, bad):
    pool, runs, bad_tokens = WORDS[name]
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(("token", "run", "repeat")))
        if shape == "token":
            parts.append(draw(st.sampled_from(pool)))
        elif shape == "run":
            parts.extend(draw(st.sampled_from(runs)))
        else:
            parts.extend([draw(st.sampled_from(pool))] * draw(st.integers(2, 5)))
    for _ in range(bad):
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(bad_tokens)))
    return " ".join(parts)


@st.composite
def raw_tokens(draw, name):
    good, bad = RAW[name]
    tokens = draw(st.lists(st.sampled_from(good), max_size=30))
    tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(bad)))
    return tokens


def shipped(construction, text):
    word = construction.normalize(cli.parse_word_tokens(construction, text))
    return word, cli.render_word(construction, word)


def reference(construction, text):
    word = oracle.normalize(construction, oracle.parse_word_tokens(construction, text))
    return word, oracle.render_word(construction, word)


NAMES = sorted(WORDS)


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_words_match_the_reference(constructions, name, data):
    c = constructions[name]
    text = data.draw(word_texts(name, 0))
    got = outcome(shipped, c, text)
    assert got == outcome(reference, c, text)
    assert got[0] == "ok"


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_bad_tokens_raise_the_reference_error(constructions, name, data):
    c = constructions[name]
    text = data.draw(word_texts(name, data.draw(st.integers(1, 2))))
    got = outcome(shipped, c, text)
    assert got == outcome(reference, c, text)
    assert got[0] == "ValueError"


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_normalize_entry_checks_every_token(constructions, name, data):
    c = constructions[name]
    tokens = data.draw(raw_tokens(name))
    got = outcome(c.normalize, tokens)
    assert got == outcome(oracle.normalize, c, tokens)
    assert got[0] == "ValueError"


@pytest.mark.parametrize("name", NAMES)
def test_long_words_match_the_reference(constructions, name):
    # a fixed 3,000-token word per construction, as long as the benchmark's
    rng = Random(name)
    pool, _, _ = WORDS[name]
    text = " ".join(rng.choice(pool) for _ in range(3000))
    assert outcome(shipped, constructions[name], text) == outcome(
        reference, constructions[name], text
    )


# bs12 token lists with a bad token after a good one of equal value
# ((1.0,) == (1,) with an equal hash), and unhashable ones
MEMO_TRAPS = [
    [("g", (1,)), ("g", (1.0,))],
    [("g", (1,)), ("t", 1), ("g", (1,)), ("g", (1.0,)), ("t", -1)],
    [("g", (2,)), ("g", (2,)), ("g", (2.0,))],
    [("g", (True,)), ("g", (1,)), ("g", (1.0,))],
    [("g", [1])],
    [("g", (1,)), ("g", [1])],
    [("g", (1,)), ("g", (1.0,)), ("g", [1])],
]


@pytest.mark.parametrize("tokens", MEMO_TRAPS, ids=str)
def test_memoised_entry_check_cannot_be_fooled(constructions, tokens):
    c = constructions["bs12"]
    got = outcome(c.normalize, tokens)
    assert got == outcome(oracle.normalize, c, tokens)
    assert got[0] == "ValueError"


class Vec(tuple):
    """An exponent vector that counts its own deallocation."""

    freed = 0

    def __del__(self):
        type(self).freed += 1


def test_memo_holds_every_checked_object(constructions):
    # a checked object that were freed could hand its id to a later bad
    # token, which would then skip its check; so each stays alive
    c = constructions["bs12"]
    Vec.freed = 0
    freed = []

    def fresh():
        for x in [1, 2, 3] * 10:
            freed.append(Vec.freed)
            yield "g", Vec((x,))
        freed.append(Vec.freed)
        yield "g", (1.0,)

    assert outcome(c.normalize, fresh()) == outcome(oracle.normalize, c, [("g", (1.0,))])
    assert freed == [0] * 31


# amalgam token lists where one object reaches both factors but names an
# element of only one, unhashable elements, and bad tokens whose order
# decides which error is raised; the amalgam entry check is memoised on
# (factor, id), so each must still fail as the reference does
AMALGAM_MEMO_TRAPS = [
    ("dinf", [(1, "s"), (2, "s")]),
    ("dinf", [(2, "r"), (1, "s"), (1, "r")]),
    ("s3z2", [(1, "(12)"), (1, "(12)"), (2, "(12)")]),
    ("s3z2", [(2, "r"), (2, "r"), (1, "r")]),
    ("dinf", [(1, ["s"])]),
    ("dinf", [(1, "s"), (1, ["s"]), (2, ["r"])]),
    ("s3z2", [(1, "(12)"), (2, "zz"), (1, "qq")]),
    ("s3z2", [(2, "(12)"), (1, "(12)"), (1, "zz")]),
    ("s4z4s4", [(1, "p0123"), (2, "p0123"), (1, "c"), (2, "e")]),
]


@pytest.mark.parametrize("name, tokens", AMALGAM_MEMO_TRAPS, ids=str)
def test_amalgam_entry_check_memo_cannot_be_fooled(constructions, name, tokens):
    c = constructions[name]
    got = outcome(c.normalize, tokens)
    assert got == outcome(oracle.normalize, c, tokens)
    assert got[0] == "ValueError"


class Name(str):
    """An element name that counts its own deallocation."""

    freed = 0

    def __del__(self):
        type(self).freed += 1


def test_amalgam_memo_holds_every_checked_object(constructions):
    # s * s = 1 in dinf's first factor, so the fold itself keeps no token
    c = constructions["dinf"]
    Name.freed = 0
    freed = []

    def fresh():
        for _ in range(20):
            freed.append(Name.freed)
            yield 1, Name("s")
        freed.append(Name.freed)
        yield 2, "s"

    assert outcome(c.normalize, fresh()) == outcome(oracle.normalize, c, [(2, "s")])
    assert freed == [0] * 21
