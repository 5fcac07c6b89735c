"""Britton normal forms checked against the affine BS(1,2) model.

A finite-base extension of S_3 whose two subgroup copies differ exercises
the coset sweep with nonabelian carries; randomized pinch removal in
arbitrary order confirms the reduction is confluent.
"""

import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

import pytest

from freenil import cli, groupring, groups
from freenil.errors import InvariantError
from freenil.groups import (
    FiniteEmbedding,
    FiniteGroup,
    FreeAbelianEmbedding,
    FreeAbelianGroup,
)
from freenil.hnn import HNN, HNNWord
from freenil.store import construction_from_dict, load_construction

from group_models import S3_PERMS, eval_bs12, from_permutations

A = (1,)


@pytest.fixture(scope="module")
def bs12():
    return load_construction("src/freenil/data/bs12.json")


@pytest.fixture(scope="module")
def s3_hnn():
    # Stable letter conjugates the copy of Z/2 at (12) onto the one at (13).
    c2 = FiniteGroup(("1", "c"), [[0, 1], [1, 0]])
    s3 = from_permutations(S3_PERMS)
    return HNN(
        c2,
        s3,
        FiniteEmbedding(c2, s3, {"c": "(12)"}),
        FiniteEmbedding(c2, s3, {"c": "(13)"}),
    )


bs_tokens = st.lists(
    st.one_of(
        st.sampled_from([("t", 1), ("t", -1)]),
        st.integers(-3, 3).map(lambda n: ("g", (n,))),
    ),
    max_size=8,
)

s3_tokens = st.lists(
    st.one_of(
        st.sampled_from([("t", 1), ("t", -1)]),
        st.sampled_from(sorted(S3_PERMS)).map(lambda n: ("g", n)),
    ),
    max_size=7,
)


class TestBS12Examples:
    def test_conjugation_doubles(self, bs12):
        w = bs12.normalize([("t", -1), ("g", A), ("t", 1)])
        assert w == HNNWord((2,), ())

    def test_tt_inverse_cancels(self, bs12):
        assert bs12.normalize([("t", 1), ("t", -1)]) == bs12.identity_word()
        assert bs12.normalize([("t", -1), ("t", 1)]) == bs12.identity_word()

    def test_odd_power_stays_reduced(self, bs12):
        w = bs12.normalize([("t", 1), ("g", A), ("t", -1)])
        assert w == HNNWord((0,), ((1, (1,)), (-1, (0,))))

    def test_even_power_pinches(self, bs12):
        w = bs12.normalize([("t", 1), ("g", (2,)), ("t", -1)])
        assert w == HNNWord((1,), ())

    def test_nested_conjugation(self, bs12):
        tokens = [("t", -1)] * 2 + [("g", (4,))] + [("t", 1)] * 2
        assert bs12.normalize(tokens) == HNNWord((16,), ())
        # each closing letter pinches a segment that the previous pinch reopened
        tokens = [("t", 1)] * 3 + [("g", (8,))] + [("t", -1)] * 3
        assert bs12.normalize(tokens) == HNNWord((1,), ())
        tokens = [("t", 1), ("g", (2,)), ("t", 1), ("g", (4,)), ("t", -1), ("t", -1)]
        assert bs12.normalize(tokens) == HNNWord((2,), ())

    def test_stable_letter_alone(self, bs12):
        assert bs12.normalize([("t", 1)]) == HNNWord((0,), ((1, (0,)),))


class TestFiniteBaseExamples:
    def test_conjugate_crosses_subgroups(self, s3_hnn):
        w = s3_hnn.normalize([("t", 1), ("g", "(13)"), ("t", -1)])
        assert w == HNNWord("(12)", ())

    def test_stable_letter_pulls_carry_left(self, s3_hnn):
        w = s3_hnn.normalize([("t", 1), ("g", "(13)")])
        assert w == HNNWord("(12)", ((1, "1"),))

    def test_non_member_keeps_t_length(self, s3_hnn):
        w = s3_hnn.normalize([("t", 1), ("g", "(23)"), ("t", -1)])
        assert len(w.tail) == 2

    def test_reverse_direction_pinch(self, s3_hnn):
        w = s3_hnn.normalize([("t", -1), ("g", "(12)"), ("t", 1)])
        assert w == HNNWord("(13)", ())


def invert_word(hnn, word):
    return hnn.normalize(
        [
            ("t", -value) if kind == "t" else ("g", hnn.base.invert(value))
            for kind, value in reversed(hnn.word_tokens(word))
        ]
    )


def random_order_reduce(hnn, tokens, rng):
    """Test-local Britton reduction removing pinches in random order."""
    segs = [hnn.base.identity]
    signs = []
    for kind, value in tokens:
        if kind == "t":
            signs.append(value)
            segs.append(hnn.base.identity)
        else:
            segs[-1] = hnn.base.multiply(segs[-1], value)
    while True:
        spots = []
        for i in range(len(signs) - 1):
            if signs[i] == -1 and signs[i + 1] == 1:
                if hnn.alpha.image.membership(segs[i + 1]):
                    spots.append(i)
            elif signs[i] == 1 and signs[i + 1] == -1:
                if hnn.beta.image.membership(segs[i + 1]):
                    spots.append(i)
        if not spots:
            break
        i = rng.choice(spots)
        if signs[i] == -1:
            mid = hnn.beta.apply(hnn.alpha.preimage(segs[i + 1]))
        else:
            mid = hnn.alpha.apply(hnn.beta.preimage(segs[i + 1]))
        segs[i : i + 3] = [
            hnn.base.multiply(hnn.base.multiply(segs[i], mid), segs[i + 2])
        ]
        del signs[i : i + 2]
    out = []
    if segs[0] != hnn.base.identity:
        out.append(("g", segs[0]))
    for sign, g in zip(signs, segs[1:]):
        out.append(("t", sign))
        if g != hnn.base.identity:
            out.append(("g", g))
    return out


class TestNormalFormInvariants:
    @given(tokens=bs_tokens)
    def test_idempotent(self, bs12, tokens):
        w = bs12.normalize(tokens)
        assert bs12.normalize(bs12.word_tokens(w)) == w

    @given(tokens=bs_tokens)
    def test_output_is_reduced(self, bs12, tokens):
        bs12.assert_reduced(bs12.normalize(tokens))

    @given(tokens=bs_tokens)
    def test_sound_over_model(self, bs12, tokens):
        w = bs12.normalize(tokens)
        assert eval_bs12(bs12.word_tokens(w)) == eval_bs12(tokens)

    @given(u=bs_tokens, v=bs_tokens)
    @settings(max_examples=60)
    def test_uniqueness_against_affine_model(self, bs12, u, v):
        same_element = eval_bs12(u) == eval_bs12(v)
        same_form = bs12.normalize(u) == bs12.normalize(v)
        assert same_element == same_form

    @given(u=bs_tokens, v=bs_tokens)
    def test_concatenation_homomorphism(self, bs12, u, v):
        whole = bs12.normalize(u + v)
        split = bs12.multiply_words(bs12.normalize(u), bs12.normalize(v))
        assert whole == split

    @given(tokens=bs_tokens)
    def test_inverse_word(self, bs12, tokens):
        w = bs12.normalize(tokens)
        assert bs12.multiply_words(w, invert_word(bs12, w)) == bs12.identity_word()

    @given(tokens=bs_tokens, seed=st.integers(0, 2**16))
    @settings(max_examples=80)
    def test_pinch_order_confluence(self, bs12, tokens, seed):
        shuffled = random_order_reduce(bs12, tokens, random.Random(seed))
        assert bs12.normalize(shuffled) == bs12.normalize(tokens)

    @given(tokens=s3_tokens, seed=st.integers(0, 2**16))
    @settings(max_examples=80)
    def test_finite_base_confluence(self, s3_hnn, tokens, seed):
        shuffled = random_order_reduce(s3_hnn, tokens, random.Random(seed))
        assert s3_hnn.normalize(shuffled) == s3_hnn.normalize(tokens)

    @given(tokens=s3_tokens)
    def test_finite_base_idempotent(self, s3_hnn, tokens):
        w = s3_hnn.normalize(tokens)
        assert s3_hnn.normalize(s3_hnn.word_tokens(w)) == w

    @given(u=s3_tokens, v=s3_tokens)
    @settings(max_examples=60)
    def test_finite_base_homomorphism(self, s3_hnn, u, v):
        whole = s3_hnn.normalize(u + v)
        split = s3_hnn.multiply_words(s3_hnn.normalize(u), s3_hnn.normalize(v))
        assert whole == split


class TestDiagonalFastPath:
    def test_long_word_runs_no_general_reduction_and_one_check_per_element(self, monkeypatch):
        # bs12's lattices are diagonal, so neither normalizing nor grading may
        # fall back to `_Lattice.reduce`, and the parser's one object per
        # distinct text is checked once; the construction is loaded after the
        # counters are in
        calls = {"reduce": 0, "check": 0}

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(groups._Lattice, "reduce", counted("reduce", groups._Lattice.reduce))
        monkeypatch.setattr(groups.FreeAbelianGroup, "check",
                            counted("check", groups.FreeAbelianGroup.check))
        bs12 = cli._load_construction("bs12")
        rng = random.Random(3000)
        text = " ".join(rng.choice(("T+", "T-", "a", "a^-1", "a^2", "a^3")) for _ in range(3000))
        tokens = cli.parse_word_tokens(bs12, text)
        calls.update(reduce=0, check=0)
        word = bs12.normalize(tokens)
        assert calls == {"reduce": 0, "check": len({id(v) for k, v in tokens if k == "g"})}
        assert calls["check"] == 4
        assert eval_bs12(bs12.word_tokens(word)) == eval_bs12(tokens)
        calls.update(reduce=0)
        groupring.word_sequence_type(bs12, word)
        assert calls["reduce"] == 0


class TestErrors:
    def test_malformed_token(self, bs12):
        with pytest.raises(ValueError, match="malformed"):
            bs12.normalize(["t"])

    def test_bad_exponent(self, bs12):
        with pytest.raises(ValueError, match="exponent"):
            bs12.normalize([("t", 2)])

    def test_unknown_kind(self, bs12):
        with pytest.raises(ValueError, match="token kind"):
            bs12.normalize([("x", 1)])

    def test_assert_reduced_rejects_pinch(self, bs12):
        pinched = HNNWord((0,), ((1, (2,)), (-1, (0,))))
        with pytest.raises(InvariantError, match="reduced"):
            bs12.assert_reduced(pinched)

    def test_base_letter_t_reserved(self):
        c = FreeAbelianGroup(1, ("c",))
        bad = FreeAbelianGroup(1, ("t",))
        with pytest.raises(ValueError, match="stable letter"):
            HNN(
                c,
                bad,
                FreeAbelianEmbedding(c, bad, [(1,)]),
                FreeAbelianEmbedding(c, bad, [(2,)]),
            )

    @pytest.mark.parametrize("names,match", [
        (("1", "x", "T+"), "T\\+"),
        (("1", "x", "T-"), "T-"),
        (("e", "x", "1"), "identity"),
    ], ids=["T+", "T-", "1"])
    def test_base_names_that_collide_with_word_text(self, names, match):
        # "T+", "T-" and a lone "1" are word syntax, so a base element with
        # one of these names would render to text that reads back otherwise
        triv = FiniteGroup(("1",), [[0]])
        z3 = FiniteGroup(names, [[(i + j) % 3 for j in range(3)] for i in range(3)])
        with pytest.raises(ValueError, match=match):
            HNN(triv, z3, FiniteEmbedding(triv, z3, {}), FiniteEmbedding(triv, z3, {}))

    def test_wiring_must_match(self):
        c = FreeAbelianGroup(1, ("c",))
        a = FreeAbelianGroup(1, ("a",))
        other = FreeAbelianGroup(1, ("b",))
        with pytest.raises(ValueError, match="base group"):
            HNN(
                c,
                a,
                FreeAbelianEmbedding(c, a, [(1,)]),
                FreeAbelianEmbedding(c, other, [(2,)]),
            )


class TestStorage:
    def test_construction_round_trip(self, bs12):
        data = json.loads(Path("src/freenil/data/bs12.json").read_text(encoding="utf-8"))
        again = construction_from_dict(data)
        tokens = [("t", -1), ("g", A), ("t", 1)]
        assert again.normalize(tokens) == HNNWord((2,), ())
        assert again.base.letters == bs12.base.letters == ("a",)
        assert again.beta.apply((1,)) == bs12.beta.apply((1,)) == (2,)
