"""Amalgam normal forms checked against faithful affine and permutation models.

The infinite dihedral group pins down the generic case (trivial shared
subgroup); the S_3 example glues along a subgroup that is onto one factor,
so its pushout collapses onto S_3 and every word has a one-syllable form.
"""

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

import pytest

from freenil.amalgam import Amalgam, AmalgamWord
from freenil.groups import FiniteEmbedding, FiniteGroup
from freenil.store import construction_from_dict, load_construction

from group_models import S3_PERMS, eval_dihedral, eval_s3_pushout

DATA = "src/freenil/data"


@pytest.fixture(scope="module")
def dinf():
    return load_construction(f"{DATA}/dinf.json")


@pytest.fixture(scope="module")
def s3z2():
    return load_construction(f"{DATA}/s3z2.json")


dinf_tokens = st.lists(
    st.sampled_from([(1, "s"), (1, "1"), (2, "r"), (2, "1")]), max_size=8
)

s3z2_tokens = st.lists(
    st.one_of(
        st.sampled_from(sorted(S3_PERMS)).map(
            lambda n: (1, n)
        ),
        st.sampled_from(["1", "r"]).map(lambda n: (2, n)),
    ),
    max_size=6,
)


class TestDihedralExamples:
    def test_ssrs_reduces(self, dinf):
        w = dinf.normalize([(1, "s"), (1, "s"), (2, "r"), (1, "s")])
        assert w == AmalgamWord("1", ((2, "r"), (1, "s")))

    def test_empty_is_identity(self, dinf):
        assert dinf.normalize([]) == dinf.identity_word()
        assert dinf.identity_word() == AmalgamWord("1", ())

    def test_single_letters(self, dinf):
        assert dinf.normalize([(1, "s")]) == AmalgamWord("1", ((1, "s"),))
        assert dinf.normalize([(2, "r"), (2, "r")]) == dinf.identity_word()


class TestS3Examples:
    def test_generator_times_glued_copy_cancels(self, s3z2):
        # (12) and r map to the same pushout element, so the product is 1.
        assert s3z2.normalize([(1, "(12)"), (2, "r")]) == s3z2.identity_word()
        assert eval_s3_pushout([(1, "(12)"), (2, "r")]) == (0, 1, 2)

    def test_subgroup_element_absorbs_into_head(self, s3z2):
        w = s3z2.normalize([(1, "(12)")])
        assert w.head == "c"
        assert w.syllables == ()

    def test_second_factor_always_absorbs(self, s3z2):
        # The embedding into the second factor is onto, so no word keeps
        # a factor-2 syllable.
        w = s3z2.normalize([(2, "r"), (1, "(13)"), (2, "r")])
        assert all(k == 1 for k, _ in w.syllables)

    def test_three_cosets_give_three_syllable_values(self, s3z2):
        reps = {
            s3z2.normalize([(1, name)]).syllables
            for name in S3_PERMS
        }
        # identity-and-head-only form plus one form per nontrivial coset
        assert len(reps) == 3


def invert_word(amalgam, word):
    return amalgam.normalize(
        [(k, amalgam.factors[k - 1].invert(g)) for k, g in reversed(amalgam.word_tokens(word))]
    )


class TestNormalFormInvariants:
    @given(tokens=dinf_tokens)
    def test_idempotent(self, dinf, tokens):
        w = dinf.normalize(tokens)
        assert dinf.normalize(dinf.word_tokens(w)) == w

    @given(tokens=dinf_tokens)
    def test_syllables_alternate_and_are_reps(self, dinf, tokens):
        w = dinf.normalize(tokens)
        for (k1, _), (k2, _) in zip(w.syllables, w.syllables[1:]):
            assert k1 != k2
        for k, g in w.syllables:
            embed = dinf.embeddings[k - 1]
            assert g != dinf.factors[k - 1].identity
            assert embed.image.rep(g) == g

    @given(u=dinf_tokens, v=dinf_tokens)
    def test_concatenation_homomorphism(self, dinf, u, v):
        whole = dinf.normalize(u + v)
        split = dinf.multiply_words(dinf.normalize(u), dinf.normalize(v))
        assert whole == split

    @given(tokens=dinf_tokens)
    def test_inverse_word(self, dinf, tokens):
        w = dinf.normalize(tokens)
        assert dinf.multiply_words(w, invert_word(dinf, w)) == dinf.identity_word()

    @given(u=dinf_tokens, v=dinf_tokens)
    @settings(max_examples=60)
    def test_uniqueness_against_affine_model(self, dinf, u, v):
        same_element = eval_dihedral(u) == eval_dihedral(v)
        same_form = dinf.normalize(u) == dinf.normalize(v)
        assert same_element == same_form

    @given(tokens=s3z2_tokens)
    @settings(max_examples=60)
    def test_s3_words_collapse_to_pushout(self, s3z2, tokens):
        w = s3z2.normalize(tokens)
        assert len(w.syllables) <= 1
        assert eval_s3_pushout(s3z2.word_tokens(w)) == eval_s3_pushout(tokens)

    @given(u=s3z2_tokens, v=s3z2_tokens)
    @settings(max_examples=60)
    def test_s3_uniqueness(self, s3z2, u, v):
        same_element = eval_s3_pushout(u) == eval_s3_pushout(v)
        same_form = s3z2.normalize(u) == s3z2.normalize(v)
        assert same_element == same_form


class TestErrors:
    def test_malformed_token(self, dinf):
        with pytest.raises(ValueError, match="malformed"):
            dinf.normalize(["s"])

    def test_bad_factor_tag(self, dinf):
        with pytest.raises(ValueError, match="factor tag"):
            dinf.normalize([(3, "s")])

    def test_element_outside_factor(self, dinf):
        with pytest.raises(ValueError):
            dinf.normalize([(1, "r")])

    def test_wiring_must_match(self):
        triv = FiniteGroup(("1",), [[0]])
        z2a = FiniteGroup(("1", "s"), [[0, 1], [1, 0]])
        z2b = FiniteGroup(("1", "r"), [[0, 1], [1, 0]])
        into_a = FiniteEmbedding(triv, z2a, {})
        into_b = FiniteEmbedding(triv, z2b, {})
        with pytest.raises(ValueError, match="its own factor"):
            Amalgam(triv, z2a, z2b, into_b, into_a)


class TestStorage:
    def test_construction_round_trip(self, s3z2):
        data = json.loads(Path(f"{DATA}/s3z2.json").read_text(encoding="utf-8"))
        again = construction_from_dict(data)
        w = [(1, "(123)"), (2, "r"), (1, "(23)")]
        assert again.normalize(w) == s3z2.normalize(w)
        assert again.embeddings[0].image.transversal == ("1", "(13)", "(23)")
