"""Ring laws over the normal-form bases, the block-sequence grading, and the
materialized single-step block bases.

Grading anchors are hand-tiled words in the infinite dihedral group and in
BS(1,2); random elements confirm that the graded components always sum back
to the element they came from.
"""

from hypothesis import given, settings, strategies as st

import pytest

from freenil.groupring import (
    EMPTY_SEQUENCE,
    GroupRingElement,
    SBlock,
    SequenceType,
    grade_decompose,
    ring_mul,
    s_blocks,
    word_sequence_type,
)
from freenil.groups import (
    FiniteEmbedding,
    FiniteGroup,
    FreeAbelianEmbedding,
    FreeAbelianGroup,
)
from freenil.hnn import HNN, HNNWord
from freenil.store import load_construction

from group_models import S3_PERMS, from_permutations


@pytest.fixture(scope="module")
def dinf():
    return load_construction("src/freenil/data/dinf.json")


@pytest.fixture(scope="module")
def bs12():
    return load_construction("src/freenil/data/bs12.json")


@pytest.fixture(scope="module")
def s3_hnn():
    c2 = FiniteGroup(("1", "c"), [[0, 1], [1, 0]])
    s3 = from_permutations(S3_PERMS)
    return HNN(
        c2,
        s3,
        FiniteEmbedding(c2, s3, {"c": "(12)"}),
        FiniteEmbedding(c2, s3, {"c": "(13)"}),
    )


def dinf_elements(dinf):
    words = st.lists(st.sampled_from([(1, "s"), (2, "r")]), max_size=5).map(
        dinf.normalize
    )
    return st.dictionaries(words, st.integers(-4, 4), max_size=4).map(
        lambda terms: GroupRingElement(dinf, terms)
    )


def bs_elements(bs12):
    tokens = st.lists(
        st.one_of(
            st.sampled_from([("t", 1), ("t", -1)]),
            st.integers(-2, 2).map(lambda n: ("g", (n,))),
        ),
        max_size=5,
    ).map(bs12.normalize)
    return st.dictionaries(tokens, st.integers(-4, 4), max_size=4).map(
        lambda terms: GroupRingElement(bs12, terms)
    )


class TestRingLaws:
    def test_one_is_neutral(self, dinf):
        u = GroupRingElement.basis(dinf, [(1, "s"), (2, "r")], 3)
        one = GroupRingElement.one(dinf)
        assert u * one == u
        assert one * u == u

    def test_involution_annihilates(self, dinf):
        one = GroupRingElement.one(dinf)
        s = GroupRingElement.basis(dinf, [(1, "s")])
        assert (one + s) * (one - s) == GroupRingElement.zero(dinf)

    def test_basis_normalizes_tokens(self, dinf):
        assert GroupRingElement.basis(dinf, [(1, "s"), (1, "s")]) == (
            GroupRingElement.one(dinf)
        )

    def test_zero_coefficients_dropped(self, dinf):
        u = GroupRingElement(dinf, {dinf.identity_word(): 0})
        assert not u
        assert u.terms == {}

    def test_scalar_and_negation(self, dinf):
        s = GroupRingElement.basis(dinf, [(1, "s")])
        assert 2 * s - s == s
        assert s - s == GroupRingElement.zero(dinf)
        assert (-s).terms == {dinf.normalize([(1, "s")]): -1}

    @given(data=st.data())
    @settings(max_examples=40)
    def test_associative_dihedral(self, dinf, data):
        els = dinf_elements(dinf)
        u, v, w = data.draw(els), data.draw(els), data.draw(els)
        assert (u * v) * w == u * (v * w)

    @given(data=st.data())
    @settings(max_examples=40)
    def test_associative_bs12(self, bs12, data):
        els = bs_elements(bs12)
        u, v, w = data.draw(els), data.draw(els), data.draw(els)
        assert ring_mul(ring_mul(u, v), w) == ring_mul(u, ring_mul(v, w))

    @given(data=st.data())
    @settings(max_examples=40)
    def test_distributive(self, dinf, data):
        els = dinf_elements(dinf)
        u, v, w = data.draw(els), data.draw(els), data.draw(els)
        assert u * (v + w) == u * v + u * w

    def test_mixed_constructions_rejected(self, dinf, bs12):
        u = GroupRingElement.one(dinf)
        v = GroupRingElement.one(bs12)
        with pytest.raises(ValueError, match="different constructions"):
            u * v
        with pytest.raises(TypeError):
            u * 2


class TestSequenceType:
    def test_blocks_pairing(self):
        seq = SequenceType((2, 2, 1, 1))
        assert seq.blocks == ((2, 2), (1, 1))

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError, match="pairs"):
            SequenceType((1,))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="1 or 2"):
            SequenceType((1, 3))

    def test_rejects_adjacent_repeat(self):
        with pytest.raises(ValueError, match="share"):
            SequenceType((1, 1, 1, 2))

    def test_orders_by_length_first(self):
        assert EMPTY_SEQUENCE < SequenceType((1, 1))
        assert SequenceType((1, 2)) < SequenceType((2, 1))
        assert SequenceType((2, 2)) < SequenceType((1, 1, 2, 2))


class TestGradingAnchors:
    def test_head_only_is_subgroup_summand(self, dinf, bs12):
        assert word_sequence_type(dinf, dinf.identity_word()) == EMPTY_SEQUENCE
        inner = bs12.normalize([("g", (5,))])
        assert word_sequence_type(bs12, inner) == EMPTY_SEQUENCE

    def test_dihedral_two_syllables(self, dinf):
        rs = dinf.normalize([(2, "r"), (1, "s")])
        assert word_sequence_type(dinf, rs).seq == (2, 2, 1, 1)
        sr = dinf.normalize([(1, "s"), (2, "r")])
        assert word_sequence_type(dinf, sr).seq == (1, 1, 2, 2)

    def test_stable_letter_blocks(self, bs12):
        t = bs12.normalize([("t", 1)])
        assert word_sequence_type(bs12, t).seq == (2, 1)
        ti = bs12.normalize([("t", -1)])
        assert word_sequence_type(bs12, ti).seq == (1, 2)
        wrapped = bs12.normalize([("t", 1), ("g", (1,)), ("t", -1)])
        assert word_sequence_type(bs12, wrapped).seq == (2, 2)

    def test_two_level_conjugate(self, bs12):
        w = bs12.normalize([("t", 1)] * 2 + [("g", (1,))] + [("t", -1)] * 2)
        assert word_sequence_type(bs12, w).seq == (2, 1, 2, 2, 1, 2)

    def test_base_outside_image_is_a_block(self, s3_hnn):
        w = s3_hnn.normalize([("g", "(23)")])
        assert word_sequence_type(s3_hnn, w).seq == (1, 1)
        inside = s3_hnn.normalize([("g", "(12)")])
        assert word_sequence_type(s3_hnn, inside) == EMPTY_SEQUENCE

    def test_mixed_word_tiling(self, s3_hnn):
        w = s3_hnn.normalize([("g", "(23)"), ("t", 1), ("g", "(123)")])
        assert word_sequence_type(s3_hnn, w).seq == (1, 1, 2, 1)

    def test_wrong_word_type_rejected(self, dinf, bs12):
        with pytest.raises(TypeError):
            word_sequence_type(dinf, bs12.identity_word())
        with pytest.raises(TypeError):
            word_sequence_type(bs12, dinf.identity_word())


class TestGradeDecompose:
    def test_splits_by_syllable_pattern(self, dinf):
        u = (
            GroupRingElement.one(dinf)
            + GroupRingElement.basis(dinf, [(1, "s")], 2)
            + GroupRingElement.basis(dinf, [(2, "r"), (1, "s")], -1)
        )
        parts = grade_decompose(u)
        assert set(parts) == {
            EMPTY_SEQUENCE,
            SequenceType((1, 1)),
            SequenceType((2, 2, 1, 1)),
        }
        assert parts[EMPTY_SEQUENCE] == GroupRingElement.one(dinf)

    @given(data=st.data())
    @settings(max_examples=50)
    def test_components_sum_back(self, bs12, data):
        u = data.draw(bs_elements(bs12))
        parts = grade_decompose(u)
        total = GroupRingElement.zero(bs12)
        for part in parts.values():
            total = total + part
        assert total == u

    @given(data=st.data())
    @settings(max_examples=50)
    def test_supports_disjoint(self, bs12, data):
        u = data.draw(bs_elements(bs12))
        seen = set()
        for part in grade_decompose(u).values():
            words = set(part.terms)
            assert not (words & seen)
            seen |= words

    def test_zero_has_no_components(self, dinf):
        assert grade_decompose(GroupRingElement.zero(dinf)) == {}


class TestSBlocks:
    def test_case_one_passthrough(self):
        marker = object()
        assert s_blocks(1, marker) is marker

    def test_dihedral_blocks(self, dinf):
        blocks = s_blocks(2, dinf)
        assert blocks[(2, 1)].members == (dinf.normalize([(1, "s")]),)
        assert blocks[(1, 2)].members == (dinf.normalize([(2, "r")]),)
        assert blocks[(1, 1)].members == ()
        assert blocks[(2, 2)].members == ()
        assert all(b.exhaustive for b in blocks.values())

    def test_onto_factor_has_empty_block(self):
        s3z2 = load_construction("src/freenil/data/s3z2.json")
        blocks = s_blocks(2, s3z2)
        assert len(blocks[(2, 1)].members) == 2
        assert blocks[(1, 2)].members == ()

    def test_bs12_blocks(self, bs12):
        blocks = s_blocks(3, bs12)
        want = {
            (1, 1): {HNNWord((0,), ((1, (0,)),)), HNNWord((0,), ((1, (1,)),))},
            (1, 2): {HNNWord((0,), ((1, (1,)), (-1, (0,))))},
            (2, 1): set(),
            (2, 2): {HNNWord((0,), ((-1, (0,)),))},
        }
        for key, members in want.items():
            assert set(blocks[key].members) == members
            assert blocks[key].exhaustive

    def test_bs12_block_forms(self, bs12):
        blocks = s_blocks(3, bs12)
        assert blocks[(1, 1)].form == "t g"
        assert blocks[(1, 2)].form == "t g t^-1"
        assert blocks[(2, 1)].form == "g"
        assert blocks[(2, 2)].form == "g t^-1"

    def test_finite_base_block_sizes(self, s3_hnn):
        blocks = s_blocks(3, s3_hnn)
        sizes = {key: len(b.members) for key, b in blocks.items()}
        assert sizes == {(1, 1): 3, (1, 2): 2, (2, 1): 2, (2, 2): 3}

    def test_block_members_are_normal_forms(self, s3_hnn):
        for block in s_blocks(3, s3_hnn).values():
            for w in block.members:
                assert s3_hnn.normalize(s3_hnn.word_tokens(w)) == w

    def test_infinite_index_is_sampled(self):
        triv = FreeAbelianGroup(0)
        z = FreeAbelianGroup(1, ("a",))
        free2 = HNN(
            triv,
            z,
            FreeAbelianEmbedding(triv, z, []),
            FreeAbelianEmbedding(triv, z, []),
        )
        blocks = s_blocks(3, free2, bound=2)
        assert not blocks[(1, 1)].exhaustive
        assert len(blocks[(1, 1)].members) == 5

    def test_wrong_data_rejected(self, dinf, bs12):
        with pytest.raises(TypeError, match="amalgam"):
            s_blocks(2, bs12)
        with pytest.raises(TypeError, match="HNN"):
            s_blocks(3, dinf)
        with pytest.raises(ValueError, match="case"):
            s_blocks(4, dinf)
