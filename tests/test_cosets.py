"""Double cosets, conjugate subgroup transport, and the split round trips.

Everything finite is compared against brute enumeration in S_3; the
transport map's defining identity is re-verified here directly rather than
trusting the items the library reports.
"""

import itertools

from hypothesis import given, settings, strategies as st

import pytest

from freenil.cosets import (
    ConjugateSubgroupData,
    _subgroup_members,
    conjugate_subgroup_data,
    double_cosets,
    induction_roundtrip_check,
)
from freenil.errors import UnsupportedOperation
from freenil.groups import (
    FiniteEmbedding,
    FiniteGroup,
    FiniteSubgroup,
    FreeAbelianEmbedding,
    FreeAbelianGroup,
)
from freenil.hnn import HNN
from freenil.store import load_construction

from group_models import S3_PERMS, from_permutations


def conjugate_intersection(first, second):
    """Common part of two transportable subgroups, in first's order."""
    other = set(second.gamma)
    return tuple(g for g in first.gamma if g in other)


def transport_map(data):
    return dict(data.transport)


@pytest.fixture(scope="module")
def s3():
    return from_permutations(S3_PERMS)


@pytest.fixture(scope="module")
def c2():
    return FiniteGroup(("1", "c"), [[0, 1], [1, 0]])


def subgroup_choices(s3):
    return {
        "trivial": FiniteSubgroup.generated(s3, []),
        "(12)": FiniteSubgroup.generated(s3, ["(12)"]),
        "(13)": FiniteSubgroup.generated(s3, ["(13)"]),
        "rot": FiniteSubgroup.generated(s3, ["(123)"]),
        "all": FiniteSubgroup.generated(s3, ["(12)", "(123)"]),
    }


class TestDoubleCosets:
    def test_s3_transposition_both_sides(self, s3):
        H = FiniteSubgroup.generated(s3, ["(12)"])
        orbits = double_cosets(s3, H, H)
        assert orbits == [
            ("1", "(12)"),
            ("(13)", "(23)", "(123)", "(132)"),
        ]

    def test_trivial_gives_singletons(self, s3):
        T = FiniteSubgroup.generated(s3, [])
        orbits = double_cosets(s3, T, T)
        assert orbits == [(name,) for name in s3.elements()]

    def test_complement_of_subgroup(self, s3):
        H = FiniteSubgroup.generated(s3, ["(12)"])
        outside = [g for g in s3.elements() if g not in H.members]
        orbits = double_cosets(s3, H, H, outside)
        assert orbits == [("(13)", "(23)", "(123)", "(132)")]

    def test_accepts_bare_element_collections(self, s3):
        orbits = double_cosets(s3, ["1", "(12)"], ["1"])
        assert sorted(len(o) for o in orbits) == [2, 2, 2]

    @given(names=st.tuples(
        st.sampled_from(["trivial", "(12)", "(13)", "rot", "all"]),
        st.sampled_from(["trivial", "(12)", "(13)", "rot", "all"]),
    ))
    @settings(max_examples=25)
    def test_partition_property(self, s3, names):
        subs = subgroup_choices(s3)
        orbits = double_cosets(s3, subs[names[0]], subs[names[1]])
        seen = [g for orbit in orbits for g in orbit]
        assert sorted(seen) == sorted(s3.elements())
        assert len(seen) == len(set(seen))

    def test_orbit_members_sorted_in_ambient_order(self, s3):
        H = FiniteSubgroup.generated(s3, ["(123)"])
        order = {g: i for i, g in enumerate(s3.elements())}
        for orbit in double_cosets(s3, H, H):
            assert list(orbit) == sorted(orbit, key=order.__getitem__)

    def test_unstable_subset_rejected(self, s3):
        H = FiniteSubgroup.generated(s3, ["(12)"])
        with pytest.raises(ValueError, match="stable"):
            double_cosets(s3, H, H, ["1", "(13)"])

    def test_unclosed_collection_rejected(self, s3):
        with pytest.raises(ValueError, match="closed"):
            double_cosets(s3, ["1", "(123)"], ["1"])
        with pytest.raises(ValueError, match="identity"):
            double_cosets(s3, ["(12)"], ["1"])

    def test_infinite_group_rejected(self):
        Z = FreeAbelianGroup(1)
        with pytest.raises(UnsupportedOperation):
            double_cosets(Z, [(0,)], [(0,)])

    def test_finite_subgroup_closure_not_reproved(self, s3, monkeypatch):
        H = FiniteSubgroup.generated(s3, ["(12)", "(123)"])
        other = FiniteSubgroup.generated(from_permutations(S3_PERMS), ["(12)"])
        calls = []
        multiply = FiniteGroup.multiply

        def counting(self, g, h):
            calls.append((g, h))
            return multiply(self, g, h)

        monkeypatch.setattr(FiniteGroup, "multiply", counting)
        assert _subgroup_members(s3, H) == H.members
        assert calls == []
        # A subgroup of another group object is checked in full.
        assert _subgroup_members(s3, other) == other.members
        assert len(calls) == len(other.members) ** 2


class TestConjugateTransport:
    def test_identity_element_full_transport(self, s3, c2):
        f = FiniteEmbedding(c2, s3, {"c": "(12)"})
        data = conjugate_subgroup_data(s3, f, f, "1")
        assert data.gamma == ("1", "c")
        assert transport_map(data) == {"1": "1", "c": "c"}
        assert all(item.ok for item in data.items)

    def test_conjugation_moves_subgroup_away(self, s3, c2):
        f = FiniteEmbedding(c2, s3, {"c": "(12)"})
        data = conjugate_subgroup_data(s3, f, f, "(13)")
        assert data.gamma == ("1",)
        assert data.target == ("1",)

    def test_mixed_embeddings(self, s3, c2):
        alpha = FiniteEmbedding(c2, s3, {"c": "(12)"})
        beta = FiniteEmbedding(c2, s3, {"c": "(13)"})
        assert conjugate_subgroup_data(s3, alpha, beta, "1").gamma == ("1",)
        moved = conjugate_subgroup_data(s3, alpha, beta, "(23)")
        assert moved.gamma == ("1", "c")

    def test_defining_identity_recomputed(self, s3, c2):
        alpha = FiniteEmbedding(c2, s3, {"c": "(12)"})
        beta = FiniteEmbedding(c2, s3, {"c": "(13)"})
        for x in s3.elements():
            data = conjugate_subgroup_data(s3, alpha, beta, x)
            xinv = s3.invert(x)
            for gamma, carried in data.transport:
                lhs = beta.apply(gamma)
                rhs = s3.multiply(s3.multiply(x, alpha.apply(carried)), xinv)
                assert lhs == rhs

    def test_transport_hits_inverse_side_part(self, s3, c2):
        f = FiniteEmbedding(c2, s3, {"c": "(12)"})
        for x in s3.elements():
            data = conjugate_subgroup_data(s3, f, f, x)
            carried = {c for _, c in data.transport}
            assert carried == set(data.target)

    @given(a=st.sampled_from(["1", "c"]), b=st.sampled_from(["1", "c"]),
           z=st.sampled_from(sorted(S3_PERMS)))
    @settings(max_examples=40)
    def test_conjugation_covariance(self, s3, c2, a, b, z):
        # With both embeddings equal, moving z by images of subgroup
        # elements conjugates the transportable part inside the subgroup.
        f = FiniteEmbedding(c2, s3, {"c": "(12)"})
        moved = s3.multiply(s3.multiply(f.apply(a), z), f.apply(b))
        left = conjugate_subgroup_data(s3, f, f, moved).gamma
        base = conjugate_subgroup_data(s3, f, f, z).gamma
        conjugated = sorted(
            c2.multiply(c2.multiply(a, g), c2.invert(a)) for g in base
        )
        assert sorted(left) == conjugated

    def test_intersection(self, s3, c2):
        f = FiniteEmbedding(c2, s3, {"c": "(12)"})
        full = conjugate_subgroup_data(s3, f, f, "1")
        moved = conjugate_subgroup_data(s3, f, f, "(13)")
        assert conjugate_intersection(full, moved) == ("1",)
        assert conjugate_intersection(full, full) == ("1", "c")

    def test_is_frozen_record(self, s3, c2):
        f = FiniteEmbedding(c2, s3, {"c": "(12)"})
        data = conjugate_subgroup_data(s3, f, f, "1")
        assert isinstance(data, ConjugateSubgroupData)
        with pytest.raises(AttributeError):
            data.x = "(12)"

    def test_sources_must_agree(self, s3, c2):
        other = FiniteGroup(("1", "d"), [[0, 1], [1, 0]])
        alpha = FiniteEmbedding(c2, s3, {"c": "(12)"})
        beta = FiniteEmbedding(other, s3, {"d": "(13)"})
        with pytest.raises(ValueError, match="share"):
            conjugate_subgroup_data(s3, alpha, beta, "1")

    def test_infinite_group_rejected(self, c2):
        Z = FreeAbelianGroup(1)
        with pytest.raises(UnsupportedOperation):
            conjugate_subgroup_data(Z, None, None, (0,))


@pytest.fixture(scope="module")
def dinf():
    return load_construction("src/freenil/data/dinf.json")


@pytest.fixture(scope="module")
def s3z2():
    return load_construction("src/freenil/data/s3z2.json")


@pytest.fixture(scope="module")
def bs12():
    return load_construction("src/freenil/data/bs12.json")


class TestSwapRoundTrip:
    def test_single_left_generator(self):
        report = induction_roundtrip_check((1, 0))
        assert report.ok
        assert report.dims == {"module": (1, 0), "forget_rediagonalize": (1, 1)}
        assert report.swap_pairs == (
            ((1, ("u", 0)), ("direct", ("u", 0))),
            ((2, ("u", 0)), ("swapped", ("u", 0))),
        )

    def test_zero_module(self):
        report = induction_roundtrip_check((0, 0))
        assert report.ok
        assert report.swap_pairs == ()
        assert report.dims["forget_rediagonalize"] == (0, 0)

    @given(m1=st.integers(0, 5), m2=st.integers(0, 5))
    @settings(max_examples=30)
    def test_components_balance(self, m1, m2):
        report = induction_roundtrip_check((m1, m2))
        assert report.ok
        assert report.dims["forget_rediagonalize"] == (m1 + m2, m1 + m2)
        direct = [p for p in report.swap_pairs if p[1][0] == "direct"]
        swapped = [p for p in report.swap_pairs if p[1][0] == "swapped"]
        assert len(direct) == m1 + m2
        assert len(swapped) == m1 + m2

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="nonnegative"):
            induction_roundtrip_check((-1, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            induction_roundtrip_check((1.5, 0))


class TestInductionRoundTrip:
    def test_dihedral_counts(self, dinf):
        report = induction_roundtrip_check((1, 1), dinf)
        assert report.ok
        assert report.dims["induce_restrict"] == (2, 2)
        targets = {dst for _, dst in report.induction_pairs}
        assert ("direct", ("u", 0)) in targets
        assert ("swapped", ("u", 0), (2, 1), "s") in targets

    def test_dihedral_block_scaling(self, dinf):
        # Index-two factors: each basis vector gains one swapped partner.
        report = induction_roundtrip_check((2, 3), dinf)
        assert report.ok
        assert report.dims["induce_restrict"] == (4, 6)
        swapped = [p for p in report.induction_pairs if p[1][0] == "swapped"]
        assert len(swapped) == 5

    def test_onto_embedding_collapses_component(self, s3z2):
        report = induction_roundtrip_check((2, 1), s3z2)
        assert report.ok
        assert report.dims["induce_restrict"] == (6, 1)

    def test_stable_letter_pairs(self, bs12):
        report = induction_roundtrip_check((1, 1), bs12)
        assert report.ok
        assert report.dims["induce_restrict"] == (3, 3)
        assert set(report.induction_pairs) == {
            ((1, ("u", 0), (0,)), ("direct", ("u", 0))),
            ((1, ("v", 0), (0,), "stable"), ("swapped", ("v", 0), (1, 1), (0,))),
            ((1, ("v", 0), (1,), "stable"), ("swapped", ("v", 0), (1, 1), (1,))),
            ((2, ("u", 0), (0,), "stable"), ("swapped", ("u", 0), (2, 2), (0,))),
            ((2, ("v", 0), (0,)), ("direct", ("v", 0))),
            ((2, ("v", 0), (1,)), ("swapped", ("v", 0), (1, 2), (1,))),
        }

    @given(m1=st.integers(0, 3), m2=st.integers(0, 3))
    @settings(max_examples=20)
    def test_bijection_on_random_dims(self, bs12, m1, m2):
        report = induction_roundtrip_check((m1, m2), bs12)
        assert report.ok
        sources = [src for src, _ in report.induction_pairs]
        targets = [dst for _, dst in report.induction_pairs]
        assert len(sources) == len(set(sources))
        assert len(targets) == len(set(targets))
        assert len(sources) == 2 * (m1 + 2 * m2)

    def test_infinite_transversal_rejected(self):
        triv = FreeAbelianGroup(0)
        z = FreeAbelianGroup(1, ("a",))
        free2 = HNN(
            triv,
            z,
            FreeAbelianEmbedding(triv, z, []),
            FreeAbelianEmbedding(triv, z, []),
        )
        with pytest.raises(UnsupportedOperation):
            induction_roundtrip_check((1, 0), free2)

    def test_unknown_construction_rejected(self):
        with pytest.raises(TypeError):
            induction_roundtrip_check((1, 0), object())
