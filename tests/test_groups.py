"""Group oracles: table validation, coset machinery, embeddings, storage.

Permutation models from group_models serve as the independent check for
everything the finite oracle claims; lattice subgroups are compared against
brute-force enumeration over small boxes of exponent vectors.
"""

import itertools
import json
from importlib import resources

from hypothesis import given, settings, strategies as st

import pytest

from freenil import groups
from freenil.errors import InvariantError
from freenil.groups import (
    FiniteEmbedding,
    FiniteGroup,
    FiniteSubgroup,
    FreeAbelianEmbedding,
    FreeAbelianGroup,
    FreeGroup,
    FreeAbelianSubgroup,
    TrivialSubgroup,
    element_from_data,
    embedding_from_dict,
    format_element,
    group_from_dict,
    parse_element,
)

from group_models import (
    S3_NAMES,
    S3_PERMS,
    closure_by_pairs,
    from_permutations,
    is_associative,
    perm_inv,
    perm_mul,
    perm_table,
    random_loop,
    relabel,
    symmetric_perms,
)


@pytest.fixture(scope="module")
def s3():
    return from_permutations(S3_PERMS)


@pytest.fixture(scope="module")
def z2():
    return FiniteGroup(("1", "s"), [[0, 1], [1, 0]])


s3_elements = st.sampled_from(sorted(S3_PERMS))


class TestFiniteGroup:
    def test_table_matches_model(self, s3):
        for a, b in itertools.product(S3_PERMS, repeat=2):
            want = S3_NAMES[perm_mul(S3_PERMS[a], S3_PERMS[b])]
            assert s3.multiply(a, b) == want

    def test_inverse_matches_model(self, s3):
        for a in S3_PERMS:
            assert s3.invert(a) == S3_NAMES[perm_inv(S3_PERMS[a])]

    def test_identity(self, s3):
        assert s3.identity == "1"
        assert s3.multiply("(123)", "1") == "(123)"

    def test_contains_and_check(self, s3):
        assert s3.contains("(13)")
        assert not s3.contains("(14)")
        with pytest.raises(ValueError):
            s3.check("(14)")

    def test_rejects_nonsquare_table(self):
        with pytest.raises(ValueError, match="square"):
            FiniteGroup(("1", "s"), [[0, 1]])

    def test_rejects_bad_row(self):
        with pytest.raises(ValueError, match="permutation"):
            FiniteGroup(("1", "s"), [[0, 0], [1, 0]])

    def test_finds_identity_anywhere(self):
        # Z/2 with the identity listed second is still a group.
        G = FiniteGroup(("a", "b"), [[1, 0], [0, 1]])
        assert G.identity == "b"

    def test_rejects_missing_identity(self):
        # Latin square whose only left identity is not a right identity.
        table = [[1, 2, 0], [0, 1, 2], [2, 0, 1]]
        with pytest.raises(ValueError, match="identity"):
            FiniteGroup(("a", "b", "c"), table)

    def test_rejects_nonassociative_table(self):
        # Order-5 loop: a valid quasigroup with identity that fails
        # associativity (row-shift construction is not a group).
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup(("e", "a", "b", "c", "d"), table)

    def test_rejects_loop_whose_first_generator_associates(self):
        # Z/2 x (the order-5 loop above), listed so that the first generator
        # picked, (1, e), associates with everything: a test that checked
        # only it would accept.  The next generator, (0, a), exposes it.
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        table = [[2 * loop[i // 2][j // 2] + (i + j) % 2 for j in range(10)] for i in range(10)]
        assert not is_associative(table)
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup([f"e{i}" for i in range(10)], table)

    @given(n=st.integers(5, 7), rng=st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_loops_accepted_iff_associative(self, n, rng):
        # Light's test by generators must agree with the cubic sweep.
        table = random_loop(rng, n)
        names = [f"e{i}" for i in range(n)]
        if is_associative(table):
            assert FiniteGroup(names, table).identity == "e0"
        else:
            with pytest.raises(ValueError, match="associative|inverse"):
                FiniteGroup(names, table)

    @pytest.mark.parametrize(
        "table",
        [perm_table(list(S3_PERMS.values())), perm_table(list(symmetric_perms(4).values()))]
        + [[[(i + j) % n for j in range(n)] for i in range(n)] for n in (1, 2, 5, 8, 12)],
        ids=["S3", "S4", "Z1", "Z2", "Z5", "Z8", "Z12"],
    )
    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_group_tables_accepted_in_any_order(self, table, rng):
        order = list(range(len(table)))
        rng.shuffle(order)
        relabelled = relabel(table, order)
        assert is_associative(relabelled)
        group = FiniteGroup([f"g{k}" for k in range(len(order))], relabelled)
        assert group.sort_key(group.identity) == order.index(0)

    @pytest.mark.parametrize("bad", [1.0, "1", None, -1, 3], ids=repr)
    def test_rejects_entries_that_are_not_indices(self, bad):
        # Z3 with one cell replaced; 3 is the element count, one past the end
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        table[1][2] = bad
        with pytest.raises(ValueError, match="table entries must index the element list"):
            FiniteGroup(("1", "a", "b"), table)

    def test_accepts_bool_entries(self):
        # bool is an int subclass, and False and True index the list
        group = FiniteGroup(("1", "s"), [[False, True], [True, False]])
        assert group.identity == "1"
        assert group.multiply("s", "s") == "1"

    @pytest.mark.parametrize("table,message", [
        ([[0, 1, 2], [1, 2], [2, 0, 1]], "multiplication table must be square"),
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "every table row must be a permutation"),
        ([[0, 1, 2], [1, 2, 0], [1, 0, 2]], "every table column must be a permutation"),
    ], ids=["ragged", "repeated-row-value", "repeated-column-value"])
    def test_shape_messages(self, table, message):
        with pytest.raises(ValueError, match=message):
            FiniteGroup(("1", "a", "b"), table)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="distinct"):
            FiniteGroup(("1", "1"), [[0, 1], [1, 0]])

    def test_rejects_reserved_characters(self):
        with pytest.raises(ValueError, match="reserved"):
            FiniteGroup(("1", "a^2"), [[0, 1], [1, 0]])

    def test_from_permutations_rejects_unclosed_set(self):
        with pytest.raises(ValueError, match="closed"):
            from_permutations({"1": (0, 1, 2), "(123)": (1, 2, 0)})

    def test_from_permutations_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            from_permutations({"1": (0, 0, 2)})


class TestFreeGroup:
    def test_multiply_cancels(self):
        F = FreeGroup(2)
        a, b = F.generator(0), F.generator(1)
        w = F.multiply(a, b)
        assert w == (1, 2)
        assert F.multiply(w, F.invert(b)) == a

    def test_invert_reverses(self):
        F = FreeGroup(2)
        w = (1, 2, -1)
        assert F.multiply(w, F.invert(w)) == ()
        assert F.invert(w) == (1, -2, -1)

    def test_check_rejects_unreduced(self):
        F = FreeGroup(2)
        with pytest.raises(ValueError):
            F.check((1, -1))
        with pytest.raises(ValueError):
            F.check((3,))

    def test_format_parse_round_trip(self):
        F = FreeGroup(2, ("a", "b"))
        w = (1, -2, -2, 1)
        text = format_element(F, w)
        assert text == "a b^-2 a"
        assert parse_element(F, text) == w
        assert format_element(F, ()) == "1"
        assert parse_element(F, "1") == ()

    def test_letter_one_is_reserved_for_the_identity(self):
        # a generator rendered as "1" would parse back as the identity
        with pytest.raises(ValueError, match="reserved for the identity"):
            FreeGroup(1, ["1"])
        with pytest.raises(ValueError, match="reserved for the identity"):
            FreeAbelianGroup(2, ["a", "1"])


class TestFreeAbelianGroup:
    def test_multiply_adds(self):
        Z2 = FreeAbelianGroup(2)
        assert Z2.multiply((1, -2), (3, 2)) == (4, 0)
        assert Z2.invert((1, -2)) == (-1, 2)

    def test_check_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            FreeAbelianGroup(2).check((1,))

    def test_format_parse_round_trip(self):
        Z2 = FreeAbelianGroup(2, ("x", "y"))
        assert format_element(Z2, (0, -3)) == "y^-3"
        assert parse_element(Z2, "x^2 y") == (2, 1)
        assert parse_element(Z2, "1") == (0, 0)

    def test_parse_takes_only_ascii_integer_exponents(self):
        Z2 = FreeAbelianGroup(2, ("x", "y"))
        assert parse_element(Z2, "x^-12 y^007") == (-12, 7)
        for text in ("x^+2", "x^", "x^2_0", "x^\u0663", "x^--2", "x^ y"):
            with pytest.raises(ValueError, match="bad exponent in 'x\\^"):
                parse_element(Z2, text)

    def test_parse_requires_declared_order(self):
        Z2 = FreeAbelianGroup(2, ("x", "y"))
        with pytest.raises(ValueError, match="declared order"):
            parse_element(Z2, "y x")
        with pytest.raises(ValueError, match="declared order"):
            parse_element(Z2, "x x")


class TestFiniteSubgroup:
    def test_generated_closure(self, s3):
        H = FiniteSubgroup.generated(s3, ["(12)"])
        assert H.members == frozenset({"1", "(12)"})
        A3 = FiniteSubgroup.generated(s3, ["(123)"])
        assert A3.members == frozenset({"1", "(123)", "(132)"})

    def test_index(self, s3):
        assert FiniteSubgroup.generated(s3, ["(12)"]).index == 3
        assert FiniteSubgroup.generated(s3, []).index == 6

    @given(g=s3_elements, h=st.sampled_from(["1", "(12)"]))
    def test_rep_constant_on_cosets(self, s3, g, h):
        H = FiniteSubgroup.generated(s3, ["(12)"])
        assert H.rep(s3.multiply(h, g)) == H.rep(g)

    @given(g=s3_elements)
    def test_membership_iff_identity_rep(self, s3, g):
        H = FiniteSubgroup.generated(s3, ["(13)"])
        assert H.membership(g) == (H.rep(g) == "1")

    def test_transversal_covers_once(self, s3):
        H = FiniteSubgroup.generated(s3, ["(12)"])
        reps = H.transversal_list()
        assert reps[0] == "1"
        assert len(reps) == 3
        cosets = {frozenset(s3.multiply(h, r) for h in H.members) for r in reps}
        assert len(cosets) == 3

    def test_supplied_transversal_respected(self, s3):
        H = FiniteSubgroup(s3, ["1", "(12)"], transversal=["1", "(13)", "(23)"])
        assert H.rep("(123)") in {"(13)", "(23)"}
        assert set(H.transversal_list()) == {"1", "(13)", "(23)"}

    def test_supplied_transversal_validated(self, s3):
        with pytest.raises(ValueError, match="one representative"):
            FiniteSubgroup(s3, ["1", "(12)"], transversal=["1", "(13)"])
        with pytest.raises(ValueError, match="repeats"):
            FiniteSubgroup(s3, ["1", "(12)"], transversal=["1", "(13)", "(123)"])
        with pytest.raises(ValueError, match="identity"):
            FiniteSubgroup(s3, ["1", "(12)"], transversal=["(12)", "(13)", "(23)"])

    @pytest.mark.parametrize("degree", [3, 4, 5])
    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_generated_matches_pair_closure(self, degree, rng):
        group = from_permutations(symmetric_perms(degree))
        gens = rng.sample(group.elements(), rng.randint(0, 3))
        H = FiniteSubgroup.generated(group, gens)
        assert H.members == closure_by_pairs(group, gens)

    def test_rejects_unclosed_subset(self, s3):
        with pytest.raises(ValueError, match="closed"):
            FiniteSubgroup(s3, ["1", "(123)"])
        with pytest.raises(ValueError, match="identity"):
            FiniteSubgroup(s3, ["(12)"])


class TestTrivialSubgroup:
    def test_finite_ambient(self, s3):
        T = TrivialSubgroup(s3)
        assert T.membership("1") and not T.membership("(12)")
        assert T.rep("(123)") == "(123)"
        assert T.finite_index
        assert set(T.transversal_list()) == set(S3_PERMS)

    def test_free_ambient_enumerates_by_length(self):
        F = FreeGroup(1, ("a",))
        T = TrivialSubgroup(F)
        assert not T.finite_index
        words = T.transversal_list(bound=2)
        assert set(words) == {(), (1,), (-1,), (1, 1), (-1, -1)}

    def test_free_abelian_ambient_box(self):
        Z = FreeAbelianGroup(1)
        T = TrivialSubgroup(Z)
        assert set(T.transversal_list(bound=2)) == {(k,) for k in range(-2, 3)}


def brute_lattice_members(generators, bound):
    """All integer combinations of the generators landing in a small box."""
    rank = len(generators[0])
    box = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(generators)):
        v = tuple(
            sum(c * g[i] for c, g in zip(coeffs, generators)) for i in range(rank)
        )
        if all(abs(x) <= bound for x in v):
            box.add(v)
    return box


class TestFreeAbelianSubgroup:
    def test_membership_matches_enumeration(self):
        Z2 = FreeAbelianGroup(2)
        H = FreeAbelianSubgroup(Z2, [(2, 0), (0, 3)])
        members = brute_lattice_members([(2, 0), (0, 3)], 6)
        for v in itertools.product(range(-4, 5), repeat=2):
            assert H.membership(v) == (v in members)

    def test_index_and_transversal(self):
        Z2 = FreeAbelianGroup(2)
        H = FreeAbelianSubgroup(Z2, [(2, 0), (0, 3)])
        assert H.finite_index
        assert H.index == 6
        reps = H.transversal_list()
        assert len(reps) == 6
        assert len({H.rep(r) for r in reps}) == 6

    def test_skew_lattice_index(self):
        Z2 = FreeAbelianGroup(2)
        H = FreeAbelianSubgroup(Z2, [(1, 2), (3, 1)])
        # |det [[1,2],[3,1]]| = 5
        assert H.index == 5

    def test_infinite_index(self):
        Z2 = FreeAbelianGroup(2)
        H = FreeAbelianSubgroup(Z2, [(2, 4)])
        assert not H.finite_index
        assert H.index is None
        reps = H.transversal_list(bound=1)
        assert len(reps) == len(set(reps))

    @given(
        v=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        h=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    def test_rep_translation_invariant(self, v, h):
        Z2 = FreeAbelianGroup(2)
        H = FreeAbelianSubgroup(Z2, [(2, 0), (1, 3)])
        shift = Z2.multiply(
            v, Z2.multiply(tuple(2 * x for x in (h[0], 0)), (h[1], 3 * h[1]))
        )
        assert H.rep(shift) == H.rep(v)
        assert H.membership(Z2.multiply(H.rep(v), Z2.invert(v))) or H.membership(
            Z2.multiply(v, Z2.invert(H.rep(v)))
        )


class TestFiniteEmbedding:
    def test_apply_and_preimage(self, s3, z2):
        e = FiniteEmbedding(z2, s3, {"s": "(12)"})
        assert e.apply("s") == "(12)"
        assert e.preimage("(12)") == "s"
        assert e.preimage("(13)") is None
        assert e.image.members == frozenset({"1", "(12)"})

    def test_rejects_non_homomorphism(self, s3, z2):
        with pytest.raises(ValueError, match="homomorphism"):
            FiniteEmbedding(z2, s3, {"s": "(123)"})

    def test_rejects_non_generating_images(self, s3):
        c4 = from_permutations(
            {
                "1": (0, 1, 2, 3),
                "g": (1, 2, 3, 0),
                "g2": (2, 3, 0, 1),
                "g3": (3, 0, 1, 2),
            }
        )
        with pytest.raises(ValueError, match="generate"):
            FiniteEmbedding(c4, c4, {"g2": "g2"})

    def test_rejects_non_injective(self, s3, z2):
        with pytest.raises(ValueError, match="injective"):
            FiniteEmbedding(z2, s3, {"s": "1"})

    def test_image_transversal_passthrough(self, s3, z2):
        e = FiniteEmbedding(z2, s3, {"s": "(12)"}, transversal=["1", "(13)", "(23)"])
        assert set(e.image.transversal_list()) == {"1", "(13)", "(23)"}

    def test_source_products_bounded_by_the_extension(self, monkeypatch):
        # The breadth-first extension proves the homomorphism; no pass over
        # all |src|^2 pairs follows it.
        s3 = from_permutations(S3_PERMS)
        s4 = from_permutations(symmetric_perms(4))
        real = FiniteGroup.multiply
        calls = []

        def counted(self, g, h):
            if self is s3:
                calls.append(1)
            return real(self, g, h)

        monkeypatch.setattr(FiniteGroup, "multiply", counted)
        gens = {"(12)": "p1023", "(123)": "p1203"}
        e = FiniteEmbedding(s3, s4, gens)
        assert e.apply("(132)") == "p2013"
        assert len(calls) <= len(s3.elements()) * len(gens)


class TestFreeAbelianEmbedding:
    def test_apply_and_preimage(self):
        C = FreeAbelianGroup(1, ("c",))
        A = FreeAbelianGroup(1, ("a",))
        beta = FreeAbelianEmbedding(C, A, [(2,)])
        assert beta.apply((3,)) == (6,)
        assert beta.preimage((6,)) == (3,)
        assert beta.preimage((3,)) is None

    def test_rank_two_preimage(self):
        C = FreeAbelianGroup(2)
        A = FreeAbelianGroup(2)
        e = FreeAbelianEmbedding(C, A, [(1, 1), (0, 2)])
        assert e.apply((1, 1)) == (1, 3)
        assert e.preimage((1, 3)) == (1, 1)
        assert e.preimage((0, 1)) is None

    def test_rejects_non_injective(self):
        C = FreeAbelianGroup(2)
        A = FreeAbelianGroup(2)
        with pytest.raises(ValueError, match="injective"):
            FreeAbelianEmbedding(C, A, [(1, 2), (2, 4)])


@st.composite
def lattice_generators(draw, diagonal):
    """(ncols, generators) of rank 1-3 lattices, some with entries past 2^64.

    A diagonal draw mixes a basis d_k * e_{c_k} (over some of the columns,
    so not always of full rank) by random unimodular row operations, so its
    Hermite form is diagonal while the generators and their coefficients
    are not.  Any other draw is a random integer matrix.
    """
    ncols = draw(st.integers(1, 3))
    entry = st.one_of(st.integers(-6, 6), st.integers(-2**70, 2**70))
    if not diagonal:
        rows = draw(st.integers(1, ncols))
        return ncols, draw(st.lists(st.tuples(*[entry] * ncols), min_size=rows, max_size=rows))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=ncols, unique=True))
    gens = [
        [draw(st.one_of(st.integers(1, 9), st.integers(2**64, 2**70))) if j == c else 0
         for j in range(ncols)]
        for c in cols
    ]
    for _ in range(draw(st.integers(0, 4)) if len(gens) > 1 else 0):
        i, j = draw(st.permutations(range(len(gens))))[:2]
        m = draw(st.integers(-3, 3))
        gens[i] = [a + m * b for a, b in zip(gens[i], gens[j])]
    return ncols, [tuple(g) for g in draw(st.permutations(gens))]


class TestTrustedLattice:
    """The trusted and the checked operations, by modulo on a diagonal Hermite
    form, against the general `_Lattice.reduce` pass as the oracle."""

    @settings(settings.get_profile("ci"), max_examples=200)
    @given(data=st.data(), diagonal=st.booleans())
    def test_trusted_matches_checked(self, data, diagonal):
        ncols, gens = data.draw(lattice_generators(diagonal))
        G = FreeAbelianGroup(ncols)
        H = FreeAbelianSubgroup(G, gens)
        if diagonal:
            assert H.lattice.diagonal
        coords = st.lists(st.integers(-2**70, 2**70), min_size=len(gens), max_size=len(gens))
        members = [
            tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(ncols))
            for cs in data.draw(st.lists(coords, min_size=1, max_size=4))
        ]
        offsets = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * ncols), max_size=4))
        vectors = members + [G.multiply(m, o) for m, o in zip(members * 4, offsets)]
        vectors += data.draw(st.lists(st.tuples(*[st.integers(-2**70, 2**70)] * ncols),
                                      max_size=4))
        member, rep = H.trusted()
        for v in vectors:
            residue, _ = H.lattice.reduce(v)
            assert member(v) == H.membership(v) == (not any(residue))
            assert rep(v) == H.rep(v) == residue
        if H.lattice.rank < len(gens):
            return
        e = FreeAbelianEmbedding(FreeAbelianGroup(len(gens)), G, gens)
        apply, preimage = e.trusted()
        for v in vectors:
            residue, combo = e.image.lattice.reduce(v)
            assert preimage(v) == e.preimage(v) == (None if any(residue) else combo)
        for cs in data.draw(st.lists(coords.map(tuple), min_size=1, max_size=4)):
            assert apply(cs) == e.apply(cs)

    @pytest.mark.parametrize("images, member", [
        ([(2,)], (4,)),
        ([(0, 3), (5, 0)], (10, -6)),
        ([(1, 1), (0, 2)], (1, 3)),  # a Hermite form that is not diagonal
    ])
    def test_recombination_failure_still_raises(self, monkeypatch, images, member):
        # every lattice is built with a wrong combination certificate
        real = groups._Lattice.__init__

        def corrupted(self, vectors, ncols):
            real(self, vectors, ncols)
            self.coeffs = [tuple(2 * c + 1 for c in row) for row in self.coeffs]

        monkeypatch.setattr(groups._Lattice, "__init__", corrupted)
        src, dst = FreeAbelianGroup(len(images)), FreeAbelianGroup(len(member))
        e = FreeAbelianEmbedding(src, dst, images)
        with pytest.raises(InvariantError, match="recombine"):
            e.trusted()[1](member)
        with pytest.raises(InvariantError, match="recombine"):
            e.preimage(member)


class TestSerialization:
    """The construction files are read-only: literal dicts and shipped bytes."""

    def test_finite_group_round_trip(self, s3):
        data = json.loads((resources.files("freenil") / "data" / "s3.json").read_text())
        again = group_from_dict(data["group"])
        assert again.names == s3.names
        for a, b in itertools.product(S3_PERMS, repeat=2):
            assert again.multiply(a, b) == s3.multiply(a, b)

    def test_free_groups_round_trip(self):
        for data in (
            {"kind": "free", "rank": 2, "letters": ["a", "b"]},
            {"kind": "free_abelian", "rank": 3, "letters": ["x", "y", "z"]},
        ):
            again = group_from_dict(data)
            assert again.kind == data["kind"]
            assert again.rank == data["rank"]
            assert again.letters == tuple(data["letters"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            group_from_dict({"kind": "braid", "rank": 3})

    def test_element_data_round_trip(self, s3):
        F = FreeGroup(2)
        assert element_from_data(s3, "(12)") == "(12)"
        assert element_from_data(F, [1, -2]) == (1, -2)
        with pytest.raises(ValueError):
            element_from_data(F, "a")
        with pytest.raises(ValueError):
            element_from_data(F, [1, -1])

    def test_embedding_round_trip(self, s3, z2):
        data = {
            "kind": "finite",
            "generator_images": {"s": "(12)"},
            "transversal": ["1", "(13)", "(23)"],
        }
        again = embedding_from_dict(z2, s3, data)
        assert again.apply("s") == "(12)"
        assert set(again.image.transversal_list()) == {"1", "(13)", "(23)"}

        C = FreeAbelianGroup(1)
        A = FreeAbelianGroup(1)
        again = embedding_from_dict(C, A, {"kind": "free_abelian", "images": [[2]]})
        assert again.apply((1,)) == (2,)
