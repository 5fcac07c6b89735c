"""Nil objects: nilpotency decision, filtration, and the transport functors."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from freenil.errors import InvariantError, LimitExceeded
from freenil.linalg import identity, mat_eq_zero, mat_mul, QQ
from freenil.nilobj import (
    BlockRing,
    Letter,
    NilObject,
    direct_sum,
    filtration_items,
    fold_through,
    from_json_dict,
    is_nilpotent,
    power_prefix_family,
    restrict_diagonal,
    to_json_dict,
    word_matrix,
    word_twist,
    zero_object,
)
from freenil.store import load_nil, save_nil

from nil_helpers import (
    brute_nilpotent,
    modulus,
    monic,
    random_object,
    reference_nullspace,
    reference_rref,
)


def single(name: str, matrix, base: str = "int") -> NilObject:
    ring = BlockRing(("a",), base)
    n = len(matrix)
    return NilObject(ring, {"a": n}, [Letter(name, "a", "a")], {name: matrix})


def two_unit(dims, letters, mats, base="int") -> NilObject:
    ring = BlockRing(("a", "b"), base)
    return NilObject(ring, dims, letters, mats)


CROSS = two_unit(
    {"a": 1, "b": 1},
    [Letter("s", "a", "b"), Letter("t", "b", "a")],
    {"s": [[3]], "t": [[0]]},
)


# The Fraction kernel chain that `is_nilpotent` replaced, kept as its oracle.

def _reference_image(mat, y, p):
    # Column image F @ y, over Q or GF(p).
    out = [sum(e * c for e, c in zip(row, y)) for row in mat]
    return out if p is None else [x % p for x in out]


def reference_is_nilpotent(X: NilObject):
    """(verdict, index, chain): M_0 = 0 and M_{i+1}(u) the v with every v F_l in M_i(dst l).

    Each layer is a list of monic rref rows; the chain grows until it
    repeats, at most total_dim times.
    """
    p = modulus(X.ring.base)
    units = X.ring.units
    current = {u: [] for u in units}
    chain = [current]
    while True:
        annihilators = {u: reference_nullspace(current[u], X.dims[u], p) for u in units}
        nxt = {}
        for u in units:
            columns = [
                _reference_image(X.mats[l.name], y, p)
                for l in X.letters
                if l.src == u
                for y in annihilators[l.dst]
            ]
            # {w : w . column = 0 for every column}; everything if no column.
            basis = reference_nullspace(columns, X.dims[u], p)
            nxt[u] = reference_rref(basis, p)
        if nxt == current:
            break
        chain.append(nxt)
        current = nxt
        assert len(chain) <= X.total_dim() + 1
    full = [all(len(layer[u]) == X.dims[u] for u in units) for layer in chain]
    index = full.index(True) if full[-1] else None
    return full[-1], index, chain


@st.composite
def nil_objects(draw):
    """Small objects over int and gf(p), zero-dimensional units included."""
    base = draw(st.sampled_from(["int", "int", "gf(2)", "gf(3)", "gf(5)"]))
    units = ("a", "b", "c")[: draw(st.integers(1, 3))]
    dims = {u: draw(st.integers(0, 4)) for u in units}
    order = {}
    for u in units:
        for i in range(dims[u]):
            order[u, i] = len(order)
    triangular = draw(st.booleans())
    letters, mats = [], {}
    for k in range(draw(st.integers(0, 4))):
        src, dst = draw(st.sampled_from(units)), draw(st.sampled_from(units))
        mats[f"l{k}"] = [
            [
                0 if triangular and order[dst, j] <= order[src, i] else draw(st.integers(-2, 2))
                for j in range(dims[dst])
            ]
            for i in range(dims[src])
        ]
        letters.append(Letter(f"l{k}", src, dst))
    return NilObject(BlockRing(units, base), dims, letters, mats)


def typed_words(X: NilObject, length: int):
    """All letter words of given length whose consecutive types chain."""
    if length == 0:
        return [()]
    words = [[l] for l in X.letters]
    for _ in range(length - 1):
        words = [w + [l] for w in words for l in X.letters if w[-1].dst == l.src]
    return [tuple(l.name for l in w) for w in words]


def reference_word_items(X: NilObject):
    """(name, got) of the word items, from every typed word's product."""
    cert = is_nilpotent(X)

    def dead(length):
        return all(mat_eq_zero(word_matrix(X, w)) for w in typed_words(X, length))

    if not cert.nilpotent:
        d = X.total_dim()
        return [(f"some word of length {d} survives", str(not dead(d)))]
    d = cert.index
    out = [(f"every word of length {d} vanishes", str(X.total_dim() == 0 if d == 0 else dead(d)))]
    if d == 1:
        out.append(("the module itself is nonzero", str(X.total_dim() > 0)))
    elif d > 1:
        out.append((f"some word of length {d - 1} survives", str(not dead(d - 1))))
    return out


class TestReferenceChain:
    @given(nil_objects())
    @settings(max_examples=200, deadline=None)
    def test_image_chain_matches_the_fraction_kernel_chain(self, X):
        cert = is_nilpotent(X)
        nilpotent, index, chain = reference_is_nilpotent(X)
        assert (cert.nilpotent, cert.index) == (nilpotent, index)
        layers = cert.filtration.subspaces
        assert [[len(layer[u]) for u in X.ring.units] for layer in layers] == [
            [len(layer[u]) for u in X.ring.units] for layer in chain
        ]
        p = modulus(X.ring.base)
        for mine, theirs in zip(layers, chain):
            for u in X.ring.units:
                assert [monic(row, p) for row in mine[u]] == theirs[u]

    @given(nil_objects())
    @settings(max_examples=100, deadline=None)
    def test_word_items_match_every_typed_word(self, X):
        items = filtration_items(X)
        assert all(i.ok for i in items)
        assert [(i.name, i.got) for i in items[3:]] == reference_word_items(X)

    @given(nil_objects())
    @settings(max_examples=50, deadline=None)
    def test_int_filtration_entries_are_ints(self, X):
        if X.ring.base != "int":
            X = NilObject(BlockRing(X.ring.units), X.dims, X.letters, X.mats)
        for layer in is_nilpotent(X).filtration.subspaces:
            for rows in layer.values():
                assert all(type(x) is int for row in rows for x in row)


class TestRingValidation:
    def test_rationals_rejected(self):
        with pytest.raises(ValueError):
            BlockRing(("a",), "rational")

    def test_non_prime_modulus_rejected(self):
        with pytest.raises(ValueError):
            BlockRing(("a",), "gf(4)")

    def test_duplicate_units_rejected(self):
        with pytest.raises(ValueError):
            BlockRing(("a", "a"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            single("f", [[0, 1], [0, 0], [0, 0]])

    @pytest.mark.parametrize("entry", [1.5, 2.0, "1", True, None])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(ValueError, match="integers"):
            single("f", [[0, entry], [0, 0]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            single("f", [[0, 1], [0]])

    def test_unknown_letter_unit_rejected(self):
        with pytest.raises(ValueError):
            NilObject(BlockRing(("a",)), {"a": 1}, [Letter("f", "a", "c")], {"f": [[0]]})


class TestWordMatrix:
    def test_empty_word_is_identity(self):
        X = single("f", [[0, 1], [0, 0]])
        assert word_matrix(X, (), unit="a") == identity(2, QQ)

    def test_empty_word_needs_unit(self):
        with pytest.raises(ValueError):
            word_matrix(single("f", [[0]]), ())

    def test_two_letter_product_order(self):
        X = two_unit(
            {"a": 1, "b": 2},
            [Letter("s", "a", "b"), Letter("t", "b", "a")],
            {"s": [[1, 2]], "t": [[3], [4]]},
        )
        assert word_matrix(X, ("s", "t")) == [[11]]
        assert word_matrix(X, ("t", "s")) == [[3, 6], [4, 8]]

    def test_incompatible_pair_is_zero(self):
        X = two_unit(
            {"a": 1, "b": 1},
            [Letter("s", "a", "b"), Letter("u", "a", "b")],
            {"s": [[1]], "u": [[5]]},
        )
        assert word_matrix(X, ("s", "u")) == [[0]]

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            word_matrix(single("f", [[0]]), ("g",))

    @pytest.mark.parametrize("seed", range(8))
    def test_concatenation_is_composition(self, seed):
        rng = Random(seed)
        X = random_object(rng, max_total_dim=4)
        if not X.letters:
            return
        names = [l.name for l in X.letters]
        for _ in range(5):
            u = [rng.choice(names) for _ in range(rng.randint(1, 3))]
            v = [rng.choice(names) for _ in range(rng.randint(1, 3))]
            joined = word_matrix(X, u + v)
            left, right = word_matrix(X, u), word_matrix(X, v)
            if X.letter_by_name[u[-1]].dst == X.letter_by_name[v[0]].src:
                assert joined == mat_mul(left, right, QQ) or joined == mat_mul(
                    left, right
                )
            else:
                assert all(e == 0 for row in joined for e in row)


class TestIsNilpotent:
    def test_zero_map_nonzero_module(self):
        X = single("f", [[0, 0], [0, 0]])
        cert = is_nilpotent(X)
        assert cert.nilpotent and cert.index == 1
        assert len(cert.filtration.subspaces) == 2

    def test_strictly_triangular(self):
        cert = is_nilpotent(single("f", [[0, 1], [0, 0]]))
        assert cert.nilpotent and cert.index == 2

    def test_idempotent_is_not(self):
        cert = is_nilpotent(single("f", [[1]]))
        assert not cert.nilpotent and cert.index is None

    def test_empty_module(self):
        cert = is_nilpotent(zero_object(BlockRing(("a",)), {"a": 0}))
        assert cert.nilpotent and cert.index == 0

    def test_doubling_over_int_vs_gf2(self):
        assert not is_nilpotent(single("f", [[2]])).nilpotent
        assert is_nilpotent(single("f", [[2]], base="gf(2)")).nilpotent

    def test_gf3_triangular(self):
        cert = is_nilpotent(single("f", [[3, 1], [0, 3]], base="gf(3)"))
        assert cert.nilpotent and cert.index == 2

    def test_cross_block_rotation(self):
        # a -> b -> a with both maps invertible: never nilpotent.
        X = two_unit(
            {"a": 1, "b": 1},
            [Letter("s", "a", "b"), Letter("t", "b", "a")],
            {"s": [[1]], "t": [[1]]},
        )
        assert not is_nilpotent(X).nilpotent

    def test_certificate_cached(self):
        X = single("f", [[0, 1], [0, 0]])
        assert is_nilpotent(X) is is_nilpotent(X)

    @pytest.mark.parametrize("seed", range(60))
    def test_oracle_equivalence(self, seed):
        rng = Random(1000 + seed)
        X = random_object(rng)
        assert is_nilpotent(X).nilpotent == brute_nilpotent(X)

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_equivalence_gf(self, seed):
        rng = Random(2000 + seed)
        X = random_object(rng, base=rng.choice(["gf(2)", "gf(3)"]))
        assert is_nilpotent(X).nilpotent == brute_nilpotent(X)

    @pytest.mark.parametrize("seed", range(25))
    def test_filtration_items_pass(self, seed):
        rng = Random(3000 + seed)
        X = random_object(rng)
        assert all(i.ok for i in filtration_items(X))

    def test_growing_image_is_an_invariant_error(self, monkeypatch):
        # The second layer comes back as everything, outside the first.
        import freenil.nilobj as nilobj

        real = nilobj.rref
        layers = iter([real, lambda rows, field: identity(2, field)])
        monkeypatch.setattr(nilobj, "rref", lambda rows, field: next(layers)(rows, field))
        with pytest.raises(InvariantError, match="failed to shrink"):
            is_nilpotent(single("f", [[0, 1], [0, 0]]))

    def test_chain_past_the_dimension_bound_is_an_invariant_error(self, monkeypatch):
        # A 3-step shift needs 3 shrinking layers; claim dimension 1.
        monkeypatch.setattr(NilObject, "total_dim", lambda self: 1)
        with pytest.raises(InvariantError, match="dimension bound"):
            is_nilpotent(single("f", [[0, 1, 0], [0, 0, 1], [0, 0, 0]]))


class TestRestrictDiagonal:
    def test_dims_preserved(self):
        Y = restrict_diagonal(CROSS, "b")
        assert Y.dims == {"b": 1} and Y.letters == ()

    def test_keeps_only_diagonal_letters(self):
        X = two_unit(
            {"a": 1, "b": 2},
            [Letter("d", "b", "b"), Letter("s", "a", "b")],
            {"d": [[0, 1], [0, 0]], "s": [[1, 0]]},
        )
        Y = restrict_diagonal(X, "b")
        assert [l.name for l in Y.letters] == ["d"]
        assert is_nilpotent(Y).index == 2

    def test_rejects_non_nilpotent(self):
        X = single("f", [[1]])
        with pytest.raises(ValueError):
            restrict_diagonal(X, "a")

    @pytest.mark.parametrize("seed", range(20))
    def test_transport_preserves_nilpotency(self, seed):
        rng = Random(4000 + seed)
        X = random_object(rng, triangular=True)
        for u in X.ring.units:
            assert is_nilpotent(restrict_diagonal(X, u)).nilpotent


class TestFoldThrough:
    def test_one_dimensional_product(self):
        X = two_unit(
            {"a": 1, "b": 1},
            [Letter("s", "a", "b"), Letter("t", "b", "a")],
            {"s": [[2]], "t": [[0]]},
        )
        # t is the zero map, so the only candidate composite vanishes.
        Y = fold_through(X, thru="b", keep="a")
        assert Y.letters == ()
        Z = two_unit(
            {"a": 1, "b": 1},
            [Letter("s", "a", "b"), Letter("t", "b", "a")],
            {"s": [[2]], "t": [[0]]},
        )
        # A genuinely nilpotent cross pair with nonzero composite needs
        # dimension: a 2-step flow a -> b -> a on split coordinates.
        W = two_unit(
            {"a": 2, "b": 1},
            [Letter("s", "a", "b"), Letter("t", "b", "a")],
            {"s": [[1], [0]], "t": [[0, 5]]},
        )
        F = fold_through(W, thru="b", keep="a")
        assert [l.name for l in F.letters] == ["s|t"]
        assert F.mats["s|t"] == [[0, 5], [0, 0]]

    def test_diagonal_letters_ride_along(self):
        X = two_unit(
            {"a": 2, "b": 0},
            [Letter("f", "a", "a")],
            {"f": [[0, 1], [0, 0]]},
        )
        Y = fold_through(X, thru="b", keep="a")
        assert Y.mats["f"] == [[0, 1], [0, 0]]

    def test_middle_words_enumerated(self):
        # Flow a1 -> b1 -> b2 -> a2 on split coordinates: nilpotent, with
        # the only surviving composite passing through one d letter.
        X = two_unit(
            {"a": 2, "b": 2},
            [
                Letter("s", "a", "b"),
                Letter("d", "b", "b"),
                Letter("t", "b", "a"),
            ],
            {
                "s": [[1, 0], [0, 0]],
                "d": [[0, 1], [0, 0]],
                "t": [[0, 0], [0, 3]],
            },
        )
        Y = fold_through(X, thru="b", keep="a")
        assert sorted(l.name for l in Y.letters) == ["s|d|t"]
        assert Y.mats["s|d|t"] == [[0, 3], [0, 0]]

    def test_truncation_oracle(self):
        # Sum of emitted composites equals the geometric series cut far
        # beyond the nilpotency index.
        rng = Random(99)
        for _ in range(10):
            X = random_object(rng, max_units=2, triangular=True)
            if set(X.ring.units) != {"a", "b"}:
                continue
            Y = fold_through(X, thru="b", keep="a")
            na = X.dims["a"]
            total = [[0] * na for _ in range(na)]
            for name, mat in Y.mats.items():
                if "|" in name:
                    for i in range(na):
                        for j in range(na):
                            total[i][j] += mat[i][j]
            want = [[0] * na for _ in range(na)]
            s = [l for l in X.letters if (l.src, l.dst) == ("a", "b")]
            t = [l for l in X.letters if (l.src, l.dst) == ("b", "a")]
            dd = [l for l in X.letters if (l.src, l.dst) == ("b", "b")]
            nb = X.dims["b"]
            series = [[1 if i == j else 0 for j in range(nb)] for i in range(nb)]
            power = [[1 if i == j else 0 for j in range(nb)] for i in range(nb)]
            dsum = [[sum(X.mats[l.name][i][j] for l in dd) for j in range(nb)] for i in range(nb)]
            for _ in range(sum(X.dims.values()) + 3):
                power = mat_mul(power, dsum)
                series = [
                    [series[i][j] + power[i][j] for j in range(nb)] for i in range(nb)
                ]
            for ls in s:
                for lt in t:
                    part = mat_mul(mat_mul(X.mats[ls.name], series), X.mats[lt.name])
                    want = [
                        [want[i][j] + part[i][j] for j in range(na)] for i in range(na)
                    ]
            assert total == want

    def test_rejects_same_unit(self):
        with pytest.raises(ValueError):
            fold_through(CROSS, thru="a", keep="a")

    def test_rejects_non_nilpotent(self):
        X = two_unit(
            {"a": 1, "b": 1},
            [Letter("s", "a", "b"), Letter("t", "b", "a")],
            {"s": [[1]], "t": [[1]]},
        )
        with pytest.raises(ValueError):
            fold_through(X, thru="b", keep="a")

    @pytest.mark.parametrize("seed", range(15))
    def test_transport_preserves_nilpotency(self, seed):
        rng = Random(5000 + seed)
        X = random_object(rng, max_units=2, triangular=True)
        if set(X.ring.units) != {"a", "b"}:
            return
        assert is_nilpotent(fold_through(X, "b", "a")).nilpotent

    def test_work_budget(self):
        # Two into letters, one back letter, b-diagonal index 3: 2 * 1 * 3
        # words, each weighted k (k + t)^2 + 400 = 2 * (2 + 3)^2 + 400 = 450.
        shift = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        X = two_unit(
            {"a": 2, "b": 3},
            [Letter("s0", "a", "b"), Letter("s1", "a", "b"), Letter("d", "b", "b"),
             Letter("t", "b", "a")],
            {"s0": [[1, 0, 0], [0, 0, 0]], "s1": [[0, 1, 0], [0, 0, 0]], "d": shift,
             "t": [[0, 0], [0, 0], [0, 1]]},
        )
        Y = fold_through(X, "b", "a", budget=2700)
        assert [l.name for l in Y.letters] == ["s0|d|d|t", "s1|d|t"]
        with pytest.raises(LimitExceeded, match=r"fold work 2700 \(6 composite words"):
            fold_through(X, "b", "a", budget=2699)


class TestWordTwist:
    def test_single_letter_restriction(self):
        X = two_unit(
            {"a": 1, "b": 1},
            [Letter("i", "a", "a"), Letter("j", "a", "b")],
            {"i": [[0]], "j": [[2]]},
        )
        Y = word_twist(X, [("j",)])
        assert [l.name for l in Y.letters] == ["j"]
        assert Y.mats["j"] == [[2]]
        assert Y.dims == X.dims

    def test_long_words_dropped(self):
        X = single("f", [[0, 1], [0, 0]])
        Y = word_twist(X, [("f", "f", "f")])
        assert Y.letters == ()

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            word_twist(single("f", [[0]]), [()])

    def test_duplicate_word_rejected(self):
        X = single("f", [[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            word_twist(X, [("f",), ("f",)])

    def test_power_prefix_family(self):
        assert power_prefix_family("i", "j", 3) == [
            ("j",),
            ("i", "j"),
            ("i", "i", "j"),
        ]

    @pytest.mark.parametrize("seed", range(15))
    def test_split_family_nilpotent(self, seed):
        rng = Random(6000 + seed)
        X = random_object(rng, max_units=1, max_letters=2, triangular=True)
        names = [l.name for l in X.letters]
        if len(names) != 2:
            return
        i, j = names
        cert = is_nilpotent(X)
        family = power_prefix_family(i, j, cert.index or 1)
        assert is_nilpotent(word_twist(X, [(i,)])).nilpotent
        assert is_nilpotent(word_twist(X, family)).nilpotent

    def test_zero_second_letter_recovers_first(self):
        X = two_unit(
            {"a": 2, "b": 1},
            [Letter("i", "a", "a"), Letter("j", "a", "b")],
            {"i": [[0, 1], [0, 0]], "j": [[0], [0]]},
        )
        family = power_prefix_family("i", "j", 4)
        assert word_twist(X, family).letters == ()
        Y = word_twist(X, [("i",)])
        assert Y.mats["i"] == X.mats["i"]


class TestDirectSum:
    def test_sum_with_zero_is_identity(self):
        X = single("f", [[0, 1], [0, 0]])
        Z = zero_object(X.ring, {"a": 0})
        assert direct_sum(X, Z) == X
        assert direct_sum(Z, X) == X

    def test_block_layout(self):
        X = single("f", [[1]])
        Y = single("f", [[2]])
        S = direct_sum(X, Y)
        assert S.mats["f"] == [[1, 0], [0, 2]]

    def test_ring_mismatch_rejected(self):
        X = single("f", [[0]])
        Y = single("f", [[0]], base="gf(2)")
        with pytest.raises(ValueError):
            direct_sum(X, Y)

    def test_conflicting_letter_types_rejected(self):
        X = two_unit({"a": 1, "b": 1}, [Letter("f", "a", "b")], {"f": [[1]]})
        Y = two_unit({"a": 1, "b": 1}, [Letter("f", "b", "a")], {"f": [[1]]})
        with pytest.raises(ValueError):
            direct_sum(X, Y)

    @pytest.mark.parametrize("seed", range(20))
    def test_nilpotency_is_componentwise(self, seed):
        rng = Random(7000 + seed)
        X = random_object(rng, max_units=2)
        while set(X.ring.units) != {"a", "b"}:
            X = random_object(rng, max_units=2)
        Y = random_object(rng, max_units=2, prefix="m")
        while set(Y.ring.units) != {"a", "b"}:
            Y = random_object(rng, max_units=2, prefix="m")
        cx, cy = is_nilpotent(X), is_nilpotent(Y)
        cs = is_nilpotent(direct_sum(X, Y))
        assert cs.nilpotent == (cx.nilpotent and cy.nilpotent)
        if cs.nilpotent:
            assert cs.index == max(cx.index, cy.index)

    @pytest.mark.parametrize("seed", range(12))
    def test_functors_commute_with_sum(self, seed):
        rng = Random(8000 + seed)

        def fresh(prefix):
            while True:
                X = random_object(rng, max_units=2, triangular=True, prefix=prefix)
                if set(X.ring.units) == {"a", "b"}:
                    return X

        X, Y = fresh("l"), fresh("m")
        S = direct_sum(X, Y)
        assert restrict_diagonal(S, "b") == direct_sum(
            restrict_diagonal(X, "b"), restrict_diagonal(Y, "b")
        )
        assert fold_through(S, "b", "a") == direct_sum(
            fold_through(X, "b", "a"), fold_through(Y, "b", "a")
        )


class TestFileFormat:
    def test_round_trip_dict(self):
        X = two_unit(
            {"a": 1, "b": 2},
            [Letter("s", "a", "b"), Letter("d", "b", "b")],
            {"s": [[1, -2]], "d": [[0, 1], [0, 0]]},
        )
        assert from_json_dict(to_json_dict(X)) == X

    def test_round_trip_file(self, tmp_path):
        X = single("f", [[0, 3], [0, 0]], base="gf(5)")
        path = tmp_path / "object.nil"
        save_nil(X, path)
        assert load_nil(path) == X

    def test_base_preserved(self):
        X = single("f", [[1]], base="gf(7)")
        assert to_json_dict(X)["base"] == "gf(7)"
