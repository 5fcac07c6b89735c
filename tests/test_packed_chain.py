"""The packed GF(p) image chain and its certificate against the list code they replaced.

`is_nilpotent` and `filtration_items` run over GF(p) on `PackedRows`: one
int per row, one field per column.  The oracles in `nil_helpers` are the
list image, the list span test and the list chain that ran before.  The
moduli include 2^31 - 1 and 2^61 - 1, whose fields are wider than a
machine word; units may be zero-dimensional, and some modules carry a
planted idempotent letter, so they are not nilpotent.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from freenil.errors import InvariantError
from freenil.linalg import GFp, PackedRows, identity, rowspan_contains
from freenil.nilobj import BlockRing, Letter, NilObject, filtration_items, is_nilpotent

from nil_helpers import list_chain_items, list_image, list_is_nilpotent, list_rowspan_contains, list_rref
from test_nilobj import with_chain

PRIMES = (2, 3, 7, 2**31 - 1, 2**61 - 1)
CI = settings(derandomize=True, deadline=None)


@st.composite
def modules(draw, max_dim=5):
    """Modules over the packed moduli, triangular (nilpotent) or not, some planted."""
    p = draw(st.sampled_from(PRIMES))
    units = ("a", "b", "c")[: draw(st.integers(1, 3))]
    dims = {u: draw(st.integers(0, max_dim)) for u in units}
    order = {(u, i): k for k, (u, i) in enumerate((u, i) for u in units for i in range(dims[u]))}
    triangular = draw(st.booleans())
    entries = st.sampled_from((0, 1, -1, -2, 2, p // 2))
    letters, mats = [], {}
    for k in range(draw(st.integers(0, 4))):
        src, dst = draw(st.sampled_from(units)), draw(st.sampled_from(units))
        mats[f"l{k}"] = [[0 if triangular and order[dst, j] <= order[src, i] else draw(entries)
                          for j in range(dims[dst])] for i in range(dims[src])]
        letters.append(Letter(f"l{k}", src, dst))
    planted = [u for u in units if dims[u]]
    if planted and draw(st.booleans()):
        # An idempotent letter fixing one basis vector: no power of f vanishes.
        u = draw(st.sampled_from(planted))
        i = draw(st.integers(0, dims[u] - 1))
        mats["fix"] = [[int(r == c == i) for c in range(dims[u])] for r in range(dims[u])]
        letters.append(Letter("fix", u, u))
    return NilObject(BlockRing(units, f"gf({p})"), dims, letters, mats)


# Two units around a zero-dimensional one, and a planted rotation.
HOLLOW = NilObject(
    BlockRing(("a", "b", "c"), f"gf({2**61 - 1})"),
    {"a": 0, "b": 3, "c": 2},
    [Letter("in", "b", "a"), Letter("out", "a", "c"), Letter("s", "b", "c"), Letter("t", "c", "c")],
    {"in": [[], [], []], "out": [], "s": [[1, -1], [0, 3], [2, 0]], "t": [[0, 1], [0, 0]]},
)
ROTATION = NilObject(
    BlockRing(("a", "b"), "gf(7)"), {"a": 1, "b": 1},
    [Letter("s", "a", "b"), Letter("t", "b", "a")], {"s": [[3]], "t": [[5]]},
)


@given(modules())
@example(HOLLOW)
@example(ROTATION)
@settings(CI, max_examples=300)
def test_packed_chain_matches_the_list_chain(X):
    cert = is_nilpotent(X)
    nilpotent, index, chain = list_is_nilpotent(X)
    assert (cert.nilpotent, cert.index) == (nilpotent, index)
    assert list(cert.filtration.images) == chain
    items = filtration_items(X)
    assert [i.ok for i in items[:3]] == list(list_chain_items(X, chain)) == [True] * 3


@given(modules(), st.data())
@settings(CI, max_examples=200)
def test_packed_items_match_the_list_items_on_mangled_chains(X, data):
    chain = list(is_nilpotent(X).filtration.images)
    k = data.draw(st.integers(0, len(chain)))
    how = data.draw(st.sampled_from(("drop", "repeat", "reverse", "empty")))
    if how == "drop":
        chain = chain[:k] + chain[k + 1:]
    elif how == "repeat":
        chain = chain[:k + 1] + chain[k:]
    elif how == "reverse":
        chain = chain[::-1]
    else:
        chain = chain[:k] + [{u: [] for u in X.ring.units}] + chain[k:]
    if not chain:
        return
    items = filtration_items(with_chain(X, chain))
    assert [i.ok for i in items[:3]] == list(list_chain_items(X, chain))


@st.composite
def kernel_inputs(draw):
    """Rows a and a letter F (src x dst) over a packed modulus, entries near 0 and -1."""
    p = draw(st.sampled_from(PRIMES))
    src, dst = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = st.sampled_from((0, 1, 2, -1, -2))
    a = [[draw(entries) % p for _ in range(dst)] for _ in range(draw(st.integers(0, 2 * src)))]
    a = [row for row in a if any(row)]
    f = [[draw(entries) % p for _ in range(dst)] for _ in range(src)]
    return p, a, f


M61 = 2**61 - 1
# At p = 2^61 - 1 and dim 3 the fields of this elimination reach past
# 2^124, one bit below the width W = bits(8 p^2) = 125.
WIDE = (M61, [[x % M61 for x in row] for row in ([-1, 1, -1], [0, 1, 1], [-1, -1, -1], [-2, 1, 1])],
        [[x % M61 for x in row] for row in ([-1, -1, 1], [-1, -2, -1], [-1, -2, -2])])


@given(kernel_inputs())
@example(WIDE)
@settings(CI, max_examples=400)
def test_packed_kernels_match_the_lists(case):
    p, a, f = case
    src, dst = len(f), len(f[0])
    rows = PackedRows(p, max(src, dst))
    columns = rows.pack(list(zip(*f)))
    packed = rows.images(a, columns)
    lists = [list_image(list(zip(*f)), row, p) for row in a]
    mask = rows.mask
    assert [[(x >> s & mask) % p for s in range(rows.w * (src - 1), -1, -rows.w)] for x in packed] == lists
    basis, out = rows.rref(packed, src)
    assert out == list_rref(lists, p)
    assert basis == rows.pack(out)
    assert rows.contains(packed, basis, src)
    # Each image against the basis of the others.
    for i in range(len(a)):
        others = rows.rref(packed[:i] + packed[i + 1:], src)
        assert rows.contains([packed[i]], others[0], src) == list_rowspan_contains(
            [lists[i]], others[1], GFp(p))


@given(st.sampled_from(PRIMES), st.integers(1, 7), st.data())
@settings(CI, max_examples=300)
def test_a_span_member_plus_a_unit_vector_is_a_near_miss(p, cols, data):
    entries = st.sampled_from((0, 1, -1, 2, p // 3))
    gen = [[data.draw(entries) % p for _ in range(cols)] for _ in range(data.draw(st.integers(0, cols)))]
    rows = PackedRows(p, cols)
    basis, outer = rows.rref(rows.pack(gen), cols)
    coef = [data.draw(entries) % p for _ in outer]
    member = [sum(c * b[j] for c, b in zip(coef, outer)) % p for j in range(cols)]
    j = data.draw(st.integers(0, cols - 1))
    near = member[:j] + [(member[j] + 1) % p] + member[j + 1:]
    field = GFp(p)
    assert rows.contains(rows.pack([member]), basis, cols)
    assert rowspan_contains([member], outer, field)
    # e_j lies in the span iff column j holds a pivot of a row that is e_j itself.
    inside = [0] * j + [1] + [0] * (cols - j - 1) in outer
    assert rows.contains(rows.pack([near]), basis, cols) is inside
    assert rowspan_contains([near], outer, field) is inside is list_rowspan_contains([near], outer, field)


@pytest.mark.parametrize("p", PRIMES)
def test_a_near_miss_layer_fails_the_shrink_recheck(monkeypatch, p):
    # A 3-step shift: A_1 = <e_0, e_1>, A_2 = <e_0>.  The second elimination
    # comes back as e_0 + e_2, a member of A_1 plus a unit vector outside it.
    X = NilObject(BlockRing(("a",), f"gf({p})"), {"a": 3}, [Letter("f", "a", "a")],
                  {"f": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]})
    chain = is_nilpotent(X).filtration.images
    assert [layer["a"] for layer in chain] == [identity(3), [[1, 0, 0], [0, 1, 0]], [[1, 0, 0]], []]
    near = [1, 0, 1]
    real = PackedRows.rref
    calls = iter(range(10))

    def rref(kit, rows, cols):
        out = real(kit, rows, cols)
        return real(kit, kit.pack([near]), cols) if next(calls) == 1 else out

    monkeypatch.setattr(PackedRows, "rref", rref)
    with pytest.raises(InvariantError, match="failed to shrink"):
        is_nilpotent(NilObject(X.ring, X.dims, X.letters, X.mats))
    monkeypatch.undo()
    # Handed to the certificate instead, the same layer reads as not increasing.
    mangled = [chain[0], chain[1], {"a": [near]}, {"a": []}]
    items = filtration_items(with_chain(X, mangled))
    assert items[1].name == "chain is increasing" and not items[1].ok
    assert [i.ok for i in items[:3]] == list(list_chain_items(X, mangled))
