"""Block-typed letter-matrix systems with an exact nilpotency decision.

A NilObject is a finitely generated free module M split over the units of
a BlockRing, together with one matrix per letter; a letter is a typed
symbol src -> dst and the letter matrices assemble the structure map

    f(m) = sum over letters l of (m @ F_l) tensor l.

Vectors are rows, so a word u = l_1 l_2 ... l_p acts by the left-to-right
product F_{l_1} @ F_{l_2} @ ... @ F_{l_p}: the first letter applies
first.  All identities in this module are stated relative to that
convention.

Nilpotency (some power of f kills all of M) is decided exactly through
the kernel filtration M_{i+1} = {v : every letter image of v lies in the
M_i layer}.  Over the integer base the filtration is computed over the
rationals: the kernels in question are solution spaces of integer linear
systems, so f^n = 0 holds over Z iff it holds over Q, and the chain
must grow strictly until it saturates, which bounds the index by the
total dimension.  Prime-field bases run the same algorithm mod p.

Word products and filtration steps all use the object's one field,
`field_for_base(ring.base)`; over "int" that is QQ, which keeps ints until
a division, so word products stay in Z.  `freenil.store` does file I/O.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvariantError
from .linalg import (
    GFp,
    QQ,
    hstack,
    identity,
    in_rowspan,
    left_nullspace,
    mat_eq_zero,
    mat_mul,
    mat_vec,
    right_nullspace,
    rowspan_contains,
    rref,
    transpose,
)

Word = tuple[str, ...]

_GF_RE = re.compile(r"gf\((\d+)\)\Z")


def field_for_base(base: str):
    """The field object for a base: QQ for "int", GF(p) for "gf(p)"."""
    if base == "int":
        return QQ
    m = _GF_RE.match(base)
    if m:
        return GFp(int(m.group(1)))
    raise ValueError(f"unsupported base {base!r}: use \"int\" or \"gf(p)\"")


@dataclass(frozen=True)
class BlockRing:
    """Product-of-rings shape: unit labels plus the coefficient base."""

    units: tuple[str, ...]
    base: str = "int"

    def __post_init__(self):
        if len(set(self.units)) != len(self.units) or not self.units:
            raise ValueError("unit labels must be nonempty and distinct")
        if self.base in ("rational", "qq", "fraction"):
            raise ValueError("rational coefficients are rejected; use \"int\"")
        field_for_base(self.base)


@dataclass(frozen=True)
class Letter:
    """A typed generator of the coefficient bimodule: src -> dst."""

    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Filtration:
    """Increasing kernel chain; subspaces[i][u] is an rref basis of (M_i)_u."""

    subspaces: tuple[Mapping[str, tuple], ...]

    def depth(self) -> int:
        return len(self.subspaces) - 1


@dataclass(frozen=True)
class NilCertificate:
    nilpotent: bool
    index: Optional[int]
    filtration: Filtration


class NilObject:
    """Immutable (module, structure map) pair over a BlockRing."""

    def __init__(
        self,
        ring: BlockRing,
        dims: Mapping[str, int],
        letters: Sequence[Letter],
        mats: Mapping[str, Sequence[Sequence[int]]],
    ):
        if set(dims) != set(ring.units):
            raise ValueError("dims must cover exactly the ring units")
        if any(d < 0 for d in dims.values()):
            raise ValueError("dimensions must be nonnegative")
        names = [l.name for l in letters]
        if len(set(names)) != len(names):
            raise ValueError("letter names must be distinct")
        self.field = field = field_for_base(ring.base)
        self.ring = ring
        self.dims = dict(dims)
        self.letters = tuple(letters)
        self.mats: dict[str, list[list[int]]] = {}
        for letter in letters:
            if letter.src not in dims or letter.dst not in dims:
                raise ValueError(f"letter {letter.name} uses unknown units")
            mat = [list(row) for row in mats[letter.name]]
            want = (dims[letter.src], dims[letter.dst])
            got = (len(mat), len(mat[0]) if mat else 0)
            if got[0] != want[0] or (mat and got[1] != want[1]):
                raise ValueError(
                    f"letter {letter.name} matrix is {got}, needs {want}"
                )
            self.mats[letter.name] = [[field.from_int(e) for e in row] for row in mat]
        self.letter_by_name = {l.name: l for l in self.letters}
        self._certificate: Optional[NilCertificate] = None

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def zero_matrix(self, src: str, dst: str) -> list[list[int]]:
        return [[0] * self.dims[dst] for _ in range(self.dims[src])]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NilObject):
            return NotImplemented
        if self.ring != other.ring or self.dims != other.dims:
            return False
        # Letters absent on one side count as zero maps on that side.
        names = set(self.mats) | set(other.mats)
        for name in names:
            mine = self.letter_by_name.get(name)
            theirs = other.letter_by_name.get(name)
            typed = mine or theirs
            if mine and theirs and (mine.src, mine.dst) != (theirs.src, theirs.dst):
                return False
            a = self.mats.get(name, self.zero_matrix(typed.src, typed.dst))
            b = other.mats.get(name, other.zero_matrix(typed.src, typed.dst))
            if a != b:
                return False
        return True

    def __repr__(self) -> str:
        shape = ",".join(f"{u}:{d}" for u, d in sorted(self.dims.items()))
        return f"NilObject({shape}; {len(self.letters)} letters over {self.ring.base})"


def word_matrix(X: NilObject, word: Iterable[str], unit: str | None = None):
    """Matrix of f_u for a word of letter names; identity on `unit` if empty.

    Consecutive letters must chain dst -> src; if they do not, the word acts
    as the zero map (block orthogonality) with the natural shape.
    """
    names = list(word)
    if not names:
        if unit is None:
            raise ValueError("the empty word needs a unit for its identity")
        return identity(X.dims[unit], X.field)
    letters = []
    for name in names:
        if name not in X.letter_by_name:
            raise ValueError(f"unknown letter {name!r}")
        letters.append(X.letter_by_name[name])
    src, dst = letters[0].src, letters[-1].dst
    chained = all(a.dst == b.src for a, b in zip(letters, letters[1:]))
    if not chained:
        return X.zero_matrix(src, dst)
    out = X.mats[letters[0].name]
    for letter in letters[1:]:
        out = mat_mul(out, X.mats[letter.name], X.field)
    # A zero-dimensional intermediate erases the column count of the bare
    # list-of-rows representation; the composite factors through 0 there.
    if out and len(out[0]) != X.dims[dst]:
        return X.zero_matrix(src, dst)
    return out


def is_nilpotent(X: NilObject) -> NilCertificate:
    """Decide nilpotency exactly; returns (verdict, least index, filtration).

    The kernel chain (M_i)_u starts at zero and grows by
    M_{i+1} = {v : v @ F_l lies in the M_i layer of dst(l), all l from u};
    it strictly increases until it stabilizes, so at most total_dim steps
    are ever needed.  Nilpotent iff the stable chain is everything.
    """
    if X._certificate is not None:
        return X._certificate
    field = X.field
    current = {u: () for u in X.ring.units}
    chain = [current]
    while True:
        annihilators = {
            u: right_nullspace([list(r) for r in current[u]], X.dims[u], field)
            for u in X.ring.units
        }
        nxt = {}
        for u in X.ring.units:
            columns = []
            for letter in X.letters:
                if letter.src != u:
                    continue
                for y in annihilators[letter.dst]:
                    col = mat_vec(X.mats[letter.name], y, field)
                    columns.append([[c] for c in col])
            if columns:
                constraint = hstack(columns, X.dims[u])
                basis = left_nullspace(constraint, X.dims[u], field)
            else:
                basis = [list(r) for r in identity(X.dims[u], field)]
            nxt[u] = tuple(tuple(r) for r in rref(basis, field))
        if nxt == current:
            break
        for u in X.ring.units:
            if not rowspan_contains(
                [list(r) for r in current[u]], [list(r) for r in nxt[u]], field
            ):
                raise InvariantError("kernel chain failed to be increasing")
        chain.append(nxt)
        current = nxt
        if len(chain) > X.total_dim() + 1:
            raise InvariantError("kernel chain outlived the dimension bound")
    full = all(len(current[u]) == X.dims[u] for u in X.ring.units)
    if full:
        index = next(
            i
            for i, layer in enumerate(chain)
            if all(len(layer[u]) == X.dims[u] for u in X.ring.units)
        )
        cert = NilCertificate(True, index, Filtration(tuple(chain)))
    else:
        cert = NilCertificate(False, None, Filtration(tuple(chain)))
    X._certificate = cert
    return cert


def _require_nilpotent(X: NilObject, who: str) -> NilCertificate:
    cert = is_nilpotent(X)
    if not cert.nilpotent:
        raise ValueError(f"{who} needs a nilpotent input")
    return cert


def _assert_nilpotent(X: NilObject, who: str) -> NilObject:
    if not is_nilpotent(X).nilpotent:
        raise InvariantError(f"{who} produced a non-nilpotent object")
    return X


def restrict_diagonal(X: NilObject, unit: str) -> NilObject:
    """Keep one unit and its diagonal letters; nilpotency transports over."""
    if unit not in X.ring.units:
        raise ValueError(f"unknown unit {unit!r}")
    _require_nilpotent(X, "restrict_diagonal")
    ring = BlockRing((unit,), X.ring.base)
    letters = [l for l in X.letters if l.src == unit and l.dst == unit]
    out = NilObject(
        ring,
        {unit: X.dims[unit]},
        letters,
        {l.name: X.mats[l.name] for l in letters},
    )
    return _assert_nilpotent(out, "restrict_diagonal")


def _diagonal_words(X: NilObject, unit: str, max_len: int) -> list[Word]:
    diag = [l.name for l in X.letters if l.src == unit and l.dst == unit]
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len):
        frontier = [w + (d,) for w in frontier for d in diag]
        words.extend(frontier)
    return words


def fold_through(X: NilObject, thru: str, keep: str) -> NilObject:
    """Fold the `thru` unit away: twist by g = f_kk + sum f_kt (f_tt)^m f_tk.

    One new letter per (keep->thru letter, word of thru-diagonal letters,
    thru->keep letter) triple, carrying the composite matrix; the word
    length is truncated at the nilpotency index of the thru-diagonal
    restriction, beyond which every composite vanishes.  Zero composites
    are dropped.  Keep->keep letters ride along unchanged.
    """
    if thru == keep or thru not in X.ring.units or keep not in X.ring.units:
        raise ValueError("fold_through needs two distinct units of the ring")
    _require_nilpotent(X, "fold_through")
    diag_cert = is_nilpotent(restrict_diagonal(X, thru))
    cutoff = (diag_cert.index or 0)

    ring = BlockRing((keep,), X.ring.base)
    letters: list[Letter] = []
    mats: dict[str, list[list[int]]] = {}
    for l in X.letters:
        if l.src == keep and l.dst == keep:
            letters.append(Letter(l.name, keep, keep))
            mats[l.name] = X.mats[l.name]
    into = [l for l in X.letters if l.src == keep and l.dst == thru]
    back = [l for l in X.letters if l.src == thru and l.dst == keep]
    for first in into:
        for middle in _diagonal_words(X, thru, max(cutoff - 1, 0)):
            for last in back:
                word = (first.name,) + middle + (last.name,)
                mat = word_matrix(X, word)
                if mat_eq_zero(mat, X.field):
                    continue
                name = "|".join(word)
                letters.append(Letter(name, keep, keep))
                mats[name] = mat
    out = NilObject(ring, {keep: X.dims[keep]}, letters, mats)
    return _assert_nilpotent(out, "fold_through")


def word_twist(X: NilObject, words: Iterable[Word]) -> NilObject:
    """Replace the twist by f restricted to the given words, one letter each.

    Words longer than the nilpotency index act by zero and are dropped, so
    families like {i^k j : k >= 0} become effectively finite once cut at
    the index.  Equal-name collisions are rejected; pass each word once.
    """
    cert = _require_nilpotent(X, "word_twist")
    letters: list[Letter] = []
    mats: dict[str, list[list[int]]] = {}
    for word in words:
        word = tuple(word)
        if not word:
            raise ValueError("the empty word is not a twist")
        if len(word) > (cert.index or 0):
            continue
        mat = word_matrix(X, word)
        if mat_eq_zero(mat, X.field):
            continue
        src = X.letter_by_name[word[0]].src
        dst = X.letter_by_name[word[-1]].dst
        name = "|".join(word)
        if name in mats:
            raise ValueError(f"word {name} given twice")
        letters.append(Letter(name, src, dst))
        mats[name] = mat
    out = NilObject(X.ring, X.dims, letters, mats)
    return _assert_nilpotent(out, "word_twist")


def power_prefix_family(i: str, j: str, bound: int) -> list[Word]:
    """The words i^k j for 0 <= k < bound."""
    return [tuple([i] * k + [j]) for k in range(bound)]


def direct_sum(X: NilObject, Y: NilObject) -> NilObject:
    """Blockwise sum; letters missing on one side contribute zero blocks."""
    if X.ring != Y.ring:
        raise ValueError("direct_sum needs matching rings")
    dims = {u: X.dims[u] + Y.dims[u] for u in X.ring.units}
    letters: list[Letter] = []
    mats: dict[str, list[list[int]]] = {}
    seen = dict(X.letter_by_name)
    for name, l in Y.letter_by_name.items():
        if name in seen and (seen[name].src, seen[name].dst) != (l.src, l.dst):
            raise ValueError(f"letter {name} typed differently in the summands")
        seen.setdefault(name, l)
    for name, l in seen.items():
        a = X.mats.get(name, X.zero_matrix(l.src, l.dst))
        b = Y.mats.get(name, Y.zero_matrix(l.src, l.dst))
        block = []
        for row in a:
            block.append(list(row) + [0] * Y.dims[l.dst])
        for row in b:
            block.append([0] * X.dims[l.dst] + list(row))
        letters.append(l)
        mats[name] = block
    return NilObject(X.ring, dims, letters, mats)


def zero_object(ring: BlockRing, dims: Mapping[str, int]) -> NilObject:
    return NilObject(ring, dims, (), {})


# Filtration and index facts checkable against raw word products.

def filtration_items(X: NilObject):
    """Check the computed certificate against first-principles word products."""
    from .report import item

    cert = is_nilpotent(X)
    chain = cert.filtration.subspaces
    field = X.field
    items = [
        item(
            "chain starts at zero",
            True,
            all(len(chain[0][u]) == 0 for u in X.ring.units),
        )
    ]
    increasing = all(
        rowspan_contains(
            [list(r) for r in chain[i][u]], [list(r) for r in chain[i + 1][u]], field
        )
        for i in range(len(chain) - 1)
        for u in X.ring.units
    )
    items.append(item("chain is increasing", True, increasing))

    mapped_down = True
    for i in range(1, len(chain)):
        for u in X.ring.units:
            for v in chain[i][u]:
                for letter in X.letters:
                    if letter.src != u:
                        continue
                    # Row vector image: v @ F = transpose(F) @ v.
                    image = mat_vec(transpose(X.mats[letter.name]), list(v), field)
                    if not in_rowspan(
                        image, [list(r) for r in chain[i - 1][letter.dst]], field
                    ):
                        mapped_down = False
    items.append(item("letters map layer i into layer i-1", True, mapped_down))

    if cert.nilpotent:
        d = cert.index or 0
        if d == 0:
            all_dead = X.total_dim() == 0
        else:
            all_dead = all(
                mat_eq_zero(word_matrix(X, w), field) for w in _typed_words(X, d)
            )
        items.append(item(f"every word of length {d} vanishes", True, all_dead))
        if d == 1:
            items.append(item("the module itself is nonzero", True, X.total_dim() > 0))
        elif d > 1:
            alive = any(
                not mat_eq_zero(word_matrix(X, w), field)
                for w in _typed_words(X, d - 1)
            )
            items.append(item(f"some word of length {d - 1} survives", True, alive))
    else:
        d = X.total_dim()
        alive = any(
            not mat_eq_zero(word_matrix(X, w), field) for w in _typed_words(X, d)
        )
        items.append(item(f"some word of length {d} survives", True, alive))
    return items


def _typed_words(X: NilObject, length: int) -> list[Word]:
    """All letter words of given length whose consecutive types chain."""
    if length == 0:
        return [()]
    words: list[list[Letter]] = [[l] for l in X.letters]
    for _ in range(length - 1):
        words = [w + [l] for w in words for l in X.letters if w[-1].dst == l.src]
    return [tuple(l.name for l in w) for w in words]


# JSON file format: ring header, dims, then one dense matrix per letter.

def to_json_dict(X: NilObject) -> dict:
    return {
        "units": list(X.ring.units),
        "base": X.ring.base,
        "dims": dict(sorted(X.dims.items())),
        "letters": [
            {
                "name": l.name,
                "src": l.src,
                "dst": l.dst,
                "matrix": [list(row) for row in X.mats[l.name]],
            }
            for l in X.letters
        ],
    }


def from_json_dict(data: dict) -> NilObject:
    ring = BlockRing(tuple(data["units"]), data.get("base", "int"))
    letters = [Letter(l["name"], l["src"], l["dst"]) for l in data["letters"]]
    mats = {l["name"]: l["matrix"] for l in data["letters"]}
    return NilObject(ring, dict(data["dims"]), letters, mats)

