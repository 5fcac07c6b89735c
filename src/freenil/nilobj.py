"""Block-typed letter-matrix systems with an exact nilpotency decision.

A NilObject is a finitely generated free module M split over the units of
a BlockRing, together with one matrix per letter; a letter is a typed
symbol src -> dst and the letter matrices assemble the structure map

    f(m) = sum over letters l of (m @ F_l) tensor l.

Vectors are rows, so a word u = l_1 l_2 ... l_p acts by the left-to-right
product F_{l_1} @ F_{l_2} @ ... @ F_{l_p}: the first letter applies
first.  All identities in this module are stated relative to that
convention.

Nilpotency (some power of f kills all of M) is decided exactly on the
column image chain alone (see `is_nilpotent`).  The kernel filtration
M_{i+1} = {v : every letter image of v lies in the M_i layer} is the
chain of its annihilators, and the certificate is checked in dual form
on that chain (see `filtration_items`).  Each elimination runs on packed
rows (see `freenil.linalg`), fraction-free over Z for the integer base,
and its result is the rational one up to row scale: the kernels in
question are solution spaces of integer linear systems, so f^n = 0 holds
over Z iff it holds over Q.  The chain changes strictly until it
saturates, which bounds the index by the total dimension.  Prime-field
bases run the same chain mod p, packed one int per row from the image
rows to the containment proofs (`linalg.PackedRows`).
Deciding and checking each have the fixed work budget `CHAIN_WORK_BUDGET`.

Word products and filtration steps all use the object's one field,
`field_for_base(ring.base)`; over "int" that is QQ, whose elements are
ints, so every matrix and filtration entry is an int.  `freenil.store`
does file I/O.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvariantError, LimitExceeded, ensure_within
from .linalg import GFp, QQ, identity, mat_eq_zero, mat_mul, reduced_nullspace, row_kernels

Word = tuple[str, ...]

_GF_RE = re.compile(r"gf\((\d+)\)\Z")


@cache
def field_for_base(base: str):
    """The field object for a base, one per base text: QQ for "int", GF(p) for "gf(p)"."""
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
    """Increasing kernel chain M_0 = 0, M_1, ..., held as its image chain.

    images[k][u] is the `rref` basis of the column image A_k(u), and the
    layer (M_k)_u is its annihilator.  `subspaces` is a view that builds
    the layers when first read: subspaces[k][u] is the `rref` basis of
    (M_k)_u, in coprime integer rows over "int" and monic rows over GF(p).
    """

    images: tuple[Mapping[str, list], ...]
    dims: Mapping[str, int]
    field: object
    increasing: bool = False  # proved by `is_nilpotent` as it built the chain

    @cached_property
    def subspaces(self) -> tuple[Mapping[str, tuple], ...]:
        return tuple(
            {u: tuple(map(tuple, reduced_nullspace(a, self.dims[u], self.field)))
             for u, a in layer.items()}
            for layer in self.images
        )

    def depth(self) -> int:
        return len(self.images) - 1

    def layer_dims(self) -> list[int]:
        """Total dimension of each layer M_0, M_1, ..., summed over the units."""
        total = sum(self.dims.values())
        return [total - sum(map(len, layer.values())) for layer in self.images]


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
            if got[0] != want[0] or any(len(row) != want[1] for row in mat):
                raise ValueError(
                    f"letter {letter.name} matrix is {got}, needs {want}"
                )
            if any(type(e) is not int for row in mat for e in row):
                raise ValueError(f"letter {letter.name} matrix entries must be integers")
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
    # A composite through a zero-dimensional unit is zero; a bare list of
    # rows with no rows also forgets its width, so it is never multiplied.
    if not chained or any(X.dims[l.dst] == 0 for l in letters[:-1]):
        return X.zero_matrix(src, dst)
    out = X.mats[letters[0].name]
    for letter in letters[1:]:
        out = mat_mul(out, X.mats[letter.name], X.field)
    return out


# Fixed work budget of one nilpotency decision, and again of one
# certificate check, counted as it goes so that a deep chain exits 3 part
# way instead of running for minutes.  A product or a containment test is
# charged rows x inner x columns, each cell one multiply-add inside a C
# dot product; an elimination rows x columns x min(rows, columns) at four
# times that, the weight it had as a list elimination.  Packed rows made
# eliminations cheaper; the charges stay, so every exit point stays put.
CHAIN_WORK_BUDGET = 200_000_000

# Fixed work budget of one fold (see `fold_through`), and what one composite
# letter costs beyond its products: about 60 us against 0.17 us per
# multiplication.  At the budget a fold took 6-8 s with kept/folded dims
# 64/64, 96/32 and 48/16, and 5 s for 92,500 composites at 2/2 (2-core host).
FOLD_WORK_BUDGET = 40_000_000
FOLD_WORD_OVERHEAD = 400


class _Work:
    """A running work count; LimitExceeded past CHAIN_WORK_BUDGET."""

    def __init__(self, what: str):
        self.what, self.spent = f"{what} work", 0

    def charge(self, rows: int, cols: int, depth: int) -> None:
        self.spent += rows * cols * depth
        ensure_within(self.spent, CHAIN_WORK_BUDGET, self.what, "this work budget is fixed")

    def eliminate(self, rows: int, cols: int) -> None:
        self.charge(rows, cols, 4 * min(rows, cols))


def is_nilpotent(X: NilObject) -> NilCertificate:
    """Decide nilpotency exactly; returns (verdict, least index, filtration).

    Runs the column image chain A_0(u) = everything,
    A_{k+1}(u) = sum over letters l: u -> t of F_l A_k(t),
    one elimination per unit per layer.  The chain only shrinks, so it is
    stable once no rank drops, within total_dim steps.  Nilpotent iff it
    ends at 0, and the index is the first k with every A_k(u) = 0.  The
    filtration layer M_k(u) is the annihilator of A_k(u), because
    v F_l lies in M_k(t) iff v is orthogonal to F_l A_k(t).
    """
    if X._certificate is not None:
        return X._certificate
    field, units, dims = X.field, X.ring.units, X.dims
    kit = row_kernels(field, max(dims.values()))
    # A basis row a of A_k(t) maps to F_l a, a combination of columns of
    # F_l; a letter out of a zero-dimensional unit has none and adds nothing.
    columns = [(l.src, l.dst, kit.pack(list(zip(*X.mats[l.name])))) for l in X.letters if dims[l.src]]
    images = {u: identity(dims[u], field) for u in units}
    basis = {u: kit.pack(images[u]) for u in units}
    chain = [images]
    work = _Work("image chain")
    while True:
        rows = {u: [] for u in units}
        for src, dst, cols in columns:
            rows[src] += kit.images(images[dst], cols)
        for u in units:
            work.eliminate(len(rows[u]), dims[u])
        nxt = {u: kit.rref(rows[u], dims[u]) for u in units}
        if not all(kit.contains(nxt[u][0], basis[u], dims[u]) for u in units):
            raise InvariantError("image chain failed to shrink")
        if all(len(nxt[u][0]) == len(basis[u]) for u in units):
            break
        basis, images = ({u: nxt[u][i] for u in units} for i in (0, 1))
        if len(chain) > X.total_dim():
            raise InvariantError("image chain outlived the dimension bound")
        chain.append(images)
    nilpotent = not any(images.values())
    index = len(chain) - 1 if nilpotent else None
    X._certificate = NilCertificate(nilpotent, index, Filtration(tuple(chain), dims, field, increasing=True))
    return X._certificate


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


def fold_through(X: NilObject, thru: str, keep: str) -> NilObject:
    """Fold the `thru` unit away: twist by g = f_kk + sum f_kt (f_tt)^m f_tk.

    One new letter per (keep->thru letter, word of thru-diagonal letters,
    thru->keep letter) triple, carrying the composite matrix; the word
    length is truncated at the nilpotency index of the thru-diagonal
    restriction, beyond which every composite vanishes.  Zero composites
    are dropped.  Keep->keep letters ride along unchanged.

    The number of triples is known once that index is.  Each costs at most
    k (k + t)^2 scalar multiplications, for unit dims k = keep and t = thru
    (a k x t by t x t product extends a prefix, a k x t by t x k one closes
    it), plus `FOLD_WORD_OVERHEAD` for its letter; their sum is the fold's
    work, and above `FOLD_WORK_BUDGET` the fold raises LimitExceeded before
    any product.
    """
    if thru == keep or thru not in X.ring.units or keep not in X.ring.units:
        raise ValueError("fold_through needs two distinct units of the ring")
    _require_nilpotent(X, "fold_through")
    depth = max((is_nilpotent(restrict_diagonal(X, thru)).index or 0) - 1, 0)
    diag = [l for l in X.letters if l.src == thru and l.dst == thru]
    into = [l for l in X.letters if l.src == keep and l.dst == thru]
    back = [l for l in X.letters if l.src == thru and l.dst == keep]
    words = len(into) * len(back) * sum(len(diag) ** m for m in range(depth + 1))
    k, t = X.dims[keep], X.dims[thru]
    work = words * (k * (k + t) ** 2 + FOLD_WORD_OVERHEAD)
    if work > FOLD_WORK_BUDGET:
        raise LimitExceeded(
            f"fold work {work} ({words} composite words at unit dims {k} and {t}) "
            f"exceeds the configured ceiling {FOLD_WORK_BUDGET}; this work budget is fixed"
        )

    ring = BlockRing((keep,), X.ring.base)
    letters: list[Letter] = []
    mats: dict[str, list[list[int]]] = {}
    for l in X.letters:
        if l.src == keep and l.dst == keep:
            letters.append(Letter(l.name, keep, keep))
            mats[l.name] = X.mats[l.name]
    for first in into if back else ():
        # Breadth first over the middle words, as (word, prefix product);
        # a zero prefix only has zero extensions.
        level = [((first.name,), X.mats[first.name])]
        for length in range(depth + 1):
            if length:
                level = [(word + (d.name,), mat_mul(prefix, X.mats[d.name], X.field))
                         for word, prefix in level for d in diag]
            level = [(word, prefix) for word, prefix in level if not mat_eq_zero(prefix)]
            for word, prefix in level:
                for last in back:
                    mat = mat_mul(prefix, X.mats[last.name], X.field)
                    if not mat_eq_zero(mat):
                        name = "|".join(word + (last.name,))
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
        if mat_eq_zero(mat):
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


# Filtration and index facts checkable against the letter matrices.

def filtration_items(X: NilObject):
    """Check the certificate in dual form on the image chain that decided it.

    M_k is the annihilator of A_k, so M_0 = 0 iff A_0 is everything,
    M_i <= M_{i+1} iff A_{i+1} <= A_i, and l: u -> t maps M_i(u) into
    M_{i-1}(t) iff F_l A_{i-1}(t) <= A_i(u).  With those, A_d = 0 makes
    every word of length d vanish; `_walk` shows a surviving word.
    """
    from .report import item

    cert = is_nilpotent(X)
    units, dims, chain = X.ring.units, X.dims, cert.filtration.images
    kit = row_kernels(X.field, max(dims.values()))
    work = _Work("certificate check")
    # F_l A from the columns of F_l; letters out of empty units check nothing.
    letters = [(l.src, l.dst, kit.pack(list(zip(*X.mats[l.name])))) for l in X.letters if dims[l.src]]
    for b, a in zip(chain, chain[1:]):  # (A_{i-1}, A_i)
        for u in units:
            work.charge(len(a[u]), len(b[u]), dims[u])
        for src, dst, _ in letters:
            work.charge(len(b[dst]), dims[dst] + len(a[src]), dims[src])
    packed = [{u: kit.pack(layer[u]) for u in units} for layer in chain]
    zero_start = all(len(chain[0][u]) == dims[u] for u in units)
    increasing = cert.filtration.increasing or all(
        kit.contains(a[u], b[u], dims[u]) for b, a in zip(packed, packed[1:]) for u in units)
    mapped_down = all(kit.contains(kit.images(b[dst], cols), a[src], dims[src])
                      for b, a in zip(chain, packed[1:]) for src, dst, cols in letters)
    items = [item("chain starts at zero", True, zero_start),
             item("chain is increasing", True, increasing),
             item("letters map layer i into layer i-1", True, mapped_down)]
    if not cert.nilpotent:
        d = X.total_dim()
        return items + [item(f"some word of length {d} survives", True, _walk(X, chain, d, work))]
    d = cert.index
    vanishes = zero_start and mapped_down and not any(chain[d].values())
    items.append(item(f"every word of length {d} vanishes", True, vanishes))
    if d == 1:
        items.append(item("the module itself is nonzero", True, X.total_dim() > 0))
    elif d > 1:
        items.append(item(f"some word of length {d - 1} survives", True, _walk(X, chain, d - 1, work)))
    return items


def _walk(X: NilObject, chain, length: int, work: _Work) -> bool:
    """Does a word of `length` letters act nonzero?  A walk finds a witness.

    v starts outside the annihilator of layer `length` and steps to v F_l
    for the first letter l that keeps it outside that of the next layer
    down, reading A_min(k, top) as layer k.  A dead end reads False, and
    otherwise v F_w != 0, computed from the letter matrices, decides.
    """
    field, top = X.field, len(chain) - 1
    start = next(((u, e) for u, rows in chain[min(length, top)].items()
                  for e in identity(X.dims[u], field) if any(field.dot(e, b) for b in rows)), None)
    if start is None:
        return False
    u, v = start
    for k in range(length, 0, -1):
        below = chain[min(k - 1, top)]
        for l in X.letters:
            if l.src == u:
                work.charge(1, X.dims[u] + len(below[l.dst]), X.dims[l.dst])
                image = mat_mul([v], X.mats[l.name], field)[0]
                if any(field.dot(image, b) for b in below[l.dst]):
                    u, v = l.dst, image
                    break
        else:
            return False
    return any(v)


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

