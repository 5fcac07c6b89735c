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
M_i layer}, computed as the annihilators of the dual column image chain
(see `is_nilpotent`).  Over the integer base the eliminations are
fraction-free over Z and their results are the rational ones up to row
scale: the kernels in question are solution spaces of integer linear
systems, so f^n = 0 holds over Z iff it holds over Q.  The chain changes
strictly until it saturates, which bounds the index by the total
dimension.  Prime-field bases run the same algorithm mod p.

Word products and filtration steps all use the object's one field,
`field_for_base(ring.base)`; over "int" that is QQ, whose elements are
ints, so every matrix and filtration entry is an int.  `freenil.store`
does file I/O.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvariantError, LimitExceeded
from .linalg import (
    GFp,
    QQ,
    identity,
    mat_eq_zero,
    mat_mul,
    mat_vec,
    reduced_nullspace,
    rowspan_contains,
    rref,
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
    """Increasing kernel chain; subspaces[i][u] is the `rref` basis of (M_i)_u.

    Its rows are coprime integer rows over "int" and monic rows over GF(p).
    """

    subspaces: tuple[Mapping[str, tuple], ...]

    def depth(self) -> int:
        return len(self.subspaces) - 1

    def layer_dims(self) -> list[int]:
        """Total dimension of each layer M_0, M_1, ..., summed over the units."""
        return [sum(map(len, layer.values())) for layer in self.subspaces]


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
    field = X.field
    units = X.ring.units
    images = {u: identity(X.dims[u], field) for u in units}
    chain = []
    while True:
        chain.append(
            {u: tuple(map(tuple, reduced_nullspace(images[u], X.dims[u], field))) for u in units}
        )
        nxt = {
            u: rref(
                [mat_vec(X.mats[l.name], a, field)
                 for l in X.letters if l.src == u for a in images[l.dst]],
                field,
            )
            for u in units
        }
        if not all(rowspan_contains(nxt[u], images[u], field) for u in units):
            raise InvariantError("image chain failed to shrink")
        if all(len(nxt[u]) == len(images[u]) for u in units):
            break
        images = nxt
        if len(chain) > X.total_dim():
            raise InvariantError("image chain outlived the dimension bound")
    nilpotent = not any(images.values())
    index = len(chain) - 1 if nilpotent else None
    X._certificate = NilCertificate(nilpotent, index, Filtration(tuple(chain)))
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


# What one composite letter of a fold costs beyond its products (building
# it, deciding the result, rendering it), in multiplications: about 60 us
# per letter against 0.17 us per multiplication on a 2-core host.
FOLD_WORD_OVERHEAD = 400


def fold_through(X: NilObject, thru: str, keep: str,
                 budget: int | None = None) -> NilObject:
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
    work, and above `budget` the fold raises LimitExceeded before any
    product.
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
    if budget is not None and work > budget:
        raise LimitExceeded(
            f"fold work {work} ({words} composite words at unit dims {k} and {t}) "
            f"exceeds the configured ceiling {budget}; this work budget is fixed"
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


# Filtration and index facts checkable against the letter matrices.

def filtration_items(X: NilObject):
    """Check the computed certificate against the letter matrices themselves.

    Word vanishing is read off the row image chain R_0(t) = everything,
    R_k(t) = sum over letters l: s -> t of R_{k-1}(s) F_l, which is spanned
    by the rows of every typed word of length k ending at t: every word of
    length k vanishes iff all R_k(t) = 0.  It shares no step with the
    column image chain of `is_nilpotent`.
    """
    from .report import item

    cert = is_nilpotent(X)
    chain = cert.filtration.subspaces
    field = X.field
    units = X.ring.units
    items = [item("chain starts at zero", True, all(len(chain[0][u]) == 0 for u in units))]
    increasing = all(
        rowspan_contains(chain[i][u], chain[i + 1][u], field)
        for i in range(len(chain) - 1)
        for u in units
    )
    items.append(item("chain is increasing", True, increasing))
    mapped_down = all(
        rowspan_contains(mat_mul(chain[i][l.src], X.mats[l.name], field), chain[i - 1][l.dst], field)
        for i in range(1, len(chain))
        for l in X.letters
    )
    items.append(item("letters map layer i into layer i-1", True, mapped_down))

    d = (cert.index or 0) if cert.nilpotent else X.total_dim()
    rows = {u: identity(X.dims[u], field) for u in units}
    survives = [any(rows.values())]  # survives[k]: some word of length k acts nonzero
    for _ in range(d):
        nxt = {
            t: rref(
                [r for l in X.letters if l.dst == t for r in mat_mul(rows[l.src], X.mats[l.name], field)],
                field,
            )
            for t in units
        }
        if nxt == rows:  # a fixed point: the chain only shrinks
            break
        rows = nxt
        survives.append(any(rows.values()))
    survives += survives[-1:] * (d + 1 - len(survives))
    if cert.nilpotent:
        items.append(item(f"every word of length {d} vanishes", True, not survives[d]))
        if d == 1:
            items.append(item("the module itself is nonzero", True, X.total_dim() > 0))
        elif d > 1:
            items.append(item(f"some word of length {d - 1} survives", True, survives[d - 1]))
    else:
        items.append(item(f"some word of length {d} survives", True, survives[d]))
    return items


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

