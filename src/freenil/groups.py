"""Group oracles with a solved word problem, plus subgroup and embedding data.

Three element models are supported: finite groups as explicit multiplication
tables, finitely generated free groups as reduced words of signed generator
numbers, and free abelian groups as exponent vectors.  Anything else is
rejected up front, because every construction built on top inherits its
correctness from exact answers to equality, membership, and coset questions.

Coset conventions are right-sided throughout.  A subgroup's ``rep`` function
sends g to the chosen representative of H*g, so ``rep(h*g) == rep(g)`` for
every h in H, ``rep(identity)`` is the identity, and membership is the same
as ``rep(g) == identity``.
"""

from __future__ import annotations

import itertools
import math
from operator import add, itemgetter, mul, neg

from .errors import InvariantError, LimitExceeded

_DEFAULT_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Fixed budget on the digits of an exponent in element text, the interpreter's
# int/str ceiling; rendering compares with 10^4300 before any conversion.
EXPONENT_DIGITS_BUDGET = 4300
_EXPONENT_BOUND = 10 ** EXPONENT_DIGITS_BUDGET


def _check_name(name):
    if not isinstance(name, str) or not name:
        raise ValueError("element names must be nonempty strings")
    if any(map(str.isspace, name)) or not set(name).isdisjoint(",^*"):
        raise ValueError(f"element name {name!r} uses a reserved character")
    return name


def _pick_letters(rank, letters):
    """The generator names of a free or free abelian group of this rank."""
    if not isinstance(rank, int) or rank < 0:
        raise ValueError("rank must be a nonnegative integer")
    if letters is None:
        if rank <= len(_DEFAULT_LETTERS):
            return tuple(_DEFAULT_LETTERS[:rank])
        return tuple(f"g{i}" for i in range(rank))
    letters = tuple(_check_name(l) for l in letters)
    if "1" in letters:
        raise ValueError('the letter "1" is reserved for the identity')
    if len(letters) != rank or len(set(letters)) != rank:
        raise ValueError("need one distinct letter per generator")
    return letters


def _magma_generators(rows, ident):
    """Greedy generators, in table order, whose products reach every element.

    The reached set starts at the identity and is closed under left and
    right multiplication by each generator; any element still unreached
    becomes the next generator.
    """
    gens = []
    reached = {ident}
    for g in range(len(rows)):
        if g in reached:
            continue
        gens.append(g)
        frontier = list(reached) + [g]
        reached.add(g)
        while frontier:
            x = frontier.pop()
            for a in gens:
                for p in (rows[x][a], rows[a][x]):
                    if p not in reached:
                        reached.add(p)
                        frontier.append(p)
    return gens


class FiniteGroup:
    """Finite group given by element names and a full multiplication table.

    ``table[i][j]`` holds the index of ``names[i] * names[j]``.  The
    constructor checks the complete group axioms.  Associativity is proved
    by Light's test: the elements a with (x*a)*y = x*(a*y) for all x, y
    are closed under products, so checking a generating set suffices.
    Generators are picked greedily in table order until repeated left and
    right multiplication by them, starting from the identity, reaches every
    element; in a group each new generator at least doubles the reached
    subgroup, so there are at most log2(n) of them and the test costs
    n^2 * log2(n) products, not n^3.
    """

    kind = "finite"
    is_finite = True

    __slots__ = ("names", "identity", "_index", "_table", "_inv")

    def __init__(self, names, table):
        names = tuple(names)
        n = len(names)
        if n == 0:
            raise ValueError("a group needs at least an identity element")
        for name in names:
            _check_name(name)
        if len(set(names)) != n:
            raise ValueError("element names must be distinct")
        rows = tuple(tuple(row) for row in table)
        if len(rows) != n or set(map(len, rows)) != {n}:
            raise ValueError("multiplication table must be square")
        types = set(map(type, itertools.chain.from_iterable(rows)))  # at C level
        if not all(issubclass(t, int) for t in types) or not (
            0 <= min(map(min, rows)) and max(map(max, rows)) < n
        ):
            raise ValueError("table entries must index the element list")
        if set(map(len, map(set, rows))) != {n}:
            raise ValueError("every table row must be a permutation")
        cols = tuple(zip(*rows))
        if set(map(len, map(set, cols))) != {n}:
            raise ValueError("every table column must be a permutation")
        # columns are permutations, so at most one row is the identity row
        ident_row = tuple(range(n))
        ident = rows.index(ident_row) if ident_row in rows else None
        if ident is None or cols[ident] != ident_row:
            raise ValueError("table has no two-sided identity")
        inv = [row.index(ident) for row in rows]  # rows are permutations
        for i, j in enumerate(inv):
            if rows[j][i] != ident:
                raise ValueError(f"{names[i]!r} has no two-sided inverse")
        # Light's test for generator a: row (x*a) equals x's row read through a's
        for a in _magma_generators(rows, ident):
            if list(map(rows.__getitem__, cols[a])) != list(map(itemgetter(*rows[a]), rows)):
                raise ValueError("multiplication table is not associative")
        self.names = names
        self.identity = names[ident]
        self._index = {name: i for i, name in enumerate(names)}
        self._table = rows
        self._inv = tuple(names[v] for v in inv)

    def elements(self):
        return self.names

    def contains(self, g):
        return isinstance(g, str) and g in self._index

    def check(self, g):
        if not self.contains(g):
            raise ValueError(f"{g!r} is not an element of this group")
        return g

    def multiply(self, g, h):
        return self.names[self._table[self._index[g]][self._index[h]]]

    def invert(self, g):
        return self._inv[self._index[g]]

    def sort_key(self, g):
        return self._index[g]

    def __repr__(self):
        return f"FiniteGroup({len(self.names)} elements)"


def _reduce_word(word):
    out = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


class FreeGroup:
    """Free group of finite rank.

    Elements are reduced words stored as tuples of nonzero signed integers;
    ``k`` means the (k-1)-th generator and ``-k`` its inverse.
    """

    kind = "free"
    is_finite = False

    __slots__ = ("rank", "letters", "identity")

    def __init__(self, rank, letters=None):
        self.letters = _pick_letters(rank, letters)
        self.rank = rank
        self.identity = ()

    def generator(self, i):
        if not 0 <= i < self.rank:
            raise IndexError("generator index out of range")
        return (i + 1,)

    def contains(self, g):
        if not isinstance(g, tuple):
            return False
        if any(not isinstance(s, int) or s == 0 or abs(s) > self.rank for s in g):
            return False
        return all(a != -b for a, b in zip(g, g[1:]))

    def check(self, g):
        if not self.contains(g):
            raise ValueError(f"{g!r} is not a reduced word of this free group")
        return g

    def multiply(self, g, h):
        return _reduce_word(g + h)

    def invert(self, g):
        return tuple(-s for s in reversed(g))

    def sort_key(self, g):
        return (len(g), g)

    def __repr__(self):
        return f"FreeGroup(rank={self.rank})"


class FreeAbelianGroup:
    """Free abelian group of finite rank; elements are exponent vectors."""

    kind = "free_abelian"
    is_finite = False

    __slots__ = ("rank", "letters", "identity", "multiply")

    def __init__(self, rank, letters=None):
        self.letters = _pick_letters(rank, letters)
        self.rank = rank
        self.identity = (0,) * rank
        # rank 1, as in every shipped base, adds without building an iterator
        self.multiply = ((lambda g, h: (g[0] + h[0],)) if rank == 1
                         else (lambda g, h: tuple(map(add, g, h))))

    def contains(self, g):
        return (
            isinstance(g, tuple)
            and len(g) == self.rank
            and all(isinstance(v, int) for v in g)
        )

    def check(self, g):
        if not self.contains(g):
            raise ValueError(f"{g!r} is not an exponent vector of rank {self.rank}")
        return g

    def invert(self, g):
        return tuple(map(neg, g))

    def sort_key(self, g):
        return (sum(abs(v) for v in g), g)

    def __repr__(self):
        return f"FreeAbelianGroup(rank={self.rank})"


def format_element(group, g):
    """Render an element as text: a bare name, or letter powers, or "1"."""
    group.check(g)
    if group.kind == "finite":
        return g
    if group.kind == "free":
        powers = [
            (abs(s) - 1, len(list(run)) if s > 0 else -len(list(run)))
            for s, run in itertools.groupby(g)
        ]
    else:
        powers = [(i, e) for i, e in enumerate(g) if e]
    if not powers:
        return "1"
    top = max(abs(e) for _, e in powers)
    if top >= _EXPONENT_BOUND:
        raise LimitExceeded(f"an exponent of {top.bit_length()} bits exceeds the budget of "
                            f"{EXPONENT_DIGITS_BUDGET} digits; this work budget is fixed")
    return " ".join(
        group.letters[i] if e == 1 else f"{group.letters[i]}^{e}" for i, e in powers
    )


def _letter_powers(group, text):
    """Yield (generator index, exponent) for each ``letter^e`` token.

    Free abelian text names each generator at most once, in declared order.
    """
    by_letter = {letter: i for i, letter in enumerate(group.letters)}
    last = -1
    for token in text.split():
        letter, caret, power = token.partition("^")
        if letter not in by_letter:
            raise ValueError(f"unknown generator {letter!r}")
        i = by_letter[letter]
        if group.kind == "free_abelian":
            if i <= last:
                raise ValueError("generators must appear once, in declared order")
            last = i
        digits = power.removeprefix("-")
        if len(digits) > EXPONENT_DIGITS_BUDGET:
            raise ValueError(f"exponents have at most {EXPONENT_DIGITS_BUDGET} digits")
        if caret and not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad exponent in {token!r}: write {letter}^N, N an optional '-' "
                             "then ASCII digits")
        e = int(power) if caret else 1
        if e == 0:
            raise ValueError("zero exponents are not written")
        yield i, e


def parse_element(group, text):
    """Parse ``format_element`` output back to an element; strict."""
    if not isinstance(text, str):
        raise ValueError("element text must be a string")
    text = text.strip()
    if group.kind == "finite":
        return group.check(text)
    if text == "1":
        return group.identity
    if not text:
        raise ValueError("empty element text")
    if group.kind == "free":
        word = []
        for i, e in _letter_powers(group, text):
            word.extend([i + 1 if e > 0 else -(i + 1)] * abs(e))
        return group.check(tuple(word))
    exponents = [0] * group.rank
    for i, e in _letter_powers(group, text):
        exponents[i] = e
    return tuple(exponents)


def _times(matrix, ncols):
    """v -> v * matrix for a row vector v: `tuple` for the identity, one
    C-level map for another diagonal matrix, else a dot product per column."""
    if len(matrix) == ncols and all(row.count(0) == ncols - 1 for row in matrix):
        scale = tuple(row[i] for i, row in enumerate(matrix))
        if all(scale):
            return tuple if set(scale) <= {1} else lambda v: tuple(map(mul, v, scale))
    columns = tuple(tuple(row[j] for row in matrix) for j in range(ncols))
    return lambda v: tuple([sum(map(mul, v, col)) for col in columns])


class _Lattice:
    """Integer row lattice in Hermite form with coefficient tracking.

    Rows are reduced against each other so that pivots are positive, pivot
    columns strictly increase, and entries above a pivot lie in [0, pivot).
    ``reduce`` returns the canonical residue of a vector together with the
    combination of the *original* generators that was subtracted, which is
    exactly a preimage certificate when the residue vanishes.
    """

    __slots__ = ("ncols", "ngens", "rows", "coeffs", "pivots", "diagonal")

    def __init__(self, vectors, ncols):
        vectors = [list(v) for v in vectors]
        ngens = len(vectors)
        work = [row + [1 if i == j else 0 for j in range(ngens)] for i, row in enumerate(vectors)]
        placed = []
        for col in range(ncols):
            live = [r for r in work if r[col] != 0]
            while len(live) > 1:
                live.sort(key=lambda r: abs(r[col]))
                base = live[0]
                for r in live[1:]:
                    q = r[col] // base[col]
                    for i in range(len(r)):
                        r[i] -= q * base[i]
                live = [r for r in work if r[col] != 0]
            if not live:
                continue
            pivot = live[0]
            work.remove(pivot)
            if pivot[col] < 0:
                pivot = [-v for v in pivot]
            for row in placed:
                q = row[col] // pivot[col]
                if q:
                    for i in range(len(row)):
                        row[i] -= q * pivot[i]
            placed.append(pivot)
        self.ncols = ncols
        self.ngens = ngens
        self.rows = [tuple(r[:ncols]) for r in placed]
        self.coeffs = [tuple(r[ncols:]) for r in placed]
        self.pivots = [next((i, r[i]) for i in range(ncols) if r[i]) for r in self.rows]
        # each row nonzero only at its pivot: `trusted` reduces by modulo
        self.diagonal = all(r.count(0) == ncols - 1 for r in self.rows)

    @property
    def rank(self):
        return len(self.rows)

    def index(self):
        """Lattice index in Z^ncols, or None when infinite."""
        return math.prod(val for _, val in self.pivots) if self.rank == self.ncols else None

    def reduce(self, v):
        out = list(v)
        combo = [0] * self.ngens
        for row, crow, (col, val) in zip(self.rows, self.coeffs, self.pivots):
            q = out[col] // val
            if q:
                for i in range(self.ncols):
                    out[i] -= q * row[i]
                for i in range(self.ngens):
                    combo[i] += q * crow[i]
        return tuple(out), tuple(combo)

    def trusted(self):
        """(membership, residue, quotient) of vectors already checked where they
        entered: whether ``reduce(v)[0]`` vanishes, that residue, and ``reduce(v)[1]``
        if it vanishes, else None.  A diagonal form takes one modulo per pivot
        coordinate and needs the others zero; any other form runs ``reduce``."""
        reduce, pivots = self.reduce, self.pivots
        if not self.diagonal:
            def quotient(v):
                residue, combo = reduce(v)
                return None if any(residue) else combo
            return (lambda v: quotient(v) is not None), (lambda v: reduce(v)[0]), quotient
        free = sorted(set(range(self.ncols)).difference(col for col, _ in pivots))
        combine = _times(self.coeffs, self.ngens)

        def membership(v):
            for col, val in pivots:
                if v[col] % val:
                    return False
            return not (free and any(v[col] for col in free))

        def residue(v):
            out = list(v)
            for col, val in pivots:
                out[col] %= val
            return tuple(out)

        def quotient(v):
            qs = []
            for col, val in pivots:
                q, r = divmod(v[col], val)
                if r:
                    return None
                qs.append(q)
            return None if free and any(v[col] for col in free) else combine(qs)

        return membership, residue, quotient

    def residues(self):
        """All canonical residues; only valid at finite index."""
        spans = [range(val) for _, val in sorted(self.pivots)]
        return [tuple(v) for v in itertools.product(*spans)]

    def sample_residues(self, bound):
        pivot_span = {col: range(val) for col, val in self.pivots}
        spans = [pivot_span.get(col, range(-bound, bound + 1)) for col in range(self.ncols)]
        return [tuple(v) for v in itertools.product(*spans)]


def subgroup_members(group, elements):
    """The elements as a frozenset, proved to form a subgroup of a finite group."""
    members = frozenset(group.check(g) for g in elements)
    if group.identity not in members:
        raise ValueError("subgroup must contain the identity")
    for g in members:
        if group.invert(g) not in members:
            raise ValueError("subgroup is not closed under inverses")
        if not members.issuperset(map(group.multiply, itertools.repeat(g), members)):
            raise ValueError("subgroup is not closed under multiplication")
    return members


class FiniteSubgroup:
    """Subgroup of a finite oracle with a canonical right-coset transversal.

    The default transversal takes the identity for the subgroup's own coset
    and the earliest element in ambient order for every other coset; a stored
    transversal may be supplied instead and is validated against the same
    identity-representative rule.
    """

    __slots__ = ("group", "members", "transversal", "_rep")

    def __init__(self, group, elements, transversal=None):
        members = subgroup_members(group, elements)
        # each right coset H*g is built once, from its first element
        coset_of = {}
        for g in group.elements():
            if g not in coset_of:
                coset = frozenset(map(group.multiply, members, itertools.repeat(g)))
                coset_of.update(dict.fromkeys(coset, coset))
        cosets = dict.fromkeys(coset_of.values())
        if transversal is None:
            reps = {
                key: group.identity if group.identity in key else min(key, key=group.sort_key)
                for key in cosets
            }
        else:
            chosen = tuple(group.check(g) for g in transversal)
            if len(chosen) != len(cosets):
                raise ValueError("transversal must list one representative per coset")
            reps = {}
            for r in chosen:
                key = coset_of[r]
                if key in reps:
                    raise ValueError("transversal repeats a coset")
                reps[key] = r
            if reps[frozenset(members)] != group.identity:
                raise ValueError("the subgroup's own representative must be the identity")
        self.group = group
        self.members = members
        self._rep = {g: reps[key] for g, key in coset_of.items()}
        self.transversal = tuple(
            sorted(reps.values(), key=lambda r: (r != group.identity, group.sort_key(r)))
        )

    @property
    def finite_index(self):
        return True

    @property
    def index(self):
        return len(self.transversal)

    def membership(self, g):
        return self.group.check(g) in self.members

    def rep(self, g):
        return self._rep[self.group.check(g)]

    def trusted(self):
        """(membership, rep) for elements already checked where they entered."""
        return self.members.__contains__, self._rep.__getitem__

    def transversal_list(self, bound=None):
        return self.transversal

    @classmethod
    def generated(cls, group, generators, transversal=None):
        """The subgroup spanned by the generators.

        Found by a search from the identity by right multiplication, which
        in a finite group also reaches every inverse: |H| * |gens| products.
        """
        gens = [group.check(g) for g in generators]
        closure = {group.identity}
        frontier = [group.identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                p = group.multiply(x, g)
                if p not in closure:
                    closure.add(p)
                    frontier.append(p)
        return cls(group, closure, transversal)


class TrivialSubgroup:
    """The one-element subgroup; every element represents its own coset."""

    __slots__ = ("group",)

    def __init__(self, group):
        self.group = group

    @property
    def finite_index(self):
        return self.group.is_finite

    def membership(self, g):
        return self.group.check(g) == self.group.identity

    def rep(self, g):
        return self.group.check(g)

    def trusted(self):
        identity = self.group.identity
        return (lambda g: g == identity), (lambda g: g)

    def transversal_list(self, bound=4):
        group = self.group
        if group.is_finite:
            return tuple(
                sorted(group.elements(), key=lambda g: (g != group.identity, group.sort_key(g)))
            )
        if group.kind == "free_abelian":
            vecs = itertools.product(range(-bound, bound + 1), repeat=group.rank)
            return tuple(sorted(vecs, key=group.sort_key))
        words = [()]
        frontier = [()]
        for _ in range(bound):
            frontier = [
                w + (s,)
                for w in frontier
                for s in range(-group.rank, group.rank + 1)
                if s != 0 and (not w or w[-1] != -s)
            ]
            words.extend(frontier)
        return tuple(sorted(words, key=group.sort_key))


class FreeAbelianSubgroup:
    """Subgroup of a free abelian oracle, given by generating vectors."""

    __slots__ = ("group", "generators", "lattice", "_trusted")

    def __init__(self, group, generators):
        if group.kind != "free_abelian":
            raise ValueError("lattice subgroups need a free abelian ambient group")
        self.group = group
        self.generators = tuple(group.check(tuple(g)) for g in generators)
        self.lattice = _Lattice(self.generators, group.rank)
        self._trusted = self.lattice.trusted()[:2]

    @property
    def finite_index(self):
        return self.lattice.index() is not None

    @property
    def index(self):
        return self.lattice.index()

    def membership(self, g):
        return self._trusted[0](self.group.check(g))

    def rep(self, g):
        return self._trusted[1](self.group.check(g))

    def trusted(self):
        """(membership, rep) for elements already checked where they entered."""
        return self._trusted

    def transversal_list(self, bound=4):
        if self.finite_index:
            vecs = self.lattice.residues()
        else:
            vecs = self.lattice.sample_residues(bound)
        return tuple(sorted(vecs, key=self.group.sort_key))


class FiniteEmbedding:
    """Injective homomorphism out of a finite table group.

    Determined by images of a generating set and extended by right
    multiplication, which checks phi(g s) = phi(g) phi(s) for every g and
    every generator s.  Every element is a positive word in the generators
    (the source is finite), so by induction phi(g h) = phi(g) phi(h) for
    all pairs.  The map is then checked to be injective.  The image
    subgroup carries the canonical (or explicitly supplied) transversal.
    """

    __slots__ = ("src", "dst", "image", "_map", "_pre")

    def __init__(self, src, dst, generator_images, transversal=None):
        if not src.is_finite:
            raise ValueError("the source of a finite embedding must be finite")
        images = {src.check(g): dst.check(v) for g, v in generator_images.items()}
        known = {src.identity: dst.identity}
        frontier = [src.identity]
        while frontier:
            nxt = []
            for g in frontier:
                for s, img in images.items():
                    p = src.multiply(g, s)
                    v = dst.multiply(known[g], img)
                    if p in known:
                        if known[p] != v:
                            raise ValueError("generator images do not define a homomorphism")
                    else:
                        known[p] = v
                        nxt.append(p)
            frontier = nxt
        if len(known) != len(src.elements()):
            raise ValueError("generator images do not generate the source group")
        if len(set(known.values())) != len(known):
            raise ValueError("the homomorphism is not injective")
        self.src = src
        self.dst = dst
        self._map = known
        self._pre = {v: g for g, v in known.items()}
        if dst.is_finite:
            self.image = FiniteSubgroup(dst, known.values(), transversal)
        else:
            # a finite group embeds in a torsion-free oracle only trivially
            self.image = TrivialSubgroup(dst)

    def apply(self, c):
        return self._map[self.src.check(c)]

    def preimage(self, g):
        return self._pre.get(g)

    def trusted(self):
        """(apply, preimage) for elements already checked where they entered."""
        return self._map.__getitem__, self._pre.get


class FreeAbelianEmbedding:
    """Injective homomorphism between free abelian oracles.

    ``images[i]`` is the image vector of the i-th source generator; the
    image must be a full-rank sublattice for injectivity.
    """

    __slots__ = ("src", "dst", "image", "_apply", "_trusted")

    def __init__(self, src, dst, images):
        if src.kind != "free_abelian" or dst.kind != "free_abelian":
            raise ValueError("both ends must be free abelian oracles")
        images = tuple(dst.check(tuple(v)) for v in images)
        if len(images) != src.rank:
            raise ValueError("need one image vector per source generator")
        self.src = src
        self.dst = dst
        self.image = FreeAbelianSubgroup(dst, images)
        if self.image.lattice.rank != src.rank:
            raise ValueError("the homomorphism is not injective")
        self._apply = _times(images, dst.rank)
        quotient, recombined = self.image.lattice.trusted()[2], self._recombined
        self._trusted = self._apply, lambda g: recombined(quotient(g), g)

    def apply(self, c):
        return self._apply(self.src.check(c))

    def preimage(self, g):
        return self._trusted[1](self.dst.check(g))

    def trusted(self):
        """(apply, preimage) for elements already checked where they entered."""
        return self._trusted

    def _recombined(self, combo, g):
        if combo is not None and self._apply(combo) != g:
            raise InvariantError("lattice preimage certificate failed to recombine")
        return combo


def group_from_dict(data):
    kind = data.get("kind")
    if kind == "finite":
        return FiniteGroup(data["names"], data["table"])
    if kind == "free":
        return FreeGroup(data["rank"], data["letters"])
    if kind == "free_abelian":
        return FreeAbelianGroup(data["rank"], data["letters"])
    raise ValueError(f"unsupported group kind {kind!r}")


def element_from_data(group, data):
    if group.kind == "finite":
        return group.check(data)
    if not isinstance(data, list):
        raise ValueError("expected a list of integers")
    return group.check(tuple(data))


def embedding_from_dict(src, dst, data):
    kind = data.get("kind")
    if kind == "finite":
        images = {
            g: element_from_data(dst, v) for g, v in data["generator_images"].items()
        }
        return FiniteEmbedding(src, dst, images, data.get("transversal"))
    if kind == "free_abelian":
        return FreeAbelianEmbedding(src, dst, [tuple(v) for v in data["images"]])
    raise ValueError(f"unsupported embedding kind {kind!r}")
