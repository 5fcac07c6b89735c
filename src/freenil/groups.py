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

from .errors import InvariantError

_DEFAULT_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _check_name(name):
    if not isinstance(name, str) or not name:
        raise ValueError("element names must be nonempty strings")
    if any(ch.isspace() for ch in name) or set(name) & set(",^*"):
        raise ValueError(f"element name {name!r} uses a reserved character")
    return name


def _pick_letters(rank, letters):
    if letters is None:
        if rank <= len(_DEFAULT_LETTERS):
            return tuple(_DEFAULT_LETTERS[:rank])
        return tuple(f"g{i}" for i in range(rank))
    letters = tuple(_check_name(l) for l in letters)
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
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("multiplication table must be square")
        if any(not isinstance(v, int) or not 0 <= v < n for row in rows for v in row):
            raise ValueError("table entries must index the element list")
        for row in rows:
            if len(set(row)) != n:
                raise ValueError("every table row must be a permutation")
        for j in range(n):
            if len({rows[i][j] for i in range(n)}) != n:
                raise ValueError("every table column must be a permutation")
        ident = None
        for e in range(n):
            if all(rows[e][j] == j for j in range(n)) and all(rows[i][e] == i for i in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no two-sided identity")
        inv = [row.index(ident) for row in rows]  # rows are permutations
        for i, j in enumerate(inv):
            if rows[j][i] != ident:
                raise ValueError(f"{names[i]!r} has no two-sided inverse")
        for a in _magma_generators(rows, ident):
            row_a = rows[a]
            for row_x in rows:
                if rows[row_x[a]] != tuple(map(row_x.__getitem__, row_a)):
                    raise ValueError("multiplication table is not associative")
        self.names = names
        self.identity = names[ident]
        self._index = {name: i for i, name in enumerate(names)}
        self._table = rows
        self._inv = tuple(names[v] for v in inv)

    @classmethod
    def from_permutations(cls, perms):
        """Build the table of a closed set of permutations.

        ``perms`` maps element names to permutations of ``range(d)`` in
        one-line notation; the product g*h applies g first, then h.
        """
        items = [(name, tuple(perm)) for name, perm in perms.items()]
        if not items:
            raise ValueError("a group needs at least an identity element")
        degree = len(items[0][1])
        by_perm = {}
        for name, perm in items:
            if sorted(perm) != list(range(degree)):
                raise ValueError(f"{name!r} is not a permutation of range({degree})")
            by_perm[perm] = name
        if len(by_perm) != len(items):
            raise ValueError("permutations must be distinct")
        index = {name: i for i, (name, _) in enumerate(items)}
        table = []
        for _, pg in items:
            row = []
            for _, ph in items:
                composite = tuple(ph[pg[i]] for i in range(degree))
                if composite not in by_perm:
                    raise ValueError("permutation set is not closed under composition")
                row.append(index[by_perm[composite]])
            table.append(row)
        return cls([name for name, _ in items], table)

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
        if not isinstance(rank, int) or rank < 0:
            raise ValueError("rank must be a nonnegative integer")
        self.rank = rank
        self.letters = _pick_letters(rank, letters)
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

    __slots__ = ("rank", "letters", "identity")

    def __init__(self, rank, letters=None):
        if not isinstance(rank, int) or rank < 0:
            raise ValueError("rank must be a nonnegative integer")
        self.rank = rank
        self.letters = _pick_letters(rank, letters)
        self.identity = (0,) * rank

    def generator(self, i):
        if not 0 <= i < self.rank:
            raise IndexError("generator index out of range")
        return tuple(1 if j == i else 0 for j in range(self.rank))

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

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def invert(self, g):
        return tuple(-a for a in g)

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
        if not g:
            return "1"
        runs = []
        for s in g:
            if runs and runs[-1][0] == abs(s) - 1 and (runs[-1][1] > 0) == (s > 0):
                runs[-1][1] += 1 if s > 0 else -1
            else:
                runs.append([abs(s) - 1, 1 if s > 0 else -1])
        return " ".join(
            group.letters[i] if e == 1 else f"{group.letters[i]}^{e}" for i, e in runs
        )
    if not any(g):
        return "1"
    return " ".join(
        letter if e == 1 else f"{letter}^{e}"
        for letter, e in zip(group.letters, g)
        if e
    )


def parse_element(group, text):
    """Parse ``format_element`` output back to an element; strict."""
    if not isinstance(text, str):
        raise ValueError("element text must be a string")
    text = text.strip()
    if group.kind == "finite":
        return group.check(text)
    by_letter = {letter: i for i, letter in enumerate(group.letters)}
    if text == "1":
        return group.identity
    if not text:
        raise ValueError("empty element text")
    if group.kind == "free":
        word = []
        for token in text.split():
            letter, _, power = token.partition("^")
            if letter not in by_letter:
                raise ValueError(f"unknown generator {letter!r}")
            e = 1 if not power else int(power)
            if e == 0:
                raise ValueError("zero exponents are not written")
            step = 1 if e > 0 else -1
            word.extend([step * (by_letter[letter] + 1)] * abs(e))
        return group.check(tuple(word))
    exponents = [0] * group.rank
    last = -1
    for token in text.split():
        letter, _, power = token.partition("^")
        if letter not in by_letter:
            raise ValueError(f"unknown generator {letter!r}")
        i = by_letter[letter]
        if i <= last:
            raise ValueError("generators must appear once, in declared order")
        last = i
        e = 1 if not power else int(power)
        if e == 0:
            raise ValueError("zero exponents are not written")
        exponents[i] = e
    return tuple(exponents)


class _Lattice:
    """Integer row lattice in Hermite form with coefficient tracking.

    Rows are reduced against each other so that pivots are positive, pivot
    columns strictly increase, and entries above a pivot lie in [0, pivot).
    ``reduce`` returns the canonical residue of a vector together with the
    combination of the *original* generators that was subtracted, which is
    exactly a preimage certificate when the residue vanishes.
    """

    __slots__ = ("ncols", "ngens", "rows", "coeffs", "pivots")

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

    @property
    def rank(self):
        return len(self.rows)

    def index(self):
        """Lattice index in Z^ncols, or None when infinite."""
        if len(self.pivots) != self.ncols:
            return None
        product = 1
        for _, val in self.pivots:
            product *= val
        return product

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

    def residues(self):
        """All canonical residues; only valid at finite index."""
        spans = [range(val) for _, val in sorted(self.pivots)]
        return [tuple(v) for v in itertools.product(*spans)]

    def sample_residues(self, bound):
        pivot_span = {col: range(val) for col, val in self.pivots}
        spans = [pivot_span.get(col, range(-bound, bound + 1)) for col in range(self.ncols)]
        return [tuple(v) for v in itertools.product(*spans)]


class FiniteSubgroup:
    """Subgroup of a finite oracle with a canonical right-coset transversal.

    The default transversal takes the identity for the subgroup's own coset
    and the earliest element in ambient order for every other coset; a stored
    transversal may be supplied instead and is validated against the same
    identity-representative rule.
    """

    __slots__ = ("group", "members", "transversal", "_rep")

    def __init__(self, group, elements, transversal=None):
        members = frozenset(group.check(g) for g in elements)
        if group.identity not in members:
            raise ValueError("subgroup must contain the identity")
        for g in members:
            if group.invert(g) not in members:
                raise ValueError("subgroup is not closed under inverses")
            for h in members:
                if group.multiply(g, h) not in members:
                    raise ValueError("subgroup is not closed under multiplication")
        cosets = {}
        for g in group.elements():
            key = frozenset(group.multiply(h, g) for h in members)
            cosets.setdefault(key, []).append(g)
        if transversal is None:
            reps = {
                key: group.identity
                if group.identity in key
                else min(elems, key=group.sort_key)
                for key, elems in cosets.items()
            }
        else:
            chosen = tuple(group.check(g) for g in transversal)
            if len(chosen) != len(cosets):
                raise ValueError("transversal must list one representative per coset")
            reps = {}
            for r in chosen:
                key = frozenset(group.multiply(h, r) for h in members)
                if key in reps:
                    raise ValueError("transversal repeats a coset")
                reps[key] = r
            if reps[frozenset(members)] != group.identity:
                raise ValueError("the subgroup's own representative must be the identity")
        self.group = group
        self.members = members
        self._rep = {g: reps[key] for key, elems in cosets.items() for g in elems}
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

    __slots__ = ("group", "generators", "lattice")

    def __init__(self, group, generators):
        if group.kind != "free_abelian":
            raise ValueError("lattice subgroups need a free abelian ambient group")
        self.group = group
        self.generators = tuple(group.check(tuple(g)) for g in generators)
        self.lattice = _Lattice(self.generators, group.rank)

    @property
    def finite_index(self):
        return self.lattice.index() is not None

    @property
    def index(self):
        return self.lattice.index()

    def membership(self, g):
        residue, _ = self.lattice.reduce(self.group.check(g))
        return not any(residue)

    def rep(self, g):
        residue, _ = self.lattice.reduce(self.group.check(g))
        return residue

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

    __slots__ = ("src", "dst", "generator_images", "image", "_map", "_pre")

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
        self.generator_images = dict(images)
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


class FreeAbelianEmbedding:
    """Injective homomorphism between free abelian oracles.

    ``images[i]`` is the image vector of the i-th source generator; the
    image must be a full-rank sublattice for injectivity.
    """

    __slots__ = ("src", "dst", "generator_images", "image")

    def __init__(self, src, dst, images):
        if src.kind != "free_abelian" or dst.kind != "free_abelian":
            raise ValueError("both ends must be free abelian oracles")
        images = tuple(dst.check(tuple(v)) for v in images)
        if len(images) != src.rank:
            raise ValueError("need one image vector per source generator")
        self.src = src
        self.dst = dst
        self.generator_images = images
        self.image = FreeAbelianSubgroup(dst, images)
        if self.image.lattice.rank != src.rank:
            raise ValueError("the homomorphism is not injective")

    def apply(self, c):
        self.src.check(c)
        return tuple(
            sum(c[i] * self.generator_images[i][j] for i in range(self.src.rank))
            for j in range(self.dst.rank)
        )

    def preimage(self, g):
        residue, combo = self.image.lattice.reduce(self.dst.check(g))
        if any(residue):
            return None
        if self.apply(combo) != tuple(g):
            raise InvariantError("lattice preimage certificate failed to recombine")
        return combo


def group_to_dict(group):
    if group.kind == "finite":
        index = {name: i for i, name in enumerate(group.names)}
        return {
            "kind": "finite",
            "names": list(group.names),
            "table": [
                [index[group.multiply(g, h)] for h in group.names] for g in group.names
            ],
        }
    return {"kind": group.kind, "rank": group.rank, "letters": list(group.letters)}


def group_from_dict(data):
    kind = data.get("kind")
    if kind == "finite":
        return FiniteGroup(data["names"], data["table"])
    if kind == "free":
        return FreeGroup(data["rank"], data["letters"])
    if kind == "free_abelian":
        return FreeAbelianGroup(data["rank"], data["letters"])
    raise ValueError(f"unsupported group kind {kind!r}")


def element_to_data(group, g):
    group.check(g)
    return g if group.kind == "finite" else list(g)


def element_from_data(group, data):
    if group.kind == "finite":
        return group.check(data)
    if not isinstance(data, list):
        raise ValueError("expected a list of integers")
    return group.check(tuple(data))


def embedding_to_dict(embedding):
    if isinstance(embedding, FiniteEmbedding):
        data = {
            "kind": "finite",
            "generator_images": {
                g: element_to_data(embedding.dst, v)
                for g, v in sorted(embedding.generator_images.items())
            },
        }
        if isinstance(embedding.image, FiniteSubgroup):
            data["transversal"] = list(embedding.image.transversal)
        return data
    if isinstance(embedding, FreeAbelianEmbedding):
        return {
            "kind": "free_abelian",
            "images": [list(v) for v in embedding.generator_images],
        }
    raise ValueError(f"cannot serialize embedding {embedding!r}")


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
