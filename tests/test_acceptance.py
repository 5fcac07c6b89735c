"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single PASS/FAIL verdict line (run pytest -s to see
them); the assertion messages carry the details.  Oracles are kept
independent of the library internals: linear algebra is redone here with
plain Fraction arithmetic, nilpotency against the brute-force word
oracle, and group words against the affine and permutation models.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from random import Random
from time import perf_counter

from freenil.cosets import conjugate_subgroup_data, double_cosets
from freenil.groupring import GroupRingElement, grade_decompose
from freenil.groups import FiniteSubgroup, parse_element
from freenil.laurent import x_diff
from freenil.nilobj import (
    BlockRing,
    Letter,
    NilObject,
    direct_sum,
    fold_through,
    is_nilpotent,
    restrict_diagonal,
    word_twist,
)
from freenil.skewpoly import SkewLaurent
from freenil.store import load_construction
from freenil.syzygy import (
    collapse_certificate,
    complexity,
    defining_map,
    kernel_pair,
    pairwise_relation,
    random_relation,
    reduce_chain,
)
from freenil.words import (
    Alphabet,
    aperiodic_necklace_count,
    cyclic_canonical,
    primitive_classes,
    sieve,
    verify_admissible,
)

from group_models import S3_PERMS, eval_bs12, eval_dihedral, eval_s3_pushout
from kernel_oracles import y_run
from nil_helpers import brute_nilpotent, random_object

DATA = "src/freenil/data"


def _verdict(label: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return ok


# Fraction-based linear algebra, written out here so the filtration law
# is checked against arithmetic the library does not share.

def _frac_rows(rows):
    return [[Fraction(e) for e in row] for row in rows]


def _rref(rows):
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [e / inv for e in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _rank(rows) -> int:
    return len(_rref(_frac_rows(rows))[0])


def _in_span(rows, vec) -> bool:
    base = _frac_rows(rows)
    return _rank(base + [list(vec)]) == len(_rref(base)[0])


def _right_nullspace(rows, n):
    red, pivots = _rref(_frac_rows(rows))
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        y = [Fraction(0)] * n
        y[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            y[pc] = -red[r][free]
        basis.append(y)
    return basis


def _vec_mat(v, mat, cols):
    out = [Fraction(0)] * cols
    for k, e in enumerate(v):
        if e:
            row = mat[k]
            for j in range(cols):
                out[j] += e * Fraction(row[j])
    return out


def _mat_vec(mat, y):
    return [sum(Fraction(e) * c for e, c in zip(row, y)) for row in mat]


def _imul(a, b, cols):
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        for k, e in enumerate(row):
            if e:
                brow = b[k]
                for j in range(cols):
                    out[i][j] += e * brow[j]
    return out


def _preimage_law_holds(X: NilObject, chain) -> bool:
    """Level i+1 must be exactly the vectors every letter sends into level i."""
    if any(chain[0][u] for u in X.ring.units):
        return False
    for i in range(len(chain) - 1):
        nullsp = {
            u: _right_nullspace(chain[i][u], X.dims[u]) for u in X.ring.units
        }
        for u in X.ring.units:
            for b in _frac_rows(chain[i + 1][u]):
                for l in X.letters:
                    if l.src != u:
                        continue
                    image = _vec_mat(b, X.mats[l.name], X.dims[l.dst])
                    if not _in_span(chain[i][l.dst], image):
                        return False
            constraints = []
            for l in X.letters:
                if l.src != u:
                    continue
                for y in nullsp[l.dst]:
                    constraints.append(_mat_vec(X.mats[l.name], y))
            if len(chain[i + 1][u]) != X.dims[u] - _rank(constraints):
                return False
    return True


def _least_vanishing_length(X: NilObject):
    """Smallest length at which every chained letter word acts by zero."""
    if X.total_dim() == 0:
        return 0
    cur = [(l.dst, X.mats[l.name]) for l in X.letters]
    for length in range(1, X.total_dim() + 1):
        if all(all(e == 0 for row in mat for e in row) for _, mat in cur):
            return length
        cur = [
            (l.dst, _imul(mat, X.mats[l.name], X.dims[l.dst]))
            for dst, mat in cur
            for l in X.letters
            if l.src == dst
        ]
    return None


def _schema_pair(rng: Random):
    """Two nilpotent objects sharing one letter schema over units a, b."""
    units = ("a", "b")
    types = [
        (f"l{idx}", rng.choice(units), rng.choice(units))
        for idx in range(rng.randint(1, 3))
    ]

    def build():
        dims = {u: rng.randint(1, 2) for u in units}
        offsets = {"a": 0, "b": dims["a"]}
        mats = {}
        for name, src, dst in types:
            mats[name] = [
                [
                    0
                    if offsets[dst] + c <= offsets[src] + r
                    else rng.randint(-2, 2)
                    for c in range(dims[dst])
                ]
                for r in range(dims[src])
            ]
        letters = [Letter(name, src, dst) for name, src, dst in types]
        return NilObject(BlockRing(units), dims, letters, mats)

    return build(), build()


def _twist_words(X: NilObject):
    names = [l.name for l in X.letters]
    return [(n,) for n in names] + [(m, n) for m in names for n in names]


def test_kernel_pairs_die_under_the_defining_map():
    kernel_pair.cache_clear()
    start = perf_counter()
    alive = []
    for n in range(13):
        U, V = kernel_pair(n)
        if not defining_map(U, V).is_zero():
            alive.append(n)
    elapsed = perf_counter() - start
    integral = all(
        type(c) is int
        for n in range(13)
        for comp in kernel_pair(n)
        for poly in comp.coeffs.values()
        for c in poly.coeffs.values()
    )
    ok = not alive and integral and elapsed < 10.0
    assert _verdict("defining map kills the kernel pairs 0..12 in time", ok), (
        alive,
        integral,
        elapsed,
    )


def test_pairwise_relations_hold_exactly():
    def z(i):
        return SkewLaurent.from_poly(x_diff(i))

    bad = []
    for q in range(1, 11):
        for p in range(q):
            tail = SkewLaurent.t(p + 1, x_diff(1) * y_run(0, -p))
            for comp in (0, 1):
                lhs = (
                    kernel_pair(q)[comp] * z(-p)
                    - kernel_pair(p)[comp] * z(-q)
                    - kernel_pair(q - p - 1)[comp] * tail
                )
                if not lhs.is_zero():
                    bad.append((p, q, comp))
    off = [
        (p, n)
        for n in range(2, 11)
        for p in range(n - 1)
        if pairwise_relation(p, n - 1, n)[-1] != z(-p)
    ]
    ok = not bad and not off
    assert _verdict("pairwise relations and last projections are exact", ok), (
        bad,
        off,
    )


def test_collapse_and_descent_certificates():
    collapse_ok = all(
        entry.ok for n in range(1, 9) for entry in collapse_certificate(n)
    )
    rng = Random(1009)
    ran = 0
    descent_ok = True
    while ran < 100:
        n = rng.randint(2, 6)
        X = random_relation(n, rng)
        if X.is_zero():
            continue
        ran += 1
        trace = reduce_chain(X)
        if not trace[-1].is_zero():
            descent_ok = False
        chis = [complexity(v) for v in trace if not v.is_zero()]
        if not all(b < a for a, b in zip(chis, chis[1:])):
            descent_ok = False
    ok = collapse_ok and descent_ok
    assert _verdict("collapse certificates and 100 strict descents", ok), (
        collapse_ok,
        descent_ok,
    )


def test_sieve_matches_primitive_class_enumeration():
    failures = []
    for letters in (("a", "b"), ("a", "b", "c")):
        alphabet = Alphabet(letters)
        _, emitted = sieve(alphabet, 9)
        lens = [len(w) for w in emitted]
        if lens != sorted(lens):
            failures.append((letters, "pivot lengths decreased"))
        if max(lens) <= 8:
            failures.append((letters, "pivots never pass the budget"))
        for bound in range(1, 9):
            short = [w for w in emitted if len(w) <= bound]
            got = {cyclic_canonical(w) for w in short}
            want = set(primitive_classes(alphabet, bound))
            if got != want or len(short) != len(want):
                failures.append((letters, "bijection", bound))
        by_len = Counter(len(w) for w in emitted if len(w) <= 8)
        for n in range(1, 9):
            if by_len[n] != aperiodic_necklace_count(len(letters), n):
                failures.append((letters, "count", n))
        short8 = [w for w in emitted if len(w) <= 8]
        if not all(entry.ok for entry in verify_admissible(short8, alphabet, 8)):
            failures.append((letters, "verifier"))
    two = [aperiodic_necklace_count(2, n) for n in (1, 2, 3, 4)]
    if two != [2, 1, 2, 3]:
        failures.append(("two-letter counts", two))
    ok = not failures
    assert _verdict("sieve output is the primitive classes through 8", ok), failures


def test_nilpotency_matches_the_brute_force_oracle():
    rng = Random(50021)
    verdict_bad = index_bad = law_bad = 0
    for _ in range(500):
        X = random_object(rng)
        cert = is_nilpotent(X)
        if cert.nilpotent != brute_nilpotent(X):
            verdict_bad += 1
        if cert.nilpotent and cert.index != _least_vanishing_length(X):
            index_bad += 1
        if not _preimage_law_holds(X, cert.filtration.subspaces):
            law_bad += 1
    ok = verdict_bad == index_bad == law_bad == 0
    assert _verdict("500 filtrations agree with brute-force word products", ok), (
        verdict_bad,
        index_bad,
        law_bad,
    )


def test_transports_preserve_nilpotency_and_respect_sums():
    rng = Random(60013)
    failures = []
    for trial in range(200):
        X, Y = _schema_pair(rng)
        words = _twist_words(X)
        for u in ("a", "b"):
            if not is_nilpotent(restrict_diagonal(X, u)).nilpotent:
                failures.append((trial, "restrict", u))
        for thru, keep in (("a", "b"), ("b", "a")):
            if not is_nilpotent(fold_through(X, thru, keep)).nilpotent:
                failures.append((trial, "fold", thru))
        if not is_nilpotent(word_twist(X, words)).nilpotent:
            failures.append((trial, "twist"))

        crosses = [l for l in X.letters if l.src != l.dst]
        Xc = NilObject(
            X.ring, X.dims, crosses, {l.name: X.mats[l.name] for l in crosses}
        )
        want_letters = []
        want_mats = {}
        for s in crosses:
            if (s.src, s.dst) != ("a", "b"):
                continue
            for t in crosses:
                if (t.src, t.dst) != ("b", "a"):
                    continue
                name = f"{s.name}|{t.name}"
                want_letters.append(Letter(name, "a", "a"))
                want_mats[name] = _imul(
                    X.mats[s.name], X.mats[t.name], X.dims["a"]
                )
        want = NilObject(
            BlockRing(("a",)), {"a": X.dims["a"]}, want_letters, want_mats
        )
        if fold_through(Xc, "b", "a") != want:
            failures.append((trial, "cross-only fold"))

        S = direct_sum(X, Y)
        for u in ("a", "b"):
            if restrict_diagonal(S, u) != direct_sum(
                restrict_diagonal(X, u), restrict_diagonal(Y, u)
            ):
                failures.append((trial, "sum restrict", u))
        for thru, keep in (("a", "b"), ("b", "a")):
            if fold_through(S, thru, keep) != direct_sum(
                fold_through(X, thru, keep), fold_through(Y, thru, keep)
            ):
                failures.append((trial, "sum fold", thru))
        if word_twist(S, words) != direct_sum(
            word_twist(X, words), word_twist(Y, words)
        ):
            failures.append((trial, "sum twist"))
    ok = not failures
    assert _verdict("200 transports keep nilpotency and split over sums", ok), (
        failures[:5]
    )


def test_normal_forms_match_the_concrete_models():
    dinf = load_construction(f"{DATA}/dinf.json")
    s3z2 = load_construction(f"{DATA}/s3z2.json")
    bs12 = load_construction(f"{DATA}/bs12.json")
    cases = [
        (dinf, [(1, "s"), (1, "1"), (2, "r"), (2, "1")], eval_dihedral),
        (
            s3z2,
            [(1, name) for name in sorted(S3_PERMS)] + [(2, "1"), (2, "r")],
            eval_s3_pushout,
        ),
        (
            bs12,
            [("t", 1), ("t", -1)] + [("g", (k,)) for k in (-2, -1, 0, 1, 2)],
            eval_bs12,
        ),
    ]
    rng = Random(70001)
    words = 0
    failures = []
    for idx in range(500):
        c, pool, model = cases[idx % 3]
        a = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        b = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        words += 2
        wa, wb = c.normalize(a), c.normalize(b)
        if c.normalize(c.word_tokens(wa)) != wa:
            failures.append((idx, "idempotence"))
        if model(c.word_tokens(wa)) != model(a):
            failures.append((idx, "model value"))
        if c.multiply_words(wa, wb) != c.normalize(a + b):
            failures.append((idx, "homomorphism"))
    for c, pool, _ in cases:
        for _ in range(30):
            u = GroupRingElement.zero(c)
            for _ in range(rng.randint(1, 4)):
                tokens = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
                u = u + GroupRingElement.basis(
                    c, tokens, rng.choice([-2, -1, 1, 2])
                )
            total = GroupRingElement.zero(c)
            for seq, part in grade_decompose(u).items():
                total = total + part
                flat = seq.seq
                for k in range(1, len(flat) // 2):
                    if flat[2 * k - 1] == flat[2 * k]:
                        failures.append(("adjacent index repeat", flat))
            if total != u:
                failures.append(("grading does not resum",))
    ok = words >= 1000 and not failures
    assert _verdict("1000 normal forms match the affine and perm models", ok), (
        failures[:5]
    )


def test_double_cosets_and_conjugate_transport():
    s3 = load_construction(f"{DATA}/s3.json")
    H = FiniteSubgroup.generated(s3, [parse_element(s3, "(12)")])
    orbits = double_cosets(s3, H, H)
    flat = [g for orbit in orbits for g in orbit]
    partition_ok = (
        len(orbits) == 2
        and sorted(len(o) for o in orbits) == [2, 4]
        and set(flat) == set(s3.elements())
        and len(flat) == len(set(flat))
    )
    failures = []
    for name in ("dinf", "s3z2"):
        amalgam = load_construction(f"{DATA}/{name}.json")
        for k in (0, 1):
            group, embed = amalgam.factors[k], amalgam.embeddings[k]
            for x in group.elements():
                data = conjugate_subgroup_data(group, embed, embed, x)
                xinv = group.invert(x)
                for g, carried in data.transport:
                    moved = group.multiply(
                        group.multiply(x, embed.apply(carried)), xinv
                    )
                    if moved != embed.apply(g):
                        failures.append((name, k, x, g))
                if not all(entry.ok for entry in data.items):
                    failures.append((name, k, x, "items"))
    ok = partition_ok and not failures
    assert _verdict("double cosets and conjugate transport check out", ok), (
        partition_ok,
        failures[:5],
    )


def test_command_line_runs_clean_inside_the_budget():
    env = dict(os.environ)
    env.pop("FREENIL_LIMITS", None)
    start = perf_counter()
    codes = {}
    for argv in (
        ["grouph", "verify-kernel", "--max-n", "12"],
        ["words", "sieve", "-I", "a,b", "-L", "6", "--verify"],
        ["algebra", "nil-check"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "freenil", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        codes[" ".join(argv)] = proc.returncode
    elapsed = perf_counter() - start
    ok = all(code == 0 for code in codes.values()) and elapsed < 60.0
    assert _verdict("shipped command lines exit clean in the budget", ok), (
        codes,
        elapsed,
    )
