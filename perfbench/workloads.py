"""The five benchmark workloads: seeded op lists plus the input files they read.

An op is one shipped CLI command, given as the argv that
``freenil.cli.main`` receives, with its expected exit code and a check of
its report against an independent oracle (see oracles.py).  A workload
builds the multiset of ops for one round; the harness repeats rounds,
each in a seeded order, until the run's time is up.

Each builder takes ``(rng, workdir)``: ``rng`` is the only source of
randomness and ``workdir`` is the checkout-relative directory its input
files go to, so one seed always gives the same argv lists and file bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import oracles

# The recorded defect: an amalgam normal form equal to the identity renders
# as "1", which the reparse check then rejects with exit code 2.
IDENTITY_DEFECT = "identity-word-reparse"


@dataclass
class Op:
    label: str
    argv: list
    expect_exit: int = 0
    check: Optional[Callable[[dict], Optional[str]]] = field(default=None, repr=False)
    files: tuple = ()
    known_defect: Optional[str] = None

    def spec(self):
        """Everything that identifies the op's input, for equality tests."""
        return (self.label, tuple(self.argv), self.expect_exit, self.files)


@dataclass
class Workload:
    ops: list
    files: dict  # checkout-relative path -> text
    # ops that hit a recorded known defect: run once per run, before and
    # outside the timed loop, so the timed mix holds only ops that pass
    probes: list = field(default_factory=list)


def _items_check(expected_items=None, data=None):
    """Every item ok, optionally an item count and some exact data fields."""

    def check(report):
        items = report.get("items", [])
        bad = [i["name"] for i in items if not i["ok"]]
        if bad:
            return f"failed items: {bad[:3]}"
        if expected_items is not None and len(items) != expected_items:
            return f"expected {expected_items} items, got {len(items)}"
        for key, want in (data or {}).items():
            if report.get("data", {}).get(key) != want:
                return f"data.{key}: expected {want!r}, got {report.get('data', {}).get(key)!r}"
        return None

    return check


def _mix(make, plan):
    """Ops for a plan of (args, copies) entries, in plan order."""
    return [make(*args) for args, copies in plan for _ in range(copies)]


# The fixed-size workloads use a plateau mix: about 40% small ops, a block
# of one size holding the median, a spread of larger ops, a block of one
# size holding the p90, and a thin tail.  Each quantile then sits inside a
# block of like ops instead of on the edge between two sizes, so it does
# not jump when a run ends part way through a round.

# kernel-relations -------------------------------------------------------------

def kernel_relations(rng, workdir):
    """verify-kernel and relations; median at N=4, p90 at Q=6, tail N=9."""

    def make(command, size):
        if command == "vk":
            return Op("verify-kernel", ["grouph", "verify-kernel", "--max-n", str(size)],
                      check=_items_check(size + 1))
        # q(q+1)/2 validations plus q(q+1)/2 last projections
        return Op("relations", ["grouph", "relations", "--max-q", str(size)],
                  check=_items_check(size * (size + 1)))

    plan = [
        (("vk", 0), 2), (("vk", 1), 2), (("rel", 1), 2), (("rel", 2), 2), (("vk", 2), 2),
        (("vk", 3), 3), (("rel", 3), 3),
        (("vk", 4), 8),
        (("rel", 4), 2), (("vk", 5), 2), (("vk", 6), 2), (("rel", 5), 2), (("vk", 7), 1),
        (("rel", 6), 6),
        (("vk", 9), 1),
    ]
    return Workload(_mix(make, plan), {})


# descent-collapse -------------------------------------------------------------

def descent_collapse(rng, workdir):
    """Randomized descent chains (arity 2..8) and collapse certificates up to stage 8."""

    def make(command, size, count=1, chain_seed=None):
        if command == "reduce":
            s = rng.randrange(1_000_000) if chain_seed is None else chain_seed
            return Op("reduce",
                      ["grouph", "reduce", "--arity", str(size), "--count", str(count),
                       "--seed", str(s)],
                      check=_items_check(count, {"count": count, "seed": s}))
        # per stage: n generators, random multiples, the unit, the witnesses
        items = sum(m + 3 for m in range(1, size + 1))
        return Op("collapse", ["grouph", "collapse", "--max-n", str(size)],
                  check=_items_check(items))

    # A chain's cost depends on its random draw.  Arity 2 chains cost alike,
    # so they sit below the median block; arity 3..5 ops run four chains
    # each, which evens out their cost and keeps them above that block.
    # One draw of arity 6..8 costs anywhere from 5 ms to 2.6 s, which would
    # make a round's cost a property of the seed, so those arities run one
    # fixed chain each (chain seed = arity) whatever the workload seed.
    plan = [
        (("collapse", 1), 2), (("collapse", 2), 2), (("collapse", 3), 3), (("reduce", 2), 12),
        (("collapse", 4), 10),
        (("reduce", 3, 4), 3), (("reduce", 4, 4), 3), (("reduce", 5, 4), 2), (("collapse", 5), 2),
        (("reduce", 6, 1, 6), 1), (("reduce", 7, 1, 7), 1), (("reduce", 8, 1, 8), 1),
        (("collapse", 6), 1),
        (("collapse", 7), 6),
        (("collapse", 8), 1),
    ]
    return Workload(_mix(make, plan), {})


# word-sieve -------------------------------------------------------------------

LETTER_POOL = "abcdexyz"


def word_sieve(rng, workdir):
    """sieve --verify, verify and enumerate over 2, 3 and 4 letters (census <= 1,000)."""
    alphabets = {k: ",".join(rng.sample(LETTER_POOL, k)) for k in (2, 3, 4)}

    def make(mode, k, bound):
        census = oracles.necklace_census(k, bound)
        argv = ["words", mode, "-I", alphabets[k], "-L", str(bound)]
        if mode == "sieve":
            argv.append("--verify")
        # sieve --verify and verify add five admissibility items to the census item
        items = 1 if mode == "enumerate" else 6
        return Op(f"words-{mode}", argv,
                  check=_items_check(items, {"count": census, "bound": bound,
                                             "alphabet": alphabets[k].split(",")}))

    small = [(2, b) for b in range(4, 8)] + [(3, 3), (3, 4), (4, 2), (4, 3)]
    plan = (
        [(("enumerate", k, b), 1) for k, b in ((2, 6), (2, 8), (3, 4), (3, 6), (4, 3))]
        + [((mode, k, b), 1) for k, b in small for mode in ("sieve", "verify")]
        + [((mode, k, b), 2) for mode, k, b in (
            ("sieve", 3, 5), ("verify", 3, 5), ("sieve", 2, 8), ("verify", 2, 8),
            ("enumerate", 4, 5), ("sieve", 4, 4), ("verify", 4, 4))]
        + [(("sieve", 2, 9), 2), (("verify", 2, 9), 2)]
        + [((mode, k, b), 1) for mode, k, b in (
            ("enumerate", 2, 10), ("enumerate", 3, 7), ("enumerate", 4, 6), ("sieve", 3, 6),
            ("verify", 3, 6), ("sieve", 4, 5), ("verify", 4, 5), ("sieve", 2, 10),
            ("verify", 2, 10), ("enumerate", 2, 12))]
        # the p90 block: sieve over 3 letters at L=7; the ops that cost
        # within 15% of it come once each, so they cannot push it aside
        + [(("sieve", 2, 11), 1), (("verify", 3, 7), 1), (("sieve", 3, 7), 6),
           (("verify", 2, 11), 1)]
        + [(("sieve", 4, 6), 1), (("verify", 2, 12), 1)]
    )
    return Workload(_mix(make, plan), {})


# nil-modules ------------------------------------------------------------------

def _elementary(n, rng):
    """A random unimodular matrix and its inverse, as products of shears."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in m]
    for _ in range(2 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        # m <- E m with E = I + k e_ij (row op), inv <- inv E^-1 (column op)
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        for row in inv:
            row[j] -= k * row[i]
    return m, inv


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_block_module(rng, total, units, base, height, n_letters, planted_nil):
    """A block module whose letters strictly lower a hidden level function.

    Every basis vector gets a level below ``height``; letter rows only hit
    columns of strictly lower level, so every word of length ``height``
    vanishes.  A planted non-nilpotent module adds one diagonal letter
    fixing a basis vector, so its powers never vanish.  A random unimodular
    change of basis per unit hides the triangular shape.
    """
    labels = [f"u{i}" for i in range(units)]
    dims = {u: total // units + (i < total % units) for i, u in enumerate(labels)}
    level = {}
    for u in labels:
        level[u] = [j * height // dims[u] for j in range(dims[u])]
        rng.shuffle(level[u])
    letters = []
    for idx in range(n_letters):
        # letters run u0 -> u1 -> u2 -> ... around the units; the last is diagonal
        src = labels[idx % units]
        dst = labels[(idx + 1) % units] if idx < n_letters - 1 else src
        mat = [
            [
                rng.choice((-2, -1, 1, 1, 2)) if level[dst][j] < level[src][i] and rng.random() < 0.6 else 0
                for j in range(dims[dst])
            ]
            for i in range(dims[src])
        ]
        letters.append((f"l{idx}", src, dst, mat))
    if not planted_nil:
        u = labels[0]
        i = rng.randrange(dims[u])
        mat = [[int(r == i and c == i) for c in range(dims[u])] for r in range(dims[u])]
        letters.append((f"l{n_letters}", u, u, mat))
    basis = {u: _elementary(dims[u], rng) for u in labels}
    out_letters = []
    for name, src, dst, mat in letters:
        conj = _mul(_mul(basis[src][0], mat), basis[dst][1])
        out_letters.append({"name": name, "src": src, "dst": dst, "matrix": conj})
    return {"units": labels, "base": base, "dims": dims, "letters": out_letters}


def _nil_check_op(path, module, planted_nil, height):
    brute = oracles.nil_index(module) if sum(module["dims"].values()) <= 6 else "skip"

    def check(report):
        data = report.get("data", {})
        if data.get("nilpotent") is not planted_nil:
            return f"verdict {data.get('nilpotent')!r}, planted {planted_nil}"
        if brute != "skip" and data.get("index") != brute:
            return f"index {data.get('index')!r}, brute force {brute!r}"
        if planted_nil and not (1 <= data.get("index", 0) <= height):
            return f"index {data.get('index')!r} outside 1..{height}"
        bad = [i["name"] for i in report.get("items", [])[1:] if not i["ok"]]
        if bad:
            return f"filtration items failed: {bad[:3]}"
        return None

    return Op("nil-check", ["algebra", "nil-check", path], expect_exit=0 if planted_nil else 1,
              check=check, files=(path,))


def _nil_map_op(path, module, mode):
    """One transport of a scheduled kind, with arguments fixed by the shape.

    Letters run u0 -> u1 -> ... (see random_block_module), so the word
    l0 l1 always chains; the seed only changes the matrices.
    """
    labels = module["units"]
    dims = module["dims"]
    names = [l["name"] for l in module["letters"]]
    if mode == "restrict":
        flags, want = ["--restrict", labels[0]], {labels[0]: dims[labels[0]]}
    elif mode == "fold":
        flags, want = ["--fold", labels[1], "--onto", labels[0]], {labels[0]: dims[labels[0]]}
    else:
        flags = [arg for name in names + [f"{names[0]},{names[1]}"] for arg in ("--twist", name)]
        want = dict(dims)

    def check(report):
        if report.get("items") and not report["items"][0]["ok"]:
            return "transported object is not nilpotent"
        got = report.get("data", {}).get("result", {}).get("dims")
        if got != want:
            return f"result dims {got!r}, expected {want!r}"
        return None

    return Op(f"nil-map-{mode}", ["algebra", "nil-map", path] + flags, check=check, files=(path,))


def nil_modules(rng, workdir):
    """nil-check on small modules (a quarter planted non-nilpotent), nil-map on larger ones.

    Shapes (total dimension, units, letters, planted height) follow a fixed
    schedule so that every seed loads the layers alike; the seed draws the
    matrices, the base ring and the hidden change of basis.
    """
    ops, files = [], {}

    def base(i):
        return "int" if i % 2 else f"gf({rng.choice((2, 3, 5, 7))})"

    def add(module, name):
        path = f"{workdir}/{name}.json"
        files[path] = json.dumps(module, indent=1) + "\n"
        return path

    for i in range(160):
        planted_nil = i % 4 != 0
        total = 4 + i % 3 if not planted_nil else 4 + i % 9
        units = 1 + i % 3
        height = 2 + i % 3 if total > 6 else 2 + i % (total - 1)
        module = random_block_module(rng, total, units, base(i), height, 1 + i % 3, planted_nil)
        ops.append(_nil_check_op(add(module, f"check-{i:03d}"), module, planted_nil, height))
    for i in range(80):
        units = 2 + (i // 2) % 2
        total = (16, 18, 20, 22, 24)[(i // 4) % 5] + (8 if units == 3 else 0)
        module = random_block_module(rng, total, units, base(i), 3 + i % 3, 2 + i % 3, True)
        mode = ("restrict", "fold", "twist")[(i // 2) % 3]
        ops.append(_nil_map_op(add(module, f"map-{i:03d}"), module, mode))
    return Workload(ops, files)


# normal-forms -----------------------------------------------------------------

def _group_dict(perms):
    names = [oracles.perm_name(p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[oracles.perm_mul(g, h)] for h in perms] for g in perms]
    return {"kind": "finite", "names": names, "table": table}


def s4_amalgam_file():
    """S4 *_{Z4} S4, the shared Z4 sent to two different 4-cycles."""
    s4 = oracles.symmetric_group(4)
    c1 = oracles.cycle_perm(4, [0, 1, 2, 3])
    c2 = oracles.cycle_perm(4, [0, 2, 1, 3])
    z4 = {"kind": "finite", "names": ["e", "c", "c2", "c3"],
          "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}
    data = {
        "construction": "amalgam",
        "subgroup": z4,
        "factor1": _group_dict(s4),
        "factor2": _group_dict(s4),
        "embedding1": {"kind": "finite", "generator_images": {"c": oracles.perm_name(c1)}},
        "embedding2": {"kind": "finite", "generator_images": {"c": oracles.perm_name(c2)}},
    }
    return data, c1, c2


def _word_lengths(rng, n):
    """n lengths spread log-uniformly over 2..3000 tokens, one per stratum.

    Stratifying keeps every seed's length mix alike (so most words are
    short and a fixed share is long); the seed only jitters and shuffles.
    """
    lo, hi = math.log(2), math.log(3000)
    out = [int(math.exp(lo + (k + rng.random()) / n * (hi - lo))) for k in range(n)]
    rng.shuffle(out)
    return out


def _parse_amalgam_tokens(text):
    return [(int(t[0]), t[2:]) for t in text.split()] if text != "1" else []


def _alternates(tokens, in_shared):
    """Syllables after an optional head alternate factors and avoid the shared image."""
    body = tokens[1:] if tokens and in_shared(tokens[0]) else tokens
    return all(a[0] != b[0] for a, b in zip(body, body[1:])) and not any(map(in_shared, body))


def _normal_form_check(evaluate, in_shared):
    def check_word(word_text, normal_form):
        want = evaluate(_parse_amalgam_tokens(word_text))
        tokens = _parse_amalgam_tokens(normal_form)
        if evaluate(tokens) != want:
            return f"normal form {normal_form[:40]!r} names another element"
        if not _alternates(tokens, in_shared):
            return f"normal form {normal_form[:40]!r} is not reduced"
        return None

    return check_word


def _bs_tokens(text):
    out = []
    for t in text.split():
        if t in ("T+", "T-"):
            out.append(("t", 1 if t == "T+" else -1))
        elif t != "1":
            _, _, power = t.partition("^")
            out.append(("a", int(power) if power else 1))
    return out


def _bs_reduced(tokens):
    """Britton-reduced: no t^-1 a^k t (alpha image is all of <a>), no t a^even t^-1."""
    signs = [(i, v) for i, (kind, v) in enumerate(tokens) if kind == "t"]
    for (i, a), (j, b) in zip(signs, signs[1:]):
        between = sum(v for kind, v in tokens[i + 1:j])
        if a == -1 and b == 1:
            return False
        if a == 1 and b == -1 and between % 2 == 0:
            return False
    return True


def normal_forms(rng, workdir):
    """normalize/decompose over four constructions, cosets over S3, S4, S5.

    Amalgam words that reduce to the identity hit the recorded
    identity-word defect.  They are kept as probes, and each timed
    normalize op gets a redrawn word of the same length instead.
    """
    ops, files = [], {}
    amalgam, c1, c2 = s4_amalgam_file()
    amalgam_path = f"{workdir}/s4z4s4.json"
    files[amalgam_path] = json.dumps(amalgam) + "\n"
    group_paths = {}
    for n in (4, 5):
        group_paths[n] = f"{workdir}/s{n}.json"
        files[group_paths[n]] = json.dumps(
            {"construction": "group", "group": _group_dict(oracles.symmetric_group(n))}) + "\n"

    s4_models = oracles.amalgam_s4_models(c1, c2)
    shared1 = oracles.generated([c1], 4)
    shared2 = oracles.generated([c2], 4)
    s4_names = [oracles.perm_name(p) for p in oracles.symmetric_group(4)]
    s3_names = list(oracles.S3_PERMS)
    constructions = {
        # name: (flag, file, token pool, evaluator, shared-image test)
        "dinf": ("--amalgam", "dinf", ("1:s", "2:r", "1:s", "2:r", "1:1", "2:1"),
                 oracles.eval_dinf,
                 lambda t: t[1] == "1"),
        "s3z2": ("--amalgam", "s3z2", [f"1:{n}" for n in s3_names] + ["2:r", "2:1"],
                 oracles.eval_s3z2,
                 lambda t: t[0] == 2 or t[1] in ("1", "(12)")),
        "s4z4s4": ("--amalgam", amalgam_path, [f"{k}:{n}" for k in "12" for n in s4_names],
                   lambda toks: tuple(oracles.eval_s4_amalgam(toks, m) for m in s4_models),
                   lambda t: oracles.perm_from_name(t[1]) in (shared1 if t[0] == 1 else shared2)),
    }

    def amalgam_words(name, n):
        return " ".join(rng.choices(constructions[name][2], k=n))

    def bs_word(n):
        return " ".join(rng.choices(("T+", "T-", "a", "a^-1", "a^2", "a^3"), k=n))

    def normalize_op(name, word):
        flag, path, _, evaluate, in_shared = constructions[name]
        check_word = _normal_form_check(evaluate, in_shared)
        identity = evaluate(_parse_amalgam_tokens(word)) == evaluate([])

        def check(report):
            return check_word(word, report.get("data", {}).get("normal_form", ""))

        files_used = (path,) if path.startswith(workdir) else ()
        return Op(f"normalize-{name}", ["algebra", "normalize", flag, path, "--word", word],
                  check=check, files=files_used,
                  known_defect=IDENTITY_DEFECT if identity else None)

    def normalize_ops(name, length):
        """A timed op of this length, redrawn past identity words, which become probes."""
        while True:
            op = normalize_op(name, amalgam_words(name, length))
            if op.known_defect is None:
                return op
            probes.append(op)

    def normalize_bs_op(length):
        word = bs_word(length)

        def check(report):
            nf = report.get("data", {}).get("normal_form", "")
            tokens = _bs_tokens(nf)
            if oracles.eval_bs12(tokens) != oracles.eval_bs12(_bs_tokens(word)):
                return f"normal form {nf[:40]!r} names another element"
            if not _bs_reduced(tokens):
                return f"normal form {nf[:40]!r} has a pinch"
            return None

        return Op("normalize-bs12", ["algebra", "normalize", "--hnn", "bs12", "--word", word],
                  check=check)

    def decompose_op(name):
        if name == "bs12":
            words = [bs_word(rng.randint(2, 40)) for _ in range(rng.randint(2, 6))]
            distinct = len({oracles.eval_bs12(_bs_tokens(w)) for w in words})
            flag, path = "--hnn", "bs12"
        else:
            flag, path, _, evaluate, _ = constructions[name]
            words = [amalgam_words(name, rng.randint(2, 40)) for _ in range(rng.randint(2, 6))]
            # the S4 models are not faithful, so only the faithful ones fix the count
            distinct = (len({evaluate(_parse_amalgam_tokens(w)) for w in words})
                        if name != "s4z4s4" else None)
        argv = ["algebra", "decompose", flag, path]
        for w in words:
            argv += ["--word", w]
        files_used = (path,) if path.startswith(workdir) else ()
        return Op(f"decompose-{name}", argv,
                  check=_items_check(1, {"terms": distinct} if distinct else None),
                  files=files_used)

    def cosets_op(n):
        pool = oracles.symmetric_group(n)
        ident = tuple(range(n))
        left = rng.sample([p for p in pool if p != ident], rng.randint(1, 2))
        right = rng.sample([p for p in pool if p != ident], rng.randint(1, 2))
        if n == 3:
            names = {v: k for k, v in oracles.S3_PERMS.items()}
            path, fmt = "s3", names.__getitem__
        else:
            path, fmt = group_paths[n], oracles.perm_name
        count = oracles.double_coset_count(n, left, right)
        return Op(f"cosets-s{n}",
                  ["algebra", "cosets", path, "--left", ",".join(map(fmt, left)),
                   "--right", ",".join(map(fmt, right))],
                  check=_items_check(1, {"count": count}),
                  files=(path,) if n > 3 else ())

    probes = []
    for name in ("dinf", "s3z2", "s4z4s4"):
        ops += [normalize_ops(name, n) for n in _word_lengths(rng, 100)]
        ops += [decompose_op(name) for _ in range(10)]
    ops += [normalize_bs_op(n) for n in _word_lengths(rng, 100)]
    ops += [decompose_op("bs12") for _ in range(10)]
    ops += [cosets_op(3) for _ in range(20)] + [cosets_op(4) for _ in range(12)]
    ops += [cosets_op(5) for _ in range(3)]
    return Workload(ops, files, probes)


WORKLOADS = {
    "kernel-relations": kernel_relations,
    "descent-collapse": descent_collapse,
    "word-sieve": word_sieve,
    "nil-modules": nil_modules,
    "normal-forms": normal_forms,
}
