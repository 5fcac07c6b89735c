"""Command-line front end: verification suites and ad-hoc computations.

Every invocation prints one structured report, JSON by default or a plain
table with ``--plain``; a command line the parser rejects is reported in
JSON, and only ``--help`` prints plain help text instead.  Reports are
deterministic: two runs with the same arguments agree bit for bit once the
timing field is stripped, and item order follows declaration order, never
completion order.

Exit codes: 0 every check passed, 1 a check failed, 2 usage or parse
error, 3 a resource ceiling was hit, or memory or the recursion depth ran
out (the partial report is still printed), 4 an internal invariant was
violated.

Resource ceilings come from the FREENIL_LIMITS environment variable,
e.g. ``FREENIL_LIMITS="n=64,l=16,dim=128"``: ``n`` bounds the twisted-ring
suite sizes, ``l`` the word-enumeration length budget, and ``dim`` the
total dimension of loaded nil objects.  ``words`` also has a fixed work
budget on the class census, ``grouph reduce`` on the arity and the
relation count, ``grouph collapse`` on the samples over all stages,
element text on its exponent digits (``groups.EXPONENT_DIGITS_BUDGET``),
``algebra nil-map --fold`` on the composite words weighted by the unit
dims (``nilobj.FOLD_WORK_BUDGET``), and every nilpotency decision and
certificate check on its elimination work (``nilobj.CHAIN_WORK_BUDGET``).

Input files may be given by path, or by the bare name of a shipped sample
(``dinf``, ``s3z2``, ``bs12``, ``s3``, ``nil_example``).

Every command is one row of the command table ``COMMANDS``, which names
its runner.  The parser is built once per process, when this module is
imported, with one mode parser per row.  ``main`` hands a command line
that begins with a row's command and mode straight to that mode's parser,
and any other line (help, a usage error at the top two levels) to the
full parser; then it calls the named runner, and each runner checks its
arguments and limits and calls library verifiers.

Importing this module executes only it, ``report`` and ``errors``; every other
library module is registered in ``sys.modules`` at import and executed on first
use, so a command runs only the modules it needs.  The benchmark's tracer and
its per-op cache reset rely on that registration: they find every module in
``sys.modules`` right after this import.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import InvariantError, LimitExceeded, UnsupportedOperation, ensure_within
from .report import CheckItem, Report


def _lazy(name: str):
    """``freenil.<name>``, put in `sys.modules` and on the package unexecuted: a
    `LazyLoader` runs it on first attribute access.  One imported before is kept."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


(amalgam, cosets, groupring, groups, hnn, laurent, linalg, nilobj, skewpoly, store, syzygy,
 words) = map(_lazy, "amalgam cosets groupring groups hnn laurent linalg nilobj skewpoly "
                     "store syzygy words".split())


@dataclass(frozen=True)
class Limits:
    """Ceilings read from FREENIL_LIMITS; crossing one exits with code 3."""

    n: int = 64
    l: int = 16
    dim: int = 128


def read_limits(env=os.environ) -> Limits:
    raw = env.get("FREENIL_LIMITS", "")
    values = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        # one entry per key; int() alone would take "-3", "1_0" and non-ASCII digits
        if (not sep or key not in ("n", "l", "dim") or key in values
                or not (value.isascii() and value.isdigit())):
            raise ValueError(
                f'FREENIL_LIMITS entries look like "n=64,l=16,dim=128", got {part!r}'
            )
        values[key] = int(value)
    return Limits(**values)


# Fixed work budget for `words`, checked before any enumeration: every mode
# yields the class census (sieve pivots or Lyndon words), so it ends in seconds.
WORDS_CENSUS_BUDGET = 200_000

# Fixed work budgets for `reduce`, checked before any work.  Descent runs in
# x-coordinates, where X(p, q) has 2^(p+2) terms, so the cost roughly
# doubles per arity step: at 14 the sum of all 91 pairwise relations takes
# about 1.8 s on a 2-core host, most of it the change to y-coordinates that
# proves each descent state.  The work also grows linearly in the number of
# relations, so `--count` and the number of `--pair` flags share a second
# budget: at arity 14, 200 random chains take 2.8-3.4 s and 200 pairs 1.8 s.
REDUCE_ARITY_BUDGET = 14
REDUCE_RELATIONS_BUDGET = 200

# Fixed work budget for `collapse`, checked before any work: every stage
# draws `--samples` random right multiples, about 2 us of draws each on a
# 2-core host, but forms only the distinct products, at most 625 x
# `--max-n` per command, each once; the witnesses add O(max_n^2) relation
# proofs, once per command.  At the budget `--max-n` 1, 8 and 64 take
# about 0.8, 0.8 and 2 s.
COLLAPSE_SAMPLES_BUDGET = 300_000


_SAMPLES = resources.files("freenil") / "data"


def _resolve_input(path_text: str):
    """A literal path, or the name of a shipped sample under the data dir."""
    p = Path(path_text)
    if p.is_file():
        return p
    for candidate in (path_text, path_text + ".json"):
        q = _SAMPLES / candidate
        if q.is_file():
            return q
    raise OSError(f"no such input file: {path_text}")


def _load_construction(path_text: str):
    return store.load_construction(_resolve_input(path_text))


def _load_tagged(args):
    path = args.hnn if args.hnn else args.amalgam
    construction = _load_construction(path)
    if args.hnn and not isinstance(construction, hnn.HNN):
        raise ValueError(f"{path} does not hold an HNN extension")
    if args.amalgam and not isinstance(construction, amalgam.Amalgam):
        raise ValueError(f"{path} does not hold an amalgamated product")
    return construction


# Word mini-language.  HNN words are whitespace tokens where T+ and T- are
# the stable letter and its inverse and anything else names a base element;
# amalgam tokens carry a factor tag, 1:ELEMENT or 2:ELEMENT.  Commas inside
# an element stand for spaces, so multi-generator elements stay one token.
# The text "1" alone is the identity word in either construction.

def parse_word_tokens(construction, text: str):
    if text.strip() == "1":
        return []  # the identity, as `render_word` prints it
    raws = text.split()
    is_hnn = isinstance(construction, hnn.HNN)
    if raws and not is_hnn and not isinstance(construction, amalgam.Amalgam):
        raise ValueError("words need an amalgam or HNN construction")
    parsed = {}  # each distinct text once, in order of first appearance
    for raw in dict.fromkeys(raws):
        if is_hnn:
            if raw in ("T+", "T-"):
                parsed[raw] = ("t", 1 if raw == "T+" else -1)
            elif raw != "1":  # the identity anywhere: `HNN.__init__` reserves "1"
                parsed[raw] = ("g", groups.parse_element(construction.base, raw.replace(",", " ")))
            continue
        tag, sep, rest = raw.partition(":")
        if not sep or tag not in ("1", "2"):
            raise ValueError(f"amalgam tokens look like 1:ELEMENT or 2:ELEMENT, got {raw!r}")
        k = int(tag)
        parsed[raw] = (k, groups.parse_element(construction.factors[k - 1], rest.replace(",", " ")))
    return [parsed[raw] for raw in raws if raw in parsed]


def render_word(construction, word) -> str:
    tokens = construction.word_tokens(word)
    texts = {}  # each distinct token once
    for kind, value in dict.fromkeys(tokens):
        if kind == "t":
            texts[kind, value] = "T+" if value == 1 else "T-"
        elif kind == "g":
            texts[kind, value] = groups.format_element(construction.base, value).replace(" ", ",")
        else:
            text = groups.format_element(construction.factors[kind - 1], value).replace(" ", ",")
            texts[kind, value] = f"{kind}:{text}"
    return " ".join(map(texts.__getitem__, tokens)) if tokens else "1"


# Runners.  Each sets the command echo first so a partial report still
# names what was being run, then fills items and data.

def run_words(args, report: Report, limits: Limits) -> None:
    verify = args.mode == "verify" or (args.mode == "sieve" and args.verify)
    report.command = f"words {args.mode} -I {args.alphabet} -L {args.bound}" + (
        " --verify" if args.mode == "sieve" and args.verify else ""
    )
    alphabet = words.Alphabet(args.alphabet.split(","))
    ordered = sorted(alphabet.letters)  # a letter that begins another begins the next one
    for x, y in zip(ordered, ordered[1:]):
        if y.startswith(x):
            raise ValueError(f"letter {x!r} begins letter {y!r}, so words over "
                             "this alphabet print ambiguously")
    ensure_within(args.bound, limits.l, "length bound")
    k = len(alphabet)
    census = sum(words.aperiodic_necklace_count(k, n) for n in range(1, args.bound + 1))
    ensure_within(census, WORDS_CENSUS_BUDGET, "class census", "this work budget is fixed")
    if args.mode == "enumerate":
        words_out = sorted(words.primitive_classes(alphabet, args.bound), key=alphabet.sort_key)
    else:
        _, words_out = words.sieve(alphabet, args.bound)
    report.add("word count matches the class census", census, len(words_out))
    if verify:
        report.extend(words.verify_admissible(words_out, alphabet, args.bound))
    report.data["alphabet"] = list(alphabet.letters)
    report.data["bound"] = args.bound
    report.data["count"] = len(words_out)
    report.data["words"] = ["".join(w) for w in words_out]


def run_verify_kernel(args, report: Report, limits: Limits) -> None:
    report.command = f"grouph verify-kernel --max-n {args.max_n}"
    if args.max_n < 0:
        raise ValueError("--max-n must be >= 0")
    ensure_within(args.max_n, limits.n, "kernel bound")
    report.extend(syzygy.verify_kernel_pairs(args.max_n))


def run_relations(args, report: Report, limits: Limits) -> None:
    report.command = f"grouph relations --max-q {args.max_q}"
    if args.max_q < 0:
        raise ValueError("--max-q must be >= 0")
    ensure_within(args.max_q, limits.n, "relation bound")
    report.extend(syzygy.verify_relations(args.max_q))


def run_reduce(args, report: Report, limits: Limits) -> None:
    tail = (
        "".join(f" --pair {p}" for p in args.pair)
        if args.pair
        else f" --count {args.count} --seed {args.seed}"
    )
    report.command = f"grouph reduce --arity {args.arity}{tail}"
    if args.arity < 2:
        raise ValueError("--arity must be >= 2")
    ensure_within(args.arity, limits.n, "arity")
    fixed = "this work budget is fixed"
    ensure_within(args.arity, REDUCE_ARITY_BUDGET, "arity", fixed)
    relations = len(args.pair) if args.pair else args.count
    ensure_within(relations, REDUCE_RELATIONS_BUDGET, "relation count", fixed)
    if not args.pair:
        if args.count < 1:
            raise ValueError("--count must be >= 1")
        report.extend(syzygy.verify_reduction(args.arity, args.count, args.seed))
        report.data["count"] = args.count
        report.data["seed"] = args.seed
        return
    pairs = []
    for text in args.pair:
        fields = text.split(",")
        # an optional '-' then ASCII digits; int() alone would take " 3", "+3" and "0_3"
        digits = [f.removeprefix("-") for f in fields]
        if len(fields) != 2 or not all(d.isascii() and d.isdigit() for d in digits):
            raise ValueError(f"--pair takes P,Q with two integers, got {text!r}")
        pairs.append(tuple(int(f) for f in fields))
    items, steps = syzygy.reduce_pair_sum(pairs, args.arity)
    report.extend(items)
    report.data["steps"] = len(steps) - 1
    report.data["trace"] = steps


def run_collapse(args, report: Report, limits: Limits) -> None:
    report.command = (
        f"grouph collapse --max-n {args.max_n} --samples {args.samples} --seed {args.seed}"
    )
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    ensure_within(args.max_n, limits.n, "ideal stage")
    ensure_within(args.samples * args.max_n, COLLAPSE_SAMPLES_BUDGET, "samples x stages",
                  "this work budget is fixed")
    for n in range(1, args.max_n + 1):
        for it in syzygy.collapse_certificate(n, args.samples, args.seed):
            report.items.append(CheckItem(f"stage {n}: {it.name}", it.expected, it.got, it.ok))
    report.data["images"] = syzygy.collapse_images(args.max_n)


def run_normalize(args, report: Report, limits: Limits) -> None:
    kind = "--hnn" if args.hnn else "--amalgam"
    path = args.hnn if args.hnn else args.amalgam
    report.command = f'algebra normalize {kind} {path} --word "{args.word}"'
    construction = _load_tagged(args)
    word = construction.normalize(parse_word_tokens(construction, args.word))
    rendered = render_word(construction, word)
    again = render_word(
        construction, construction.normalize(parse_word_tokens(construction, rendered))
    )
    report.add("normal form is stable under reparsing", rendered, again)
    report.data["input"] = args.word
    report.data["normal_form"] = rendered
    report.data["sequence"] = list(groupring.word_sequence_type(construction, word).seq)


def run_decompose(args, report: Report, limits: Limits) -> None:
    kind = "--hnn" if args.hnn else "--amalgam"
    path = args.hnn if args.hnn else args.amalgam
    quoted = " ".join(f'--word "{w}"' for w in args.word)
    report.command = f"algebra decompose {kind} {path} {quoted}"
    construction = _load_tagged(args)
    u = groupring.GroupRingElement.zero(construction)
    for text in args.word:
        u += groupring.GroupRingElement.basis(construction, parse_word_tokens(construction, text))
    components = groupring.grade_decompose(u)
    total = sum(components.values(), groupring.GroupRingElement.zero(construction))
    report.add("components sum back to the input", True, total == u)
    report.data["terms"] = len(u.terms)
    report.data["components"] = [
        {
            "sequence": list(seq.seq),
            "terms": sorted(
                ([c, render_word(construction, w)] for w, c in part.terms.items()),
                key=lambda pair: pair[1],
            ),
        }
        for seq, part in components.items()
    ]


def run_cosets(args, report: Report, limits: Limits) -> None:
    report.command = f"algebra cosets {args.file} --left {args.left} --right {args.right}"
    construction = _load_construction(args.file)
    if isinstance(construction, (amalgam.Amalgam, hnn.HNN)):
        raise ValueError("double cosets need a plain group file")
    group = construction
    if not group.is_finite:
        raise UnsupportedOperation("double cosets need a finite group")
    subgroups = []
    for text in (args.left, args.right):
        gens = [groups.parse_element(group, part.strip()) for part in text.split(",")]
        subgroups.append(groups.FiniteSubgroup.generated(group, gens))
    orbits = cosets.double_cosets(group, subgroups[0], subgroups[1])
    covered = [g for orbit in orbits for g in orbit]
    report.add(
        "orbits partition the group",
        len(group.elements()),
        len(covered),
        ok=len(covered) == len(set(covered)) == len(group.elements()),
    )
    report.data["count"] = len(orbits)
    report.data["orbits"] = [list(orbit) for orbit in orbits]


def _load_nil(path_text: str):
    return store.load_nil(_resolve_input(path_text))


def run_nil_check(args, report: Report, limits: Limits) -> None:
    shown = args.file if args.file else "nil_example"
    report.command = "algebra nil-check" + (f" {args.file}" if args.file else "")
    X = _load_nil(shown)
    ensure_within(X.total_dim(), limits.dim, "total dimension")
    cert = nilobj.is_nilpotent(X)
    report.add("the structure map is nilpotent", True, cert.nilpotent)
    report.extend(nilobj.filtration_items(X))
    report.data["file"] = shown
    report.data["dims"] = {u: X.dims[u] for u in X.ring.units}
    report.data["nilpotent"] = cert.nilpotent
    report.data["index"] = cert.index
    report.data["layer_dims"] = cert.filtration.layer_dims()


def run_nil_map(args, report: Report, limits: Limits) -> None:
    flags = [f"--{k} {getattr(args, k)}" for k in ("restrict", "fold", "onto") if getattr(args, k)]
    flags += [f'--twist "{text}"' for text in args.twist or ()]
    if args.out:
        flags.append(f"--out {args.out}")
    report.command = " ".join([f"algebra nil-map {args.file}"] + flags)

    modes = [m for m in ("restrict", "fold", "twist") if getattr(args, m)]
    if len(modes) != 1:
        raise ValueError("pick exactly one of --restrict, --fold/--onto, --twist")
    if (args.fold is None) != (args.onto is None):
        raise ValueError("--fold THRU and --onto KEEP go together")

    X = _load_nil(args.file)
    ensure_within(X.total_dim(), limits.dim, "total dimension")
    if args.restrict:
        result = nilobj.restrict_diagonal(X, args.restrict)
        applied = f"restrict to unit {args.restrict}"
    elif args.fold:
        result = nilobj.fold_through(X, args.fold, args.onto)
        applied = f"fold through {args.fold} onto {args.onto}"
    else:
        family = [tuple(text.replace(",", " ").split()) for text in args.twist]
        result = nilobj.word_twist(X, family)
        applied = "twist by " + ", ".join("|".join(w) for w in family)
    cert = nilobj.is_nilpotent(result)
    report.add("the transported object is nilpotent", True, cert.nilpotent)
    report.data["applied"] = applied
    report.data["index"] = cert.index
    report.data["result"] = nilobj.to_json_dict(result)
    if args.out:
        store.save_nil(result, args.out)
        report.data["saved"] = args.out


# The command table: (command, mode) -> (runner name, help).  Each mode is
# one subparser tagged with its runner's name, and `main` resolves that
# name among this module's globals at call time, so a patched or traced
# runner is the one that runs.
COMMANDS = {
    ("words", "sieve"): ("run_words", "emit the sieve's pivot words"),
    ("words", "verify"): ("run_words", "sieve plus the full admissibility checks"),
    ("words", "enumerate"): ("run_words", "canonical primitive rotation classes"),
    ("grouph", "verify-kernel"): ("run_verify_kernel",
                                  "check the defining map kills every kernel pair"),
    ("grouph", "relations"): ("run_relations",
                              "check the pairwise relations and their last projections"),
    ("grouph", "reduce"): ("run_reduce", "run the complexity descent"),
    ("grouph", "collapse"): ("run_collapse", "certify 1 avoids the finite-stage right ideals"),
    ("algebra", "normalize"): ("run_normalize", "normal form of a word"),
    ("algebra", "decompose"): ("run_decompose", "grading components of a ring element"),
    ("algebra", "cosets"): ("run_cosets", "double cosets of two generated subgroups"),
    ("algebra", "nil-check"): ("run_nil_check", "nilpotency certificate for a stored object"),
    ("algebra", "nil-map"): ("run_nil_map", "transport a stored object through a functor"),
}


class _Parser(argparse.ArgumentParser):
    """Raises ValueError where argparse would print usage to stderr and exit,
    so `main` reports a rejected command line like any other usage error.
    Subparsers inherit the class.  The parser `build_parser` returns also
    holds ``modes``, the parser of each ``COMMANDS`` row under its key."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freenil",
        description="Exact verification suites and computations for generalized free products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "plain"), default="json",
                     help="report format (default json)")
    fmt.add_argument("--plain", action="store_true", help="shorthand for --format plain")

    modes = {
        name: sub.add_parser(name, help=blurb).add_subparsers(dest="mode", required=True)
        for name, blurb in (
            ("words", "primitive-word enumeration and the pivot sieve"),
            ("grouph", "twisted-ring kernel and relation suites"),
            ("algebra", "computations over stored constructions"),
        )
    }
    parser.modes = {}
    p = {}
    for (command, mode), (runner, blurb) in COMMANDS.items():
        p[mode] = modes[command].add_parser(mode, parents=[fmt], help=blurb)
        p[mode].set_defaults(runner=runner)
        parser.modes[command, mode] = p[mode]

    for mode in ("sieve", "verify", "enumerate"):
        p[mode].add_argument("-I", "--alphabet", required=True,
                             help="comma-separated letters, none beginning another, e.g. a,b")
        p[mode].add_argument("-L", "--bound", required=True, type=int, help="length budget")
        p[mode].set_defaults(verify=False)
    p["sieve"].add_argument("--verify", action="store_true",
                            help="also run the admissibility checks")

    p["verify-kernel"].add_argument("--max-n", dest="max_n", required=True, type=int,
                                    help="largest pair degree to check")
    p["relations"].add_argument("--max-q", dest="max_q", required=True, type=int,
                                help="largest second index to check")

    r = p["reduce"]
    r.add_argument("--arity", type=int, default=4, help="relation vector length")
    r.add_argument("--count", type=int, default=20, help="random vectors to reduce")
    r.add_argument("--seed", type=int, default=0, help="random seed")
    r.add_argument("--pair", action="append", metavar="P,Q",
                   help="reduce the sum of these pairwise relations instead of random ones")

    c = p["collapse"]
    c.add_argument("--max-n", dest="max_n", type=int, default=8,
                   help="largest ideal stage to certify")
    c.add_argument("--samples", type=int, default=20, help="random right multiples per stage")
    c.add_argument("--seed", type=int, default=7, help="random seed")

    word_help = (
        "whitespace tokens: T+/T- and base elements for an HNN file,"
        " 1:ELEMENT / 2:ELEMENT for an amalgam file"
    )
    for mode in ("normalize", "decompose"):
        src = p[mode].add_mutually_exclusive_group(required=True)
        src.add_argument("--hnn", metavar="FILE", help="HNN extension file")
        src.add_argument("--amalgam", metavar="FILE", help="amalgamated product file")
    p["normalize"].add_argument("--word", required=True, help=word_help)
    p["decompose"].add_argument("--word", action="append", required=True,
                                help=word_help + "; repeat to sum several basis words")

    g = p["cosets"]
    g.add_argument("file", help="group file")
    g.add_argument("--left", required=True, help="comma-separated generator names")
    g.add_argument("--right", required=True, help="comma-separated generator names")

    p["nil-check"].add_argument("file", nargs="?", default=None,
                                help="nil object file (defaults to the shipped sample)")

    m = p["nil-map"]
    m.add_argument("file", help="nil object file")
    m.add_argument("--restrict", metavar="UNIT", help="keep one unit and its diagonal letters")
    m.add_argument("--fold", metavar="THRU", help="fold this unit away (needs --onto)")
    m.add_argument("--onto", metavar="KEEP", help="surviving unit for --fold")
    m.add_argument("--twist", action="append", metavar="WORD",
                   help="letter word for the word twist; repeat for a family")
    m.add_argument("--out", metavar="FILE", help="also save the transported object here")

    return parser


# Built once per process, at import: `parse_args` keeps no state between calls.
_PARSER = build_parser()


def parse_args(argv) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, skipping the two outer levels when argv
    begins with a row's command and mode: the full parser would hand the
    rest of argv, untouched, to that mode's parser."""
    mode = _PARSER.modes.get(tuple(argv[:2]))
    if mode is None:
        return _PARSER.parse_args(argv)
    args, extra = mode.parse_known_args(argv[2:])
    if extra:  # the full parser reports leftovers in its own words
        return _PARSER.parse_args(argv)
    args.command, args.mode = argv[:2]
    return args


def _emit(report: Report, args, start: float, code: int) -> int:
    report.timing = time.perf_counter() - start
    fmt = "json" if args is None else "plain" if args.plain else args.format
    return _flushed(code, report.to_json() if fmt == "json" else report.to_plain())


def _flushed(code: int, text: str | None = None) -> int:
    """Print ``text`` if given, flush stdout and return ``code``.  A reader
    that closed the pipe early cuts the output short but not the code:
    stdout then points at devnull, so that the interpreter's flush at exit
    stays quiet."""
    try:
        if text is not None:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main(argv=None) -> int:
    report = Report(command="")
    start = time.perf_counter()
    args = None  # a rejected command line is reported in JSON
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        limits = read_limits()
        globals()[args.runner](args, report, limits)
    except LimitExceeded as exc:
        report.status = "error"
        report.data["limit"] = str(exc)
        return _emit(report, args, start, 3)
    except (MemoryError, RecursionError) as exc:
        report.status = "error"
        detail = str(exc)
        report.data["limit"] = type(exc).__name__ + (f": {detail}" if detail else "")
        return _emit(report, args, start, 3)
    except InvariantError as exc:
        report.status = "error"
        report.data["invariant"] = str(exc)
        return _emit(report, args, start, 4)
    except SystemExit as exc:  # --help printed the help text
        return _flushed(exc.code if isinstance(exc.code, int) else 2)
    except (ValueError, KeyError, TypeError, OSError, UnsupportedOperation) as exc:
        report.status = "error"
        message = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        report.data["error"] = message
        return _emit(report, args, start, 2)
    report.finalize()
    return _emit(report, args, start, 0 if report.status == "pass" else 1)


if __name__ == "__main__":
    raise SystemExit(main())
