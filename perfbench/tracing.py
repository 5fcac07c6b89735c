"""Span and counter tracing of freenil's layers, from outside the package.

``Tracer.install`` wraps the public callables listed in TARGETS: module
functions (including every ``from x import y`` rebinding of them in other
freenil modules) and methods on their classes.  Nothing under src/ is
edited; ``uninstall`` puts every original back.

A spanned callable records (name, start, end, parent span, op index) in
memory; a counted callable only bumps its counter key.  Hot leaves whose
only metric is a call count (``Alphabet.sort_key`` runs census^2 times
per sieve) are counted, not spanned, so the traced run stays small.
Counters named in TARGETS are added at the same boundary.  Self time is a
span's duration minus the durations of its direct children; in one thread
children nest inside their parent and do not overlap, so that sum is the
time the children cover.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _terms(pair):
    return sum(len(a.coeffs) for side in pair for a in side.coeffs.values())


def _skew_layers(args, result):
    other = args[1]
    width = len(other.coeffs) if type(other).__name__ == "SkewLaurent" else 1
    return {"skewpoly.mul.layer_pairs": len(args[0].coeffs) * width}


def _rref_cells(args, result):
    a = args[0]
    return {"linalg.rref.cells": len(a) * (len(a[0]) if a else 0)}


# (module, attribute path, span name or counter key, kind, counter(args, result) -> {key: n})
# kind: "span"; "count" (bump the counter key only); "cached-span" (an
# lru_cache function whose misses are spanned, since hits do no work); or
# "parser" (building the argparse parser and parsing argv).
TARGETS = [
    ("freenil.cli", "main", "cli.main", "span", None),
    ("freenil.cli", "build_parser", "cli.parse", "parser", None),
    ("freenil.cli", "_load_construction", "store.load", "span", None),
    ("freenil.cli", "_load_nil", "store.load", "span", None),
    ("freenil.report", "Report.to_json", "report.render", "span",
     lambda a, r: {"report.bytes": len(r)}),
    ("freenil.report", "Report.to_plain", "report.render", "span",
     lambda a, r: {"report.bytes": len(r)}),
    ("freenil.laurent", "LaurentPoly.__mul__", "laurent.mul", "span",
     lambda a, r: {"laurent.mul.term_pairs": len(a[0].coeffs) * len(a[1].coeffs),
                   "laurent.mul.out_terms": len(r.coeffs)}),
    ("freenil.skewpoly", "SkewLaurent.__mul__", "skewpoly.mul", "span", _skew_layers),
    ("freenil.skewpoly", "format_skew", "skewpoly.format", "span", None),
    ("freenil.syzygy", "kernel_pair", "syzygy.kernel_pair", "cached-span",
     lambda a, r: {"syzygy.kernel_pair.terms": _terms(r)}),
    ("freenil.syzygy", "defining_map", "syzygy.defining_map", "span", None),
    ("freenil.syzygy", "RelationVector.__post_init__", "syzygy.relation_check", "span", None),
    ("freenil.syzygy", "ideal_decompose", "syzygy.ideal_decompose", "span", None),
    ("freenil.syzygy", "reduce_step", "syzygy.reduce_step", "span", None),
    ("freenil.syzygy", "collapse_certificate", "syzygy.collapse_certificate", "span", None),
    ("freenil.words", "sieve", "words.sieve", "span",
     lambda a, r: {"words.emitted": len(r[1])}),
    ("freenil.words", "Alphabet.sort_key", "words.sort_key.calls", "count", None),
    ("freenil.words", "prefix_extensions", "words.prefix_extensions", "span",
     lambda a, r: {"words.prefix_extensions.out_words": len(r)}),
    ("freenil.words", "primitive_classes", "words.primitive_classes", "span", None),
    ("freenil.words", "verify_admissible", "words.verify_admissible", "span", None),
    ("freenil.linalg", "rref", "linalg.rref", "span", _rref_cells),
    ("freenil.linalg", "right_nullspace", "linalg.nullspace", "span", None),
    ("freenil.linalg", "left_nullspace", "linalg.nullspace", "span", None),
    ("freenil.linalg", "in_rowspan", "linalg.in_rowspan.calls", "count", None),
    ("freenil.linalg", "mat_mul", "linalg.mat_mul", "span", None),
    ("freenil.nilobj", "is_nilpotent", "nilobj.is_nilpotent", "span",
     lambda a, r: {"nilobj.chain_layers": len(r.filtration.subspaces)}),
    ("freenil.nilobj", "filtration_items", "nilobj.filtration_items", "span", None),
    ("freenil.nilobj", "word_matrix", "nilobj.word_matrix.calls", "count", None),
    ("freenil.nilobj", "restrict_diagonal", "nilobj.transport", "span", None),
    ("freenil.nilobj", "fold_through", "nilobj.transport", "span", None),
    ("freenil.nilobj", "word_twist", "nilobj.transport", "span", None),
    ("freenil.groups", "group_from_dict", "groups.build", "span", None),
    ("freenil.amalgam", "Amalgam.normalize", "amalgam.normalize", "span", None),
    ("freenil.hnn", "HNN.normalize", "hnn.normalize", "span", None),
    ("freenil.hnn", "_find_pinch", "hnn.pinch_scans", "count", None),
    ("freenil.groupring", "grade_decompose", "groupring.grade_decompose", "span", None),
    ("freenil.cosets", "double_cosets", "cosets.double_cosets", "span", None),
]

# The per-layer metrics the traced run reports, in BENCHMARK.json order.
LAYER_METRICS = [
    ("laurent.mul.calls", "count"), ("laurent.mul.self_s", "s"),
    ("laurent.mul.term_pairs", "count"), ("laurent.mul.out_terms", "count"),
    ("skewpoly.mul.calls", "count"), ("skewpoly.mul.self_s", "s"),
    ("skewpoly.mul.layer_pairs", "count"), ("skewpoly.format.self_s", "s"),
    ("syzygy.kernel_pair.self_s", "s"), ("syzygy.kernel_pair.terms", "count"),
    ("syzygy.defining_map.calls", "count"), ("syzygy.defining_map.self_s", "s"),
    ("syzygy.relation_check.calls", "count"), ("syzygy.relation_check.self_s", "s"),
    ("syzygy.ideal_decompose.self_s", "s"),
    ("syzygy.reduce_step.calls", "count"), ("syzygy.reduce_step.self_s", "s"),
    ("syzygy.collapse_certificate.self_s", "s"),
    ("words.sieve.self_s", "s"), ("words.sort_key.calls", "count"),
    ("words.prefix_extensions.out_words", "count"), ("words.emitted", "count"),
    ("words.primitive_classes.self_s", "s"), ("words.verify_admissible.self_s", "s"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"), ("linalg.rref.cells", "count"),
    ("linalg.nullspace.self_s", "s"), ("linalg.in_rowspan.calls", "count"),
    ("linalg.mat_mul.calls", "count"), ("linalg.mat_mul.self_s", "s"),
    ("nilobj.is_nilpotent.calls", "count"), ("nilobj.is_nilpotent.self_s", "s"),
    ("nilobj.chain_layers", "count"), ("nilobj.filtration_items.self_s", "s"),
    ("nilobj.word_matrix.calls", "count"), ("nilobj.transport.self_s", "s"),
    ("groups.build.self_s", "s"),
    ("amalgam.normalize.calls", "count"), ("amalgam.normalize.self_s", "s"),
    ("hnn.normalize.calls", "count"), ("hnn.normalize.self_s", "s"),
    ("hnn.pinch_scans", "count"),
    ("groupring.grade_decompose.self_s", "s"), ("cosets.double_cosets.self_s", "s"),
    ("store.load.self_s", "s"), ("cli.parse.self_s", "s"), ("cli.main.self_s", "s"),
    ("report.render.self_s", "s"), ("report.bytes", "count"),
    ("trace.spans", "count"), ("trace.overhead", "ratio"),
]


def _freenil_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "freenil" or name.startswith("freenil.")]


class Tracer:
    """In-memory spans and counters; one instance per traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op index)
        self.stack = []
        self.counts = defaultdict(int)
        self.op = -1
        self._undo = []

    # Recording ---------------------------------------------------------------

    def spanned(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            counts[calls] += 1
            if counter is not None:
                for key, n in counter(args, result).items():
                    counts[key] += n
            return result

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Installing --------------------------------------------------------------

    def _wrap(self, name, kind, fn, counter):
        if kind == "count":
            return self.counted(name, fn)
        if kind == "cached-span":
            return functools.lru_cache(maxsize=None)(self.spanned(name, fn.__wrapped__, counter))
        if kind == "parser":
            # building the parser and parsing argv both count as cli.parse
            build = self.spanned(name, fn)

            def build_parser():
                parser = build()
                parser.parse_args = self.spanned(name, parser.parse_args)
                return parser

            return build_parser
        return self.spanned(name, fn, counter)

    def install(self):
        import freenil.cli  # noqa: F401  (loads every module the CLI reaches)

        modules = _freenil_modules()
        for module_name, path, name, kind, counter in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, kind, original, counter)
            if cls_path:
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # Summaries ---------------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def layer_metrics(self, rounds: int, overhead: float):
        """Every LAYER_METRICS value, per traced round."""
        selfs = self.self_times()
        values = {}
        for metric, unit in LAYER_METRICS:
            if metric == "trace.overhead":
                value = overhead
            elif metric == "trace.spans":
                value = len(self.spans) / rounds
            elif metric.endswith(".self_s"):
                value = selfs.get(metric[: -len(".self_s")], 0.0) / rounds
            else:
                value = self.counts.get(metric, 0) / rounds
            values[metric] = {"value": value, "unit": unit}
        return values

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
