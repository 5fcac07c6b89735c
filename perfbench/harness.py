"""Running ops in-process through ``freenil.cli.main`` and checking them.

One process, one thread, a closed loop with one client: the next op
starts when the previous verdict is in.  Before every op the harness
clears every ``lru_cache`` at module level in ``freenil.*``, since each
real CLI invocation is a fresh process that starts with empty caches.
Only the ``main(argv)`` call, with stdout captured, is timed; the
checks run after the clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from workloads import IDENTITY_DEFECT

# What the identity-word defect looks like when it fires.
_DEFECT_SIGNATURES = {IDENTITY_DEFECT: (2, "amalgam tokens look like")}


def cache_functions():
    """Every module-level function in freenil.* that has cache_clear."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "freenil" or name.startswith("freenil."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and value not in found:
                    found.append(value)
    return found


def reset_caches():
    for fn in cache_functions():
        fn.cache_clear()


def report_digest(report: dict) -> str:
    """Digest of a report with its timing field dropped."""
    core = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(core, indent=2).encode()).hexdigest()[:16]


def op_key(op, files: dict) -> str:
    """Digest of everything the op reads: its argv and its input files' bytes."""
    payload = json.dumps([op.argv, [files[p] for p in op.files]])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def order_round(ops, rng):
    """One round in a seeded order that spreads each kind of op evenly.

    Ops with the same argv (or, for one-off ops, the same label) form a
    stratum; its members take evenly spaced, jittered positions, so a run
    cut off mid-round still sees roughly the round's size mix.
    """
    argv_count = Counter(tuple(op.argv) for op in ops)
    strata = defaultdict(list)
    for op in ops:
        argv = tuple(op.argv)
        strata[argv if argv_count[argv] > 1 else op.label].append(op)
    keyed = []
    for stratum in strata.values():
        members = stratum[:]
        rng.shuffle(members)
        for i, op in enumerate(members):
            keyed.append(((i + rng.random()) / len(members), op))
    keyed.sort(key=lambda pair: pair[0])
    return [op for _, op in keyed]


def run_op(cli, op):
    """Reset caches, then time one main(argv); returns (seconds, code, stdout, error)."""
    reset_caches()
    buf = io.StringIO()
    error = None
    code = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
    except Exception as exc:  # an op that raises is a failed verdict, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, code, buf.getvalue(), error


@dataclass
class Outcome:
    """Tally of one run's verdicts."""

    latencies: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    keys: list = field(default_factory=list)  # op key of each latency
    failures: list = field(default_factory=list)  # (label, argv head, reason, known defect)
    digests: dict = field(default_factory=dict)  # op key -> digest
    pinned_checked: int = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def unexpected(self):
        return [f for f in self.failures if not f[3]]


def check_op(op, key, code, out, error, pins, outcome: Outcome):
    """Return None if the verdict is right, else the reason it is not."""
    if error is not None:
        return f"raised {error}"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not one JSON report"
    digest = report_digest(report)
    if code != op.expect_exit:
        reason = f"exit {code}, expected {op.expect_exit}"
        detail = report.get("data", {}).get("error") or report.get("data", {}).get("limit")
        return f"{reason} ({detail})" if detail else reason
    problem = op.check(report) if op.check else None
    if problem:
        return problem
    seen = outcome.digests.setdefault(key, digest)
    if seen != digest:
        return "report differs from an earlier run of the same op"
    if key in pins:
        outcome.pinned_checked += 1
        if pins[key] != digest:
            return f"report digest {digest} differs from pinned {pins[key]}"
    return None


def is_known_defect(op, code, out):
    if op.known_defect is None:
        return False
    want_code, marker = _DEFECT_SIGNATURES[op.known_defect]
    return code == want_code and marker in out


def execute(cli, op, key, pins, outcome: Outcome):
    """Run one op, record its latency, and record it as failed if it is wrong."""
    seconds, code, out, error = run_op(cli, op)
    outcome.latencies.append(seconds)
    outcome.labels.append(op.label)
    outcome.keys.append(key)
    reason = check_op(op, key, code, out, error, pins, outcome)
    if reason is not None:
        known = error is None and is_known_defect(op, code, out)
        outcome.failures.append((op.label, " ".join(op.argv[:4]), reason,
                                 op.known_defect if known else None))
    return seconds


def median_per_op(outcome: Outcome):
    """Median latency of each op over its runs in this run, by op key.

    The same op (argv and input bytes) runs several times in a run.  Its
    median over those runs is steadier than any single run on a shared
    host, and a stall during one run does not spill onto other ops.
    """
    runs = defaultdict(list)
    for key, seconds in zip(outcome.keys, outcome.latencies):
        runs[key].append(seconds)
    return {key: statistics.median(values) for key, values in runs.items()}


def repeats_per_op(outcome: Outcome):
    """How many ops ran, and the fewest and median runs behind one op's median latency."""
    runs = Counter(outcome.keys)
    counts = sorted(runs.values())
    return {"ops": len(counts), "min": counts[0], "median": counts[len(counts) // 2]}


def rounds(ops, seed):
    """Endless seeded rounds over the op multiset."""
    r = 0
    while True:
        yield order_round(ops, random.Random(f"{seed}/{r}"))
        r += 1
