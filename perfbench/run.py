"""freenil benchmark: shipped CLI commands as timed, checked verdicts.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kernel-relations --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, its
op timings scaled to a reference host speed (see README.md);
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds
the run's provenance, which is also written under perfbench/.out/.

``--pin`` records the report digests of the passing ops of this
workload and seed into perfbench/digests.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
HOST_EVERY_S = 0.2
HOST_WINDOW_S = 2.0
# Median host_loop() time on the 2-vCPU host of the baseline (50 runs,
# Python 3.11).  Op timings are scaled to a host whose loop takes this long.
REFERENCE_HOST_LOOP_S = 0.0045
PINS = HERE / "digests.json"
OUT = HERE / ".out"
KNOWN_DEFECTS = {
    "identity-word-reparse": 'algebra normalize over an amalgam exits 2 when the normal form is '
                             'the identity: it renders as "1" and the reparse check rejects it',
    "collapse-growth": "grouph collapse grows about x2.7 per stage; --max-n 16 took 539 s "
                       "while the n ceiling is 64",
    "nil-check-memory": "algebra nil-check enumerates every typed word of length index; near "
                        "total dimension 24 it runs out of memory",
}


def workdir(workload, seed):
    return f"perfbench/.work/{workload}-{seed}"


def build(workload, seed):
    """Import the CLI, generate the inputs, and write the input files."""
    import freenil.cli as cli

    built = WORKLOADS[workload](random.Random(f"{workload}/{seed}"), workdir(workload, seed))
    for rel, text in built.files.items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return cli, built


def measure_setup(args):
    """Median wall time of SETUP_REPEATS fresh processes doing build()."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return statistics.median(times), times


def host_loop():
    """Time one fixed pure-Python sparse product; tracks how fast the host runs.

    freenil is not involved, so a change here between runs is the host's,
    not the program's.  It is the same kind of work as freenil's: small
    dicts keyed by tuples, integer products and a sort.
    """
    start = perf_counter()
    a = {(i, -i % 7): 3 * i + 1 for i in range(60)}
    b = {(i % 11, i): 2 * i - 5 for i in range(60)}
    out = {}
    for (x1, y1), c1 in a.items():
        for (x2, y2), c2 in b.items():
            key = (x1 + x2, y1 + y2)
            out[key] = out.get(key, 0) + c1 * c2
    sorted(out.items())
    return perf_counter() - start


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def load_pins():
    if PINS.is_file():
        return json.loads(PINS.read_text())
    return {}


def run_probes(cli, built, pins):
    """Run each known-defect probe once, untimed, before the timed loop."""
    outcome = harness.Outcome()
    for op in built.probes:
        harness.execute(cli, op, harness.op_key(op, built.files), pins, outcome)
    return outcome


def run_untraced(cli, built, args, pins):
    """Rounds until the time is up; the first round always completes.

    Before the first op and then between ops, about every HOST_EVERY_S,
    it times host_loop().  Returns the outcome, when each op ended, and
    the host samples as (when, seconds) pairs.
    """
    outcome = harness.Outcome()
    keys = {id(op): harness.op_key(op, built.files) for op in built.ops}
    ends = []
    host = [(perf_counter(), host_loop())]
    start = perf_counter()
    for n_round, order in enumerate(harness.rounds(built.ops, args.seed)):
        for op in order:
            harness.execute(cli, op, keys[id(op)], pins, outcome)
            now = perf_counter()
            ends.append(now)
            if now - host[-1][0] >= HOST_EVERY_S:
                host.append((perf_counter(), host_loop()))
            if n_round and now - start >= args.seconds:
                return outcome, ends, host
        if perf_counter() - start >= args.seconds:
            return outcome, ends, host


def host_scaled(outcome, ends, host):
    """The outcome with each latency scaled to the reference host speed.

    An op's scale is REFERENCE_HOST_LOOP_S over the median host_loop()
    time within HOST_WINDOW_S of the op's end, so it follows the host
    through a run as well as between runs.
    """
    when = [t for t, _ in host]
    times = [seconds for _, seconds in host]
    scaled = []
    for end, seconds in zip(ends, outcome.latencies):
        near = times[bisect_left(when, end - HOST_WINDOW_S):bisect_right(when, end + HOST_WINDOW_S)]
        scaled.append(seconds * REFERENCE_HOST_LOOP_S / statistics.median(near or times))
    return harness.Outcome(latencies=scaled, keys=outcome.keys)


def run_traced(cli, built, args, pins):
    """Untraced and traced passes over the same rounds; whole rounds only."""
    from tracing import Tracer

    tracer = Tracer()
    outcome = harness.Outcome()
    keys = {id(op): harness.op_key(op, built.files) for op in built.ops}
    plain = traced = 0.0
    n_rounds = 0
    start = perf_counter()

    def traced_pass(order):
        tracer.install()
        try:
            busy = 0.0
            for op in order:
                tracer.op += 1
                busy += harness.execute(cli, op, keys[id(op)], pins, outcome)
            return busy
        finally:
            tracer.uninstall()

    for order in harness.rounds(built.ops, args.seed):
        # alternate which pass goes first, so drift in machine speed cancels
        if n_rounds % 2:
            traced += traced_pass(order)
        plain += sum(harness.execute(cli, op, keys[id(op)], pins, outcome) for op in order)
        if not n_rounds % 2:
            traced += traced_pass(order)
        n_rounds += 1
        if perf_counter() - start >= args.seconds:
            break
    # both passes ran the same ops, so busy time compares like for like
    overhead = traced / plain - 1.0
    return outcome, tracer.layer_metrics(n_rounds, overhead), tracer, n_rounds


def per_label(outcome):
    """Count and median latency of each kind of op."""
    by = {}
    for label, seconds in zip(outcome.labels, outcome.latencies):
        by.setdefault(label, []).append(seconds)
    return {k: [len(v), statistics.median(v)] for k, v in sorted(by.items())}


def latency_summary(lat):
    return {"ops_per_s": len(lat) / sum(lat),
            "op_s.p50": stats.percentile(lat, 0.5),
            "op_s.p90": stats.percentile(lat, 0.9)}


def mix_latencies(outcome, built):
    """One round of the mix, each op at the median latency of its runs.

    Weighting by the round's mix, not by how often each op happened to
    run, keeps the size mix fixed when a run ends part way through a round.
    """
    per_op = harness.median_per_op(outcome)
    return [per_op[harness.op_key(op, built.files)] for op in built.ops]


def end_to_end(mix, setup_s):
    summary = latency_summary(mix)
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for name, unit in (("ops_per_s", "1/s"), ("op_s.p50", "s"), ("op_s.p90", "s")):
        metrics[name] = {"value": summary[name], "unit": unit}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record the digests of this run's passing ops")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "freenil" / "cli.py").is_file():
        print(f"no freenil sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        build(args.workload, args.seed)
        return 0

    host_loop_s = None
    setup_s, setup_samples = measure_setup(args)
    cli, built = build(args.workload, args.seed)
    pins = load_pins().get(args.workload, {})
    probes = run_probes(cli, built, pins)
    if args.trace:
        outcome, metrics, tracer, n_rounds = run_traced(cli, built, args, pins)
    else:
        outcome, ends, host = run_untraced(cli, built, args, pins)
        host_median = statistics.median(seconds for _, seconds in host)
        host_loop_s = {"median": host_median, "samples": len(host),
                       "reference": REFERENCE_HOST_LOOP_S,
                       "measured_mix": latency_summary(mix_latencies(outcome, built))}
        metrics = end_to_end(mix_latencies(host_scaled(outcome, ends, host), built), setup_s)

    n = outcome.attempted
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "commit": git_commit(),
        "load": "closed loop, 1 client, 1 thread, in-process freenil.cli.main",
        "ops_attempted": n,
        "ops_failed": len(outcome.failures),
        "fail_ratio": len(outcome.failures) / n,
        "latency_samples": n,
        "ops_per_round": len(built.ops),
        "p90_samples_beyond": stats.samples_beyond(n, 0.9),
        "runs_per_op": harness.repeats_per_op(outcome),
        "every_run_latency": latency_summary(outcome.latencies),
        "setup_samples_s": setup_samples,
        "host_loop_s": host_loop_s,
        "per_label": per_label(outcome),
        "digests_pinned_checked": outcome.pinned_checked,
        "failures": [list(f) for f in outcome.failures[:20]],
        "known_defects_hit": sorted({f[3] for f in outcome.failures + probes.failures if f[3]}),
        "known_defect_probes": {"attempted": probes.attempted, "failed": len(probes.failures),
                                "failures": [list(f) for f in probes.failures[:5]]},
        "known_defects": KNOWN_DEFECTS,
        "wait_time": "none recorded: no layer has queues, waits or retries",
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    if args.trace:
        provenance["traced_rounds"] = n_rounds
        provenance["spans_file"] = f"perfbench/.out/spans-{stem}.tsv"
        tracer.write(ROOT / provenance["spans_file"])
    if args.pin:
        all_pins = load_pins()
        all_pins.setdefault(args.workload, {}).update(outcome.digests)
        PINS.write_text(json.dumps(all_pins, indent=0, sort_keys=True) + "\n")

    result = {
        "correct": not outcome.unexpected and not probes.unexpected,
        "attempted": n,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"provenance": provenance, "result": result}, indent=2) + "\n")
    print(json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
