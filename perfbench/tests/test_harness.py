"""Tests for the benchmark harness itself.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import oracles  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# Percentiles and sample counts --------------------------------------------------

@pytest.mark.parametrize("n", [10, 11, 57, 100, 101])
def test_percentile_matches_statistics_quantiles(n):
    # from 10 samples up the p10 and p90 positions lie inside the sample range
    rng = random.Random(n)
    values = [rng.expovariate(1.0) for _ in range(n)]
    deciles = statistics.quantiles(values, n=10)
    assert stats.percentile(values, 0.5) == pytest.approx(statistics.median(values))
    assert stats.percentile(values, 0.9) == pytest.approx(deciles[8])
    assert stats.percentile(values, 0.1) == pytest.approx(deciles[0])


def test_percentile_clamps_to_the_sample_range():
    # statistics.quantiles extrapolates past the ends here; a latency cannot
    assert stats.percentile([3.0], 0.9) == 3.0
    assert stats.percentile([1.0, 2.0], 0.99) == 2.0
    assert stats.percentile([1.0, 2.0], 0.01) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_samples_beyond_the_p90():
    # 100 samples put the p90 at rank 90.9, leaving ranks 91..100 above it
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.samples_beyond(99, 0.9) == 9
    assert stats.samples_beyond(200, 0.9) == 20
    assert stats.samples_beyond(5, 0.9) == 0


def test_median_per_op_groups_runs_by_op_key():
    outcome = harness.Outcome(latencies=[0.5, 0.2, 0.3, 0.25, 0.1, 0.4],
                              keys=["a", "b", "a", "b", "c", "a"])
    assert harness.median_per_op(outcome) == {"a": 0.4, "b": 0.225, "c": 0.1}
    assert harness.repeats_per_op(outcome) == {"ops": 3, "min": 1, "median": 2}


def test_host_scale_follows_the_host_loop_near_each_op():
    import run

    outcome = harness.Outcome(latencies=[0.2, 0.2, 0.2], keys=["a", "b", "c"])
    ref = run.REFERENCE_HOST_LOOP_S
    # the host ran at reference speed, then twice as slow; op c ended far from both
    host = [(0.0, ref), (1.0, ref), (10.0, 2 * ref), (11.0, 2 * ref)]
    ends = [0.5, 10.5, 100.0]
    scaled = run.host_scaled(outcome, ends, host)
    assert scaled.latencies == pytest.approx([0.2, 0.1, 0.2 / 1.5])
    assert scaled.keys == outcome.keys


# Self time ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("outer", 0.0, 10.0, -1, 0),
        ("mid", 1.0, 6.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("leaf", 4.0, 5.5, 1, 0),
        ("mid", 7.0, 9.0, 0, 0),
    ]
    selfs = tracer.self_times()
    assert selfs["outer"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs["mid"] == pytest.approx((5.0 - 2.5) + 2.0)
    assert selfs["leaf"] == pytest.approx(2.5)
    # self times partition the root span
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_live_spans_nest_and_partition_time():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = tracer.spanned("leaf", leaf)

    def outer():
        time.sleep(0.002)
        traced_leaf()
        traced_leaf()

    tracer.spanned("outer", outer)()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    root = tracer.spans[0]
    selfs = tracer.self_times()
    assert selfs["outer"] + selfs["leaf"] == pytest.approx(root[2] - root[1])
    assert tracer.counts["leaf.calls"] == 2


# Per-op cache reset -------------------------------------------------------------

def test_reset_clears_every_freenil_cache():
    from freenil import syzygy

    found = harness.cache_functions()
    assert syzygy.kernel_pair in found and syzygy.pairwise_relation in found
    syzygy.pairwise_relation(0, 1, 2)
    assert syzygy.kernel_pair.cache_info().currsize > 0
    assert syzygy.pairwise_relation.cache_info().currsize > 0
    harness.reset_caches()
    assert syzygy.kernel_pair.cache_info().currsize == 0
    assert syzygy.pairwise_relation.cache_info().currsize == 0


def test_each_op_starts_from_empty_caches():
    import freenil.cli as cli
    from freenil import syzygy

    op = workloads.Op("vk", ["grouph", "verify-kernel", "--max-n", "3"])
    harness.run_op(cli, op)
    assert syzygy.kernel_pair.cache_info().currsize == 4
    syzygy.kernel_pair(6)
    harness.run_op(cli, op)
    # the earlier pair 6 was dropped before the op ran
    assert syzygy.kernel_pair.cache_info().currsize == 4


def test_tracing_reads_the_cache_installed_by_the_tracer():
    import freenil.cli as cli
    from freenil import syzygy

    original = syzygy.kernel_pair
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert syzygy.kernel_pair is not original
        assert cli.kernel_pair is syzygy.kernel_pair
        op = workloads.Op("vk", ["grouph", "verify-kernel", "--max-n", "3"])
        harness.run_op(cli, op)
        harness.run_op(cli, op)
    finally:
        tracer.uninstall()
    assert syzygy.kernel_pair is original and cli.kernel_pair is original
    # both ops computed pairs 0..3 afresh: the reset reached the traced cache
    assert tracer.counts["syzygy.kernel_pair.calls"] == 8
    assert tracer.counts["laurent.mul.calls"] > 0
    assert tracer.counts["cli.main.calls"] == 2


# Seeded inputs and digests ------------------------------------------------------

def _built(name, seed):
    return workloads.WORKLOADS[name](random.Random(f"{name}/{seed}"), f"perfbench/.work/test-{seed}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_one_op_list(name):
    a, b = _built(name, 3), _built(name, 3)
    assert [op.spec() for op in a.ops] == [op.spec() for op in b.ops]
    assert a.files == b.files
    order_a = harness.order_round(a.ops, random.Random("3/0"))
    order_b = harness.order_round(b.ops, random.Random("3/0"))
    assert [op.spec() for op in order_a] == [op.spec() for op in order_b]


@pytest.mark.parametrize("name", ["descent-collapse", "word-sieve", "nil-modules", "normal-forms"])
def test_another_seed_gives_other_inputs(name):
    build = workloads.WORKLOADS[name]
    a = build(random.Random(f"{name}/3"), "w")
    b = build(random.Random(f"{name}/4"), "w")
    # same paths for both seeds, so any difference is in argv or file bytes
    assert [op.argv for op in a.ops] != [op.argv for op in b.ops] or a.files != b.files


def test_fixed_size_workload_still_reorders_by_seed():
    ops = _built("kernel-relations", 1).ops
    first = harness.order_round(ops, random.Random("1/0"))
    other = harness.order_round(ops, random.Random("2/0"))
    assert [op.argv for op in first] != [op.argv for op in other]
    assert sorted(map(str, (op.argv for op in first))) == sorted(map(str, (op.argv for op in ops)))


def _digests(name, seed, tmp_path, count):
    import freenil.cli as cli

    built = workloads.WORKLOADS[name](random.Random(f"{name}/{seed}"), str(tmp_path))
    for path, text in built.files.items():
        Path(path).write_text(text)
    outcome = harness.Outcome()
    order = harness.order_round(built.ops, random.Random(f"{seed}/0"))
    cheap = [op for op in order if "--max-n" not in op.argv or int(op.argv[-1]) < 6][:count]
    for op in cheap:
        harness.execute(cli, op, harness.op_key(op, built.files), {}, outcome)
    return [op.spec() for op in cheap], outcome


@pytest.mark.parametrize("name", ["normal-forms", "nil-modules"])
def test_one_seed_gives_identical_digests(name, tmp_path):
    specs_a, a = _digests(name, 5, tmp_path, 40)
    specs_b, b = _digests(name, 5, tmp_path, 40)
    assert specs_a == specs_b
    assert a.digests and a.digests == b.digests
    assert not a.unexpected and not b.unexpected


def test_digest_ignores_only_timing():
    report = {"command": "x", "status": "pass", "items": [], "data": {}, "timing": {"seconds": 1}}
    same = dict(report, timing={"seconds": 2})
    other = dict(report, status="fail")
    assert harness.report_digest(report) == harness.report_digest(same)
    assert harness.report_digest(report) != harness.report_digest(other)


# Oracles ------------------------------------------------------------------------

def test_necklace_census_small_cases():
    # primitive rotation classes over {a,b}: a, b, ab, aab, abb, then 3 of length 4
    assert oracles.necklace_census(2, 4) == 8
    assert oracles.necklace_census(3, 2) == 6


def test_nil_index_on_a_shift():
    shift = {"units": ["u"], "base": "int", "dims": {"u": 3},
             "letters": [{"name": "f", "src": "u", "dst": "u",
                          "matrix": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}]}
    assert oracles.nil_index(shift) == 3
    shift["letters"][0]["matrix"][2][0] = 1
    assert oracles.nil_index(shift) is None


def test_planted_modules_match_brute_force():
    rng = random.Random(0)
    for i in range(20):
        nil = i % 3 != 0
        module = workloads.random_block_module(rng, 5, 1 + i % 3, "int" if i % 2 else "gf(3)",
                                               3, 2, nil)
        index = oracles.nil_index(module)
        assert (index is not None) == nil
        if nil:
            assert 1 <= index <= 3


@pytest.mark.parametrize("seed", [1, 2])
def test_identity_words_are_probes_not_timed_ops(seed):
    built = _built("normal-forms", seed)
    assert built.probes
    assert all(op.known_defect == workloads.IDENTITY_DEFECT for op in built.probes)
    assert all(op.known_defect is None for op in built.ops)
    # each identity word was redrawn, so every seed times 100 words per construction
    for name in ("dinf", "s3z2", "s4z4s4", "bs12"):
        assert sum(op.label == f"normalize-{name}" for op in built.ops) == 100


def test_known_defect_is_recognized_only_by_its_signature():
    op = workloads.Op("normalize-dinf", [], known_defect=workloads.IDENTITY_DEFECT)
    assert harness.is_known_defect(op, 2, '{"data": {"error": "amalgam tokens look like 1:ELEMENT"}}')
    assert not harness.is_known_defect(op, 4, '{"data": {"invariant": "x"}}')
    assert not harness.is_known_defect(workloads.Op("x", []), 2, "amalgam tokens look like")
