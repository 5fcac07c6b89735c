"""End-to-end command-line coverage, driven in-process through main().

Covers the full exit-code contract (0 pass, 1 check failure, 2 usage or
parse error, 3 resource ceiling, 4 invariant violation), the worked
command lines with their frozen outputs, report reproducibility, and the
FREENIL_LIMITS ceilings.
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from random import Random
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from freenil import cli, linalg, nilobj, store, syzygy
from freenil.cli import Limits, main, read_limits
from freenil.errors import InvariantError
from freenil.groups import EXPONENT_DIGITS_BUDGET
from freenil.skewpoly import SkewLaurent
from freenil.words import Alphabet, cyclic_canonical

from nil_helpers import brute_index, brute_nilpotent


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def item_names(payload):
    return [it["name"] for it in payload["items"]]


@pytest.fixture()
def non_nilpotent_file(tmp_path):
    path = tmp_path / "idem.json"
    path.write_text(
        json.dumps(
            {
                "units": ["u"],
                "base": "int",
                "dims": {"u": 1},
                "letters": [{"name": "e", "src": "u", "dst": "u", "matrix": [[1]]}],
            }
        )
    )
    return str(path)


class TestWords:
    def test_sieve_two_letters_bound_four(self, capsys):
        code, payload = run_json(capsys, "words", "sieve", "-I", "a,b", "-L", "4")
        assert code == 0
        assert payload["status"] == "pass"
        assert payload["data"]["count"] == 8
        assert len(payload["data"]["words"]) == 8

    def test_sieve_agrees_with_enumerate(self, capsys):
        _, sieved = run_json(capsys, "words", "sieve", "-I", "a,b", "-L", "5")
        _, listed = run_json(capsys, "words", "enumerate", "-I", "a,b", "-L", "5")
        alphabet = Alphabet(("a", "b"))
        canon = lambda ws: sorted(cyclic_canonical(alphabet.encode(w)) for w in ws)
        assert canon(sieved["data"]["words"]) == canon(listed["data"]["words"])

    def test_enumerate_single_letter(self, capsys):
        code, payload = run_json(capsys, "words", "enumerate", "-I", "a", "-L", "3")
        assert code == 0
        assert payload["data"]["count"] == 1
        assert payload["data"]["words"] == ["a"]

    def test_empty_alphabet_is_usage_error(self, capsys):
        code, payload = run_json(capsys, "words", "sieve", "-I", "", "-L", "2")
        assert code == 2
        assert payload["status"] == "error"
        assert "error" in payload["data"]

    @pytest.mark.parametrize("mode", ["sieve", "verify", "enumerate"])
    def test_letter_that_begins_another_is_usage_error(self, capsys, mode):
        # The letter "ab" and the word a.b would print alike.  L = 16 over
        # three letters is over the census budget, so exit 2 shows that the
        # alphabet is checked first.
        code = main(["words", mode, "-I", "a,ab,b", "-L", "16"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert payload["status"] == "error" and payload["items"] == []
        assert "'a' begins letter 'ab'" in payload["data"]["error"]

    def test_prefix_free_multi_character_alphabet_runs(self, capsys):
        code, payload = run_json(capsys, "words", "enumerate", "-I", "x1,x2,y", "-L", "2")
        assert code == 0
        assert payload["data"]["words"] == ["x1", "x2", "y", "x1x2", "x1y", "x2y"]
        code, payload = run_json(capsys, "words", "sieve", "-I", "y,x2,x1", "-L", "4", "--verify")
        assert code == 0
        assert payload["status"] == "pass" and payload["data"]["count"] == 32

    def test_zero_bound_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "words", "sieve", "-I", "a,b", "-L", "0")
        assert code == 2

    def test_verify_mode_runs_admissibility_checks(self, capsys):
        code, payload = run_json(capsys, "words", "verify", "-I", "a,b", "-L", "5")
        assert code == 0
        assert "no class missing" in item_names(payload)
        assert "no class extraneous" in item_names(payload)

    def test_sieve_verify_flag(self, capsys):
        code, payload = run_json(
            capsys, "words", "sieve", "-I", "a,b", "-L", "6", "--verify"
        )
        assert code == 0
        assert payload["status"] == "pass"
        assert "class count" in item_names(payload)

    def test_bound_ceiling_exits_three(self, capsys, monkeypatch):
        monkeypatch.setenv("FREENIL_LIMITS", "l=4")
        code, payload = run_json(capsys, "words", "sieve", "-I", "a,b", "-L", "9")
        assert code == 3
        assert payload["status"] == "error"
        assert "ceiling" in payload["data"]["limit"]

    def test_work_budget_exits_three_before_enumerating(self, capsys):
        # Within l=16, but the class census (4,180,416) is over the budget.
        start = perf_counter()
        code, out = run_cli(capsys, "words", "verify", "-I", "a,b,c", "-L", "16")
        assert perf_counter() - start < 1.0
        assert code == 3
        assert "Traceback" not in out
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["command"] == "words verify -I a,b,c -L 16"
        assert payload["items"] == []
        assert "class census" in payload["data"]["limit"]

    @pytest.mark.parametrize("mode", ["verify", "enumerate"])
    def test_census_budget_bounds_every_mode(self, capsys, mode):
        # 3 letters at L = 13: a census of 192,346, just inside the budget.
        code, out = run_cli(capsys, "words", mode, "-I", "a,b,c", "-L", "13")
        assert code == 0
        assert "Traceback" not in out
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["data"]["count"] == 192_346
        assert payload["items"] and all(it["ok"] for it in payload["items"])

    def test_equal_letter_ranks_exit_four(self, capsys, monkeypatch):
        # a non-injective letter rank puts one word in a sieve bucket twice,
        # which the sieve's duplicate recheck reports
        real = Alphabet.__init__

        def shared_rank(self, letters):
            real(self, letters)
            self._rank["b"] = self._rank["a"]

        monkeypatch.setattr(Alphabet, "__init__", shared_rank)
        code, payload = run_json(capsys, "words", "sieve", "-I", "a,b", "-L", "3")
        assert code == 4
        assert payload["status"] == "error"
        assert "sieve word a is twice in its length-1 bucket" in payload["data"]["invariant"]


class TestGrouph:
    def test_verify_kernel_thirteen_checks(self, capsys):
        code, payload = run_json(capsys, "grouph", "verify-kernel", "--max-n", "12")
        assert code == 0
        assert payload["status"] == "pass"
        assert len(payload["items"]) == 13
        assert all(it["ok"] for it in payload["items"])

    def test_verify_kernel_negative_bound(self, capsys):
        code, _ = run_cli(capsys, "grouph", "verify-kernel", "--max-n", "-1")
        assert code == 2

    def test_relations_pass(self, capsys):
        code, payload = run_json(capsys, "grouph", "relations", "--max-q", "10")
        assert code == 0
        assert payload["status"] == "pass"

    def test_relations_negative_bound(self, capsys):
        code, _ = run_cli(capsys, "grouph", "relations", "--max-q", "-3")
        assert code == 2

    def test_reduce_random_vectors(self, capsys):
        code, payload = run_json(
            capsys, "grouph", "reduce", "--arity", "4", "--count", "6", "--seed", "1"
        )
        assert code == 0
        assert len(payload["items"]) == 6

    def test_reduce_supplied_pairs(self, capsys):
        code, payload = run_json(
            capsys, "grouph", "reduce", "--arity", "5", "--pair", "0,2", "--pair", "1,3"
        )
        assert code == 0
        assert payload["data"]["trace"][-1] == "zero"
        assert all(it["ok"] for it in payload["items"])

    def test_reduce_malformed_pair(self, capsys):
        code, _ = run_cli(capsys, "grouph", "reduce", "--arity", "4", "--pair", "2")
        assert code == 2

    def test_reduce_pair_out_of_range(self, capsys):
        code, _ = run_cli(capsys, "grouph", "reduce", "--arity", "3", "--pair", "2,1")
        assert code == 2

    @pytest.mark.parametrize("pair, error", [
        ("0,0_3", "--pair takes P,Q"),
        (" 0, 3", "--pair takes P,Q"),
        ("+0,3", "--pair takes P,Q"),
        ("٠,٣", "--pair takes P,Q"),  # Arabic-Indic zero and three
        ("--1,3", "--pair takes P,Q"),
        ("0,", "--pair takes P,Q"),
        ("-1,3", "need 0 <= p < q < n"),
    ])
    def test_reduce_pair_fields_are_ascii_integers(self, capsys, pair, error):
        # each field is an optional '-' then ASCII digits, as exponents are read
        code, payload = run_json(capsys, "grouph", "reduce", "--arity", "4", f"--pair={pair}")
        assert code == 2
        assert payload["data"]["error"].startswith(error)

    def test_collapse_images(self, capsys):
        code, payload = run_json(capsys, "grouph", "collapse", "--max-n", "3")
        assert code == 0
        images = payload["data"]["images"]
        assert [img["image"] for img in images] == ["0", "0", "0", "1"]

    def test_collapse_samples_budget_exits_three_before_any_work(self, capsys, monkeypatch):
        # Within FREENIL_LIMITS (n=64), but every stage collapses each sample.
        over = cli.COLLAPSE_SAMPLES_BUDGET // 8 + 1
        monkeypatch.setattr(syzygy, "collapse_certificate", None)  # no stage may run
        start = perf_counter()
        code, out = run_cli(capsys, "grouph", "collapse", "--max-n", "8", "--samples", str(over))
        assert perf_counter() - start < 1.0
        assert code == 3
        assert "Traceback" not in out
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["command"] == f"grouph collapse --max-n 8 --samples {over} --seed 7"
        assert payload["items"] == []
        assert payload["data"]["limit"] == (
            f"samples x stages {8 * over} exceeds the configured ceiling "
            f"{cli.COLLAPSE_SAMPLES_BUDGET}; this work budget is fixed"
        )

    def test_collapse_at_the_samples_budget_finishes(self, capsys):
        # 37,500 draws per stage, but at most 625 distinct products per index
        syzygy._sample_collapses.cache_clear()
        start = perf_counter()
        code, payload = run_json(capsys, "grouph", "collapse", "--max-n", "8", "--samples", "37500")
        assert perf_counter() - start < 4.0
        assert code == 0
        assert 8 * 37500 == cli.COLLAPSE_SAMPLES_BUDGET
        assert payload["status"] == "pass"

    def test_collapse_at_the_samples_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "COLLAPSE_SAMPLES_BUDGET", 3 * 5)
        code, payload = run_json(capsys, "grouph", "collapse", "--max-n", "3", "--samples", "5")
        assert code == 0
        assert payload["status"] == "pass"
        code, payload = run_json(capsys, "grouph", "collapse", "--max-n", "3", "--samples", "6")
        assert code == 3

    def test_kernel_ceiling_exits_three(self, capsys, monkeypatch):
        monkeypatch.setenv("FREENIL_LIMITS", "n=5")
        code, payload = run_json(capsys, "grouph", "verify-kernel", "--max-n", "12")
        assert code == 3
        assert payload["command"] == "grouph verify-kernel --max-n 12"

    def test_reduce_arity_budget_exits_three_before_any_work(self, capsys, monkeypatch):
        # The FREENIL_LIMITS n ceiling (64) is the only bound on the arity.
        monkeypatch.setattr(syzygy, "reduce_pair_sum", None)  # no descent may run
        arity = cli.Limits().n + 1
        start = perf_counter()
        code, out = run_cli(
            capsys, "grouph", "reduce", "--arity", str(arity), "--pair", f"{arity - 2},{arity - 1}"
        )
        assert perf_counter() - start < 1.0
        assert code == 3
        assert "Traceback" not in out
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["command"] == f"grouph reduce --arity {arity} --pair {arity - 2},{arity - 1}"
        assert payload["items"] == []
        assert payload["data"]["limit"] == (
            "arity 65 exceeds the configured ceiling 64; set FREENIL_LIMITS to go higher")

    @pytest.mark.parametrize("how", ["count", "pair"])
    def test_reduce_relations_budget_exits_three_before_any_work(self, capsys, how):
        over = cli.REDUCE_RELATIONS_BUDGET + 1
        tail = ["--count", str(over)] if how == "count" else ["--pair", "12,13"] * over
        start = perf_counter()
        code, out = run_cli(capsys, "grouph", "reduce", "--arity", "14", *tail)
        assert perf_counter() - start < 1.0
        assert code == 3
        assert "Traceback" not in out
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["command"].startswith("grouph reduce --arity 14 ")
        assert payload["items"] == []
        assert f"relation count {over}" in payload["data"]["limit"]
        assert "fixed" in payload["data"]["limit"]

    def test_reduce_at_the_relations_budget(self, capsys):
        # 200 flags cycling through all 45 pairs; the sum is validated once.
        pairs = [f"{p},{q}" for q in range(1, 10) for p in range(q)]
        flags = (pairs * 5)[: cli.REDUCE_RELATIONS_BUDGET]
        start = perf_counter()
        code, payload = run_json(
            capsys, "grouph", "reduce", "--arity", "10", *[x for f in flags for x in ("--pair", f)]
        )
        assert perf_counter() - start < 3.0
        assert code == 0
        assert payload["data"]["trace"][-1] == "zero"

    def test_reduce_at_the_arity_budget(self, capsys, cold_caches):
        # At the n ceiling, 200 random chains; in x-coordinates arity 20 took
        # 27 s, and the fixed arity budget stopped at 14.
        arity = cli.Limits().n
        start = perf_counter()
        code, payload = run_json(
            capsys, "grouph", "reduce", "--arity", str(arity), "--count", "200", "--seed", "0"
        )
        assert perf_counter() - start < 6.0
        assert code == 0
        assert len(payload["items"]) == 200 and all(it["ok"] for it in payload["items"])
        code, payload = run_json(
            capsys, "grouph", "reduce", "--arity", str(arity), "--pair", f"{arity - 2},{arity - 1}"
        )
        assert code == 0
        assert payload["data"]["trace"][-1] == "zero"

    def test_verify_kernel_at_the_ceiling(self, capsys, cold_caches):
        # A cold run, as a fresh process makes it: the pairs and their pieces built.
        start = perf_counter()
        code, payload = run_json(capsys, "grouph", "verify-kernel", "--max-n", "64")
        assert perf_counter() - start < 2.0
        assert code == 0
        assert len(payload["items"]) == 65
        assert all(it["got"] == "0" for it in payload["items"])

    def test_relations_at_the_ceiling(self, capsys, cold_caches):
        start = perf_counter()
        code, payload = run_json(capsys, "grouph", "relations", "--max-q", "64")
        assert perf_counter() - start < 6.0
        assert code == 0
        assert len(payload["items"]) == 64 * 65
        assert all(it["ok"] for it in payload["items"])

    def test_invariant_violation_exits_four(self, capsys, monkeypatch):
        def broken(n):
            raise InvariantError("forced for the exit-code contract")

        monkeypatch.setattr("freenil.syzygy.kernel_pair_y", broken)
        code, payload = run_json(capsys, "grouph", "verify-kernel", "--max-n", "2")
        assert code == 4
        assert payload["status"] == "error"
        assert "invariant" in payload["data"]

    def test_broken_pairwise_relation_exits_four(self, capsys, monkeypatch):
        # A library-built relation that fails its proof is an invariant
        # violation, not an input error.
        # The descent reads each relation in y.
        real = syzygy.pairwise_relation_y

        def broken(p, q):
            c = dict(real(p, q))
            c[q] = c[q] + SkewLaurent.t(5)
            return c

        monkeypatch.setattr(syzygy, "pairwise_relation_y", broken)
        code, payload = run_json(capsys, "grouph", "reduce", "--arity", "3", "--pair", "0,2")
        assert code == 4
        assert payload["status"] == "error"
        assert "not a relation" in payload["data"]["invariant"]
        assert "error" not in payload["data"]

    def test_failed_pairwise_proof_exits_four(self, capsys, monkeypatch):
        def refuted(c):
            raise ValueError("not a relation: forced")

        syzygy.pairwise_relation_y.cache_clear()  # reach the proof
        monkeypatch.setattr(syzygy, "_check_relation_y", refuted)
        code, payload = run_json(capsys, "grouph", "relations", "--max-q", "2")
        assert code == 4
        assert payload["items"] == []
        assert "pairwise relation (0,1)" in payload["data"]["invariant"]


class TestNormalize:
    def test_stable_letter_conjugation(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "normalize", "--hnn", "bs12", "--word", "T- a T+"
        )
        assert code == 0
        assert payload["data"]["normal_form"] == "a^2"

    def test_reduced_word_survives(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "normalize", "--hnn", "bs12", "--word", "T+ a T-"
        )
        assert code == 0
        assert payload["data"]["normal_form"] == "T+ a T-"
        assert payload["data"]["sequence"] == [2, 2]

    def test_amalgam_cancellation(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "normalize", "--amalgam", "dinf",
            "--word", "1:s 2:r 1:s 1:s 2:r",
        )
        assert code == 0
        assert payload["data"]["normal_form"] == "1:s"

    @pytest.mark.parametrize("sample,word", [
        ("dinf", "1:s 1:s"),
        ("s3z2", "1:(12) 2:r"),
    ])
    def test_amalgam_identity_reparses(self, capsys, sample, word):
        code, payload = run_json(
            capsys, "algebra", "normalize", "--amalgam", sample, "--word", word
        )
        assert code == 0
        assert payload["status"] == "pass"
        assert payload["data"]["normal_form"] == "1"
        code, again = run_json(
            capsys, "algebra", "normalize", "--amalgam", sample, "--word", "1"
        )
        assert code == 0
        assert again["data"]["normal_form"] == "1"
        assert again["data"]["sequence"] == []

    def test_unknown_element_is_parse_error(self, capsys):
        code, _ = run_cli(
            capsys, "algebra", "normalize", "--hnn", "bs12", "--word", "b"
        )
        assert code == 2

    @staticmethod
    def finite_hnn_file(tmp_path, names):
        """An HNN extension of a cyclic base over the trivial subgroup."""
        n = len(names)
        trivial = {"kind": "finite", "generator_images": {}}
        path = tmp_path / "hnn.json"
        path.write_text(json.dumps({
            "construction": "hnn",
            "subgroup": {"kind": "finite", "names": ["1"], "table": [[0]]},
            "base": {"kind": "finite", "names": list(names),
                     "table": [[(i + j) % n for j in range(n)] for i in range(n)]},
            "alpha": trivial,
            "beta": trivial,
        }))
        return str(path)

    @pytest.mark.parametrize("word", ["T+ T-", "s s", "1"])
    def test_hnn_identity_reparses_with_base_identity_e(self, capsys, tmp_path, word):
        path = self.finite_hnn_file(tmp_path, ("e", "s"))
        code, payload = run_json(capsys, "algebra", "normalize", "--hnn", path, "--word", word)
        assert code == 0
        assert payload["status"] == "pass"
        assert payload["data"]["normal_form"] == "1"
        assert payload["data"]["sequence"] == []

    @pytest.mark.parametrize("word,normal_form", [("1 T+", "T+"), ("T+ 1", "T+"), ("s 1 s T- 1", "T-")])
    def test_hnn_one_token_inside_a_word_is_the_identity(self, capsys, tmp_path, word, normal_form):
        path = self.finite_hnn_file(tmp_path, ("e", "s"))
        code, payload = run_json(capsys, "algebra", "normalize", "--hnn", path, "--word", word)
        assert code == 0
        assert payload["status"] == "pass"
        assert payload["data"]["normal_form"] == normal_form

    def test_base_element_named_like_the_stable_letter_is_rejected(self, capsys, tmp_path):
        # in Z3 = {1, x, T+}, x x would render as "T+" and read back as t
        path = self.finite_hnn_file(tmp_path, ("1", "x", "T+"))
        code, payload = run_json(capsys, "algebra", "normalize", "--hnn", path, "--word", "x x")
        assert code == 2
        assert "T+" in payload["data"]["error"]

    def test_long_cancelling_hnn_word_in_one_pass(self, capsys):
        # 120 kB of text; every T- closes a pinch as it arrives
        word = " ".join(["T+"] * 20_000 + ["T-"] * 20_000)
        start = perf_counter()
        code, payload = run_json(capsys, "algebra", "normalize", "--hnn", "bs12", "--word", word)
        elapsed = perf_counter() - start
        assert code == 0
        assert payload["data"]["normal_form"] == "1"
        assert elapsed < 2.0

    def test_bad_amalgam_tag(self, capsys):
        code, _ = run_cli(
            capsys, "algebra", "normalize", "--amalgam", "dinf", "--word", "3:r"
        )
        assert code == 2

    def test_kind_mismatch(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "normalize", "--hnn", "dinf", "--word", "1:s"
        )
        assert code == 2
        assert "HNN" in payload["data"]["error"]

    def test_missing_file(self, capsys):
        code, _ = run_cli(
            capsys, "algebra", "normalize", "--hnn", "no_such_sample", "--word", "a"
        )
        assert code == 2


class TestDecompose:
    def test_two_block_shapes(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "decompose", "--hnn", "bs12",
            "--word", "a T+ a T-", "--word", "T+ a",
        )
        assert code == 0
        sequences = [c["sequence"] for c in payload["data"]["components"]]
        assert sequences == [[2, 1], [2, 2]]

    def test_identity_word_grades_to_empty_sequence(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "decompose", "--amalgam", "dinf", "--word", ""
        )
        assert code == 0
        assert payload["data"]["components"][0]["sequence"] == []
        assert payload["data"]["components"][0]["terms"] == [[1, "1"]]


class TestExponentBudget:
    """Element text carries exponents of at most EXPONENT_DIGITS_BUDGET digits."""

    @staticmethod
    def conjugated(n):
        # t^-n a t^n is a^(2^n) in BS(1, 2)
        return " ".join(["T-"] * n + ["a"] + ["T+"] * n)

    @pytest.mark.parametrize("mode", ["normalize", "decompose"])
    def test_rendering_past_the_budget_exits_three(self, capsys, mode):
        code, payload = run_json(
            capsys, "algebra", mode, "--hnn", "bs12", "--word", self.conjugated(20_000)
        )
        assert code == 3
        assert payload["status"] == "error"
        assert payload["data"]["limit"] == (
            "an exponent of 20001 bits exceeds the budget of 4300 digits;"
            " this work budget is fixed"
        )

    def test_rendering_within_the_budget(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "normalize", "--hnn", "bs12", "--word", self.conjugated(14_000)
        )
        assert code == 0
        assert payload["data"]["normal_form"] == f"a^{2 ** 14_000}"

    @pytest.mark.parametrize("mode", ["normalize", "decompose"])
    def test_parsing_past_the_budget_exits_two(self, capsys, mode):
        word = "T+ a^" + "7" * (EXPONENT_DIGITS_BUDGET + 1)
        code, payload = run_json(capsys, "algebra", mode, "--hnn", "bs12", "--word", word)
        assert code == 2
        assert payload["data"]["error"] == "exponents have at most 4300 digits"

    @pytest.mark.parametrize("token", ["a^x", "a^+3", "a^1_0", "a^", "a^\u0663", "a^2^3"])
    def test_exponents_are_ascii_integers(self, capsys, token):
        code, payload = run_json(capsys, "algebra", "normalize", "--hnn", "bs12", "--word", token)
        assert code == 2
        assert payload["data"]["error"] == (
            f"bad exponent in {token!r}: write a^N, N an optional '-' then ASCII digits"
        )

    def test_zero_exponents_are_still_refused(self, capsys):
        code, payload = run_json(capsys, "algebra", "normalize", "--hnn", "bs12", "--word", "a^-0")
        assert code == 2
        assert payload["data"]["error"] == "zero exponents are not written"

    def test_parsing_at_the_budget(self, capsys):
        # every exponent that parses also renders
        word = "a^-" + "9" * EXPONENT_DIGITS_BUDGET
        code, payload = run_json(capsys, "algebra", "normalize", "--hnn", "bs12", "--word", word)
        assert code == 0
        assert payload["data"]["normal_form"] == word


class TestCosets:
    def test_s3_reflection_double_cosets(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "cosets", "s3", "--left", "(12)", "--right", "(12)"
        )
        assert code == 0
        assert payload["data"]["count"] == 2
        assert payload["data"]["orbits"][0] == ["1", "(12)"]
        assert len(payload["data"]["orbits"][1]) == 4

    def test_trivial_subgroups_give_singletons(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "cosets", "s3", "--left", "1", "--right", "1"
        )
        assert code == 0
        assert payload["data"]["count"] == 6

    def test_construction_file_rejected(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "cosets", "bs12", "--left", "a", "--right", "a"
        )
        assert code == 2
        assert "plain group" in payload["data"]["error"]

    def test_unknown_generator(self, capsys):
        code, _ = run_cli(
            capsys, "algebra", "cosets", "s3", "--left", "(14)", "--right", "1"
        )
        assert code == 2


def bench_module(*args):
    """`random_block_module(Random(seed), ...)` from the benchmark's workloads.

    perfbench/workloads.py is loaded by path without writing bytecode.
    """
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # its dataclasses look themselves up here
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    seed, *rest = args
    return workloads.random_block_module(Random(seed), *rest)


def fold_file(tmp_path, into: int, back: int) -> str:
    """Units a:2, b:8; a0 -> b0, one shift b_i -> b_i+1, b7 -> a1 (nilpotent).

    The b-diagonal index is 8, so `--fold b --onto a` counts
    into * back * 8 composite words, each weighted 2 * (2 + 8)^2 + 400 =
    600; only into letter s0 and the shift are nonzero, which keeps the
    fold itself cheap.
    """
    letters = [
        {"name": f"s{k}", "src": "a", "dst": "b",
         "matrix": [[int(k == 0 and j == 0) for j in range(8)], [0] * 8]}
        for k in range(into)
    ]
    letters.append({"name": "d", "src": "b", "dst": "b",
                    "matrix": [[int(j == i + 1) for j in range(8)] for i in range(8)]})
    letters += [
        {"name": f"t{k}", "src": "b", "dst": "a",
         "matrix": [[0, k + 1 if i == 7 else 0] for i in range(8)]}
        for k in range(back)
    ]
    path = tmp_path / f"fold-{into}-{back}.json"
    path.write_text(json.dumps({"units": ["a", "b"], "base": "int",
                                "dims": {"a": 2, "b": 8}, "letters": letters}))
    return str(path)


class TestNilCommands:
    @pytest.mark.parametrize("base", ["int", "gf(7)"])
    def test_check_at_the_dimension_ceiling(self, capsys, tmp_path, base):
        path = tmp_path / "planted128.json"
        path.write_text(json.dumps(bench_module(128, 128, 2, base, 6, 4, True)))
        start = perf_counter()
        code, payload = run_json(capsys, "algebra", "nil-check", str(path))
        assert perf_counter() - start < 10.0
        assert code == 0
        assert payload["data"]["layer_dims"][-1] == 128

    def test_check_index_nine_in_bounded_memory(self, capsys, tmp_path):
        # Every typed word of length 9 over 8 letters: 8^9 words.
        path = tmp_path / "index9.json"
        path.write_text(json.dumps(bench_module(5, 24, 1, "int", 9, 8, True)))
        start = perf_counter()
        code, payload = run_json(capsys, "algebra", "nil-check", str(path))
        assert perf_counter() - start < 2.0
        assert code == 0
        assert payload["status"] == "pass"
        index = payload["data"]["index"]
        assert f"every word of length {index} vanishes" in item_names(payload)

    def test_fold_at_the_work_budget(self, capsys, tmp_path):
        # 33 into letters fit the budget and 34 do not.
        path = fold_file(tmp_path, 33, 250)
        assert 33 * 250 * 8 * 600 <= nilobj.FOLD_WORK_BUDGET < 34 * 250 * 8 * 600
        code, payload = run_json(capsys, "algebra", "nil-map", path, "--fold", "b", "--onto", "a")
        assert code == 0
        names = [l["name"] for l in payload["data"]["result"]["letters"]]
        assert names == [f"s0|{'d|' * 7}t{k}" for k in range(250)]

    def test_fold_work_budget_exits_three_before_any_product(self, capsys, tmp_path, monkeypatch):
        path = fold_file(tmp_path, 34, 250)
        monkeypatch.setattr(nilobj, "mat_mul", None)  # no product may run
        start = perf_counter()
        code, out = run_cli(capsys, "algebra", "nil-map", path, "--fold", "b", "--onto", "a")
        assert perf_counter() - start < 1.0
        assert code == 3
        assert "Traceback" not in out
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["command"] == f"algebra nil-map {path} --fold b --onto a"
        assert payload["items"] == []
        assert "fold work 40800000 (68000 composite words" in payload["data"]["limit"]
        assert "fixed" in payload["data"]["limit"]

    def test_fold_with_exponentially_many_words_exits_three(self, capsys, tmp_path):
        # Units a:2, b:12; four strictly upper triangular b -> b letters, one
        # of them the full shift, so the diagonal index is 12 and there are
        # sum_{m < 12} 4^m = 5,592,405 composite words.
        rng = Random(3)
        diag = [[[int(j == i + 1) for j in range(12)] for i in range(12)]] + [
            [[rng.choice((0, 1, -2)) if j > i else 0 for j in range(12)] for i in range(12)]
            for _ in range(3)
        ]
        letters = [{"name": f"d{k}", "src": "b", "dst": "b", "matrix": m} for k, m in enumerate(diag)]
        letters.append({"name": "s", "src": "a", "dst": "b",
                        "matrix": [[1] * 12, [0] * 12]})
        letters.append({"name": "t", "src": "b", "dst": "a",
                        "matrix": [[0, 1]] * 12})
        path = tmp_path / "fold14.json"
        path.write_text(json.dumps({"units": ["a", "b"], "base": "int",
                                    "dims": {"a": 2, "b": 12}, "letters": letters}))
        start = perf_counter()
        code, payload = run_json(capsys, "algebra", "nil-map", str(path), "--fold", "b", "--onto", "a")
        assert perf_counter() - start < 1.0
        assert code == 3
        assert "(5592405 composite words at unit dims 2 and 12)" in payload["data"]["limit"]

    @pytest.mark.parametrize("flags", [("--restrict", "u0"), ("--fold", "u1", "--onto", "u0"),
                                       ("--twist", "l0,l1"), ("--twist", "l2"),
                                       ("check", "int", True), ("check", "gf(5)", True),
                                       ("check", "int", False)])
    def test_map_builds_no_kernel_layer(self, capsys, tmp_path, monkeypatch, flags):
        # nil-map reads only verdicts and indices, and nil-check checks the
        # certificate on the image chain that decided it, so neither builds
        # a layer M_k.  nil-check runs no second chain either: one rref per
        # unit and chain layer, all of them in the decision.
        path = tmp_path / "module.json"
        if flags[0] == "check":
            _, base, planted = flags
            path.write_text(json.dumps(bench_module(4, 18, 3, base, 4, 5, planted)))
            argv = ("nil-check", str(path))
        else:
            planted = True
            path.write_text(json.dumps(bench_module(7, 12, 2, "int", 4, 4, True)))
            argv = ("nil-map", str(path), *flags)
        nullspaces, eliminations = [], []
        real_nullspace = linalg.reduced_nullspace
        real_lists, real_packed = linalg.ListRows.rref, linalg.PackedRows.rref

        def counted(*args):
            nullspaces.append(1)
            return real_nullspace(*args)

        monkeypatch.setattr(linalg, "reduced_nullspace", counted)
        monkeypatch.setattr(nilobj, "reduced_nullspace", counted)
        # The chain eliminates through its field's row kernels.
        monkeypatch.setattr(linalg.ListRows, "rref", staticmethod(
            lambda rows, cols: eliminations.append(1) or real_lists(rows, cols)))
        monkeypatch.setattr(linalg.PackedRows, "rref",
                            lambda self, rows, cols: eliminations.append(1) or real_packed(self, rows, cols))
        code, payload = run_json(capsys, "algebra", *argv)
        assert code == (0 if planted else 1)
        assert nullspaces == []
        if argv[0] == "nil-check":
            assert payload["data"]["nilpotent"] is planted
            layers = len(payload["data"]["layer_dims"])
            assert len(eliminations) == layers * len(payload["data"]["dims"])
        else:
            assert payload["data"]["index"] >= 1

    @pytest.mark.parametrize("base", ["int", "gf(7)"])
    def test_check_on_a_deep_chain_exits_three(self, capsys, tmp_path, base):
        # One unit of dimension 128 with index near 128: every layer
        # eliminates about 3 (128 - k) rows of width 128.
        path = tmp_path / "deep128.json"
        path.write_text(json.dumps(bench_module(1, 128, 1, base, 128, 3, True)))
        start = perf_counter()
        code, out = run_cli(capsys, "algebra", "nil-check", str(path))
        assert perf_counter() - start < 60.0
        assert code == 3
        assert "Traceback" not in out
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["items"] == []
        assert payload["data"]["limit"].startswith("image chain work ")
        assert "this work budget is fixed" in payload["data"]["limit"]

    @pytest.mark.parametrize("seed", range(12))
    def test_large_prime_modules_agree_with_brute_force(self, capsys, tmp_path, seed):
        # Entries -2..2 become p - 2 and p - 1 mod p = 2^61 - 1, so every field
        # of the packed elimination is far wider than a machine word.
        total, units, letters = 4 + seed % 3, 1 + seed % 3, 1 + seed % 3
        module = bench_module(seed, total, units, f"gf({2**61 - 1})", 2 + seed % 3, letters,
                              seed % 4 != 0)
        X = nilobj.from_json_dict(module)
        path = tmp_path / "big-prime.json"
        path.write_text(json.dumps(module))
        code, payload = run_json(capsys, "algebra", "nil-check", str(path))
        nilpotent = brute_nilpotent(X)
        assert (code, payload["data"]["nilpotent"]) == (0 if nilpotent else 1, nilpotent)
        assert payload["data"]["index"] == (brute_index(X) if nilpotent else None)
        if not nilpotent:
            return
        names = [l.name for l in X.letters]
        words = names + [f"{a},{b}" for a in names for b in names][:3]
        argv = [arg for word in words for arg in ("--twist", word)]
        code, payload = run_json(capsys, "algebra", "nil-map", str(path), *argv)
        assert code == 0
        Y = nilobj.from_json_dict(payload["data"]["result"])
        assert brute_nilpotent(Y)
        assert payload["data"]["index"] == brute_index(Y)

    def test_modulus_past_the_primality_bound_exits_two(self, capsys, tmp_path):
        path = tmp_path / "huge-modulus.json"
        path.write_text(json.dumps({"units": ["u"], "base": f"gf({10**400 + 1})", "dims": {"u": 1},
                                    "letters": [{"name": "f", "src": "u", "dst": "u",
                                                 "matrix": [[0]]}]}))
        code = main(["algebra", "nil-check", str(path)])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert str(linalg.MODULUS_BOUND) in json.loads(out)["data"]["error"]

    def test_check_shipped_sample(self, capsys):
        code, payload = run_json(capsys, "algebra", "nil-check")
        assert code == 0
        assert payload["data"]["nilpotent"] is True
        assert payload["data"]["index"] == 2

    def test_check_failure_exits_one(self, capsys, non_nilpotent_file):
        code, payload = run_json(capsys, "algebra", "nil-check", non_nilpotent_file)
        assert code == 1
        assert payload["status"] == "fail"
        assert payload["data"]["nilpotent"] is False

    def test_dimension_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("FREENIL_LIMITS", "dim=2")
        code, _ = run_cli(capsys, "algebra", "nil-check")
        assert code == 3

    def test_map_restrict(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "nil-map", "nil_example", "--restrict", "p"
        )
        assert code == 0
        assert payload["data"]["result"]["units"] == ["p"]

    def test_map_fold_saves_output(self, capsys, tmp_path):
        out = tmp_path / "folded.json"
        code, payload = run_json(
            capsys, "algebra", "nil-map", "nil_example",
            "--fold", "q", "--onto", "p", "--out", str(out),
        )
        assert code == 0
        saved = store.load_nil(out)
        assert nilobj.to_json_dict(saved) == payload["data"]["result"]
        want = json.dumps(payload["data"]["result"], indent=2) + "\n"
        assert out.read_bytes() == want.encode("utf-8")

    def test_map_twist(self, capsys):
        code, payload = run_json(
            capsys, "algebra", "nil-map", "nil_example", "--twist", "f"
        )
        assert code == 0
        assert payload["data"]["index"] == 2

    def test_map_needs_exactly_one_mode(self, capsys):
        code, _ = run_cli(
            capsys, "algebra", "nil-map", "nil_example",
            "--restrict", "p", "--twist", "f",
        )
        assert code == 2

    def test_fold_requires_onto(self, capsys):
        code, _ = run_cli(capsys, "algebra", "nil-map", "nil_example", "--fold", "q")
        assert code == 2


class TestReportContract:
    def test_json_reproducible_modulo_timing(self, capsys):
        args = ("grouph", "reduce", "--arity", "4", "--count", "3", "--seed", "9")
        _, first = run_json(capsys, *args)
        _, second = run_json(capsys, *args)
        first.pop("timing")
        second.pop("timing")
        assert first == second

    def test_plain_flag_matches_format_plain(self, capsys):
        _, a = run_cli(capsys, "words", "sieve", "-I", "a,b", "-L", "3", "--plain")
        _, b = run_cli(
            capsys, "words", "sieve", "-I", "a,b", "-L", "3", "--format", "plain"
        )
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("timing")]
        assert strip(a) == strip(b)
        assert not a.lstrip().startswith("{")

    def test_command_echo_matches_invocation(self, capsys):
        _, payload = run_json(capsys, "words", "enumerate", "-I", "a,b", "-L", "2")
        assert payload["command"] == "words enumerate -I a,b -L 2"

    def test_no_arguments_is_usage_error(self, capsys):
        code, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "words", "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["algebra", "normalize", "--hnn", "bs12", "--word", "-a"],
         "freenil algebra normalize: argument --word: expected one argument"),
        (["grouph", "relations", "--max-q", "x"],
         "freenil grouph relations: argument --max-q: invalid int value: 'x'"),
        (["algebra", "normalize", "--hnn", "bs12"],
         "freenil algebra normalize: the following arguments are required: --word"),
    ], ids=["dash-word", "bad-int", "missing-flag"])
    def test_rejected_command_line_prints_one_report(self, capsys, argv, message):
        code = main(argv)
        got = capsys.readouterr()
        assert code == 2
        assert got.err == ""
        payload = json.loads(got.out)
        assert payload["status"] == "error"
        assert payload["data"] == {"error": message}

    def test_help_still_exits_zero(self, capsys):
        code = main(["algebra", "normalize", "--help"])
        got = capsys.readouterr()
        assert code == 0
        assert got.out.startswith("usage: freenil algebra normalize")


SHIPPED = {
    name: (resources.files("freenil") / "data" / f"{name}.json").read_text()
    for name in ("bs12", "dinf", "s3", "s3z2", "nil_example")
}


def shipped(name):
    return json.loads(SHIPPED[name])


class TestMalformedFiles:
    @pytest.mark.parametrize("sample,mode,field,value,path", [
        ("bs12", "--hnn", "base", 1, "$.base"),
        ("s3z2", "--amalgam", "embedding1", "x", "$.embedding1"),
        ("bs12", "--hnn", None, [1, 2], "$"),
    ], ids=["bs12-base", "s3z2-embedding1", "top-level-list"])
    def test_non_object_exits_two_naming_the_path(self, capsys, tmp_path, sample, mode, field, value, path):
        data = shipped(sample)
        if field is None:
            data = value
        else:
            data[field] = value
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(data))
        code, out = run_cli(capsys, "algebra", "normalize", mode, str(file), "--word", "1")
        assert code == 2
        assert "Traceback" not in out
        assert json.loads(out)["data"]["error"].startswith(f"{path} must be an object, got ")

    @pytest.mark.parametrize("sample,argv,field,value,message", [
        ("nil_example", ["nil-check"], ("letters", 0, "name"), {"a": 1},
         '$.letters[0].name must be a string, got {"a": 1}'),
        ("nil_example", ["nil-check"], ("letters", 0, "dst"), {"a": 1},
         '$.letters[0].dst must be a string, got {"a": 1}'),
        ("s3", ["cosets", "--left", "(12)", "--right", "(13)"], ("group", "table"), None,
         "$.group.table must be an array, got null"),
    ], ids=["letter-name", "letter-dst", "null-table"])
    def test_misshapen_field_exits_two_naming_the_path(self, capsys, tmp_path, sample, argv, field, value, message):
        data = shipped(sample)
        *head, last = field
        node = data
        for key in head:
            node = node[key]
        node[last] = value
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(data))
        code, out = run_cli(capsys, "algebra", argv[0], str(file), *argv[1:])
        assert code == 2
        assert json.loads(out)["data"]["error"] == message

    # Every mutant of a shipped file runs through the commands that read its kind.
    CONTRACT_COMMANDS = {
        "bs12": [("normalize", "--hnn", "FILE", "--word", "T- a T+"),
                 ("decompose", "--hnn", "FILE", "--word", "a T+ a T-", "--word", "T+ a")],
        "dinf": [("normalize", "--amalgam", "FILE", "--word", "1:s 2:r 1:s"),
                 ("decompose", "--amalgam", "FILE", "--word", "1:s 2:r")],
        "s3z2": [("normalize", "--amalgam", "FILE", "--word", "1:(12) 2:r 1:(13)"),
                 ("decompose", "--amalgam", "FILE", "--word", "2:r 1:(12)")],
        "s3": [("cosets", "FILE", "--left", "(12)", "--right", "(13)")],
        "nil_example": [("nil-check", "FILE"), ("nil-map", "FILE", "--restrict", "p"),
                        ("nil-map", "FILE", "--twist", "f,g"),
                        ("nil-map", "FILE", "--fold", "q", "--onto", "p")],
    }
    SCALARS = st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-2, 2) | st.text("pq1(2)", max_size=3)
    VALUES = st.one_of(
        SCALARS,
        st.lists(SCALARS | st.lists(SCALARS, max_size=2), max_size=3),
        st.dictionaries(st.sampled_from(["kind", "names", "table", "rank", "name", "matrix", "x"]),
                        SCALARS, max_size=3),
    )

    @staticmethod
    def nodes(node, path=()):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            yield from TestMalformedFiles.nodes(child, path + (key,))

    HOW = st.sampled_from(["replace", "delete", "duplicate"])

    @classmethod
    def mutate(cls, data, draw):
        paths = list(cls.nodes(data))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        *head, last = path or (None,)
        parent = data
        for key in head:
            parent = parent[key]
        node = parent[last] if path else data
        how = draw(cls.HOW)
        if how == "delete" and path and isinstance(parent, dict):
            del parent[last]
        elif how == "duplicate" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[draw(st.integers(0, len(node) - 1))]))
        elif path:
            parent[last] = draw(cls.VALUES)
        else:
            return draw(cls.VALUES)
        return data

    def test_mutated_shipped_files_keep_the_exit_code_contract(self, tmp_path):
        # A mutant that reaches exit 4 or escapes main is a library bug.
        file = tmp_path / "mutant.json"
        samples = st.sampled_from(sorted(self.CONTRACT_COMMANDS))
        commands = {name: st.sampled_from(argvs) for name, argvs in self.CONTRACT_COMMANDS.items()}

        @given(data=st.data())
        @settings(max_examples=2000, derandomize=True, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
        def case(data):
            sample = data.draw(samples)
            mutant = shipped(sample)
            for _ in range(data.draw(st.integers(1, 3))):
                mutant = self.mutate(mutant, data.draw)
            file.write_text(json.dumps(mutant))
            argv = ["algebra", *data.draw(commands[sample])]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(file) if a == "FILE" else a for a in argv])
            assert code in (0, 1, 2, 3), out.getvalue()
            json.loads(out.getvalue())  # exactly one report: a second would be extra data
            assert err.getvalue() == ""

        start = perf_counter()
        case()
        assert perf_counter() - start < 20.0


class TestTextAndLimitsContract:
    """Random word texts and FREENIL_LIMITS strings keep the exit-code contract."""

    TOKENS = ["T+", "T-", "a", "a^-1", "a^2", "b", "1", "1:s", "2:r", "1:(12)", "1:(13)",
              "2:r,r", "1:", ":s", "3:s", "(12)", "(123)", "c", "x,y", "", "-", "^", "a,b"]
    TEXTS = (st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join)
             | st.text("12:srabcT+-(3), ^x", max_size=8))
    # Each WORD slot takes a drawn text; the grouph commands are small, so
    # that a large n still finishes at once.
    COMMANDS = [
        ("algebra", "normalize", "--amalgam", "dinf", "--word=WORD"),
        ("algebra", "normalize", "--amalgam", "s3z2", "--word=WORD"),
        ("algebra", "normalize", "--hnn", "bs12", "--word=WORD"),
        ("algebra", "decompose", "--hnn", "bs12", "--word=WORD", "--word=WORD"),
        ("algebra", "decompose", "--amalgam", "s3z2", "--word=WORD"),
        ("algebra", "cosets", "s3", "--left=WORD", "--right=WORD"),
        ("algebra", "nil-map", "nil_example", "--twist=WORD"),
        ("algebra", "nil-check", "nil_example"),
        ("words", "sieve", "--alphabet=WORD", "-L", "4"),
        ("words", "enumerate", "--alphabet=WORD", "-L", "3"),
        ("grouph", "verify-kernel", "--max-n", "3"),
        ("grouph", "relations", "--max-q", "3"),
        ("grouph", "collapse", "--max-n", "3"),
        ("grouph", "reduce", "--arity", "3", "--count", "2"),
    ]
    # Entries of a known key with an integer value (zero, large and negative
    # values among them; a negative one is malformed), or these and other
    # malformed entries mixed.
    LIMIT_ENTRIES = st.tuples(
        st.sampled_from(["n", "l", "dim"]), st.integers(-2, 20) | st.sampled_from([10**6, 10**9]),
    ).map(lambda kv: f"{kv[0]}={kv[1]}")
    MALFORMED_ENTRIES = st.tuples(
        st.sampled_from(["n", "l", "dim", "N", "cpu", ""]), st.sampled_from(["=", "", "=="]),
        st.sampled_from(["", "x", "1.5", " 7", "10**6", "-0"]),
    ).map("".join) | st.sampled_from([",", "n=1=2", "=", " "])
    LIMITS = (st.lists(LIMIT_ENTRIES, max_size=3)
              | st.lists(LIMIT_ENTRIES | MALFORMED_ENTRIES, min_size=1, max_size=3)).map(",".join)

    def test_random_texts_and_limits_keep_the_exit_code_contract(self, monkeypatch):
        @given(data=st.data())
        @settings(max_examples=400, derandomize=True, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def case(data):
            argv = [a.replace("WORD", data.draw(self.TEXTS)) if "WORD" in a else a
                    for a in data.draw(st.sampled_from(self.COMMANDS))]
            monkeypatch.setenv("FREENIL_LIMITS", data.draw(self.LIMITS))
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert perf_counter() - start < 2.0, argv
            assert code in (0, 1, 2, 3), out.getvalue()
            json.loads(out.getvalue())  # exactly one report
            assert err.getvalue() == ""

        case()


class TestParserReuse:
    def test_sequence_matches_fresh_processes(self, capsys):
        # One parser serves every call in a process: no appended list or
        # default may leak from one command into the next.
        sequence = [
            ["grouph", "reduce", "--arity", "5", "--pair", "0,1", "--pair", "2,4"],
            ["algebra", "nil-map", "nil_example", "--twist", "f", "--twist", "g,f"],
            ["grouph", "reduce", "--arity", "5", "--pair"],
            ["grouph", "reduce", "--arity", "6", "--pair", "1,3"],
            ["algebra", "nil-map", "nil_example", "--twist", "g"],
            ["words", "sieve", "-I", "a,b", "-L", "4", "--plain"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("FREENIL_LIMITS", None)

        def untimed(out):
            if out.lstrip().startswith("{"):
                payload = json.loads(out)
                payload.pop("timing")
                return payload
            return [l for l in out.splitlines() if not l.startswith("timing")]

        codes = []
        for argv in sequence:
            code = main(list(argv))
            got = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "freenil", *argv],
                capture_output=True, text=True, env=env,
            )
            assert code == fresh.returncode, argv
            assert untimed(got.out) == untimed(fresh.stdout), argv
            assert got.err == fresh.stderr, argv
            codes.append(code)
        assert codes[2] == 2 and codes.count(2) == 1


def parsed(parse, argv):
    """What one parse of argv gives: the namespace, the usage error's text,
    or the exit code and the help text of -h."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "args", vars(parse(list(argv)))
    except ValueError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


class TestDispatch:
    """`cli.parse_args` sends a command line straight to its mode's parser;
    the full parser `cli._PARSER` is the oracle it must agree with."""

    VALID = [
        ["words", "sieve", "-I", "a,b", "-L", "4"],
        ["words", "sieve", "-I", "a,b", "-L", "4", "--verify", "--plain"],
        ["words", "verify", "-I", "a,b", "-L", "3", "--format", "plain"],
        ["words", "enumerate", "-I", "a,b,c", "-L", "3"],
        ["grouph", "verify-kernel", "--max-n", "3"],
        ["grouph", "relations", "--max-q", "3"],
        ["grouph", "reduce", "--arity", "4", "--count", "2", "--seed", "1"],
        ["grouph", "reduce", "--arity", "5", "--pair", "0,1", "--pair", "2,4"],
        ["grouph", "collapse", "--max-n", "2", "--samples", "3"],
        ["algebra", "normalize", "--hnn", "bs12", "--word", "T- a T+"],
        ["algebra", "normalize", "--amalgam", "dinf", "--word", "1:s 2:r 1:s"],
        ["algebra", "decompose", "--hnn", "bs12", "--word", "a T+ a T-", "--word", "T+ a"],
        ["algebra", "cosets", "s3", "--left", "(12)", "--right", "(12)"],
        ["algebra", "nil-check"],
        ["algebra", "nil-check", "nil_example", "--format", "json"],
        ["algebra", "nil-map", "nil_example", "--restrict", "p"],
        ["algebra", "nil-map", "nil_example", "--twist", "f", "--twist", "g,f"],
    ]
    USAGE_ERRORS = [
        [],  # no command
        ["words"],  # no mode
        ["frobnicate", "sieve"],  # unknown command
        ["words", "frobnicate"],  # unknown mode
        ["grouph", "sieve", "-I", "a", "-L", "3"],  # another command's mode
        ["words", "sieve", "-L", "4"],  # missing required option
        ["algebra", "normalize", "--hnn", "bs12"],
        ["grouph", "relations", "--max-q", "x"],  # bad type
        ["words", "sieve", "-I", "a", "-L", "3", "--format", "xml"],  # bad choice
        ["grouph", "relations", "--max-q", "3", "extra"],  # leftover argument
        ["algebra", "nil-check", "nil_example", "s3"],
        ["words", "sieve", "-I", "a", "-L", "3", "--bogus", "1"],
        ["algebra", "normalize", "--hnn", "bs12", "--amalgam", "dinf", "--word", "1"],
        ["algebra", "normalize", "--hnn", "bs12", "--word", "-a"],
        ["words", "sieve", "-I", "a", "-L", "3", "--verify=1"],
        ["grouph", "relations", "--max-q", "-1"],  # parses; the runner rejects it
    ]
    HELP = [
        ["-h"], ["--help"], ["words", "-h"], ["algebra", "--help"],
        ["words", "sieve", "-h"], ["grouph", "reduce", "--help"], ["algebra", "nil-map", "--he"],
    ]
    SPELLINGS = [
        ["grouph", "relations", "--max-q", "3", "--max-q", "4"],  # the last one counts
        ["--", "words", "sieve", "-I", "a,b", "-L", "3"],
        ["words", "--", "sieve", "-I", "a,b", "-L", "3"],
        ["words", "sieve", "-I", "a,b", "-L", "3", "--"],
        ["algebra", "nil-check", "--", "nil_example"],
        ["algebra", "cosets", "--left", "(12)", "--right", "(12)", "--", "s3"],
        ["grouph", "verify-kernel", "--max", "3"],
        ["words", "sieve", "--alpha", "a,b", "--bou", "3", "--ver"],
        ["grouph", "collapse", "--s", "3"],  # ambiguous: --samples or --seed
        ["grouph", "collapse", "--max-n=2", "--sam=3"],
        ["words", "sieve", "--alphabet=a,b", "-L3"],
        ["words", "enumerate", "-Ia,b", "-L=3"],
        ["algebra", "normalize", "--hnn=bs12", "--word=T+ T-"],
        ["grouph", "reduce", "--pair=0,1", "--pair", "-1,2"],
    ]
    CASES = VALID + USAGE_ERRORS + HELP + SPELLINGS

    def test_every_command_row_is_covered(self):
        assert {tuple(argv[:2]) for argv in self.VALID} == set(cli.COMMANDS)

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_dispatch_matches_the_full_parser(self, argv):
        assert parsed(cli.parse_args, argv) == parsed(cli._PARSER.parse_args, argv)

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_main_prints_the_same_report(self, capsys, monkeypatch, argv):
        def untimed(out):
            return [l for l in out.splitlines() if '"seconds"' not in l and "timing" not in l]

        code = main(list(argv))
        got = capsys.readouterr()
        monkeypatch.setattr(cli, "parse_args", cli._PARSER.parse_args)
        want_code = main(list(argv))
        want = capsys.readouterr()
        assert (code, untimed(got.out), got.err) == (want_code, untimed(want.out), want.err)

    TOKENS = sorted({token for argv in CASES for token in argv} | {"-", "-I", "0", "--out"})

    @settings(settings.get_profile("ci"), max_examples=400)
    @given(head=st.sampled_from(sorted(cli.COMMANDS)).map(list)
           | st.lists(st.sampled_from(TOKENS), max_size=2),
           tail=st.lists(st.sampled_from(TOKENS), max_size=6))
    def test_random_command_lines_match_the_full_parser(self, head, tail):
        argv = head + tail
        assert parsed(cli.parse_args, argv) == parsed(cli._PARSER.parse_args, argv)


class TestModulesPerCommand:
    """A process runs only the library modules its command reaches: `cli`
    registers every module at import and each executes on first use."""

    # Runs main(argv) in a fresh process that writes no bytecode, then prints
    # the exit code and the freenil modules that have executed: a registered
    # module that has not run yet is still an `importlib.util._LazyModule`.
    SCRIPT = """
import contextlib, io, json, sys, types
from freenil import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(n.removeprefix("freenil.") for n, m in sys.modules.items()
                               if n.startswith("freenil.") and type(m) is types.ModuleType)]))
"""
    ALWAYS = {"cli", "errors", "report"}
    WORDS = {"words"}
    TWISTED = {"syzygy", "laurent", "skewpoly"}
    NORMAL_FORMS = {"store", "groups", "amalgam", "hnn", "groupring"}
    NIL = {"store", "nilobj", "linalg"}
    CASES = [
        (["words", "sieve", "-I", "a,b", "-L", "4"], WORDS),
        (["words", "verify", "-I", "a,b", "-L", "3"], WORDS),
        (["words", "enumerate", "-I", "a,b,c", "-L", "3"], WORDS),
        (["grouph", "verify-kernel", "--max-n", "4"], TWISTED),
        (["grouph", "relations", "--max-q", "3"], TWISTED),
        (["grouph", "reduce", "--arity", "4", "--count", "2"], TWISTED),
        (["grouph", "collapse", "--max-n", "2", "--samples", "3"], TWISTED),
        (["algebra", "normalize", "--amalgam", "dinf", "--word", "1:s 2:r"], NORMAL_FORMS),
        (["algebra", "decompose", "--hnn", "bs12", "--word", "T+ a"], NORMAL_FORMS),
        (["algebra", "cosets", "s3", "--left", "(12)", "--right", "(12)"],
         {"store", "groups", "amalgam", "hnn", "cosets"}),
        (["algebra", "nil-check"], NIL),
        (["algebra", "nil-map", "nil_example", "--restrict", "p"], NIL),
    ]

    def test_every_command_row_is_covered(self):
        assert [tuple(argv[:2]) for argv, _ in self.CASES] == list(cli.COMMANDS)

    @pytest.mark.parametrize("argv,modules", CASES, ids=[" ".join(argv[:2]) for argv, _ in CASES])
    def test_command_executes_only_its_modules(self, argv, modules):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("FREENIL_LIMITS", None)
        proc = subprocess.run([sys.executable, "-B", "-c", self.SCRIPT, *argv],
                              capture_output=True, text=True, env=env, check=True)
        code, executed = json.loads(proc.stdout)
        assert code == 0
        assert set(executed) == self.ALWAYS | modules


class TestClosedStdout:
    # The sieve report (about 220 kB) is larger than a pipe's buffer, so the
    # command is still writing when its reader closes after one byte; the
    # help text is short, so that reader closes before reading anything.
    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv,read", [
        (["words", "sieve", "-I", "a,b", "-L", "16"], 1),
        (["--help"], 0),
    ], ids=["report", "help"])
    def test_reader_closing_early_exits_zero_with_empty_stderr(self, argv, read, buffering):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("FREENIL_LIMITS", None)
        env.pop("PYTHONUNBUFFERED", None)
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "freenil", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
        )
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""


class TestResourceExhaustion:
    @pytest.mark.parametrize("exc", [MemoryError(), RecursionError("too deep")])
    def test_exhaustion_exits_three_with_partial_report(self, capsys, monkeypatch, exc):
        def exhausted(args, report, limits):
            report.command = "words sieve"
            raise exc

        monkeypatch.setattr(cli, "run_words", exhausted)
        code, out = run_cli(capsys, "words", "sieve", "-I", "a,b", "-L", "3")
        assert code == 3
        assert "Traceback" not in out
        payload = json.loads(out)
        assert payload["status"] == "error"
        assert payload["command"] == "words sieve"
        assert payload["data"]["limit"].startswith(type(exc).__name__)


class TestLimitsParsing:
    def test_defaults(self):
        assert read_limits(env={}) == Limits(n=64, l=16, dim=128)

    def test_override(self):
        got = read_limits(env={"FREENIL_LIMITS": "n=4, dim=9"})
        assert got == Limits(n=4, l=16, dim=9)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            read_limits(env={"FREENIL_LIMITS": "cpu=2"})

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            read_limits(env={"FREENIL_LIMITS": "n=lots"})

    MALFORMED = ["n=x", "n=", "n=-3", "n=1_0", "n=\u0663", "n=4,n=5", "dim=1, l=2,dim=3"]

    @pytest.mark.parametrize("raw", MALFORMED)
    def test_value_must_be_ascii_digits_and_key_given_once(self, raw):
        with pytest.raises(ValueError, match="FREENIL_LIMITS entries look like"):
            read_limits(env={"FREENIL_LIMITS": raw})

    @pytest.mark.parametrize("raw", MALFORMED)
    def test_malformed_value_exits_two_naming_the_entry(self, capsys, monkeypatch, raw):
        # n=-3 used to be read as a ceiling, so --max-n 0 exited 3.
        monkeypatch.setenv("FREENIL_LIMITS", raw)
        code = main(["grouph", "verify-kernel", "--max-n", "0"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert repr(raw.split(",")[-1].strip()) in json.loads(out)["data"]["error"]

    def test_zero_and_padded_values_accepted(self):
        got = read_limits(env={"FREENIL_LIMITS": "n= 0 ,dim=007"})
        assert got == Limits(n=0, l=16, dim=7)

    def test_malformed_env_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("FREENIL_LIMITS", "nonsense")
        code, _ = run_cli(capsys, "words", "sieve", "-I", "a", "-L", "1")
        assert code == 2
