"""Pinned `sieve`, `sieve --verify`, `verify` and `enumerate` reports.

The 392 commands of words_corpus cover 1 to 5 letters in two declared
orders at every length bound whose class census is at most 20,000; every
report, timing dropped, must match its pinned digest with its exit code.
"""

import json
from pathlib import Path

import words_corpus as corpus

PINNED = Path(__file__).parent / "data" / "words_digests.json"


def test_reports_match_the_pinned_digests():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    got = corpus.digests()
    assert len(got) == 392
    assert sorted(got) == sorted(pinned)
    assert [k for k in got if got[k] != pinned[k]] == []
