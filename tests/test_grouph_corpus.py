"""Pinned `verify-kernel`, `relations`, `collapse` and `reduce` reports.

The 62 commands of grouph_corpus reach kernel pairs, relations and
collapse stages well past the sizes the benchmark pins; every report,
timing dropped, must match its pinned digest with its exit code.
"""

import json
from pathlib import Path

import grouph_corpus as corpus

PINNED = Path(__file__).parent / "data" / "grouph_digests.json"


def test_reports_match_the_pinned_digests(cold_caches):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    got = corpus.digests()
    assert len(got) == 62
    assert sorted(got) == sorted(pinned)
    assert [k for k in got if got[k] != pinned[k]] == []
