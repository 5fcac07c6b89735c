"""Pinned `normalize` and `decompose` reports over free-abelian HNN files.

The 200 seeded commands of free_abelian_corpus cover bs12, diagonal rank-2
lattices (one not of full rank) and a lattice whose Hermite form is not
diagonal; every report, timing dropped, must match its pinned digest.
"""

import json
from pathlib import Path

import free_abelian_corpus as corpus

PINNED = Path(__file__).parent / "data" / "free_abelian_digests.json"


def test_reports_match_the_pinned_digests():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    got = corpus.digests()
    assert len(got) == 200
    assert sorted(got) == sorted(pinned)
    assert [k for k in got if got[k] != pinned[k]] == []
