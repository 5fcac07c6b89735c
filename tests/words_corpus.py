"""`words` commands over 1 to 5 letters in two declared orders.

For each alphabet (the first k of a..e, ascending, and the same letters
declared in reverse) the corpus runs `sieve`, `sieve --verify`, `verify`
and `enumerate` at every length bound whose class census is at most
20,000 (every bound up to the default `l` ceiling of 16 for one and two
letters).  Each command's report, with its timing dropped, is reduced to
a digest together with the exit code; `tests/data/words_digests.json`
pins them.

Regenerate the pinned table, from the repository root, with

    PYTHONPATH=src python tests/words_corpus.py > tests/data/words_digests.json

and only when a report is meant to change.
"""

from __future__ import annotations

import json
import sys

from free_abelian_corpus import digest
from freenil.words import aperiodic_necklace_count

CENSUS_CAP = 20_000
LENGTH_CAP = 16  # the default `l` ceiling
MODES = (["sieve"], ["sieve", "--verify"], ["verify"], ["enumerate"])


def bounds(k):
    """Every length bound whose class census over k letters is at most CENSUS_CAP."""
    census, out = 0, []
    for bound in range(1, LENGTH_CAP + 1):
        census += aperiodic_necklace_count(k, bound)
        if census > CENSUS_CAP:
            break
        out.append(bound)
    return out


def commands():
    """(key, argv) pairs, keyed by the command line after `words`."""
    out = []
    for k in range(1, 6):
        letters = "abcde"[:k]
        for order in dict.fromkeys((letters, letters[::-1])):
            for bound in bounds(k):
                for mode in MODES:
                    argv = ["words", mode[0], "-I", ",".join(order), "-L", str(bound), *mode[1:]]
                    out.append((" ".join(argv[1:]), argv))
    return out


def digests():
    """Digest per command key."""
    return {key: digest(argv) for key, argv in commands()}


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
