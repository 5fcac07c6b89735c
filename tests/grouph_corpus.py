"""`grouph` commands over the kernel pairs, the relations, the descent and the collapse.

The corpus runs `verify-kernel --max-n` 0 to 12, 16, 32 and 64,
`relations --max-q` 0 to 8, 16, 32 and 64, `collapse --max-n` 1 to 8, 16
and 64, and `reduce --arity` 2 to 8 and 16 with `--count 20` at seeds 0
to 2.  Each command's report, with its timing dropped, is reduced to a
digest together with the exit code; `tests/data/grouph_digests.json` pins
them.

Regenerate the pinned table, from the repository root, with

    PYTHONPATH=src python tests/grouph_corpus.py > tests/data/grouph_digests.json

and only when a report is meant to change.
"""

from __future__ import annotations

import json
import sys

from free_abelian_corpus import digest

SIZES = [*range(13), 16, 32, 64]
MAX_Q = [*range(9), 16, 32, 64]
STAGES = [*range(1, 9), 16, 64]
ARITIES = [*range(2, 9), 16]
SEEDS = range(3)


def commands():
    """(key, argv) pairs, keyed by the command line after `grouph`."""
    argvs = [["verify-kernel", "--max-n", str(n)] for n in SIZES]
    argvs += [["relations", "--max-q", str(q)] for q in MAX_Q]
    argvs += [["collapse", "--max-n", str(n)] for n in STAGES]
    argvs += [["reduce", "--arity", str(a), "--count", "20", "--seed", str(s)]
              for a in ARITIES for s in SEEDS]
    return [(" ".join(argv), ["grouph", *argv]) for argv in argvs]


def digests():
    """Digest per command key."""
    return {key: digest(argv) for key, argv in commands()}


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
