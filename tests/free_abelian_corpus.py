"""Seeded `normalize` and `decompose` commands over free-abelian HNN files.

The corpus covers `bs12`, a rank-2 extension whose associated lattices are
diagonal (one of them not of full rank), and a rank-2 extension whose alpha
image [[2, 1], [0, 3]] has a Hermite form that is not diagonal.  Each
command's report, with its timing dropped, is reduced to a digest together
with the exit code; `tests/data/free_abelian_digests.json` pins them.

Regenerate the pinned table, from the repository root, with

    PYTHONPATH=src python tests/free_abelian_corpus.py > tests/data/free_abelian_digests.json

and only when a report is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from random import Random

from freenil import cli


def _z(rank, letters):
    return {"kind": "free_abelian", "rank": rank, "letters": letters}


def _hnn(subgroup, alpha, beta):
    return {
        "construction": "hnn",
        "subgroup": subgroup,
        "base": _z(2, ["a", "b"]),
        "alpha": {"kind": "free_abelian", "images": alpha},
        "beta": {"kind": "free_abelian", "images": beta},
    }


# file name -> construction; bs12 is the shipped sample
FILES = {
    "fa_diag2.json": _hnn(_z(2, ["c", "d"]), [[1, 0], [0, 1]], [[2, 0], [0, 3]]),
    "fa_thin2.json": _hnn(_z(1, ["c"]), [[0, 2]], [[3, 0]]),
    "fa_hermite2.json": _hnn(_z(2, ["c", "d"]), [[2, 1], [0, 3]], [[1, 0], [0, 1]]),
}

POOLS = {
    "bs12": ["T+", "T-", "a", "a^-1", "a^2", "a^3", "a^-5", "1"],
    "fa_diag2.json": ["T+", "T-", "a", "b", "a^-1", "b^-2", "a^2,b", "a^-3,b^5", "1"],
    "fa_thin2.json": ["T+", "T-", "a", "b", "b^2", "a^3", "a^-3,b^-2", "b^4", "1"],
    "fa_hermite2.json": ["T+", "T-", "a", "b", "a^2,b", "b^3", "a^-2,b^-1", "b^-3", "1"],
}

BAD = ["c", "a^0", "b,a", "T", "a^x", "1:a"]


def _word(rng, pool):
    if rng.random() < 0.1:
        return "1"
    tokens = [rng.choice(pool) for _ in range(rng.randint(1, 24))]
    if rng.random() < 0.05:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(BAD))
    return " ".join(tokens)


def commands(seed=2024, per_file=50):
    """(key, argv) pairs: per_file commands for each construction, in order."""
    rng = Random(seed)
    out = []
    for name, pool in POOLS.items():
        for i in range(per_file):
            if i % 5 == 4:
                words = [_word(rng, pool) for _ in range(rng.randint(1, 4))]
                argv = ["algebra", "decompose", "--hnn", name]
                for w in words:
                    argv.append(f"--word={w}")
            else:
                argv = ["algebra", "normalize", "--hnn", name, f"--word={_word(rng, pool)}"]
            out.append((f"{len(out):03d} {' '.join(argv[1:])}", argv))
    return out


def write_files(directory):
    for name, data in FILES.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(data, fh)


def digest(argv):
    """Digest of the exit code and the report with its timing field dropped."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    report = json.loads(buf.getvalue())
    report.pop("timing", None)
    payload = json.dumps([code, report], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def digests():
    """Digest per command key, with the files written to a fresh working directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        os.chdir(directory)
        try:
            return {key: digest(argv) for key, argv in commands()}
        finally:
            os.chdir(here)


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
