"""The benchmark tracer's wrap list still fits the freenil callables.

`perfbench/tracing.py` wraps freenil functions and methods by module and
attribute name, and some of its counters read the arguments or the result
of their target (`len(r.filtration.subspaces)` and the like).  Renaming
or deleting a target, or changing the shape a counter reads, would only
show as a crash of a traced benchmark run; these tests fail first.  The
tracer file is loaded by path and read only: no bytecode is written next
to it.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_target_resolves():
    importlib.import_module("freenil.cli")  # the tracer installs after this import
    missing = []
    for module_name, path, _, kind, _ in load_tracing().TARGETS:
        owner = importlib.import_module(module_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = owner.__dict__.get(part)
        if owner is None or attr not in owner.__dict__:
            missing.append(f"{module_name}.{path}")
        elif kind == "cached-span" and not hasattr(owner.__dict__[attr], "__wrapped__"):
            missing.append(f"{module_name}.{path} (no lru_cache)")
    assert missing == []


# Small commands that reach every counted target the CLI calls.
TRACED_COMMANDS = [
    ["algebra", "nil-check"],
    ["words", "sieve", "-I", "a,b", "-L", "5", "--plain"],
    ["grouph", "collapse", "--max-n", "2"],
    ["grouph", "relations", "--max-q", "3"],
]


def test_every_counter_reads_its_target():
    from freenil import cli, syzygy, words

    # As in a fresh CLI process: no product an earlier test cached is skipped.
    for name, module in list(sys.modules.items()):
        if name.startswith("freenil."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in TRACED_COMMANDS]
        # Counted targets that no shipped command calls any more.
        syzygy.kernel_pair(2)
        words.prefix_extensions({("a",), ("b",)}, ("a",), 3)
    finally:
        tracer.uninstall()
    assert codes == [0] * len(TRACED_COMMANDS)
    unreached = [name for _, _, name, _, counter in tracing.TARGETS
                 if counter is not None and not tracer.counts[name + ".calls"]]
    assert unreached == []
    assert tracer.counts["nilobj.chain_layers"] > 0
