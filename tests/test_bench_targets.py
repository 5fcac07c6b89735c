"""The benchmark tracer's wrap list still names real freenil callables.

`perfbench/tracing.py` wraps freenil functions and methods by module and
attribute name.  Renaming or deleting one of them would only show as a
crash of a traced benchmark run; this test fails first.  The tracer file
is loaded by path and read only: no bytecode is written next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.TARGETS


def test_every_traced_target_resolves():
    importlib.import_module("freenil.cli")  # the tracer installs after this import
    missing = []
    for module_name, path, _, kind, _ in load_targets():
        owner = importlib.import_module(module_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = owner.__dict__.get(part)
        if owner is None or attr not in owner.__dict__:
            missing.append(f"{module_name}.{path}")
        elif kind == "cached-span" and not hasattr(owner.__dict__[attr], "__wrapped__"):
            missing.append(f"{module_name}.{path} (no lru_cache)")
    assert missing == []
