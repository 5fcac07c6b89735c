"""Hypothesis profiles and shared fixtures for the suite.

`ci` draws the same examples on every run and sets no per-example
deadline, so a failure seen in CI replays locally with
`pytest --hypothesis-profile ci`.  `cold_caches` empties every
module-level `freenil.*` cache, so a test starts as a fresh process does.
"""

import sys

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def cold_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("freenil."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
