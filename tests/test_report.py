"""Report rendering: `Report.to_json` against `json.dumps` as the oracle.

The renderer writes each item from one template and re-indents the data
dump to its depth; `json.dumps(payload, indent=2)` of the same payload is
the reference it must match byte for byte.
"""

import json

from hypothesis import given, settings, strategies as st

from freenil.report import CheckItem, Report

# Quotes, backslashes, control characters, line separators, non-ASCII and
# astral characters, mixed into arbitrary text.
TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\x85", "\u2028",
                          "\u00e9", "\U0001f600", "\U0001d535"])
TEXT = st.lists(st.text(max_size=6) | TRICKY, max_size=4).map("".join)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
DATA = st.dictionaries(TEXT, st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12), max_size=4)


def oracle(report: Report) -> str:
    payload = report.core_dict()
    if report.timing is not None:
        payload["timing"] = {"seconds": round(report.timing, 6)}
    return json.dumps(payload, indent=2)


@settings(settings.get_profile("ci"), max_examples=300)
@given(
    command=TEXT,
    status=TEXT,
    items=st.lists(st.builds(CheckItem, TEXT, TEXT, TEXT, st.booleans()), max_size=4),
    data=DATA,
    timing=st.none() | st.floats(),
)
def test_to_json_matches_json_dumps(command, status, items, data, timing):
    report = Report(command, items, data, status, timing)
    assert report.to_json() == oracle(report)


def test_empty_report_and_empty_containers():
    for data in ({}, {"a": [], "b": {}, "c": [[], {}], "d": [None, True, False, 0, -1.5]}):
        for timing in (None, 0.1234567, 3.0, float("inf"), float("nan")):
            report = Report("", [], data, "pass", timing)
            assert report.to_json() == oracle(report)
