"""Report rendering: `Report.to_json` against `json.dumps` as the oracle.

The renderer writes each item from one template and the data by its own
writer, handing `json.dumps` only the values it does not write itself;
`json.dumps(payload, indent=2)` of the same payload is the reference it
must match byte for byte.
"""

import enum
import gc
import json

from hypothesis import given, settings, strategies as st

from freenil.report import CheckItem, Report, _render

# Quotes, backslashes, control characters, line separators, non-ASCII and
# astral characters, mixed into arbitrary text.
TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\x85", "\u2028",
                          "\u00e9", "\U0001f600", "\U0001d535"])
TEXT = st.lists(st.text(max_size=6) | TRICKY, max_size=4).map("".join)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
DATA = st.dictionaries(TEXT, st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12), max_size=4)


class Small(enum.IntEnum):
    ONE = 1


# Shapes the runners produce, and the values the writer hands to `json.dumps`,
# which DATA draws rarely or never: tuples, long all-int lists, lists of int
# lists (nil-map matrices), dicts inside lists (collapse images), bools and
# int subclasses inside int lists, and dicts with non-str keys.
INTS = st.integers() | st.integers(-10**30, 10**30)
ROW = st.lists(INTS, min_size=4, max_size=24)
MATRIX = st.lists(st.lists(INTS, max_size=6), min_size=1, max_size=6)
SHAPES = st.recursive(
    SCALARS | ROW | MATRIX | st.lists(INTS | st.booleans() | st.just(Small.ONE), min_size=1),
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.dictionaries(TEXT, inner, max_size=3), min_size=1, max_size=3)
    | st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none() | TEXT, inner,
                      min_size=1, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=10)


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


@settings(settings.get_profile("ci"), max_examples=200)
@given(data=st.dictionaries(TEXT, SHAPES, max_size=3))
def test_to_json_matches_json_dumps_on_runner_shapes(data):
    report = Report("command", [], data, "pass", 0.25)
    assert report.to_json() == oracle(report)


class Label(str):
    pass


@settings(settings.get_profile("ci"), max_examples=300)
@given(value=st.lists(TEXT | TEXT.map(Label), min_size=1, max_size=12),
       pad=st.sampled_from(["", "  ", "    "]))
def test_str_lists_render_as_json_dumps(value, pad):
    # An all-str list (the words reports) is joined in one pass; a str
    # subclass among the items sends the list the general way.
    assert _render(value, pad) == json.dumps(value, indent=2).replace("\n", "\n" + pad)


def test_rendering_leaves_no_garbage():
    # A nil-map report, with nil-check's bool and a missing index: at indent 2
    # `json.dumps` builds an encoder whose closures form a reference cycle.
    matrix = [[(i * j) % 5 - 2 for j in range(12)] for i in range(12)]
    data = {
        "applied": "restrict to unit p",
        "index": None,
        "nilpotent": True,
        "result": {"units": ["p", "q"], "base": "int", "dims": {"p": 12, "q": 0},
                   "letters": [{"name": "f", "src": "p", "dst": "p", "matrix": matrix}]},
    }
    report = Report("algebra nil-map nil_example --restrict p",
                    [CheckItem("the transported object is nilpotent", "True", "True", True)],
                    data, "pass", 0.001)
    gc.collect()
    gc.disable()
    try:
        report.to_json()
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


def test_empty_report_and_empty_containers():
    for data in ({}, {"a": [], "b": {}, "c": [[], {}], "d": [None, True, False, 0, -1.5]}):
        for timing in (None, 0.1234567, 3.0, float("inf"), float("nan")):
            report = Report("", [], data, "pass", timing)
            assert report.to_json() == oracle(report)
