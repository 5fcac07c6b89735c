"""Structured check reports shared by the library verifiers and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

_ITEM = '\n    {\n      "name": %s,\n      "expected": %s,\n      "got": %s,\n      "ok": %s\n    }'


def _render(value, pad: str) -> str:
    """`json.dumps(value, indent=2)` with every line after the first indented
    by ``pad``.  Strings, ints, lists, tuples and str-keyed dicts are written
    here, at C speed per string and per all-int list; any other value goes to
    `json.dumps`, a scalar through its shared C encoder."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    inner = pad + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            body = (",\n" + inner).join(map(int.__repr__, value))
        else:
            body = (",\n" + inner).join([_render(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    if kind is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        body = (",\n" + inner).join([f"{_quote(k)}: {_render(v, inner)}"
                                      for k, v in value.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)
    return json.dumps(value)


@dataclass(frozen=True)
class CheckItem:
    """One verified fact: a name, what was expected, what was computed."""

    name: str
    expected: str
    got: str
    ok: bool


@dataclass
class Report:
    """Outcome of a command or verification suite.

    ``status`` is "pass" iff every item is ok ("error" marks aborted
    runs).  ``timing`` lives outside the reproducible region: two runs on
    the same inputs must agree bit for bit once timing is stripped.
    """

    command: str
    items: list[CheckItem] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    status: str = "pass"
    timing: float | None = None

    def add(self, name: str, expected, got, ok: bool | None = None) -> bool:
        self.items.append(item(name, expected, got, ok))
        return self.items[-1].ok

    def extend(self, items) -> None:
        self.items.extend(items)

    def finalize(self) -> "Report":
        if self.status != "error":
            self.status = "pass" if all(i.ok for i in self.items) else "fail"
        return self

    def core_dict(self) -> dict:
        """The reproducible region: everything except timing."""
        return {
            "command": self.command,
            "status": self.status,
            "items": [
                {"name": i.name, "expected": i.expected, "got": i.got, "ok": i.ok}
                for i in self.items
            ],
            "data": self.data,
        }

    def to_json(self) -> str:
        """`json.dumps` of the core dict plus timing at indent 2, byte for byte.

        Each item is written from one template and ``data`` by `_render`, so
        no value meets the pure-Python encoder that ``indent`` selects unless
        `_render` hands it over (a non-str-keyed dict, a list subclass)."""
        items = ",".join(_ITEM % (_quote(i.name), _quote(i.expected), _quote(i.got),
                                  "true" if i.ok else "false") for i in self.items)
        timing = "" if self.timing is None else (
            ',\n  "timing": {\n    "seconds": %s\n  }' % json.dumps(round(self.timing, 6)))
        return '{\n  "command": %s,\n  "status": %s,\n  "items": %s,\n  "data": %s%s\n}' % (
            _quote(self.command), _quote(self.status), f"[{items}\n  ]" if items else "[]",
            _render(self.data, "  "), timing)

    def to_plain(self) -> str:
        lines = [f"command: {self.command}", f"status: {self.status}"]
        for i in self.items:
            mark = "ok" if i.ok else "FAIL"
            lines.append(f"  [{mark:4}] {i.name}: expected {i.expected}, got {i.got}")
        for key, value in self.data.items():
            if isinstance(value, list):
                lines.append(f"{key}:")
                lines.extend(f"  {v}" for v in value)
            else:
                lines.append(f"{key}: {value}")
        if self.timing is not None:
            lines.append(f"timing: {self.timing:.6f}s")
        return "\n".join(lines)


def item(name: str, expected, got, ok: bool | None = None) -> CheckItem:
    """CheckItem with text fields; ``ok`` defaults to ``expected == got``."""
    if ok is None:
        ok = expected == got
    return CheckItem(name, str(expected), str(got), bool(ok))
