"""The one reader and writer of freenil's JSON files.

Constructions are read-only: a construction file is a JSON object whose
"construction" key selects the shape: "group" wraps a bare group, "amalgam"
and "hnn" carry a subgroup, factor or base groups, and the embeddings,
including any recorded transversals, so normal forms are fixed by the file.
Block modules are read and written: a block-module file holds
`nilobj.to_json_dict`; `save_nil` indents it by two and ends it with a
newline.  Paths may be strings, `Path`s or package resources.
"""

from __future__ import annotations

import json
from pathlib import Path

from .amalgam import amalgam_from_dict
from .groups import group_from_dict
from .hnn import hnn_from_dict
from .nilobj import NilObject, from_json_dict, to_json_dict


def construction_from_dict(data):
    kind = data.get("construction")
    if kind == "amalgam":
        return amalgam_from_dict(data)
    if kind == "hnn":
        return hnn_from_dict(data)
    if kind == "group":
        return group_from_dict(data["group"])
    raise ValueError(f"unknown construction kind {kind!r}")


def _read_json(path):
    source = path if hasattr(path, "read_text") else Path(path)
    return json.loads(source.read_text(encoding="utf-8"))


def load_construction(path):
    return construction_from_dict(_read_json(path))


def load_nil(path) -> NilObject:
    return from_json_dict(_read_json(path))


def save_nil(X: NilObject, path) -> None:
    text = json.dumps(to_json_dict(X), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")
