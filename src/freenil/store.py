"""The one reader and writer of freenil's JSON files.

Constructions are read-only: a construction file is a JSON object whose
"construction" key selects the shape: "group" wraps a bare group, "amalgam"
and "hnn" carry a subgroup, factor or base groups, and the embeddings,
including any recorded transversals, so normal forms are fixed by the file.
Block modules are read and written: a block-module file holds
`nilobj.to_json_dict`; `save_nil` indents it by two and ends it with a
newline.  Paths may be strings, `Path`s or package resources.  Every object
and array field is shape-checked before it is read, so a misshapen file is
an input error that names the JSON path.

The readers are imported inside the functions that use them: the CLI registers
every module at import (the tracer and the cache reset rely on that) and each
executes on first use, so loading a block module runs no group code.
"""

from __future__ import annotations

import json
from pathlib import Path


# The JSON shape of each file: a field holds a type (dict is an object,
# list an array) or a tuple of types, an array of one shape ([shape]), or
# an object with shaped fields.  Null stands where the reader has a default.
_ARRAY_OR_NULL = (list, type(None))
_GROUP = {"kind": str, "names": list, "table": list, "letters": _ARRAY_OR_NULL, "rank": int}
_EMBEDDING = {"kind": str, "generator_images": dict, "transversal": _ARRAY_OR_NULL, "images": list}
_CONSTRUCTION = {
    "construction": str,
    **dict.fromkeys(("group", "subgroup", "factor1", "factor2", "base"), _GROUP),
    **dict.fromkeys(("embedding1", "embedding2", "alpha", "beta"), _EMBEDDING),
}
_LETTER = {"name": str, "src": str, "dst": str, "matrix": list}
_NIL = {"units": [str], "base": str, "dims": dict, "letters": [_LETTER]}
_WANTED = {dict: "an object", list: "an array", str: "a string", int: "an integer", type(None): "null"}


def _check_shape(value, shape, path: str = "$") -> None:
    """Raise ValueError, naming the JSON path, where value departs from shape;
    absent fields are left to the reader's defaults and checks."""
    if isinstance(shape, dict):
        _check_shape(value, dict, path)
        for key, field in shape.items():
            if key in value:
                _check_shape(value[key], field, f"{path}.{key}")
    elif isinstance(shape, list):
        _check_shape(value, list, path)
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{path}[{i}]")
    elif not isinstance(value, shape):
        wanted = " or ".join(_WANTED[t] for t in (shape if isinstance(shape, tuple) else (shape,)))
        raise ValueError(f"{path} must be {wanted}, got {json.dumps(value)[:40]}")


def construction_from_dict(data):
    from . import amalgam, groups, hnn

    _check_shape(data, _CONSTRUCTION)
    kind = data.get("construction")
    if kind == "amalgam":
        return amalgam.amalgam_from_dict(data)
    if kind == "hnn":
        return hnn.hnn_from_dict(data)
    if kind == "group":
        return groups.group_from_dict(data["group"])
    raise ValueError(f"unknown construction kind {kind!r}")


def _read_json(path):
    source = path if hasattr(path, "read_text") else Path(path)
    return json.loads(source.read_text(encoding="utf-8"))


def load_construction(path):
    return construction_from_dict(_read_json(path))


def load_nil(path):
    from .nilobj import from_json_dict

    data = _read_json(path)
    _check_shape(data, _NIL)
    return from_json_dict(data)


def save_nil(X, path) -> None:
    from .nilobj import to_json_dict

    text = json.dumps(to_json_dict(X), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")
