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
"""

from __future__ import annotations

import json
from pathlib import Path

from .amalgam import amalgam_from_dict
from .groups import group_from_dict
from .hnn import hnn_from_dict
from .nilobj import NilObject, from_json_dict, to_json_dict


# The JSON shape of each file: a field holds an object (dict), an array
# (list), or an object with shaped fields of its own.
_GROUP = {"names": list, "table": list, "letters": list}
_EMBEDDING = {"generator_images": dict, "transversal": list, "images": list}
_CONSTRUCTION = {
    **dict.fromkeys(("group", "subgroup", "factor1", "factor2", "base"), _GROUP),
    **dict.fromkeys(("embedding1", "embedding2", "alpha", "beta"), _EMBEDDING),
}
_NIL = {"units": list, "dims": dict, "letters": list}


def _check_shape(value, shape, path: str = "$") -> None:
    """Raise ValueError, naming the JSON path, where value departs from shape;
    absent fields and null arrays are left to the reader's defaults and checks."""
    if isinstance(shape, dict):
        _check_shape(value, dict, path)
        for key, field in shape.items():
            if key in value:
                _check_shape(value[key], field, f"{path}.{key}")
    elif not isinstance(value, shape) and not (shape is list and value is None):
        wanted = "an object" if shape is dict else "an array"
        raise ValueError(f"{path} must be {wanted}, got {json.dumps(value)[:40]}")


def construction_from_dict(data):
    _check_shape(data, _CONSTRUCTION)
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
    data = _read_json(path)
    _check_shape(data, _NIL)
    return from_json_dict(data)


def save_nil(X: NilObject, path) -> None:
    text = json.dumps(to_json_dict(X), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")
