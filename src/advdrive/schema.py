"""One parser for config sections and run records.

A config section or a record is a dataclass, and ``parse_section`` turns
plain data (parsed YAML merged with command-line overrides, or a record's
parsed JSON) into an instance of it. It walks ``dataclasses.fields``: a
field made by ``setting(...)`` is checked against what the setting records
(the value's type, taken from the default unless ``kind`` is given, its
bounds and choices, and whether None is allowed); any other field is parsed
by its annotation: a nested dataclass, ``X | None``, ``list[X]`` and
``dict[str, X]`` recursively, ``np.ndarray`` as nested lists of numbers, and
``int``, ``float``, ``str`` and ``bool`` by type. A field without a default
is required. Unknown keys, missing keys and bad values raise
``ValidationError`` naming the dotted key (``per_episode.victim1[0].cv_rate``).

Every JSON run record is written by ``write_record``, the one code that
turns a record into file bytes: a dataclass (``dataclasses.asdict``) or a
mapping, as JSON with sorted keys. It writes a whole file (``report.json``,
``episode0.json``, ``phase_manifest.json``, ``run_manifest.json``,
``compare.json``) or appends one line to an open log (``train_log.jsonl``).
The dataclass records are read back by ``read_record``, which raises
``ContractViolationError`` naming the file and the dotted key.
"""
from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ContractViolationError, ValidationError


@dataclass(frozen=True)
class Check:
    kind: type  # int, float, str, bool or list
    lo: float | None = None
    hi: float | None = None
    choices: tuple | None = None
    nullable: bool = False


def setting(default=MISSING, *, factory=MISSING, kind=None, lo=None, hi=None,
            choices=None, nullable=False):
    """A dataclass field whose values ``parse_section`` checks."""
    if kind is None:
        kind = type(default if factory is MISSING else factory())
    check = Check(kind, lo, hi, None if choices is None else tuple(choices), nullable)
    return field(default=default, default_factory=factory, metadata={"check": check})


def error(key: str, message: str):
    raise ValidationError(f"{key}: {message}")


_NOUNS = {str: "a non-empty string", list: "a list", dict: "a mapping", bool: "a boolean"}


def _parse_value(check: Check, value, key: str):
    if value is None and check.nullable:
        return None
    if check.choices is not None:
        if value not in check.choices:
            error(key, f"must be one of {list(check.choices)}, got {value!r}")
        return value
    if check.kind not in (int, float):
        if not isinstance(value, check.kind) or value == "":
            error(key, f"expected {_NOUNS[check.kind]}, got {type(value).__name__}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        error(key, f"expected a number, got {value!r}")
    if check.kind is int:
        if isinstance(value, float) and not value.is_integer():
            error(key, f"expected an integer, got {value!r}")
        value = int(value)
    else:
        value = float(value)
    if check.lo is not None and value < check.lo:
        error(key, f"value {value} below minimum {check.lo}")
    if check.hi is not None and value > check.hi:
        error(key, f"value {value} above maximum {check.hi}")
    return value


def _parse_array(value, key: str) -> np.ndarray:
    try:
        array = np.asarray(value if isinstance(value, list) else None)
    except ValueError:  # ragged nesting
        array = np.asarray(None)
    if array.dtype.kind not in "iuf":
        error(key, "expected nested lists of numbers")
    return array.astype(np.float64)


def _parse(spec, value, key: str):
    """``value`` parsed by a field's ``Check`` or its annotation ``spec``."""
    if isinstance(spec, Check):
        return _parse_value(spec, value, key)
    if is_dataclass(spec):
        return parse_section(spec, value, key)
    origin, args = get_origin(spec), get_args(spec)
    if origin is UnionType:  # X | None
        return None if value is None else _parse(args[0], value, key)
    if origin in (list, dict) and not isinstance(value, origin):
        error(key, f"expected {_NOUNS[origin]}, got {type(value).__name__}")
    if origin is list:
        return [_parse(args[0], item, f"{key}[{i}]") for i, item in enumerate(value)]
    if origin is dict:
        return {name: _parse(args[1], item, f"{key}.{name}") for name, item in value.items()}
    if spec is np.ndarray:
        return _parse_array(value, key)
    if spec is str and isinstance(value, str):  # a record's text may be empty, as written
        return value
    return _parse_value(Check(spec), value, key)


@cache
def section_fields(cls) -> dict:
    """Each field's ``Check``, or else its annotation, by name."""
    hints = get_type_hints(cls)
    return {f.name: f.metadata.get("check") or hints[f.name] for f in fields(cls)}


def parse_section(cls, data, key: str = ""):
    if not isinstance(data, dict):
        error(key or "<root>", f"expected a mapping, got {type(data).__name__}")
    specs = section_fields(cls)
    unknown = [name for name in data if name not in specs]
    if unknown:
        name = min(unknown, key=str)
        error(f"{key}.{name}" if key else name, "unknown key")
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            error(f"{key}.{f.name}" if key else f.name, "missing key")
    return cls(**{name: _parse(specs[name], value, f"{key}.{name}" if key else name)
                  for name, value in data.items()})


def write_record(dest, record, indent: int | None = None) -> None:
    """Writes ``record`` (a dataclass or a mapping) as JSON with sorted keys,
    arrays as nested lists: to the file at the path ``dest``, replacing it,
    with no trailing newline; or, when ``dest`` is a binary file open for
    writing, as one line appended to it and flushed."""
    data = asdict(record) if is_dataclass(record) else record
    text = json.dumps(data, sort_keys=True, indent=indent, default=np.ndarray.tolist).encode()
    if hasattr(dest, "write"):
        dest.write(text + b"\n")
        dest.flush()
        return
    path = os.fspath(dest)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(text)


def read_record(cls, path, what: str):
    """The ``cls`` record in the JSON file ``path``. Raises
    ``ContractViolationError`` naming ``what`` and the file unless it reads
    as JSON that ``parse_section`` accepts."""
    try:
        with open(path, "rb") as fh:
            data = json.loads(fh.read().decode())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ContractViolationError(f"cannot read {what} '{path}': {exc}") from exc
    try:
        return parse_section(cls, data)
    except ValidationError as exc:
        raise ContractViolationError(f"{what} '{path}': {exc}") from exc
