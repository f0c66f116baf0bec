"""Config schema: each key's checks sit on its own dataclass field.

``setting(...)`` makes a field that records the value's type (taken from
the default unless ``kind`` is given), its bounds and choices, and whether
None is allowed. ``parse_section`` walks ``dataclasses.fields`` of a
config dataclass, recursing into nested config dataclasses, and turns plain
data (parsed YAML merged with command-line overrides) into an instance. It
rejects unknown keys and checks every value, raising ``ValidationError``
with the offending dotted key named.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import cache

from .errors import ValidationError


@dataclass(frozen=True)
class Check:
    kind: type  # int, float, str or list
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


_NOUNS = {str: "a non-empty string", list: "a list"}


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


@cache
def section_fields(cls) -> dict:
    """Each field's ``Check``, or the nested config dataclass it holds."""
    return {f.name: f.metadata.get("check") or f.default_factory for f in fields(cls)}


def parse_section(cls, data, key: str = ""):
    if not isinstance(data, dict):
        error(key or "<root>", f"expected a mapping, got {type(data).__name__}")
    specs = section_fields(cls)
    unknown = [name for name in data if name not in specs]
    if unknown:
        name = min(unknown, key=str)
        error(f"{key}.{name}" if key else name, "unknown key")
    values = {}
    for name, value in data.items():
        spec = specs[name]
        sub = f"{key}.{name}" if key else name
        if isinstance(spec, Check):
            values[name] = _parse_value(spec, value, sub)
        else:
            values[name] = parse_section(spec, value, sub)
    return cls(**values)
