"""Checked records: the one field check and the one JSON reader behind the
volume sidecar, the pipeline config and the phantom spec.

A record is a frozen dataclass deriving from ``Record``.  Construction
checks each field against its annotation, then runs the record's own
``check`` (ranges, enums).  Annotations may be ``str``, ``bool``, ``int``
and ``float`` (numbers, bools excluded, floats finite), ``tuple[K, K, K]``
of those (any list or tuple of three), ``X | None`` and nested records.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import typing

# per scalar annotation: the values it takes, and how errors name one and three
_KINDS = {
    str: (str, "a string", None),
    bool: (bool, "true or false", None),
    int: (numbers.Integral, "an integer", "integers"),
    float: (numbers.Real, "a number", "numbers"),
}


class Record:
    _label = "record"  # how errors name a JSON object holding this record

    def __post_init__(self):
        hints = _hints(type(self))
        for f in dataclasses.fields(self):
            value = _typed(f.name, getattr(self, f.name), hints[f.name])
            object.__setattr__(self, f.name, value)
        # before the finiteness test, so that a range check that also
        # rejects NaN ("outlier_tau must be positive") keeps its message
        self.check()
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in items if isinstance(v, numbers.Real)):
                raise ValueError(f"{f.name} must be finite, got {value!r}")

    def check(self) -> None:
        """Domain checks on fields that already have their types."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def from_dict(cls, d: dict):
        """Build from a JSON object, rejecting unknown and missing keys at
        every level.  A nested object may leave out keys that the field's
        default record holds, and null means that default."""
        return _build(cls, d, cls._label)

    @classmethod
    def from_json(cls, path):
        """Read a JSON object from ``path``; every error names the file."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                d = json.load(f)
        except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, deep nesting
            raise ValueError(f"{cls._label} is not valid JSON: {e} (in {path})") from None
        try:
            if not isinstance(d, dict):
                raise ValueError(f"{cls._label} must be a JSON object, got {type(d).__name__}")
            return cls.from_dict(d)
        except ValueError as e:
            raise ValueError(f"{e} (in {path})") from None


@functools.cache
def _hints(cls) -> dict:
    """The resolved annotations of a record class, evaluated once per class.

    The dict is shared by every caller, which only reads it.
    """
    return typing.get_type_hints(cls)


def _record_type(hint):
    """The record class of a field annotated ``R`` or ``R | None``, else None."""
    kind = (typing.get_args(hint) or (hint,))[0]
    return kind if isinstance(kind, type) and issubclass(kind, Record) else None


def _is(value, kind) -> bool:
    # bool is an int subclass: only a bool field takes true/false
    return isinstance(value, _KINDS[kind][0]) and (kind is bool or not isinstance(value, bool))


def _typed(name: str, value, hint):
    """``value`` checked against the annotation ``hint``; lists become tuples."""
    if type(None) in typing.get_args(hint):  # X | None
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        kind = typing.get_args(hint)[0]
        if not (isinstance(value, (list, tuple)) and len(value) == 3
                and all(_is(v, kind) for v in value)):
            raise ValueError(f"{name} must be three {_KINDS[kind][2]}, got {value!r}")
        return tuple(kind(v) for v in value)
    if _record_type(hint) is not None:
        if not isinstance(value, hint):
            raise ValueError(f"{name} must be a {hint.__name__}, got {value!r}")
    elif not _is(value, hint):
        raise ValueError(f"{name} must be {_KINDS[hint][1]}, got {value!r}")
    return value


def _build(cls, d: dict, what: str, base=None):
    """Record ``cls`` from the JSON object ``d``; ``what`` names the object
    in errors, and ``base``, if a ``cls`` record, supplies the keys ``d`` omits."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    hints = _hints(cls)
    kwargs = {name: getattr(base, name) for name in fields} if isinstance(base, cls) else {}
    for key, value in d.items():
        kind = _record_type(hints[key])
        if kind is None:
            kwargs[key] = value
        elif value is not None:  # null keeps the default
            if not isinstance(value, dict):
                raise ValueError(f"{what} entry {key!r} must be an object, got {value!r}")
            f = fields[key]
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            try:
                kwargs[key] = _build(kind, value, key, default)
            except ValueError as e:
                raise ValueError(f"bad {what} entry for {key!r}: {e}") from None
    for name, f in fields.items():
        if name not in kwargs and f.default is f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{what} is missing required key {name!r}")
    return cls(**kwargs)
