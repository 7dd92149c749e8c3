"""Strict-JSON codec for the frozen record dataclasses that get persisted.

Incident records, health findings, lint findings and workload
advisories are stored as JSONL lines and read back by the renderers,
rollups and CLI.  Their JSON shape is defined once, by the dataclass
declarations: :func:`encode` and :func:`decode` walk
``dataclasses.fields`` and the resolved type hints, field by field in
declaration order, so a new field costs one declaration.

By field type:

* nested dataclass — recursed into;
* ``X | None`` — ``None`` passes through both ways;
* ``tuple[X, ...]`` and fixed tuples — a JSON list, read back as a tuple;
* an ``Enum`` with ``label`` / ``from_label`` (``Severity``) — its label;
* ``dict`` — a shallow copy both ways; ``dict[str, Scalar]`` also
  coerces each value to a strict-JSON scalar on encode (:func:`_jsonable`);
* ``int`` / ``float`` / ``bool`` / ``str`` — as is, coerced to the
  declared type on decode.

A key missing on decode takes the field's default; a missing required
key raises ``KeyError``.  Each class's plan is built once and cached, so
no type hint is resolved per record.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing
from dataclasses import MISSING
from operator import attrgetter
from typing import Any, Callable, Mapping, TypeVar

__all__ = ["Scalar", "JsonRecord", "encode", "decode"]

#: JSON scalar types allowed as evidence values.
Scalar = str | int | float | bool

T = TypeVar("T")
_Convert = Callable[[Any], Any]
#: ``(field name, encoder)``; an encoder of ``None`` writes the value as is.
_Encoder = tuple[str, _Convert | None]
#: ``(field name, decoder, required)``.
_Decoder = tuple[str, _Convert, bool]
_SCALARS = (str, int, float, bool)


def _jsonable(value: object) -> object:
    """``value`` if it is a strict-JSON scalar or ``None``, else its ``str``."""
    if value is None or isinstance(value, _SCALARS):
        return value
    return str(value)


def _scalar_dict(value: Mapping[Any, object]) -> dict[str, object]:
    return {str(k): _jsonable(v) for k, v in value.items()}


@functools.cache
def _plan(cls: type) -> tuple[list[_Encoder], list[_Decoder]]:
    """``cls``'s per-field converters, in declaration order."""
    hints = typing.get_type_hints(cls)
    encoders: list[_Encoder] = []
    decoders: list[_Decoder] = []
    for f in dataclasses.fields(cls):
        enc, dec = _converters(hints[f.name])
        required = f.default is MISSING and f.default_factory is MISSING
        encoders.append((f.name, enc))
        decoders.append((f.name, dec, required))
    return encoders, decoders


def _converters(tp: Any) -> tuple[_Convert | None, _Convert]:
    """``(encoder, decoder)`` for one field type; encoder ``None`` is as-is."""
    if tp in _SCALARS:
        return None, tp
    if isinstance(tp, type) and dataclasses.is_dataclass(tp):
        cls: type = tp
        return encode, lambda v: decode(cls, v)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        from_label = getattr(tp, "from_label")
        return attrgetter("label"), lambda v: from_label(str(v))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is dict or origin is dict:
        if args and args[1] == Scalar:
            return _scalar_dict, dict
        return dict, dict
    if origin in (types.UnionType, typing.Union):
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _converters(inner)
        return (None if enc is None else _maybe(enc)), _maybe(dec)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence(args[0])
    if origin is tuple:
        items = [_converters(a) for a in args]
        if not any(enc for enc, _ in items):
            decs = [dec for _, dec in items]
            return list, lambda v: tuple(d(x) for d, x in zip(decs, v))
    raise TypeError(f"no JSON encoding for field type {tp!r}")


def _maybe(convert: _Convert) -> _Convert:
    return lambda v: None if v is None else convert(v)


def _sequence(item: Any) -> tuple[_Convert, _Convert]:
    """Converters of ``tuple[item, ...]``."""
    pair = typing.get_args(item)
    if typing.get_origin(item) is tuple and len(pair) == 2 and all(a in _SCALARS for a in pair):
        # Metric traces hold thousands of (t, v) samples: decode them in
        # one comprehension rather than one call per pair.
        first, second = pair
        return (
            lambda v: list(map(list, v)),
            lambda v: tuple([(first(a), second(b)) for a, b in v]),
        )
    enc, dec = _converters(item)
    if enc is None:
        return list, lambda v: tuple(map(dec, v))
    each = enc
    return lambda v: list(map(each, v)), lambda v: tuple(map(dec, v))


def encode(obj: object) -> dict[str, Any]:
    """The strict-JSON dict of a record dataclass, keys in field order."""
    out: dict[str, Any] = {}
    for name, enc in _plan(type(obj))[0]:
        value = getattr(obj, name)
        out[name] = value if enc is None else enc(value)
    return out


def decode(cls: type[T], data: Mapping[str, Any]) -> T:
    """Rebuild a ``cls`` record from its :func:`encode` dict."""
    kwargs: dict[str, Any] = {}
    for name, dec, required in _plan(cls)[1]:
        if name in data:
            kwargs[name] = dec(data[name])
        elif required:
            raise KeyError(name)
    return cls(**kwargs)


R = TypeVar("R", bound="JsonRecord")


class JsonRecord:
    """Mixin: ``to_dict`` / ``from_dict`` through :func:`encode` / :func:`decode`."""

    __slots__ = ()

    def to_dict(self) -> dict[str, Any]:
        return encode(self)

    @classmethod
    def from_dict(cls: type[R], data: Mapping[str, Any]) -> R:
        return decode(cls, data)
