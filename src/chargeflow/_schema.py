"""One strict reader for the package's JSON documents: run configs and
equilibrium certificates.

A document's format is a schema table: key -> (converter, default).  A
converter maps a JSON value, or a flag's string, to the typed value or
raises TypeError, ValueError or ArithmeticError.  A default is converted
like a given value; ``None`` leaves the key unset and ``REQUIRED`` makes a
missing key an error.  A dict or ``Variants`` in the converter slot is a
nested block, and a one-entry list holding one is a list of such blocks.
A key set to null counts as missing, except that ``OPTIONAL`` leaves a
missing key unset and rejects a null one, for a document that never
writes null.
"""

from __future__ import annotations

from reprlib import repr as _short
from typing import NamedTuple

from .errors import ValidationError

REQUIRED, OPTIONAL = object(), object()


class Variants(NamedTuple):
    """A block whose ``key`` (``default`` when missing) picks the schema of
    its other keys."""

    key: str
    default: object
    schemas: dict


def such_that(test, convert=lambda value: value):
    """Converter: ``convert``, then reject a result that fails ``test``."""

    def checked(value):
        out = convert(value)
        if not test(out):
            raise ValueError(f"{_short(out)} is not allowed here")
        return out

    return checked


def typed(kind):
    """Converter: the value itself, which must be exactly of type ``kind``
    (so a bool is no int and an int is no float)."""
    return such_that(lambda value: type(value) is kind)


def one_of(*options):
    """Converter: the value itself, which must be one of ``options``."""
    return such_that(lambda value: value in options)


_list = typed(list)


def list_of(convert):
    """Converter of a JSON list, entry by entry."""
    return lambda values: [convert(v) for v in _list(values)]


def _field(block: dict, key: str, convert, default, where: str, prefix: str):
    """``block[key]``, or ``default`` when it is missing or null, through
    ``convert``; errors name ``where`` the block sits."""
    value = block.get(key)
    if value is None:
        if default is REQUIRED:
            raise ValidationError(f"{where} block needs {key!r}")
        if default is OPTIONAL and key in block:
            raise ValidationError(f"{where} {key!r} is malformed: None")
        if default is None or default is OPTIONAL:
            return None
        value = default
    inner = prefix + key
    try:
        if isinstance(convert, list):
            return [walk(v, convert[0], f"{inner} {i}", f"{inner} {i} ") for i, v in enumerate(_list(value))]
        if isinstance(convert, (dict, Variants)):
            return walk(value, convert, inner, inner + " ")
        return convert(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"{where} {key!r} is malformed: {_short(value)}") from exc


def walk(doc, schema, where: str, prefix: str = "") -> dict:
    """``doc`` converted key by key through ``schema``, defaults filled in;
    a key the schema does not list is an error.  Errors name the block
    ``where``, and a nested block is named ``prefix`` plus its key, so the
    blocks of a document named ``where`` are named by their keys alone."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be an object: {_short(doc)}")
    if isinstance(schema, Variants):
        tag = (one_of(*schema.schemas), schema.default)
        schema = {schema.key: tag, **schema.schemas[_field(doc, schema.key, *tag, where, prefix)]}
    if not doc.keys() <= schema.keys():
        raise ValidationError(f"unknown keys in {where}: {sorted(doc.keys() - schema.keys())}")
    rows = schema.items()
    return {key: _field(doc, key, convert, default, where, prefix) for key, (convert, default) in rows}
