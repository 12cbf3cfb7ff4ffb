"""How an input file is read, decoded, checked and reported.

Every input file is UTF-8 text, and JSON where its format says so. A fault
is one exception, of the type the caller passes, whose message names the
file. A JSON value of the wrong kind is reported in one form,
``<what> <path>: <key> must be <kind> (got <value>)``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .errors import ExpSumError


def read_text(path: str | Path, what: str, error: type[Exception]) -> str:
    """The text of the ``what`` file ``path``. Bytes that are not UTF-8 are
    an ``error``; so is an unreadable file if ``error`` is an
    :class:`ExpSumError`, else the ``OSError``, which names the file, stays."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        if not issubclass(error, ExpSumError):
            raise
        raise error(f"cannot read {what} {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise error(f"{what} {path} is not UTF-8 text ({e.reason} at byte {e.start})") from None


def parse_json(text: str, where: str, error: type[Exception]):
    """The JSON value of ``text`` from ``where``; text that is not JSON, too
    deep or with an integer of over 4,300 digits is an ``error``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, too many digits, too deep
        raise error(f"{where} is not valid JSON ({e})") from None


def read_json(path: str | Path, what: str, error: type[Exception]):
    """The JSON value in the ``what`` file ``path``."""
    return parse_json(read_text(path, what, error), f"{what} {path}", error)


def read_jsonl(path: str | Path):
    """Yield ``(line number, object)`` for each non-blank line of a JSON-lines
    file; a line that is not UTF-8 text, not JSON or not an object is a
    ``ValueError`` naming the file and line."""
    # surrogateescape reads on past a byte that is not UTF-8, as a lone
    # surrogate, so the line holding it can be named.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path} line {line_no}"
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as e:
                byte, column = ord(line[e.start]) - 0xDC00, e.start + 1
                raise ValueError(
                    f"{where} is not UTF-8 text (byte 0x{byte:02x} at column {column})"
                ) from None
            record = parse_json(line, where, ValueError)
            yield line_no, check(record, "an object", where, (), ValueError)


#: The JSON types a value of each kind may have; ``bool`` is no number.
KINDS = {
    "a string": {str},
    "a string or null": {str, type(None)},
    "an integer": {int},
    "an integer or null": {int, type(None)},
    "a finite number": {int, float},
    "a boolean": {bool},
    "an object": {dict},
    "an object or null": {dict, type(None)},
    "a list": {list},
    "a list or null": {list, type(None)},
}

#: The kinds a value is of by its type alone: not a finite number.
_PLAIN_KINDS = {**KINDS, "a finite number": set()}


def fault(where: str, path: tuple, kind: str, value, error: type[Exception]) -> Exception:
    """The ``error`` saying that the value at ``path`` in ``where`` must be
    ``kind`` but is ``value``. ``path`` holds the object keys, shown quoted,
    and list positions, shown as ``item N``, that lead to the value."""
    key = " ".join(f"item {p}" if type(p) is int else repr(p) for p in path)
    head = f"{where}: {key}" if where and key else where or key
    return error(f"{head} must be {kind} (got {value!r:.40})")


def check(
    value, kind: str, where: str, path: tuple, error: type[Exception], items=None, least=None
):
    """``value``, if it is of ``kind`` (a finite number is neither infinite,
    NaN nor an integer past the float range) and, given an ``items`` kind,
    so is each item of the list or value of the object; else, given
    ``least``, the value must be at least ``least``. Otherwise the
    :func:`fault`, naming the first item at fault."""
    if type(value) not in KINDS[kind] or (
        kind == "a finite number" and not abs(value) <= sys.float_info.max
    ):
        raise fault(where, path, kind, value, error)
    if items is None:
        if least is not None and value < least:
            raise fault(where, path, f"at least {least}", value, error)
    elif value is not None:
        values = value.values() if type(value) is dict else value
        # one pass over the types, as a KB column can be long
        if not set(map(type, values)) <= KINDS[items]:
            pairs = value.items() if type(value) is dict else enumerate(value)
            key, item = next((k, v) for k, v in pairs if type(v) not in KINDS[items])
            raise fault(where, (*path, key), items, item, error)
    return value


class JsonObject:
    """A JSON object at ``path`` in ``where`` whose values are checked, with
    :func:`check`, as they are read."""

    __slots__ = ("obj", "where", "error", "path")

    def __init__(self, obj, where: str, error: type[Exception], path: tuple = ()):
        if type(obj) is not dict:
            raise fault(where, path, "an object", obj, error)
        self.obj, self.where, self.error, self.path = obj, where, error, path

    def get(self, key: str, kind: str, default=None, items=None, least=None):
        """The value of ``key``, or ``default`` when it is absent."""
        value = self.obj.get(key, default)
        if items is None and least is None and type(value) in _PLAIN_KINDS[kind]:
            return value  # the common case, which needs no path
        return check(value, kind, self.where, (*self.path, key), self.error, items, least)

    def object(self, key: str, default=None) -> "JsonObject":
        """The object at ``key``, or ``default`` when it is absent."""
        return JsonObject(self.obj.get(key, default), self.where, self.error, (*self.path, key))
