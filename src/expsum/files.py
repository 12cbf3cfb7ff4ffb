"""How an input file is read, decoded and reported.

Every input file is UTF-8 text, and JSON where its format says so. A fault
is one exception, of the type the caller passes, whose message names the
file; callers check only their format's shape.
"""

from __future__ import annotations

import json
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
            if not isinstance(record, dict):
                raise ValueError(f"{where}: record is not an object")
            yield line_no, record
