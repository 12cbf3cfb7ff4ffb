"""Informativeness checking: drop empty and uninformative metadata fields.

Empty values (blank strings, empty lists) carry nothing worth prompting
with; uninformative values (placeholders, primitive type names, generic
identifiers) are detected by exact, case-insensitive match against a
line-delimited dictionary. A parameter is dropped only when both its name
and its type annotation match dictionary entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .code_model import MetadataSet
from .errors import EmptyDictionary, IoFailure
from .files import read_text

REASON_EMPTY = "empty"
REASON_UNINFORMATIVE = "uninformative"


@dataclass(frozen=True)
class UninformativeDictionary:
    """Lowercased keywords and phrases flagged as uninformative.

    Lookup is exact on the whole normalized value, never substring, so
    informative prose that merely contains a listed word is kept.
    """

    entries: frozenset[str]
    version: str = "unversioned"

    def matches(self, value: str | None) -> bool:
        if value is None:
            return False
        return value.strip().lower() in self.entries


@dataclass
class CheckReport:
    """Outcome of one checking pass.

    ``removed_fields`` pairs a field name (annotation keys and indexed
    parameter subfields included) with the removal reason; ``retained`` is
    the surviving metadata set with removed fields blanked to ``None``.
    """

    removed_fields: list[tuple[str, str]]
    retained: MetadataSet

    def to_dict(self) -> dict:
        from .code_model import metadata_to_dict

        return {
            "removed_fields": [
                {"field": name, "reason": reason}
                for name, reason in self.removed_fields
            ],
            "retained": metadata_to_dict(self.retained),
        }


def load_dictionary(path: str | Path) -> UninformativeDictionary:
    """Read a UTF-8, line-delimited dictionary file.

    ``#`` starts a comment; a ``# version: <v>`` header line is honored.
    Duplicate lines collapse to one entry.
    """
    text = read_text(path, "dictionary", IoFailure)
    version = "unversioned"
    entries: set[str] = set()
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            comment = stripped.lstrip("#").strip()
            if comment.lower().startswith("version:"):
                version = comment.split(":", 1)[1].strip() or version
            continue
        normalized = stripped.lower()
        if normalized:
            entries.add(normalized)
    if not entries:
        raise EmptyDictionary(f"dictionary {path} has no entries")
    return UninformativeDictionary(entries=frozenset(entries), version=version)


def _is_empty(value) -> bool:
    if isinstance(value, str):
        return not value.strip()
    if isinstance(value, list):
        return len(value) == 0
    return False


def check_metadata(m: MetadataSet, dictionary: UninformativeDictionary) -> CheckReport:
    """Remove empty and uninformative fields from ``m``.

    ``None`` fields are treated as already absent and are neither retained
    nor re-removed, which makes the check idempotent. ``function_name`` and
    ``file_path`` are never removed.
    """
    removed: list[tuple[str, str]] = []
    retained = replace(m, dmt=dict(m.dmt))

    def drop(field_name: str, reason: str) -> None:
        removed.append((field_name, reason))
        setattr(retained, field_name, None)

    # parameters: subfield-aware
    if m.parameters is not None:
        if _is_empty(m.parameters):
            drop("parameters", REASON_EMPTY)
        else:
            survivors = []
            dropped_subfields = []
            for i, p in enumerate(m.parameters):
                name_hit = bool(p.name) and dictionary.matches(p.name)
                type_hit = p.type_annotation is not None and dictionary.matches(
                    p.type_annotation
                )
                if name_hit and type_hit:
                    dropped_subfields.append(f"parameters[{i}]")
                else:
                    survivors.append(p)
            if not survivors:
                drop("parameters", REASON_UNINFORMATIVE)
            else:
                removed.extend(
                    (sub, REASON_UNINFORMATIVE) for sub in dropped_subfields
                )
                retained.parameters = survivors

    # scalar string fields; function_name and file_path are protected
    for field_name in (
        "return_type",
        "package_module",
        "control_flow_skeleton",
        "io_behavior",
        "variable_modification",
    ):
        value = getattr(m, field_name)
        if value is None:
            continue
        if _is_empty(value):
            drop(field_name, REASON_EMPTY)
        elif dictionary.matches(value):
            drop(field_name, REASON_UNINFORMATIVE)

    # dependency: a list of module names
    if m.dependency is not None:
        if _is_empty(m.dependency):
            drop("dependency", REASON_EMPTY)
        elif all(dictionary.matches(d) for d in m.dependency):
            drop("dependency", REASON_UNINFORMATIVE)

    # annotation map: each key is its own field
    for key in list(m.dmt.keys()):
        value = m.dmt[key]
        if _is_empty(value):
            removed.append((key, REASON_EMPTY))
            del retained.dmt[key]
        elif dictionary.matches(value):
            removed.append((key, REASON_UNINFORMATIVE))
            del retained.dmt[key]

    return CheckReport(removed_fields=removed, retained=retained)
