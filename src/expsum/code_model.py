"""Function metadata modeling.

Turns a function (raw source or a pre-extracted record) into a structured
metadata set that captures signature, context, and behavior information plus
a configurable map of project-specific annotations, while dropping
implementation details.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Optional

from .errors import UnsupportedLanguage
from .files import JsonObject, parse_json


class Language(str, Enum):
    ARKTS = "arkts"
    TYPESCRIPT = "typescript"
    JAVA = "java"
    PYTHON = "python"
    C_CPP = "c_cpp"
    UNKNOWN = "unknown"

    @classmethod
    def from_string(cls, value: str) -> "Language":
        try:
            return cls(value.strip().lower())
        except ValueError:
            return cls.UNKNOWN


#: Annotation keys harvested by default (the set used by OpenHarmony-style
#: declaration files; override per project).
DEFAULT_DMT_KEYS = (
    "@deprecated",
    "@atomicservice",
    "@since",
    "@syscap",
    "@officialdoc",
    "@usage",
)


@dataclass(frozen=True)
class DmtConfig:
    """Which domain-annotation keys to harvest for a project.

    Keys absent from ``enabled_keys`` never appear in a modeled metadata set.
    """

    enabled_keys: frozenset[str] = frozenset(DEFAULT_DMT_KEYS)

    @classmethod
    def of(cls, keys) -> "DmtConfig":
        return cls(enabled_keys=frozenset(keys))


@dataclass
class ParameterField:
    """One input argument: name, optional type annotation, optional default.

    ``name`` may be empty only when the parser could not recover it (for
    example a destructuring pattern); the type annotation must then be
    present.
    """

    name: str
    type_annotation: Optional[str] = None
    default_value: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type_annotation": self.type_annotation,
            "default_value": self.default_value,
        }


#: Canonical field order for serialization and prompt rendering.
METADATA_FIELD_ORDER = (
    "function_name",
    "parameters",
    "return_type",
    "file_path",
    "package_module",
    "dependency",
    "control_flow_skeleton",
    "io_behavior",
    "variable_modification",
    "dmt",
)


@dataclass
class MetadataSet:
    """Structured description of one function.

    The nine common fields cover signature (name, parameters, return type),
    context (file path, package/module, dependencies), and behavior (control
    flow skeleton, I/O behavior, variable modification). ``dmt`` is an open
    key/value map of project-specific annotations such as ``@since``.

    ``None`` means the field is absent from the set; empty strings and empty
    lists mean present-but-empty (which the informativeness check deletes).
    """

    function_name: str = ""
    parameters: Optional[list[ParameterField]] = field(default_factory=list)
    return_type: Optional[str] = None
    file_path: str = ""
    package_module: Optional[str] = None
    dependency: Optional[list[str]] = field(default_factory=list)
    control_flow_skeleton: Optional[str] = None
    io_behavior: Optional[str] = None
    variable_modification: Optional[str] = None
    dmt: dict[str, str] = field(default_factory=dict)

    def filtered_dmt(self, dmt_config: DmtConfig) -> "MetadataSet":
        """Copy with only the annotation keys enabled by ``dmt_config``."""
        kept = {k: v for k, v in self.dmt.items() if k in dmt_config.enabled_keys}
        return replace(self, dmt=dict(kept))

    def present_fields(self) -> list[str]:
        """Names of fields carrying a value (dmt keys count individually)."""
        names = []
        for name in METADATA_FIELD_ORDER:
            if name == "dmt":
                names.extend(sorted(self.dmt.keys()))
            elif getattr(self, name) is not None:
                names.append(name)
        return names


@dataclass
class FunctionRecord:
    """Input to the modeling phase.

    At least one of ``source_text`` or ``pre_extracted`` must be present and
    ``file_path`` must be non-empty.
    """

    file_path: str
    source_text: Optional[str] = None
    language: Language = Language.UNKNOWN
    pre_extracted: Optional[MetadataSet] = None

    def validate(self) -> None:
        if not self.file_path:
            raise ValueError("FunctionRecord.file_path must be non-empty")
        if self.source_text is None and self.pre_extracted is None:
            raise ValueError(
                "FunctionRecord needs source_text or pre_extracted"
            )

    @classmethod
    def from_dict(cls, fn: Any, where: str = "") -> "FunctionRecord":
        """Parse a corpus record's ``function`` object; a value of the wrong
        shape is a ``ValueError`` naming ``where`` and the key (see
        :func:`metadata_from_dict`)."""
        fn = JsonObject(fn, where, ValueError, ("function",))
        pre = fn.get("pre_extracted", "an object or null")
        return cls(
            file_path=fn.get("file_path", "a string", ""),
            source_text=fn.get("source_text", "a string or null"),
            language=Language.from_string(fn.get("language", "a string", "unknown")),
            pre_extracted=(
                None if pre is None else metadata_from_dict(pre, where, (*fn.path, "pre_extracted"))
            ),
        )


def metadata_to_dict(m: MetadataSet) -> dict[str, Any]:
    """Canonical dict form: table field order, ``None`` fields omitted,
    annotation keys sorted."""
    out: dict[str, Any] = {}
    for name in METADATA_FIELD_ORDER:
        if name == "dmt":
            out["dmt"] = {k: m.dmt[k] for k in sorted(m.dmt)}
        elif name == "parameters":
            if m.parameters is not None:
                out["parameters"] = [p.to_dict() for p in m.parameters]
        else:
            value = getattr(m, name)
            if value is not None:
                out[name] = value
    return out


def metadata_from_dict(d: Any, where: str = "", path: tuple = ()) -> MetadataSet:
    """Inverse of :func:`metadata_to_dict`.

    Raises ``ValueError`` naming ``where`` and the field, at ``path``, when
    a value has the wrong shape: a text field that is not a string,
    ``parameters`` that is not a list of objects with string subfields,
    ``dependency`` that is not a list of strings, or ``dmt`` that is not an
    object of strings. ``null`` marks an absent field.
    """
    d = JsonObject(d, where, ValueError, path)
    params = d.get("parameters", "a list or null")
    if params is not None:
        params = [
            ParameterField(
                name=p.get("name", "a string", ""),
                type_annotation=p.get("type_annotation", "a string or null"),
                default_value=p.get("default_value", "a string or null"),
            )
            for p in (
                JsonObject(p, where, ValueError, (*path, "parameters", i))
                for i, p in enumerate(params)
            )
        ]
    dependency = d.get("dependency", "a list or null", items="a string")
    return MetadataSet(
        function_name=d.get("function_name", "a string", ""),
        parameters=params,
        return_type=d.get("return_type", "a string or null"),
        file_path=d.get("file_path", "a string", ""),
        package_module=d.get("package_module", "a string or null"),
        dependency=list(dependency) if dependency is not None else None,
        control_flow_skeleton=d.get("control_flow_skeleton", "a string or null"),
        io_behavior=d.get("io_behavior", "a string or null"),
        variable_modification=d.get("variable_modification", "a string or null"),
        dmt=dict(d.get("dmt", "an object", {}, items="a string")),
    )


def serialize_metadata(m: MetadataSet) -> str:
    """Deterministic JSON rendering; round-trips through
    :func:`deserialize_metadata`."""
    return json.dumps(metadata_to_dict(m), indent=2, ensure_ascii=False)


def deserialize_metadata(s: str) -> MetadataSet:
    return metadata_from_dict(parse_json(s, "metadata", ValueError), "metadata")


def extract_control_flow_skeleton(source_text: str, language: Language) -> str:
    """Label the control constructs of a statement sequence, in source order.

    Labels come from a fixed vocabulary: ``conditional``, ``loop``, ``try``,
    ``switch``, ``return statement``, ``callback registration``. Returns an
    empty string for a body with none.
    """
    frontend = select_frontend(language, "")
    if frontend is None:
        raise UnsupportedLanguage(f"no frontend for language {language.value!r}")
    return frontend.control_flow_skeleton(source_text)


def select_frontend(language: Language, file_path: str):
    """Pick a parser frontend by explicit language, else by file extension."""
    from . import frontends

    if language in (Language.ARKTS, Language.TYPESCRIPT):
        return frontends.TypeScriptLikeFrontend()
    if language is Language.UNKNOWN and file_path:
        lowered = file_path.lower()
        if lowered.endswith((".ts", ".ets", ".arkts", ".js", ".mjs")):
            return frontends.TypeScriptLikeFrontend()
    return None


def model_function(record: FunctionRecord, dmt_config: DmtConfig) -> MetadataSet:
    """Model one function into a metadata set.

    A record with ``pre_extracted`` set bypasses parsing entirely; only the
    annotation filter is applied. Otherwise the source is parsed by the
    frontend selected for the record's language or file extension.
    """
    record.validate()
    if record.pre_extracted is not None:
        return record.pre_extracted.filtered_dmt(dmt_config)

    frontend = select_frontend(record.language, record.file_path)
    if frontend is None:
        raise UnsupportedLanguage(
            f"no frontend for language {record.language.value!r} "
            f"(file {record.file_path!r}) and no pre-extracted metadata"
        )
    metadata = frontend.parse(record.source_text or "", record.file_path)
    return metadata.filtered_dmt(dmt_config)
