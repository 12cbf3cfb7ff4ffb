"""Constraint-driven two-stage summary generation.

A draft generator prompts the model with the checked metadata, the retrieved
domain terms, and one constraint schema per candidate function category; the
model must declare a category and a draft summary. A refiner then validates
the declared category against the metadata, either rejecting it with an
explicit error signal (shrinking the candidate category space for the next
draft) or polishing the draft into the final summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Optional

from .code_model import MetadataSet, serialize_metadata
from .errors import (
    AllCategoriesExcluded,
    ConfigError,
    MalformedDraft,
    MalformedRefinement,
)
from .files import JsonObject, check, fault, read_json
from .llm import LlmClient, LlmRequest, LlmResponse
from .retrieval import RetrievalResult


class FunctionCategory(str, Enum):
    FIELD = "field"
    PROCEDURAL = "procedural"
    CONSTRUCTOR = "constructor"
    CALLBACK = "callback"
    UTILITY = "utility"


CATEGORY_ORDER = (
    FunctionCategory.FIELD,
    FunctionCategory.PROCEDURAL,
    FunctionCategory.CONSTRUCTOR,
    FunctionCategory.CALLBACK,
    FunctionCategory.UTILITY,
)

#: Data-type template keys the field-category schema must define.
FIELD_TEMPLATE_KEYS = ("Boolean", "Integer", "String", "Object", "Enumeration")

CATEGORY_MARKER = "CATEGORY:"
SUMMARY_MARKER = "SUMMARY:"
FINAL_MARKER = "FINAL:"
ERROR_MARKER = "Error category:"


@dataclass
class CategorySchema:
    """Per-category generation constraints: what the category means, how to
    recognize it, which summary templates apply, and which phrases are
    forbidden."""

    category: FunctionCategory
    definition: str
    classification_criteria: list[str]
    datatype_templates: Optional[dict[str, str]] = None
    forbidden: list[str] = field(default_factory=list)
    example_names: list[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, d: Any, category: FunctionCategory, where: str) -> "CategorySchema":
        """The schema of ``category`` from its JSON object; a value of the
        wrong shape is a :class:`ConfigError` naming ``where`` and the key.
        ``null`` counts as unset."""
        d = JsonObject(d, where, ConfigError)
        if d.obj.get("category") != category.value:
            found = d.obj.get("category")
            raise fault(where, ("category",), repr(category.value), found, ConfigError)
        definition = d.get("definition", "a string")
        templates = d.get("datatype_templates", "an object or null", items="a string")
        lists = {
            key: d.get(key, "a list or null", items="a string") or []
            for key in ("classification_criteria", "forbidden", "example_names")
        }
        return cls(category, definition, datatype_templates=templates or None, **lists)


@dataclass
class DraftResult:
    summary_text: str
    declared_category: FunctionCategory
    raw_response: str


@dataclass
class RefinementOutcome:
    """Either an accepted final text or a rejection naming one category."""

    accepted: bool
    final_text: Optional[str] = None
    error_category: Optional[FunctionCategory] = None

    @classmethod
    def accept(cls, text: str) -> "RefinementOutcome":
        return cls(accepted=True, final_text=text)

    @classmethod
    def reject(cls, category: FunctionCategory) -> "RefinementOutcome":
        return cls(accepted=False, error_category=category)


@dataclass
class SummaryResult:
    final_summary: str
    category: FunctionCategory
    retrieved_terms: list[str]
    iterations: int
    excluded_categories: set[FunctionCategory]
    trace: list[tuple[DraftResult, RefinementOutcome]]
    degraded: bool = False


@dataclass
class SummarizerConfig:
    schemas: list[CategorySchema]
    refiner_constraints: list[str]
    max_iterations: int = 3
    max_parse_retries: int = 1

    def __post_init__(self):
        check(self.max_iterations, "an integer", "", ("max_iterations",), ValueError, least=1)
        check(self.max_parse_retries, "an integer", "", ("max_parse_retries",), ValueError, least=0)


def load_category_schemas(schema_dir: str | Path) -> list[CategorySchema]:
    """Load one schema JSON per category from a directory and validate the
    set covers all five categories."""
    schemas: dict[FunctionCategory, CategorySchema] = {}
    for category in CATEGORY_ORDER:
        path = Path(schema_dir) / f"{category.value}.json"
        data = read_json(path, "schema file", ConfigError)
        schemas[category] = CategorySchema.from_dict(data, category, f"schema file {path}")

    field_schema = schemas[FunctionCategory.FIELD]
    where = f"schema file {Path(schema_dir) / 'field.json'}"
    templates = field_schema.datatype_templates or {}
    if not templates.keys() >= set(FIELD_TEMPLATE_KEYS):
        kind = f"an object with the keys {', '.join(FIELD_TEMPLATE_KEYS)}"
        raise fault(where, ("datatype_templates",), kind, templates, ConfigError)
    joined = " ".join(field_schema.forbidden).lower()
    if "set" not in joined or "get" not in joined:
        kind = "a list naming set and get verbs"
        raise fault(where, ("forbidden",), kind, field_schema.forbidden, ConfigError)
    return [schemas[c] for c in CATEGORY_ORDER]


def load_refiner_constraints(path: str | Path) -> list[str]:
    where = f"refiner constraints {path}"
    data = check(read_json(path, "refiner constraints", ConfigError), "a list", where, (),
                 ConfigError, items="a string")
    if not data:
        raise fault(where, (), "a non-empty list", data, ConfigError)
    return data


DRAFT_SYSTEM_PROMPT = (
    "You write one-sentence function summaries for official API "
    "documentation, grounded only in the provided metadata and domain terms."
)

REFINE_SYSTEM_PROMPT = (
    "You review draft function summaries for official API documentation, "
    "validating the declared function category and polishing the wording."
)


def _render_schema(schema: CategorySchema) -> str:
    lines = [f"### {schema.category.value.capitalize()}"]
    lines.append(f"Definition: {schema.definition}")
    if schema.classification_criteria:
        lines.append("Classification criteria:")
        lines.extend(f"- {c}" for c in schema.classification_criteria)
    if schema.datatype_templates:
        lines.append("Summary templates by maintained data type:")
        lines.extend(
            f"- {dtype}: {template}"
            for dtype, template in schema.datatype_templates.items()
        )
    if schema.forbidden:
        lines.append("Forbidden in the summary: " + ", ".join(schema.forbidden))
    if schema.example_names:
        lines.append("Example function names: " + ", ".join(schema.example_names))
    return "\n".join(lines)


def build_draft_prompt(
    meta: MetadataSet,
    terms: list[str],
    schemas: list[CategorySchema],
    excluded: set[FunctionCategory],
    *,
    metadata_json: Optional[str] = None,
    schema_texts: Optional[list[str]] = None,
) -> LlmRequest:
    """Assemble the draft-stage request.

    The prompt carries the serialized metadata, a knowledge block with the
    retrieved domain terms, and the constraint schemas of every
    non-excluded category; the model must answer with a category marker and
    a summary body.

    A caller building several prompts for one record may pass
    ``metadata_json`` (``serialize_metadata(meta)``) and ``schema_texts``
    (each schema rendered, in ``schemas`` order) made once; the prompt is
    the same either way.
    """
    covered = {s.category for s in schemas}
    if covered != set(CATEGORY_ORDER):
        raise ValueError("schemas must cover all five categories")
    candidates = [i for i, s in enumerate(schemas) if s.category not in excluded]
    if not candidates:
        raise AllCategoriesExcluded("every function category was ruled out")

    allowed = ", ".join(schemas[i].category.value for i in candidates)
    sections = [
        "Write a draft summary for the function described below.",
        "## Function metadata",
        serialize_metadata(meta) if metadata_json is None else metadata_json,
        "## Knowledge entries",
        "Domain terms retrieved for this function; use them verbatim where "
        "they fit:",
    ]
    if terms:
        sections.extend(f"- {t}" for t in terms)
    else:
        sections.append("(none retrieved)")
    sections.append("## Category options")
    sections.append(
        "Decide which one category fits the function, using these "
        "constraint schemas:"
    )
    sections.extend(
        _render_schema(schemas[i]) if schema_texts is None else schema_texts[i]
        for i in candidates
    )
    sections.append("## Output format")
    sections.append(
        "Reply with exactly two lines:\n"
        f"{CATEGORY_MARKER} <one of: {allowed}>\n"
        f"{SUMMARY_MARKER} <one-sentence draft summary>"
    )
    return LlmRequest(
        system_prompt=DRAFT_SYSTEM_PROMPT,
        user_prompt="\n\n".join(sections),
        temperature=0.0,
    )


def parse_draft(response: LlmResponse) -> DraftResult:
    """Extract the declared category and summary body from a draft reply."""
    text = response.text
    if CATEGORY_MARKER not in text:
        raise MalformedDraft(f"missing {CATEGORY_MARKER!r} marker")
    after = text.split(CATEGORY_MARKER, 1)[1]
    category_line, _, rest = after.partition("\n")
    category_name = category_line.strip().strip(".").lower()
    try:
        category = FunctionCategory(category_name)
    except ValueError:
        raise MalformedDraft(f"unknown category {category_name!r}") from None
    if SUMMARY_MARKER in rest:
        body = rest.split(SUMMARY_MARKER, 1)[1].strip()
    else:
        body = rest.strip()
    if not body:
        raise MalformedDraft("empty summary body")
    return DraftResult(
        summary_text=body, declared_category=category, raw_response=text
    )


def build_refine_prompt(
    meta: MetadataSet,
    draft: DraftResult,
    refiner_constraints: list[str],
    *,
    metadata_json: Optional[str] = None,
) -> LlmRequest:
    """Assemble the refine-stage request: validate the declared category,
    then polish the draft under the given constraints. ``metadata_json``,
    if given, is ``serialize_metadata(meta)`` made once by the caller."""
    sections = [
        "Review the draft summary below against the function metadata.",
        "## Function metadata",
        serialize_metadata(meta) if metadata_json is None else metadata_json,
        "## Draft",
        f"Declared category: {draft.declared_category.value}",
        f"Summary: {draft.summary_text}",
        "## Task",
        "1. Check whether the declared category is consistent with the "
        "metadata. If it is wrong, reply with exactly:\n"
        f"{ERROR_MARKER} <the wrongly declared category>",
        "2. Otherwise, revise the draft's grammar, punctuation, and the "
        "lexical forms of domain terms, following every constraint below, "
        "and reply with exactly:\n"
        f"{FINAL_MARKER} <the revised summary>",
        "## Constraints for revision",
    ]
    sections.extend(f"- {c}" for c in refiner_constraints)
    return LlmRequest(
        system_prompt=REFINE_SYSTEM_PROMPT,
        user_prompt="\n\n".join(sections),
        temperature=0.0,
    )


def parse_refinement(response: LlmResponse) -> RefinementOutcome:
    """Read the refiner's verdict: an error signal naming a category, or
    the final summary."""
    text = response.text
    if ERROR_MARKER in text:
        after = text.split(ERROR_MARKER, 1)[1]
        category_name = after.strip().split("\n", 1)[0].strip().strip(".").lower()
        try:
            category = FunctionCategory(category_name)
        except ValueError:
            raise MalformedRefinement(
                f"unparseable error signal category {category_name!r}"
            ) from None
        return RefinementOutcome.reject(category)
    if FINAL_MARKER in text:
        body = text.split(FINAL_MARKER, 1)[1].strip()
    else:
        body = text.strip()
    if not body:
        raise MalformedRefinement("no error signal and empty body")
    return RefinementOutcome.accept(body)


def _complete_parsed(client: LlmClient, req: LlmRequest, parser, retries: int):
    attempt = 0
    while True:
        try:
            return parser(client.complete(req))
        except (MalformedDraft, MalformedRefinement):
            if attempt >= retries:
                raise
            attempt += 1


def summarize(
    meta: MetadataSet,
    retrieval: RetrievalResult,
    client: LlmClient,
    cfg: SummarizerConfig,
) -> SummaryResult:
    """Run the draft/refine loop until acceptance or the iteration bound.

    A rejection excludes the rejected category from the next draft's
    candidate space. If the bound is reached without acceptance, the last
    draft text is returned flagged as degraded. The metadata is serialized
    and each schema rendered once per call, for every prompt.
    """
    metadata_json = serialize_metadata(meta)
    schema_texts = [_render_schema(s) for s in cfg.schemas]
    excluded: set[FunctionCategory] = set()
    trace: list[tuple[DraftResult, RefinementOutcome]] = []

    def parse_non_excluded_draft(response: LlmResponse) -> DraftResult:
        result = parse_draft(response)
        if result.declared_category in excluded:
            raise MalformedDraft(
                f"draft declared excluded category "
                f"{result.declared_category.value!r}"
            )
        return result

    draft: Optional[DraftResult] = None
    for iteration in range(1, cfg.max_iterations + 1):
        draft_req = build_draft_prompt(
            meta, retrieval.terms, cfg.schemas, excluded,
            metadata_json=metadata_json, schema_texts=schema_texts,
        )
        draft = _complete_parsed(
            client, draft_req, parse_non_excluded_draft, cfg.max_parse_retries
        )
        refine_req = build_refine_prompt(
            meta, draft, cfg.refiner_constraints, metadata_json=metadata_json
        )
        outcome = _complete_parsed(
            client, refine_req, parse_refinement, cfg.max_parse_retries
        )
        trace.append((draft, outcome))
        if outcome.accepted:
            return SummaryResult(
                final_summary=outcome.final_text or "",
                category=draft.declared_category,
                retrieved_terms=list(retrieval.terms),
                iterations=iteration,
                excluded_categories=excluded,
                trace=trace,
                degraded=False,
            )
        if iteration < cfg.max_iterations:
            excluded.add(draft.declared_category)
            if outcome.error_category is not None:
                excluded.add(outcome.error_category)

    assert draft is not None
    return SummaryResult(
        final_summary=draft.summary_text,
        category=draft.declared_category,
        retrieved_terms=list(retrieval.terms),
        iterations=cfg.max_iterations,
        excluded_categories=excluded,
        trace=trace,
        degraded=True,
    )
