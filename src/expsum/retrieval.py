"""Three-stage cascaded retrieval over the knowledge base.

Stage 1 keeps entries whose path context shares a long-enough left-aligned
token prefix with the query's path. Stage 2 ranks survivors by cosine
similarity between TF-IDF vectors and keeps the top n. Stage 3 drops terms
lexically nested inside longer surviving terms.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType

from .code_model import METADATA_FIELD_ORDER, MetadataSet
from .files import fault
from .knowledge_base import (
    KnowledgeEntry,
    TfIdfModel,
    cosine_similarity,
    encode_tfidf,
    tokenize,
)

_PATH_DELIMITERS = ("/", ".", "@")


@dataclass(frozen=True)
class QueryText:
    """Retrieval query: comma-concatenated metadata values plus the query's
    own path used for context matching."""

    concatenated: str
    path: str

    def __post_init__(self):
        if not self.path:
            raise ValueError("QueryText.path must be non-empty")


@dataclass(frozen=True)
class RetrievalConfig:
    path_overlap_threshold: float = 0.75
    top_n: int = 9
    token_overlap_threshold: float = 0.75

    def __post_init__(self):
        if self.top_n < 1:
            raise fault("", ("top_n",), "at least 1", self.top_n, ValueError)
        for name in ("path_overlap_threshold", "token_overlap_threshold"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise fault("", (name,), "in (0, 1]", value, ValueError)


@dataclass
class RetrievalResult:
    """Deduplicated terms of the surviving entries plus per-stage survivor
    counts for auditability."""

    terms: list[str] = field(default_factory=list)
    entries: list[KnowledgeEntry] = field(default_factory=list)
    stage_trace: list[int] = field(default_factory=lambda: [0, 0, 0])

    def to_dict(self) -> dict:
        return {
            "terms": list(self.terms),
            "entries": [e.to_public_dict() for e in self.entries],
            "stage_trace": list(self.stage_trace),
        }


def _render_value(value) -> str:
    if isinstance(value, list):
        parts = []
        for item in value:
            if hasattr(item, "name"):  # ParameterField
                text = item.name or ""
                if item.type_annotation:
                    text = f"{text}: {item.type_annotation}" if text else item.type_annotation
                if item.default_value is not None:
                    text = f"{text} = {item.default_value}"
                parts.append(text)
            else:
                parts.append(str(item))
        return ", ".join(p for p in parts if p)
    return str(value)


def query_from_metadata(m: MetadataSet) -> QueryText:
    """Build the comma-concatenated query from a (checked) metadata set."""
    values: list[str] = []
    for name in METADATA_FIELD_ORDER:
        if name == "dmt":
            values.extend(m.dmt[k] for k in sorted(m.dmt))
            continue
        value = getattr(m, name)
        if value is None:
            continue
        rendered = _render_value(value)
        if rendered:
            values.append(rendered)
    return QueryText(
        concatenated=", ".join(values),
        path=m.package_module or m.file_path,
    )


def _path_tokens(path: str) -> tuple[str, ...]:
    for delim in _PATH_DELIMITERS[1:]:
        path = path.replace(delim, _PATH_DELIMITERS[0])
    return tuple(t.lower() for t in path.split(_PATH_DELIMITERS[0]) if t)


# KB path contexts repeat across every query, so each is tokenized once per
# process. Query paths are not cached: a long run would grow this without
# bound, while the contexts are bounded by the knowledge bases loaded.
_context_tokens = functools.cache(_path_tokens)


def _prefix_overlap(query_tokens: tuple[str, ...], entry_tokens: tuple[str, ...]) -> float:
    if not query_tokens:
        return 0.0
    matched = 0
    for q, e in zip(query_tokens, entry_tokens):
        if q != e:
            break
        matched += 1
    return matched / len(query_tokens)


def path_overlap(query_path: str, entry_path: str) -> float:
    """Left-aligned consecutive token overlap, relative to the query path.

    Both paths are tokenized on '/', '.', and '@'; tokens are compared
    case-insensitively from the left until the first mismatch.
    """
    return _prefix_overlap(_path_tokens(query_path), _context_tokens(entry_path))


def stage1_filter(
    query: QueryText, entries: list[KnowledgeEntry], cfg: RetrievalConfig
) -> list[KnowledgeEntry]:
    """Keep entries with sufficient path-context overlap, preserving order.

    The query path is tokenized once per call and the overlap computed once
    per distinct path context. Consecutive entries of one doc share its
    context object, so a run of them is decided once: an entry whose
    context is the previous entry's object reuses its verdict. Equal
    contexts held as distinct objects meet again in ``verdicts``, so the
    result does not depend on that sharing."""
    query_tokens = _path_tokens(query.path)
    threshold = cfg.path_overlap_threshold
    verdicts: dict[str, bool] = {}
    kept: list[KnowledgeEntry] = []
    last = keep = None
    for e in entries:
        context = e.path_context
        if context is not last:
            last = context
            keep = verdicts.get(context)
            if keep is None:
                keep = verdicts[context] = (
                    _prefix_overlap(query_tokens, _context_tokens(context)) >= threshold
                )
        if keep:
            kept.append(e)
    return kept


def stage2_rank(
    query: QueryText,
    model: TfIdfModel,
    survivors: list[KnowledgeEntry],
    cfg: RetrievalConfig,
) -> list[KnowledgeEntry]:
    """Rank survivors by cosine similarity of TF-IDF vectors; keep top n.

    Ties (including the all-zero-score case of an out-of-vocabulary query)
    break deterministically by ascending path context, then term. The
    cosine is computed once per distinct vector object, so entries sharing
    their document's vector share one score.
    """
    query_vector = encode_tfidf(model, query.concatenated)
    scores: dict[int, float] = {}
    for e in survivors:
        if id(e.vector) not in scores:
            scores[id(e.vector)] = cosine_similarity(query_vector, e.vector)
    # nsmallest equals sorted(...)[:n] for the same key, ties included.
    return heapq.nsmallest(
        cfg.top_n,
        survivors,
        key=lambda e: (-scores[id(e.vector)], e.path_context, e.term),
    )


def token_overlap(t_i: str, t_j: str) -> float:
    """Shared-token ratio between two terms, relative to the longer term."""
    tokens_i, tokens_j = Counter(tokenize(t_i)), Counter(tokenize(t_j))
    longer = max(sum(tokens_i.values()), sum(tokens_j.values()))
    if longer == 0:
        return 0.0
    shared = sum((tokens_i & tokens_j).values())
    return shared / longer


# KB terms repeat across every query, so each term's token counts and total
# are computed once per process; like ``_context_tokens``, the cache is
# bounded by the knowledge bases loaded, since ``retrieve`` passes only KB
# terms. The counts are a read-only view, so no caller can corrupt them.
@functools.cache
def _term_counts(term: str) -> tuple[MappingProxyType, int]:
    counts = Counter(tokenize(term))
    return MappingProxyType(dict(counts)), sum(counts.values())


def stage3_dedup(terms: list[str], cfg: RetrievalConfig) -> list[str]:
    """Collapse exact duplicates, then drop every term that is a
    sufficiently overlapping (:func:`token_overlap`), strictly shorter (by
    characters) variant of another term. Survivors keep their original
    order.

    A pair's overlap is the integer sum of per-token minimum counts over
    the longer total, the integers ``Counter.__and__`` gives, so the ratio
    is exactly :func:`token_overlap`'s."""
    counts = {term: _term_counts(term) for term in terms}
    threshold = cfg.token_overlap_threshold
    kept: list[str] = []
    for t_i, (counts_i, total_i) in counts.items():
        for t_j, (counts_j, total_j) in counts.items():
            if len(t_i) < len(t_j) and (total_i or total_j):
                shared = sum(min(n, counts_j.get(token, 0)) for token, n in counts_i.items())
                if shared / max(total_i, total_j) >= threshold:
                    break
        else:
            kept.append(t_i)
    return kept


def retrieve(
    query: QueryText,
    kb: tuple[TfIdfModel, list[KnowledgeEntry]],
    cfg: RetrievalConfig,
) -> RetrievalResult:
    """Run the full cascade and report per-stage survivor counts."""
    model, entries = kb
    stage1 = stage1_filter(query, entries, cfg)
    stage2 = stage2_rank(query, model, stage1, cfg)
    terms = stage3_dedup([e.term for e in stage2], cfg)
    return RetrievalResult(
        terms=terms,
        entries=stage2,
        stage_trace=[len(stage1), len(stage2), len(terms)],
    )
