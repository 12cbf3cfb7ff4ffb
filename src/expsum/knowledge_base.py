"""Domain-term knowledge base built from package-level documentation.

Each entry is a 4-tuple: the term, the documentation it came from, the path
context (package root) of that documentation, and a sparse TF-IDF vector of
the documentation. All entries of one document share that document's text,
path-context string and vector object, and the saved file stores each datum
once: each document, each distinct term and each model token. Terms are
found lexically (special-form expressions) and semantically (words whose
synonym substitution would change sentence meaning, judged by an LLM).
"""

from __future__ import annotations

import base64
import json
import math
import re
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Collection, Optional

from .errors import ClientFailure, EmptyCorpus, IoFailure, MalformedKnowledgeBase
from .files import JsonObject, check, fault, parse_json, read_text

# Compact standard English stopword list used to pick semantic-extraction
# candidates.
STOPWORDS = frozenset(
    """a about above after again against all am an and any are as at be
    because been before being below between both but by can did do does
    doing down during each few for from further had has have having he her
    here hers herself him himself his how i if in into is it its itself just
    me more most my myself no nor not now of off on once only or other our
    ours ourselves out over own same she should so some such than that the
    their theirs them themselves then there these they this those through to
    too under until up very was we were what when where which while who whom
    why will with you your yours yourself yourselves""".split()
)

_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")
_WORD_RE = re.compile(r"[A-Za-z0-9]+")
_STRIP_PUNCT = ".,;:!?()[]{}<>\"'`"


def split_camel(word: str) -> list[str]:
    """Segment a mixed-case identifier: ``getBatteryLevel`` -> get, Battery,
    Level; ``AVSession`` -> AV, Session."""
    return _CAMEL_RE.findall(word)


def tokenize(text: str) -> list[str]:
    """Lowercased subtokens: split on non-alphanumerics, then on camel-case
    boundaries."""
    tokens: list[str] = []
    for word in _WORD_RE.findall(text):
        tokens.extend(seg.lower() for seg in split_camel(word))
    return tokens


@dataclass(frozen=True)
class PackageDoc:
    """One package-level documentation text and the package root it
    documents."""

    path_context: str
    text: str

    def __post_init__(self):
        if not self.path_context:
            raise ValueError("PackageDoc.path_context must be non-empty")
        if not self.text:
            raise ValueError("PackageDoc.text must be non-empty")


@dataclass
class SparseVector:
    """Index-to-weight map; zero weights are never stored."""

    entries: dict[int, float] = field(default_factory=dict)

    def dot(self, other: "SparseVector") -> float:
        if len(self.entries) > len(other.entries):
            return other.dot(self)
        return sum(w * other.entries.get(i, 0.0) for i, w in self.entries.items())

    def norm(self) -> float:
        return math.sqrt(sum(w * w for w in self.entries.values()))

    def __bool__(self) -> bool:
        return bool(self.entries)


def cosine_similarity(a: SparseVector, b: SparseVector) -> float:
    denom = a.norm() * b.norm()
    if denom == 0.0:
        return 0.0
    return a.dot(b) / denom


@dataclass
class TfIdfModel:
    """Corpus statistics for TF-IDF encoding.

    ``doc_count`` is the number of fitted documents and ``doc_frequency``
    maps a token to how many documents contain it. The inverse document
    frequency of token i is ``ln(doc_count / (doc_frequency[i] + alpha))``
    with a small smoothing constant alpha. With a single-document corpus the
    IDF is slightly negative (ln(1/1.01)); that degenerate case is
    documented behavior, not an error.
    """

    vocabulary: dict[str, int]
    doc_count: int
    doc_frequency: dict[str, int]
    alpha: float = 0.01

    def idf(self, token: str) -> float:
        return math.log(self.doc_count / (self.doc_frequency[token] + self.alpha))


@dataclass(slots=True)
class KnowledgeEntry:
    """4-tuple knowledge record: term, documentation, path context, vector.

    Entries of one document share its text, its path-context string and
    its vector object; treat them as read-only."""

    term: str
    documentation: str
    path_context: str
    vector: SparseVector

    def to_public_dict(self) -> dict:
        return {
            "term": self.term,
            "documentation": self.documentation,
            "path_context": self.path_context,
        }


def fit_tfidf(docs: list[PackageDoc], alpha: float = 0.01) -> TfIdfModel:
    """Fit corpus statistics over the package documents."""
    if not docs:
        raise EmptyCorpus("cannot fit TF-IDF on zero documents")
    vocabulary: dict[str, int] = {}
    doc_frequency: dict[str, int] = {}
    for doc in docs:
        tokens = tokenize(doc.text)
        for token in tokens:
            if token not in vocabulary:
                vocabulary[token] = len(vocabulary)
        for token in set(tokens):
            doc_frequency[token] = doc_frequency.get(token, 0) + 1
    return TfIdfModel(
        vocabulary=vocabulary,
        doc_count=len(docs),
        doc_frequency=doc_frequency,
        alpha=alpha,
    )


def encode_tfidf(model: TfIdfModel, text: str) -> SparseVector:
    """Encode a text against the fitted model.

    Term frequency is the token's count divided by the text's total token
    count (out-of-vocabulary tokens included in the denominator, then
    dropped from the vector).
    """
    tokens = tokenize(text)
    if not tokens:
        return SparseVector()
    total = len(tokens)
    counts = Counter(tokens)
    entries: dict[int, float] = {}
    for token, count in counts.items():
        index = model.vocabulary.get(token)
        if index is None:
            continue
        weight = (count / total) * model.idf(token)
        if weight != 0.0:
            entries[index] = weight
    return SparseVector(entries)


# -- term extraction ---------------------------------------------------------


def _is_all_caps(word: str) -> bool:
    letters = [c for c in word if c.isalpha()]
    return len(letters) >= 2 and all(c.isupper() for c in letters)


def _is_camel(word: str) -> bool:
    if not any(c.islower() for c in word) or not any(c.isupper() for c in word):
        return False
    return len(split_camel(word)) >= 2


def extract_terms_lexical(doc: PackageDoc) -> list[str]:
    """Special-form expressions: camel-case identifiers, all-caps strings,
    and expressions with underscores or interior special characters.

    Returns surface forms, deduplicated, in first-occurrence order.
    """
    terms: list[str] = []
    seen: set[str] = set()
    for raw in doc.text.split():
        word = raw.strip(_STRIP_PUNCT + "@")
        if len(word) < 2 or word in seen:
            continue
        has_special = any(not c.isalnum() for c in word)
        if has_special or _is_all_caps(word) or _is_camel(word):
            terms.append(word)
            seen.add(word)
    return terms


_SENTENCE_SPLIT_RE = re.compile(r"[.!?;\n]+")

SEMANTIC_JUDGE_SYSTEM_PROMPT = (
    "You judge whether replacing one word with a plausible synonym changes "
    "the technical meaning of a sentence."
)


def _semantic_candidates(doc: PackageDoc, lexical: set[str]) -> list[tuple[str, str]]:
    sentences = [s.strip() for s in _SENTENCE_SPLIT_RE.split(doc.text) if s.strip()]
    candidates: list[tuple[str, str]] = []
    seen: set[str] = set()
    for sentence in sentences:
        for raw in sentence.split():
            word = raw.strip(_STRIP_PUNCT + "@")
            if len(word) < 3 or not word.isalpha():
                continue
            if word in lexical or word in seen:
                continue
            if word.lower() in STOPWORDS:
                continue
            seen.add(word)
            candidates.append((word, sentence))
    return candidates


def extract_terms_semantic(
    doc: PackageDoc, client, *, lexical: Optional[Collection[str]] = None
) -> list[str]:
    """Words in plain lexical form whose synonym substitution would change
    the sentence meaning, as judged by the client.

    The client must answer ``changed`` or ``preserved``; anything else is a
    malformed payload. Failures carry the document's path context.
    ``lexical`` is the doc's ``extract_terms_lexical`` result, which is
    never judged; it is computed here when not given.
    """
    from .llm import LlmRequest

    lexical = set(extract_terms_lexical(doc) if lexical is None else lexical)
    terms: list[str] = []
    for word, sentence in _semantic_candidates(doc, lexical):
        prompt = (
            f"Sentence: {sentence}\n"
            f"Word: {word}\n"
            "Propose a plausible synonym for the word, substitute it, and "
            "decide whether the sentence's technical meaning changes.\n"
            "Answer with exactly one word: changed or preserved."
        )
        try:
            response = client.complete(
                LlmRequest(
                    system_prompt=SEMANTIC_JUDGE_SYSTEM_PROMPT,
                    user_prompt=prompt,
                    temperature=0.0,
                    max_tokens=8,
                )
            )
        except ClientFailure as e:
            raise ClientFailure(
                f"{doc.path_context}: {e}", kind=e.kind
            ) from e
        verdict = response.text.strip().lower().split()
        if not verdict or verdict[0] not in ("changed", "preserved"):
            raise ClientFailure(
                f"{doc.path_context}: unusable judgment {response.text!r} "
                f"for word {word!r}",
                kind="malformed_payload",
            )
        if verdict[0] == "changed":
            terms.append(word)
    return terms


def build_knowledge_base(
    docs: list[PackageDoc], client
) -> tuple[TfIdfModel, list[KnowledgeEntry]]:
    """Fit the TF-IDF model and materialize one entry per (term, document).

    The entries of a document share its text, its path-context string and
    one vector object. A document yielding zero terms contributes no entries
    but still counts toward the corpus statistics.
    """
    model = fit_tfidf(docs)
    entries: list[KnowledgeEntry] = []
    for doc in docs:
        terms = extract_terms_lexical(doc)
        for term in extract_terms_semantic(doc, client, lexical=terms):
            if term not in terms:
                terms.append(term)
        vector = encode_tfidf(model, doc.text)
        for term in terms:
            entries.append(
                KnowledgeEntry(
                    term=term,
                    documentation=doc.text,
                    path_context=doc.path_context,
                    vector=vector,
                )
            )
    return model, entries


# -- persistence -------------------------------------------------------------

#: Version of the saved file layout; files of any other version are refused.
KB_FORMAT = 7

#: The packed columns' ``array`` codes, with the width in bytes and the
#: meaning of one item. Columns are little-endian on every host.
_ITEMS = {
    "B": (1, "an unsigned 8-bit integer"),
    "H": (2, "an unsigned 16-bit integer"),
    "I": (4, "an unsigned 32-bit integer"),
    "d": (8, "a 64-bit float"),
}
# a weight's 64-bit pattern is read as a 'Q' item
if array("Q").itemsize != 8 or any(
    array(code).itemsize != width for code, (width, _) in _ITEMS.items()
):
    raise ImportError("expsum needs 'B', 'H', 'I', 'd' and 'Q' arrays of 1, 2, 4, 8 and 8 bytes")

#: The codes an integer column may be stored in, narrowest first.
_INTEGER_CODES = ("B", "H", "I")


def _array(values, what: str, code: str = "I") -> array:
    """``values`` as an ``array`` of ``code`` items; raises ``ValueError``
    naming ``what`` for a value that does not fit ``code``."""
    try:
        return array(code, values)
    except (OverflowError, TypeError) as e:
        raise ValueError(
            f"cannot save the knowledge base: {what} is not {_ITEMS[code][1]} ({e})"
        ) from None


def _pack(values, what: str, code: str = "I") -> str:
    """``values`` as ``<code>:<base64>``, the base64 of their little-endian
    ``code`` items. An ``I`` column is stored at the narrowest of
    ``_INTEGER_CODES`` that holds its largest value.

    Raises ``ValueError`` naming ``what`` for a value that does not fit
    ``code``."""
    column = _array(values, what, code)
    if code == "I":
        top = max(column, default=0)
        code = next(c for c in _INTEGER_CODES if top < 256 ** _ITEMS[c][0])
        if code != "I":
            column = array(code, column)
    if sys.byteorder == "big":
        column.byteswap()
    return f"{code}:{base64.b64encode(column.tobytes()).decode('ascii')}"


def _vector(vector: SparseVector, weights: dict[int, int]) -> tuple[tuple, tuple]:
    """``vector``'s ascending indices, and for each the place of its weight
    in the table ``weights`` (a weight's 64-bit pattern -> its place), which
    gains each weight not yet in it. The pattern tells ``0.0`` from
    ``-0.0``."""
    _array(vector.entries, "a vector index")  # the sort cannot order mixed types
    pairs = sorted(vector.entries.items())
    column = _array([w for _, w in pairs], "a vector weight", "d")
    places = memoryview(column).cast("B").cast("Q")
    return tuple(i for i, _ in pairs), tuple(weights.setdefault(b, len(weights)) for b in places)


def _weight_column(weights: dict[int, int]) -> array:
    """The table ``weights`` (see :func:`_vector`) as 64-bit floats in order
    of place; raises ``ValueError`` for one that is not finite."""
    column = array("d", array("Q", weights).tobytes())
    bad = next((w for w in column if not math.isfinite(w)), None)
    if bad is not None:
        raise ValueError(f"cannot save the knowledge base: a vector weight is not finite ({bad})")
    return column


def kb_to_json(model: TfIdfModel, entries: list[KnowledgeEntry]) -> str:
    """Render the knowledge base as format-7 JSON, which stores each datum
    once.

    ``model`` holds the frequency keys once, sorted, as ``tokens``, with two
    columns aligned with them: ``doc_frequency``, and ``vocabulary`` (each
    token's index, or ``null`` for a token without one). ``docs`` holds one
    column per field over each distinct (path context, text, vector) in
    order of first use by an entry: ``path_contexts`` and ``texts``, each
    vector's entry count in ``sizes``, all vectors' ascending ``indices``
    end to end, and for each index the place of its weight in the weight
    table in ``weight_refs``. The table, ``weights``, holds each distinct
    weight once, told apart by its 64-bit pattern (so ``0.0`` and ``-0.0``
    are two), in order of first use. ``entries`` holds ``terms``, each
    distinct term once in order of first use, one index into it per entry
    in ``term_refs``, and the entries' docs as runs of consecutive entries
    of one doc: the doc's position in ``run_docs`` and the run's length in
    ``run_lengths``.

    The seven integer columns (``doc_frequency``, ``sizes``, ``indices``,
    ``weight_refs``, ``term_refs``, ``run_docs``, ``run_lengths``) and
    ``weights`` are packed as ``<code>:<base64>``: the base64 of the
    column's little-endian items of ``array`` type ``code``. An integer column's code is the narrowest of
    ``B``, ``H`` and ``I`` (unsigned 8, 16 and 32 bits) that holds its
    largest value, ``B`` when it is empty; ``weights`` is ``d`` (64-bit
    floats). ``vocabulary`` and the string columns are JSON lists.

    Raises ``ValueError`` for an integer that does not fit an unsigned
    32-bit integer, a weight that is not a finite 64-bit float, and a
    vocabulary token without a document frequency.
    """
    missing = model.vocabulary.keys() - model.doc_frequency.keys()
    if missing:
        raise ValueError(
            "cannot save the knowledge base: vocabulary token "
            f"{min(missing)!r} has no document frequency"
        )
    tokens = sorted(model.doc_frequency)
    contexts: list[str] = []
    texts: list[str] = []
    sizes: list[int] = []
    indices: list[int] = []
    weight_refs: list[int] = []
    weights: dict[int, int] = {}  # a weight's 64-bit pattern -> its place in the table
    doc_index: dict[tuple, int] = {}  # (path context, text, id of vector) -> doc
    vectors: dict[int, tuple] = {}  # id of a vector object -> its (indices, weight refs)
    interned: dict[tuple, tuple] = {}  # (indices, weight refs) -> the one tuple of them
    terms: dict[str, int] = {}  # term -> its place in the term table
    term_refs: list[int] = []
    run_docs: list[int] = []
    run_lengths: list[int] = []
    for e in entries:
        vector = vectors.get(id(e.vector))
        if vector is None:
            # a tuple does not cache its hash: hash each distinct vector once
            vector = _vector(e.vector, weights)
            vector = vectors[id(e.vector)] = interned.setdefault(vector, vector)
        key = (e.path_context, e.documentation, id(vector))
        index = doc_index.get(key)
        if index is None:
            index = doc_index[key] = len(contexts)
            contexts.append(e.path_context)
            texts.append(e.documentation)
            sizes.append(len(vector[0]))
            indices.extend(vector[0])
            weight_refs.extend(vector[1])
        term_refs.append(terms.setdefault(e.term, len(terms)))
        if run_docs and run_docs[-1] == index:
            run_lengths[-1] += 1
        else:
            run_docs.append(index)
            run_lengths.append(1)
    payload = {
        "format": KB_FORMAT,
        "model": {
            "tokens": tokens,
            "doc_frequency": _pack(
                [model.doc_frequency[t] for t in tokens], "a document frequency"
            ),
            "vocabulary": [model.vocabulary.get(t) for t in tokens],
            "doc_count": model.doc_count,
            "alpha": model.alpha,
        },
        "docs": {
            "path_contexts": contexts,
            "texts": texts,
            "sizes": _pack(sizes, "a vector size"),
            "indices": _pack(indices, "a vector index"),
            "weights": _pack(_weight_column(weights), "a vector weight", "d"),
            "weight_refs": _pack(weight_refs, "a weight reference"),
        },
        "entries": {
            "terms": list(terms),
            "term_refs": _pack(term_refs, "a term reference"),
            "run_docs": _pack(run_docs, "a run doc"),
            "run_lengths": _pack(run_lengths, "a run length"),
        },
    }
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return text + "\n"


def _column(section: JsonObject, key: str, codes=_INTEGER_CODES, positive=False) -> array:
    """Decode the packed column ``section[key]`` (see :func:`kb_to_json`),
    whose type code must be one of ``codes``; a ``positive`` column holds no
    0."""
    name = " ".join(map(repr, (*section.path, key)))
    code, _, text = section.get(key, "a string").rpartition(":")
    if code not in codes:
        raise MalformedKnowledgeBase(
            f"{name} has type code {code!r}, not one of {', '.join(codes)}"
        )
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as e:  # binascii.Error, or a non-ASCII character
        raise MalformedKnowledgeBase(f"{name} is not valid base64 ({e})") from None
    # frees the base64 text: the payload's, which the caller keeps, and its copy here
    del section.obj[key], text
    width = _ITEMS[code][0]
    if len(data) % width:
        raise MalformedKnowledgeBase(
            f"{name} holds {len(data)} bytes, not whole {width}-byte items"
        )
    column = array(code, data)
    if sys.byteorder == "big":
        column.byteswap()
    if positive and 0 in column:
        raise fault(section.where, (*section.path, key, column.index(0)), "at least 1", 0,
                    section.error)
    return column


def _positions(values: array, bound: int, where: str, what: str) -> None:
    """Check that the unsigned integers ``values`` are below ``bound``."""
    if values and max(values) >= bound:
        bad = next(v for v in values if v >= bound)
        raise MalformedKnowledgeBase(f"{where} holds {bad}, not one of the {bound} {what}")


def kb_from_json(
    text: str, source: str = "knowledge base"
) -> tuple[TfIdfModel, list[KnowledgeEntry]]:
    """Parse format-7 JSON (see :func:`kb_to_json`); the entries of one doc
    share its text, path-context string and vector object, the entries of
    one term share its string, and the vectors share one float object per
    distinct weight.

    Raises :class:`MalformedKnowledgeBase`, naming ``source``, for text that
    is not a well-formed format-7 knowledge base, files of an older format
    included, for a weight that is not finite, and for a model whose values
    ``idf`` cannot use: ``doc_count`` or a frequency below 1, or a negative
    or non-finite ``alpha``.
    """
    payload = parse_json(text, source, MalformedKnowledgeBase)
    del text  # only the parsed payload is needed from here on
    check(payload, "an object", source, (), MalformedKnowledgeBase)
    try:
        return _kb_from_payload(JsonObject(payload, "", MalformedKnowledgeBase))
    except MalformedKnowledgeBase as e:
        raise MalformedKnowledgeBase(f"{source}: {e}") from None


def _kb_from_payload(payload: JsonObject) -> tuple[TfIdfModel, list[KnowledgeEntry]]:
    fmt = payload.obj.get("format")
    if fmt != KB_FORMAT:
        found = "no format field" if fmt is None else f"format {fmt!r}"
        raise MalformedKnowledgeBase(
            f"{found}, expected format {KB_FORMAT}; rebuild it with `expsum kb-build`"
        )
    m, raw_docs, raw_entries = map(payload.object, ("model", "docs", "entries"))
    tokens = m.get("tokens", "a list", items="a string")
    frequencies = _column(m, "doc_frequency", positive=True)
    vocabulary = m.get("vocabulary", "a list", items="an integer or null")
    contexts = raw_docs.get("path_contexts", "a list", items="a string")
    texts = raw_docs.get("texts", "a list", items="a string")
    sizes = _column(raw_docs, "sizes")
    indices = _column(raw_docs, "indices")
    weights = _column(raw_docs, "weights", ("d",))
    weight_refs = _column(raw_docs, "weight_refs")
    terms = raw_entries.get("terms", "a list", items="a string")
    term_refs = _column(raw_entries, "term_refs")
    run_docs = _column(raw_entries, "run_docs")
    run_lengths = _column(raw_entries, "run_lengths", positive=True)
    if not len(tokens) == len(frequencies) == len(vocabulary):
        raise MalformedKnowledgeBase(
            f"'model' has {len(tokens)} tokens, {len(frequencies)} frequencies "
            f"and {len(vocabulary)} vocabulary indices"
        )
    if any(a >= b for a, b in zip(tokens, islice(tokens, 1, None))):
        raise MalformedKnowledgeBase("'model' 'tokens' are not in strictly ascending order")
    # idf() divides by doc_frequency + alpha and takes the log of doc_count
    model = TfIdfModel(
        vocabulary={t: i for t, i in zip(tokens, vocabulary) if i is not None},
        doc_count=m.get("doc_count", "an integer", least=1),
        doc_frequency=dict(zip(tokens, frequencies)),
        alpha=float(m.get("alpha", "a finite number", least=0)),
    )
    if not len(contexts) == len(texts) == len(sizes):
        raise MalformedKnowledgeBase(
            f"'docs' has {len(contexts)} path contexts, {len(texts)} texts "
            f"and {len(sizes)} sizes"
        )
    if sum(sizes) != len(indices):
        raise MalformedKnowledgeBase(
            f"'docs' 'sizes' add up to {sum(sizes)} but there are {len(indices)} indices"
        )
    if len(indices) != len(weight_refs):
        raise MalformedKnowledgeBase(
            f"'docs' has {len(indices)} indices but {len(weight_refs)} weight references"
        )
    if not all(map(math.isfinite, weights)):
        n, bad = next((n, w) for n, w in enumerate(weights) if not math.isfinite(w))
        raise fault(raw_docs.where, (*raw_docs.path, "weights", n), "a finite number", bad,
                    raw_docs.error)
    values = weights.tolist()  # one float object per distinct weight, shared by the vectors
    pairs = zip(indices, map(values.__getitem__, weight_refs))
    vectors: list[SparseVector] = []
    try:  # a reference past the table is found by its lookup
        for n, size in enumerate(sizes):
            vector = dict(islice(pairs, size))
            if len(vector) != size:
                raise MalformedKnowledgeBase(f"'docs' 'indices' repeats an index in doc {n}")
            vectors.append(SparseVector(vector))
    except IndexError:
        _positions(weight_refs, len(weights), "'docs' 'weight_refs'", "weights")
        raise
    del pairs, indices, weights, weight_refs  # the columns are garbage once the vectors exist
    if len(run_docs) != len(run_lengths):
        raise MalformedKnowledgeBase(
            f"'entries' has {len(run_docs)} run docs but {len(run_lengths)} run lengths"
        )
    if sum(run_lengths) != len(term_refs):
        raise MalformedKnowledgeBase(
            f"'entries' 'run_lengths' add up to {sum(run_lengths)} "
            f"but there are {len(term_refs)} term references"
        )

    def per_entry(column):  # each entry's item of a per-doc column, run by run
        return chain.from_iterable(map(repeat, map(column.__getitem__, run_docs), run_lengths))

    try:  # a reference out of range is found by its lookup
        entries = list(
            map(
                KnowledgeEntry,
                map(terms.__getitem__, term_refs),
                per_entry(texts),
                per_entry(contexts),
                per_entry(vectors),
            )
        )
    except IndexError:
        _positions(term_refs, len(terms), "'entries' 'term_refs'", "terms")
        _positions(run_docs, len(vectors), "'entries' 'run_docs'", "docs")
        raise
    return model, entries


def save_knowledge_base(
    path: str | Path, model: TfIdfModel, entries: list[KnowledgeEntry]
) -> None:
    Path(path).write_text(kb_to_json(model, entries), encoding="utf-8")


def load_knowledge_base(path: str | Path) -> tuple[TfIdfModel, list[KnowledgeEntry]]:
    # no local keeps the text, so kb_from_json can free it once parsed
    return kb_from_json(read_text(path, "knowledge base", IoFailure), f"knowledge base {path}")
