"""Golden digests of the knowledge-base file and of retrieval over it.

A seeded KB of 200 docs in shared path contexts is built, saved and loaded,
and the loaded content is pinned by a sha256 recorded with the previous
file format: a format change that loses or alters any loaded datum fails
here. The results of 200 seeded queries over that KB, ties included, are
pinned on the built and on the loaded KB. The bytes ``expsum kb-build``
writes for the e2e fixture are pinned too, as is an upper bound on the
file's size per byte of documentation."""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import random
from pathlib import Path

import pytest

from expsum.cli import main
from expsum.code_model import metadata_from_dict
from expsum.config import packaged_data_path
from expsum.knowledge_base import (
    PackageDoc,
    build_knowledge_base,
    kb_from_json,
    kb_to_json,
)
from expsum.llm import MockLlmClient, MockRule, MockScript
from expsum.metadata_check import check_metadata, load_dictionary
from expsum.retrieval import RetrievalConfig, query_from_metadata, retrieve

from e2e_fixtures import write_fixture

_spec = importlib.util.spec_from_file_location(
    "bench_fixtures", Path(__file__).resolve().parents[1] / "bench" / "fixtures.py"
)
bench_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fixtures)

# sha256 of the loaded content (see ``content_digest``) of the seeded KB,
# recorded when the KB was saved in format 4.
SEEDED_CONTENT_DIGEST = "d1367cef319a2edfa13d921cf863fa530542767e026f1c53e5f3de85fd54e66b"

# sha256 of the results of the seeded queries (see ``retrieval_digest``)
# over the seeded KB, recorded with KB format 5.
SEEDED_RETRIEVAL_DIGEST = "0324df4770822316bc9c63fe2c965a88793f1c8bffa1d1cc03fa1e4ab429e256"

# sha256 of the file ``expsum kb-build`` writes for the e2e fixture's docs,
# recorded with KB format 7.
E2E_KB_BUILD_DIGEST = "196d59d692bfb97c21c02c044efa3ac90697bb863a0ed109048dbc12868e7cc5"

# kb_to_json bytes per byte of doc text on the seeded KB: the format-7 value
# (1.2926; format 6 wrote 1.6229, format 5 1.8060, format 4 2.2138) plus 1%.
SEEDED_BYTES_PER_DOC_BYTE_BOUND = 1.3056


@functools.cache
def seeded_kb():
    """200 docs over 25 path contexts, some repeated word for word, built
    with a judge that answers ``changed`` for four of the plain words."""
    rng = random.Random(7321)
    changed = bench_fixtures.changed_words(rng, 4)
    words = rng.sample(bench_fixtures.VOCAB, 5)
    contexts = [f"ohos.{a}.{b}" for a in words for b in words]
    docs = [
        PackageDoc(contexts[rng.randrange(len(contexts))], d["text"])
        for d in bench_fixtures.make_docs(rng, 190)
    ]
    docs += rng.sample(docs, 10)
    rules = tuple(MockRule(matcher=f"Word: {w}\n", response="changed") for w in sorted(changed))
    client = MockLlmClient(MockScript(rules=rules, default="preserved"))
    return docs, build_knowledge_base(docs, client)


def content_digest(model, entries) -> str:
    content = [
        list(model.vocabulary.items()),
        model.doc_count,
        list(model.doc_frequency.items()),
        model.alpha.hex(),
        [
            (e.term, e.path_context, e.documentation,
             [(i, w.hex()) for i, w in sorted(e.vector.entries.items())])
            for e in entries
        ],
    ]
    return hashlib.sha256(json.dumps(content, ensure_ascii=False).encode()).hexdigest()


def test_seeded_kb_loads_what_was_recorded():
    _, kb = seeded_kb()
    text = kb_to_json(*kb)
    assert content_digest(*kb_from_json(text)) == SEEDED_CONTENT_DIGEST


@functools.cache
def seeded_queries():
    """200 queries from seeded pre-extracted function records aimed at the
    seeded KB's path contexts, checked with the packaged dictionary."""
    docs, _ = seeded_kb()
    contexts = sorted({d.path_context for d in docs})
    dictionary = load_dictionary(packaged_data_path("uninformative_dictionary.txt"))
    records = bench_fixtures.make_records(random.Random(4211), 200, contexts, 0.0)
    return [
        query_from_metadata(
            check_metadata(metadata_from_dict(r["function"]["pre_extracted"]), dictionary).retained
        )
        for r in records
    ]


def retrieval_digest(kb) -> str:
    results = [retrieve(q, kb, RetrievalConfig()).to_dict() for q in seeded_queries()]
    return hashlib.sha256(json.dumps(results, ensure_ascii=False).encode()).hexdigest()


@pytest.mark.parametrize("saved", [False, True], ids=["built", "saved-and-loaded"])
def test_seeded_retrieval_is_what_was_recorded(saved):
    _, kb = seeded_kb()
    if saved:
        kb = kb_from_json(kb_to_json(*kb))
    assert retrieval_digest(kb) == SEEDED_RETRIEVAL_DIGEST


def test_seeded_kb_size_bound():
    docs, kb = seeded_kb()
    doc_bytes = sum(len(d.text.encode()) for d in docs)
    ratio = len(kb_to_json(*kb).encode()) / doc_bytes
    assert ratio <= SEEDED_BYTES_PER_DOC_BYTE_BOUND


def test_e2e_kb_build_bytes(tmp_path):
    paths = write_fixture(tmp_path)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["kb-build", str(paths["docs"]), "--out", str(paths["kb"])]) == 0
    assert hashlib.sha256(paths["kb"].read_bytes()).hexdigest() == E2E_KB_BUILD_DIGEST
