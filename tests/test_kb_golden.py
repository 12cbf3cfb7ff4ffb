"""Golden digests of the knowledge-base file.

A seeded KB of 200 docs in shared path contexts is built, saved and loaded,
and the loaded content is pinned by a sha256 recorded with the previous
file format: a format change that loses or alters any loaded datum fails
here. The bytes ``expsum kb-build`` writes for the e2e fixture are pinned
too, as is an upper bound on the file's size per byte of documentation."""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import random
from pathlib import Path

from expsum.cli import main
from expsum.knowledge_base import (
    PackageDoc,
    build_knowledge_base,
    kb_from_json,
    kb_to_json,
)
from expsum.llm import MockLlmClient, MockRule, MockScript

from e2e_fixtures import write_fixture

_spec = importlib.util.spec_from_file_location(
    "bench_fixtures", Path(__file__).resolve().parents[1] / "bench" / "fixtures.py"
)
bench_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fixtures)

# sha256 of the loaded content (see ``content_digest``) of the seeded KB,
# recorded when the KB was saved in format 4.
SEEDED_CONTENT_DIGEST = "d1367cef319a2edfa13d921cf863fa530542767e026f1c53e5f3de85fd54e66b"

# sha256 of the file ``expsum kb-build`` writes for the e2e fixture's docs.
E2E_KB_BUILD_DIGEST = "10a5b680f74a2f8fb1d4f36c846a670ce98f162596ccdf3cfd7e6a067173602b"

# kb_to_json bytes per byte of doc text on the seeded KB: the format-5 value
# (1.8060; format 4 wrote 2.2138) plus 1%.
SEEDED_BYTES_PER_DOC_BYTE_BOUND = 1.8241


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
