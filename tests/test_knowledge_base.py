import base64
import hashlib
import json
import math
import random
import re
import struct
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsum.errors import ClientFailure, EmptyCorpus, MalformedKnowledgeBase
from expsum.knowledge_base import (
    KB_FORMAT,
    KnowledgeEntry,
    PackageDoc,
    SparseVector,
    TfIdfModel,
    build_knowledge_base,
    cosine_similarity,
    encode_tfidf,
    extract_terms_lexical,
    extract_terms_semantic,
    fit_tfidf,
    kb_from_json,
    kb_to_json,
    load_knowledge_base,
    save_knowledge_base,
    split_camel,
    tokenize,
)
from expsum.llm import MockLlmClient, MockRule, MockScript


# Independent oracle: re-derives tokenization and weights from scratch with
# plain dict arithmetic, no shared code with the main implementation.
def naive_tokens(text):
    tokens = []
    for word in re.findall(r"[A-Za-z0-9]+", text):
        for seg in re.findall(
            r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+", word
        ):
            tokens.append(seg.lower())
    return tokens


def naive_tfidf(doc_texts, query_text, alpha=0.01):
    M = len(doc_texts)
    tokenized = [naive_tokens(t) for t in doc_texts]
    vocab = []
    for tokens in tokenized:
        for tok in tokens:
            if tok not in vocab:
                vocab.append(tok)
    weights = {}
    query_tokens = naive_tokens(query_text)
    for tok in set(query_tokens):
        if tok not in vocab:
            continue
        m_i = sum(1 for tokens in tokenized if tok in tokens)
        tf = query_tokens.count(tok) / len(query_tokens)
        idf = math.log(M / (m_i + alpha))
        w = tf * idf
        if w != 0.0:
            weights[tok] = w
    return weights


class TestTokenize:
    def test_camel_split(self):
        assert split_camel("getBatteryLevel") == ["get", "Battery", "Level"]
        assert split_camel("AVSession") == ["AV", "Session"]
        assert split_camel("RDBStore") == ["RDB", "Store"]

    def test_tokenize_lowers_and_splits(self):
        assert tokenize("AVSession used_for MEDIA") == [
            "av", "session", "used", "for", "media",
        ]


class TestLexicalExtraction:
    def test_avsession_doc(self):
        doc = PackageDoc(
            path_context="@kit.AVSessionKit.avSession",
            text=(
                "Provides common media session functions: AVSession used for "
                "multi operations such as setting AVMetadata and playback status."
            ),
        )
        terms = extract_terms_lexical(doc)
        assert "AVSession" in terms
        assert "AVMetadata" in terms
        assert "Provides" not in terms

    def test_all_caps_with_underscore(self):
        doc = PackageDoc(path_context="p", text="STARTUP_HIDE for hidden state")
        assert "STARTUP_HIDE" in extract_terms_lexical(doc)

    def test_plain_prose_has_no_terms(self):
        doc = PackageDoc(path_context="p", text="the quick brown fox")
        assert extract_terms_lexical(doc) == []

    def test_first_occurrence_order_and_dedup(self):
        doc = PackageDoc(path_context="p", text="AVMetadata then AVSession then AVMetadata")
        assert extract_terms_lexical(doc) == ["AVMetadata", "AVSession"]


class TestSemanticExtraction:
    def test_meaning_changing_word_kept(self):
        doc = PackageDoc(
            path_context="ability.ui",
            text="Sends parcelable data to the target UIAbility.",
        )
        client = MockLlmClient(
            MockScript(
                rules=(MockRule(matcher="Word: parcelable", response="changed"),),
                default="preserved",
            )
        )
        assert extract_terms_semantic(doc, client) == ["parcelable"]

    def test_all_preserved_yields_nothing(self):
        doc = PackageDoc(path_context="p", text="Sends parcelable data onward.")
        client = MockLlmClient(MockScript(default="preserved"))
        assert extract_terms_semantic(doc, client) == []

    def test_no_candidates(self):
        doc = PackageDoc(path_context="p", text="AVSession and STARTUP_HIDE of it")
        client = MockLlmClient(MockScript())  # would fail if consulted
        assert extract_terms_semantic(doc, client) == []

    def test_client_failure_carries_doc_id(self):
        doc = PackageDoc(path_context="ohos.net.http", text="Sends parcelable data.")
        client = MockLlmClient(MockScript())  # no rules, no default
        with pytest.raises(ClientFailure) as err:
            extract_terms_semantic(doc, client)
        assert "ohos.net.http" in str(err.value)

    def test_unusable_judgment_is_malformed(self):
        doc = PackageDoc(path_context="pkg.z", text="Sends parcelable data.")
        client = MockLlmClient(MockScript(default="maybe?"))
        with pytest.raises(ClientFailure) as err:
            extract_terms_semantic(doc, client)
        assert err.value.kind == "malformed_payload"
        assert "pkg.z" in str(err.value)


class TestFitEncode:
    def test_three_doc_counts(self, three_doc_corpus, three_doc_model):
        model = three_doc_model
        assert model.doc_count == 3
        assert model.doc_frequency["media"] == 2
        assert model.doc_frequency["battery"] == 2
        assert model.doc_frequency["session"] == 1

    def test_single_doc(self):
        model = fit_tfidf([PackageDoc(path_context="p", text="alpha beta alpha")])
        assert model.doc_count == 1
        assert model.doc_frequency == {"alpha": 1, "beta": 1}

    def test_duplicate_docs_both_count(self):
        doc = PackageDoc(path_context="p", text="alpha")
        model = fit_tfidf([doc, doc])
        assert model.doc_count == 2
        assert model.doc_frequency["alpha"] == 2

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fit_tfidf([])

    def test_hand_derived_media_weight(self, three_doc_model):
        vec = encode_tfidf(three_doc_model, "media session media")
        index = three_doc_model.vocabulary["media"]
        assert vec.entries[index] == pytest.approx(0.26698504439808357, abs=1e-12)
        assert vec.entries[index] == pytest.approx(0.2669, abs=1e-4)

    def test_empty_text(self, three_doc_model):
        assert encode_tfidf(three_doc_model, "").entries == {}

    def test_all_oov_text(self, three_doc_model):
        assert encode_tfidf(three_doc_model, "zeta theta").entries == {}

    def test_single_doc_negative_idf_is_documented_degenerate(self):
        model = fit_tfidf([PackageDoc(path_context="p", text="alpha")])
        vec = encode_tfidf(model, "alpha")
        assert vec.entries[model.vocabulary["alpha"]] < 0

    def test_nonnegative_when_token_absent_somewhere(self, three_doc_model):
        for text in ("media session media", "battery power", "media battery"):
            vec = encode_tfidf(three_doc_model, text)
            for token, index in three_doc_model.vocabulary.items():
                if index in vec.entries and three_doc_model.doc_frequency[token] < 3:
                    assert vec.entries[index] >= 0

    def test_matches_naive_oracle_on_randomized_corpora(self):
        rng = random.Random(991)
        vocab_pool = ["media", "session", "battery", "power", "AVSession", "store", "rdb", "data"]
        for _ in range(30):
            docs = [
                PackageDoc(
                    path_context=f"pkg{i}",
                    text=" ".join(rng.choices(vocab_pool, k=rng.randrange(1, 21))),
                )
                for i in range(rng.randrange(1, 6))
            ]
            model = fit_tfidf(docs)
            query = " ".join(rng.choices(vocab_pool + ["oov"], k=rng.randrange(0, 15)))
            got = encode_tfidf(model, query)
            expected = naive_tfidf([d.text for d in docs], query)
            got_by_token = {
                token: got.entries[index]
                for token, index in model.vocabulary.items()
                if index in got.entries
            }
            assert set(got_by_token) == set(expected)
            for token, weight in expected.items():
                assert got_by_token[token] == pytest.approx(weight, abs=1e-9)


class TestSparseVector:
    def test_cosine_self_similarity(self):
        v = SparseVector({0: 0.5, 3: 0.2})
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_cosine_disjoint_support(self):
        assert cosine_similarity(SparseVector({0: 1.0}), SparseVector({1: 1.0})) == 0.0

    def test_cosine_zero_vector(self):
        assert cosine_similarity(SparseVector(), SparseVector({1: 1.0})) == 0.0


class TestBuildKnowledgeBase:
    def test_one_entry_per_term_doc_pair(self):
        docs = [
            PackageDoc(
                path_context="@kit.AVSessionKit.avSession",
                text="AVSession used for setting AVMetadata and playback status.",
            )
        ]
        client = MockLlmClient(MockScript(default="preserved"))
        model, entries = build_knowledge_base(docs, client)
        assert {e.term for e in entries} == {"AVSession", "AVMetadata"}
        assert all(e.path_context == "@kit.AVSessionKit.avSession" for e in entries)
        assert all(e.documentation == docs[0].text for e in entries)
        assert all(e.vector.entries for e in entries)

    def test_zero_term_doc_still_counts_in_model(self):
        docs = [
            PackageDoc(path_context="a", text="plain words only"),
            PackageDoc(path_context="b", text="AVSession here"),
        ]
        client = MockLlmClient(MockScript(default="preserved"))
        model, entries = build_knowledge_base(docs, client)
        assert model.doc_count == 2
        assert {e.path_context for e in entries} == {"b"}

    def test_same_term_two_docs_two_entries(self, table_style_kb):
        model, entries = table_style_kb
        assert len(entries) == 2
        assert len({e.path_context for e in entries}) == 2
        assert {e.term for e in entries} == {"RDBStore"}

    def test_semantic_terms_added_after_lexical(self):
        docs = [PackageDoc(path_context="p", text="Sends parcelable data to AVSession.")]
        client = MockLlmClient(
            MockScript(
                rules=(MockRule(matcher="Word: parcelable", response="changed"),),
                default="preserved",
            )
        )
        _, entries = build_knowledge_base(docs, client)
        assert [e.term for e in entries] == ["AVSession", "parcelable"]

    def test_lexical_terms_extracted_once_per_doc(self, shared_context_docs, monkeypatch):
        """The build judges exactly what a separate lexical and semantic pass
        would, and runs the lexical pass once per doc."""
        # Alphabetic lexical terms (MEDIA, PowerStatus) must stay unjudged.
        docs = shared_context_docs + [
            PackageDoc(path_context="ohos.flags", text="The MEDIA flag; PowerStatus power store."),
        ]

        def judge():
            rules = tuple(
                MockRule(matcher=f"Word: {w}\n", response="changed") for w in ("media", "store")
            )
            return MockLlmClient(MockScript(rules=rules, default="preserved"))

        def separate_passes(docs, client):
            model = fit_tfidf(docs)
            entries = []
            for doc in docs:
                terms = extract_terms_lexical(doc)
                terms += [t for t in extract_terms_semantic(doc, client) if t not in terms]
                vector = encode_tfidf(model, doc.text)
                entries += [KnowledgeEntry(t, doc.text, doc.path_context, vector) for t in terms]
            return model, entries

        expected_client = judge()
        expected = kb_to_json(*separate_passes(docs, expected_client))

        passes = []
        monkeypatch.setattr(
            "expsum.knowledge_base.extract_terms_lexical",
            lambda doc: passes.append(doc) or extract_terms_lexical(doc),
        )
        client = judge()
        assert kb_to_json(*build_knowledge_base(docs, client)) == expected
        assert client.calls == expected_client.calls
        assert not any("Word: MEDIA\n" in c.user_prompt for c in client.calls)
        assert passes == docs

    def test_entries_of_a_doc_share_its_path_context_object(self, shared_context_docs, tmp_path):
        client = MockLlmClient(MockScript(default="preserved"))
        kb = build_knowledge_base(shared_context_docs, client)
        save_knowledge_base(tmp_path / "kb.json", *kb)
        for _, entries in (kb, load_knowledge_base(tmp_path / "kb.json")):
            runs = [[entries[0]]]
            for e in entries[1:]:
                if e.vector is runs[-1][-1].vector:  # the same doc
                    runs[-1].append(e)
                else:
                    runs.append([e])
            assert len(runs) < len(entries)
            for run in runs:
                assert all(e.path_context is run[0].path_context for e in run)

    def test_rebuild_is_byte_identical(self, three_doc_corpus):
        client = MockLlmClient(MockScript(default="preserved"))
        first = kb_to_json(*build_knowledge_base(three_doc_corpus, client))
        second = kb_to_json(*build_knowledge_base(three_doc_corpus, client))
        assert first == second

    def test_round_trip(self, table_style_kb):
        model, entries = table_style_kb
        text = kb_to_json(model, entries)
        model2, entries2 = kb_from_json(text)
        assert kb_to_json(model2, entries2) == text
        assert model2 == model
        assert entries2 == entries


#: The width in bytes of each type code an integer column may have.
WIDTHS = {"B": 1, "H": 2, "I": 4}

#: The (section, key) of every integer column.
INTEGER_COLUMNS = [
    ("model", "doc_frequency"), ("docs", "sizes"), ("docs", "indices"), ("docs", "weight_refs"),
    ("entries", "term_refs"), ("entries", "run_docs"), ("entries", "run_lengths"),
]


def ints(column):
    """Decode a packed unsigned integer column byte by byte."""
    code, _, text = column.partition(":")
    data, width = base64.b64decode(text), WIDTHS[code]
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def f64s(column):
    code, _, text = column.partition(":")
    assert code == "d"
    data = base64.b64decode(text)
    return list(struct.unpack(f"<{len(data) // 8}d", data))


def bare(code, values):
    """``values`` as little-endian ``code`` items, base64-encoded: a column
    of the retired formats, which stored no type code."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def packed(code, values):
    """``values`` as a packed column of ``code`` items, as formats 6 and 7
    store it."""
    return f"{code}:{bare(code, values)}"


class TestFormat4:
    """The saved file's layout, format 7 since format 6 was retired; the
    class keeps its name so its test ids stay stable."""

    def build(self, docs):
        return build_knowledge_base(docs, MockLlmClient(MockScript(default="preserved")))

    def test_each_doc_stored_once_and_shared(self, shared_context_docs, tmp_path):
        model, entries = self.build(shared_context_docs)
        assert len(entries) > 2 * len(shared_context_docs)
        path = tmp_path / "kb.json"
        save_knowledge_base(path, model, entries)
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert payload["format"] == KB_FORMAT == 7
        distinct = {(d.path_context, d.text) for d in shared_context_docs}
        assert len(payload["docs"]["texts"]) == len(distinct) < len(shared_context_docs)
        for doc in shared_context_docs:
            assert text.count(json.dumps(doc.text, ensure_ascii=False)) == 1
        # one vector object per built doc, and per stored doc after loading
        assert len({id(e.vector) for e in entries}) == len(shared_context_docs)
        loaded = load_knowledge_base(path)[1]
        assert len({id(e.vector) for e in loaded}) == len(distinct)
        assert len({id(e.documentation) for e in loaded}) == len(distinct)

    def test_docs_in_order_of_first_use(self, table_style_kb):
        model, entries = table_style_kb
        payload = json.loads(kb_to_json(model, entries[::-1]))
        assert payload["docs"]["path_contexts"] == ["ohos.data.rdb", "ohos.data.relationalStore"]
        assert payload["entries"] == {
            "terms": ["RDBStore"], "term_refs": packed("B", [0, 0]),
            "run_docs": packed("B", [0, 1]), "run_lengths": packed("B", [1, 1]),
        }

    def test_term_table_in_order_of_first_use(self):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        v = SparseVector({0: 0.5})
        terms = ["Zeta", "Alpha", "Zeta", "Mid", "Alpha", "Alpha"]
        entries = [KnowledgeEntry(t, "text", "ctx", v) for t in terms]
        payload = json.loads(kb_to_json(model, entries))["entries"]
        assert payload["terms"] == ["Zeta", "Alpha", "Mid"]
        assert ints(payload["term_refs"]) == [0, 1, 0, 2, 1, 1]
        assert ints(payload["run_docs"]) == [0] and ints(payload["run_lengths"]) == [6]

    def test_runs_for_entries_in_any_order(self):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        a, b, c = (KnowledgeEntry("T", text, "ctx", SparseVector({0: 0.5})) for text in "abc")
        entries = [a, a, b, a, c, c, c, b, a]
        text = kb_to_json(model, entries)
        payload = json.loads(text)["entries"]
        assert ints(payload["run_docs"]) == [0, 1, 0, 2, 1, 0]
        assert ints(payload["run_lengths"]) == [2, 1, 1, 3, 1, 1]
        assert kb_from_json(text)[1] == entries

    def test_one_string_per_term_after_load(self, shared_context_docs):
        model, entries = self.build(shared_context_docs)
        loaded = kb_from_json(kb_to_json(model, entries))[1]
        assert loaded == entries
        by_term = {}
        for e in loaded:
            assert by_term.setdefault(e.term, e.term) is e.term
        assert len(by_term) < len(loaded)

    def test_model_tokens_stored_once(self, three_doc_model):
        payload = json.loads(kb_to_json(three_doc_model, []))["model"]
        tokens = sorted(three_doc_model.doc_frequency)
        assert payload == {
            "tokens": tokens,
            "doc_frequency": packed("B", [three_doc_model.doc_frequency[t] for t in tokens]),
            "vocabulary": [three_doc_model.vocabulary[t] for t in tokens],
            "doc_count": 3,
            "alpha": 0.01,
        }
        partial = TfIdfModel({"media": 4}, 2, {"media": 1, "audio": 2, "zoom": 1})
        payload = json.loads(kb_to_json(partial, []))["model"]
        assert payload["tokens"] == ["audio", "media", "zoom"]
        assert payload["vocabulary"] == [None, 4, None]
        loaded = kb_from_json(kb_to_json(partial, []))[0]
        assert loaded == partial
        assert list(loaded.vocabulary) == ["media"]
        assert list(loaded.doc_frequency) == ["audio", "media", "zoom"]

    def test_vocabulary_token_without_frequency_raises_value_error(self):
        model = TfIdfModel({"media": 0, "audio": 1}, 2, {"media": 1})
        with pytest.raises(ValueError) as err:
            kb_to_json(model, [])
        assert str(err.value) == (
            "cannot save the knowledge base: vocabulary token 'audio' has no document frequency"
        )
        assert type(err.value) is ValueError

    def test_vectors_are_ascending_indices_with_their_weights(self):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        entries = [
            KnowledgeEntry("T", "text", "ctx", SparseVector({7: 0.5, 2: 0.25, 4: -0.125})),
            KnowledgeEntry("U", "other", "ctx", SparseVector({1: 2.0})),
            KnowledgeEntry("V", "empty", "ctx", SparseVector()),
        ]
        docs = json.loads(kb_to_json(model, entries))["docs"]
        assert docs["texts"] == ["text", "other", "empty"]
        assert ints(docs["sizes"]) == [3, 1, 0]
        assert ints(docs["indices"]) == [2, 4, 7, 1]
        assert f64s(docs["weights"]) == [0.25, -0.125, 0.5, 2.0]
        assert ints(docs["weight_refs"]) == [0, 1, 2, 3]

    def test_weight_table_holds_each_bit_pattern_once_in_order_of_first_use(self):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        entries = [
            KnowledgeEntry("T", "text", "ctx", SparseVector({7: 0.5, 2: -0.0, 4: 0.5})),
            KnowledgeEntry("U", "other", "ctx", SparseVector({1: 0.0, 3: 5e-324, 5: -0.0})),
            KnowledgeEntry("V", "third", "ctx", SparseVector({0: 0.5, 9: 1})),
        ]
        text = kb_to_json(model, entries)
        docs = json.loads(text)["docs"]
        # -0.0 and 0.0 are two weights; the integer 1 is the weight 1.0
        assert [w.hex() for w in f64s(docs["weights"])] == [
            w.hex() for w in (-0.0, 0.5, 0.0, 5e-324, 1.0)
        ]
        assert ints(docs["weight_refs"]) == [0, 1, 1, 2, 3, 0, 1, 4]
        loaded = kb_from_json(text)[1]
        assert loaded == entries
        assert vector_bits(loaded) == vector_bits(entries)
        # the vectors share one float object per distinct weight
        assert len({id(w) for e in loaded for w in e.vector.entries.values()}) == 5

    def test_numeric_columns_are_little_endian_base64(self):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        v = SparseVector({1: 1.0, 256: -2.0})
        payload = json.loads(kb_to_json(model, [KnowledgeEntry("T", "text", "ctx", v)]))
        # 256 needs 16 bits: 01 00 | 00 01
        assert payload["docs"]["indices"] == "H:AQAAAQ=="
        # 1.0 = 00 .. f0 3f, -2.0 = 00 .. 00 c0
        assert payload["docs"]["weights"] == "d:" + base64.b64encode(bytes.fromhex(
            "000000000000f03f" "00000000000000c0"
        )).decode("ascii")
        assert payload["docs"]["sizes"] == "B:Ag=="
        assert payload["docs"]["weight_refs"] == "B:AAE="

    def test_big_endian_hosts_swap_bytes_both_ways(self, monkeypatch):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        entries = [KnowledgeEntry("T", "text", "ctx", SparseVector({1: 1.0, 256: -2.0}))]
        native = json.loads(kb_to_json(model, entries))["docs"]
        monkeypatch.setattr(sys, "byteorder", "swapped" if sys.byteorder == "big" else "big")
        text = kb_to_json(model, entries)
        swapped = json.loads(text)["docs"]
        for key, width in (("indices", 2), ("weights", 8)):
            code, _, column = native[key].partition(":")
            data = base64.b64decode(column)
            items = [data[i:i + width][::-1] for i in range(0, len(data), width)]
            assert swapped[key] == f"{code}:{base64.b64encode(b''.join(items)).decode('ascii')}"
        assert kb_from_json(text)[1] == entries

    def test_weights_are_bit_exact(self):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        weights = [-0.0, 5e-324, 1 / 3, -1.7976931348623157e308, 0.1 + 0.2, 2.0**-1074 * 3]
        v = SparseVector(dict(enumerate(weights)))
        loaded = kb_from_json(kb_to_json(model, [KnowledgeEntry("T", "t", "c", v)]))[1]
        got = loaded[0].vector.entries
        assert [got[i].hex() for i in range(len(weights))] == [w.hex() for w in weights]
        assert math.copysign(1.0, got[0]) == -1.0

    def test_integer_weights_load_as_floats(self):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        text = kb_to_json(model, [KnowledgeEntry("T", "t", "c", SparseVector({0: 1}))])
        weight = kb_from_json(text)[1][0].vector.entries[0]
        assert weight == 1.0 and type(weight) is float

    @pytest.mark.parametrize(
        "vector, expected",
        [
            (SparseVector({2**32: 1.0}), "a vector index is not an unsigned 32-bit integer"),
            (SparseVector({-1: 1.0}), "a vector index is not an unsigned 32-bit integer"),
            (SparseVector({0: 1.0, 1.5: 1.0}), "a vector index is not an unsigned 32-bit"),
            (SparseVector({"a": 1.0}), "a vector index is not an unsigned 32-bit integer"),
            (SparseVector({0: 1.0, "a": 1.0}), "a vector index is not an unsigned 32-bit integer"),
            (SparseVector({0: "x"}), "a vector weight is not a 64-bit float"),
            (SparseVector({0: 10**400}), "a vector weight is not a 64-bit float"),
            (SparseVector({0: 0.5, 1: math.nan}), "a vector weight is not finite (nan)"),
            (SparseVector({0: -math.inf}), "a vector weight is not finite (-inf)"),
        ],
        ids=["u32-overflow", "negative", "float-index", "str-index", "mixed-index", "str-weight",
             "huge-int-weight", "nan-weight", "inf-weight"],
    )
    def test_values_that_do_not_fit_raise_value_error(self, vector, expected):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        with pytest.raises(ValueError) as err:
            kb_to_json(model, [KnowledgeEntry("T", "t", "c", vector)])
        assert expected in str(err.value)
        assert type(err.value) is ValueError  # not OverflowError or TypeError

    def test_compact_sorted_single_line(self, table_style_kb):
        text = kb_to_json(*table_style_kb)
        assert text.endswith("}\n") and text.count("\n") == 1
        assert ", " not in text and '": ' not in text
        assert text == json.dumps(
            json.loads(text), sort_keys=True, ensure_ascii=False, separators=(",", ":")
        ) + "\n"

    def test_equal_vectors_do_not_merge_distinct_docs(self):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        v = SparseVector({0: 0.5})
        entries = [
            KnowledgeEntry("T", "same text", "ctx.one", v),
            KnowledgeEntry("T", "same text", "ctx.two", v),
            KnowledgeEntry("T", "other text", "ctx.one", v),
            KnowledgeEntry("U", "same text", "ctx.one", SparseVector({0: 0.25})),
            KnowledgeEntry("V", "same text", "ctx.one", SparseVector({0: 0.5})),
        ]
        text = kb_to_json(model, entries)
        assert ints(json.loads(text)["entries"]["run_docs"]) == [0, 1, 2, 3, 0]
        assert kb_from_json(text)[1] == entries

    def test_save_is_linear_in_a_long_vector_shared_by_many_entries(self):
        model = fit_tfidf([PackageDoc("a", "alpha beta")])
        n = 16384
        v = SparseVector({i: 1.0 / (i + 1) for i in range(n)})
        entries = [KnowledgeEntry(f"T{k}", "text", "ctx", v) for k in range(n)]
        # an equal vector in another object still merges into the one doc
        entries.append(KnowledgeEntry("Copy", "text", "ctx", SparseVector(dict(v.entries))))
        start = time.perf_counter()
        text = kb_to_json(model, entries)
        elapsed = time.perf_counter() - start
        # sha256 of the text saved before docs were keyed by interned vectors,
        # in its format-7 form (the same text with its weights as a table)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ed3fcf2fdc776f85647ff04f462df6d04b8e563b0a0566fe2c2a36845ce441c1"
        )
        assert elapsed < 1.0

    def test_save_load_round_trip_and_rebuild_are_byte_identical(
        self, shared_context_docs, tmp_path
    ):
        path = tmp_path / "kb.json"
        save_knowledge_base(path, *self.build(shared_context_docs))
        first = path.read_bytes()
        save_knowledge_base(path, *load_knowledge_base(path))
        assert path.read_bytes() == first
        save_knowledge_base(path, *self.build(shared_context_docs))
        assert path.read_bytes() == first


def test_readme_describes_the_saved_format():
    """README's knowledge-base heading and its example name ``KB_FORMAT``,
    and the example has the saved file's keys, so a format change cannot
    leave README behind."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    headings = re.findall(r"\*\*Knowledge base\*\* \(format (\d+)\)", readme)
    examples = re.findall(r'`(\{"format": \d+, "model": .*\})`', readme)
    assert headings == [str(KB_FORMAT)] and len(examples) == 1
    example = json.loads(examples[0].replace("[...]", "[]").replace(": n,", ": 1,")
                         .replace(": a}", ": 0}"))
    assert example["format"] == KB_FORMAT
    saved = json.loads(kb_to_json(TfIdfModel({}, 1, {}), []))
    assert {k: sorted(v) for k, v in example.items() if k != "format"} == {
        k: sorted(v) for k, v in saved.items() if k != "format"
    }


MODEL = {"vocabulary": {"media": 0}, "doc_count": 2, "doc_frequency": {"media": 1}, "alpha": 0.01}


def valid_payload():
    return {
        "format": 7,
        "model": {"tokens": ["media"], "doc_frequency": packed("B", [1]), "vocabulary": [0],
                  "doc_count": 2, "alpha": 0.01},
        "docs": {"path_contexts": ["ohos.media"], "texts": ["media"], "sizes": packed("B", [1]),
                 "indices": packed("B", [0]), "weights": packed("d", [0.69]),
                 "weight_refs": packed("B", [0])},
        "entries": {"terms": ["MediaKit"], "term_refs": packed("B", [0]),
                    "run_docs": packed("B", [0]), "run_lengths": packed("B", [1])},
    }


# The same KB in the retired format 6, which stored every vector weight in
# full, one per index.
FORMAT_6 = valid_payload()
FORMAT_6["format"] = 6
del FORMAT_6["docs"]["weight_refs"]


# The same KB in the retired format 5, which stored the model's frequencies
# and the entries' integer columns as JSON number lists and the docs'
# integer columns as unsigned 32-bit integers.
FORMAT_5 = {
    "format": 5,
    "model": {"tokens": ["media"], "doc_frequency": [1], "vocabulary": [0],
              "doc_count": 2, "alpha": 0.01},
    "docs": {"path_contexts": ["ohos.media"], "texts": ["media"], "sizes": bare("I", [1]),
             "indices": bare("I", [0]), "weights": bare("d", [0.69])},
    "entries": {"terms": ["MediaKit"], "term_refs": [0], "run_docs": [0], "run_lengths": [1]},
}


# The same KB in the retired format 4, which stored each entry's term and
# doc index and each model token twice.
FORMAT_4 = {
    "format": 4,
    "model": MODEL,
    "docs": FORMAT_5["docs"],
    "entries": {"terms": ["MediaKit"], "docs": bare("I", [0])},
}


# The same KB in the retired format 3, with one object per doc and plain
# JSON number arrays.
FORMAT_3 = {
    "format": 3,
    "model": MODEL,
    "docs": [{"path_context": "ohos.media", "text": "media", "indices": [0], "weights": [0.69]}],
    "entries": {"terms": ["MediaKit"], "docs": [0]},
}


def broken(change):
    payload = valid_payload()
    change(payload)
    return json.dumps(payload)


def set_in(path, value):
    def change(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = value
    return change


def set_column(section, key, code, values):
    return set_in((section, key), packed(code, values))


class TestLoadErrors:
    def test_valid_payload_loads(self):
        model, entries = kb_from_json(json.dumps(valid_payload()))
        assert entries == [
            KnowledgeEntry("MediaKit", "media", "ohos.media", SparseVector({0: 0.69}))
        ]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("{not json", "not valid JSON"),
            ("[]", "knowledge base must be an object (got [])"),
            ("{}", "no format field"),
            (broken(set_in(("format",), 1)), "format 1, expected format 7"),
            (broken(set_in(("format",), 2)), "format 2, expected format 7"),
            (json.dumps(FORMAT_3), "format 3, expected format 7; rebuild it with `expsum kb-build`"),
            (json.dumps(FORMAT_4), "format 4, expected format 7; rebuild it with `expsum kb-build`"),
            (json.dumps(FORMAT_5), "format 5, expected format 7; rebuild it with `expsum kb-build`"),
            (json.dumps(FORMAT_6), "format 6, expected format 7; rebuild it with `expsum kb-build`"),
            ("[" * 100_000, "not valid JSON (maximum recursion depth exceeded"),
            ('{"format": 7, "model": ' + "9" * 5000 + "}",
             "not valid JSON (Exceeds the limit (4300 digits) for integer string conversion"),
            (broken(lambda p: p.pop("docs")), "'docs' must be an object (got None)"),
            (broken(set_in(("docs",), FORMAT_3["docs"])),
             "'docs' must be an object (got [{'path_context': 'ohos.media'"),
            (broken(set_in(("model",), [])), "'model' must be an object (got [])"),
            (broken(set_in(("model",), MODEL)), "'model' 'tokens' must be a list (got None)"),
            (broken(lambda p: p["model"].pop("alpha")),
             "'model' 'alpha' must be a finite number (got None)"),
            (broken(set_in(("model", "vocabulary", 0), "x")),
             "'model' 'vocabulary' item 0 must be an integer or null (got 'x')"),
            (broken(set_in(("model", "vocabulary", 0), False)),
             "'model' 'vocabulary' item 0 must be an integer or null (got False)"),
            (broken(set_in(("model", "doc_count"), 1e400)),
             "'model' 'doc_count' must be an integer (got inf)"),
            (broken(set_in(("model", "doc_count"), 0)),
             "'model' 'doc_count' must be at least 1 (got 0)"),
            (broken(set_in(("model", "doc_count"), "2")),
             "'model' 'doc_count' must be an integer (got '2')"),
            (broken(set_in(("model", "doc_count"), True)),
             "'model' 'doc_count' must be an integer (got True)"),
            (broken(set_in(("model", "doc_count"), 2.9)),
             "'model' 'doc_count' must be an integer (got 2.9)"),
            (broken(set_column("model", "doc_frequency", "B", [0])),
             "'model' 'doc_frequency' item 0 must be at least 1 (got 0)"),
            (broken(set_in(("model", "doc_frequency"), [True])),
             "'model' 'doc_frequency' must be a string (got [True])"),
            (broken(set_column("model", "doc_frequency", "d", [1.0])),
             "'model' 'doc_frequency' has type code 'd', not one of B, H, I"),
            (broken(set_in(("model", "alpha"), -0.5)),
             "'model' 'alpha' must be at least 0 (got -0.5)"),
            (broken(set_in(("model", "alpha"), float("inf"))),
             "'model' 'alpha' must be a finite number (got inf)"),
            (broken(set_in(("model", "alpha"), float("nan"))),
             "'model' 'alpha' must be a finite number (got nan)"),
            (broken(set_in(("model", "alpha"), "1")),
             "'model' 'alpha' must be a finite number (got '1')"),
            (broken(lambda p: p["model"]["vocabulary"].append(1)),
             "'model' has 1 tokens, 1 frequencies and 2 vocabulary indices"),
            (broken(lambda p: p["model"]["tokens"].append("zoom")),
             "'model' has 2 tokens, 1 frequencies and 1 vocabulary indices"),
            (broken(set_column("model", "doc_frequency", "B", [1, 1])),
             "'model' has 1 tokens, 2 frequencies and 1 vocabulary indices"),
            (broken(lambda p: p["model"].update(tokens=["zoom", "media"],
                                                doc_frequency=packed("B", [1, 1]),
                                                vocabulary=[None, 0])),
             "'model' 'tokens' are not in strictly ascending order"),
            (broken(lambda p: p["model"].update(tokens=["media", "media"],
                                                doc_frequency=packed("B", [1, 1]),
                                                vocabulary=[0, None])),
             "'model' 'tokens' are not in strictly ascending order"),
            (broken(set_in(("model", "tokens", 0), 7)),
             "'model' 'tokens' item 0 must be a string (got 7)"),
            (broken(lambda p: p["docs"]["path_contexts"].append("ohos.x")),
             "'docs' has 2 path contexts, 1 texts and 1 sizes"),
            (broken(set_column("docs", "sizes", "I", [1, 0])),
             "'docs' has 1 path contexts, 1 texts and 2 sizes"),
            (broken(set_in(("docs", "path_contexts", 0), None)),
             "'docs' 'path_contexts' item 0 must be a string (got None)"),
            (broken(set_in(("docs", "texts", 0), 3)),
             "'docs' 'texts' item 0 must be a string (got 3)"),
            (broken(lambda p: p["docs"].pop("texts")), "'docs' 'texts' must be a list (got None)"),
            (broken(lambda p: p["docs"].pop("indices")),
             "'docs' 'indices' must be a string (got None)"),
            (broken(set_in(("docs", "weights"), [0.69])),
             "'docs' 'weights' must be a string (got [0.69])"),
            (broken(set_in(("docs", "indices"), True)),
             "'docs' 'indices' must be a string (got True)"),
            (broken(set_in(("docs", "weights"), None)),
             "'docs' 'weights' must be a string (got None)"),
            (broken(set_in(("docs", "weights"), "d:x!")), "'docs' 'weights' is not valid base64"),
            (broken(set_in(("docs", "indices"), "I:AAAA*AAA")),
             "'docs' 'indices' is not valid base64"),
            (broken(set_in(("docs", "sizes"), "I:AQAAAA")), "'docs' 'sizes' is not valid base64"),
            (broken(set_in(("docs", "sizes"), "I:AQAAAé==")), "'docs' 'sizes' is not valid base64"),
            (broken(set_in(("entries", "run_docs"), [0])),
             "'entries' 'run_docs' must be a string (got [0])"),
            (broken(set_in(("docs", "indices"), "I:AAAA")),
             "'docs' 'indices' holds 3 bytes, not whole 4-byte items"),
            (broken(set_in(("docs", "weights"), "d:" + bare("I", [1, 2, 3]))),
             "'docs' 'weights' holds 12 bytes, not whole 8-byte items"),
            (broken(set_column("docs", "sizes", "I", [2])),
             "'sizes' add up to 2 but there are 1 indices"),
            (broken(set_column("docs", "sizes", "I", [0])),
             "'sizes' add up to 0 but there are 1 indices"),
            (broken(set_column("docs", "weights", "d", [])),
             "'docs' 'weight_refs' holds 0, not one of the 0 weights"),
            (broken(lambda p: p["docs"].update(sizes=packed("B", [2]), indices=packed("H", [0, 0]),
                                               weights=packed("d", [1.0, 2.0]),
                                               weight_refs=packed("B", [0, 1]))),
             "'indices' repeats an index in doc 0"),
            (broken(set_in(("entries",), [{"term": "MediaKit", "doc": 0}])),
             "'entries' must be an object (got [{'term': 'MediaKit', 'doc': 0}])"),
            (broken(lambda p: p["entries"].pop("terms")),
             "'entries' 'terms' must be a list (got None)"),
            (broken(set_in(("entries", "run_docs"), [[0]])),
             "'entries' 'run_docs' must be a string (got [[0]])"),
            (broken(set_column("entries", "term_refs", "B", [0, 0])),
             "'entries' 'run_lengths' add up to 1 but there are 2 term references"),
            (broken(set_in(("entries", "terms", 0), 7)),
             "'entries' 'terms' item 0 must be a string (got 7)"),
            (broken(set_column("entries", "run_docs", "B", [1])),
             "'entries' 'run_docs' holds 1, not one of the 1 docs"),
            (broken(set_column("entries", "run_docs", "I", [2**32 - 1])),
             "'entries' 'run_docs' holds 4294967295, not one of the 1 docs"),
            (broken(set_column("entries", "term_refs", "B", [1])),
             "'entries' 'term_refs' holds 1, not one of the 1 terms"),
            (broken(set_column("entries", "term_refs", "b", [-1])),
             "'entries' 'term_refs' has type code 'b', not one of B, H, I"),
            (broken(set_in(("entries", "term_refs"), [False])),
             "'entries' 'term_refs' must be a string (got [False])"),
            (broken(set_in(("entries", "term_refs"), "AAAAAA==")),
             "'entries' 'term_refs' has type code '', not one of B, H, I"),
            (broken(lambda p: p["entries"].pop("run_lengths")),
             "'entries' 'run_lengths' must be a string (got None)"),
            (broken(set_column("entries", "run_docs", "B", [0, 0])),
             "2 run docs but 1 run lengths"),
            (broken(set_column("entries", "run_lengths", "B", [2])),
             "'run_lengths' add up to 2 but there are 1 term references"),
            (broken(lambda p: p["entries"].update(run_docs=packed("B", [0, 0]),
                                                  run_lengths=packed("h", [2, -1]))),
             "'entries' 'run_lengths' has type code 'h', not one of B, H, I"),
            (broken(set_column("entries", "run_lengths", "B", [0])),
             "'entries' 'run_lengths' item 0 must be at least 1 (got 0)"),
            (broken(set_in(("entries", "run_lengths"), [True])),
             "'entries' 'run_lengths' must be a string (got [True])"),
            (broken(set_column("entries", "run_lengths", "d", [1.0])),
             "'entries' 'run_lengths' has type code 'd', not one of B, H, I"),
            (broken(lambda p: p["entries"].update(term_refs=packed("B", []),
                                                  run_docs=packed("B", [0]),
                                                  run_lengths=packed("B", []))),
             "1 run docs but 0 run lengths"),
            (broken(set_in(("docs", "sizes"), "q:" + bare("q", [1]))),
             "'docs' 'sizes' has type code 'q', not one of B, H, I"),
            (broken(set_in(("docs", "indices"), "HI:AAAA")),
             "'docs' 'indices' has type code 'HI', not one of B, H, I"),
            (broken(set_column("docs", "weights", "I", [1, 2])),
             "'docs' 'weights' has type code 'I', not one of d"),
            (broken(set_in(("entries", "term_refs"), "H:AAAA")),
             "'entries' 'term_refs' holds 3 bytes, not whole 2-byte items"),
            (broken(set_in(("model", "doc_frequency"), "I:AQAAAAEA")),
             "'model' 'doc_frequency' holds 6 bytes, not whole 4-byte items"),
            (broken(set_in(("entries", "run_lengths"), "H:AQ==")),
             "'entries' 'run_lengths' holds 1 bytes, not whole 2-byte items"),
            (broken(set_column("entries", "term_refs", "H", [256])),
             "'entries' 'term_refs' holds 256, not one of the 1 terms"),
            (broken(set_column("entries", "run_docs", "H", [65_535])),
             "'entries' 'run_docs' holds 65535, not one of the 1 docs"),
            (broken(lambda p: p["model"].update(tokens=["audio", "media"],
                                                doc_frequency=packed("H", [1, 0]),
                                                vocabulary=[None, 0])),
             "'model' 'doc_frequency' item 1 must be at least 1 (got 0)"),
            (broken(lambda p: p["entries"].update(run_docs=packed("B", [0, 0]),
                                                  run_lengths=packed("I", [1, 0]))),
             "'entries' 'run_lengths' item 1 must be at least 1 (got 0)"),
            (broken(set_column("docs", "weight_refs", "B", [1])),
             "'docs' 'weight_refs' holds 1, not one of the 1 weights"),
            (broken(set_column("docs", "weight_refs", "H", [256])),
             "'docs' 'weight_refs' holds 256, not one of the 1 weights"),
            (broken(set_column("docs", "weight_refs", "B", [0, 0])),
             "'docs' has 1 indices but 2 weight references"),
            (broken(set_column("docs", "weight_refs", "B", [])),
             "'docs' has 1 indices but 0 weight references"),
            (broken(lambda p: p["docs"].pop("weight_refs")),
             "'docs' 'weight_refs' must be a string (got None)"),
            (broken(set_in(("docs", "weight_refs"), [0])),
             "'docs' 'weight_refs' must be a string (got [0])"),
            (broken(set_column("docs", "weight_refs", "d", [0.0])),
             "'docs' 'weight_refs' has type code 'd', not one of B, H, I"),
            (broken(set_column("docs", "weights", "d", [math.nan])),
             "'docs' 'weights' item 0 must be a finite number (got nan)"),
            (broken(lambda p: p["docs"].update(weights=packed("d", [0.69, -math.inf]))),
             "'docs' 'weights' item 1 must be a finite number (got -inf)"),
        ],
        ids=[
            "not-json", "array", "empty-object", "format-1", "format-2", "format-3", "format-4",
            "format-5", "format-6",
            "too-deep", "huge-int", "no-docs", "docs-list", "model-list", "model-format-4",
            "no-alpha", "vocabulary-value", "vocabulary-bool", "doc-count-huge", "doc-count-0",
            "doc-count-str", "doc-count-bool", "doc-count-float",
            "frequency-0", "frequency-bool", "frequency-float", "alpha-negative", "alpha-inf",
            "alpha-nan", "alpha-str", "vocabulary-without-frequency", "token-without-frequency",
            "frequency-without-token", "tokens-unsorted", "tokens-repeated", "token-not-string",
            "extra-context", "extra-size",
            "context-not-string", "text-not-string", "no-texts", "no-indices",
            "weights-list", "indices-bool", "weights-null", "weights-bad-char",
            "indices-bad-char", "sizes-no-padding", "sizes-non-ascii", "refs-one-char",
            "indices-partial-item", "weights-partial-item", "sizes-too-big", "sizes-too-small",
            "no-weights", "repeated-index", "entries-list", "no-terms", "refs-list",
            "extra-term", "term-not-string", "ref-past-end", "ref-u32-max",
            "term-ref-past-table", "term-ref-negative", "term-ref-bool", "term-refs-packed",
            "no-run-lengths", "extra-run-doc", "run-lengths-too-big", "run-length-negative",
            "run-length-0", "run-length-bool", "run-length-float", "missing-run-length",
            "sizes-unknown-code", "indices-two-codes", "weights-integer-code",
            "term-refs-partial-item", "frequency-partial-item", "run-lengths-partial-item",
            "term-ref-past-table-u16", "run-doc-past-end-u16", "frequency-0-later",
            "run-length-0-later", "weight-ref-past-table", "weight-ref-past-table-u16",
            "extra-weight-ref", "no-weight-ref", "no-weight-refs", "weight-refs-list",
            "weight-refs-float-code", "weight-nan", "weight-inf-unused",
        ],
    )
    def test_malformed_text_raises_typed_error(self, text, expected):
        with pytest.raises(MalformedKnowledgeBase) as err:
            kb_from_json(text)
        assert expected in str(err.value)
        assert "\n" not in str(err.value)

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"model": {}, "entries": []}', encoding="utf-8")
        with pytest.raises(MalformedKnowledgeBase) as err:
            load_knowledge_base(path)
        message = str(err.value)
        assert message.startswith(f"knowledge base {path}: ")
        assert "rebuild it with `expsum kb-build`" in message


# -- property tests of the file format ------------------------------------------

names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def knowledge_bases(draw):
    """A valid model plus entries in any order over a few docs; docs share
    path contexts, texts and vector contents, and some entries carry their
    own copy of their doc's vector, as hand-built entries may."""
    doc_frequency = draw(st.dictionaries(names, st.integers(1, 100), max_size=4))
    model = TfIdfModel(
        vocabulary=draw(
            st.dictionaries(st.sampled_from(sorted(doc_frequency)), st.integers(0, 50))
        ) if doc_frequency else {},
        doc_count=draw(st.integers(1, 100)),
        doc_frequency=doc_frequency,
        alpha=draw(st.floats(min_value=0.0, allow_infinity=False)),
    )
    contexts = draw(st.lists(names.filter(bool), min_size=1, max_size=3))
    texts = draw(st.lists(names, min_size=1, max_size=3))
    contents = draw(
        st.lists(st.dictionaries(st.integers(0, 30), finite, max_size=4), min_size=1, max_size=3)
    )
    docs = [
        (text, context, SparseVector(dict(content)))
        for text, context, content in draw(
            st.lists(
                st.tuples(st.sampled_from(texts), st.sampled_from(contexts),
                          st.sampled_from(contents)),
                min_size=1, max_size=6,
            )
        )
    ]
    entries = []
    for term, n, own_copy in draw(
        st.lists(st.tuples(names, st.integers(0, len(docs) - 1), st.booleans()), max_size=12)
    ):
        text, context, vector = docs[n]
        if own_copy:
            vector = SparseVector(dict(vector.entries))
        entries.append(KnowledgeEntry(term, text, context, vector))
    return model, entries


#: Values at either side of each integer width boundary.
COUNT_TOPS = [0, 255, 256, 65_535, 65_536]
#: The same, and the largest unsigned 32-bit integer, for columns whose
#: values are not counts of things held in memory.
VALUE_TOPS = [*COUNT_TOPS, 2**32 - 1]


@st.composite
def width_boundary_kbs(draw):
    """A KB whose integer columns each top out at a drawn value next to a
    width boundary, with that top per column. Doc 0 has the longest run of
    entries and the one non-empty vector, each further doc is one run, and
    each entry up to the top term reference has a term of its own."""
    top = lambda tops: draw(st.sampled_from(tops))
    run_doc, run_length = top(COUNT_TOPS), top(COUNT_TOPS[1:])
    term_ref = top([t for t in COUNT_TOPS if run_doc or t < run_length])
    refs = [0] * run_length + list(range(1, run_doc + 1))
    refs += [n % 2 for n in range(term_ref + 1 - len(refs))]  # runs of one entry
    # saving and comparing touch doc 0's vector once per entry: bound that work
    size = top([s for s in COUNT_TOPS if s * refs.count(0) <= 2**17])
    index = top([i for i in VALUE_TOPS if i + 1 >= size])
    frequency = top(VALUE_TOPS[1:])
    model = TfIdfModel({"a": draw(st.integers(0, 2**40))}, 1, {"a": frequency, "b": 1})
    docs = [("d0", SparseVector({index - k: 0.5 for k in range(size)}))]
    docs += [(f"d{k}", SparseVector()) for k in range(1, run_doc + 1)]
    entries = [
        KnowledgeEntry(f"t{min(n, term_ref)}", docs[d][0], "ctx", docs[d][1])
        for n, d in enumerate(refs)
    ]
    tops = {"doc_frequency": frequency, "sizes": size, "indices": index if size else None,
            "weight_refs": 0 if size else None,
            "term_refs": term_ref, "run_docs": run_doc, "run_lengths": run_length}
    return model, entries, tops


@st.composite
def repeated_weight_kbs(draw):
    """A KB whose vectors draw their weights from one pool, so docs repeat
    each other's weights. The pool holds 0.0 beside -0.0 and subnormals, and
    sometimes more than 256 distinct weights, which need 16-bit weight
    references; the first doc holds the whole pool."""
    subnormal = st.floats(-2.0**-1022, 2.0**-1022, exclude_min=True, exclude_max=True)
    pool = [0.0, -0.0, 5e-324, draw(subnormal)] + draw(st.lists(finite, max_size=8))
    if draw(st.booleans()):
        pool += [k / 7 for k in range(1, draw(st.integers(257, 300)))]
    vectors = [SparseVector(dict(enumerate(pool)))] + [
        SparseVector(content)
        for content in draw(st.lists(
            st.dictionaries(st.integers(0, 400), st.sampled_from(pool), max_size=6),
            min_size=1, max_size=4,
        ))
    ]
    entries = [KnowledgeEntry(f"T{n}", f"text {n}", "ctx", v) for n, v in enumerate(vectors)]
    return TfIdfModel({}, 1, {}), entries


def vector_bits(entries):
    """Each entry's vector as (index, weight bits) pairs, ``-0.0`` apart."""
    return [[(i, float(w).hex()) for i, w in sorted(e.vector.entries.items())] for e in entries]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from([2, 3, -1, 10**6, "0", 0.5]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def locations(node, path=()):
    """The path of every value in a parsed JSON document, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from locations(child, path + (key,))


def mutate(payload, path, action, value):
    """Drop, replace or grow the value at ``path``; returns the new root."""
    if not path:
        return value if action == "replace" else payload
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "drop":
        del parent[key]
    elif action == "replace":
        parent[key] = value
    elif isinstance(parent[key], list):
        parent[key].append(value)
    elif isinstance(parent[key], dict):
        parent[key]["x"] = value
    return payload


class TestFileProperties:
    @settings(deadline=None)
    @given(knowledge_bases())
    def test_round_trip_is_byte_identical_and_lossless(self, kb):
        model, entries = kb
        text = kb_to_json(model, entries)
        loaded_model, loaded = kb_from_json(text)
        assert kb_to_json(loaded_model, loaded) == text
        assert loaded_model == model
        assert loaded == entries
        assert len({id(e.term) for e in loaded}) == len({e.term for e in loaded})

    @settings(max_examples=15, deadline=None)
    @given(width_boundary_kbs())
    @example((TfIdfModel({}, 1, {}), [], {}))
    def test_integer_columns_at_width_boundaries_round_trip(self, kb):
        model, entries, tops = kb
        text = kb_to_json(model, entries)
        loaded_model, loaded = kb_from_json(text)
        assert loaded_model == model
        assert loaded == entries
        assert kb_to_json(loaded_model, loaded) == text
        payload = json.loads(text)
        for section, key in INTEGER_COLUMNS:
            values = ints(payload[section][key])
            assert max(values, default=None) == tops.get(key)
            narrowest = next(c for c, w in WIDTHS.items() if max(values, default=0) < 1 << 8 * w)
            assert payload[section][key].startswith(narrowest + ":")

    @settings(max_examples=40, deadline=None)
    @given(repeated_weight_kbs())
    def test_repeated_weights_round_trip_bit_for_bit(self, kb):
        model, entries = kb
        text = kb_to_json(model, entries)
        loaded_model, loaded = kb_from_json(text)
        assert vector_bits(loaded) == vector_bits(entries)
        assert kb_to_json(loaded_model, loaded) == text
        distinct = {bits for vector in vector_bits(entries) for _, bits in vector}
        docs = json.loads(text)["docs"]
        assert sorted(w.hex() for w in f64s(docs["weights"])) == sorted(distinct)
        assert docs["weight_refs"].startswith("H:" if len(distinct) > 256 else "B:")
        # the loaded vectors share one float object per distinct weight
        assert len({id(w) for e in loaded for w in e.vector.entries.values()}) == len(distinct)

    @settings(max_examples=200, deadline=None)
    @given(knowledge_bases(), st.data())
    def test_mutated_files_raise_only_malformed(self, kb, data):
        payload = json.loads(kb_to_json(*kb))
        for _ in range(data.draw(st.integers(1, 3))):
            payload = mutate(
                payload,
                data.draw(st.sampled_from(list(locations(payload)))),
                data.draw(st.sampled_from(["drop", "replace", "grow"])),
                data.draw(json_values),
            )
        try:
            kb_from_json(json.dumps(payload))
        except MalformedKnowledgeBase as e:
            assert "\n" not in str(e)
