import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum import retrieval
from expsum.code_model import MetadataSet, ParameterField
from expsum.knowledge_base import (
    KnowledgeEntry,
    PackageDoc,
    SparseVector,
    build_knowledge_base,
    encode_tfidf,
    fit_tfidf,
    load_knowledge_base,
    save_knowledge_base,
)
from expsum.llm import MockLlmClient, MockRule, MockScript
from expsum.retrieval import (
    QueryText,
    RetrievalConfig,
    RetrievalResult,
    path_overlap,
    query_from_metadata,
    retrieve,
    stage1_filter,
    stage2_rank,
    stage3_dedup,
    token_overlap,
)

CFG = RetrievalConfig()

# Paths over the delimiters, mixed case and non-ASCII text (including
# characters whose lowercase form is longer), plus arbitrary text.
path_texts = st.text(st.sampled_from("/.@aAbBzZ0_ éÉßİı"), max_size=12) | st.text(max_size=12)

# KB-like terms: camel case, all-caps runs, digits, ``_``-joined words,
# repeated tokens and terms with no tokens at all (``"__"``).
term_texts = st.lists(
    st.sampled_from(
        ["AV", "Session", "session", "Controller", "MEDIA", "KEY", "data", "Data", "RDB",
         "Store", "v10", "2", "__", "_", " ", "."]
    ),
    max_size=5,
).map("".join)


# -- exhaustive reference implementation (no shared code with the cascade) ----

def oracle_path_tokens(path):
    for d in (".", "@"):
        path = path.replace(d, "/")
    return [t.lower() for t in path.split("/") if t]


def oracle_path_overlap(query_path, entry_path):
    q = oracle_path_tokens(query_path)
    e = oracle_path_tokens(entry_path)
    if not q:
        return 0.0
    n = 0
    while n < len(q) and n < len(e) and q[n] == e[n]:
        n += 1
    return n / len(q)


def oracle_term_tokens(term):
    out = []
    for word in term.split():
        out.extend(
            s.lower()
            for s in re.findall(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+", word)
        )
    return out


def oracle_token_overlap(a, b):
    ta, tb = oracle_term_tokens(a), oracle_term_tokens(b)
    longer = max(len(ta), len(tb))
    if longer == 0:
        return 0.0
    remaining = list(tb)
    shared = 0
    for tok in ta:
        if tok in remaining:
            remaining.remove(tok)
            shared += 1
    return shared / longer


def oracle_cosine(vec_a, vec_b):
    dot = sum(w * vec_b.get(i, 0.0) for i, w in vec_a.items())
    norm_a = math.sqrt(sum(w * w for w in vec_a.values()))
    norm_b = math.sqrt(sum(w * w for w in vec_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def oracle_retrieve(query, model, entries, cfg):
    survivors = [
        e
        for e in entries
        if oracle_path_overlap(query.path, e.path_context)
        >= cfg.path_overlap_threshold
    ]
    query_vec = encode_tfidf(model, query.concatenated).entries
    scored = sorted(
        survivors,
        key=lambda e: (
            -oracle_cosine(query_vec, e.vector.entries),
            e.path_context,
            e.term,
        ),
    )
    top = scored[: cfg.top_n]
    terms = []
    for e in top:
        if e.term not in terms:
            terms.append(e.term)
    kept = [
        t
        for t in terms
        if not any(
            u != t
            and oracle_token_overlap(t, u) >= cfg.token_overlap_threshold
            and len(t) < len(u)
            for u in terms
        )
    ]
    return RetrievalResult(
        terms=kept, entries=top, stage_trace=[len(survivors), len(top), len(kept)]
    )


class TestPathOverlap:
    def test_identical_paths(self):
        assert path_overlap("ohos.data.relationalStore", "ohos.data.relationalStore") == 1.0

    def test_three_of_four_tokens(self):
        assert path_overlap(
            "ohos.data.relationalStore.RdbPredicates", "ohos.data.relationalStore"
        ) == pytest.approx(0.75)

    def test_divergence_after_first_token(self):
        assert path_overlap("ohos.multimedia.avsession", "ohos.data.rdb") == pytest.approx(1 / 3)

    def test_mixed_delimiters(self):
        assert path_overlap("a/b.c", "a.b@c") == 1.0

    def test_case_insensitive_tokens(self):
        assert path_overlap("Ohos.data.rdb", "ohos.data.rdb") == 1.0

    @settings(max_examples=500)
    @given(path_texts, path_texts)
    def test_matches_oracle_on_cold_and_warm_cache(self, query_path, entry_path):
        expected = oracle_path_overlap(query_path, entry_path)
        assert path_overlap(query_path, entry_path) == expected
        assert path_overlap(query_path, entry_path) == expected

    def test_cached_context_tokens_are_an_immutable_tuple(self):
        tokens = retrieval._context_tokens("ohos.Data@rdb//x")
        assert type(tokens) is tuple
        assert tokens == ("ohos", "data", "rdb", "x")
        assert retrieval._context_tokens("ohos.Data@rdb//x") is tokens


class TestStage1:
    def entry(self, path):
        return KnowledgeEntry(
            term="t", documentation="d", path_context=path, vector=SparseVector()
        )

    def test_boundary_kept_at_default_threshold(self):
        query = QueryText(concatenated="q", path="ohos.data.relationalStore.RdbPredicates")
        entries = [
            self.entry("ohos.data.relationalStore.RdbPredicates"),
            self.entry("ohos.data.relationalStore"),
            self.entry("ohos.data.rdb"),
        ]
        kept = stage1_filter(query, entries, CFG)
        assert [e.path_context for e in kept] == [
            "ohos.data.relationalStore.RdbPredicates",
            "ohos.data.relationalStore",
        ]

    def test_threshold_one_keeps_full_prefix_cover_only(self):
        cfg = RetrievalConfig(path_overlap_threshold=1.0)
        query = QueryText(concatenated="q", path="a.b")
        kept = stage1_filter(
            query, [self.entry("a.b.c"), self.entry("a.x")], cfg
        )
        assert [e.path_context for e in kept] == ["a.b.c"]

    def test_threshold_zero_rejected_by_config(self):
        with pytest.raises(ValueError):
            RetrievalConfig(path_overlap_threshold=0.0)

    @pytest.mark.parametrize(
        "setting, expected",
        [
            ({"top_n": 0}, "'top_n' must be at least 1 (got 0)"),
            ({"path_overlap_threshold": 1.5}, "'path_overlap_threshold' must be in (0, 1] (got 1.5)"),
            ({"token_overlap_threshold": 0.0}, "'token_overlap_threshold' must be in (0, 1] (got 0.0)"),
        ],
    )
    def test_config_faults_name_the_setting(self, setting, expected):
        with pytest.raises(ValueError) as err:
            RetrievalConfig(**setting)
        assert str(err.value) == expected

    def test_empty_entries(self):
        assert stage1_filter(QueryText(concatenated="q", path="a"), [], CFG) == []

    def test_kbs_differing_only_in_case_match_the_naive_filter(self):
        contexts = ["ohos.Data.rdb", "OHOS.data", "ohos.media.AVSession", "kit/Media@session"]
        kbs = [
            [self.entry(path) for path in paths for _ in range(2)]
            for paths in (contexts, [path.swapcase() for path in contexts])
        ]
        kept_any = dropped_any = False
        for query_path in ["ohos.data.rdb", "OHOS.MEDIA.avsession.x", "kit.media.session", "Ohos"]:
            query = QueryText(concatenated="q", path=query_path)
            for threshold in (0.5, 0.75, 1.0):
                cfg = RetrievalConfig(path_overlap_threshold=threshold)
                for entries in kbs:
                    naive = [
                        e for e in entries
                        if path_overlap(query.path, e.path_context) >= threshold
                    ]
                    kept = stage1_filter(query, entries, cfg)
                    assert list(map(id, kept)) == list(map(id, naive))
                    kept_any |= bool(kept)
                    dropped_any |= len(kept) < len(entries)
        assert kept_any and dropped_any


class TestStage2:
    def test_ranks_matching_doc_first(self, three_doc_corpus, three_doc_model):
        entries = [
            KnowledgeEntry(
                term=d.path_context,
                documentation=d.text,
                path_context=d.path_context,
                vector=encode_tfidf(three_doc_model, d.text),
            )
            for d in three_doc_corpus
        ]
        query = QueryText(concatenated="media session", path="ohos")
        ranked = stage2_rank(query, three_doc_model, entries, CFG)
        assert ranked[0].documentation == "media session media"
        assert ranked[-1].documentation == "battery power"

    def test_top_n_bound(self, three_doc_model):
        entries = [
            KnowledgeEntry(
                term=f"t{i}",
                documentation="media",
                path_context=f"p{i}",
                vector=encode_tfidf(three_doc_model, "media"),
            )
            for i in range(5)
        ]
        cfg = RetrievalConfig(top_n=2)
        query = QueryText(concatenated="media", path="p")
        assert len(stage2_rank(query, three_doc_model, entries, cfg)) == 2

    def test_zero_query_vector_uses_deterministic_tie_break(self, three_doc_model):
        entries = [
            KnowledgeEntry(
                term="b", documentation="d", path_context="zz",
                vector=SparseVector({0: 1.0}),
            ),
            KnowledgeEntry(
                term="a", documentation="d", path_context="aa",
                vector=SparseVector({1: 1.0}),
            ),
        ]
        query = QueryText(concatenated="oovword", path="p")
        ranked = stage2_rank(query, three_doc_model, entries, CFG)
        assert [e.path_context for e in ranked] == ["aa", "zz"]


class TestTokenOverlap:
    def test_two_of_three(self):
        assert token_overlap("generic component", "generic component server") == pytest.approx(2 / 3)

    def test_three_of_four(self):
        assert token_overlap(
            "component server config", "generic component server config"
        ) == pytest.approx(0.75)

    def test_identity(self):
        assert token_overlap("AVSession data", "AVSession data") == 1.0

    def test_camel_boundaries(self):
        assert token_overlap("AVSession", "AVSessionController") == pytest.approx(2 / 3)

    def test_multiset_counting(self):
        assert token_overlap("data data", "data store link") == pytest.approx(1 / 3)


class TestStage3:
    def test_boundary_pair_removed_at_default(self):
        kept = stage3_dedup(
            ["component server config", "generic component server config"], CFG
        )
        assert kept == ["generic component server config"]

    def test_below_threshold_pair_kept(self):
        kept = stage3_dedup(["generic component", "generic component server"], CFG)
        assert kept == ["generic component", "generic component server"]

    def test_exact_duplicates_collapse(self):
        assert stage3_dedup(["AVSession", "AVSession"], CFG) == ["AVSession"]

    def test_order_preserved(self):
        kept = stage3_dedup(["zebra", "apple", "zebra"], CFG)
        assert kept == ["zebra", "apple"]

    def test_equal_length_full_overlap_keeps_both(self):
        # removal requires strictly fewer characters, not just full overlap
        kept = stage3_dedup(["media store", "store media"], CFG)
        assert kept == ["media store", "store media"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(term_texts, max_size=8),
        st.sampled_from([0.25, 0.5, 2 / 3, 0.75, 1.0]) | st.floats(0.01, 1.0),
    )
    def test_matches_naive_token_overlap_on_cold_and_warm_cache(self, terms, threshold):
        cfg = RetrievalConfig(token_overlap_threshold=threshold)
        unique = list(dict.fromkeys(terms))
        expected = [
            t
            for t in unique
            if not any(len(t) < len(u) and token_overlap(t, u) >= threshold for u in unique)
        ]
        assert stage3_dedup(terms, cfg) == expected
        assert stage3_dedup(terms, cfg) == expected

    def test_cached_term_counts_are_immutable(self):
        counts, total = retrieval._term_counts("AVSession data_data 10")
        assert (dict(counts), total) == ({"av": 1, "session": 1, "data": 2, "10": 1}, 5)
        with pytest.raises(TypeError):
            counts["av"] = 7
        with pytest.raises(AttributeError):
            counts.clear()
        assert retrieval._term_counts("AVSession data_data 10") == (counts, 5)
        assert retrieval._term_counts("AVSession data_data 10")[0] is counts


class TestRetrieve:
    def test_empty_kb(self, three_doc_model):
        query = QueryText(concatenated="q", path="a.b")
        result = retrieve(query, (three_doc_model, []), CFG)
        assert result.terms == []
        assert result.entries == []
        assert result.stage_trace == [0, 0, 0]

    def test_singleton_kb(self, three_doc_model):
        entry = KnowledgeEntry(
            term="MediaSession",
            documentation="media session media",
            path_context="ohos.media",
            vector=encode_tfidf(three_doc_model, "media session media"),
        )
        query = QueryText(concatenated="media session", path="ohos.media")
        result = retrieve(query, (three_doc_model, [entry]), CFG)
        assert result.entries == [entry]
        assert result.terms == ["MediaSession"]
        assert result.stage_trace == [1, 1, 1]

    def test_wrong_context_entry_filtered(self, table_style_kb):
        model, entries = table_style_kb
        query = QueryText(
            concatenated="ObtainTableName, remote device, RDBStore",
            path="ohos.data.rdb",
        )
        result = retrieve(query, (model, entries), CFG)
        assert result.stage_trace[0] == 1
        assert len(result.entries) == 1
        assert result.entries[0].path_context == "ohos.data.rdb"
        assert result.terms == ["RDBStore"]


def random_kb(rng: random.Random):
    path_pool = [
        "ohos.data.rdb",
        "ohos.data.relationalStore",
        "ohos.data",
        "ohos.media.avsession",
        "ohos.media",
        "kit/media/session",
    ]
    word_pool = ["media", "session", "battery", "power", "store", "rdb", "data", "remote"]
    term_pool = [
        "RDBStore",
        "generic component",
        "generic component server",
        "component server config",
        "generic component server config",
        "AVSession",
        "media store",
        "store media",  # same length as "media store": dedup must keep both
    ]
    docs = [
        PackageDoc(
            path_context=rng.choice(path_pool),
            text=" ".join(rng.choices(word_pool, k=rng.randrange(2, 12))),
        )
        for _ in range(rng.randrange(1, 6))
    ]
    model = fit_tfidf(docs)
    entries = [
        KnowledgeEntry(
            term=rng.choice(term_pool),
            documentation=doc.text,
            path_context=doc.path_context,
            vector=encode_tfidf(model, doc.text),
        )
        for doc in docs
        for _ in range(rng.randrange(0, 3))
    ][:10]
    query = QueryText(
        concatenated=" ".join(rng.choices(word_pool + ["oov"], k=rng.randrange(1, 10))),
        path=rng.choice(path_pool + ["ohos.data.rdb.RdbPredicates"]),
    )
    cfg = RetrievalConfig(
        path_overlap_threshold=rng.choice([0.5, 0.75, 1.0]),
        top_n=rng.choice([1, 2, 3, 9]),
        token_overlap_threshold=rng.choice([0.5, 0.75, 1.0]),
    )
    return model, entries, query, cfg


class TestCascadeProperties:
    def test_random_instances_match_oracle_and_invariants(self):
        rng = random.Random(424242)
        for _ in range(250):
            model, entries, query, cfg = random_kb(rng)
            result = retrieve(query, (model, entries), cfg)
            expected = oracle_retrieve(query, model, entries, cfg)

            assert result.entries == expected.entries
            assert result.terms == expected.terms
            assert result.stage_trace == expected.stage_trace

            # stage-1 soundness
            for e in result.entries:
                assert path_overlap(query.path, e.path_context) >= cfg.path_overlap_threshold
            # monotone survivor counts and the top-n bound
            s1, s2, s3 = result.stage_trace
            assert s1 >= s2 >= s3 >= 0
            assert s2 <= cfg.top_n
            assert len(result.entries) <= cfg.top_n
            # dedup safety
            for t in result.terms:
                for u in result.terms:
                    if t != u and len(t) < len(u):
                        assert token_overlap(t, u) < cfg.token_overlap_threshold
            # determinism
            again = retrieve(query, (model, entries), cfg)
            assert again == result


class TestSavedKnowledgeBase:
    def test_loaded_kb_matches_oracle(self, shared_context_docs, tmp_path):
        client = MockLlmClient(
            MockScript(
                rules=(MockRule(matcher="Word: remote", response="changed"),),
                default="preserved",
            )
        )
        built = build_knowledge_base(shared_context_docs, client)
        save_knowledge_base(tmp_path / "kb.json", *built)
        model, entries = load_knowledge_base(tmp_path / "kb.json")
        rng = random.Random(5)
        words = ["media", "session", "battery", "power", "store", "rdb", "AVSession", "oov"]
        paths = ["ohos.data.rdb", "ohos.data.rdb.RdbPredicates", "ohos.data", "ohos.media",
                 "ohos.media.avsession", "kit/media/session", "kit.media"]
        checked = 0
        for threshold in (0.5, 0.75, 1.0):
            for top_n in (1, 3, 9, 40):
                cfg = RetrievalConfig(path_overlap_threshold=threshold, top_n=top_n)
                for _ in range(8):
                    query = QueryText(
                        concatenated=" ".join(rng.choices(words, k=rng.randrange(1, 6))),
                        path=rng.choice(paths),
                    )
                    result = retrieve(query, (model, entries), cfg)
                    expected = oracle_retrieve(query, model, entries, cfg)
                    assert list(map(id, result.entries)) == list(map(id, expected.entries))
                    assert result.terms == expected.terms
                    assert result.stage_trace == expected.stage_trace
                    assert retrieve(query, built, cfg) == result
                    checked += result.stage_trace[1] > 1
        assert checked > 20  # most queries rank more than one entry


class TestQueryFromMetadata:
    def test_comma_concatenation_and_path(self):
        m = MetadataSet(
            function_name="getBatteryLevel",
            parameters=[ParameterField("flags", "number", "0")],
            return_type="number",
            file_path="power/battery.ts",
            package_module="ohos.battery",
            dependency=["system.battery"],
            dmt={"@since": "API version 9"},
        )
        q = query_from_metadata(m)
        assert q.path == "ohos.battery"
        assert q.concatenated.startswith("getBatteryLevel, flags: number = 0, number")
        assert "API version 9" in q.concatenated

    def test_path_falls_back_to_file_path(self):
        m = MetadataSet(function_name="f", file_path="a/b.ts")
        assert query_from_metadata(m).path == "a/b.ts"


# -- Hypothesis properties ----------------------------------------------------

thresholds = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
term_texts = st.text(st.sampled_from("abAB xyXY_0."), max_size=10)


class TestHypothesisProperties:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_stage1_matches_the_naive_filter_run_by_run(self, data):
        """Runs of entries share one context object, or hold equal
        contexts as distinct objects; a context may come back after
        another (A, B, A); thresholds include each exact ``k / len(q)``."""
        pool = data.draw(st.lists(path_texts, min_size=1, max_size=4))
        runs = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 4), st.booleans()),
                max_size=8,
            )
        )
        entries = []
        for index, length, distinct in runs:
            context = "".join(list(pool[index])) if distinct else pool[index]
            entries += [KnowledgeEntry("t", "d", context, SparseVector()) for _ in range(length)]
        query_path = data.draw(
            (path_texts | st.tuples(st.sampled_from(pool), path_texts).map("".join)).filter(bool)
        )
        q = oracle_path_tokens(query_path)
        exact = st.integers(1, len(q)).map(lambda k: k / len(q)) if q else thresholds
        threshold = data.draw(thresholds | exact)
        expected = [
            e for e in entries if oracle_path_overlap(query_path, e.path_context) >= threshold
        ]
        kept = stage1_filter(
            QueryText("q", query_path), entries, RetrievalConfig(path_overlap_threshold=threshold)
        )
        assert list(map(id, kept)) == list(map(id, expected))

    @settings(max_examples=300)
    @given(st.lists(term_texts, max_size=8), thresholds)
    def test_stage3_dedup_is_an_order_preserving_subset(self, terms, threshold):
        kept = stage3_dedup(terms, RetrievalConfig(token_overlap_threshold=threshold))
        positions = [terms.index(t) for t in kept]  # ValueError for a term not in the input
        assert positions == sorted(set(positions))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), thresholds, thresholds, thresholds, thresholds,
           st.integers(1, 9))
    def test_stage_trace_never_increases_and_thresholds_only_narrow(
        self, seed, p_a, p_b, t_a, t_b, top_n
    ):
        model, entries, query, _ = random_kb(random.Random(seed))
        (p_lo, p_hi), (t_lo, t_hi) = sorted((p_a, p_b)), sorted((t_a, t_b))

        def run(path_threshold, token_threshold):
            cfg = RetrievalConfig(path_threshold, top_n, token_threshold)
            result = retrieve(query, (model, entries), cfg)
            s1, s2, s3 = result.stage_trace
            assert s1 >= s2 >= s3 >= 0
            return result, stage1_filter(query, entries, cfg)

        low, low_stage1 = run(p_lo, t_lo)
        high_path, high_path_stage1 = run(p_hi, t_lo)
        # a higher path threshold keeps a subset of stage 1, so no more of stage 2
        assert all(any(e is f for f in low_stage1) for e in high_path_stage1)
        assert high_path.stage_trace[1] <= low.stage_trace[1]
        # the token threshold moves stage 3 only, where a term is dropped when its
        # overlap reaches the threshold: raising it never drops a kept term
        high_token, _ = run(p_lo, t_hi)
        assert high_token.entries == low.entries
        assert set(low.terms) <= set(high_token.terms)
