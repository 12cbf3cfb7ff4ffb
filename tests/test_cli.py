import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum import pipeline as pipeline_module
from expsum.cli import (
    _load_corpus_records,
    _load_jsonl_field,
    _load_package_docs,
    _read_metadata,
    _read_record,
    main,
)
from expsum.code_model import METADATA_FIELD_ORDER
from expsum.config import load_pipeline_config, packaged_data_path, resolve_setting
from expsum.errors import ConfigError, MalformedKnowledgeBase
from expsum.knowledge_base import load_knowledge_base
from expsum.llm import MockScript
from expsum.summarizer import load_category_schemas, load_refiner_constraints

from e2e_fixtures import EXPECTED_SUMMARIES, write_fixture


# A knowledge base in the retired format 1, which copied each doc into
# every one of its term entries.
V1_KB = json.dumps(
    {
        "model": {"vocabulary": {"media": 0}, "doc_count": 1,
                  "doc_frequency": {"media": 1}, "alpha": 0.01, "log_base": "natural"},
        "entries": [{"term": "MediaKit", "documentation": "media",
                     "path_context": "ohos.media", "vector": {"0": -0.00995}}],
    }
)


# A knowledge base in the retired format 2, which stored each doc's vector
# as a string-keyed map and each entry as its own object.
V2_KB = json.dumps(
    {
        "format": 2,
        "model": {"vocabulary": {"media": 0}, "doc_count": 1,
                  "doc_frequency": {"media": 1}, "alpha": 0.01},
        "docs": [{"path_context": "ohos.media", "text": "media", "vector": {"0": -0.00995}}],
        "entries": [{"term": "MediaKit", "doc": 0}],
    }
)


# A knowledge base in the retired format 3, which stored one object per doc
# with its vector as plain JSON number arrays.
V3_KB = json.dumps(
    {
        "format": 3,
        "model": {"vocabulary": {"media": 0}, "doc_count": 1,
                  "doc_frequency": {"media": 1}, "alpha": 0.01},
        "docs": [{"path_context": "ohos.media", "text": "media",
                  "indices": [0], "weights": [-0.00995]}],
        "entries": {"terms": ["MediaKit"], "docs": [0]},
    }
)


# A knowledge base in the retired format 4, which stored each model token
# twice and each entry's term and doc index.
V4_KB = json.dumps(
    {
        "format": 4,
        "model": {"vocabulary": {"media": 0}, "doc_count": 1,
                  "doc_frequency": {"media": 1}, "alpha": 0.01},
        "docs": {"path_contexts": ["ohos.media"], "texts": ["media"], "sizes": "AQAAAA==",
                 "indices": "AAAAAA==", "weights": "OPjCZKpghL8="},
        "entries": {"terms": ["MediaKit"], "docs": "AAAAAA=="},
    }
)


# A knowledge base in the retired format 5, which stored the model's
# frequencies and the entries' integer columns as JSON number lists and the
# docs' integer columns as unsigned 32-bit integers.
V5_KB = json.dumps(
    {
        "format": 5,
        "model": {"tokens": ["media"], "doc_frequency": [1], "vocabulary": [0],
                  "doc_count": 1, "alpha": 0.01},
        "docs": {"path_contexts": ["ohos.media"], "texts": ["media"], "sizes": "AQAAAA==",
                 "indices": "AAAAAA==", "weights": "OPjCZKpghL8="},
        "entries": {"terms": ["MediaKit"], "term_refs": [0], "run_docs": [0], "run_lengths": [1]},
    }
)


# A knowledge base in the retired format 6, which stored every vector
# weight in full, one per index.
V6_KB = json.dumps(
    {
        "format": 6,
        "model": {"tokens": ["media"], "doc_frequency": "B:AQ==", "vocabulary": [0],
                  "doc_count": 1, "alpha": 0.01},
        "docs": {"path_contexts": ["ohos.media"], "texts": ["media"], "sizes": "B:AQ==",
                 "indices": "B:AA==", "weights": "d:OPjCZKpghL8="},
        "entries": {"terms": ["MediaKit"], "term_refs": "B:AA==", "run_docs": "B:AA==",
                    "run_lengths": "B:AQ=="},
    }
)


@pytest.fixture
def fixture_paths(tmp_path):
    return write_fixture(tmp_path / "e2e")


def build_kb(paths):
    code = main(["kb-build", str(paths["docs"]), "--out", str(paths["kb"])])
    assert code == 0
    return paths["kb"]


class TestKbBuild:
    def test_two_doc_fixture(self, tmp_path, capsys):
        docs_dir = tmp_path / "docs"
        docs_dir.mkdir()
        (docs_dir / "ohos.battery.txt").write_text(
            "Provides battery PowerStatus information.", encoding="utf-8"
        )
        (docs_dir / "@kit.AVSessionKit.avSession.txt").write_text(
            "AVSession used for setting AVMetadata.", encoding="utf-8"
        )
        out = tmp_path / "kb.json"
        assert main(["kb-build", str(docs_dir), "--out", str(out)]) == 0
        model, entries = load_knowledge_base(out)
        assert model.doc_count == 2
        assert len(entries) >= 2
        assert {e.path_context for e in entries} == {
            "ohos.battery",
            "@kit.AVSessionKit.avSession",
        }

    def test_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        out = tmp_path / "kb.json"
        assert main(["kb-build", str(empty), "--out", str(out)]) != 0
        assert "empty corpus" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, fixture_paths):
        build_kb(fixture_paths)
        first = fixture_paths["kb"].read_bytes()
        build_kb(fixture_paths)
        assert fixture_paths["kb"].read_bytes() == first

    @pytest.mark.parametrize(
        "manifest, expected",
        [
            ({"a": 1}, " must be a list (got {'a': 1})"),
            ([{"text": "x"}], ": item 0 'path_context' must be a string (got None)"),
            ([{"path_context": "p", "text": "x"}, 3], ": item 1 must be an object (got 3)"),
            ([{"path_context": "p", "text": "x"}, {"path_context": "", "text": "y"}],
             ": item 1: PackageDoc.path_context must be non-empty"),
            ("[1,", " is not valid JSON"),
        ],
        ids=["object", "missing-key", "non-object-item", "empty-path-context", "not-json"],
    )
    def test_ill_shaped_manifest_is_one_error_line(self, tmp_path, capsys, manifest, expected):
        path = tmp_path / "docs.json"
        text = manifest if isinstance(manifest, str) else json.dumps(manifest)
        path.write_text(text, encoding="utf-8")
        assert main(["kb-build", str(path), "--out", str(tmp_path / "kb.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: manifest {path}{expected}")
        assert err.count("\n") == 1
        assert not (tmp_path / "kb.json").exists()

    def test_non_utf8_doc_names_the_file(self, tmp_path, capsys):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.txt").write_text("Plain AVSession text.", encoding="utf-8")
        (docs / "b.txt").write_bytes(b"abc\xff\xfe")
        assert main(["kb-build", str(docs), "--out", str(tmp_path / "kb.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: doc {docs / 'b.txt'} is not UTF-8 text (")
        assert err.count("\n") == 1

    def test_multi_line_backend_error_is_one_error_line(self, fixture_paths, capsys, monkeypatch):
        page = "<html>\r\n<body>Bad gateway</body>\n</html>"
        monkeypatch.setattr("expsum.llm._default_transport", lambda *args: (502, page))
        argv = ["kb-build", str(fixture_paths["docs"]), "--out", str(fixture_paths["kb"]),
                "--backend", "http", "--api-base", "http://llm.test/v1", "--model", "m"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ClientFailure: ") and err.count("\n") == 1
        assert "HTTP 502: <html>\\r\\n<body>Bad gateway</body>\\n</html>" in err


class TestExtractAndCheck:
    def test_extract_from_source(self, tmp_path, capsys):
        source = tmp_path / "battery.ts"
        source.write_text(
            "function getBatteryLevel(): number { return battery.level; }",
            encoding="utf-8",
        )
        assert main(["extract", "--source", str(source)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["function_name"] == "getBatteryLevel"
        assert data["control_flow_skeleton"] == "return statement"

    def test_extract_parse_failure(self, tmp_path, capsys):
        source = tmp_path / "broken.ts"
        source.write_text("va{{{", encoding="utf-8")
        assert main(["extract", "--source", str(source)]) != 0
        assert "ParseFailure" in capsys.readouterr().err

    def test_extract_from_record_with_dmt_keys(self, tmp_path, capsys):
        record = {
            "function": {
                "file_path": "a.ts",
                "pre_extracted": {
                    "function_name": "f",
                    "file_path": "a.ts",
                    "dmt": {"@since": "9", "@usage": "f()", "@syscap": "X"},
                },
            }
        }
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        assert main(["extract", "--record", str(path), "--dmt-keys", "@usage"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dmt"] == {"@usage": "f()"}

    @pytest.mark.parametrize(
        "record, expected",
        [
            ([1], " must be an object (got [1])"),
            ({"id": 1}, ": 'function' must be an object (got None)"),
            ({"function": {"file_path": "a.ts", "source_text": "", "language": 5}},
             ": 'function' 'language' must be a string (got 5)"),
        ],
        ids=["non-object", "missing-function", "ill-typed-language"],
    )
    def test_extract_ill_shaped_record(self, tmp_path, capsys, record, expected):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        assert main(["extract", "--record", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: ValueError: record {path}{expected}\n"

    def test_check_roundtrip(self, tmp_path, capsys):
        metadata = {
            "function_name": "f",
            "parameters": [],
            "file_path": "a.ts",
            "dmt": {"@officialdoc": "NA"},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(metadata), encoding="utf-8")
        assert main(["check", "--metadata", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        removed = {r["field"]: r["reason"] for r in report["removed_fields"]}
        assert removed["parameters"] == "empty"
        assert removed["@officialdoc"] == "uninformative"


class TestRetrieveCommand:
    def test_stage_trace_printed(self, fixture_paths, capsys):
        build_kb(fixture_paths)
        metadata = {
            "function_name": "StartupVisibility",
            "file_path": "ability/visibility.ets",
            "package_module": "ohos.app.ability",
        }
        metadata_path = fixture_paths["config"].parent / "meta.json"
        metadata_path.write_text(json.dumps(metadata), encoding="utf-8")
        code = main(
            ["retrieve", "--metadata", str(metadata_path), "--kb", str(fixture_paths["kb"])]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["stage_trace"][0] == 1  # wrong-context docs filtered out
        assert result["terms"] == ["StartupVisibility"]

    def test_empty_kb_is_ok(self, tmp_path, capsys):
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(
            json.dumps(
                {
                    "format": 7,
                    "model": {
                        "tokens": [],
                        "doc_frequency": "B:",
                        "vocabulary": [],
                        "doc_count": 1,
                        "alpha": 0.01,
                    },
                    "docs": {"path_contexts": [], "texts": [], "sizes": "B:",
                             "indices": "B:", "weights": "d:", "weight_refs": "B:"},
                    "entries": {"terms": [], "term_refs": "B:", "run_docs": "B:",
                                "run_lengths": "B:"},
                }
            ),
            encoding="utf-8",
        )
        metadata_path = tmp_path / "m.json"
        metadata_path.write_text(
            json.dumps({"function_name": "f", "file_path": "a.ts"}), encoding="utf-8"
        )
        assert main(["retrieve", "--metadata", str(metadata_path), "--kb", str(kb_path)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result == {"terms": [], "entries": [], "stage_trace": [0, 0, 0]}

    def test_top_n_zero_is_one_error_line_naming_it(self, fixture_paths, capsys):
        build_kb(fixture_paths)
        metadata_path = fixture_paths["config"].parent / "meta.json"
        metadata_path.write_text(json.dumps({"function_name": "f", "file_path": "a.ts"}))
        argv = ["retrieve", "--metadata", str(metadata_path), "--kb", str(fixture_paths["kb"])]
        capsys.readouterr()
        assert main([*argv, "--top-n", "0"]) == 1
        assert capsys.readouterr().err == (
            "error: ValueError: 'top_n' must be at least 1 (got 0)\n"
        )

    def test_malformed_metadata(self, fixture_paths, tmp_path, capsys):
        build_kb(fixture_paths)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["retrieve", "--metadata", str(bad), "--kb", str(fixture_paths["kb"])]) != 0
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "retrieve"])
@pytest.mark.parametrize(
    "content, expected",
    [
        (b'{"function_name": "\xff"}', "metadata {path} is not UTF-8 text (invalid start byte at byte 19)"),
        (b'{"function_name": ', "metadata {path} is not valid JSON (Expecting value: line 1"),
        (b'["f"]', "metadata {path} must be an object (got ['f'])"),
        (b'{"dmt": 3}', "metadata {path}: 'dmt' must be an object (got 3)"),
    ],
    ids=["not-utf8", "truncated", "non-object", "ill-typed-field"],
)
def test_bad_metadata_file_is_one_error_line_naming_it(
    fixture_paths, capsys, command, content, expected
):
    path = fixture_paths["config"].parent / "meta.json"
    path.write_bytes(content)
    argv = [command, "--metadata", str(path)]
    if command == "retrieve":
        argv += ["--kb", str(build_kb(fixture_paths))]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ValueError: " + expected.format(path=path))
    assert captured.err.count("\n") == 1


class TestBadKnowledgeBase:
    """An unusable KB file is one typed error line naming the file, for
    both commands that load one."""

    @pytest.mark.parametrize("command", ["retrieve", "summarize"])
    @pytest.mark.parametrize(
        "content, expected",
        [
            ("{}", "no format field"),
            (V1_KB, "rebuild it with `expsum kb-build`"),
            (V2_KB, "format 2, expected format 7; rebuild it with `expsum kb-build`"),
            (V3_KB, "format 3, expected format 7; rebuild it with `expsum kb-build`"),
            (V4_KB, "format 4, expected format 7; rebuild it with `expsum kb-build`"),
            (V5_KB, "format 5, expected format 7; rebuild it with `expsum kb-build`"),
            (V6_KB, "format 6, expected format 7; rebuild it with `expsum kb-build`"),
            ("[" * 100_000, "is not valid JSON (maximum recursion depth exceeded"),
            ('{"format": ' + "9" * 5000 + "}", "is not valid JSON (Exceeds the limit (4300 digits)"),
        ],
        ids=["empty-object", "format-1", "format-2", "format-3", "format-4", "format-5",
             "format-6", "too-deep", "huge-int"],
    )
    def test_one_error_line_and_exit_1(
        self, fixture_paths, capsys, command, content, expected
    ):
        fixture_paths["kb"].write_text(content, encoding="utf-8")
        if command == "retrieve":
            metadata_path = fixture_paths["config"].parent / "m.json"
            metadata_path.write_text(
                json.dumps({"function_name": "f", "file_path": "a.ts"}), encoding="utf-8"
            )
            argv = ["retrieve", "--metadata", str(metadata_path),
                    "--kb", str(fixture_paths["kb"])]
        else:
            argv = ["summarize", str(fixture_paths["corpus"]),
                    "--config", str(fixture_paths["config"]),
                    "--out", str(fixture_paths["config"].parent / "out.jsonl")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: MalformedKnowledgeBase: knowledge base ")
        assert str(fixture_paths["kb"]) in err
        assert expected in err


def summarize_fails(paths, capsys, change=None, script=None):
    """Run ``summarize`` after changing the fixture's config or mock script;
    returns its one stderr line."""
    build_kb(paths)
    capsys.readouterr()
    if change is not None:
        config = json.loads(paths["config"].read_text(encoding="utf-8"))
        change(config)
        paths["config"].write_text(json.dumps(config), encoding="utf-8")
    if script is not None:
        paths["script"].write_text(script, encoding="utf-8")
    out = paths["config"].parent / "out.jsonl"
    argv = ["summarize", str(paths["corpus"]), "--config", str(paths["config"]), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert not out.exists()
    return err


class TestConfigTypes:
    """A config section or value of the wrong JSON type is one ConfigError
    line naming its key."""

    @pytest.mark.parametrize(
        "change, expected",
        [
            (lambda c: c.update(retrieval=5), "'retrieval' must be an object (got 5)"),
            (lambda c: c.update(summarizer=5), "'summarizer' must be an object (got 5)"),
            (lambda c: c.update(llm=5), "'llm' must be an object (got 5)"),
            (lambda c: c.update(dmt_keys=5), "'dmt_keys' must be a list (got 5)"),
            (lambda c: c.update(dmt_keys=["@since", 5]), "'dmt_keys' item 1 must be a string (got 5)"),
            (lambda c: c["llm"].update(timeout=[1]), "'llm' 'timeout' must be a finite number (got [1])"),
            (lambda c: c["llm"].update(retries=1.5), "'llm' 'retries' must be an integer (got 1.5)"),
            (lambda c: c["llm"].update(backend=["mock"]),
             "'llm' 'backend' must be a string or null (got ['mock'])"),
            (lambda c: c.update(workers="x"), "'workers' must be an integer (got 'x')"),
            (lambda c: c.update(workers=True), "'workers' must be an integer (got True)"),
            (lambda c: c.update(kb_path=5), "'kb_path' must be a string or null (got 5)"),
            (lambda c: c["retrieval"].update(top_n="9"), "'retrieval' 'top_n' must be an integer (got '9')"),
            (lambda c: c["retrieval"].update(path_overlap_threshold=None),
             "'retrieval' 'path_overlap_threshold' must be a finite number (got None)"),
            (lambda c: c["llm"].update(timeout=10**400),
             "'llm' 'timeout' must be a finite number (got 1" + "0" * 39 + ")"),
            (lambda c: c["llm"].update(timeout=0), "'llm' 'timeout' must be above 0 (got 0.0)"),
            (lambda c: c["llm"].update(retries=-1), "'llm' 'retries' must be at least 0 (got -1)"),
            (lambda c: c["summarizer"].update(max_iterations={}),
             "'summarizer' 'max_iterations' must be an integer (got {})"),
            (lambda c: c.update(workers=0), "'workers' must be at least 1 (got 0)"),
            (lambda c: c.pop("kb_path"), "'kb_path' must be a non-empty string (got None)"),
            (lambda c: c["summarizer"].update(max_iterations=0),
             "'summarizer' 'max_iterations' must be at least 1 (got 0)"),
            (lambda c: c["summarizer"].update(max_parse_retries=-1),
             "'summarizer' 'max_parse_retries' must be at least 0 (got -1)"),
            (lambda c: c["retrieval"].update(top_n=0), "'retrieval' 'top_n' must be at least 1 (got 0)"),
            (lambda c: c["llm"].update(backend="x"), "'llm' 'backend' must be 'mock' or 'http' (got 'x')"),
        ],
        ids=[
            "retrieval", "summarizer", "llm", "dmt-keys", "dmt-key-item", "llm-timeout",
            "llm-retries", "llm-backend", "workers-str", "workers-bool", "kb-path",
            "top-n", "path-threshold-null", "timeout-huge-int", "timeout-0",
            "retries-negative", "max-iterations", "workers-0", "no-kb-path",
            "max-iterations-0", "max-parse-retries-negative", "top-n-0", "unknown-backend",
        ],
    )
    def test_one_config_error_line(self, fixture_paths, capsys, change, expected):
        err = summarize_fails(fixture_paths, capsys, change=change)
        assert err == f"error: ConfigError: config {fixture_paths['config']}: {expected}\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([0, 1, 0.5, 10**400, "mock", "http", "kb.json"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
SECTION_KEYS = {
    "retrieval": ["path_overlap_threshold", "top_n", "token_overlap_threshold"],
    "summarizer": ["max_iterations", "max_parse_retries"],
    "llm": ["backend", "mock_script_path", "api_base", "api_key", "model", "timeout", "retries"],
}
TOP_KEYS = ["kb_path", "dictionary_path", "schema_dir", "refiner_constraints_path",
            "workers", "dmt_keys", *SECTION_KEYS]


@st.composite
def configs(draw):
    config = {"kb_path": "kb.json"}
    for key in draw(st.lists(st.sampled_from(TOP_KEYS), max_size=4)):
        if key in SECTION_KEYS and draw(st.booleans()):
            keys = st.sampled_from(SECTION_KEYS[key])
            config[key] = draw(st.dictionaries(keys, json_values, max_size=3))
        else:
            config[key] = draw(json_values)
    return config


def objects(keys, values=json_values):
    """JSON objects over ``keys``, so that a loader's own keys are drawn."""
    return st.dictionaries(st.sampled_from(keys), values, max_size=len(keys))


# Each JSON loader: the file it reads, the JSON values written there (each
# line of a JSON-lines file is one), its error type and how it is called.
JSON_LOADERS = {
    "config": ("config.json", configs(), ConfigError, lambda p: load_pipeline_config(p, env={})),
    "schema-file": ("schemas/utility.json",
                    objects(["category", "definition", "classification_criteria", "forbidden",
                             "datatype_templates", "example_names"],
                            st.sampled_from(["utility", "def"]) | json_values),
                    ConfigError, lambda p: load_category_schemas(p.parent)),
    "refiner-constraints": ("constraints.json", st.lists(json_values, max_size=3),
                            ConfigError, load_refiner_constraints),
    "mock-script": ("script.json", st.lists(objects(["match", "response", "regex", "default"])),
                    ConfigError, MockScript.load),
    "manifest": ("docs.json", st.lists(objects(["path_context", "text"]), max_size=3),
                 ValueError, _load_package_docs),
    "metadata": ("meta.json", objects(list(METADATA_FIELD_ORDER)), ValueError, _read_metadata),
    "record": ("record.json",
               objects(["function"],
                       objects(["file_path", "source_text", "language", "pre_extracted"])),
               ValueError, _read_record),
    "corpus-line": ("corpus.jsonl", objects(["id", "function"]), ValueError,
                    _load_corpus_records),
    "evaluate-line": ("generated.jsonl", objects(["id", "candidate"]), ValueError,
                      lambda p: _load_jsonl_field(p, "candidate")),
    "knowledge-base": ("kb.json",
                       objects(["format", "model", "docs", "entries"], st.just(5) | json_values),
                       MalformedKnowledgeBase, load_knowledge_base),
}


@pytest.mark.parametrize("loader", list(JSON_LOADERS))
def test_json_loader_raises_only_its_error_naming_the_file(tmp_path, loader):
    """Any JSON value, or one shaped like the loader's input, loads or is
    the loader's typed error, one line naming the file."""
    name, values, error, load = JSON_LOADERS[loader]
    (tmp_path / "kb.json").write_text("{}", encoding="utf-8")
    shutil.copytree(packaged_data_path("schemas"), tmp_path / "schemas")
    path = tmp_path / name

    @settings(max_examples=300 if loader == "config" else 100, deadline=None)
    @given(st.one_of(json_values, values))
    def loads_or_names_the_file(value):
        path.write_text(json.dumps(value) + "\n", encoding="utf-8")
        try:
            load(path)
        except error as e:
            assert type(e) is error
            assert "\n" not in str(e) and str(path) in str(e), str(e)

    loads_or_names_the_file()


# Corpus bytes: binary noise, or lines of JSON-ish fragments with bytes that
# are not UTF-8 (a lone continuation byte, a cut-off sequence, 0xff) and
# every newline form mixed in.
corpus_fragments = st.sampled_from(
    [b"{", b"}", b"[", b"]", b":", b",", b" ", b'"', b"\\", b'"id"', b'"function"', b'"x"',
     b"1", b"1.5", b"-", b"NaN", b"null", b"true", b"{}", b"\xff", b"\x80", b"\xc3", b"\xe2\x82",
     "\u00e9".encode(), b"\n", b"\r", b"\r\n", b"\t"]
)
corpus_bytes = st.binary(max_size=120) | st.lists(
    st.lists(corpus_fragments, max_size=12).map(b"".join), max_size=6
).map(b"\n".join)


@settings(max_examples=200, deadline=None)
@given(corpus_bytes)
def test_corpus_loader_raises_only_value_error_naming_path_and_line(data):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "corpus.jsonl"
        path.write_bytes(data)
        try:
            records = _load_corpus_records(path)
        except ValueError as e:
            assert type(e) is ValueError
            line = rf"{re.escape(str(path))} line [1-9][0-9]*(: | is not | must be )"
            assert re.match(line, str(e)), str(e)
        else:
            assert all(isinstance(r, dict) for r in records)


class TestSchemaFileTypes:
    """A category schema file of the wrong shape is one ConfigError line
    naming the file and the key, never a traceback or a garbled prompt."""

    @pytest.mark.parametrize(
        "name, content, expected",
        [
            ("procedural", {"classification_criteria": 5},
             ": 'classification_criteria' must be a list or null (got 5)"),
            ("procedural", [1], " must be an object (got [1])"),
            ("procedural", {"forbidden": "set"}, ": 'forbidden' must be a list or null (got 'set')"),
            ("procedural", {"definition": 7}, ": 'definition' must be a string (got 7)"),
            ("utility", {"category": "field"}, ": 'category' must be 'utility' (got 'field')"),
        ],
        ids=["criteria-int", "not-object", "forbidden-str", "definition-int", "category-mismatch"],
    )
    def test_one_config_error_line_naming_file_and_key(
        self, fixture_paths, capsys, tmp_path, name, content, expected
    ):
        schema_dir = tmp_path / "schemas"
        shutil.copytree(packaged_data_path("schemas"), schema_dir)
        path = schema_dir / f"{name}.json"
        if isinstance(content, dict):
            content = {**json.loads(path.read_text(encoding="utf-8")), **content}
        path.write_text(json.dumps(content), encoding="utf-8")
        err = summarize_fails(
            fixture_paths, capsys, change=lambda c: c.update(schema_dir=str(schema_dir))
        )
        assert err == f"error: ConfigError: schema file {path}{expected}\n"


class TestMockScriptShape:
    @pytest.mark.parametrize(
        "script, expected",
        [
            ('{"match": "a"}', " must be a list (got {'match': 'a'})"),
            ('["oops"]', ": item 0 must be an object (got 'oops')"),
            ('[{"response": "x"}]', ": item 0 'match' must be a string (got None)"),
            ('[{"match": "a", "response": "b"}, {"match": "a"}]',
             ": item 1 'response' must be a string (got None)"),
            ('[{"match": 1, "response": "x"}]', ": item 0 'match' must be a string (got 1)"),
            ('[{"match": "a", "response": null}]', ": item 0 'response' must be a string (got None)"),
            ('[{"default": 3}]', ": item 0 'default' must be a string (got 3)"),
            ('[{"match": "(", "response": "x", "regex": true}]', ": item 0 'match' is not a valid pattern"),
            ("[oops", " is not valid JSON"),
            ('[{"match": "a", "response": "x", "regex": "false"}]',
             ": item 0 'regex' must be a boolean (got 'false')"),
        ],
        ids=["not-list", "item-not-object", "no-match", "no-response", "match-int",
             "response-null", "default-int", "bad-pattern", "not-json", "regex-string"],
    )
    def test_one_config_error_line_naming_the_script(self, fixture_paths, capsys, script, expected):
        err = summarize_fails(fixture_paths, capsys, script=script)
        assert err.startswith(f"error: ConfigError: mock script {fixture_paths['script']}{expected}")

    def test_mock_backend_without_script_fails_fast(self, fixture_paths, capsys):
        err = summarize_fails(
            fixture_paths, capsys, change=lambda c: c["llm"].pop("mock_script_path")
        )
        assert err.startswith("error: ConfigError: the mock backend needs a script to summarize")


# JSON text that the parser cannot take: nested past the recursion limit, or
# an integer of more digits than int() converts.
UNPARSABLE_JSON = {"too-deep": "[" * 100_000, "huge-int": '{"x": ' + "9" * 5000 + "}"}


class TestUnparsableJsonFiles:
    """Every JSON file that ``summarize`` loads fails on unparsable JSON
    with one typed error line naming the file, never a traceback (the
    knowledge base: ``TestBadKnowledgeBase``)."""

    @pytest.mark.parametrize("content", list(UNPARSABLE_JSON.values()), ids=list(UNPARSABLE_JSON))
    @pytest.mark.parametrize(
        "loader, expected",
        [
            ("config", "ConfigError: config {path} is not valid JSON ("),
            ("schema file", "ConfigError: schema file {path} is not valid JSON ("),
            ("refiner constraints", "ConfigError: refiner constraints {path} is not valid JSON ("),
            ("mock script", "ConfigError: mock script {path} is not valid JSON ("),
        ],
        ids=["config", "schema", "refiner", "mock-script"],
    )
    def test_one_error_line_naming_the_file(
        self, fixture_paths, capsys, tmp_path, loader, expected, content
    ):
        change = None
        if loader == "schema file":
            schema_dir = tmp_path / "schemas"
            shutil.copytree(packaged_data_path("schemas"), schema_dir)
            path = schema_dir / "utility.json"
            change = lambda c: c.update(schema_dir=str(schema_dir))
        elif loader == "refiner constraints":
            path = tmp_path / "constraints.json"
            change = lambda c: c.update(refiner_constraints_path=str(path))
        else:
            path = fixture_paths["config" if loader == "config" else "script"]
        path.write_text(content, encoding="utf-8")
        err = summarize_fails(fixture_paths, capsys, change=change)
        assert err.startswith("error: " + expected.format(path=path))


# Each input file of a command and the error type of each of its faults: a
# missing file, bytes that are not UTF-8, text that is not JSON, a JSON value
# of the wrong top-level shape, a directory in the file's place. A missing
# file that the config names fails its existence check (``ConfigError``); a
# CLI input that cannot be read is the ``OSError`` itself. ``None``: the
# fault does not apply (a dictionary is not JSON, a directory is a docs
# corpus).
INPUT_FILE_FAULTS = ("missing", "not-utf8", "not-json", "wrong-shape", "directory")
INPUT_FILES = {
    "config": ("[1]", ["ConfigError"] * 5),
    "schema file": ("[1]", ["ConfigError"] * 5),
    "refiner constraints": ('{"a": 1}', ["ConfigError"] * 5),
    "mock script": ('{"match": "a"}',
                    ["ConfigError", "IoFailure", "ConfigError", "ConfigError", "IoFailure"]),
    "dictionary": (None, ["ConfigError", "IoFailure", None, None, "IoFailure"]),
    "knowledge base": ("[]", ["ConfigError", "IoFailure", "MalformedKnowledgeBase",
                              "MalformedKnowledgeBase", "IoFailure"]),
    "metadata": ('["f"]', ["FileNotFoundError", "ValueError", "ValueError", "ValueError",
                           "IsADirectoryError"]),
    "manifest": ('{"a": 1}', ["exit 2", "ValueError", "ValueError", "ValueError", None]),
}
INPUT_FILE_CASES = [
    pytest.param(loader, fault, error, id=f"{loader.replace(' ', '-')}-{fault}")
    for loader, (_, errors) in INPUT_FILES.items()
    for fault, error in zip(INPUT_FILE_FAULTS, errors)
    if error is not None
]


class TestInputFileFaults:
    """A fault in any input file a command reads is one typed error line
    naming the file, never a traceback; exit 1, or 2 for a missing
    ``kb-build`` corpus."""

    @pytest.mark.parametrize("loader, fault, error", INPUT_FILE_CASES)
    def test_one_error_line_naming_the_file(
        self, fixture_paths, capsys, tmp_path, loader, fault, error
    ):
        build_kb(fixture_paths)
        config = json.loads(fixture_paths["config"].read_text(encoding="utf-8"))
        out = tmp_path / "out.jsonl"
        argv = ["summarize", str(fixture_paths["corpus"]),
                "--config", str(fixture_paths["config"]), "--out", str(out)]
        if loader in ("config", "mock script", "knowledge base"):
            path = fixture_paths[{"mock script": "script", "knowledge base": "kb"}.get(loader, loader)]
        elif loader == "schema file":
            shutil.copytree(packaged_data_path("schemas"), tmp_path / "schemas")
            path = tmp_path / "schemas" / "utility.json"
            config["schema_dir"] = str(path.parent)
        elif loader in ("refiner constraints", "dictionary"):
            key, name = {
                "refiner constraints": ("refiner_constraints_path", "refiner_constraints.json"),
                "dictionary": ("dictionary_path", "uninformative_dictionary.txt"),
            }[loader]
            path = tmp_path / name
            shutil.copy(packaged_data_path(name), path)
            config[key] = str(path)
        elif loader == "metadata":
            path = tmp_path / "meta.json"
            path.write_text('{"function_name": "f"}', encoding="utf-8")
            argv = ["check", "--metadata", str(path)]
        else:
            path = fixture_paths["docs"]
            argv = ["kb-build", str(path), "--out", str(out)]
        fixture_paths["config"].write_text(json.dumps(config), encoding="utf-8")
        if fault in ("missing", "directory"):
            path.unlink()
            if fault == "directory":
                path.mkdir()
        else:
            path.write_bytes(
                {"not-utf8": b'["\xff"]', "not-json": b"[oops"}.get(fault)
                or INPUT_FILES[loader][0].encode()
            )
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        if error == "exit 2":
            assert code == 2 and err == f"error: corpus {path} does not exist\n"
        else:
            assert code == 1
            assert err.startswith(f"error: {error}: ")
            assert str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


ID_KIND = "'id' must be a non-empty string or a finite number"


class TestSummarizeCommand:
    def run_summarize(self, paths, out_name="out.jsonl", extra=()):
        out = paths["config"].parent / out_name
        code = main(
            [
                "summarize",
                str(paths["corpus"]),
                "--config",
                str(paths["config"]),
                "--out",
                str(out),
                *extra,
            ]
        )
        assert code == 0
        lines = [
            json.loads(line)
            for line in out.read_text(encoding="utf-8").splitlines()
            if line
        ]
        return out, lines

    def test_golden_three_record_fixture(self, fixture_paths):
        build_kb(fixture_paths)
        _, lines = self.run_summarize(fixture_paths)
        assert len(lines) == 3
        by_id = {line["id"]: line for line in lines}
        for record_id, expected in EXPECTED_SUMMARIES.items():
            got = by_id[record_id]
            for key, value in expected.items():
                assert got[key] == value, (record_id, key)

    def test_record_failures_are_isolated(self, fixture_paths):
        build_kb(fixture_paths)
        with open(fixture_paths["corpus"], "a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "id": "zz-broken",
                        "function": {
                            "file_path": "broken.ts",
                            "language": "arkts",
                            "source_text": "definitely no function here",
                        },
                    }
                )
                + "\n"
            )
        _, lines = self.run_summarize(fixture_paths)
        assert len(lines) == 4
        by_id = {line["id"]: line for line in lines}
        assert by_id["zz-broken"] == {"id": "zz-broken", "error": "ParseFailure"}
        assert by_id["battery-level"]["final_summary"] == (
            EXPECTED_SUMMARIES["battery-level"]["final_summary"]
        )

    @pytest.mark.parametrize(
        "function",
        [
            "oops",
            {"pre_extracted": "oops"},
            {"file_path": "a.ts", "source_text": "function f() {}", "language": 5},
            {"file_path": 5, "source_text": "function f() {}"},
            {"file_path": "a.ts", "source_text": 5},
        ],
    )
    def test_non_object_function_is_a_record_error(self, fixture_paths, function):
        build_kb(fixture_paths)
        fixture_paths["corpus"].write_text(
            json.dumps({"id": "bad-shape", "function": function}) + "\n", encoding="utf-8"
        )
        _, lines = self.run_summarize(fixture_paths)
        assert lines == [{"id": "bad-shape", "error": "ValueError"}]

    @pytest.mark.parametrize(
        "change",
        [{"parameters": "zz"}, {"dependency": "abc"}, {"dmt": "x"}, {"return_type": 5}],
        ids=["parameters", "dependency", "dmt", "return_type"],
    )
    def test_ill_shaped_pre_extracted_field_is_a_record_error(
        self, fixture_paths, capsys, change
    ):
        build_kb(fixture_paths)
        records = [
            json.loads(line)
            for line in fixture_paths["corpus"].read_text(encoding="utf-8").splitlines()
        ]
        bad = next(r for r in records if "pre_extracted" in r["function"])
        bad["id"] = "bad-shape"
        bad["function"]["pre_extracted"].update(change)
        with open(fixture_paths["corpus"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        capsys.readouterr()
        _, lines = self.run_summarize(fixture_paths)
        assert len(lines) == len(records) + 1
        assert lines[-1] == {"id": "bad-shape", "error": "ValueError"}
        assert all("error" not in line for line in lines[:-1])
        field = next(iter(change))
        assert f"record 'bad-shape' failed: ValueError: 'function' 'pre_extracted' '{field}' must be" in (
            capsys.readouterr().err
        )

    def test_client_exception_is_a_record_error(self, fixture_paths, capsys, monkeypatch):
        build_kb(fixture_paths)
        real_build_client = pipeline_module.build_client

        def failing_client(settings):
            client = real_build_client(settings)

            class Client:
                def complete(self, request):
                    if "copySessionData" in request.user_prompt:
                        raise RuntimeError("backend exploded")
                    return client.complete(request)

            return Client()

        monkeypatch.setattr(pipeline_module, "build_client", failing_client)
        capsys.readouterr()
        _, lines = self.run_summarize(fixture_paths)
        by_id = {line["id"]: line for line in lines}
        assert by_id.pop("copy-session") == {"id": "copy-session", "error": "RuntimeError"}
        for record_id, line in by_id.items():
            assert line["final_summary"] == EXPECTED_SUMMARIES[record_id]["final_summary"]
        assert "warning: record 'copy-session' failed: RuntimeError: backend exploded\n" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("{not json", "line 4 is not valid JSON (Expecting property name"),
            ('{"id": [1], "function": {}}', f"line 4: {ID_KIND} (got [1])"),
            ('{"id": "battery-level"}', "line 4: duplicate id 'battery-level' (line 1 has 'battery-level')"),
            ('{"id": true}', f"line 4: {ID_KIND} (got True)"),
            ('{"id": false}', f"line 4: {ID_KIND} (got False)"),
            ('{"id": null}', f"line 4: {ID_KIND} (got None)"),
            ('{"id": ""}', f"line 4: {ID_KIND} (got '')"),
            ('{"id": {}}', f"line 4: {ID_KIND} (got {{}})"),
            ('{"function": {}}', f"line 4: {ID_KIND} (got None)"),
            ('{"id": NaN}', f"line 4: {ID_KIND} (got nan)"),
            ('{"id": -Infinity}', f"line 4: {ID_KIND} (got -inf)"),
            (b'{"id": "z\xff", "function": {}}', "line 4 is not UTF-8 text (byte 0xff at column 10)"),
            ("[" * 100_000, "line 4 is not valid JSON (maximum recursion depth exceeded"),
            ('{"id": ' + "9" * 5000 + "}", "line 4 is not valid JSON (Exceeds the limit"),
        ],
        ids=["not-json", "list-id", "duplicate-id", "true-id", "false-id", "null-id",
             "empty-string-id", "object-id", "missing-id", "nan-id", "infinite-id",
             "not-utf8", "too-deep", "too-many-digits"],
    )
    def test_bad_corpus_line_is_one_error_line(self, fixture_paths, capsys, line, expected):
        build_kb(fixture_paths)
        with open(fixture_paths["corpus"], "ab") as fh:
            fh.write((line if isinstance(line, bytes) else line.encode()) + b"\n")
        capsys.readouterr()
        out = fixture_paths["config"].parent / "out.jsonl"
        argv = ["summarize", str(fixture_paths["corpus"]),
                "--config", str(fixture_paths["config"]), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {fixture_paths['corpus']} {expected}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "first, second", [(1, "1"), ("1", 1), (1, 1.0), (-0.0, 0)], ids=repr
    )
    def test_ids_alike_are_one_error_line(self, fixture_paths, capsys, first, second):
        build_kb(fixture_paths)
        fixture_paths["corpus"].write_text(
            "".join(json.dumps({"id": i, "function": "oops"}) + "\n" for i in (first, second)),
            encoding="utf-8",
        )
        capsys.readouterr()
        out = fixture_paths["config"].parent / "out.jsonl"
        argv = ["summarize", str(fixture_paths["corpus"]),
                "--config", str(fixture_paths["config"]), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: {fixture_paths['corpus']} line 2: "
            f"duplicate id {second!r} (line 1 has {first!r})\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("record_id", [0, 7, -3, 1.5, "0"], ids=repr)
    def test_string_or_number_id_is_accepted(self, fixture_paths, record_id):
        build_kb(fixture_paths)
        with open(fixture_paths["corpus"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": record_id, "function": "oops"}) + "\n")
        _, lines = self.run_summarize(fixture_paths)
        assert lines[-1] == {"id": record_id, "error": "ValueError"}

    def test_concurrent_warnings_stay_whole_lines(self, fixture_paths, capfd):
        build_kb(fixture_paths)
        fixture_paths["corpus"].write_text(
            "".join(json.dumps({"id": f"bad-{n}", "function": "oops"}) + "\n" for n in range(60)),
            encoding="utf-8",
        )
        capfd.readouterr()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, lines = self.run_summarize(fixture_paths, extra=["--workers", "4"])
        finally:
            sys.setswitchinterval(interval)
        assert all("error" in line for line in lines)
        err_lines = capfd.readouterr().err.split("\n")
        assert err_lines[-1] == ""
        warnings = err_lines[:-2]  # the last line is the run summary
        assert len(warnings) == 60
        assert all(line.startswith("warning: record 'bad-") for line in warnings), warnings

    def test_non_object_line_is_one_error_line(self, fixture_paths, capsys):
        build_kb(fixture_paths)
        capsys.readouterr()
        fixture_paths["corpus"].write_text("[1]\n", encoding="utf-8")
        out = fixture_paths["config"].parent / "out.jsonl"
        argv = ["summarize", str(fixture_paths["corpus"]),
                "--config", str(fixture_paths["config"]), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: ValueError: {fixture_paths['corpus']} line 1 must be an object (got [1])\n"
        )

    def test_unwritable_out_fails_before_any_record_runs(self, fixture_paths, capsys):
        build_kb(fixture_paths)
        with open(fixture_paths["corpus"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "zz-broken", "function": "oops"}) + "\n")
        out_dir = fixture_paths["config"].parent / "out-dir"
        out_dir.mkdir()
        capsys.readouterr()
        argv = ["summarize", str(fixture_paths["corpus"]),
                "--config", str(fixture_paths["config"]), "--out", str(out_dir)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IsADirectoryError: ")
        assert err.count("\n") == 1
        assert "warning:" not in err

    def test_worker_counts_agree(self, fixture_paths):
        build_kb(fixture_paths)
        out1, lines1 = self.run_summarize(fixture_paths, "w1.jsonl", ["--workers", "1"])
        out4, lines4 = self.run_summarize(fixture_paths, "w4.jsonl", ["--workers", "4"])
        key = lambda line: line["id"]
        assert sorted(lines1, key=key) == sorted(lines4, key=key)

    def test_byte_identical_reruns(self, fixture_paths):
        build_kb(fixture_paths)
        out_a, _ = self.run_summarize(fixture_paths, "a.jsonl")
        out_b, _ = self.run_summarize(fixture_paths, "b.jsonl")
        assert out_a.read_bytes() == out_b.read_bytes()


class TestEvaluateCommand:
    def test_perfect_generation_scores_100(self, fixture_paths, tmp_path, capsys):
        generated = tmp_path / "gen.jsonl"
        generated.write_text(
            "\n".join(
                json.dumps({"id": r_id, "final_summary": ref})
                for r_id, ref in [
                    ("battery-level", "Obtains the battery level of the device."),
                    ("copy-session", "Copies session data to a remote device."),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        references = tmp_path / "ref.jsonl"
        references.write_text(
            "\n".join(
                json.dumps({"id": r_id, "reference": ref})
                for r_id, ref in [
                    ("battery-level", "Obtains the battery level of the device."),
                    ("copy-session", "Copies session data to a remote device."),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--generated", str(generated),
                "--references", str(references),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["corpus_means"]["bleu4"] == pytest.approx(100.0)
        assert report["corpus_means"]["rougeL"] == pytest.approx(100.0)
        assert "bleu4=100.000" in capsys.readouterr().out

    def test_single_file_with_candidate_and_reference(self, tmp_path):
        combined = tmp_path / "pairs.jsonl"
        combined.write_text(
            json.dumps({"id": "1", "candidate": "a b c", "reference": "a b c"}) + "\n",
            encoding="utf-8",
        )
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--generated", str(combined),
                "--references", str(combined),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["corpus_means"]["rougeL"] == pytest.approx(100.0)

    def test_disjoint_ids_fail(self, tmp_path, capsys):
        generated = tmp_path / "gen.jsonl"
        generated.write_text(json.dumps({"id": "a", "candidate": "x"}) + "\n")
        references = tmp_path / "ref.jsonl"
        references.write_text(json.dumps({"id": "b", "reference": "y"}) + "\n")
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--generated", str(generated),
                "--references", str(references),
                "--report", str(report_path),
            ]
        )
        assert code != 0
        assert "zero joinable ids" in capsys.readouterr().err

    def test_non_object_line_is_one_error_line(self, tmp_path, capsys):
        generated = tmp_path / "gen.jsonl"
        generated.write_text(json.dumps({"id": "a", "candidate": "x"}) + "\n[1]\n")
        references = tmp_path / "ref.jsonl"
        references.write_text(json.dumps({"id": "a", "reference": "x"}) + "\n")
        code = main(
            [
                "evaluate",
                "--generated", str(generated),
                "--references", str(references),
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: {generated} line 2 must be an object (got [1])\n"
        )
        assert not (tmp_path / "report.json").exists()

    def test_non_utf8_line_is_one_error_line(self, tmp_path, capsys):
        generated = tmp_path / "gen.jsonl"
        generated.write_bytes(b'{"id": "a", "candidate": "caf\xe9"}\n')
        references = tmp_path / "ref.jsonl"
        references.write_text(json.dumps({"id": "a", "reference": "x"}) + "\n")
        code = main(
            [
                "evaluate",
                "--generated", str(generated),
                "--references", str(references),
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: {generated} line 1 is not UTF-8 text (byte 0xe9 at column 30)\n"
        )
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "ids, expected",
        [
            ([None, "2"], f"line 1: {ID_KIND} (got None)"),
            ([[1], "2"], f"line 1: {ID_KIND} (got [1])"),
            ([True, "2"], f"line 1: {ID_KIND} (got True)"),
            (["1", "2", "2"], "line 3: duplicate id '2' (line 2 has '2')"),
            ([1, "1", 2, 2], "line 2: duplicate id '1' (line 1 has 1)"),
        ],
        ids=["missing-id", "list-id", "bool-id", "repeated-id", "number-beside-its-text"],
    )
    @pytest.mark.parametrize("side", ["generated", "references"])
    def test_bad_id_is_one_error_line(self, tmp_path, capsys, ids, expected, side):
        """Both files follow the corpus id rule: one error line, exit 1 and
        no report, never a silent join of the ids' texts."""
        files = {name: tmp_path / f"{name}.jsonl" for name in ("generated", "references")}
        for name, path in files.items():
            lines = [
                {"candidate": "a b", "reference": "a b"} | ({} if i is None else {"id": i})
                for i in (ids if name == side else ["1", "2"])
            ]  # a None id is left out
            path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        report = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--generated", str(files["generated"]),
                "--references", str(files["references"]),
                "--report", str(report),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: ValueError: {files[side]} {expected}\n"
        assert not report.exists()

    def test_csv_output(self, tmp_path):
        generated = tmp_path / "gen.jsonl"
        generated.write_text(json.dumps({"id": "a", "candidate": "x y"}) + "\n")
        references = tmp_path / "ref.jsonl"
        references.write_text(json.dumps({"id": "a", "reference": "x y"}) + "\n")
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "scores.csv"
        code = main(
            [
                "evaluate",
                "--generated", str(generated),
                "--references", str(references),
                "--report", str(report_path),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "id,bleu4,rougeL"
        assert lines[1].startswith("a,100.000000,100.000000")


class TestConfigPrecedence:
    def test_flag_beats_env_beats_file(self, fixture_paths, monkeypatch):
        fixture_paths["kb"].write_text("{}", encoding="utf-8")  # must exist
        config = json.loads(fixture_paths["config"].read_text(encoding="utf-8"))
        config["llm"].update(
            {"api_base": "http://file", "api_key": "file-key", "model": "file-model"}
        )
        fixture_paths["config"].write_text(json.dumps(config), encoding="utf-8")

        # file only
        monkeypatch.delenv("EXPSUM_API_BASE", raising=False)
        monkeypatch.delenv("EXPSUM_API_KEY", raising=False)
        monkeypatch.delenv("EXPSUM_MODEL", raising=False)
        cfg = load_pipeline_config(fixture_paths["config"])
        assert (cfg.llm.api_base, cfg.llm.api_key, cfg.llm.model) == (
            "http://file", "file-key", "file-model",
        )

        # env beats file, per setting
        monkeypatch.setenv("EXPSUM_API_BASE", "http://env")
        monkeypatch.setenv("EXPSUM_MODEL", "env-model")
        cfg = load_pipeline_config(fixture_paths["config"])
        assert cfg.llm.api_base == "http://env"
        assert cfg.llm.api_key == "file-key"
        assert cfg.llm.model == "env-model"

        # flag beats env, per setting
        cfg = load_pipeline_config(
            fixture_paths["config"], cli={"api_base": "http://flag"}
        )
        assert cfg.llm.api_base == "http://flag"
        assert cfg.llm.model == "env-model"

    def test_resolve_setting_chain(self):
        assert resolve_setting("flag", "env", "file") == "flag"
        assert resolve_setting(None, "env", "file") == "env"
        assert resolve_setting(None, "", "file") == "file"
        assert resolve_setting(None, None, None, "default") == "default"

    def test_missing_paths_rejected(self, fixture_paths):
        with pytest.raises(ConfigError):
            load_pipeline_config(fixture_paths["config"])  # kb not built yet

    def test_workers_validated(self, fixture_paths):
        fixture_paths["kb"].write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_pipeline_config(fixture_paths["config"], cli={"workers": 0})
