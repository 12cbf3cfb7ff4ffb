import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum.cli import main
from expsum.config import load_pipeline_config
from expsum.errors import ClientFailure
from expsum.pipeline import Pipeline

from e2e_fixtures import CORPUS_RECORDS, write_fixture

BAD_RECORDS = [
    {"id": "no-function"},
    {"id": "not-parsable", "function": {"file_path": "b.ts", "language": "arkts",
                                        "source_text": "no function here"}},
    {"id": "ill-typed", "function": {"file_path": "a.ts", "source_text": 5}},
]


@pytest.mark.parametrize("workers", ["1", "4"])
def test_run_returns_the_line_summarize_writes(tmp_path, capsys, workers):
    paths = write_fixture(tmp_path / "e2e")
    records = CORPUS_RECORDS + BAD_RECORDS
    paths["corpus"].write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["kb-build", str(paths["docs"]), "--out", str(paths["kb"])]) == 0
    capsys.readouterr()
    out = tmp_path / "out.jsonl"
    argv = ["summarize", str(paths["corpus"]), "--config", str(paths["config"]),
            "--out", str(out), "--workers", workers]
    assert main(argv) == 0
    cli_err = capsys.readouterr().err

    pipeline = Pipeline.from_config(load_pipeline_config(paths["config"]))
    lines = [pipeline.run(r) for r in records]
    assert out.read_text(encoding="utf-8") == "".join(
        json.dumps(line, sort_keys=True, ensure_ascii=False) + "\n" for line in lines
    )
    assert [line.get("error") for line in lines[-3:]] == ["ValueError", "ParseFailure", "ValueError"]
    warnings = capsys.readouterr().err
    assert "record 'no-function' failed: ValueError: 'function' must be an object (got None)" in warnings
    assert warnings.count("warning: ") == 3
    assert sorted(cli_err.splitlines()[:-1]) == sorted(warnings.splitlines())


OUTPUT_KEYS = {"id", "final_summary", "category", "retrieved_terms", "iterations", "degraded"}


class FailingClient:
    def __init__(self, error: Exception):
        self.error = error

    def complete(self, req):
        raise self.error


@pytest.fixture(scope="module")
def e2e_pipeline(tmp_path_factory):
    paths = write_fixture(tmp_path_factory.mktemp("e2e"))
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["kb-build", str(paths["docs"]), "--out", str(paths["kb"])]) == 0
    return Pipeline.from_config(load_pipeline_config(paths["config"]))


def run_capturing_stderr(pipeline, record):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        line = pipeline.run(record)
    return line, err.getvalue()


def test_multi_line_client_error_is_one_warning_line(e2e_pipeline):
    page = "backend returned HTTP 502: <html>\n<body>Bad gateway</body>\n</html>"
    pipeline = dataclasses.replace(e2e_pipeline, client=FailingClient(ClientFailure(page)))
    line, err = run_capturing_stderr(pipeline, CORPUS_RECORDS[0])
    assert line == {"id": "battery-level", "error": "ClientFailure"}
    assert err == (
        "warning: record 'battery-level' failed: ClientFailure: "
        "backend returned HTTP 502: <html>\\n<body>Bad gateway</body>\\n</html>\n"
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
functions = st.one_of(
    json_values,
    st.sampled_from([r["function"] for r in CORPUS_RECORDS]),
    st.fixed_dictionaries(
        {"file_path": json_values, "source_text": json_values},
        optional={"language": json_values, "pre_extracted": json_values},
    ),
)
record_ids = st.one_of(
    st.text(min_size=1), st.integers(), st.floats(allow_nan=False, allow_infinity=False)
)
failures = st.one_of(
    st.none(),  # the fixture's scripted client answers
    st.builds(
        lambda kind, text: kind(text),
        st.sampled_from([ClientFailure, RuntimeError, ValueError, OSError]),
        st.text(st.characters() | st.sampled_from("\r\n")),  # an error page, say
    ),
)


@settings(max_examples=200, deadline=None)
@given(record_id=record_ids, function=functions, failure=failures)
def test_run_contract(e2e_pipeline, record_id, function, failure):
    """Any function value, id and client outcome gives one line with the
    record's id, holding either every output key or ``error``, and at most
    one whole ``warning:`` line, written exactly when the line is an error."""
    pipeline = e2e_pipeline
    if failure is not None:
        pipeline = dataclasses.replace(pipeline, client=FailingClient(failure))
    line, err = run_capturing_stderr(pipeline, {"id": record_id, "function": function})
    assert line["id"] is record_id
    if "error" in line:
        assert set(line) == {"id", "error"}
        assert err.startswith(f"warning: record {record_id!r} failed: {line['error']}: ")
        assert err.endswith("\n") and err.count("\n") == 1
    else:
        assert set(line) == OUTPUT_KEYS
        assert err == ""
