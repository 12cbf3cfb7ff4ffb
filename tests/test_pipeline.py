import json

import pytest

from expsum.cli import main
from expsum.config import load_pipeline_config
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
    assert [line.get("error") for line in lines[-3:]] == ["KeyError", "ParseFailure", "ValueError"]
    warnings = capsys.readouterr().err
    assert warnings.count("warning: ") == 3
    assert sorted(cli_err.splitlines()[:-1]) == sorted(warnings.splitlines())
