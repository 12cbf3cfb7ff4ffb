"""End-to-end golden: 200 seeded records through ``expsum summarize`` and
``expsum evaluate``, pinned by the sha256 of the bytes written.

The records come from the benchmark's generator over the seeded KB of
``test_kb_golden``: raw ArkTS and pre-extracted records, re-drafts, parse
retries, degraded endings, and a few records whose metadata is ill-typed
and so end as error lines. A client that follows each record's planned
outcome stands in for the backend. The ``--out`` bytes are the same at 1
and 4 workers, and the ``evaluate`` report is pinned too."""

import contextlib
import hashlib
import io
import json
import random
import re
import threading

import pytest

from expsum import pipeline as pipeline_module
from expsum.cli import main
from expsum.knowledge_base import kb_to_json
from expsum.llm import LlmResponse

from test_kb_golden import bench_fixtures, seeded_kb

# sha256 of the ``--out`` file of the seeded run (any worker count).
OUT_DIGEST = "e41847f3d1fb40cfc859ac94b069d7f1f02a2c76f310ac2d47c5e433a83a1d68"

# sha256 of the report ``expsum evaluate`` writes for that ``--out`` file.
REPORT_DIGEST = "cb8ad975e8f434aecf0d1b912ce004c07909f95b698d49df48b5b57f32ec07a0"

_FUNCTION_NAME_RE = re.compile(r'"function_name": "([^"]+)"')


class PlannedClient:
    """Answers each record's prompts as its plan says, keyed by function
    name: the first draft of a record planned with a parse retry is
    unparseable, and every later answer follows the planned categories."""

    def __init__(self, plans: dict):
        self.plans = plans
        self.retried: set[str] = set()  # records that had their first draft
        self.lock = threading.Lock()

    def complete(self, req):
        prompt = req.user_prompt
        name = _FUNCTION_NAME_RE.search(prompt).group(1)
        plan = self.plans[name]
        if "FINAL:" in prompt:
            last = len(plan["drafts"]) - 1
            k = next(k for k, d in enumerate(plan["drafts"]) if d in prompt)
            if k == last and not plan["degraded"]:
                text = f"FINAL: {plan['final']}"
            else:
                text = f"Error category: {plan['declared'][k]}"
        else:
            with self.lock:
                first = plan["parse_retry"] and name not in self.retried
                self.retried.add(name)
            if first:
                text = "The category of this function is unclear to me."
            else:
                text = next(
                    f"CATEGORY: {c}\nSUMMARY: {d}"
                    for c, d in zip(plan["declared"], plan["drafts"])
                    if f"### {c.capitalize()}" in prompt
                )
        return LlmResponse(text=text, backend_id="planned")


def _ill_typed(records: list[dict]) -> None:
    """Break the metadata of a few records, each in its own way."""
    pre = [r["function"] for r in records if "pre_extracted" in r["function"]]
    raw = [r["function"] for r in records if "source_text" in r["function"]]
    pre[3]["pre_extracted"]["return_type"] = 5
    pre[40]["pre_extracted"]["dmt"] = {"@since": 9}
    pre[77]["pre_extracted"]["parameters"] = "zz"
    pre[110]["pre_extracted"]["dependency"] = [1]
    pre[120]["file_path"] = 3
    raw[5]["source_text"] = 7
    raw[20]["language"] = ["arkts"]


@pytest.fixture(scope="module")
def seeded_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e_golden")
    docs, kb = seeded_kb()
    contexts = sorted({d.path_context for d in docs})
    records = bench_fixtures.make_records(random.Random(5309), 200, contexts, 0.25)
    _ill_typed(records)
    (root / "kb.json").write_text(kb_to_json(*kb), encoding="utf-8")
    (root / "config.json").write_text(
        json.dumps({"kb_path": "kb.json", "llm": {"backend": "http"}}), encoding="utf-8"
    )
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps({"id": r["id"], "function": r["function"]}) + "\n" for r in records),
        encoding="utf-8",
    )
    (root / "references.jsonl").write_text(
        "".join(
            json.dumps({"id": r["id"], "reference": r["plan"]["drafts"][0]}) + "\n"
            for r in records
        ),
        encoding="utf-8",
    )
    plans = {r["expected_metadata"]["function_name"]: r["plan"] for r in records}
    return root, plans


def _summarize(root, plans, workers: int, monkeypatch) -> tuple[bytes, int]:
    """The ``--out`` bytes of a run, and how many parse retries it made."""
    client = PlannedClient(plans)
    monkeypatch.setattr(pipeline_module, "build_client", lambda llm: client)
    out = root / f"out-{workers}.jsonl"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([
            "summarize", str(root / "corpus.jsonl"), "--config", str(root / "config.json"),
            "--out", str(out), "--workers", str(workers),
        ]) == 0
    return out.read_bytes(), sum(plans[name]["parse_retry"] for name in client.retried)


def test_seeded_summarize_and_evaluate_are_what_was_recorded(seeded_run, monkeypatch):
    root, plans = seeded_run
    out, retries = _summarize(root, plans, 1, monkeypatch)
    assert _summarize(root, plans, 4, monkeypatch) == (out, retries)
    assert retries == 20
    lines = [json.loads(line) for line in out.decode().splitlines()]
    assert len(lines) == 200
    assert sum("error" in line for line in lines) == 7
    assert {line.get("degraded") for line in lines} == {True, False, None}
    assert {line.get("iterations") for line in lines} == {1, 2, 3, None}
    assert hashlib.sha256(out).hexdigest() == OUT_DIGEST

    report = root / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "evaluate", "--generated", str(root / "out-1.jsonl"),
            "--references", str(root / "references.jsonl"), "--report", str(report),
        ]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_DIGEST
