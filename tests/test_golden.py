"""Golden prompt digests: every prompt the pipeline sends for the e2e
fixture's records, pinned byte for byte.

A change that alters any prompt text fails here; such a change must say so
in CHANGES.md and replace the digests below."""

import contextlib
import dataclasses
import hashlib
import io
import json

from expsum.cli import main
from expsum.config import load_pipeline_config
from expsum.pipeline import Pipeline

from e2e_fixtures import CORPUS_RECORDS, write_fixture

# sha256 of ``json.dumps([system_prompt, user_prompt])`` for each request, in
# the order a one-worker run sends them.
GOLDEN_PROMPT_DIGESTS = [
    "7988e17d46c51252370734b2ff11c5e5aa285d74c0f5bbeaccb987127154e4e6",
    "67a579c896c695f9830ef5b1caee43feed033489b03af74b62c66089ea83414b",
    "d2720c7f2794da8c0633b77f3935c25fd1a5ce459747279d4e609702cd01d731",
    "50dedc2351da6e32ba6eea978c72c42419ce2356ec26a2828dc0a1e38440a78f",
    "e8ef79dac51a957d225ac242c1c02348333773846f5f7546907b824db424a8d2",
    "89639eb0529685127b0e4f3c90d8ac0d2a8db684f2f201dc1c33f0666789a93b",
    "7c0f9f54efdb8e93240a847439a8f9871c7688df4bebabcc693d99c4462234f9",
    "2a73150f960d2f15c125a3791ca5c052d4c12e5444c27745c55f13e54393ee28",
]


class RecordingClient:
    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        return self.inner.complete(req)


def prompt_digest(req) -> str:
    return hashlib.sha256(json.dumps([req.system_prompt, req.user_prompt]).encode()).hexdigest()


def test_e2e_prompts_match_golden_digests(tmp_path):
    paths = write_fixture(tmp_path)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["kb-build", str(paths["docs"]), "--out", str(paths["kb"])]) == 0
    pipeline = Pipeline.from_config(load_pipeline_config(paths["config"]))
    client = RecordingClient(pipeline.client)
    pipeline = dataclasses.replace(pipeline, client=client)
    lines = [pipeline.run(record) for record in CORPUS_RECORDS]
    assert not any("error" in line for line in lines)
    assert [prompt_digest(req) for req in client.requests] == GOLDEN_PROMPT_DIGESTS
