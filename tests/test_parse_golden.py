"""Golden digests of the ArkTS frontend's outcomes on seeded sources.

Token soup is parsed bare and in three function frames (a declaration, a
declaration with a return type, and an arrow function), and sources
rendered by the benchmark's ``render_arkts`` are parsed as they are. An
outcome is the canonical dict of the parsed metadata, or the type of the
exception raised. Each frame's outcomes are pinned by a sha256 recorded
before the frontend's bracket scanning was folded into one matcher, so a
change to any parsed field, or a parse that starts or stops failing, fails
here. The number of sources that parse is pinned too, to show that every
frame reaches the signature scanners."""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from expsum.code_model import metadata_to_dict
from expsum.frontends import TypeScriptLikeFrontend

_spec = importlib.util.spec_from_file_location(
    "bench_fixtures", Path(__file__).resolve().parents[1] / "bench" / "fixtures.py"
)
bench_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fixtures)

SOUP = [
    "function", "export", "declare", "const", "let", "namespace", "import", "from",
    "class", "constructor", "return", "if", "else", "for", "while", "do", "switch",
    "case", "try", "catch", "new", "this", "async", "await", "static", "f", "x",
    "number", "string", "void", "'s'", '"t"', "`u`", "0", "1.5",
    "(", ")", "{", "}", "[", "]", "<", ">", ",", ";", ":", "?", "=", "=>", "...",
    ".", "@", "+=", "===", "/*", "*/", "/** @since 9 */", "//", "\n", " ",
]

SOURCES_PER_FRAME = 1250


def _soup(rng: random.Random, most: int = 30) -> str:
    return " ".join(rng.choice(SOUP) for _ in range(rng.randrange(most + 1)))


FRAMES = {
    "bare": lambda r: _soup(r),
    "function": lambda r: f"{_soup(r)} function f({_soup(r)}) {{ {_soup(r)} }}",
    "declaration": lambda r: f"{_soup(r)} function f({_soup(r)}): {_soup(r)} {{ {_soup(r)} }}",
    # Shorter soup: a 30-token parameter soup almost never parses.
    "arrow": lambda r: f"const f = ({_soup(r, 8)}) {_soup(r, 8)} => {_soup(r, 8)}",
}

# frame: (sources that parse, sha256 of the outcomes in order)
GOLDEN = {
    "bare": (1, "5d6f7c61f44add5dff46cc0213c431d6ea595996ac1e95d08c88b2c207c95895"),
    "function": (320, "21f68c7d67273fde03b6660499a9a228d38ca12760629fa23523bb6047760802"),
    "declaration": (363, "e8790db4000646cb654742dea859826aeb521300f8988f659105166dedeacd33"),
    "arrow": (76, "9c672e9923aa7b80a8f676b93d4cf65e14a734d244e3204c77d9dc1db2c2c5ae"),
    "render_arkts": (200, "26b05fc3cec9661b027884081b5cec22c070d7655d6b9d1a37e7550b0a9ae96c"),
}


def _sources(frame: str) -> list[str]:
    rng = random.Random(f"parse-golden-{frame}")
    if frame == "render_arkts":
        contexts = ["ohos.power.battery", "ohos.multimedia.audio", "ohos.app.ability"]
        records = bench_fixtures.make_records(rng, 200, contexts, raw_share=1.0)
        return [r["function"]["source_text"] for r in records]
    return [FRAMES[frame](rng) for _ in range(SOURCES_PER_FRAME)]


def _outcome(source: str) -> str:
    try:
        metadata = TypeScriptLikeFrontend().parse(source, "f.ts")
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc).__name__
    return json.dumps(metadata_to_dict(metadata), sort_keys=True)


@pytest.mark.parametrize("frame", list(GOLDEN))
def test_parse_outcomes_match_golden(frame):
    outcomes = [_outcome(s) for s in _sources(frame)]
    parsed = sum(o.startswith("{") for o in outcomes)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert (parsed, digest) == GOLDEN[frame]
