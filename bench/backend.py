"""Simulated chat-completion backend, passed to the program's own
``HttpLlmClient`` as its ``transport``.

The client still builds every request, holds its concurrency slot and
decodes every response; only the network and the model are replaced. The
answer comes from a table the generator computed, after a delay of a fixed
part plus a part proportional to the prompt's characters (the prefill cost
of a real model). The only state is a per-record counter for planned parse
retries, plus the call, prompt-character and delay counts the benchmark
reports.
"""

from __future__ import annotations

import json
import re
import threading
import time

from fixtures import CATEGORIES

_FUNCTION_NAME_RE = re.compile(r'"function_name": "([^"]+)"')
_JUDGED_WORD_RE = re.compile(r"^Word: (\S+)$", re.MULTILINE)

UNPARSEABLE_DRAFT = "The category of this function is unclear to me."

SIMULATED_API_BASE = "http://simulated-backend.invalid/v1"
SIMULATED_MODEL = "simulated"


def simulated_client(expsum, transport):
    """The program's HTTP client, talking to ``transport``."""
    return expsum.llm.HttpLlmClient(
        api_base=SIMULATED_API_BASE, model=SIMULATED_MODEL, retries=0, transport=transport
    )


class SimulatedBackend:
    """``transport(url, headers, payload, timeout) -> (status, body)``.

    ``plans`` maps a function name to its planned outcome (declared
    categories in order, draft texts, final text, degraded and parse-retry
    flags); ``changed`` is the word set the semantic judge answers
    ``changed`` for. Draft, refine and judge prompts are told apart by the
    output markers they ask for.
    """

    def __init__(self, plans: dict, changed, fixed_ms: float, per_kchar_ms: float):
        self.plans = plans
        self.changed = frozenset(changed)
        self.fixed_s = fixed_ms / 1000.0
        self.per_char_s = per_kchar_ms / 1000.0 / 1000.0
        self.tracer = None
        self.context = threading.local()
        self.calls = 0
        self.prompt_chars = 0
        self.delay_s: dict[str, float] = {}  # simulated model time per item
        self._draft_calls: dict[str, int] = {}
        self._lock = threading.Lock()

    def set_item(self, key: str) -> None:
        """Name the item the calling thread works on (keys parse retries)."""
        self.context.key = key

    def __call__(self, url, headers, payload, timeout):
        tracer = self.tracer
        token = tracer.begin("llm.backend") if tracer is not None and tracer.active else None
        messages = payload["messages"]
        chars = sum(len(m["content"]) for m in messages)
        answer = self._answer(messages[-1]["content"])
        delay = self.fixed_s + self.per_char_s * chars
        key = getattr(self.context, "key", "")
        with self._lock:
            self.calls += 1
            self.prompt_chars += chars
            self.delay_s[key] = self.delay_s.get(key, 0.0) + delay
        if delay > 0.0:
            time.sleep(delay)
        body = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": answer}}]}
        )
        if token is not None:
            tracer.end(token)
        return 200, body

    def _answer(self, prompt: str) -> str:
        if "FINAL:" in prompt:
            return self._refine(prompt)
        if "CATEGORY:" in prompt:
            return self._draft(prompt)
        match = _JUDGED_WORD_RE.search(prompt)
        if match is None:
            return "unrecognized prompt"
        return "changed" if match.group(1) in self.changed else "preserved"

    def _plan(self, prompt: str):
        match = _FUNCTION_NAME_RE.search(prompt)
        return self.plans.get(match.group(1)) if match else None

    def _draft(self, prompt: str) -> str:
        plan = self._plan(prompt)
        if plan is None:
            return "unrecognized prompt"
        if plan["parse_retry"]:
            key = getattr(self.context, "key", "")
            with self._lock:
                seen = self._draft_calls.get(key, 0)
                self._draft_calls[key] = seen + 1
            if seen == 0:
                return UNPARSEABLE_DRAFT
        offered = {c for c in CATEGORIES if f"### {c.capitalize()}" in prompt}
        for category, draft in zip(plan["declared"], plan["drafts"]):
            if category in offered:
                return f"CATEGORY: {category}\nSUMMARY: {draft}"
        return "unrecognized prompt"

    def _refine(self, prompt: str) -> str:
        plan = self._plan(prompt)
        if plan is None:
            return "unrecognized prompt"
        last = len(plan["drafts"]) - 1
        for k, draft in enumerate(plan["drafts"]):
            if draft in prompt:
                if k == last and not plan["degraded"]:
                    return f"FINAL: {plan['final']}"
                return f"Error category: {plan['declared'][k]}"
        return "unrecognized prompt"
