"""Pluggable chat-completion clients.

Ships a deterministic scripted mock for offline runs and tests, plus a
generic HTTP backend speaking the de-facto chat-completion JSON shape.
Connection settings come from explicit arguments or the environment
variables EXPSUM_API_KEY, EXPSUM_API_BASE, and EXPSUM_MODEL.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol

from .errors import ClientFailure, ConfigError, IoFailure
from .files import JsonObject, check, parse_json, read_text

ENV_API_KEY = "EXPSUM_API_KEY"
ENV_API_BASE = "EXPSUM_API_BASE"
ENV_MODEL = "EXPSUM_MODEL"


@dataclass(frozen=True)
class LlmRequest:
    system_prompt: str
    user_prompt: str
    temperature: float = 0.0
    max_tokens: int = 512

    def __post_init__(self):
        if not self.system_prompt or not self.user_prompt:
            raise ValueError("prompts must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass
class LlmResponse:
    text: str
    backend_id: str
    latency: float = 0.0


class LlmClient(Protocol):
    def complete(self, req: LlmRequest) -> LlmResponse: ...


@dataclass(frozen=True)
class MockRule:
    matcher: str
    response: str
    regex: bool = False

    def matches(self, prompt: str) -> bool:
        if self.regex:
            return re.search(self.matcher, prompt) is not None
        return self.matcher in prompt


@dataclass(frozen=True)
class MockScript:
    """Ordered substring-or-pattern rules over the user prompt; the first
    matching rule wins. With no match and no default, completion fails."""

    rules: tuple[MockRule, ...] = ()
    default: Optional[str] = None

    @classmethod
    def from_json(cls, text: str, source: str = "mock script") -> "MockScript":
        """Parse a JSON list of ``{"match", "response"[, "regex"]}`` rules
        (strings, and a boolean) and at most one ``{"default"}`` string item.

        A script of any other shape is a :class:`ConfigError` naming
        ``source`` and the item."""
        data = check(parse_json(text, source, ConfigError), "a list", source, (), ConfigError)
        rules = []
        default = None
        for n, item in enumerate(data):
            item = JsonObject(item, source, ConfigError, (n,))
            if "default" in item.obj and "match" not in item.obj:
                default = item.get("default", "a string")
                continue
            rule = MockRule(
                matcher=item.get("match", "a string"),
                response=item.get("response", "a string"),
                regex=item.get("regex", "a boolean", False),
            )
            if rule.regex:
                try:
                    re.compile(rule.matcher)
                except re.error as e:
                    raise ConfigError(
                        f"{source}: item {n} 'match' is not a valid pattern ({e})"
                    ) from None
            rules.append(rule)
        return cls(rules=tuple(rules), default=default)

    @classmethod
    def load(cls, path: str | Path) -> "MockScript":
        return cls.from_json(read_text(path, "mock script", IoFailure), f"mock script {path}")


class MockLlmClient:
    """Deterministic scripted backend; optionally records requests for
    inspection (recording never affects responses)."""

    backend_id = "mock"

    def __init__(self, script: MockScript, record_calls: bool = True):
        self.script = script
        self.record_calls = record_calls
        self.calls: list[LlmRequest] = []

    def complete(self, req: LlmRequest) -> LlmResponse:
        if self.record_calls:
            self.calls.append(req)
        for rule in self.script.rules:
            if rule.matches(req.user_prompt):
                return LlmResponse(text=rule.response, backend_id=self.backend_id)
        if self.script.default is not None:
            return LlmResponse(text=self.script.default, backend_id=self.backend_id)
        raise ClientFailure(
            f"no mock rule matched prompt starting {req.user_prompt[:80]!r}",
            kind="no_rule_matched",
        )


def judgment_stub_client(
    verdict: str = "preserved", record_calls: bool = True
) -> MockLlmClient:
    """Client whose every answer is a fixed judgment; used when no backend
    is configured (keeps semantic term extraction a deterministic no-op)."""
    return MockLlmClient(MockScript(rules=(), default=verdict), record_calls)


def _default_transport(url: str, headers: dict, payload: dict, timeout: float):
    """POST ``payload`` as JSON on a new connection; return the status and
    the body of any reply, error statuses included.

    A URL that is not http(s) is a network error, as no connection to it
    can be made; ``urllib`` would otherwise read ``file:`` and ``data:``
    URLs.

    The HTTP stack (``urllib.request`` pulls in ``http.client``, ``ssl`` and
    ``email``) is imported on the first call, so a process that never posts
    through this transport never loads it."""
    import urllib.error
    import urllib.parse
    import urllib.request

    if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
        raise urllib.error.URLError(f"not an http(s) URL: {url!r}")
    request = urllib.request.Request(
        url,
        data=json.dumps(payload, allow_nan=False).encode("utf-8"),
        headers=headers,
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8", errors="replace")
    except urllib.error.HTTPError as e:  # an OSError, which would be retried
        with e:
            return e.code, e.read().decode("utf-8", errors="replace")


def _network_errors() -> tuple[type[BaseException], ...]:
    """The exceptions a transport raises for a network failure: ``OSError``
    and ``http.client.HTTPException``. No ``HTTPException`` can exist before
    ``http.client`` is loaded, so it is looked up, never imported."""
    client = sys.modules.get("http.client")
    return (OSError,) if client is None else (OSError, client.HTTPException)


class HttpLlmClient:
    """Chat-completion HTTP backend.

    ``transport`` is injectable for tests: a callable of
    ``(url, headers, payload, timeout) -> (status_code, body_text)``.
    Network-level errors (the transport raising ``OSError`` or
    ``http.client.HTTPException``) are retried with backoff; HTTP error
    statuses and malformed payloads are not. The client holds no lock or
    connection, so as many calls run at once as threads call it.
    """

    def __init__(
        self,
        api_base: Optional[str] = None,
        api_key: Optional[str] = None,
        model: Optional[str] = None,
        timeout: float = 120.0,
        retries: int = 2,
        backoff: float = 0.5,
        transport=None,
    ):
        self.api_base = api_base or os.environ.get(ENV_API_BASE, "")
        self.api_key = api_key or os.environ.get(ENV_API_KEY, "")
        self.model = model or os.environ.get(ENV_MODEL, "")
        if not self.api_base or not self.model:
            raise ConfigError(
                "HTTP backend needs an API base URL and a model name "
                f"(flags, config file, or {ENV_API_BASE} / {ENV_MODEL})"
            )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.transport = transport or _default_transport
        self.backend_id = f"http:{self.model}"

    def _url(self) -> str:
        return self.api_base.rstrip("/") + "/chat/completions"

    def complete(self, req: LlmRequest) -> LlmResponse:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": req.system_prompt},
                {"role": "user", "content": req.user_prompt},
            ],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        started = time.monotonic()
        attempt = 0
        while True:
            try:
                status, body = self.transport(self._url(), headers, payload, self.timeout)
                break
            except _network_errors() as e:
                if attempt >= self.retries:
                    raise ClientFailure(
                        f"network failure after {attempt + 1} attempts: {e}",
                        kind="network",
                    ) from e
                time.sleep(self.backoff * (2**attempt))
                attempt += 1

        if not (200 <= status < 300):
            raise ClientFailure(
                f"backend returned HTTP {status}: {body[:200]}", kind="non_2xx"
            )
        try:
            text = json.loads(body)["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as e:
            raise ClientFailure(
                f"malformed completion payload: {body[:200]}",
                kind="malformed_payload",
            ) from e
        if not isinstance(text, str):
            raise ClientFailure(
                "completion content is not a string", kind="malformed_payload"
            )
        return LlmResponse(
            text=text,
            backend_id=self.backend_id,
            latency=time.monotonic() - started,
        )
