import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from expsum.errors import ClientFailure, ConfigError
from expsum.llm import (
    HttpLlmClient,
    LlmRequest,
    MockLlmClient,
    MockRule,
    MockScript,
    _default_transport,
    judgment_stub_client,
)


def request(prompt="hello world", temperature=0.0):
    return LlmRequest(system_prompt="sys", user_prompt=prompt, temperature=temperature)


class TestLlmRequest:
    def test_rejects_empty_prompts(self):
        with pytest.raises(ValueError):
            LlmRequest(system_prompt="", user_prompt="x")
        with pytest.raises(ValueError):
            LlmRequest(system_prompt="x", user_prompt="")

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            LlmRequest(system_prompt="a", user_prompt="b", temperature=-0.1)


class TestMockClient:
    def test_first_matching_rule_wins(self):
        script = MockScript(
            rules=(
                MockRule(matcher="Draft Generator", response="<draft>one</draft>"),
                MockRule(matcher="Draft", response="other"),
            )
        )
        client = MockLlmClient(script)
        out = client.complete(request("please act as Draft Generator now"))
        assert out.text == "<draft>one</draft>"
        assert out.backend_id == "mock"

    def test_no_match_no_default_fails(self):
        client = MockLlmClient(MockScript(rules=(MockRule("zzz", "r"),)))
        with pytest.raises(ClientFailure) as err:
            client.complete(request())
        assert err.value.kind == "no_rule_matched"

    def test_default_used_when_no_rule_matches(self):
        client = MockLlmClient(MockScript(rules=(MockRule("zzz", "r"),), default="fallback"))
        assert client.complete(request()).text == "fallback"

    def test_determinism(self):
        client = MockLlmClient(MockScript(rules=(MockRule("hello", "hi"),)))
        assert client.complete(request()).text == client.complete(request()).text

    def test_regex_rule(self):
        script = MockScript(rules=(MockRule(matcher=r"hello\s+\w+", response="re", regex=True),))
        assert MockLlmClient(script).complete(request()).text == "re"

    def test_records_calls(self):
        client = MockLlmClient(MockScript(default="ok"))
        client.complete(request("first"))
        client.complete(request("second"))
        assert [c.user_prompt for c in client.calls] == ["first", "second"]

    def test_script_from_json(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(
            json.dumps(
                [
                    {"match": "abc", "response": "one"},
                    {"match": "d.f", "response": "two", "regex": True},
                    {"default": "fall"},
                ]
            ),
            encoding="utf-8",
        )
        script = MockScript.load(path)
        client = MockLlmClient(script)
        assert client.complete(request("has abc inside")).text == "one"
        assert client.complete(request("def")).text == "two"
        assert client.complete(request("nothing")).text == "fall"

    def test_judgment_stub(self):
        assert judgment_stub_client().complete(request()).text == "preserved"


def capture_transport(status=200, content="fine"):
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append({"url": url, "headers": headers, "payload": payload, "timeout": timeout})
        body = json.dumps({"choices": [{"message": {"content": content}}]})
        return status, body

    return transport, calls


class TestHttpClient:
    def client(self, transport, **kwargs):
        kwargs.setdefault("api_base", "http://llm.test/v1")
        kwargs.setdefault("model", "test-model")
        kwargs.setdefault("api_key", "k")
        kwargs.setdefault("backoff", 0.0)
        return HttpLlmClient(transport=transport, **kwargs)

    def test_temperature_pass_through(self):
        transport, calls = capture_transport()
        client = self.client(transport)
        client.complete(request(temperature=0.0))
        client.complete(request(temperature=0.7))
        assert calls[0]["payload"]["temperature"] == 0.0
        assert calls[1]["payload"]["temperature"] == 0.7

    def test_payload_shape(self):
        transport, calls = capture_transport(content="answer")
        client = self.client(transport)
        out = client.complete(request("ask me"))
        assert out.text == "answer"
        payload = calls[0]["payload"]
        assert payload["model"] == "test-model"
        assert payload["messages"][0] == {"role": "system", "content": "sys"}
        assert payload["messages"][1] == {"role": "user", "content": "ask me"}
        assert calls[0]["url"] == "http://llm.test/v1/chat/completions"
        assert calls[0]["headers"]["Authorization"] == "Bearer k"

    def test_non_2xx_not_retried(self):
        transport, calls = capture_transport(status=500)
        client = self.client(transport, retries=3)
        with pytest.raises(ClientFailure) as err:
            client.complete(request())
        assert err.value.kind == "non_2xx"
        assert len(calls) == 1

    def test_malformed_payload_not_retried(self):
        calls = []

        def transport(url, headers, payload, timeout):
            calls.append(1)
            return 200, "{不json"

        client = self.client(transport, retries=3)
        with pytest.raises(ClientFailure) as err:
            client.complete(request())
        assert err.value.kind == "malformed_payload"
        assert len(calls) == 1

    def test_network_errors_retried_with_bound(self):
        calls = []

        def transport(url, headers, payload, timeout):
            calls.append(1)
            raise ConnectionRefusedError("refused")

        client = self.client(transport, retries=2)
        with pytest.raises(ClientFailure) as err:
            client.complete(request())
        assert err.value.kind == "network"
        assert len(calls) == 3  # initial + 2 retries

    def test_network_recovery_midway(self):
        state = {"n": 0}

        def transport(url, headers, payload, timeout):
            state["n"] += 1
            if state["n"] < 2:
                raise ConnectionRefusedError("refused")
            return 200, json.dumps({"choices": [{"message": {"content": "late"}}]})

        client = self.client(transport, retries=2)
        assert client.complete(request()).text == "late"

    def test_requires_base_and_model(self, monkeypatch):
        monkeypatch.delenv("EXPSUM_API_BASE", raising=False)
        monkeypatch.delenv("EXPSUM_MODEL", raising=False)
        with pytest.raises(ConfigError):
            HttpLlmClient(api_key="k")

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("EXPSUM_API_BASE", "http://env.test")
        monkeypatch.setenv("EXPSUM_MODEL", "env-model")
        monkeypatch.setenv("EXPSUM_API_KEY", "env-key")
        transport, calls = capture_transport()
        client = HttpLlmClient(transport=transport)
        client.complete(request())
        assert calls[0]["url"].startswith("http://env.test")
        assert calls[0]["payload"]["model"] == "env-model"

    def test_calls_are_limited_only_by_the_callers(self):
        """As many calls run at once as threads make them: 12 threads all
        reach the transport before any returns."""
        barrier = threading.Barrier(12, timeout=10)

        def transport(url, headers, payload, timeout):
            barrier.wait()
            return 200, json.dumps({"choices": [{"message": {"content": "ok"}}]})

        client = self.client(transport)
        texts = []
        threads = [
            threading.Thread(target=lambda: texts.append(client.complete(request()).text))
            for _ in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
        assert texts == ["ok"] * 12


class LoopbackBackend(ThreadingHTTPServer):
    """A chat-completion server on 127.0.0.1 that answers each POST with
    the next of ``replies`` (the last repeats) and records every request.

    A reply is ``(status, body)``; a body of ``None`` announces a full
    completion but sends a few bytes of it and closes the connection."""

    daemon_threads = True

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []
        super().__init__(("127.0.0.1", 0), LoopbackHandler)

    @property
    def api_base(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1"


class LoopbackHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers["Content-Length"]))
        server.requests.append({"path": self.path, "headers": self.headers, "body": body})
        n = len(server.requests) - 1
        status, text = server.replies[min(n, len(server.replies) - 1)]
        data = (text or COMPLETION).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data if text is not None else data[:5])
        self.close_connection = True

    def log_message(self, *args):
        pass


COMPLETION = json.dumps({"choices": [{"message": {"content": "über fine"}}]})


@pytest.fixture
def loopback(monkeypatch):
    """Start a :class:`LoopbackBackend`; every request stays on loopback."""
    monkeypatch.setenv("no_proxy", "*")
    servers = []

    def start(*replies):
        server = LoopbackBackend(replies or [(200, COMPLETION)])
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        servers.append((server, thread))
        return server

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestDefaultTransport:
    """The real transport against an in-process server."""

    def client(self, api_base, **kwargs):
        return HttpLlmClient(api_base=api_base, model="m", backoff=0.0, **kwargs)

    def test_2xx_reply(self, loopback):
        server = loopback()
        out = self.client(server.api_base, api_key="secret").complete(request("ask me"))
        assert out.text == "über fine"
        [sent] = server.requests
        assert sent["path"] == "/v1/chat/completions"
        assert sent["headers"]["Content-Type"] == "application/json"
        assert sent["headers"]["Authorization"] == "Bearer secret"
        assert json.loads(sent["body"]) == {
            "model": "m",
            "messages": [
                {"role": "system", "content": "sys"},
                {"role": "user", "content": "ask me"},
            ],
            "temperature": 0.0,
            "max_tokens": 512,
        }

    def test_no_key_no_authorization_header(self, loopback):
        server = loopback()
        self.client(server.api_base).complete(request())
        assert "Authorization" not in server.requests[0]["headers"]

    def test_500_is_reported_once(self, loopback):
        server = loopback((500, "overloaded"))
        with pytest.raises(ClientFailure) as err:
            self.client(server.api_base, retries=3).complete(request())
        assert err.value.kind == "non_2xx"
        assert "HTTP 500: overloaded" in str(err.value)
        assert len(server.requests) == 1

    def test_refused_port_is_retried(self):
        calls = []

        def transport(*args):
            calls.append(1)
            return _default_transport(*args)

        with socket.socket() as bound:  # bound, never listening: connects are refused
            bound.bind(("127.0.0.1", 0))
            api_base = f"http://127.0.0.1:{bound.getsockname()[1]}/v1"
            with pytest.raises(ClientFailure) as err:
                self.client(api_base, retries=2, transport=transport).complete(request())
        assert err.value.kind == "network"
        assert len(calls) == 3

    def test_connection_closed_mid_body_is_retried(self, loopback):
        server = loopback((200, None), (200, COMPLETION))
        assert self.client(server.api_base, retries=1).complete(request()).text == "über fine"
        assert len(server.requests) == 2

    @pytest.mark.parametrize("api_base", ["file:///etc", "data:,x", "llm.test/v1"])
    def test_non_http_url_is_a_network_error(self, api_base):
        with pytest.raises(ClientFailure) as err:
            self.client(api_base, retries=0).complete(request())
        assert err.value.kind == "network"


def test_script_shape_errors_name_the_item():
    with pytest.raises(ConfigError) as err:
        MockScript.from_json('[{"match": "a", "response": "b"}, "oops"]')
    assert str(err.value) == "mock script: item 1 must be an object (got 'oops')"
