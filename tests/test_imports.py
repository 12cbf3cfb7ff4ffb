"""The HTTP stack loads only when the default transport first posts.

Checked in a fresh interpreter, since this test process already holds
``http.server`` and with it ``http.client`` and ``email``."""

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import expsum

HTTP_STACK = ("http.client", "ssl", "email", "urllib.request")

CHILD = f"""
import json, sys
import expsum, expsum.cli, expsum.config, expsum.frontends
loaded = lambda: [m for m in {HTTP_STACK!r} if m in sys.modules]
on_import = loaded()
status, body = expsum.llm._default_transport(sys.argv[1], {{}}, {{"ping": 1}}, 5.0)
print(json.dumps({{"on_import": on_import, "reply": [status, body], "after_call": loaded()}}))
"""


class EchoHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        data = self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_http_stack_loads_on_the_default_transports_first_call():
    server = ThreadingHTTPServer(("127.0.0.1", 0), EchoHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    env = dict(os.environ, no_proxy="*", PYTHONPATH=str(Path(expsum.__file__).parents[1]))
    try:
        child = subprocess.run(
            [sys.executable, "-c", CHILD, f"http://127.0.0.1:{server.server_address[1]}/v1"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {
        "on_import": [],
        "reply": [200, '{"ping": 1}'],
        "after_call": list(HTTP_STACK),
    }
