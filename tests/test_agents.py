"""Mock backend purity and the HTTP client's retry/timeout/auth contracts,
exercised against a local stub server."""

import contextlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import critifusion
from critifusion.agents import (
    AUTH_ENV_VAR,
    EMPTY_RESPONSE,
    AgentEndpoint,
    AgentProtocolError,
    AgentTimeoutError,
    AgentTransportError,
    HttpAgentBackend,
    MockAgentBackend,
    http_complete,
    make_request,
    mock_respond,
)
from critifusion.pipeline import PipelineConfig, run_critifusion


def fresh_interpreter(code, *args):
    """stdout of ``code`` run with ``args`` by a new interpreter that imports
    this checkout's critifusion, so no module is loaded beforehand."""
    src = str(Path(critifusion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_mock_runs_never_import_requests():
    """``requests`` loads only when an HTTP backend makes its first call."""
    code = (
        "import sys, critifusion.cli, critifusion.pipeline\n"
        "print('requests' in sys.modules)"
    )
    assert fresh_interpreter(code).strip() == "False"


class TestMockBackend:
    def test_purity(self):
        req = make_request("propose", "aurora cobalt")
        assert mock_respond(2, req) == mock_respond(2, req)

    def test_empty_input_marker(self):
        resp = mock_respond(1, make_request("propose", "nothing relevant here"))
        assert resp.text == EMPTY_RESPONSE

    def test_lexicons_differ_by_id(self):
        req = make_request("propose", "aurora")
        t1 = mock_respond(1, req).text
        t2 = mock_respond(2, req).text
        assert t1 != t2
        assert "aurora1" in t1 and "aurora2" in t2

    def test_aggregate_canonical(self):
        resp = mock_respond(0, make_request("aggregate", "cobalt3 aurora1 cobalt2"))
        assert resp.text == "cobalt aurora"

    def test_backend_records_calls(self):
        backend = MockAgentBackend()
        backend.respond(1, make_request("propose", "aurora"))
        backend.respond(0, make_request("judge", "aurora"))
        assert backend.calls == [(1, "propose"), (0, "judge")]

    def test_request_validation(self):
        from critifusion.agents import AgentRequest

        with pytest.raises(ValueError):
            AgentRequest(messages=())
        with pytest.raises(ValueError):
            AgentRequest(messages=(("user", "x"),), temperature=-1.0)


class StubState:
    """Scripted behaviors consumed one per request; 'ok' echoes the input.

    An int is sent as a bare status, a dict as the JSON body of a 200.
    """

    def __init__(self):
        self.script = []
        self.requests = []
        self.lock = threading.Lock()

    def next_behavior(self):
        with self.lock:
            return self.script.pop(0) if self.script else "ok"


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            state.requests.append(
                {"body": body, "auth": self.headers.get("Authorization", "")}
            )
            behavior = state.next_behavior()
            if isinstance(behavior, int):
                self.send_response(behavior)
                self.end_headers()
                return
            if behavior == "sleep":
                time.sleep(1.0)
                self.send_response(200)
                self.end_headers()
                return
            if behavior == "garbage":
                payload = b"not json at all"
            elif isinstance(behavior, dict):
                payload = json.dumps(behavior).encode()
            else:
                user = "\n".join(
                    m["content"] for m in body["messages"] if m["role"] == "user"
                )
                payload = json.dumps(
                    {
                        "choices": [{"message": {"content": f"echo: {user}"}}],
                        "usage": {"prompt_tokens": 11, "completion_tokens": 7},
                    }
                ).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    return Handler


@contextlib.contextmanager
def serve(handler):
    """Serve ``handler`` on a free local port; yields the base URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def stub():
    state = StubState()
    with serve(make_handler(state)) as url:
        yield state, url


def endpoint(url, **kw):
    defaults = dict(base_url=url, model_id="stub-model", timeout=5.0,
                    max_retries=2, backoff=0.01)
    defaults.update(kw)
    return AgentEndpoint(**defaults)


class TestHttpClient:
    def test_echo(self, stub):
        state, url = stub
        resp = http_complete(endpoint(url), make_request("propose", "aurora dune"))
        assert resp.text == "echo: aurora dune"
        assert resp.prompt_tokens == 11
        assert resp.completion_tokens == 7
        assert state.requests[0]["body"]["model"] == "stub-model"
        assert state.requests[0]["body"]["temperature"] == 0.0

    def test_retry_after_two_500s(self, stub):
        state, url = stub
        state.script = [500, 500]
        resp = http_complete(endpoint(url, max_retries=3), make_request("propose", "x"))
        assert resp.text == "echo: x"
        assert len(state.requests) == 3

    def test_429_is_transient(self, stub):
        state, url = stub
        state.script = [429]
        resp = http_complete(endpoint(url), make_request("propose", "x"))
        assert resp.text == "echo: x"
        assert len(state.requests) == 2

    def test_exhausted_retries_raise(self, stub):
        state, url = stub
        state.script = [503, 503, 503]
        with pytest.raises(AgentTransportError) as exc:
            http_complete(endpoint(url, max_retries=2), make_request("propose", "x"))
        assert exc.value.status == 503
        assert len(state.requests) == 3

    def test_terminal_4xx_no_retry(self, stub):
        state, url = stub
        state.script = [404]
        with pytest.raises(AgentTransportError) as exc:
            http_complete(endpoint(url), make_request("propose", "x"))
        assert exc.value.status == 404
        assert len(state.requests) == 1

    def test_timeout_attempt_count(self, stub):
        state, url = stub
        state.script = ["sleep", "sleep", "sleep"]
        ep = endpoint(url, timeout=0.2, max_retries=2)
        with pytest.raises(AgentTimeoutError):
            http_complete(ep, make_request("propose", "x"))
        assert len(state.requests) == ep.max_retries + 1

    def test_malformed_body(self, stub):
        state, url = stub
        state.script = ["garbage"]
        with pytest.raises(AgentProtocolError):
            http_complete(endpoint(url), make_request("propose", "x"))

    @pytest.mark.parametrize(
        "body",
        [
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": "aurora"}}], "usage": {"prompt_tokens": "12x"}},
            {"choices": [{"message": {"content": "aurora"}}], "usage": {"completion_tokens": 1.5}},
            {"choices": [{"message": {"content": "aurora"}}], "usage": [3, 4]},
        ],
        ids=["null_content", "text_tokens", "float_tokens", "list_usage"],
    )
    def test_off_schema_body_is_a_protocol_error(self, stub, body):
        state, url = stub
        state.script = [body]
        with pytest.raises(AgentProtocolError):
            http_complete(endpoint(url), make_request("propose", "x"))
        assert len(state.requests) == 1

    @pytest.mark.parametrize("usage", [None, "missing"])
    def test_missing_or_null_usage_counts_no_tokens(self, stub, usage):
        state, url = stub
        body = {"choices": [{"message": {"content": "aurora"}}], "usage": usage}
        if usage == "missing":
            del body["usage"]
        state.script = [body]
        resp = http_complete(endpoint(url), make_request("propose", "x"))
        assert (resp.text, resp.prompt_tokens, resp.completion_tokens) == ("aurora", 0, 0)

    def test_degrade_allow_answers_off_schema_bodies_with_the_mock(self, stub):
        state, url = stub
        state.script = [{"choices": [{"message": {"content": None}}]}] * 4
        config = PipelineConfig(
            prompt="aurora", seed=0, agent_backend="http", degrade="allow"
        )
        backend = HttpAgentBackend(endpoint(url))
        rec, _ = run_critifusion(config, backend)
        healthy, _ = run_critifusion(config)
        # default MoA (3,): three proposers and the aggregator
        assert rec.degraded_calls == 4
        assert rec.digests == healthy.digests

    def test_auth_header_from_env(self, stub, monkeypatch):
        state, url = stub
        monkeypatch.setenv(AUTH_ENV_VAR, "sk-sentinel-123")
        http_complete(endpoint(url), make_request("propose", "x"))
        assert state.requests[0]["auth"] == "Bearer sk-sentinel-123"

    def test_no_auth_header_without_env(self, stub, monkeypatch):
        state, url = stub
        monkeypatch.delenv(AUTH_ENV_VAR, raising=False)
        http_complete(endpoint(url), make_request("propose", "x"))
        assert state.requests[0]["auth"] == ""

    def test_backend_tags_agent_id(self, stub):
        state, url = stub
        state.script = [418]
        backend = HttpAgentBackend(endpoint(url))
        with pytest.raises(AgentTransportError) as exc:
            backend.respond(4, make_request("propose", "x"))
        assert exc.value.agent_id == 4

    def test_backend_reuses_one_connection(self):
        accepted = []

        class KeepAliveHandler(make_handler(StubState())):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                accepted.append(self.client_address)

        with serve(KeepAliveHandler) as url:
            backend = HttpAgentBackend(endpoint(url))
            try:
                for agent_id in (1, 2, 3):
                    resp = backend.respond(agent_id, make_request("propose", "x"))
                    assert resp.text == "echo: x"
            finally:
                backend.session.close()
            assert len(accepted) == 1
            # without a session, each call opens its own connection
            assert http_complete(endpoint(url), make_request("propose", "y")).text == "echo: y"
            assert len(accepted) == 2

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            AgentEndpoint(base_url="http://x", model_id="m", timeout=0.0)
        with pytest.raises(ValueError):
            AgentEndpoint(base_url="http://x", model_id="m", max_retries=-1)
        with pytest.raises(ValueError):
            AgentEndpoint(base_url="http://x", model_id="m", backoff=-1.0)
        for field in ("timeout", "backoff"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=field):
                    AgentEndpoint(base_url="http://x", model_id="m", **{field: value})
