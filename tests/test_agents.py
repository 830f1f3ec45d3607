"""Mock backend purity and the HTTP client's retry/timeout/auth contracts,
exercised against a local stub server."""

import contextlib
import gc
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
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
    """A mock run loads neither ``requests`` nor the stdlib HTTP client."""
    code = (
        "import sys, critifusion.cli\n"
        "from critifusion.pipeline import PipelineConfig, run_critifusion\n"
        "rec, _ = run_critifusion(PipelineConfig(prompt='aurora', seed=0))\n"
        "print(rec.status, sorted({'requests', 'http.client'} & set(sys.modules)))"
    )
    assert fresh_interpreter(code).strip() == "ok []"


def test_http_runs_never_import_requests(stub):
    _, url = stub
    code = (
        "import sys\n"
        "from critifusion.agents import AgentEndpoint, HttpAgentBackend\n"
        "from critifusion.pipeline import PipelineConfig, run_critifusion\n"
        "backend = HttpAgentBackend(AgentEndpoint(base_url=sys.argv[1]))\n"
        "config = PipelineConfig(prompt='aurora', seed=0, agent_backend='http')\n"
        "rec, _ = run_critifusion(config, backend)\n"
        "print(rec.status, len(rec.transcript), 'requests' in sys.modules)"
    )
    assert fresh_interpreter(code, url).split() == ["ok", "4", "False"]


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
    'drop' echoes too, then closes the connection without saying so.
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
                {
                    "body": body,
                    "auth": self.headers.get("Authorization", ""),
                    "path": self.path,
                }
            )
            behavior = state.next_behavior()
            if isinstance(behavior, int):
                self.send_response(behavior)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            if behavior == "sleep":
                time.sleep(1.0)
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            if behavior == "drop":
                self.close_connection = True
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


def keep_alive_handler(state: StubState, log: list):
    """``make_handler(state)`` on HTTP/1.1 keep-alive; appends ``("open",
    port)`` to ``log`` when it accepts a connection and ``("closed", port)``
    once it has closed one."""

    class Handler(make_handler(state)):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            log.append(("open", self.client_address[1]))

        def finish(self):
            super().finish()
            self.request.close()
            log.append(("closed", self.client_address[1]))

    return Handler


def wait_for(predicate, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.005)


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
        assert resp.attempts == 1
        assert resp.prompt_tokens == 11
        assert resp.completion_tokens == 7
        assert state.requests[0]["body"]["model"] == "stub-model"
        assert state.requests[0]["body"]["temperature"] == 0.0
        assert state.requests[0]["body"]["max_tokens"] == 256

    def test_retry_after_two_500s(self, stub):
        state, url = stub
        state.script = [500, 500]
        resp = http_complete(endpoint(url, max_retries=3), make_request("propose", "x"))
        assert resp.text == "echo: x"
        assert resp.attempts == 3
        assert len(state.requests) == 3

    def test_retry_delays_double_from_backoff(self, stub, monkeypatch):
        state, url = stub
        state.script = [503, 503]
        slept = []  # (delay, requests sent before it)
        monkeypatch.setattr(
            critifusion.agents.time,
            "sleep",
            lambda seconds: slept.append((seconds, len(state.requests))),
        )
        ep = endpoint(url, max_retries=2, backoff=0.25)
        resp = http_complete(ep, make_request("propose", "x"))
        assert resp.attempts == 3
        assert slept == [(0.25, 1), (0.5, 2)]

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
        log = []
        with serve(keep_alive_handler(StubState(), log)) as url:
            backend = HttpAgentBackend(endpoint(url))
            try:
                for agent_id in (1, 2, 3):
                    resp = backend.respond(agent_id, make_request("propose", "x"))
                    assert resp.text == "echo: x"
            finally:
                backend.close()
            assert [kind for kind, _ in log].count("open") == 1
            # without a pool, each call opens its own connection
            assert http_complete(endpoint(url), make_request("propose", "y")).text == "echo: y"
            assert [kind for kind, _ in log].count("open") == 2

    def test_endpoint_validation(self):
        for url in ("", "agents.example/v1", "ftp://agents.example", "http://", "http://h:99999"):
            with pytest.raises(ValueError, match="base_url"):
                AgentEndpoint(base_url=url)
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


class TestConnectionPool:
    def test_concurrent_rounds_reuse_their_connections(self):
        from critifusion.pipeline import RunRecord, _AgentCalls

        log = []
        with serve(keep_alive_handler(StubState(), log)) as url:
            backend = HttpAgentBackend(endpoint(url))
            calls = _AgentCalls(backend, RunRecord(), fallback=False, concurrent=True)
            try:
                for _ in range(2):
                    round_ = [(i, make_request("propose", f"x{i}")) for i in (1, 2, 3)]
                    answers = calls.respond_all(round_)
                    assert [a.text for a in answers] == ["echo: x1", "echo: x2", "echo: x3"]
            finally:
                backend.close()
        assert 1 <= [kind for kind, _ in log].count("open") <= 3

    def test_threads_never_share_a_connection(self):
        """8 threads x 10 calls with a short switch interval: a connection
        handed to two threads at once would cross or break their answers,
        and one lost from the pool would open a ninth."""
        state, log, answers = StubState(), [], {}
        with serve(keep_alive_handler(state, log)) as url:
            backend = HttpAgentBackend(endpoint(url))

            def worker(t):
                for j in range(10):
                    text = f"t{t}-{j}"
                    answers[text] = backend.respond(t, make_request("propose", text)).text

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=worker, args=(t,), daemon=True) for t in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(interval)
                backend.close()
        assert answers == {text: f"echo: {text}" for text in answers}
        assert len(answers) == len(state.requests) == 80
        assert [kind for kind, _ in log].count("open") <= 8

    def test_a_dropped_idle_connection_costs_no_attempt(self):
        state, log = StubState(), []
        state.script = ["drop"]
        with serve(keep_alive_handler(state, log)) as url:
            backend = HttpAgentBackend(endpoint(url))
            try:
                assert backend.respond(1, make_request("propose", "x")).attempts == 1
                wait_for(lambda: ("closed", log[0][1]) in log)
                resp = backend.respond(1, make_request("propose", "y"))
            finally:
                backend.close()
        assert (resp.text, resp.attempts) == ("echo: y", 1)
        assert len(state.requests) == 2
        assert [kind for kind, _ in log].count("open") == 2

    def test_close_closes_the_idle_connections(self):
        log = []
        with serve(keep_alive_handler(StubState(), log)) as url:
            backend = HttpAgentBackend(endpoint(url))
            backend.respond(1, make_request("propose", "x"))
            assert [kind for kind, _ in log] == ["open"]
            backend.close()
            wait_for(lambda: len(log) == 2)
            assert log[1] == ("closed", log[0][1])
            # the backend stays usable and opens a new connection
            assert backend.respond(1, make_request("propose", "y")).text == "echo: y"
            backend.close()

    def test_a_collected_pool_closes_its_idle_connections(self):
        """Closed by the pool, not left to the socket's finalizer, which
        would warn about an unclosed socket."""
        log = []
        with serve(keep_alive_handler(StubState(), log)) as url:
            backend = HttpAgentBackend(endpoint(url))
            backend.respond(1, make_request("propose", "x"))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                del backend
                gc.collect()
            wait_for(lambda: len(log) == 2)
        assert [kind for kind, _ in log] == ["open", "closed"]
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestProxy:
    @pytest.fixture()
    def env(self, monkeypatch):
        for name in ("http_proxy", "https_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        return monkeypatch

    @pytest.fixture()
    def proxied(self, env):
        """(target state, proxy state, target URL) with http_proxy set."""
        target, proxy = StubState(), StubState()
        with serve(make_handler(target)) as url, serve(make_handler(proxy)) as proxy_url:
            env.setenv("http_proxy", proxy_url)
            yield target, proxy, url

    def test_http_proxy_gets_the_absolute_uri(self, proxied):
        target, proxy, url = proxied
        resp = http_complete(endpoint(url), make_request("propose", "x"))
        assert resp.text == "echo: x"
        assert [r["path"] for r in proxy.requests] == [f"{url}/chat/completions"]
        assert target.requests == []

    def test_no_proxy_goes_direct(self, proxied, env):
        target, proxy, url = proxied
        env.setenv("no_proxy", "127.0.0.1")
        assert http_complete(endpoint(url), make_request("propose", "x")).text == "echo: x"
        assert [r["path"] for r in target.requests] == ["/chat/completions"]
        assert proxy.requests == []

    def test_https_tunnels_through_the_proxy(self, env):
        connects = []

        class TunnelRefused(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_CONNECT(self):
                connects.append(self.path)
                self.send_response(502)
                self.send_header("Content-Length", "0")
                self.end_headers()

        with serve(TunnelRefused) as proxy_url:
            env.setenv("https_proxy", proxy_url)
            with pytest.raises(AgentTransportError, match="Tunnel connection failed"):
                http_complete(
                    endpoint("https://agents.example:8443/v1", max_retries=0),
                    make_request("propose", "x"),
                )
        assert connects == ["agents.example:8443"]
