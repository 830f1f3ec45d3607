"""Pluggable agent backends: deterministic mocks and an HTTP chat client.

The mock backend is a pure function of (agent id, request text) and never
touches the network, which keeps every committee test offline and
bit-reproducible.  The HTTP backend speaks the common chat-completion wire
format over the standard library's ``http.client``, with bounded retries,
exponential backoff and a pool of keep-alive connections.  ``http.client``
is imported when the first pool is made, so a mock run never loads it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import select
import threading
import time
import weakref
from dataclasses import dataclass, field
from functools import lru_cache, partial
from urllib.parse import urlsplit

from . import vocab

AUTH_ENV_VAR = "CRITIFUSION_API_KEY"
EMPTY_RESPONSE = "(none)"
TRANSIENT_STATUSES = frozenset({429, 500, 502, 503, 504})
# Idle keep-alive connections a pool keeps; a connection returned to a full
# pool is closed.
MAX_IDLE = 10
# Distinct requests whose mock answers are kept; an entry is one request and
# its answer, a few hundred bytes.
MOCK_ANSWERS = 1024


class AgentError(Exception):
    pass


class AgentTransportError(AgentError):
    """Terminal HTTP failure; carries the offending status code."""

    def __init__(self, message: str, status: int | None = None, agent_id=None):
        super().__init__(message)
        self.status = status
        self.agent_id = agent_id


class AgentTimeoutError(AgentError):
    pass


class AgentProtocolError(AgentError):
    """Response body did not match the chat-completion schema."""


@dataclass(frozen=True)
class AgentEndpoint:
    base_url: str
    model_id: str = "default"
    timeout: float = 30.0
    max_retries: int = 2
    backoff: float = 0.25

    def __post_init__(self):
        try:
            parts = urlsplit(self.base_url)
            valid = parts.scheme in ("http", "https") and parts.hostname and parts.port != 0
        except ValueError:  # a malformed IPv6 host or a port outside [0, 65535]
            valid = False
        if not valid:
            raise ValueError(f"base_url must be an http(s) URL with a host, got {self.base_url!r}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be finite and positive, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (math.isfinite(self.backoff) and self.backoff >= 0):
            raise ValueError(f"backoff must be finite and >= 0, got {self.backoff}")


@dataclass(frozen=True)
class AgentRequest:
    messages: tuple
    temperature: float = 0.0
    max_tokens: int = 256

    def __post_init__(self):
        if not self.messages:
            raise ValueError("message list must be nonempty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    @property
    def directive(self) -> str:
        for role, content in self.messages:
            if role == "system":
                return content.split()[0] if content else "propose"
        return "propose"

    @property
    def user_text(self) -> str:
        return "\n".join(content for role, content in self.messages if role == "user")


@dataclass(frozen=True)
class AgentResponse:
    text: str
    latency: float = 0.0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    attempts: int = 1


def make_request(directive: str, text: str) -> AgentRequest:
    return AgentRequest(messages=(("system", directive), ("user", text)))


@lru_cache(maxsize=MOCK_ANSWERS)
def mock_respond(agent_id: int, request: AgentRequest) -> AgentResponse:
    """Deterministic committee stand-in, memoised: the answer is a pure
    function of its frozen arguments.

    ``propose``: extract descriptors, add each one's paired descriptor,
    keep those inside the agent's coverage, and emit them in ascending
    pattern order using the agent's own lexicon.
    ``aggregate``: dedup-union of descriptors in first-appearance order,
    canonical lexicon, no enrichment.
    ``judge``: newline-separated candidates; return the one covering the
    most distinct descriptors, ties to the earliest candidate.
    """
    directive = request.directive
    text = request.user_text
    if directive == "judge":
        candidates = [line for line in text.split("\n") if line.strip()]
        if not candidates:
            return AgentResponse(EMPTY_RESPONSE)
        best = max(
            range(len(candidates)),
            key=lambda i: (len(vocab.descriptor_indices(vocab.tokenize(candidates[i]))), -i),
        )
        return AgentResponse(candidates[best])
    indices = vocab.descriptor_indices(vocab.tokenize(text))
    if directive == "aggregate":
        words = [vocab.lexicon_word(0, j) for j in indices]
    else:
        enriched = set(indices)
        enriched.update(vocab.associate(j) for j in indices)
        reachable = sorted(enriched & vocab.coverage(agent_id))
        words = [vocab.lexicon_word(agent_id, j) for j in reachable]
    return AgentResponse(" ".join(words) if words else EMPTY_RESPONSE)


@dataclass
class MockAgentBackend:
    """Offline backend; records every call for count assertions."""

    calls: list = field(default_factory=list)

    def respond(self, agent_id: int, request: AgentRequest) -> AgentResponse:
        self.calls.append((agent_id, request.directive))
        return mock_respond(agent_id, request)


def _dropped(sock) -> bool:
    """True when an idle connection's socket reads ready: the server has
    closed it (or sent bytes nobody asked for), so it must not be reused."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class ConnectionPool:
    """Keep-alive connections to one base URL's ``/chat/completions``.

    Threads share a pool: a post takes an idle connection, or opens one, and
    gives it back when the response allows reuse.  An idle connection the
    server has closed is dropped before use, so it costs no attempt.
    Proxies come from ``http_proxy``/``https_proxy``/``no_proxy`` when the
    pool is made: plain HTTP goes to the proxy with the absolute URI, and
    https tunnels through it with CONNECT.  Credentials in a proxy URL are
    not sent.
    """

    def __init__(self, base_url: str):
        from urllib.request import getproxies, proxy_bypass

        url = base_url.rstrip("/") + "/chat/completions"
        parts = urlsplit(url)
        https = parts.scheme == "https"
        address = (parts.hostname, parts.port or (443 if https else 80))
        self._target = parts.path
        self._tunnel = None
        proxy = getproxies().get(parts.scheme)
        if proxy and not proxy_bypass(parts.hostname):
            if https:
                self._tunnel = address
            else:
                self._target = url
            proxy_parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            address = (proxy_parts.hostname, proxy_parts.port or 80)
        if https:
            import ssl
            from http.client import HTTPSConnection

            context = ssl.create_default_context()
            self._open = partial(HTTPSConnection, *address, context=context)
        else:
            from http.client import HTTPConnection

            self._open = partial(HTTPConnection, *address)
        self._idle: list = []
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def post(self, body: bytes, headers: dict, timeout: float) -> tuple[int, bytes]:
        """One POST; returns (status, body).  Socket and protocol errors
        propagate, and the connection they came from is closed."""
        conn = self._take(timeout)
        try:
            conn.request("POST", self._target, body, headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            self._give(conn)
        return resp.status, data

    def _take(self, timeout):
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                conn = self._open(timeout=timeout)
                if self._tunnel is not None:
                    conn.set_tunnel(*self._tunnel)
                return conn
            if not _dropped(conn.sock):
                return conn
            conn.close()

    def _give(self, conn) -> None:
        with self._lock:
            if len(self._idle) < MAX_IDLE:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close the idle connections; the pool stays usable.  A pool that
        is garbage-collected unclosed closes them too."""
        with self._lock:
            idle = self._idle.copy()
            self._idle.clear()
        _close_all(idle)


def _close_all(conns: list) -> None:
    for conn in conns:
        conn.close()


def http_complete(
    endpoint: AgentEndpoint, request: AgentRequest, pool: ConnectionPool | None = None
) -> AgentResponse:
    """One chat completion with bounded retries.

    Transient failures (connection errors, timeouts, 429/5xx) retry with
    exponential backoff up to max_retries; total attempts never exceed
    max_retries + 1, and the response counts the attempts it took.  Other
    HTTP statuses, 3xx included, fail immediately, and so does a body off
    the chat-completion schema (AgentProtocolError); a missing or null
    ``usage`` counts 0 tokens.  A ``pool`` made for ``endpoint.base_url``
    keeps connections open across calls; ``None`` uses one for this call.
    """
    if pool is None:
        with contextlib.closing(ConnectionPool(endpoint.base_url)) as own:
            return http_complete(endpoint, request, own)
    from http.client import HTTPException

    payload = {
        "model": endpoint.model_id,
        "messages": [{"role": r, "content": c} for r, c in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
    }
    data = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(AUTH_ENV_VAR, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"

    last_error: AgentError | None = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt > 0:
            time.sleep(endpoint.backoff * (2 ** (attempt - 1)))
        start = time.monotonic()
        try:
            status, raw = pool.post(data, headers, endpoint.timeout)
        except TimeoutError:
            last_error = AgentTimeoutError(
                f"timed out after {endpoint.timeout}s (attempt {attempt + 1})"
            )
            continue
        except (OSError, HTTPException) as exc:
            last_error = AgentTransportError(f"connection failed: {exc}")
            continue
        latency = time.monotonic() - start
        if status in TRANSIENT_STATUSES:
            last_error = AgentTransportError(f"transient status {status}", status=status)
            continue
        if status != 200:
            raise AgentTransportError(f"terminal status {status}", status=status)
        try:
            body = json.loads(raw)
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage") or {}
            tokens = [usage.get(key, 0) for key in ("prompt_tokens", "completion_tokens")]
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise AgentProtocolError(f"malformed completion body: {exc}") from exc
        if not isinstance(text, str) or any(type(n) is not int for n in tokens):
            raise AgentProtocolError(
                f"malformed completion body: {type(text).__name__} content, "
                f"token counts {tokens}"
            )
        return AgentResponse(text, latency, *tokens, attempts=attempt + 1)
    raise last_error if last_error is not None else AgentTransportError("no attempts")


@dataclass
class HttpAgentBackend:
    """Routes committee calls to a chat-completion endpoint.

    All calls share one ``ConnectionPool``, so they reuse its connections;
    ``close()`` closes the idle ones.
    """

    endpoint: AgentEndpoint
    pool: ConnectionPool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pool = ConnectionPool(self.endpoint.base_url)

    def respond(self, agent_id: int, request: AgentRequest) -> AgentResponse:
        try:
            return http_complete(self.endpoint, request, self.pool)
        except AgentTransportError as exc:
            exc.agent_id = agent_id
            raise

    def close(self) -> None:
        self.pool.close()
