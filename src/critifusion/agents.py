"""Pluggable agent backends: deterministic mocks and an HTTP chat client.

The mock backend is a pure function of (agent id, request text) and never
touches the network, which keeps every committee test offline and
bit-reproducible.  The HTTP backend speaks the common chat-completion wire
format with bounded retries and exponential backoff.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import vocab

if TYPE_CHECKING:
    import requests

AUTH_ENV_VAR = "CRITIFUSION_API_KEY"
EMPTY_RESPONSE = "(none)"
TRANSIENT_STATUSES = frozenset({429, 500, 502, 503, 504})


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
        if not self.base_url:
            raise ValueError("base_url must be nonempty")
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


def make_request(directive: str, text: str) -> AgentRequest:
    return AgentRequest(messages=(("system", directive), ("user", text)))


def mock_respond(agent_id: int, request: AgentRequest) -> AgentResponse:
    """Deterministic committee stand-in.

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


def http_complete(
    endpoint: AgentEndpoint, request: AgentRequest, session=None
) -> AgentResponse:
    """One chat completion with bounded retries.

    Transient failures (connection errors, timeouts, 429/5xx) retry with
    exponential backoff up to max_retries; total attempts never exceed
    max_retries + 1.  Other HTTP statuses fail immediately, and so does a
    body off the chat-completion schema (AgentProtocolError); a missing or
    null ``usage`` counts 0 tokens.  A ``requests.Session`` as ``session``
    keeps connections open across calls; ``None`` opens one per attempt.
    ``requests`` is imported here, so a mock run never loads it.
    """
    import requests

    if session is None:
        session = requests
    payload = {
        "model": endpoint.model_id,
        "messages": [{"role": r, "content": c} for r, c in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
    }
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(AUTH_ENV_VAR, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    url = endpoint.base_url.rstrip("/") + "/chat/completions"

    last_error: AgentError | None = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt > 0:
            time.sleep(endpoint.backoff * (2 ** (attempt - 1)))
        start = time.monotonic()
        try:
            resp = session.post(
                url, json=payload, headers=headers, timeout=endpoint.timeout
            )
        except requests.Timeout:
            last_error = AgentTimeoutError(
                f"timed out after {endpoint.timeout}s (attempt {attempt + 1})"
            )
            continue
        except requests.ConnectionError as exc:
            last_error = AgentTransportError(f"connection failed: {exc}")
            continue
        latency = time.monotonic() - start
        if resp.status_code in TRANSIENT_STATUSES:
            last_error = AgentTransportError(
                f"transient status {resp.status_code}", status=resp.status_code
            )
            continue
        if resp.status_code != 200:
            raise AgentTransportError(
                f"terminal status {resp.status_code}", status=resp.status_code
            )
        try:
            body = resp.json()
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
        return AgentResponse(text, latency, *tokens)
    raise last_error if last_error is not None else AgentTransportError("no attempts")


def _new_session() -> requests.Session:
    import requests

    return requests.Session()


@dataclass
class HttpAgentBackend:
    """Routes committee calls to a chat-completion endpoint.

    All calls share one ``requests.Session``, so they reuse its connections.
    """

    endpoint: AgentEndpoint
    session: requests.Session = field(
        default_factory=_new_session, repr=False, compare=False
    )

    def respond(self, agent_id: int, request: AgentRequest) -> AgentResponse:
        try:
            return http_complete(self.endpoint, request, self.session)
        except AgentTransportError as exc:
            exc.agent_id = agent_id
            raise
