"""Chat-completion stub for the remote-committee workload.

One asyncio server thread on 127.0.0.1 answers every request after a fixed
delay, so concurrent requests overlap their delays instead of queueing.
Completions are the deterministic mock committee's answer for the seat named
in the request's ``model`` field (``seat-<agent id>``), so a remote run must
reproduce the mock run's results.

Transient 503s are chosen by request content, never by arrival order: a
request whose canonical body hashes into the failing share gets one 503 the
first time that body is seen since the last ``reset``, and succeeds on the
retry.  Reordering or overlapping the same calls fails the same bodies.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import threading

from critifusion.agents import AgentRequest, mock_respond

FAIL_EVERY = 8


def content_key(body: dict) -> bytes:
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).digest()


def fails_first_time(key: bytes) -> bool:
    return int.from_bytes(key[:8], "big") % FAIL_EVERY == 0


def completion(body: dict) -> dict:
    agent_id = int(body["model"].removeprefix("seat-"))
    request = AgentRequest(
        messages=tuple((m["role"], m["content"]) for m in body["messages"]),
        temperature=float(body.get("temperature", 0.0)),
        max_tokens=int(body.get("max_tokens", 256)),
    )
    text = mock_respond(agent_id, request).text
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {
            "prompt_tokens": len(request.user_text.split()),
            "completion_tokens": len(text.split()),
        },
    }


class StubAgentServer:
    """Start with ``start()`` (returns the base URL); stop with ``stop()``."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.requests = 0
        self.failures = 0
        self._failed_keys: set = set()
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._port = 0

    def reset(self) -> None:
        """Forget which bodies already failed once; counters keep running."""
        with self._lock:
            self._failed_keys.clear()

    def decide(self, body: dict) -> int:
        """HTTP status for ``body``; counts the request."""
        key = content_key(body)
        with self._lock:
            self.requests += 1
            if fails_first_time(key) and key not in self._failed_keys:
                self._failed_keys.add(key)
                self.failures += 1
                return 503
        return 200

    def _answer(self, raw: bytes) -> tuple[int, bytes]:
        try:
            body = json.loads(raw)
            status = self.decide(body)
            payload = completion(body) if status == 200 else {"error": "unavailable"}
        except (ValueError, KeyError, TypeError, AttributeError):
            return 400, b'{"error": "bad request"}'
        return status, json.dumps(payload).encode("utf-8")

    async def _serve_connection(self, reader, writer):
        try:
            while True:
                if not await reader.readline():
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                raw = await reader.readexactly(int(headers.get("content-length", "0")))
                status, payload = self._answer(raw)
                await asyncio.sleep(self.delay_s)
                reason = {200: "OK", 400: "Bad Request", 503: "Service Unavailable"}[status]
                writer.write(
                    f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n".encode("latin-1") + payload
                )
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        # A ready socket keeps asyncio from resolving the address in an extra
        # executor thread.
        sock = socket.create_server(("127.0.0.1", 0))
        server = await asyncio.start_server(self._serve_connection, sock=sock)
        self._port = sock.getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop.wait()

    def start(self) -> str:
        self._thread = threading.Thread(target=asyncio.run, args=(self._main(),))
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("stub agent server did not start")
        return f"http://127.0.0.1:{self._port}"

    def stop(self) -> None:
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10.0)
        if self._thread.is_alive():
            raise RuntimeError("stub agent server did not stop")
        self._thread = None
