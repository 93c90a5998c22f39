"""The load generator's HTTP/1.1 client: one keep-alive connection.

Closed loop: the next request is sent only after the previous response
has been read in full.  Each request leaves in a single ``sendall`` on
a ``TCP_NODELAY`` socket, so no request waits on Nagle's algorithm or
is split across writes by the client.  A non-200 answer is returned to
the caller, which counts it as a failed operation; nothing is retried.
"""

from __future__ import annotations

import socket
import time
from urllib.parse import urlencode

#: Seconds a single request may take before the run is abandoned.
REQUEST_TIMEOUT_S = 120.0


class ServerGone(Exception):
    """The server closed the connection or answered garbage."""


class Client:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def call(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, bytes, float]:
        """``(status, body, seconds)`` of one request/response exchange."""
        request = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body
        reader = self.reader
        started = time.perf_counter()
        self.sock.sendall(request)
        status_line = reader.readline()
        length = -1
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        if length < 0:
            raise ServerGone(f"no framed response: {status_line!r}")
        payload = reader.read(length)
        elapsed = time.perf_counter() - started
        parts = status_line.split()
        if len(parts) < 2 or len(payload) != length:
            raise ServerGone(f"truncated response: {status_line!r}")
        return int(parts[1]), payload, elapsed

    def get(self, path: str, **query: object) -> tuple[int, bytes, float]:
        params = {key: value for key, value in query.items() if value is not None}
        target = f"{path}?{urlencode(params)}" if params else path
        return self.call("GET", target)
