"""Raw-socket keep-alive HTTP client for the load phase.

``http.client`` adds about 200 us of header objects and buffering per
request, more than the daemon spends answering, so the benchmark sends
pre-built request bytes on one socket and frames the reply itself:
read to the blank line, take ``Content-Length``, read that many bytes.
Nothing is parsed inside the timed span beyond that; status and JSON
are decoded afterwards by :func:`status_of` / ``json.loads``.
"""

from __future__ import annotations

import socket

_HEAD_END = b"\r\n\r\n"
_LENGTH = b"content-length:"


def build_get(path: str, headers: dict[str, str] | None = None) -> bytes:
    """The bytes of one keep-alive GET request."""
    lines = [f"GET {path} HTTP/1.1", "Host: bench"]
    lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def frame(buffer: bytes) -> tuple[bytes, bytes, bytes] | None:
    """Split ``buffer`` into ``(head, body, rest)`` once one whole
    response is in it; ``None`` while bytes are still missing.

    A response without ``Content-Length`` (the daemon's 304 carries
    ``Content-Length: 0``) is framed as body-less.
    """
    end = buffer.find(_HEAD_END)
    if end < 0:
        return None
    head = buffer[:end]
    length = 0
    at = head.lower().find(_LENGTH)
    if at >= 0:
        stop = head.find(b"\r\n", at)
        length = int(head[at + len(_LENGTH): stop if stop >= 0 else None])
    start = end + len(_HEAD_END)
    if len(buffer) < start + length:
        return None
    return head, buffer[start:start + length], buffer[start + length:]


def status_of(head: bytes) -> int:
    """The status code of a response head."""
    return int(head.split(b" ", 2)[1])


class KeepAliveClient:
    """One persistent connection; one request in flight at a time."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._pending = b""

    def request(self, raw: bytes) -> tuple[bytes, bytes]:
        """Send pre-built request bytes; return ``(head, body)``."""
        self._sock.sendall(raw)
        buffer = self._pending
        while True:
            framed = frame(buffer)
            if framed is not None:
                head, body, self._pending = framed
                return head, body
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "KeepAliveClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
