"""Hostile bytes on the socket get a status line or a close, never a
dropped connection with a traceback, and never a connection held open
forever.

Every case below is sent on its own connection; the only allowed
outcomes are answers followed by the server closing, where every answer
to the hostile part is a 4xx.  Afterwards the daemon must still answer
``/healthz`` 200 and the event loop must have logged no unhandled
exception.  The line, header-count and head-time limits are module
constants, patched small here so the suite stays fast.
"""

from __future__ import annotations

import gc
import logging
import random
import re
import socket
import time

import numpy as np
import pytest

from repro.core.snapshot import build_snapshot
from repro.net.family import IPV4, IPV6
from repro.service import MetaTelescopeService, run_daemon_in_thread
from repro.service import daemon as daemon_module
from repro.service.daemon import QueryError, parse_block

HEAD_TIMEOUT_S = 0.3
MAX_HEADERS = 8


def statuses_until_close(sock: socket.socket, timeout: float = 5.0) -> list[int]:
    """Status codes of everything the server sends until it closes;
    fails if it neither answers nor closes within ``timeout``."""
    sock.settimeout(timeout)
    data = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        except socket.timeout:
            pytest.fail(f"server held the connection open: {data[:200]!r}")
        if not chunk:
            break
        data += chunk
    statuses = []
    while data:  # Content-Length framed responses, back to back
        head, _, rest = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head)[1])
        statuses.append(int(head.split()[1]))
        data = rest[length:]
    return statuses


def send(daemon, payload: bytes, pause: float = 0.0, shut: bool = False) -> list[int]:
    with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
        try:
            sock.sendall(payload)
            if pause:
                time.sleep(pause)
            if shut:
                sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed mid-send
        return statuses_until_close(sock)


def get(target: str, extra: str = "") -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: t\r\n{extra}\r\n".encode()


CLOSE = "Connection: close\r\n"
LONG = "x" * (70 * 1024)


def hostile_cases():
    """``(name, payload, send options, statuses it may get)``."""
    rng = random.Random(4049)
    cases = [
        ("oversized request line", get(f"/v1/point?block={LONG}"), {}, [431]),
        ("oversized header line", get("/healthz", f"X-Long: {LONG}\r\n"), {}, [431]),
        ("header flood", get("/healthz", "X-A: 1\r\n" * (MAX_HEADERS + 1)), {}, [431]),
        # Host, the X-As and Connection: exactly MAX_HEADERS lines.
        ("header count at the cap", get("/healthz", "X-A: 1\r\n" * (MAX_HEADERS - 2)
                                        + CLOSE), {}, [200]),
        ("stalled request line", b"GET /v1/point?bl", {}, []),
        ("stalled headers", b"GET /healthz HTTP/1.1\r\nHost: t\r\n", {}, []),
        ("bad percent-encoding", get("/v1/point?block=%zz%", CLOSE), {}, [400]),
        ("undecodable percent-encoding", get("/v1/geo?country=%ff%fe", CLOSE),
         {}, [200]),
        ("malformed prefix length", get("/v1/range?prefix=10.0.0.0/x", CLOSE),
         {}, [400]),
        ("malformed range prefix", get("/v1/range?prefix=%00/8", CLOSE), {}, [400]),
        ("out-of-range block id", get("/v1/point?block=99999999999999999999999",
                                      CLOSE), {}, [400]),
        ("negative block id", get("/v1/point?block=-1", CLOSE), {}, [400]),
        ("unsplittable target", get("//[", CLOSE), {}, [400]),
        ("pipelined garbage", get("/v1/point?block=1") + b"\x00\x01 garbage\r\n\r\n",
         {}, [200, 400]),
        ("request line only", b"GARBAGE\r\n", {}, [400]),
        ("half-closed after a request", get("/v1/point?block=1"), {"shut": True},
         [200]),
        # End of stream ends the head, as it always has: answered, closed.
        ("half-closed before the blank line", b"GET /healthz HTTP/1.1\r\nHo",
         {"shut": True}, [200]),
        ("not GET", b"POST /v1/point?block=1 HTTP/1.1\r\n" + CLOSE.encode()
         + b"\r\n", {}, [405]),
    ]
    for index in range(12):
        junk = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 300)))
        cases.append((f"random bytes {index}", junk, {"shut": True}, None))
    return cases


@pytest.fixture()
def daemon(monkeypatch):
    monkeypatch.setattr(daemon_module, "HEAD_TIMEOUT_S", HEAD_TIMEOUT_S)
    monkeypatch.setattr(daemon_module, "MAX_HEADERS", MAX_HEADERS)
    service = MetaTelescopeService()
    service.publish(build_snapshot(0, dark=np.arange(1, 9, dtype=np.int64)))
    daemon, stop = run_daemon_in_thread(service)
    yield daemon
    stop()


def test_hostile_bytes_get_a_4xx_or_a_close(daemon, caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    for name, payload, options, expected in hostile_cases():
        statuses = send(daemon, payload, **options)
        if expected is None:  # random bytes: whatever parses, fails 4xx
            assert all(400 <= status < 500 for status in statuses), (name, statuses)
        else:
            assert statuses == expected, name
    with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
        sock.sendall(get("/healthz", CLOSE))
        assert statuses_until_close(sock) == [200]
    gc.collect()  # an unretrieved task exception is logged when collected
    assert not [
        record for record in caplog.records if record.name == "asyncio"
    ], [record.getMessage() for record in caplog.records]


def test_a_stalled_head_is_closed_at_the_deadline(daemon):
    started = time.monotonic()
    assert send(daemon, b"GET /healthz HTTP/1.1\r\n") == []
    assert HEAD_TIMEOUT_S <= time.monotonic() - started < HEAD_TIMEOUT_S + 3


def test_an_idle_keep_alive_connection_is_not_on_the_clock(daemon):
    with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
        for pause in (0, HEAD_TIMEOUT_S * 2):
            time.sleep(pause)  # idle between requests
            sock.sendall(get("/healthz"))
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")


@pytest.mark.parametrize("family", [IPV4, IPV6], ids=lambda family: family.name)
@pytest.mark.parametrize("text", ["99999999999999999999999", "-1", "top"])
def test_block_ids_outside_the_family_are_a_query_error(family, text):
    text = str(family.num_blocks) if text == "top" else text
    with pytest.raises(QueryError, match="outside the"):
        parse_block(text, family)
    assert parse_block(str(family.num_blocks - 1), family) == family.num_blocks - 1


@pytest.mark.parametrize("family", [IPV4, IPV6], ids=lambda family: family.name)
def test_an_oversized_block_id_is_answered_400(family):
    service = MetaTelescopeService()
    service.publish(build_snapshot(0, dark=np.arange(3, dtype=np.int64),
                                   family=family.name))
    daemon, stop = run_daemon_in_thread(service)
    try:
        statuses = send(daemon, get("/v1/point?block=99999999999999999999999", CLOSE))
        assert statuses == [400]
    finally:
        stop()
