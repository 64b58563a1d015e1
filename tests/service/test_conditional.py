"""Conditional queries and connection semantics on the HTTP front end.

Every ``/v1/*`` answer carries a version-derived ``ETag``; a client
replaying it via ``If-None-Match`` gets a body-free 304 instead of the
full payload, and only once the query itself is valid.  The daemon also speaks proper ``Connection`` semantics to
HTTP/1.0 clients: explicit request tokens win, the version's default
applies otherwise, and the response always says what the server will do.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.service import MetaTelescopeService, run_daemon_in_thread
from tests.service.test_atomic_swap import stamped_snapshot


@pytest.fixture(scope="module")
def served_daemon():
    service = MetaTelescopeService()
    service.publish(stamped_snapshot(1))
    daemon, stop = run_daemon_in_thread(service)
    yield service, daemon
    stop()


def get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, dict(reply.headers), reply.read()
    except urllib.error.HTTPError as reply:
        return reply.code, dict(reply.headers), reply.read()


def read_response(sock: socket.socket) -> tuple[int, dict, bytes]:
    """One HTTP response off a raw socket (Content-Length framed)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-headers: {data!r}"
        data += chunk
    head, body = data.split(b"\r\n\r\n", 1)
    lines = head.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    want = int(headers.get("content-length", 0))
    while len(body) < want:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    return status, headers, body


def request_bytes(
    target: str, version: str = "1.1", extra: str = ""
) -> bytes:
    return (
        f"GET {target} HTTP/{version}\r\nHost: t\r\n{extra}\r\n"
    ).encode()


def test_every_v1_answer_carries_a_version_etag(served_daemon):
    _, daemon = served_daemon
    for target in (
        "/v1/point?block=1",
        "/v1/range?start=1&end=9",
        "/v1/diff?since=1",
        "/v1/snapshot",
    ):
        status, headers, body = get(daemon.base_url + target)
        assert status == 200
        assert headers["ETag"] == '"v1"'
        assert json.loads(body)["snapshot_version"] == 1
        # urllib sends "Connection: close"; the daemon must echo what
        # it will actually do in every response.
        assert headers["Connection"] == "close"


def test_if_none_match_replays_as_bodyless_304(served_daemon):
    _, daemon = served_daemon
    status, headers, body = get(
        daemon.base_url + "/v1/point?block=1",
        headers={"If-None-Match": '"v1"'},
    )
    assert status == 304
    assert body == b""
    assert headers["ETag"] == '"v1"'
    # A stale validator serves the full answer again.
    status, _, body = get(
        daemon.base_url + "/v1/point?block=1",
        headers={"If-None-Match": '"v99"'},
    )
    assert status == 200 and json.loads(body)["snapshot_version"] == 1


def test_if_none_match_never_claims_unpublished_state():
    service = MetaTelescopeService()
    daemon, stop = run_daemon_in_thread(service)
    try:
        status, headers, _ = get(
            daemon.base_url + "/v1/point?block=1",
            headers={"If-None-Match": '"v0"'},
        )
        assert status == 503  # still "no snapshot", not "unchanged"
        assert "ETag" not in headers
    finally:
        stop()


def test_a_version_parameter_is_no_second_door(served_daemon):
    # The only conditional request is If-None-Match, answered after the
    # URL is validated: a query parameter naming the served version
    # neither hides an unknown endpoint nor a malformed query.
    _, daemon = served_daemon
    for target, status in (
        ("/v1/nope", 404),
        ("/v1/point", 400),
    ):
        assert get(daemon.base_url + target)[0] == status, target
        found, _, body = get(daemon.base_url + target + "?if_version_changed=1")
        assert found == status, (target, body)
        assert b"not_modified" not in body
    # On a valid query the parameter is ignored: the full answer.
    plain = get(daemon.base_url + "/v1/range?start=1&end=9")
    asked = get(daemon.base_url + "/v1/range?start=1&end=9&if_version_changed=1")
    assert asked[0] == 200 and asked[2] == plain[2]


def test_http10_defaults_to_close(served_daemon):
    _, daemon = served_daemon
    with socket.create_connection(
        (daemon.host, daemon.port), timeout=10
    ) as sock:
        sock.sendall(request_bytes("/v1/point?block=1", version="1.0"))
        status, headers, _ = read_response(sock)
        assert status == 200
        assert headers["connection"] == "close"
        assert sock.recv(65536) == b""  # server closed


def test_http10_keep_alive_token_is_honored(served_daemon):
    _, daemon = served_daemon
    with socket.create_connection(
        (daemon.host, daemon.port), timeout=10
    ) as sock:
        for _ in range(2):  # the second request proves it stayed open
            sock.sendall(
                request_bytes(
                    "/v1/point?block=1",
                    version="1.0",
                    extra="Connection: keep-alive\r\n",
                )
            )
            status, headers, _ = read_response(sock)
            assert status == 200
            assert headers["connection"] == "keep-alive"


def test_http11_connection_close_is_honored(served_daemon):
    _, daemon = served_daemon
    with socket.create_connection(
        (daemon.host, daemon.port), timeout=10
    ) as sock:
        sock.sendall(
            request_bytes(
                "/v1/point?block=1", extra="Connection: close\r\n"
            )
        )
        status, headers, _ = read_response(sock)
        assert status == 200
        assert headers["connection"] == "close"
        assert sock.recv(65536) == b""
