"""Rendered answers equal the reference rendering, byte for byte.

The service answers from per-row JSON text rendered straight from the
snapshot's columns (:class:`~repro.core.snapshot.RenderedRows`).  The
reference here is the one the text replaced: a
:class:`~repro.core.snapshot.PointAnswer` per row, ``to_dict()``, the
envelope as a dict, one ``json.dumps`` — and the HTTP response around
it.  Random snapshots of both families, enriched or not, every verdict
with history, every list endpoint and budget case must agree on every
byte of the response, over a real socket and in process.

The memo is per version: a range rendered under one version is never
served under the next, and the text of a version that is no longer
served is unreachable however many versions the handle retains.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import re
import socket
import sys
import threading
import time
import weakref
from urllib.parse import quote

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot import (
    NO_ASN,
    NO_COUNTRY,
    PointAnswer,
    build_snapshot,
)
from repro.net.family import IPV6, family as family_of
from repro.service import (
    MetaTelescopeService,
    QueryBudget,
    SnapshotHandle,
    run_daemon_in_thread,
)

BUDGET = QueryBudget(max_results=7)
COUNTRIES = (b"DE", b"US", b"NL", b"BR")


# -- the reference rendering ---------------------------------------------


def reference_row(snapshot, row: int) -> dict:
    return PointAnswer(
        block=int(snapshot.blocks[row]),
        verdict=int(snapshot.verdicts[row]),
        confidence=float(snapshot.confidence[row]),
        since_day=int(snapshot.since_day[row]),
        asn=int(snapshot.asns[row]),
        country=snapshot.countries[row].decode(),
        family=snapshot.family,
    ).to_dict()


def reference_list(snapshot, rows, limit, **tag) -> dict:
    cap = BUDGET.clamp(limit)
    answer = {
        "total": len(rows),
        "truncated": len(rows) > cap,
        "rows": [reference_row(snapshot, int(row)) for row in rows[:cap]],
    }
    answer.update(tag)
    answer["snapshot_version"] = snapshot.version
    return answer


def reference_point(snapshot, block: int) -> dict:
    answer = snapshot.lookup(block).to_dict()
    answer["snapshot_version"] = snapshot.version
    answer["snapshot_day"] = snapshot.day
    return answer


def reference_span(snapshot, first: int, last: int, limit) -> dict:
    rows = np.flatnonzero((snapshot.blocks >= first) & (snapshot.blocks <= last))
    return reference_list(snapshot, rows, limit)


STATUS = {200: "OK", 304: "Not Modified", 400: "Bad Request",
          404: "Not Found", 503: "Service Unavailable"}


def reference_response(status: int, body: dict | None, etag: str | None) -> bytes:
    payload = b"" if status == 304 else json.dumps(body).encode()
    return (
        f"HTTP/1.1 {status} {STATUS[status]}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: keep-alive\r\n"
        + (f"ETag: {etag}\r\n" if etag is not None else "")
        + ("Retry-After: 1\r\n" if status == 503 else "")
        + "\r\n"
    ).encode() + payload


# -- random snapshots and the requests against them ----------------------


@st.composite
def snapshots(draw):
    """A built snapshot (every verdict, streak history) of either
    family, optionally AS/geo-enriched."""
    family = family_of(draw(st.sampled_from(("ipv4", "ipv6"))))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    count = draw(st.integers(0, 40))
    # Clustered ids, so ranges and covering prefixes hold several rows.
    base = int(rng.integers(0, family.num_blocks - 4096))
    blocks = np.unique(base + rng.integers(0, 4096, size=count))
    labels = rng.integers(0, 4, size=len(blocks))
    day = draw(st.integers(0, 30))
    history = [
        (day - past, blocks[rng.random(len(blocks)) < 0.7])
        for past in range(draw(st.integers(0, 5)))
    ]
    snapshot = build_snapshot(
        day,
        dark=blocks[labels == 0],
        unclean=blocks[labels == 1],
        gray=blocks[labels == 2],
        candidate=blocks[labels == 3],
        history=history,
        family=family.name,
    )
    if draw(st.booleans()):
        known = rng.random(len(snapshot)) < 0.8
        snapshot = dataclasses.replace(
            snapshot,
            asns=np.where(known, rng.integers(1, 6, len(snapshot)), NO_ASN),
            countries=np.where(
                known, rng.choice(COUNTRIES, len(snapshot)), NO_COUNTRY
            ),
        )
    if draw(st.booleans()):
        # Arbitrary confidences stress the float text beyond s / (s + 1).
        snapshot = dataclasses.replace(
            snapshot, confidence=rng.random(len(snapshot))
        )
    return snapshot, rng


LIMITS = (None, -3, 0, 1, 3, 7, 50)


def requests_for(snapshot, rng):
    """``(target, reference answer)`` pairs covering every list
    endpoint and budget case plus classified and unknown points."""
    family = snapshot.address_family
    blocks = [int(block) for block in snapshot.blocks]
    low = blocks[0] if blocks else 1000
    high = blocks[-1] if blocks else 2000
    unknown = [
        int(block)
        for block in rng.integers(
            max(low - 50, 0), min(high + 50, family.num_blocks), 6
        )
        if int(block) not in set(blocks)
    ]

    def with_limit(query: str, limit: int | None) -> str:
        return query if limit is None else f"{query}&limit={limit}"

    pairs = []
    for block in blocks[:6] + unknown:
        text = (str(block), family.format_block(block),
                family.format_ip(family.block_to_ip(block)))[block % 3]
        pairs.append((f"/v1/point?block={quote(text)}",
                      lambda s, b=block: reference_point(s, b)))
    for limit in LIMITS:
        start = int(rng.integers(max(low - 20, 0), high + 20))
        end = start + int(rng.integers(0, 600))
        pairs.append((with_limit(f"/v1/range?start={start}&end={end}", limit),
                      lambda s, a=start, e=end, n=limit: reference_span(s, a, e, n)))
    pairs.append((f"/v1/range?start={high + 10}&end={high + 20}",
                  lambda s: reference_span(s, high + 10, high + 20, None)))
    for limit, length in zip(LIMITS, (8, 16, 20, 22, 24, 12, 18)):
        length += 24 if family is IPV6 else 0
        prefix = family.prefix_from_ip(family.block_to_ip(low), length)
        first, last = prefix.first_block(), prefix.first_block() + prefix.num_blocks() - 1
        pairs.append((with_limit(f"/v1/range?prefix={quote(str(prefix))}", limit),
                      lambda s, f=first, e=last, n=limit: reference_span(s, f, e, n)))
    for asn, limit in ((1, None), (2, 3), (5, -1), (NO_ASN, 2), (99, None)):
        pairs.append((with_limit(f"/v1/as?asn={asn}", limit),
                      lambda s, a=asn, n=limit: reference_list(
                          s, np.flatnonzero(s.asns == a), n, asn=a)))
    for country, limit in (("de", None), ("US", 2), ("??", 4), ("zz", 1)):
        pairs.append((with_limit(f"/v1/geo?country={quote(country)}", limit),
                      lambda s, c=country, n=limit: reference_list(
                          s, np.flatnonzero(s.countries == c.upper().encode()), n,
                          country=c.upper())))
    return pairs


# -- fixtures --------------------------------------------------------------


class Connection:
    """One keep-alive socket to a daemon, one request at a time."""

    def __init__(self, daemon) -> None:
        self.sock = socket.create_connection((daemon.host, daemon.port), timeout=10)

    def raw(self, target: str, etag: str | None = None) -> bytes:
        """The response to one GET, every byte of it."""
        extra = f"If-None-Match: {etag}\r\n" if etag else ""
        self.sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: t\r\n{extra}\r\n".encode()
        )
        data = b""
        while b"\r\n\r\n" not in data:
            data += self.sock.recv(65536)
        head, body = data.split(b"\r\n\r\n", 1)
        length = int(re.search(rb"Content-Length: (\d+)", head)[1])
        while len(body) < length:
            body += self.sock.recv(65536)
        return head + b"\r\n\r\n" + body


@pytest.fixture(scope="module")
def served():
    service = MetaTelescopeService(budget=BUDGET)
    daemon, stop = run_daemon_in_thread(service)
    connection = Connection(daemon)
    yield service, connection
    connection.sock.close()
    stop()


# -- identity ----------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(snapshots())
def test_every_answer_matches_the_reference_rendering(served, drawn):
    service, connection = served
    snapshot, rng = drawn
    stamped = service.publish(snapshot)
    etag = f'"v{stamped.version}"'
    for target, reference in requests_for(stamped, rng):
        expected = reference(stamped)
        # Twice: the first renders rows, the second is served from text.
        for _ in range(2):
            assert connection.raw(target) == reference_response(
                200, expected, etag
            ), target
        assert connection.raw(target, etag) == reference_response(
            304, None, etag
        ), target
    # In process the dicts are the reference dicts.
    last = stamped.address_family.num_blocks - 1
    for block in [int(block) for block in stamped.blocks[:3]] + [7]:
        assert service.point(str(block)) == reference_point(stamped, block)
    assert service.range(start=0, end=last, limit=4) == reference_span(
        stamped, 0, last, 4
    )
    assert service.by_as(1) == reference_list(
        stamped, np.flatnonzero(stamped.asns == 1), None, asn=1
    )
    assert service.by_geo("de", limit=2) == reference_list(
        stamped, np.flatnonzero(stamped.countries == b"DE"), 2, country="DE"
    )


EDGE_BLOCKS = {
    "ipv4": [0, 1, 255, 256, 65_535, 65_536, 2**24 - 1],
    # RFC 5952 folds every zero group next to the /48's zero tail.
    "ipv6": [0, 1, 1 << 16, 1 << 32, (1 << 32) | 1, (1 << 32) | (5 << 16),
             5 << 16, 0x20010DB80000, 0x20010DB80001, 2**48 - 1],
}


@pytest.mark.parametrize("family", sorted(EDGE_BLOCKS))
def test_prefix_text_at_the_edges_of_the_block_space(family):
    blocks = np.array(EDGE_BLOCKS[family], dtype=np.int64)
    service = MetaTelescopeService()
    stamped = service.publish(build_snapshot(0, dark=blocks[::2], family=family))
    last = stamped.address_family.num_blocks - 1
    assert service.range(start=0, end=last) == reference_span(stamped, 0, last, None)
    for block in EDGE_BLOCKS[family]:  # half of them unknown
        assert service.point(str(block)) == reference_point(stamped, block)


def test_confidence_is_rounded_as_python_rounds():
    """``round(x, 6)``, not ``np.round``: the two differ on the streak
    confidence ``s / (s + 1)`` at s = 639 and s = 3199."""
    streaks = np.array([1, 2, 639, 3199, 99_999], dtype=np.float64)
    service = MetaTelescopeService()
    stamped = service.publish(dataclasses.replace(
        build_snapshot(0, dark=np.arange(5, dtype=np.int64)),
        confidence=streaks / (streaks + 1),
    ))
    assert service.range(start=0, end=4) == reference_span(stamped, 0, 4, None)


@pytest.mark.parametrize("target, status, error", [
    ("/v1/point?block=not-a-block", 400,
     "not a /24, IP or block id: 'not-a-block'"),
    ("/v1/range?start=9&end=3", 400, "empty range: start 9 > end 3"),
    ("/v1/range?start=x&end=3", 400, "start must be an integer: 'x'"),
    ("/v1/range?prefix=10.0.0.0/28", 400,
     "requested /28 prefix 10.0.0.0/28 is more specific than this ipv4 "
     "snapshot's /24 blocks"),
    ("/v1/as", 400, "as needs ?asn="),
    ("/v1/nothing", 404, "no such endpoint: /v1/nothing"),
])
def test_if_none_match_never_turns_an_error_into_a_304(served, target, status, error):
    service, connection = served
    stamped = service.publish(build_snapshot(1, dark=np.arange(5, dtype=np.int64)))
    etag = f'"v{stamped.version}"'
    assert connection.raw(target, etag) == reference_response(
        status, {"error": error}, None
    )


def test_unpublished_stays_503_under_if_none_match():
    service = MetaTelescopeService()
    daemon, stop = run_daemon_in_thread(service)
    connection = Connection(daemon)
    try:
        for target in ("/v1/point?block=1", "/v1/range?start=1&end=2",
                       "/v1/snapshot", "/v1/range"):
            assert connection.raw(target, '"v0"') == reference_response(
                503, {"error": "no snapshot published yet"}, None
            ), target
    finally:
        connection.sock.close()
        stop()


# -- the memo is per version -------------------------------------------------


def versioned(stamp: int):
    """One block universe whose verdicts and streaks depend on ``stamp``."""
    blocks = np.arange(100, 164, dtype=np.int64)
    dark = blocks[(blocks + stamp) % 3 != 0]
    return build_snapshot(
        stamp, dark=dark, gray=np.setdiff1d(blocks, dark),
        history=[(stamp - 1, dark[::2])],
    )


def test_a_range_rendered_under_one_version_answers_the_next_at_once():
    service = MetaTelescopeService(budget=BUDGET)
    for stamp in (1, 2, 3):
        stamped = service.publish(versioned(stamp))
        for limit in (None, 64):
            assert service.range(start=100, end=163, limit=limit) == (
                reference_span(stamped, 100, 163, limit)
            )
        assert service.point("101") == reference_point(stamped, 101)


def test_threads_racing_on_fills_and_publishes_answer_their_own_version():
    """Readers fill the memo without a lock while versions move under
    them: every answer must equal the reference of the version it
    carries (version ``v`` is ``versioned(v)``)."""
    publishes = 40
    expected = {}
    for version in range(1, publishes + 1):
        stamped = dataclasses.replace(versioned(version), version=version)
        expected[version] = (
            reference_span(stamped, 100, 163, None), reference_point(stamped, 101)
        )
    service = MetaTelescopeService(budget=BUDGET)
    service.publish(versioned(1))
    stop = threading.Event()
    failures: list[BaseException] = []

    def reader() -> None:
        try:
            while not stop.is_set():
                answer = service.range(start=100, end=163)
                assert answer == expected[answer["snapshot_version"]][0]
                point = service.point("101")
                assert point == expected[point["snapshot_version"]][1]
        except BaseException as error:  # reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for thread in readers:
            thread.start()
        for version in range(2, publishes + 1):
            service.publish(versioned(version))
            time.sleep(0.002)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not failures, failures[0]


def test_only_the_served_version_keeps_its_text():
    service = MetaTelescopeService(handle=SnapshotHandle(history=16))
    memos = []
    for stamp in range(1, 41):
        service.publish(versioned(stamp))
        service.range(start=100, end=163)
        memos.append(weakref.ref(service._memo))
    gc.collect()
    # The handle still retains 16 versions for diffs; their text is gone.
    assert len(service.handle.versions_retained()) == 16
    assert [memo() is not None for memo in memos] == [False] * 39 + [True]
