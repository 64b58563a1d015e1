"""The query daemon: stdlib-asyncio HTTP/JSON over snapshot state.

Two layers, deliberately separated:

* :class:`MetaTelescopeService` — the pure query engine.  Every
  operation grabs the current snapshot from the
  :class:`~repro.service.handle.SnapshotHandle` **once** and answers
  entirely from that reference, so a concurrent publish can never mix
  two snapshots inside one answer.  Budgets (result caps), load-shed
  accounting, health and trace emission all live here, which is what
  lets the robustness catalog, the tests and the benchmark drive the
  *service path* without a socket.
* :class:`ServiceDaemon` — a minimal HTTP/1.1 front end on
  ``asyncio.start_server`` (GET + JSON; keep-alive).  No third-party
  web framework: the paper's operators run this next to a collector,
  and the stdlib is the only dependency that is always there.

Endpoints (all JSON)::

    GET /healthz                        liveness + HealthReport summary
    GET /v1/snapshot                    current snapshot metadata
    GET /v1/point?prefix=203.0.113.0/24 one /24's verdict
    GET /v1/range?start=B&end=B         blocks in [start, end]
    GET /v1/range?prefix=198.51.0.0/16  blocks inside a covering prefix
    GET /v1/as?asn=64500                blocks originated by an AS
    GET /v1/geo?country=DE              blocks geolocated to a country
    GET /v1/diff?since=V                change feed since version V

Load-shed: requests beyond ``max_inflight`` are answered ``503``
immediately (readers never queue behind a stampede), as are data
queries before the first publish.  List answers are capped by the
:class:`QueryBudget` and flagged ``truncated`` rather than streamed
unbounded.  With a :class:`~repro.core.engine.RunContext` attached,
every query emits a ``query`` event and every publish a ``publish``
event through the PR-5 sink API.

Answers are text rendered once per served version: each row's JSON is
rendered from the snapshot's columns the first time it is asked for
(:class:`~repro.core.snapshot.RenderedRows`), so a range answer is two
``searchsorted`` probes and a join, and a point answer one probe and a
list index.  The dict-returning service methods decode that same text.

Polling clients are nearly free: every ``/v1/*`` answer carries a
version-based ``ETag`` (``"v<N>"``).  A matching ``If-None-Match``
request turns into a bodyless ``304`` and the header-less equivalent
``?if_version_changed=N`` into a tiny ``{"not_modified": true}``
payload, both once the parameters are validated and before any query
work runs.

Hostile clients get a status line, not a dropped connection: a request
line or header over 64 KiB, or more than :data:`MAX_HEADERS` header
lines, is answered ``431``, and a client that takes longer than
:data:`HEAD_TIMEOUT_S` to send one request head is disconnected.

Scale-out happens across *processes*, not threads:
:class:`ServiceDaemon` can bind its port with ``SO_REUSEPORT``
(``reuse_port=True``) so N independent daemons share one address and
the kernel load-balances accepted connections — see
:mod:`repro.service.fleet` for the supervisor that runs and feeds such
a fleet off one shared-page-cache ``snapshot.fpk``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.core.engine import RunContext
from repro.core.snapshot import ClassificationSnapshot, RenderedRows
from repro.net.family import IPV4, AddressFamily
from repro.net.ipv4 import AddressError
from repro.service.handle import SnapshotHandle

#: A validated query's answer, not yet rendered: calling it runs the
#: lookup and returns the JSON text of the whole answer.
Render = Callable[[], str]


class QueryError(ValueError):
    """A malformed query (HTTP 400)."""


@dataclass(frozen=True, slots=True)
class QueryBudget:
    """Per-query result budget.

    ``max_results`` caps every list-shaped answer; callers may ask for
    less via ``limit`` but never more.  Keeps a single range query over
    a paper-scale snapshot from serialising millions of rows.
    """

    max_results: int = 1000

    def clamp(self, requested: int | None) -> int:
        if requested is None or requested <= 0:
            return self.max_results
        return min(requested, self.max_results)


def parse_block(text: str, family: AddressFamily = IPV4) -> int:
    """A block id from a block-length CIDR, a bare IP, or an integer.

    The block length is the family's classification unit: /24 for
    IPv4, /48 for IPv6.
    """
    text = text.strip()
    if "/" in text:
        try:
            prefix = family.parse_prefix(text)
        except ValueError as error:  # AddressError and Ipv6Error
            raise QueryError(str(error)) from error
        if prefix.length != family.block_prefix_length:
            raise QueryError(
                f"point queries are per /{family.block_prefix_length} "
                f"({family.name}); got /{prefix.length}"
            )
        return prefix.first_block()
    try:
        if "." in text or ":" in text:
            return family.block_of_ip(family.parse_ip(text))
        block = int(text)
    except ValueError as error:
        raise QueryError(
            f"not a /{family.block_prefix_length}, IP or block id: "
            f"{text!r}"
        ) from error
    if not 0 <= block < family.num_blocks:
        raise QueryError(
            f"block id {block} is outside the {family.name} block space "
            f"[0, 2**{family.block_prefix_length})"
        )
    return block


class MetaTelescopeService:
    """The socket-free query engine every front end shares."""

    def __init__(
        self,
        handle: SnapshotHandle | None = None,
        pfx2as=None,
        geodb=None,
        health_provider: Callable[[], Any] | None = None,
        context: RunContext | None = None,
        budget: QueryBudget | None = None,
        max_inflight: int = 64,
        delta_store=None,
    ) -> None:
        self.handle = handle if handle is not None else SnapshotHandle()
        self.pfx2as = pfx2as
        self.geodb = geodb
        #: Callable returning the producing engine's HealthReport (the
        #: PR-1 machinery), or None when serving a static snapshot.
        self.health_provider = health_provider
        self.context = context
        self.budget = budget if budget is not None else QueryBudget()
        self.max_inflight = max_inflight
        #: Optional :class:`~repro.core.snapshot_store.SnapshotDeltaStore`
        #: fed one delta per :meth:`publish` (the year-scale archive).
        self.delta_store = delta_store
        self.queries_served = 0
        self.queries_shed = 0
        self.publishes = 0
        self._inflight = 0
        self._stats_lock = threading.Lock()
        self._memo: RenderedRows | None = None

    # -- publishing ----------------------------------------------------

    def publish(
        self, snapshot: ClassificationSnapshot
    ) -> ClassificationSnapshot:
        """Enrich (AS/geo, if datasets are attached) and swap in.

        Enrichment happens on the writer's side, before the atomic
        swap, so queries never pay for it.
        """
        started = time.perf_counter()
        stamped = self.handle.publish(
            snapshot.enrich(pfx2as=self.pfx2as, geodb=self.geodb)
        )
        if self.delta_store is not None:
            self.delta_store.append(stamped)
        self._note_publish(stamped, started)
        return stamped

    def publish_path(
        self, path: str | Path, verify: bool = True
    ) -> ClassificationSnapshot:
        """Serve straight off a flowpack-persisted ``snapshot.fpk``.

        The opened snapshot's columns are zero-copy, read-only views of
        the mapped file (:meth:`ClassificationSnapshot.open`), so N processes serving
        the same file share one page-cache copy instead of N heap
        copies; point and range queries run their ``searchsorted``
        probes directly on the mapped arrays.  The file's own stamped
        version is **adopted**, not re-stamped — every process serving
        this artifact answers with the same version — and no
        enrichment runs (a persisted snapshot is already enriched).
        ``verify=False`` skips the CRC pass (e.g. a fleet worker
        re-opening a file its supervisor just wrote and verified).
        """
        started = time.perf_counter()
        snapshot = ClassificationSnapshot.open(path, verify=verify)
        adopted = self.handle.adopt(snapshot)
        self._note_publish(adopted, started)
        return adopted

    def _note_publish(
        self, stamped: ClassificationSnapshot, started: float
    ) -> None:
        self._memo = None  # the next query renders for the new version
        with self._stats_lock:
            self.publishes += 1
        if self.context is not None:
            self.context.emit(
                "publish",
                f"v{stamped.version}",
                time.perf_counter() - started,
                rows_out=len(stamped),
                meta={"day": stamped.day, "version": stamped.version},
            )

    # -- load-shed accounting -----------------------------------------

    def admit(self) -> bool:
        """Admit one query, or shed it (caller answers 503)."""
        with self._stats_lock:
            if self._inflight >= self.max_inflight:
                self.queries_shed += 1
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._stats_lock:
            self._inflight -= 1
            self.queries_served += 1

    # -- queries (each grabs ONE snapshot reference) -------------------
    #
    # Each public query is ``json.loads`` of the exact text the daemon
    # writes.  The private form validates its arguments against the
    # grabbed snapshot and returns the renderer without running it: the
    # daemon answers a matching ``If-None-Match`` in between, so a 304
    # costs no lookup and no rendering.  Every answer carries the
    # ``snapshot_version`` it came from (the daemon's ``ETag``).

    def _require(self) -> ClassificationSnapshot:
        snapshot = self.handle.current()
        if snapshot is None:
            raise LookupError("no snapshot published yet")
        return snapshot

    def _rendered(self, snapshot: ClassificationSnapshot) -> RenderedRows:
        """``snapshot``'s row text, memoised for the served one only."""
        memo = self._memo
        if memo is None or memo.snapshot is not snapshot:
            memo = self._memo = RenderedRows(snapshot)
        return memo

    def point(self, target: str) -> dict[str, Any]:
        """Is this block dark?  Since when?  With what confidence?"""
        return json.loads(self._point(self._require(), target)())

    def _point(self, snapshot: ClassificationSnapshot, target: str) -> Render:
        block = parse_block(target, snapshot.address_family)
        return lambda: (
            self._rendered(snapshot).point(block)[:-1]
            + f', "snapshot_version": {snapshot.version}, '
            f'"snapshot_day": {snapshot.day}}}'
        )

    def _listing(
        self,
        snapshot: ClassificationSnapshot,
        rows: range | np.ndarray,
        limit: int | None,
        tag: str = "",
    ) -> str:
        """The list envelope over ``rows``, capped by the budget;
        ``tag`` is the endpoint's own ``"name": value, `` member."""
        cap = self.budget.clamp(limit)
        return (
            f'{{"total": {len(rows)}, '
            f'"truncated": {"true" if len(rows) > cap else "false"}, '
            f'"rows": [{self._rendered(snapshot).join(rows[:cap])}], '
            f'{tag}"snapshot_version": {snapshot.version}}}'
        )

    def range(
        self,
        start: int | None = None,
        end: int | None = None,
        prefix: str | None = None,
        limit: int | None = None,
    ) -> dict[str, Any]:
        """All classified blocks in a block range or covering prefix."""
        return json.loads(
            self._range(self._require(), start, end, prefix, limit)()
        )

    def _range(
        self,
        snapshot: ClassificationSnapshot,
        start: int | None,
        end: int | None,
        prefix: str | None,
        limit: int | None,
    ) -> Render:
        if prefix is not None:
            family = snapshot.address_family
            try:
                parsed = family.parse_prefix(prefix)
            except ValueError as error:  # AddressError and Ipv6Error
                raise QueryError(str(error)) from error
            if parsed.length > family.block_prefix_length:
                raise QueryError(
                    f"requested /{parsed.length} prefix {prefix} is more "
                    f"specific than this {snapshot.family} snapshot's "
                    f"/{family.block_prefix_length} blocks"
                )
            start = parsed.first_block()
            end = start + parsed.num_blocks() - 1
        elif start is not None and end is not None:
            if end < start:
                raise QueryError(f"empty range: start {start} > end {end}")
        else:
            raise QueryError("range needs ?prefix= or ?start=&end=")
        return lambda: self._listing(
            snapshot, range(*snapshot.row_span(start, end)), limit
        )

    def by_as(self, asn: int, limit: int | None = None) -> dict[str, Any]:
        """All classified blocks originated by ``asn`` (needs an
        AS-enriched snapshot, i.e. a service with a ``pfx2as``)."""
        return json.loads(self._by_as(self._require(), asn, limit)())

    def _by_as(
        self, snapshot: ClassificationSnapshot, asn: int, limit: int | None
    ) -> Render:
        return lambda: self._listing(
            snapshot, np.flatnonzero(snapshot.asns == asn), limit,
            tag=f'"asn": {asn}, ',
        )

    def by_geo(
        self, country: str, limit: int | None = None
    ) -> dict[str, Any]:
        """All classified blocks geolocated to ``country`` (needs a
        geo-enriched snapshot)."""
        return json.loads(self._by_geo(self._require(), country, limit)())

    def _by_geo(
        self, snapshot: ClassificationSnapshot, country: str, limit: int | None
    ) -> Render:
        code = country.strip().upper().encode()
        return lambda: self._listing(
            snapshot, np.flatnonzero(snapshot.countries == code), limit,
            tag=f'"country": {json.dumps(country.upper())}, ',
        )

    def diff(self, since: int) -> dict[str, Any]:
        """What changed since version ``since``.

        When the base has been evicted from the handle's history the
        answer says so (``"base_retained": false``) and carries the
        current version, so the client knows to re-fetch in full.
        """
        return json.loads(self._diff(self._require(), since)())

    def _diff(self, snapshot: ClassificationSnapshot, since: int) -> Render:
        def render() -> str:
            base = self.handle.at_version(since)
            # Diff against the one grabbed snapshot, not the handle's
            # current one — a racing publish must never mix two versions in one answer.
            if base is None:
                answer = {
                    "base_retained": False,
                    "since": since,
                    "version": snapshot.version,
                    "day": snapshot.day,
                }
            else:
                answer = snapshot.diff(base).to_dict()
                answer["base_retained"] = True
            answer["snapshot_version"] = snapshot.version
            return json.dumps(answer)

        return render

    def snapshot_info(self) -> dict[str, Any]:
        """Metadata of the currently served snapshot."""
        return json.loads(self._info(self._require())())

    def _info(self, snapshot: ClassificationSnapshot) -> Render:
        return lambda: json.dumps({
            "version": snapshot.version,
            "day": snapshot.day,
            "family": snapshot.family,
            "blocks": len(snapshot),
            "verdicts": snapshot.verdict_counts(),
            "provenance": dict(snapshot.provenance),
            "diffable_versions": self.handle.versions_retained(),
            "snapshot_version": snapshot.version,
        })

    def healthz(self) -> tuple[bool, dict[str, Any]]:
        """Liveness verdict plus the producing engine's health."""
        snapshot = self.handle.current()
        body: dict[str, Any] = {
            "serving": snapshot is not None,
            "version": snapshot.version if snapshot is not None else 0,
            "queries_served": self.queries_served,
            "queries_shed": self.queries_shed,
            "publishes": self.publishes,
        }
        ok = snapshot is not None
        if self.health_provider is not None:
            report = self.health_provider()
            if report is not None:
                body["health"] = report.summary()
                body["health_ok"] = report.ok()
                body["staleness"] = report.current_staleness
                body["quarantined"] = len(report.quarantined_blocks)
        return ok, body


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------

_STATUS_TEXT = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    431: "Request Header Fields Too Large",
    503: "Service Unavailable",
}

#: Seconds a client may take from the first byte of a request head to
#: its blank line before the connection is closed.  An idle keep-alive
#: connection is not on the clock until its next request starts.
HEAD_TIMEOUT_S = 10.0
#: Header lines one request may carry; one more is answered 431.  (A
#: single line is capped by the stream reader's 64 KiB limit, also 431.)
MAX_HEADERS = 100


class _HeadTooLarge(Exception):
    """A request head over a line or header-count limit (HTTP 431)."""


async def _read_head(
    reader: asyncio.StreamReader, first: bytes
) -> tuple[str, str, str, dict[str, str]] | None:
    """The rest of the request head whose first byte is ``first``:
    method, target, version and lower-cased headers.  None for a
    malformed request line, which is answered before any header is
    read."""
    try:
        line = first if first == b"\n" else first + await reader.readline()
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):  # GET: no body follows
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                return method, target, version, headers
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    except ValueError as error:  # a line past the reader's limit
        raise _HeadTooLarge("request head line too long") from error
    raise _HeadTooLarge(f"more than {MAX_HEADERS} header lines")


def _error(message: str) -> str:
    return json.dumps({"error": message})


def _response(
    status: int,
    body: str,
    keep_alive: bool,
    etag: str | None = None,
) -> bytes:
    """One HTTP response around a JSON body text.  A ``Connection``
    header is always emitted so HTTP/1.0 clients learn whether their
    keep-alive request was honored; ``304`` answers carry no body
    (RFC 9110) but repeat the ``ETag`` the cache validated against."""
    payload = body.encode()
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {connection}\r\n"
        + (f"ETag: {etag}\r\n" if etag is not None else "")
        + ("Retry-After: 1\r\n" if status == 503 else "")
        + "\r\n"
    )
    return head.encode() + payload


def _first_int(params: dict[str, list[str]], name: str) -> int | None:
    values = params.get(name)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError as error:
        raise QueryError(f"{name} must be an integer: {values[0]!r}") from error


def _first(params: dict[str, list[str]], name: str) -> str | None:
    values = params.get(name)
    return values[0] if values else None


class ServiceDaemon:
    """Asyncio HTTP/1.1 JSON daemon over a :class:`MetaTelescopeService`."""

    def __init__(
        self,
        service: MetaTelescopeService,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: Bind with ``SO_REUSEPORT`` so several daemon *processes*
        #: share one port and the kernel load-balances accepts — the
        #: fleet mode (:mod:`repro.service.fleet`).
        self.reuse_port = reuse_port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._client, self.host, self.port,
            reuse_port=self.reuse_port or None,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, let in-flight queries
        finish (up to ``timeout``), then close idle keep-alive
        connections."""
        await self.stop()
        deadline = time.monotonic() + timeout
        while self.service._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._connections):
            writer.close()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ---------------------------------------------

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        loop = asyncio.get_running_loop()
        try:
            while True:
                # Waiting for a request is not on the clock: an idle
                # keep-alive connection stays open.
                first = await reader.read(1)
                if not first:
                    break
                # One timer per head (not a wait_for per line, which
                # costs a Task each): a stalled head wakes with it.
                deadline = loop.call_later(
                    HEAD_TIMEOUT_S, reader.set_exception,
                    TimeoutError("request head timed out"),
                )
                try:
                    head = await _read_head(reader, first)
                except _HeadTooLarge as error:
                    writer.write(_response(431, _error(str(error)), False))
                    break
                finally:
                    deadline.cancel()
                if head is None:
                    writer.write(
                        _response(400, _error("malformed request"), False)
                    )
                    break
                method, target, version, headers = head
                # Keep-alive: an explicit Connection header wins in
                # either direction (an HTTP/1.0 client may ask for
                # keep-alive, an HTTP/1.1 client for close); only in
                # its absence does the protocol default decide.
                tokens = {
                    token.strip().lower()
                    for token in headers.get("connection", "").split(",")
                    if token.strip()
                }
                if "close" in tokens:
                    keep_alive = False
                elif "keep-alive" in tokens:
                    keep_alive = True
                else:
                    keep_alive = version.upper() != "HTTP/1.0"
                status, body, etag = self._dispatch(method, target, headers)
                writer.write(_response(status, body, keep_alive, etag=etag))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _dispatch(
        self,
        method: str,
        target: str,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, str, str | None]:
        """``(status, JSON body text, ETag)`` for one request."""
        started = time.perf_counter()
        headers = headers or {}
        if method != "GET":
            return 405, _error(f"method {method} not allowed"), None
        try:
            split = urlsplit(target)
        except ValueError as error:
            return 400, _error(f"malformed request target: {error}"), None
        path = split.path.rstrip("/") or "/"
        if path == "/healthz":
            ok, body = self.service.healthz()
            return (200 if ok else 503), json.dumps(body), None
        if not self.service.admit():
            return 503, _error("overloaded; retry"), None
        etag = None
        try:
            params = parse_qs(split.query)
            answer = self._conditional(path, params) or self._route(
                path, params
            )
            if answer is None:
                status, body = 404, _error(f"no such endpoint: {path}")
            else:
                # Every /v1/* answer is a pure function of the URL and
                # the version it came from, which is what an entity tag
                # asserts; a match costs no lookup and no rendering.
                version, render = answer
                tag = f'"v{version}"'
                if headers.get("if-none-match") == tag:
                    status, body = 304, ""
                else:
                    status, body = 200, render()
                etag = tag
        except (QueryError, AddressError) as error:
            status, body = 400, _error(str(error))
        except LookupError as error:
            status, body = 503, _error(str(error))
        finally:
            self.service.release()
        if self.service.context is not None:
            self.service.context.emit(
                "query",
                path,
                time.perf_counter() - started,
                meta={"status": status},
            )
        return status, body, etag

    def _conditional(
        self, path: str, params: dict[str, list[str]]
    ) -> tuple[int, Render] | None:
        """The ``?if_version_changed=V`` short-circuit on ``/v1/*``.

        When the served version still equals ``V`` the (possibly
        expensive) query never runs — the polling client gets a tiny
        304-equivalent JSON payload instead.  Returns None when the
        query should proceed normally."""
        if not path.startswith("/v1/"):
            return None
        since = _first_int(params, "if_version_changed")
        if since is None:
            return None
        version = self.service.handle.version()
        if version == 0 or version != since:
            return None  # unpublished (let the query 503) or changed
        return version, lambda: (
            f'{{"not_modified": true, "snapshot_version": {version}}}'
        )

    def _route(
        self, path: str, params: dict[str, list[str]]
    ) -> tuple[int, Render] | None:
        """The version a ``/v1/*`` answer will carry and its renderer,
        with every parameter checked; None for an unknown endpoint.

        Parameters the URL alone can reject are checked before the
        snapshot is grabbed (400 even while unpublished), the rest
        against it."""
        service = self.service
        if path == "/v1/point":
            target = _first(params, "prefix") or _first(params, "block")
            if target is None:
                raise QueryError("point needs ?prefix= or ?block=")
            query = partial(service._point, target=target)
        elif path == "/v1/range":
            query = partial(
                service._range,
                start=_first_int(params, "start"),
                end=_first_int(params, "end"),
                prefix=_first(params, "prefix"),
                limit=_first_int(params, "limit"),
            )
        elif path == "/v1/as":
            asn = _first_int(params, "asn")
            if asn is None:
                raise QueryError("as needs ?asn=")
            query = partial(
                service._by_as, asn=asn, limit=_first_int(params, "limit")
            )
        elif path == "/v1/geo":
            country = _first(params, "country")
            if country is None:
                raise QueryError("geo needs ?country=")
            query = partial(
                service._by_geo,
                country=country,
                limit=_first_int(params, "limit"),
            )
        elif path == "/v1/diff":
            since = _first_int(params, "since")
            if since is None:
                raise QueryError("diff needs ?since=<version>")
            query = partial(service._diff, since=since)
        elif path == "/v1/snapshot":
            query = service._info
        else:
            return None
        snapshot = service._require()
        return snapshot.version, query(snapshot)


def run_daemon_in_thread(
    service: MetaTelescopeService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[ServiceDaemon, Callable[[], None]]:
    """Boot a daemon on a background event-loop thread.

    Returns ``(daemon, stop)`` once the socket is listening (the bound
    port is on ``daemon.port``).  This is what the tests, the benchmark
    and the CI smoke use; the ``serve`` CLI runs the loop in the
    foreground instead.
    """
    daemon = ServiceDaemon(service, host=host, port=port)
    started = threading.Event()
    boot_error: list[BaseException] = []
    loop = asyncio.new_event_loop()

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(daemon.start())
        except BaseException as error:  # surface bind failures to caller
            boot_error.append(error)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
            loop.run_until_complete(daemon.stop())
        finally:
            loop.close()

    thread = threading.Thread(
        target=runner, name="meta-telescope-daemon", daemon=True
    )
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("daemon failed to start listening in time")
    if boot_error:
        raise boot_error[0]

    def stop() -> None:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)

    return daemon, stop


# ---------------------------------------------------------------------------
# Background folding
# ---------------------------------------------------------------------------


class BackgroundFolder:
    """Folds vantage-days off the read path and publishes snapshots.

    Wraps an :class:`~repro.core.online.OnlineMetaTelescope`: each
    :meth:`fold` runs the (expensive) daily update, derives the new
    immutable snapshot, and publishes it through the service's handle —
    readers keep answering from the previous snapshot until the single
    atomic swap.  :meth:`start` drives a whole feed on a daemon thread,
    which is how ``serve`` keeps folding while the HTTP loop serves.
    """

    def __init__(self, online, service: MetaTelescopeService) -> None:
        self.online = online
        self.service = service
        if service.health_provider is None:
            service.health_provider = online.health_report
        self._thread: threading.Thread | None = None
        self.days_folded = 0
        self.error: BaseException | None = None

    def fold(self, day: int, views) -> ClassificationSnapshot:
        """Fold one day and publish the resulting snapshot."""
        self.online.update(day, views)
        snapshot = self.service.publish(self.online.snapshot())
        self.days_folded += 1
        return snapshot

    def start(
        self, feed: Iterable[tuple[int, list]]
    ) -> threading.Thread:
        """Fold ``(day, views)`` pairs on a background thread."""
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("a feed is already being folded")

        def runner() -> None:
            try:
                for day, views in feed:
                    self.fold(day, views)
            except BaseException as error:
                self.error = error

        self._thread = threading.Thread(
            target=runner, name="meta-telescope-folder", daemon=True
        )
        self._thread.start()
        return self._thread

    def join(self, timeout: float | None = None) -> None:
        """Wait for the background feed; re-raise its failure, if any."""
        if self._thread is not None:
            self._thread.join(timeout)
        if self.error is not None:
            raise self.error
