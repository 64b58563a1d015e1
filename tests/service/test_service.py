"""The query service: point/range/AS/geo/diff answers, budgets, HTTP."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.online import OnlineMetaTelescope
from repro.core.metatelescope import MetaTelescope
from repro.core.snapshot import build_snapshot
from repro.service import (
    MetaTelescopeService,
    QueryBudget,
    run_daemon_in_thread,
)
from repro.service.daemon import QueryError, ServiceDaemon, parse_block


@pytest.fixture(scope="module")
def served(request):
    """An online engine folded over three micro-world days, published."""
    world = request.getfixturevalue("world")
    observatory = request.getfixturevalue("observatory")
    online = OnlineMetaTelescope(
        telescope=MetaTelescope.for_world(world), window_days=3,
        min_stable_days=2,
    )
    service = MetaTelescopeService(
        pfx2as=world.datasets.pfx2as,
        geodb=world.datasets.geodb,
        health_provider=online.health_report,
        budget=QueryBudget(max_results=50),
    )
    for day in range(3):
        online.update(day, list(observatory.day(day).ixp_views.values()))
        service.publish(online.snapshot())
    return online, service


def test_parse_block():
    assert parse_block("1.2.3.0/24") == (1 << 16) | (2 << 8) | 3
    assert parse_block("1.2.3.4") == parse_block("1.2.3.0/24")
    assert parse_block("65536") == 65536
    with pytest.raises(QueryError):
        parse_block("1.2.0.0/16")  # not a /24
    with pytest.raises(QueryError):
        parse_block("")


def test_point_parity_with_engine(served):
    online, service = served
    serving = online.current_prefixes()
    for block in serving[:: max(1, len(serving) // 25)]:
        answer = service.point(str(int(block)))
        assert answer["dark"] and answer["verdict"] == "dark"
    # An address far outside the world is unknown, never an error.
    assert service.point("255.255.255.0/24")["verdict"] == "unknown"


def test_snapshot_dark_set_equals_engine_serving_set(served):
    online, service = served
    np.testing.assert_array_equal(
        service.handle.current().dark_blocks,
        np.sort(online.current_prefixes()),
    )


def test_range_budget_truncation(served):
    _, service = served
    snapshot = service.handle.current()
    full = service.range(
        start=int(snapshot.blocks[0]), end=int(snapshot.blocks[-1])
    )
    assert full["total"] == len(snapshot)
    assert full["truncated"] and len(full["rows"]) == 50  # budget cap
    small = service.range(
        start=int(snapshot.blocks[0]), end=int(snapshot.blocks[0])
    )
    assert small["total"] == 1 and not small["truncated"]


def answer(service, target: str) -> dict:
    """The daemon's text answer to ``GET target``, decoded."""
    status, body, _ = ServiceDaemon(service)._dispatch("GET", target)
    assert status == 200, body
    return json.loads(body)


def test_by_as_and_geo(served):
    _, service = served
    snapshot = service.handle.current()
    asn = int(snapshot.asns[snapshot.asns >= 0][0])
    by_as = answer(service, f"/v1/as?asn={asn}&limit=5")
    assert by_as["total"] > 0
    assert all(row["asn"] == asn for row in by_as["rows"])
    country = snapshot.countries[snapshot.countries != b"??"][0].decode()
    by_geo = answer(service, f"/v1/geo?country={country}&limit=5")
    assert by_geo["total"] > 0
    assert all(row["country"] == country for row in by_geo["rows"])


def test_diff_feed(served):
    _, service = served
    current_version = service.handle.version()
    same = answer(service, f"/v1/diff?since={current_version}")
    assert same["base_retained"]
    assert same["added_dark"] == [] and same["removed_dark"] == []
    earlier = answer(service, "/v1/diff?since=1")
    assert earlier["base_retained"]
    evicted = answer(service, "/v1/diff?since=999")
    assert not evicted["base_retained"]


def test_healthz_reports_engine_health(served):
    _, service = served
    ok, body = service.healthz()
    assert ok and body["serving"]
    assert body["health_ok"] and body["staleness"] == 0
    assert body["publishes"] == 3


def test_load_shed():
    service = MetaTelescopeService(max_inflight=1)
    service.publish(build_snapshot(0, np.array([5], dtype=np.int64)))
    assert service.admit()
    assert not service.admit()  # second concurrent query is shed
    service.release()
    assert service.admit()
    service.release()
    assert service.queries_shed == 1


def test_empty_service_has_no_answer():
    service = MetaTelescopeService()
    with pytest.raises(LookupError):
        service.point("1.2.3.0/24")
    ok, body = service.healthz()
    assert not ok and not body["serving"]


def test_http_round_trip(served):
    _, service = served
    daemon, stop = run_daemon_in_thread(service)
    try:
        base = daemon.base_url

        def get(path):
            with urllib.request.urlopen(base + path, timeout=10) as reply:
                return reply.status, json.loads(reply.read())

        snapshot = service.handle.current()
        block = int(snapshot.dark_blocks[0])
        status, answer = get(f"/v1/point?block={block}")
        assert status == 200 and answer["dark"]
        assert answer == service.point(str(block))

        status, info = get("/v1/snapshot")
        assert status == 200 and info["version"] == snapshot.version

        status, health = get("/healthz")
        assert status == 200 and health["serving"]

        with pytest.raises(urllib.error.HTTPError) as bad:
            get("/v1/point?prefix=not-a-prefix")
        assert bad.value.code == 400

        with pytest.raises(urllib.error.HTTPError) as missing:
            get("/v1/nothing-here")
        assert missing.value.code == 404
    finally:
        stop()
