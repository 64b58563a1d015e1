"""IPv6 snapshots behind the query service, and structured query errors.

Covers the satellite fix: asking for something more specific than the
snapshot's block length is a *client* mistake — the error must name the
requested prefix length and the snapshot's family, and the HTTP layer
must answer 400, not 500.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core.ipv6_telescope import infer_ipv6
from repro.net.family import IPV6
from repro.service import MetaTelescopeService, run_daemon_in_thread
from repro.service.daemon import QueryError, parse_block
from repro.world.ipv6 import ipv6_views, micro_ipv6_world


@pytest.fixture(scope="module")
def report():
    world = micro_ipv6_world(seed=7)
    return infer_ipv6(world, ipv6_views(world))


@pytest.fixture(scope="module")
def service(report):
    service = MetaTelescopeService()
    service.publish(report.snapshot)
    return service


class TestV6Queries:
    def test_point_by_site_prefix(self, service, report):
        site = int(report.served_sites[0])
        answer = service.point(IPV6.format_block(site))
        assert answer["dark"]
        assert answer["prefix"].endswith("/48")

    def test_point_by_address(self, service, report):
        site = int(report.served_sites[0])
        ip = IPV6.block_to_ip(site) + 5
        assert service.point(IPV6.format_ip(ip))["dark"]

    def test_point_rejects_wrong_length(self, service):
        with pytest.raises(QueryError, match="/48"):
            service.point("2001:d00::/40")

    def test_parse_block_v6(self):
        site = IPV6.parse_prefix("2001:d00:42::/48").first_block()
        assert parse_block("2001:d00:42::/48", IPV6) == site
        assert parse_block("2001:d00:42::1", IPV6) == site

    def test_range_by_org_prefix(self, service, report):
        # One org's /40 covers a contiguous band of /48 sites.
        org_prefix = "2001:d00::/40"
        answer = service.range(prefix=org_prefix)
        parsed = IPV6.parse_prefix(org_prefix)
        for row in answer["rows"]:
            assert row["block"] in parsed.blocks()


class TestStructuredErrors:
    def test_range_family_mismatch_is_query_error(self, service):
        # An IPv4 prefix against IPv6 blocks is a client mistake too.
        with pytest.raises(QueryError, match="10.0.0.0"):
            service.range(prefix="10.0.0.0/24")

    def test_service_range_too_specific_is_query_error(self, service):
        # QueryError (HTTP 400), never a bare ValueError (HTTP 500).
        with pytest.raises(QueryError) as excinfo:
            service.range(prefix="2001:d00::/56")
        message = str(excinfo.value)
        assert "/56" in message and "/48" in message and "ipv6" in message

    def test_http_too_specific_is_400_with_details(self, service):
        daemon, stop = run_daemon_in_thread(service)
        try:
            quoted = urllib.parse.quote("2001:d00::/56", safe="")
            url = f"{daemon.base_url}/v1/range?prefix={quoted}"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=10)
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert "/56" in body["error"]
            assert "ipv6" in body["error"]
        finally:
            stop()

    def test_http_v6_point_round_trip(self, service, report):
        daemon, stop = run_daemon_in_thread(service)
        try:
            site = int(report.served_sites[0])
            quoted = urllib.parse.quote(IPV6.format_block(site), safe="")
            url = f"{daemon.base_url}/v1/point?block={quoted}"
            with urllib.request.urlopen(url, timeout=10) as reply:
                assert reply.status == 200
                answer = json.loads(reply.read())
            assert answer["dark"]
        finally:
            stop()
