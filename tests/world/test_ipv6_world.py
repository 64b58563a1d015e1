"""Tests for the IPv6 world simulator (repro.world.ipv6)."""

import numpy as np
import pytest

from repro.core.ipv6_candidates import ipv6_candidate_sites
from repro.net.family import IPV6
from repro.world.ipv6 import (
    LEAK_ASN,
    LEAKED_SITE,
    Ipv6WorldConfig,
    build_ipv6_world,
    ipv6_day_view,
    ipv6_views,
    micro_ipv6_config,
    micro_ipv6_world,
    small_ipv6_config,
)


def observed_sites(view) -> set[int]:
    return set(IPV6.block_of(view.flows.dst_ip).tolist())


class TestBuild:
    def test_deterministic(self):
        a = micro_ipv6_world(seed=7)
        b = micro_ipv6_world(seed=7)
        assert a.orgs == b.orgs
        assert a.hitlist_sites == b.hitlist_sites
        assert a.scanner_sites == b.scanner_sites

    def test_seed_changes_world(self):
        assert micro_ipv6_world(seed=7).orgs != micro_ipv6_world(seed=8).orgs

    def test_org_space_is_global_unicast_and_int64_safe(self):
        world = build_ipv6_world(small_ipv6_config())
        for org in world.orgs:
            assert org.prefix.length == 40
            for site in org.sites:
                # All engine keys must stay below 2**63 (int64-safe).
                assert (site << 16) < (1 << 63)
                assert site in org.prefix.blocks()
        for site in world.scanner_sites:
            assert (site << 16) < (1 << 63)

    def test_site_roles_partition(self):
        world = build_ipv6_world(small_ipv6_config())
        for org in world.orgs:
            roles = (
                set(org.dark_sites) | set(org.quiet_sites) | set(org.loud_sites)
            )
            assert len(roles) == len(org.sites)

    def test_hitlist_is_incomplete_subset_of_active(self):
        world = build_ipv6_world(small_ipv6_config())
        active = frozenset(site for org in world.orgs for site in org.active_sites)
        assert world.hitlist_sites < active

    def test_never_announced_orgs_excluded_from_truth(self):
        world = build_ipv6_world(small_ipv6_config())
        never = [org for org in world.orgs if org.announce_day is None]
        assert len(never) == world.config.unannounced_orgs
        dark = world.dark_sites()
        for org in never:
            assert not dark & set(org.dark_sites)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Ipv6WorldConfig(sites_per_org=4, dark_sites_per_org=3, quiet_sites_per_org=1)


class TestRouting:
    def test_bgp_reactive_announcements(self):
        world = micro_ipv6_world(seed=7)
        late = [org for org in world.orgs if org.announce_day]
        assert late, "micro config should include a late announcer"
        org = late[0]
        day0 = world.collector.daily_table(0)
        after = world.collector.daily_table(org.announce_day)
        assert not any(a.prefix == org.prefix for a in day0.announcements)
        assert any(a.prefix == org.prefix for a in after.announcements)

    def test_route_leak_announced(self):
        world = micro_ipv6_world(seed=7)
        table = world.collector.daily_table(0)
        leak = [a for a in table.announcements if a.origin_asn == LEAK_ASN]
        assert len(leak) == 1
        assert str(leak[0].prefix) == "2001:db8::/32"


class TestTraffic:
    def test_day_view_deterministic_across_builds(self):
        va = ipv6_day_view(micro_ipv6_world(seed=7), 1)
        vb = ipv6_day_view(micro_ipv6_world(seed=7), 1)
        assert len(va.flows) == len(vb.flows)
        for name in va.flows.columns():
            assert np.array_equal(
                getattr(va.flows, name), getattr(vb.flows, name)
            ), name

    def test_views_are_ipv6(self):
        for view in ipv6_views(micro_ipv6_world(seed=7)):
            assert view.flows.family == "ipv6"
            assert view.vantage == "V6IX"

    def test_scanners_react_to_announcements(self):
        world = micro_ipv6_world(seed=7)
        late = [org for org in world.orgs if org.announce_day][0]
        before = observed_sites(ipv6_day_view(world, 0))
        after = observed_sites(ipv6_day_view(world, late.announce_day))
        assert not before & set(late.sites)
        assert after & set(late.sites)

    def test_stale_replay_reaches_unannounced_space(self):
        world = micro_ipv6_world(seed=7)
        never = [org for org in world.orgs if org.announce_day is None][0]
        assert observed_sites(ipv6_day_view(world, 0)) & set(never.sites)

    def test_leaked_site_observed(self):
        world = micro_ipv6_world(seed=7)
        assert LEAKED_SITE in observed_sites(ipv6_day_view(world, 0))

    def test_flood_dwarfs_scan_volume(self):
        world = micro_ipv6_world(seed=7)
        view = ipv6_day_view(world, 0)
        blocks = IPV6.block_of(view.flows.dst_ip)
        flood_pkts = int(view.flows.packets[blocks == world.flood_site].sum())
        assert flood_pkts >= world.config.flood_packets

    def test_udp_only_site_gets_no_tcp(self):
        world = micro_ipv6_world(seed=7)
        view = ipv6_day_view(world, 0)
        blocks = IPV6.block_of(view.flows.dst_ip)
        protos = set(view.flows.proto[blocks == world.udp_only_site].tolist())
        assert protos and 6 not in protos


class TestCandidateDrops:
    """Seed-stability pins for the /48 candidate filter (satellite 3)."""

    @staticmethod
    def drops(world, views):
        observed_dst: set[int] = set()
        observed_src: set[int] = set()
        for view in views:
            observed_dst |= observed_sites(view)
            observed_src |= set(IPV6.block_of(view.flows.src_ip).tolist())
        last = world.config.num_days - 1
        return ipv6_candidate_sites(
            observed_dst,
            observed_src,
            world.collector.daily_table(last),
            world.hitlist_sites,
        )

    def test_micro_seed7_pinned_counts(self):
        world = micro_ipv6_world(seed=7)
        result = self.drops(world, ipv6_views(world))
        assert result.observed == 25
        assert result.dropped_unannounced == 4
        assert result.dropped_hitlist == 6
        assert result.dropped_sources == 0
        assert len(result.candidate_sites) == 15

    def test_small_seed7_pinned_counts(self):
        world = build_ipv6_world(small_ipv6_config(seed=7))
        result = self.drops(world, ipv6_views(world))
        assert result.observed == 73
        assert result.dropped_unannounced == 6
        assert result.dropped_hitlist == 22
        assert result.dropped_sources == 7
        assert len(result.candidate_sites) == 38

    def test_drop_accounting_balances(self):
        for seed in (7, 11, 23):
            world = micro_ipv6_world(seed=seed)
            result = self.drops(world, ipv6_views(world))
            assert result.observed == (
                len(result.candidate_sites)
                + result.dropped_unannounced
                + result.dropped_hitlist
                + result.dropped_sources
            )

    def test_leaked_site_survives_candidate_filter(self):
        # The candidate filter only checks routedness — the leak makes
        # documentation space "routed", so the *special* stage of the
        # engine is what must drop it (covered in the e2e tests).
        world = micro_ipv6_world(seed=7)
        result = self.drops(world, ipv6_views(world))
        assert LEAKED_SITE in result.candidate_sites
