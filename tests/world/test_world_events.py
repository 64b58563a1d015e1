"""Tests for world events: flash re-activation and steering."""

import numpy as np
import pytest

from repro.bgp.events import RouteEvent
from repro.net.ipv4 import Prefix
from repro.traffic.flows import FlowTable
from repro.traffic.mix import DailyTrafficMix
from repro.traffic.spoofing import TargetedSpoofFlood
from repro.world.scenarios import FlashReactivation, SteeredTrafficMix


class _ConstantActor:
    """Emits the same single flow every day (test double)."""

    def generate(self, day, rng):
        return FlowTable(
            src_ip=np.array([0x0A000001], dtype=np.uint32),
            dst_ip=np.array([0x0B000001], dtype=np.uint32),
            proto=np.array([6], dtype=np.uint8),
            dport=np.array([80], dtype=np.uint16),
            packets=np.array([3], dtype=np.int64),
            bytes=np.array([120], dtype=np.int64),
            sender_asn=np.array([100], dtype=np.int32),
            dst_asn=np.array([200], dtype=np.int32),
            spoofed=np.array([False]),
        )


class TestFlashReactivation:
    def flash(self, start_day=1):
        return FlashReactivation(
            blocks=np.arange(5000, 5016, dtype=np.int64),
            asns=np.full(16, 300, dtype=np.int32),
            remote_ips=np.array([0x0C000001, 0x0C000002], dtype=np.uint32),
            remote_asns=np.array([400, 401], dtype=np.int32),
            inbound_pkts_per_day=2000.0,
            start_day=start_day,
        )

    def test_requires_blocks(self):
        with pytest.raises(ValueError):
            FlashReactivation(
                blocks=np.empty(0, dtype=np.int64),
                asns=np.empty(0, dtype=np.int32),
                remote_ips=np.array([1], dtype=np.uint32),
                remote_asns=np.array([1], dtype=np.int32),
                inbound_pkts_per_day=100.0,
                start_day=0,
            )

    def test_dark_until_the_flash(self, rng):
        actor = self.flash(start_day=1)
        assert len(actor.generate(0, rng)) == 0
        flows = actor.generate(1, rng)
        assert len(flows) > 0
        # Production is two-way: inbound rows land in the lit blocks,
        # outbound rows head for the remote peers.
        inbound = np.isin(flows.dst_ip >> 8, actor.blocks)
        assert inbound.any()
        assert np.isin(flows.dst_ip[~inbound] >> 8, actor.remote_ips >> 8).all()

    def test_traffic_looks_like_production(self, rng):
        flows = self.flash().generate(2, rng)
        inbound = np.isin(flows.dst_ip >> 8, self.flash().blocks)
        mean_size = (flows.bytes / flows.packets)[inbound].mean()
        assert mean_size > 44.0


class TestSteeredTrafficMix:
    def event(self, days={1}):
        return RouteEvent(
            prefix=Prefix.from_ip(0x0B000000, 16),
            by_asn=64999,
            days=frozenset(days),
        )

    def steered(self, shift_share=1.0):
        mix = DailyTrafficMix()
        mix.add(_ConstantActor())
        return SteeredTrafficMix(
            base=mix, event=self.event(), shift_share=shift_share
        )

    def test_rejects_bad_share(self):
        with pytest.raises(ValueError):
            self.steered(shift_share=0.0)

    def test_off_event_days_pass_through(self, rng):
        flows = self.steered().generate_day(0, rng)
        assert flows.dst_asn[0] == 200

    def test_event_day_steers_dst_asn(self, rng):
        flows = self.steered(shift_share=1.0).generate_day(1, rng)
        assert flows.dst_asn[0] == 64999


class TestTargetedSpoofFlood:
    def flood(self, **overrides):
        defaults = dict(
            target_blocks=np.arange(7000, 7008, dtype=np.int64),
            attacker_asns=np.array([900], dtype=np.int32),
            victim_ips=np.array([0x0D000001], dtype=np.uint32),
            victim_asns=np.array([500], dtype=np.int32),
            pkts_per_block_day=400,
        )
        defaults.update(overrides)
        return TargetedSpoofFlood(**defaults)

    def test_impersonates_every_target(self, rng):
        flood = self.flood()
        flows = flood.generate(0, rng)
        assert flows.spoofed.all()
        impersonated = np.unique(flows.src_ip >> 8)
        assert np.array_equal(impersonated, flood.target_blocks)

    def test_volume_far_above_tolerance(self, rng):
        flows = self.flood().generate(0, rng)
        per_block = {}
        for block, pkts in zip(flows.src_ip >> 8, flows.packets):
            per_block[block] = per_block.get(block, 0) + pkts
        assert min(per_block.values()) >= 300

    def test_silent_before_start_day(self, rng):
        assert len(self.flood(start_day=2).generate(1, rng)) == 0
