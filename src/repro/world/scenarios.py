"""Canonical worlds at the three scales, plus adversarial world events.

Benches and tests share worlds through the cached factories so a pytest
session builds each scale at most once per seed.  The cached worlds are
shared and must never be mutated; the robustness catalog
(:mod:`repro.robustness`) therefore builds *fresh* worlds and applies
the world events defined here — flash re-activation of dark space and
mid-day route leaks/hijacks steering traffic between vantages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.bgp.events import RouteEvent
from repro.traffic.flows import FlowTable
from repro.traffic.mix import DailyTrafficMix
from repro.traffic.production import ProductionTraffic
from repro.world.builder import World, build_world
from repro.world.config import (
    micro_config,
    paper_config,
    small_config,
)
from repro.world.observe import Observatory


@lru_cache(maxsize=4)
def paper_world(seed: int = 7) -> World:
    """The benchmark-scale world (the paper's setting, scaled)."""
    return build_world(paper_config(seed))


@lru_cache(maxsize=4)
def small_world(seed: int = 7) -> World:
    """Integration-test scale world."""
    return build_world(small_config(seed))


@lru_cache(maxsize=4)
def micro_world(seed: int = 7) -> World:
    """Unit-test scale world."""
    return build_world(micro_config(seed))


@lru_cache(maxsize=4)
def paper_observatory(seed: int = 7) -> Observatory:
    """Shared observation cache over the benchmark-scale world."""
    return Observatory(paper_world(seed))


@lru_cache(maxsize=4)
def small_observatory(seed: int = 7) -> Observatory:
    """Shared observation cache over the small world."""
    return Observatory(small_world(seed))


# -- world events ------------------------------------------------------
#
# Events change what the world *does* mid-campaign without changing how
# it was built: they are applied to fresh (never cached) worlds by the
# robustness catalog.


@dataclass(slots=True)
class FlashReactivation:
    """A provider lights up formerly dark space from ``start_day`` on.

    The flash event of the sparse-anomaly literature: a contiguous run
    of dark /24s suddenly carries ordinary production traffic.  Ground
    truth built at world-generation time still calls the blocks dark, so
    scenario scoring must treat ``blocks`` as day-active overrides — the
    classifier is now *wrong* to serve them, within the scenario's
    envelope.
    """

    blocks: np.ndarray
    asns: np.ndarray
    remote_ips: np.ndarray
    remote_asns: np.ndarray
    inbound_pkts_per_day: float
    start_day: int
    _production: ProductionTraffic | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.blocks = np.asarray(self.blocks, dtype=np.int64)
        self.asns = np.asarray(self.asns, dtype=np.int32)
        if len(self.blocks) == 0:
            raise ValueError("flash re-activation needs blocks")
        count = len(self.blocks)
        inbound = np.full(count, int(self.inbound_pkts_per_day), dtype=np.int64)
        self._production = ProductionTraffic(
            blocks=self.blocks,
            asns=self.asns,
            inbound_pkts_per_day=inbound,
            outbound_pkts_per_day=(inbound * 0.65).astype(np.int64),
            ack_share=np.full(count, 0.30),
            weekend_factor=np.ones(count),
            remote_ips=self.remote_ips,
            remote_asns=self.remote_asns,
        )

    def generate(self, day: int, rng: np.random.Generator) -> FlowTable:
        """Production traffic over the re-activated space, once lit."""
        if day < self.start_day:
            return FlowTable.empty()
        return self._production.generate(day, rng)


@dataclass(slots=True)
class SteeredTrafficMix:
    """A traffic mix whose event-day flows are steered to another AS.

    Models the traffic side of a route leak/hijack: on active event
    days, a share of the flows destined into the event prefix is
    delivered toward the leaking/hijacking AS instead of the legitimate
    origin (``dst_asn`` is rewritten *before* ground-truth annotation,
    which only fills unset values).  Receiver-side IXP engagement
    follows the new AS, so the affected blocks literally move between
    vantage points mid-campaign — the space itself is unchanged.
    """

    base: DailyTrafficMix
    event: RouteEvent
    #: Share of affected flows steered on an event day ("mid-day" leak:
    #: roughly half the day's traffic took the leaked path).
    shift_share: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.shift_share <= 1.0:
            raise ValueError("shift_share must be in (0, 1]")

    def generate_day(self, day: int, rng: np.random.Generator) -> FlowTable:
        """The base mix's day, with event-day flows steered."""
        flows = self.base.generate_day(day, rng)
        if not self.event.active_on(day) or len(flows) == 0:
            return flows
        first = self.event.prefix.first_block()
        last = first + self.event.prefix.num_blocks()
        dst_blocks = flows.dst_blocks()
        affected = (dst_blocks >= first) & (dst_blocks < last)
        steer = affected & (rng.random(len(flows)) < self.shift_share)
        if not steer.any():
            return flows
        dst_asn = flows.dst_asn.copy()
        dst_asn[steer] = self.event.by_asn
        return FlowTable(
            src_ip=flows.src_ip,
            dst_ip=flows.dst_ip,
            proto=flows.proto,
            dport=flows.dport,
            packets=flows.packets,
            bytes=flows.bytes,
            sender_asn=flows.sender_asn,
            dst_asn=dst_asn,
            spoofed=flows.spoofed,
        )
