"""The IPv6 world: a small second internet for the same engine.

Section 9 of the paper defers IPv6 meta-telescopes to future work
because the space cannot be enumerated, hitlists are incomplete, and
scanning behaves differently.  This module builds the synthetic ground
truth that future-work needs, shaped so the *unchanged* inference
engine can run over it end to end:

* **Orgs** hold /40 allocations inside global unicast (``2000::/3`` —
  which also keeps every upper-64-bit engine key below ``2**63``, the
  int64-safety requirement of :mod:`repro.net.family`).  Each org
  materialises a handful of /48 *sites*: truly **dark** sites (no host
  ever answers or sends), **loud** active sites (production hosts that
  source and sink payload traffic) and **quiet** active sites (lit
  infrastructure that never sources — invisible to a traffic-only
  pipeline, exactly what hitlists are for).
* **Scanners are BGP-reactive** (the documented v6-scanning finding:
  scanning concentrates on announced space and follows announcements
  within hours).  A scanner only targets an org once its prefix is in
  the RIB, so late-announced orgs receive their first scan on their
  announce day — nothing before.
* **The hitlist is incomplete** (``hitlist_recall < 1``): each active
  site is listed only with that probability.  Quiet sites missing from
  the hitlist are indistinguishable from dark space in traffic and
  become the candidate filter's false positives — precision < 1 by
  construction, as the paper warns.
* **A route leak** announces documentation space (``2001:db8::/32``)
  and scanners spray it: the candidate enumeration alone would serve
  it, the engine's special-purpose stage drops it.
* The v4 44-byte fingerprint does **not** transfer: a bare IPv6 TCP
  SYN is already 60 bytes (40-byte header + 20-byte TCP), so scan
  packets are 60/68 bytes and the v6 thresholds default to 64/68.

Everything is derived from the config seed through the same
``child_rng`` discipline as :mod:`repro.world.config`, so worlds and
traffic are bit-reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.bgp.rib import Announcement, RoutingTable
from repro.net.family import IPV6
from repro.net.ipv4 import Prefix
from repro.traffic.flows import FlowTable
from repro.traffic.packets import PROTO_TCP, PROTO_UDP
from repro.vantage.sampling import VantageDayView

__all__ = [
    "Ipv6WorldConfig",
    "Ipv6Org",
    "Ipv6Collector",
    "Ipv6World",
    "build_ipv6_world",
    "micro_ipv6_config",
    "small_ipv6_config",
    "paper_ipv6_config",
    "giant_ipv6_config",
    "micro_ipv6_world",
    "ipv6_day_view",
    "ipv6_views",
]

#: Top-40-bit value of org 0's /40 (2001:d00::/40; clear of the IANA
#: special rows — 2001::/23 ends at 2001:1ff::, documentation is db8).
_ORG_PREFIX_BASE = 0x20010D0000
#: Top-40-bit value of scanner 0's /40 (2a0e:b00::/40).
_SCANNER_PREFIX_BASE = 0x2A0E0B0000
#: The leaked special-purpose prefix scanners spray (documentation).
LEAKED_SPECIAL_PREFIX = "2001:db8::/32"
#: Origin ASN of the route leak.
LEAK_ASN = 64666
#: /48 site id inside the leaked prefix that receives scan traffic.
LEAKED_SITE = IPV6.parse_prefix(LEAKED_SPECIAL_PREFIX).first_block()

_SCAN_PORTS = (22, 23, 80, 443, 3389, 8080)
_PRODUCTION_PORTS = (53, 80, 443)


@dataclass(frozen=True, slots=True)
class Ipv6WorldConfig:
    """Knobs of the simulated IPv6 internet (all sizes per org/site/day)."""

    seed: int = 7
    num_days: int = 3
    num_orgs: int = 12
    #: /48 sites materialised per org (dark + quiet + loud).
    sites_per_org: int = 6
    dark_sites_per_org: int = 3
    #: Active-but-never-sourcing sites (the hitlist's job to catch).
    quiet_sites_per_org: int = 1
    #: Orgs announced only from ``max(1, num_days // 2)`` (scanner
    #: reactivity is observable on the announce day).
    late_announce_orgs: int = 2
    #: Orgs never announced at all: their sites still receive a trickle
    #: of stale-hitlist replay scanning (scanner 0 working off an old
    #: target list), so they are *observed* yet unrouted — the candidate
    #: filter's first drop reason.
    unannounced_orgs: int = 1
    num_scanners: int = 3
    scans_per_site_day: int = 24
    production_flows_per_site_day: int = 20
    #: Distinct /64 subnets a scanner spreads over inside one site.
    subnets_per_site: int = 48
    #: Probability an active site appears on the (incomplete) hitlist.
    hitlist_recall: float = 0.75
    #: Packets/day of the backscatter flood hitting one dark site (the
    #: volume stage's test case); 0 disables the flood.
    flood_packets: int = 4000
    #: Per-packet sampling probability of the vantage's IPFIX export.
    sampling_probability: float = 1.0
    #: v6 pipeline thresholds (the 44/48-byte v4 pair does not transfer).
    avg_size_threshold: float = 64.0
    ip_size_threshold: float = 68.0
    volume_threshold_pkts_day: float = 900.0

    def __post_init__(self) -> None:
        if self.dark_sites_per_org + self.quiet_sites_per_org >= self.sites_per_org:
            raise ValueError(
                "need at least one loud site per org: "
                f"{self.sites_per_org} sites cannot hold "
                f"{self.dark_sites_per_org} dark + "
                f"{self.quiet_sites_per_org} quiet"
            )
        if not 0 < self.num_orgs <= 1 << 16:
            raise ValueError(f"num_orgs out of range: {self.num_orgs}")
        if self.late_announce_orgs + self.unannounced_orgs >= self.num_orgs:
            raise ValueError(
                f"{self.num_orgs} orgs cannot hold "
                f"{self.late_announce_orgs} late + "
                f"{self.unannounced_orgs} unannounced — none would be "
                "announced from day 0"
            )
        if self.sites_per_org > 256:
            raise ValueError("a /40 org holds at most 256 /48 sites")
        if not 0.0 < self.sampling_probability <= 1.0:
            raise ValueError(
                f"sampling probability out of range: {self.sampling_probability}"
            )

    def child_rng(self, name: str) -> np.random.Generator:
        """Independent deterministic stream per named purpose."""
        return np.random.default_rng((self.seed, zlib.crc32(name.encode())))


@dataclass(frozen=True, slots=True)
class Ipv6Org:
    """One organisation: a /40 allocation and its materialised sites."""

    name: str
    asn: int
    prefix: Prefix
    #: First day the prefix appears in the RIB; ``None`` = never
    #: announced (stale-hitlist replay is its only traffic).
    announce_day: int | None
    dark_sites: tuple[int, ...]
    quiet_sites: tuple[int, ...]
    loud_sites: tuple[int, ...]

    @property
    def active_sites(self) -> tuple[int, ...]:
        """All sites with hosts (quiet + loud)."""
        return self.quiet_sites + self.loud_sites

    @property
    def sites(self) -> tuple[int, ...]:
        """Every materialised site of the org."""
        return self.dark_sites + self.quiet_sites + self.loud_sites


class Ipv6Collector:
    """Route-Views-shaped feed over the v6 announcements.

    Duck-compatible with :class:`repro.bgp.rib.RouteViewsCollector` as
    the facade consumes it (``daily_table(day)``): late orgs enter the
    table on their announce day, and the leaked documentation prefix is
    present from day 0.
    """

    def __init__(self, orgs: Iterable[Ipv6Org]) -> None:
        self._orgs = tuple(orgs)

    def daily_table(self, day: int) -> RoutingTable:
        """The announcements visible on ``day`` (family-tagged IPv6)."""
        announcements = [
            Announcement(prefix=org.prefix, origin_asn=org.asn)
            for org in self._orgs
            if org.announce_day is not None and org.announce_day <= day
        ]
        announcements.append(
            Announcement(
                prefix=IPV6.parse_prefix(LEAKED_SPECIAL_PREFIX),
                origin_asn=LEAK_ASN,
            )
        )
        return RoutingTable(announcements)


@dataclass(frozen=True, slots=True)
class Ipv6World:
    """The built world: orgs, scanners, hitlist, RIB feed, ground truth."""

    config: Ipv6WorldConfig
    orgs: tuple[Ipv6Org, ...]
    #: Scanner source /48 site ids (outside org space, inside 2000::/3).
    scanner_sites: tuple[int, ...]
    #: The incomplete hitlist: /48s of *known* active addresses.
    hitlist_sites: frozenset[int]
    #: Dark site receiving the backscatter flood (None when disabled).
    flood_site: int | None
    #: Dark site scanned exclusively over UDP (fails the TCP stage).
    udp_only_site: int | None
    collector: Ipv6Collector

    def dark_sites(self, day: int | None = None) -> frozenset[int]:
        """Truly dark /48s of *announced* orgs (optionally by ``day``).

        Never-announced orgs' dark sites are excluded: unrouted space
        is out of scope for a meta-telescope by the paper's own step 5,
        so they do not count against recall.
        """
        return frozenset(
            site
            for org in self.orgs
            if org.announce_day is not None
            and (day is None or org.announce_day <= day)
            for site in org.dark_sites
        )

    def asn_of_site(self) -> dict[int, int]:
        """Ground-truth site -> origin-ASN map (leak space -> LEAK_ASN)."""
        mapping = {site: org.asn for org in self.orgs for site in org.sites}
        mapping[LEAKED_SITE] = LEAK_ASN
        return mapping


def build_ipv6_world(config: Ipv6WorldConfig) -> Ipv6World:
    """Materialise the world from its config, deterministically."""
    rng = config.child_rng("ipv6-world")
    late_from = max(1, config.num_days // 2)
    orgs = []
    for index in range(config.num_orgs):
        top40 = _ORG_PREFIX_BASE + index
        prefix = Prefix(top40 << 88, 40, IPV6.ip_bits)
        offsets = rng.choice(256, size=config.sites_per_org, replace=False)
        sites = tuple(int((top40 << 8) + offset) for offset in np.sort(offsets))
        dark = sites[: config.dark_sites_per_org]
        quiet = sites[
            config.dark_sites_per_org
            : config.dark_sites_per_org + config.quiet_sites_per_org
        ]
        loud = sites[config.dark_sites_per_org + config.quiet_sites_per_org :]
        never = index >= config.num_orgs - config.unannounced_orgs
        late = not never and index >= (
            config.num_orgs - config.unannounced_orgs - config.late_announce_orgs
        )
        orgs.append(
            Ipv6Org(
                name=f"org{index:02d}",
                asn=65000 + index,
                prefix=prefix,
                announce_day=None if never else (late_from if late else 0),
                dark_sites=dark,
                quiet_sites=quiet,
                loud_sites=loud,
            )
        )
    scanner_sites = tuple(
        int(((_SCANNER_PREFIX_BASE + index) << 8) | 1)
        for index in range(config.num_scanners)
    )
    hitlist = frozenset(
        site
        for org in orgs
        for site in org.active_sites
        if rng.random() < config.hitlist_recall
    )
    early = [org for org in orgs if org.announce_day == 0 and org.dark_sites]
    flood_site = (
        early[0].dark_sites[0] if config.flood_packets > 0 and early else None
    )
    udp_only_site = None
    for org in early:
        for site in org.dark_sites:
            if site != flood_site:
                udp_only_site = site
                break
        if udp_only_site is not None:
            break
    return Ipv6World(
        config=config,
        orgs=tuple(orgs),
        scanner_sites=scanner_sites,
        hitlist_sites=hitlist,
        flood_site=flood_site,
        udp_only_site=udp_only_site,
        collector=Ipv6Collector(orgs),
    )


def micro_ipv6_config(seed: int = 7) -> Ipv6WorldConfig:
    """CI-smoke scale: runs the full v6 inference in well under a second."""
    return Ipv6WorldConfig(
        seed=seed,
        num_days=2,
        num_orgs=6,
        sites_per_org=4,
        dark_sites_per_org=2,
        quiet_sites_per_org=1,
        late_announce_orgs=1,
        num_scanners=2,
        scans_per_site_day=12,
        production_flows_per_site_day=10,
        subnets_per_site=16,
    )


def small_ipv6_config(seed: int = 7) -> Ipv6WorldConfig:
    """Default interactive scale."""
    return Ipv6WorldConfig(seed=seed)


def paper_ipv6_config(seed: int = 7) -> Ipv6WorldConfig:
    """Tens of orgs, ~50k rows/day (v6 traffic is a sliver of v4's)."""
    return Ipv6WorldConfig(
        seed=seed,
        num_days=5,
        num_orgs=48,
        sites_per_org=8,
        dark_sites_per_org=4,
        quiet_sites_per_org=2,
        late_announce_orgs=6,
        unannounced_orgs=3,
        num_scanners=5,
        scans_per_site_day=30,
        production_flows_per_site_day=24,
    )


def giant_ipv6_config(seed: int = 7) -> Ipv6WorldConfig:
    """Hundreds of orgs, ~400k rows/day."""
    return Ipv6WorldConfig(
        seed=seed,
        num_days=7,
        num_orgs=160,
        sites_per_org=8,
        dark_sites_per_org=4,
        quiet_sites_per_org=2,
        late_announce_orgs=20,
        unannounced_orgs=10,
        num_scanners=8,
        scans_per_site_day=40,
        production_flows_per_site_day=30,
    )


def micro_ipv6_world(seed: int = 7) -> Ipv6World:
    """Build the micro-scale world."""
    return build_ipv6_world(micro_ipv6_config(seed))


class _FlowBatch:
    """Column accumulator for one day's generated rows."""

    def __init__(self) -> None:
        self.src: list[np.ndarray] = []
        self.src_lo: list[np.ndarray] = []
        self.dst: list[np.ndarray] = []
        self.dst_lo: list[np.ndarray] = []
        self.proto: list[np.ndarray] = []
        self.dport: list[np.ndarray] = []
        self.packets: list[np.ndarray] = []
        self.bytes: list[np.ndarray] = []
        self.sender_asn: list[np.ndarray] = []
        self.dst_asn: list[np.ndarray] = []

    def add(
        self,
        src: np.ndarray,
        src_lo: np.ndarray,
        dst: np.ndarray,
        dst_lo: np.ndarray,
        proto: np.ndarray,
        dport: np.ndarray,
        packets: np.ndarray,
        size: np.ndarray,
        sender_asn: int,
        dst_asn: np.ndarray,
    ) -> None:
        count = len(dst)
        self.src.append(np.broadcast_to(src, count))
        self.src_lo.append(np.broadcast_to(src_lo, count))
        self.dst.append(dst)
        self.dst_lo.append(dst_lo)
        self.proto.append(np.broadcast_to(proto, count))
        self.dport.append(dport)
        self.packets.append(packets)
        self.bytes.append(packets * size)
        self.sender_asn.append(np.broadcast_to(np.int32(sender_asn), count))
        self.dst_asn.append(dst_asn)

    def table(self) -> FlowTable:
        if not self.dst:
            return FlowTable.empty("ipv6")
        return FlowTable(
            src_ip=np.concatenate(self.src).astype(np.uint64),
            dst_ip=np.concatenate(self.dst).astype(np.uint64),
            proto=np.concatenate(self.proto),
            dport=np.concatenate(self.dport),
            packets=np.concatenate(self.packets),
            bytes=np.concatenate(self.bytes),
            sender_asn=np.concatenate(self.sender_asn),
            dst_asn=np.concatenate(self.dst_asn),
            src_ip_lo=np.concatenate(self.src_lo).astype(np.uint64),
            dst_ip_lo=np.concatenate(self.dst_lo).astype(np.uint64),
            family="ipv6",
        )


def _site_keys(
    site: int, count: int, subnets: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` /64 engine keys spread over a site's first ``subnets``."""
    return (np.uint64(site) << np.uint64(16)) + rng.integers(
        0, subnets, size=count, dtype=np.uint64
    )


def _scan_batch(
    batch: _FlowBatch,
    world: Ipv6World,
    scanner_index: int,
    site: int,
    dst_asn: int,
    count: int,
    rng: np.random.Generator,
    udp: bool = False,
) -> None:
    """One scanner's probes toward one site on one day."""
    config = world.config
    src_site = world.scanner_sites[scanner_index]
    dst = _site_keys(site, count, config.subnets_per_site, rng)
    dst_lo = rng.integers(1, 1 << 20, size=count, dtype=np.uint64)
    packets = rng.integers(1, 4, size=count, dtype=np.int64)
    # A bare v6 SYN is 60 bytes; ~1 in 5 carries one TCP option (68 B).
    size = np.where(rng.random(count) < 0.2, 68, 60).astype(np.int64)
    batch.add(
        src=np.uint64(src_site << 16),
        src_lo=np.uint64(1),
        dst=dst,
        dst_lo=dst_lo,
        proto=np.uint8(PROTO_UDP if udp else PROTO_TCP),
        dport=rng.choice(_SCAN_PORTS, size=count).astype(np.uint16),
        packets=packets,
        size=size,
        sender_asn=64500 + scanner_index,
        dst_asn=np.full(count, dst_asn, dtype=np.int32),
    )


def ipv6_day_view(world: Ipv6World, day: int) -> VantageDayView:
    """Generate the single v6 vantage's flows for ``day``.

    The view is what the engine folds: scanner probes toward every
    *announced* org's sites (BGP-reactive — late orgs see nothing
    before their announce day), the documentation-space spray under the
    route leak, production payload between loud sites, and the
    backscatter flood on one dark site.
    """
    config = world.config
    rng = config.child_rng(f"ipv6-traffic-day-{day}")
    batch = _FlowBatch()
    announced = [
        org
        for org in world.orgs
        if org.announce_day is not None and org.announce_day <= day
    ]
    asn_of = world.asn_of_site()

    # Scanners: announced org space plus the leaked documentation /48.
    for scanner_index in range(config.num_scanners):
        for org in announced:
            for site in org.sites:
                _scan_batch(
                    batch,
                    world,
                    scanner_index,
                    site,
                    org.asn,
                    config.scans_per_site_day,
                    rng,
                    udp=site == world.udp_only_site,
                )
        _scan_batch(
            batch,
            world,
            scanner_index,
            LEAKED_SITE,
            LEAK_ASN,
            max(4, config.scans_per_site_day // 2),
            rng,
        )

    # Stale-hitlist replay: scanner 0 still probes never-announced orgs
    # off an old target list — observed traffic toward unrouted space.
    for org in world.orgs:
        if org.announce_day is not None:
            continue
        for site in org.sites:
            _scan_batch(
                batch,
                world,
                0,
                site,
                org.asn,
                max(2, config.scans_per_site_day // 4),
                rng,
            )

    # Backscatter flood: one dark site far over the volume threshold.
    if world.flood_site is not None:
        batch.add(
            src=np.uint64(world.scanner_sites[0] << 16),
            src_lo=np.uint64(7),
            dst=_site_keys(world.flood_site, 1, 1, rng),
            dst_lo=np.ones(1, dtype=np.uint64),
            proto=np.uint8(PROTO_TCP),
            dport=np.full(1, 80, dtype=np.uint16),
            packets=np.full(1, config.flood_packets, dtype=np.int64),
            size=np.full(1, 60, dtype=np.int64),
            sender_asn=64500,
            dst_asn=np.full(1, asn_of[world.flood_site], dtype=np.int32),
        )

    # Production payload: loud sites talk to loud sites (quiet and dark
    # sites receive nothing but scans).
    loud = [site for org in announced for site in org.loud_sites]
    for site in loud:
        count = config.production_flows_per_site_day
        dst_sites = rng.choice(loud, size=count)
        dst = (dst_sites.astype(np.uint64) << np.uint64(16)) + rng.integers(
            0, config.subnets_per_site, size=count, dtype=np.uint64
        )
        packets = rng.integers(2, 20, size=count, dtype=np.int64)
        batch.add(
            src=_site_keys(site, count, config.subnets_per_site, rng),
            src_lo=rng.integers(1, 1 << 20, size=count, dtype=np.uint64),
            dst=dst,
            dst_lo=rng.integers(1, 1 << 20, size=count, dtype=np.uint64),
            proto=np.where(
                rng.random(count) < 0.7, PROTO_TCP, PROTO_UDP
            ).astype(np.uint8),
            dport=rng.choice(_PRODUCTION_PORTS, size=count).astype(np.uint16),
            packets=packets,
            size=rng.integers(180, 1200, size=count, dtype=np.int64),
            sender_asn=asn_of[site],
            dst_asn=np.array(
                [asn_of[int(s)] for s in dst_sites], dtype=np.int32
            ),
        )

    flows = batch.table()
    sampling_factor = 1.0
    if config.sampling_probability < 1.0:
        flows = flows.thin(
            config.sampling_probability,
            config.child_rng(f"ipv6-sampling-day-{day}"),
        )
        sampling_factor = 1.0 / config.sampling_probability
    return VantageDayView(
        vantage="V6IX",
        day=day,
        flows=flows,
        sampling_factor=sampling_factor,
    )


def ipv6_views(world: Ipv6World, num_days: int | None = None) -> list[VantageDayView]:
    """Vantage-day views for the first ``num_days`` days (default: all)."""
    days = world.config.num_days if num_days is None else num_days
    days = min(days, world.config.num_days)
    return [ipv6_day_view(world, day) for day in range(days)]
