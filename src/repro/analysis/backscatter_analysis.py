"""Backscatter analysis: inferring DDoS victims from meta-telescope traffic.

One of the classic telescope applications the paper's introduction
cites (Moore et al., "Inferring Internet Denial-of-Service Activity"):
victims of randomly-spoofed floods answer the fake sources, so their
replies rain onto dark space.  At a meta-telescope, backscatter shows
up as TCP traffic from a *fixed source (victim) service port* toward
many dark /24s on *ephemeral destination ports* — the mirror image of
scanning, which fans out across destinations on a fixed destination
port.

The detector below separates the two patterns and estimates per-victim
attack magnitude, exactly what an operator would hand to a CERT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic.flows import FlowTable, aggregate_sums

#: Ports below this are "service" ports; backscatter destination ports
#: are ephemeral (the spoofer picked them randomly).
EPHEMERAL_PORT_FLOOR = 1024
#: A victim's modal destination port carries at most this share of its
#: packets (spoofers pick ephemeral ports at random).
MAX_MODAL_PORT_SHARE = 0.5


@dataclass(frozen=True, slots=True)
class VictimReport:
    """One inferred DDoS victim."""

    victim_ip: int
    #: Distinct dark /24s that received its backscatter.
    spread_blocks: int
    #: Sampled backscatter packets observed.
    packets: int


@dataclass(frozen=True)
class BackscatterAnalysis:
    """Outcome of the victim inference."""

    victims: list[VictimReport]
    backscatter_packets: int
    total_packets: int

    def backscatter_share(self) -> float:
        """Backscatter's share of the meta-telescope's traffic."""
        return (
            self.backscatter_packets / self.total_packets
            if self.total_packets
            else 0.0
        )


def detect_victims(
    captured: FlowTable,
    min_spread_blocks: int = 3,
    min_packets: int = 3,
) -> BackscatterAnalysis:
    """Infer DDoS victims from traffic captured at the meta-telescope.

    ``captured`` is the traffic toward inferred dark space (the
    operator's data product (b)).  A source qualifies as a victim when
    its TCP traffic on ephemeral destination ports reaches at least
    ``min_spread_blocks`` distinct dark /24s with at least
    ``min_packets`` sampled packets, *and* those destination ports are
    dispersed (spoofers pick them randomly).  The dispersion test —
    the most common dport carries at most :data:`MAX_MODAL_PORT_SHARE` of
    the source's packets — separates backscatter from scanners that
    happen to probe high ports (8080, 37215, ...).
    """
    total_packets = captured.total_packets()
    tcp = captured.tcp()
    ephemeral = tcp.filter(tcp.dport >= EPHEMERAL_PORT_FLOOR)
    if len(ephemeral) == 0:
        return BackscatterAnalysis(
            victims=[], backscatter_packets=0, total_packets=total_packets
        )

    src_ips, (packets,) = aggregate_sums(
        ephemeral.src_ip.astype(np.int64), ephemeral.packets
    )
    # Spread: distinct destination /24s per source.
    pair_keys = (ephemeral.src_ip.astype(np.int64) << np.int64(24)) | (
        ephemeral.dst_blocks() & 0xFFFFFF
    )
    unique_pairs = np.unique(pair_keys)
    spread_src = unique_pairs >> 24
    spread_counts = np.bincount(
        np.searchsorted(src_ips, spread_src), minlength=len(src_ips)
    )
    # Port dispersion: the modal destination port's packet share.
    port_keys = (ephemeral.src_ip.astype(np.int64) << np.int64(16)) | (
        ephemeral.dport.astype(np.int64)
    )
    pairs, (pair_packets,) = aggregate_sums(port_keys, ephemeral.packets)
    modal = np.zeros(len(src_ips), dtype=np.int64)
    np.maximum.at(
        modal, np.searchsorted(src_ips, pairs >> 16), pair_packets
    )
    modal_share = modal / np.maximum(packets, 1)

    victims = [
        VictimReport(
            victim_ip=int(ip),
            spread_blocks=int(spread),
            packets=int(pkts),
        )
        for ip, spread, pkts, share in zip(
            src_ips, spread_counts, packets, modal_share
        )
        if spread >= min_spread_blocks
        and pkts >= min_packets
        and share <= MAX_MODAL_PORT_SHARE
    ]
    victims.sort(key=lambda v: -v.packets)
    backscatter_packets = sum(v.packets for v in victims)
    return BackscatterAnalysis(
        victims=victims,
        backscatter_packets=backscatter_packets,
        total_packets=total_packets,
    )
