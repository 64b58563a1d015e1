"""Scanner characterisation from meta-telescope traffic.

The meta-telescope's operator wants to know *who* is scanning: the
source addresses fanning out across dark space, their footprint (how
many /24s they touch), their port sets (a {23, 2222, 60023}-style set
is a Mirai-family fingerprint), and the networks they sit in — the
input for the per-customer notifications of the paper's Section 9.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.traffic.flows import FlowTable, aggregate_sums

#: A source probing at most this many distinct ports is concentrated.
MAX_SCANNER_PORTS = 6


@dataclass(frozen=True, slots=True)
class ScannerReport:
    """One inferred scanning source."""

    source_ip: int
    sender_asn: int
    packets: int
    #: Distinct dark /24s probed (footprint).
    footprint_blocks: int
    #: Destination ports, most-targeted first.
    ports: tuple[int, ...]


def detect_scanners(
    captured: FlowTable,
    min_footprint_blocks: int = 5,
) -> list[ScannerReport]:
    """Characterise scanning sources in meta-telescope traffic.

    A source qualifies when its TCP probes on *service* destination
    ports (< 1024 or well-known high ports — i.e. a concentrated port
    set, the complement of the backscatter detector's dispersion test)
    reach at least ``min_footprint_blocks`` distinct dark /24s.
    """
    tcp = captured.tcp()
    if len(tcp) == 0:
        return []
    src = tcp.src_ip.astype(np.int64)
    src_ips, (packets,) = aggregate_sums(src, tcp.packets)

    # Footprint per source.
    pair_keys = (src << np.int64(24)) | (tcp.dst_blocks() & 0xFFFFFF)
    unique_pairs = np.unique(pair_keys)
    footprint = np.bincount(
        np.searchsorted(src_ips, unique_pairs >> 24), minlength=len(src_ips)
    )

    # Port concentration: per (source, dport) packets.
    port_keys = (src << np.int64(16)) | tcp.dport.astype(np.int64)
    pairs, (pair_packets,) = aggregate_sums(port_keys, tcp.packets)
    pair_owner = np.searchsorted(src_ips, pairs >> 16)
    distinct_ports = np.bincount(pair_owner, minlength=len(src_ips))
    modal = np.zeros(len(src_ips), dtype=np.int64)
    np.maximum.at(modal, pair_owner, pair_packets)
    concentrated = (modal / np.maximum(packets, 1) > 0.5) | (
        distinct_ports <= MAX_SCANNER_PORTS
    )

    sender_by_src = {}
    for ip, asn in zip(tcp.src_ip.tolist(), tcp.sender_asn.tolist()):
        sender_by_src.setdefault(int(ip), int(asn))

    reports = []
    qualifying = (footprint >= min_footprint_blocks) & concentrated
    for index in np.flatnonzero(qualifying):
        ip = int(src_ips[index])
        mask = pair_owner == index
        port_list = sorted(
            zip(pairs[mask] & 0xFFFF, pair_packets[mask]),
            key=lambda item: -item[1],
        )
        reports.append(
            ScannerReport(
                source_ip=ip,
                sender_asn=sender_by_src.get(ip, -1),
                packets=int(packets[index]),
                footprint_blocks=int(footprint[index]),
                ports=tuple(int(p) for p, _ in port_list),
            )
        )
    reports.sort(key=lambda r: -r.footprint_blocks)
    return reports


#: Port-set fingerprints of known campaign families.
CAMPAIGN_FINGERPRINTS: dict[str, frozenset[int]] = {
    "mirai-family": frozenset({23, 2222, 60023, 5555, 8080}),
    "satori": frozenset({37215, 52869}),
    "database-hunting": frozenset({6379, 3306, 5038}),
    "web-recon": frozenset({80, 443, 8080, 8443, 81, 8090}),
    "remote-access": frozenset({22, 3389, 2375}),
}


def classify_campaign(report: ScannerReport) -> str | None:
    """Match a scanner's port set against known campaign fingerprints.

    Returns the family whose fingerprint overlaps the scanner's ports
    the most (ties broken by fingerprint size), or None if nothing
    overlaps.
    """
    ports = set(report.ports)
    best: tuple[float, int, str] | None = None
    for family, fingerprint in CAMPAIGN_FINGERPRINTS.items():
        overlap = len(ports & fingerprint)
        if overlap == 0:
            continue
        score = overlap / len(ports)
        key = (score, -len(fingerprint), family)
        if best is None or key > best:
            best = key
    return best[2] if best else None


def campaign_summary(reports: list[ScannerReport]) -> dict[str, int]:
    """Count inferred scanners per campaign family."""
    counter: Counter[str] = Counter()
    for report in reports:
        family = classify_campaign(report)
        counter[family if family else "unclassified"] += 1
    return dict(counter.most_common())
