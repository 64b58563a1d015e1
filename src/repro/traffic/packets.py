"""Packet-level constants and size models.

The paper's key fingerprint (Section 4.1) is the IP packet size of TCP
traffic: IBR is dominated by bare TCP-SYN packets of 40 bytes (20 B IP
header + 20 B TCP header), with a visible step at 48 bytes (one TCP
option, typically MSS) — at least 93 % of telescope TCP packets are
40 bytes.  Production traffic mixes 40-byte pure ACKs with large data
segments, so its *average* exceeds 44 bytes even when its *median* does
not.  These two models encode exactly that structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

#: Minimum IP packet size for a TCP segment (IP + TCP header, no options).
MIN_TCP_IP_SIZE = 40
#: TCP-SYN with a single option (e.g. MSS), the paper's "step at 48 bytes".
TCP_SYN_ONE_OPTION_SIZE = 48


@dataclass(frozen=True, slots=True)
class PacketSizeModel:
    """A discrete packet-size distribution.

    ``sizes`` and ``weights`` describe the support; :meth:`mean_size`
    gives the exact expectation and :meth:`sample_totals` draws the
    total byte count for a given number of packets without materialising
    per-packet sizes (multinomial over the support).
    """

    sizes: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.weights):
            raise ValueError("sizes and weights must have equal length")
        if not self.sizes:
            raise ValueError("empty size model")
        total = float(sum(self.weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")

    def probabilities(self) -> np.ndarray:
        """Normalised weight vector."""
        weights = np.asarray(self.weights, dtype=np.float64)
        return weights / weights.sum()

    def mean_size(self) -> float:
        """Expected packet size in bytes."""
        return float(np.dot(self.probabilities(), np.asarray(self.sizes)))

    def sample_totals(
        self, packet_counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Total bytes for each entry of ``packet_counts``.

        Vectorised: draws a multinomial split of each flow's packets
        over the size support.  Exact for our purposes and far cheaper
        than sampling every packet of every flow.
        """
        counts = np.asarray(packet_counts, dtype=np.int64)
        probs = self.probabilities()
        sizes = np.asarray(self.sizes, dtype=np.int64)
        splits = rng.multinomial(counts, probs)
        return splits @ sizes


def ibr_tcp_size_model() -> PacketSizeModel:
    """TCP size mix at a telescope: ≥93 % bare SYNs, a step at 48 B.

    Calibrated so the mean is ~40.7 B (Table 2's TUS1 value).
    """
    return PacketSizeModel(
        sizes=(40, 44, 48, 52, 60),
        weights=(0.935, 0.015, 0.040, 0.007, 0.003),
    )


def backscatter_size_model() -> PacketSizeModel:
    """SYN-ACK / RST backscatter: headers only, occasionally an option."""
    return PacketSizeModel(sizes=(40, 44, 48), weights=(0.90, 0.04, 0.06))


def production_size_model(ack_share: float) -> PacketSizeModel:
    """Inbound TCP at an active subnet.

    ``ack_share`` is the fraction of bare 40-byte ACKs; the remainder is
    a mix of small requests and MTU-sized data segments.  With any
    realistic data share the mean exceeds 44 B, while the median stays
    at 40 B whenever ``ack_share`` > 0.5 — the exact asymmetry behind
    Table 3's mean-vs-median result.
    """
    if not 0.0 <= ack_share < 1.0:
        raise ValueError(f"ack_share out of range: {ack_share}")
    rest = 1.0 - ack_share
    if ack_share >= 0.9:
        # ACK/keepalive-only hosts: no data segments at all; the mean
        # stays below 44 B (Table 3's rare false-positive actives).
        return PacketSizeModel(
            sizes=(40, 44, 52, 120),
            weights=(ack_share, rest * 0.5, rest * 0.3, rest * 0.2),
        )
    return PacketSizeModel(
        sizes=(40, 44, 52, 120, 576, 1500),
        weights=(
            ack_share,
            rest * 0.18,
            rest * 0.20,
            rest * 0.17,
            rest * 0.12,
            rest * 0.33,
        ),
    )


def dirty_dark_size_model() -> PacketSizeModel:
    """TCP toward the minority of dark blocks that attract payloads.

    Misconfigured exporters and byte-heavy probes give a mean above the
    44 B threshold; these blocks are the pipeline's false negatives in
    Table 3 (dark classified active).
    """
    return PacketSizeModel(sizes=(40, 120, 576, 1500), weights=(0.35, 0.25, 0.2, 0.2))


def udp_ibr_size_model() -> PacketSizeModel:
    """UDP background radiation (SSDP / DNS / Memcached probes)."""
    return PacketSizeModel(sizes=(60, 78, 120, 300), weights=(0.4, 0.3, 0.2, 0.1))
