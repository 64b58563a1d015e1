"""The flattened prefix-to-AS map against a longest-prefix match written
straight from its docstring: a dict of announced prefixes and a loop
from the most specific length to the least."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.rib import Announcement, RoutingTable
from repro.datasets.pfx2as import NUM_BLOCKS, PrefixToAsMap
from repro.net.ipv4 import Prefix

#: Addresses the drawn prefixes mostly sit on, so they nest and repeat.
ANCHORS = [0x0A000000, 0x0A010000, 0x0A010200, 0x0A0102C0, 0xC0A80000, 0xFFFFFF00]


def _oracle(announced: list[tuple[int, int, int]]):
    """``block -> origin`` from the docstring: the most specific cover of
    /24 or shorter wins, the smallest origin among equal prefixes,
    longer prefixes are ignored, and an uncovered block is -1."""
    table: dict[tuple[int, int], int] = {}
    for network, length, origin in announced:
        if length <= 24:
            key = (network >> 8, length)
            table[key] = min(origin, table.get(key, origin))

    def origin_of(block: int) -> int:
        if not 0 <= block < NUM_BLOCKS:
            return -1
        for length in range(24, -1, -1):
            start = block >> (24 - length) << (24 - length)
            if (start, length) in table:
                return table[(start, length)]
        return -1

    return origin_of


@st.composite
def announcements(draw) -> list[tuple[int, int, int]]:
    """``(network, length, origin)`` rows: wide /0-/8 covers, nesting on
    a few anchors, repeats with equal and different origins, and
    prefixes longer than a /24."""
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        address = draw(st.sampled_from(ANCHORS) | st.integers(0, 2**32 - 1))
        length = draw(st.integers(0, 8) | st.integers(8, 32))
        network = Prefix.from_ip(address, length).network
        rows.append((network, length, draw(st.integers(1, 5))))
    if rows and draw(st.booleans()):
        network, length, _ = draw(st.sampled_from(rows))
        rows.append((network, length, draw(st.integers(1, 5))))
    return rows


@settings(max_examples=300, deadline=None)
@given(announced=announcements())
def test_partition_matches_the_docstring_lpm(announced):
    mapping = PrefixToAsMap.from_routing_table(
        RoutingTable(
            Announcement(Prefix(network, length), origin)
            for network, length, origin in announced
        )
    )
    bounds, owner = mapping.bounds.tolist(), mapping.owner.tolist()
    assert bounds[0] == 0 and owner[-1] == -1
    assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
    assert all(a != b for a, b in zip(owner, owner[1:]))

    edges = set(bounds)
    for network, length, _ in announced:
        if length <= 24:
            edges |= {network >> 8, (network >> 8) + (1 << (24 - length))}
    probes = sorted(
        {edge + step for edge in edges for step in (-1, 0, 1)}
        | {-1, 0, NUM_BLOCKS - 1, NUM_BLOCKS}
    )
    origin_of = _oracle(announced)
    assert mapping.asns_of_blocks(np.array(probes)).tolist() == [
        origin_of(block) for block in probes
    ]
