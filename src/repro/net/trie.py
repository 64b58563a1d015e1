"""Binary (Patricia-style) prefix trie with longest-prefix match.

Used by the BGP RIB (is this block inside any announced prefix? which is
the most-specific covering announcement?) and by the prefix-to-AS and
geolocation datasets.  Besides per-address lookups it offers a
vectorised block matcher built on sorted interval tables, which is what
the pipeline's step 5 ("Globally Routed") uses at scale.

The trie is address-family generic: it defaults to IPv4 (/24 blocks,
32-bit walks) and accepts ``family=IPV6`` for 128-bit prefixes over /48
site blocks.  A single trie holds prefixes of one family only.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

import numpy as np

from repro.net.family import IPV4, AddressFamily

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list["_Node[V] | None"] = [None, None]
        self.value: V | None = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Maps prefix keys to values with longest-prefix-match lookup."""

    def __init__(self, family: AddressFamily = IPV4) -> None:
        self.family = family
        self._bits = family.ip_bits
        self._block_length = family.block_prefix_length
        self._root: _Node[V] = _Node()
        self._size = 0
        self._interval_cache: tuple[np.ndarray, np.ndarray, list[V]] | None = None

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix, value: V) -> None:
        """Insert or replace the value at ``prefix``."""
        node = self._root
        for bit in self._prefix_bits(prefix):
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True
        self._interval_cache = None

    def exact(self, prefix) -> V | None:
        """Value stored exactly at ``prefix``, or None."""
        node = self._root
        for bit in self._prefix_bits(prefix):
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node.value if node.has_value else None

    def longest_match(self, ip: int):
        """Most-specific stored prefix covering ``ip``, with its value."""
        node = self._root
        best: tuple[int, V] | None = None
        if node.has_value:
            best = (0, node.value)  # type: ignore[arg-type]
        top = self._bits - 1
        for depth in range(self._bits):
            bit = (ip >> (top - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (depth + 1, node.value)  # type: ignore[arg-type]
        if best is None:
            return None
        length, value = best
        return self.family.prefix_from_ip(ip, length), value

    def covers_block(self, block: int) -> bool:
        """True if ``block`` is entirely inside some stored prefix.

        A block is covered iff a prefix no longer than the block length
        covers its network address (longer stored prefixes cover only
        part of the block).
        """
        ip = self.family.block_to_ip(block)
        match = self.longest_match(ip)
        if match is None:
            return False
        prefix, _ = match
        if prefix.length <= self._block_length:
            return True
        # The LPM hit a more-specific longer than the block length; a
        # shorter covering prefix may still exist above it on the walk.
        return self._has_short_cover(ip)

    def _has_short_cover(self, ip: int) -> bool:
        node = self._root
        if node.has_value:
            return True
        top = self._bits - 1
        for depth in range(self._block_length):
            bit = (ip >> (top - depth)) & 1
            child = node.children[bit]
            if child is None:
                return False
            node = child
            if node.has_value:
                return True
        return False

    def items(self) -> Iterator[tuple[object, V]]:
        """Yield (prefix, value) pairs in address order."""
        prefix_type = self.family.prefix_type
        top = self._bits - 1

        def walk(node: _Node[V], network: int, depth: int):
            if node.has_value:
                yield prefix_type(network, depth), node.value
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    yield from walk(
                        child, network | (bit << (top - depth)), depth + 1
                    )

        yield from walk(self._root, 0, 0)

    # -- vectorised block coverage -------------------------------------

    def _intervals(self) -> tuple[np.ndarray, np.ndarray, list[V]]:
        """Merged, sorted (start, end) block intervals of block-or-shorter prefixes."""
        if self._interval_cache is not None:
            return self._interval_cache
        spans: list[tuple[int, int, V]] = []
        for prefix, value in self.items():
            if prefix.length > self._block_length:
                continue
            first = prefix.first_block()
            spans.append((first, first + prefix.num_blocks() - 1, value))
        spans.sort(key=lambda item: (item[0], item[1]))
        starts = np.array([lo for lo, _, _ in spans], dtype=np.int64)
        ends = np.array([hi for _, hi, _ in spans], dtype=np.int64)
        values = [value for _, _, value in spans]
        # Make ends cumulative-max so nested prefixes don't shadow their
        # covering prefix during the searchsorted probe.
        if len(ends):
            ends = np.maximum.accumulate(ends)
        self._interval_cache = (starts, ends, values)
        return self._interval_cache

    def block_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted ``(starts, ends)`` block interval table.

        Consumers that outlive the trie (e.g. a frozen
        :class:`~repro.bgp.rib.RoutingTable`) can hold this table once
        and probe it with :func:`interval_covered_mask` forever, instead
        of re-deriving it through the trie's invalidation-aware cache.
        """
        starts, ends, _ = self._intervals()
        return starts, ends

    def covered_mask(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`covers_block` over an array of block ids."""
        starts, ends, _ = self._intervals()
        return interval_covered_mask(starts, ends, blocks)

    def _prefix_bits(self, prefix) -> Iterator[int]:
        top = self._bits - 1
        for depth in range(prefix.length):
            yield (prefix.network >> (top - depth)) & 1


def interval_covered_mask(
    starts: np.ndarray, ends: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Which ``blocks`` fall inside the sorted, cumulative-max intervals."""
    blocks = np.asarray(blocks, dtype=np.int64)
    if len(starts) == 0:
        return np.zeros(blocks.shape, dtype=bool)
    idx = np.searchsorted(starts, blocks, side="right") - 1
    valid = idx >= 0
    clamped = np.where(valid, idx, 0)
    return valid & (blocks <= ends[clamped])
