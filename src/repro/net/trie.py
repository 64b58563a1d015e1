"""Binary (Patricia-style) prefix trie: the block-span table's oracle.

The BGP RIB asks one question of its announcements: is this block
entirely inside some announced prefix?  A sorted block-span table
probed by :func:`~repro.net.blocksets.interval_covered_mask` answers
it — what the pipeline's step 5 ("Globally Routed") uses at scale.
The RIB and the special-purpose registry build that table straight
from their prefixes (:func:`~repro.net.blocksets.block_spans`); the
trie builds the same table its own way, by walking its stored prefixes
(:meth:`PrefixTrie.block_intervals`), and that independent build is
what the tests hold the production table to.  No production module
uses the trie.

The trie is address-family generic: it defaults to IPv4 (/24 blocks,
32-bit walks) and accepts ``family=IPV6`` for 128-bit prefixes over /48
site blocks.  A single trie holds prefixes of one family only.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

import numpy as np

from repro.net.family import IPV4, AddressFamily
from repro.net.ipv4 import Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list["_Node[V] | None"] = [None, None]
        self.value: V | None = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Maps prefix keys to values."""

    def __init__(self, family: AddressFamily = IPV4) -> None:
        self.family = family
        self._bits = family.ip_bits
        self._block_length = family.block_prefix_length
        self._root: _Node[V] = _Node()

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value at ``prefix``."""
        node = self._root
        for bit in self._prefix_bits(prefix):
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        node.value = value
        node.has_value = True

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """Yield (prefix, value) pairs in address order."""
        top = self._bits - 1

        def walk(node: _Node[V], network: int, depth: int):
            if node.has_value:
                yield Prefix(network, depth, self._bits), node.value
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    yield from walk(
                        child, network | (bit << (top - depth)), depth + 1
                    )

        yield from walk(self._root, 0, 0)

    # -- vectorised block coverage -------------------------------------

    def block_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted ``(starts, ends)`` block intervals of the prefixes
        no longer than a block, for
        :func:`~repro.net.blocksets.interval_covered_mask`.

        Ends are a cumulative max, so a nested prefix never shadows its
        covering prefix during the searchsorted probe.
        """
        spans = sorted(
            (prefix.first_block(), prefix.first_block() + prefix.num_blocks() - 1)
            for prefix, _ in self.items()
            if prefix.length <= self._block_length
        )
        starts = np.array([lo for lo, _ in spans], dtype=np.int64)
        ends = np.array([hi for _, hi in spans], dtype=np.int64)
        if len(ends):
            ends = np.maximum.accumulate(ends)
        return starts, ends

    def _prefix_bits(self, prefix: Prefix) -> Iterator[int]:
        top = self._bits - 1
        for depth in range(prefix.length):
            yield (prefix.network >> (top - depth)) & 1

