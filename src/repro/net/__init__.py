"""Address-space substrate: address arithmetic of both families, one
prefix type, special-purpose registries, Hilbert-curve indexing of the
/24 space, and a prefix trie (the block-span tables' test oracle).

The rest of the library represents a block (a /24 subnet, or an IPv6
/48 site) as its *block id*: the top bits of its network address, i.e.
``int(ip) >> 8`` for IPv4.  Block ids are plain ints (or numpy integer
arrays), which keeps the inference pipeline vectorisable.
"""

from repro.net.ipv4 import (
    MAX_IPV4,
    NUM_BLOCKS,
    Prefix,
    block_of_ip,
    block_to_prefix,
    format_ip,
    parse_ip,
)
from repro.net.ipv6 import MAX_IPV6, format_ip6, parse_ip6
from repro.net.family import IPV4, IPV6, AddressFamily, family
from repro.net.special import (
    SPECIAL_PURPOSE_REGISTRY,
    SPECIAL_PURPOSE_REGISTRY_V6,
    SpecialPurposeRegistry,
)
from repro.net.hilbert import HilbertCurve
from repro.net.trie import PrefixTrie

__all__ = [
    "MAX_IPV4",
    "MAX_IPV6",
    "NUM_BLOCKS",
    "Prefix",
    "AddressFamily",
    "IPV4",
    "IPV6",
    "family",
    "block_of_ip",
    "block_to_prefix",
    "format_ip",
    "format_ip6",
    "parse_ip",
    "parse_ip6",
    "SPECIAL_PURPOSE_REGISTRY",
    "SPECIAL_PURPOSE_REGISTRY_V6",
    "SpecialPurposeRegistry",
    "HilbertCurve",
    "PrefixTrie",
]
