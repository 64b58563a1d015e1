"""IPv6 address text (groundwork for the paper's future work).

Section 9 defers IPv6 meta-telescopes to future work: the space is too
vast to enumerate, assignment practices vary, and hitlists are
incomplete.  This module provides the address text that work needs:
parsing per RFC 4291 and formatting with RFC 5952 canonical output.
Everything else is shared with IPv4: an IPv6 prefix is a
:class:`~repro.net.ipv4.Prefix` of width 128, its /48 *site* plays the
role the /24 plays in IPv4 (``IPV6.block_of_ip(ip) == ip >> 80``), and
a malformed address raises the one
:class:`~repro.net.ipv4.AddressError`.

The candidate-enumeration prototype lives in
:mod:`repro.core.ipv6_candidates`.
"""

from __future__ import annotations

from repro.net.ipv4 import AddressError

MAX_IPV6 = 2**128 - 1


def parse_ip6(text: str) -> int:
    """Parse an IPv6 address (RFC 4291 text forms) to a 128-bit int.

    Supports full form, ``::`` compression and the embedded-IPv4 tail
    (``::ffff:192.0.2.1``).
    """
    text = text.strip()
    if not text:
        raise AddressError("empty address")
    if text.count("::") > 1:
        raise AddressError(f"multiple '::' in {text!r}")

    # Embedded IPv4 tail.
    v4_value = None
    if "." in text:
        head, _, tail = text.rpartition(":")
        if not head:
            raise AddressError(f"malformed embedded IPv4 in {text!r}")
        v4_value = _parse_v4_tail(tail)
        # Replace the IPv4 part with two hextets' worth of groups.
        text = head + ":" + f"{v4_value >> 16:x}:{v4_value & 0xFFFF:x}"
        if head.endswith(":") and not head.endswith("::"):
            raise AddressError(f"malformed embedded IPv4 in {text!r}")

    if "::" in text:
        left_text, right_text = text.split("::", 1)
        left = _parse_groups(left_text)
        right = _parse_groups(right_text)
        missing = 8 - len(left) - len(right)
        if missing < 1:
            raise AddressError(f"'::' compresses nothing in {text!r}")
        groups = left + [0] * missing + right
    else:
        groups = _parse_groups(text)
        if len(groups) != 8:
            raise AddressError(f"need 8 groups in {text!r}")
    value = 0
    for group in groups:
        value = (value << 16) | group
    return value


def _parse_groups(text: str) -> list[int]:
    if not text:
        return []
    groups = []
    for part in text.split(":"):
        if not part or len(part) > 4:
            raise AddressError(f"bad group {part!r}")
        try:
            groups.append(int(part, 16))
        except ValueError as error:
            raise AddressError(f"bad group {part!r}") from error
    return groups


def _parse_v4_tail(tail: str) -> int:
    octets = tail.split(".")
    if len(octets) != 4:
        raise AddressError(f"bad embedded IPv4 {tail!r}")
    value = 0
    for octet_text in octets:
        try:
            octet = int(octet_text)
        except ValueError as error:
            raise AddressError(f"bad embedded IPv4 {tail!r}") from error
        if not 0 <= octet <= 255:
            raise AddressError(f"bad embedded IPv4 {tail!r}")
        value = (value << 8) | octet
    return value


def format_ip6(value: int) -> str:
    """RFC 5952 canonical text: lowercase, longest zero run as ``::``."""
    if not 0 <= value <= MAX_IPV6:
        raise AddressError(f"not a 128-bit address: {value!r}")
    groups = [(value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]

    # Longest run of zero groups (length >= 2), leftmost on ties.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, group in enumerate(groups + [-1]):
        if group == 0:
            if run_start < 0:
                run_start, run_len = i, 0
            run_len += 1
        else:
            if run_len > best_len:
                best_start, best_len = run_start, run_len
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    left = ":".join(f"{g:x}" for g in groups[:best_start])
    right = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
    return f"{left}::{right}"
