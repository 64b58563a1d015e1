"""IPFIX (RFC 7011) encoding and decoding of flow tables.

The paper's IXP data "is exported through the Internet Protocol Flow
Information Export (IPFIX) protocol [RFC 7011] and contains aggregated
packet header information about network flows".  This module speaks
that wire format for the fields the methodology uses, so a view can be
shipped to (or ingested from) a real collector:

========================  ====  =====
Information Element         ID  bytes
========================  ====  =====
octetDeltaCount              1      8
packetDeltaCount             2      8
protocolIdentifier           4      1
sourceIPv4Address            8      4
destinationTransportPort    11      2
destinationIPv4Address      12      4
bgpSourceAsNumber           16      4
bgpDestinationAsNumber      17      4
========================  ====  =====

The ground-truth ``spoofed`` flag is deliberately *not* exported —
no collector can know it; decoding yields ``spoofed=False``, and
unknown AS numbers travel as 0 (the IPFIX convention) and decode back
to -1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.traffic.flows import FlowTable

IPFIX_VERSION = 10
TEMPLATE_SET_ID = 2
#: Our single template's id (must be >= 256).
FLOW_TEMPLATE_ID = 256

#: (information element id, length, FlowTable column), export order.
_FIELDS: tuple[tuple[int, int, str], ...] = (
    (1, 8, "bytes"),
    (2, 8, "packets"),
    (4, 1, "proto"),
    (8, 4, "src_ip"),
    (11, 2, "dport"),
    (12, 4, "dst_ip"),
    (16, 4, "sender_asn"),
    (17, 4, "dst_asn"),
)
_RECORD_LENGTH = sum(length for _, length, _ in _FIELDS)
_MESSAGE_HEADER = struct.Struct("!HHIII")
_SET_HEADER = struct.Struct("!HH")
_MAX_MESSAGE_LENGTH = 65_535


class IpfixError(ValueError):
    """Raised on malformed IPFIX bytes."""


@dataclass(frozen=True, slots=True)
class IpfixMessageInfo:
    """Parsed header of one IPFIX message."""

    export_time: int
    sequence: int
    observation_domain: int
    num_records: int


def _template_set() -> bytes:
    body = struct.pack("!HH", FLOW_TEMPLATE_ID, len(_FIELDS))
    for element_id, length, _ in _FIELDS:
        body += struct.pack("!HH", element_id, length)
    return _SET_HEADER.pack(TEMPLATE_SET_ID, _SET_HEADER.size + len(body)) + body


def _pack_records(flows: FlowTable, start: int, stop: int) -> bytes:
    chunks = []
    for i in range(start, stop):
        record = b""
        for element_id, length, column in _FIELDS:
            value = int(getattr(flows, column)[i])
            if column in ("sender_asn", "dst_asn") and value < 0:
                value = 0  # the IPFIX "unknown" convention
            record += value.to_bytes(length, "big")
        chunks.append(record)
    return b"".join(chunks)


def encode_ipfix(
    flows: FlowTable,
    observation_domain: int = 1,
    export_time: int = 0,
) -> list[bytes]:
    """Encode a flow table as one or more IPFIX messages.

    Every message carries the template set followed by a data set, so
    each is independently decodable.  Messages never exceed the
    RFC 7011 length limit of 65,535 bytes.
    """
    template = _template_set()
    overhead = _MESSAGE_HEADER.size + len(template) + _SET_HEADER.size
    per_message = (_MAX_MESSAGE_LENGTH - overhead) // _RECORD_LENGTH
    messages = []
    sequence = 0
    total = len(flows)
    start = 0
    while start < total or (total == 0 and not messages):
        stop = min(start + per_message, total)
        records = _pack_records(flows, start, stop)
        data_set = (
            _SET_HEADER.pack(FLOW_TEMPLATE_ID, _SET_HEADER.size + len(records))
            + records
        )
        length = _MESSAGE_HEADER.size + len(template) + len(data_set)
        header = _MESSAGE_HEADER.pack(
            IPFIX_VERSION, length, export_time, sequence, observation_domain
        )
        messages.append(header + template + data_set)
        sequence += stop - start
        start = stop
        if total == 0:
            break
    return messages


def decode_ipfix(messages: list[bytes]) -> tuple[FlowTable, list[IpfixMessageInfo]]:
    """Decode IPFIX messages back into a flow table (+ header info).

    Only the template of this module is understood; data sets that
    reference an unseen template id raise :class:`IpfixError`.
    """
    columns: dict[str, list[int]] = {column: [] for _, _, column in _FIELDS}
    infos = []
    known_templates: set[int] = set()
    for message in messages:
        if len(message) < _MESSAGE_HEADER.size:
            raise IpfixError("truncated message header")
        version, length, export_time, sequence, domain = _MESSAGE_HEADER.unpack(
            message[: _MESSAGE_HEADER.size]
        )
        if version != IPFIX_VERSION:
            raise IpfixError(f"not an IPFIX message (version {version})")
        if length != len(message):
            raise IpfixError("message length mismatch")
        offset = _MESSAGE_HEADER.size
        records_in_message = 0
        while offset < length:
            if length - offset < _SET_HEADER.size:
                raise IpfixError("truncated set header")
            set_id, set_length = _SET_HEADER.unpack(
                message[offset : offset + _SET_HEADER.size]
            )
            if set_length < _SET_HEADER.size or offset + set_length > length:
                raise IpfixError("bad set length")
            body = message[offset + _SET_HEADER.size : offset + set_length]
            if set_id == TEMPLATE_SET_ID:
                _check_template(body)
                known_templates.add(FLOW_TEMPLATE_ID)
            elif set_id == FLOW_TEMPLATE_ID:
                if set_id not in known_templates:
                    raise IpfixError(f"data set for unknown template {set_id}")
                records_in_message += _unpack_records(body, columns)
            else:
                raise IpfixError(f"unsupported set id {set_id}")
            offset += set_length
        infos.append(
            IpfixMessageInfo(
                export_time=export_time,
                sequence=sequence,
                observation_domain=domain,
                num_records=records_in_message,
            )
        )
    count = len(columns["src_ip"])
    sender = np.array(columns["sender_asn"], dtype=np.int64)
    dst_asn = np.array(columns["dst_asn"], dtype=np.int64)
    table = FlowTable(
        src_ip=np.array(columns["src_ip"], dtype=np.uint32),
        dst_ip=np.array(columns["dst_ip"], dtype=np.uint32),
        proto=np.array(columns["proto"], dtype=np.uint8),
        dport=np.array(columns["dport"], dtype=np.uint16),
        packets=np.array(columns["packets"], dtype=np.int64),
        bytes=np.array(columns["bytes"], dtype=np.int64),
        sender_asn=np.where(sender == 0, -1, sender).astype(np.int32),
        dst_asn=np.where(dst_asn == 0, -1, dst_asn).astype(np.int32),
        spoofed=np.zeros(count, dtype=bool),
    )
    return table, infos


def _check_template(body: bytes) -> None:
    if len(body) < 4:
        raise IpfixError("truncated template")
    template_id, field_count = struct.unpack("!HH", body[:4])
    if template_id != FLOW_TEMPLATE_ID or field_count != len(_FIELDS):
        raise IpfixError("unsupported template")
    expected = b"".join(
        struct.pack("!HH", element_id, length) for element_id, length, _ in _FIELDS
    )
    if body[4 : 4 + len(expected)] != expected:
        raise IpfixError("template field mismatch")


def _unpack_records(body: bytes, columns: dict[str, list[int]]) -> int:
    usable = len(body) - (len(body) % _RECORD_LENGTH)  # ignore padding
    count = 0
    for offset in range(0, usable, _RECORD_LENGTH):
        cursor = offset
        for _, length, column in _FIELDS:
            columns[column].append(
                int.from_bytes(body[cursor : cursor + length], "big")
            )
            cursor += length
        count += 1
    return count
